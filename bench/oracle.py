"""Independent correctness oracle for ``steadydim analyze --json`` reports.

Runs after the timed region.  It builds gamma and B from the
generator's own coefficients (never from steadydim's parser) and checks
every claim of a report in exact arithmetic, with sympy's DomainMatrix
for ranks and kernels:

  * dimensions (n, r, s, d) and the species order of the text;
  * a cone witness satisfies gamma w = 0 and w > 0; an empty cone comes
    with a Stiemke certificate y (y^T gamma >= 0, not 0), checked exactly;
  * a nondegenerate f-witness w lies in ker(gamma) and
    rank(gamma diag(w) B^T) = s; a nondegenerate F-witness (w, h) gives
    rank [gamma diag(w) B^T diag(h); W] = n, with W a left-kernel basis;
  * an all_degenerate claim holds as rank < target at a few random kernel
    points (and random positive h);
  * the conclusions follow from the three verdicts, and networks with a
    known answer give it.

Replacing the first s rows of the matrices by the n rows of gamma does not
change either rank, because gamma's rows span the same space as the row
basis N the program uses.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from workloads import AD, ND, Network

RANDOM_POINTS = 3


def _q(x) -> object:
    f = Fraction(x)
    return QQ(f.numerator, f.denominator)


def _rank(rows: dict[int, dict[int, object]], shape: tuple[int, int]) -> int:
    sparse = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
    return DomainMatrix({i: row for i, row in sparse.items() if row}, shape, QQ).rank()


class NetworkOracle:
    """Exact reference data of one network and the checks against it."""

    def __init__(self, net: Network):
        self.net = net
        sp = {s: i for i, s in enumerate(net.species)}
        self.n, self.r = len(net.species), len(net.reactions)
        gamma: dict[int, dict[int, object]] = {}
        b: dict[int, dict[int, object]] = {}
        for j, (lhs, rhs) in enumerate(net.reactions):
            for s in set(lhs) | set(rhs):
                g = rhs.get(s, 0) - lhs.get(s, 0)
                if g:
                    gamma.setdefault(sp[s], {})[j] = QQ(g)
            for s, c in lhs.items():
                b.setdefault(sp[s], {})[j] = QQ(c)
        self.gamma, self.b = gamma, b
        gm = DomainMatrix(gamma, (self.n, self.r), QQ)
        self.s = gm.rank()
        self.d = self.n - self.s
        self.w_rows = [list(row) for row in gm.transpose().nullspace().to_list()] if self.d else []
        ker = gm.nullspace().to_list() if self.r > self.s else []
        self.kernel = [list(v) for v in ker]

    # -- matrices at a point ------------------------------------------------

    def _in_kernel(self, w) -> bool:
        return all(sum(v * w[j] for j, v in row.items()) == 0 for row in self.gamma.values())

    def _jacobian(self, w, h=None) -> dict[int, dict[int, object]]:
        """gamma diag(w) B^T, columns scaled by h when given (n x n)."""
        out: dict[int, dict[int, object]] = {}
        for i, grow in self.gamma.items():
            acc: dict[int, object] = {}
            for k, brow in self.b.items():
                v = sum((g * w[j] * brow[j] for j, g in grow.items() if j in brow), QQ(0))
                if v:
                    acc[k] = v * h[k] if h is not None else v
            out[i] = acc
        return out

    def rank_f(self, w) -> int:
        return _rank(self._jacobian(w), (self.n, self.n))

    def rank_F(self, w, h) -> int:
        rows = self._jacobian(w, h)
        for a, wrow in enumerate(self.w_rows):
            rows[self.n + a] = dict(enumerate(wrow))
        return _rank(rows, (self.n + self.d, self.n))

    def _random_point(self, rng: random.Random):
        w = [QQ(0)] * self.r
        for vec in self.kernel:
            c = QQ(rng.randint(-1000, 1000))
            w = [x + c * y for x, y in zip(w, vec)]
        h = [QQ(rng.randint(1, 1000)) for _ in range(self.n)]
        return w, h

    def empty_cone_certified(self) -> bool:
        """Find and check a Stiemke certificate that ker(gamma) misses the positive orthant.

        Stiemke's lemma: no w > 0 has gamma w = 0 exactly when some y gives
        y^T gamma >= 0 and y^T gamma != 0.  A floating-point LP proposes y;
        the certificate is accepted only after an exact check in rationals.
        (sympy's exact simplex returns infeasible points on some of these
        systems, so it cannot be the reference here.)
        """
        g = np.zeros((self.n, self.r))
        for i, row in self.gamma.items():
            for j, v in row.items():
                g[i, j] = int(v)
        res = linprog(np.zeros(self.n), A_ub=-g.T, b_ub=np.zeros(self.r),
                      A_eq=g.sum(axis=1)[None, :], b_eq=[1.0],
                      bounds=[(None, None)] * self.n, method="highs")
        if res.status != 0:
            return False
        for limit in (10**4, 10**6, 10**9):
            y = [Fraction(v).limit_denominator(limit) for v in res.x]
            z = [sum(int(g[i, j]) * y[i] for i in range(self.n)) for j in range(self.r)]
            if min(z) >= 0 and max(z) > 0:
                return True
        return False

    # -- the check ------------------------------------------------------------

    def check(self, report: dict, rng: random.Random) -> list[str]:
        """Problems found in ``report``; an empty list means it is correct."""
        problems: list[str] = []
        net = report["network"]
        dims = (net["n"], net["r"], net["s"], net["d"])
        if dims != (self.n, self.r, self.s, self.d):
            return [f"dims {dims} != {(self.n, self.r, self.s, self.d)}"]
        if tuple(net["species"]) != self.net.species:
            return [f"species order {net['species']} != {list(self.net.species)}"]

        cone = report["cone"]
        if cone["exists"]:
            w = [_q(x) for x in cone["witness"]]
            if len(w) != self.r or min(w) <= 0 or not self._in_kernel(w):
                problems.append("cone witness is not a positive kernel vector")
        elif not self.empty_cone_certified():
            problems.append("cone reported empty but no Stiemke certificate found")

        f, F = report["f_test"], report["F_test"]
        if (f["target_rank"], F["target_rank"]) != (self.s, self.n):
            problems.append("wrong target ranks")
        for name, v in (("f", f), ("F", F)):
            if v["status"] == ND:
                w = [_q(x) for x in v["witness_w"]]
                if len(w) != self.r or not self._in_kernel(w):
                    problems.append(f"{name} witness w is not in ker(gamma)")
                    continue
                if name == "f":
                    ok = self.rank_f(w) == self.s
                else:
                    h = [_q(x) for x in v["witness_h"]]
                    ok = len(h) == self.n and min(h) > 0 and self.rank_F(w, h) == self.n
                if not ok:
                    problems.append(f"{name} witness does not reach the target rank")
            elif v["status"] == AD:
                for _ in range(RANDOM_POINTS):
                    w, h = self._random_point(rng)
                    rank = self.rank_f(w) if name == "f" else self.rank_F(w, h)
                    if rank >= v["target_rank"]:
                        problems.append(f"{name} all_degenerate but full rank at a random point")
                        break
            else:
                problems.append(f"{name} status {v['status']!r}")

        concl = report["conclusions"]
        if not cone["exists"]:
            want = ("no_positive_steady_states", "no_positive_steady_states")
        else:
            want = (
                "generic_dimension_n_minus_s" if f["status"] == ND else "empty_or_higher_dimensional",
                "generically_finite" if F["status"] == ND else "generically_empty_or_infinite",
            )
        if (concl["steady_state_variety"], concl["compatibility_classes"]) != want:
            problems.append(f"conclusions {concl} do not follow from the verdicts")

        exp = self.net.expected
        if exp is not None:
            got = (cone["exists"], f["status"], F["status"], dims)
            if got != (exp.cone, exp.f_status, exp.F_status, exp.dims):
                problems.append(f"verdict {got} != expected {exp}")
        return problems
