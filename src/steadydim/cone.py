"""Exact feasibility of the positive kernel cone.

Decides whether ker(N) meets the strictly positive orthant, returning a
rational witness with every entry >= 1 when it does.  Since the cone is
invariant under scaling, {N w = 0, w >= 1} is feasible exactly when a
strictly positive kernel vector exists, and the bound 1 keeps the whole
problem rational (no symbolic epsilon).

The decision runs a phase-1 simplex on {N v = -N 1, v >= 0} (from the
substitution v = w - 1) with Bland's anti-cycling rule, so termination is
guaranteed.  It stops as soon as the sum of the artificials is 0, the
least it can be: when N 1 = 0 already (a cycle of reactions, say) that
is before the first pivot, and the witness is w = 1.  Only an empty cone
pivots all the way to Bland optimality.  The tableau rows and the reduced
costs hold only their nonzero entries (N has a few per column), and a
pivot touches only the rows with a nonzero in the entering column.

The tableau is fraction-free: every row, the reduced costs included, is
a dict of nonzero ints with the right-hand side as one more column, and
a pivot updates a row as ``(piv/g)·row − (f/g)·pivot_row`` and divides
it by its content.  Each row thus stays a positive multiple of the
divided tableau's, so the signs, the ratios (compared by
cross-multiplying) and Bland's pivots are the same.  The only division
is the witness's: a basic value is the quotient of two entries of its
row, a ``Fraction`` only when it is not an integer, like every
``RatMatrix`` value.  Witnesses are re-validated exactly before being
returned; no infeasibility certificate is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .ratmat import Rational, RatMatrix, _integral, divide_content, quotient, rational, row_update


@dataclass(frozen=True)
class ConeResult:
    """The witness, None when the cone is empty: ``exists`` reads it."""

    witness: Optional[tuple[Rational, ...]]

    @property
    def exists(self) -> bool:
        return self.witness is not None


def _phase_one_simplex(a_rows: list[dict[int, Rational]], rhs: list[Rational], nvars: int):
    """Minimize the sum of artificials for {A v = rhs, v >= 0}.

    ``a_rows`` holds the nonzero entries of each row of A, in dicts the
    simplex takes over: each gets its right-hand side at column ``end``
    and is copied once, scaled to ints, into the tableau.  Returns
    whether the optimum is 0 (the system is feasible) and the v part of
    the final basic solution.  Bland's rule: entering column is the
    lowest index with a negative reduced cost; the leaving row is the one
    whose basic variable has the lowest index among the minimum-ratio
    ties.  The loop ends at a zero objective, which is optimal, or when
    no reduced cost is negative.

    Every row, the reduced-cost row included, is a dict of nonzero ints
    with the right-hand side at column ``end = nvars + m``; the cost row
    holds minus the objective there.
    """
    m = len(a_rows)
    end = nvars + m
    for row, b in zip(a_rows, rhs):
        if b:
            row[end] = b
    scaled = [_integral(row) for row in a_rows]
    # the cost row is lcm(scales) times minus the sum of the divided rows,
    # 0 at the artificials, which are basic
    common = lcm(*(scale for scale, _ in scaled))
    tableau = []
    cost: dict[int, int] = {}
    for i, (scale, row) in enumerate(scaled):
        # make rhs nonnegative so the artificial basis is feasible
        if row.get(end, 0) < 0:
            for j in row:
                row[j] = -row[j]
        weight = common // scale
        for j, x in row.items():
            cost[j] = cost.get(j, 0) - weight * x
        row[nvars + i] = scale
        tableau.append(row)
    cost = {j: x for j, x in cost.items() if x}
    basis = list(range(nvars, nvars + m))

    # the objective is a sum of nonnegative artificials, so once it is 0
    # every further pivot has step 0 and leaves the solution where it is;
    # while it is positive, end is a candidate and enters only at the optimum
    while end in cost:
        entering = min(j for j, c in cost.items() if c < 0)
        if entering == end:
            break
        leaving = -1
        for i in range(m):
            coeff = tableau[i].get(entering, 0)
            if coeff <= 0:
                continue
            if leaving >= 0:
                # ratio rhs_i / coeff against the best so far, cross-multiplied
                # (both coefficients are positive)
                best_row = tableau[leaving]
                ratio, best = tableau[i].get(end, 0) * best_row[entering], best_row.get(end, 0) * coeff
                if ratio > best or (ratio == best and basis[i] > basis[leaving]):
                    continue
            leaving = i
        if leaving < 0:
            # phase-1 objective is bounded below by zero, so this is unreachable
            raise RuntimeError("unbounded phase-1 objective")
        piv_row = tableau[leaving]
        piv = piv_row[entering]
        for row in (*tableau, cost):
            f = row.get(entering)
            if f is not None and row is not piv_row:
                g = gcd(piv, f)
                row_update(row, piv // g, f // g, piv_row)
                divide_content(row)
        basis[leaving] = entering

    solution = [0] * nvars
    for row, var in zip(tableau, basis):
        if var < nvars:
            solution[var] = quotient(row.get(end, 0), row[var])
    return end not in cost, solution


def positive_kernel_vector(n_mat: RatMatrix) -> ConeResult:
    """Decide ker(n_mat) ∩ R^r_{>0} ≠ ∅, with an exact witness.

    The witness, when it exists, satisfies n_mat @ w = 0 and w_i >= 1
    componentwise (validated before returning).
    """
    r = n_mat.cols
    if r < 1:
        raise ValueError("cone feasibility needs at least one column")
    a_rows = [n_mat.entries(i) for i in range(n_mat.rows)]
    rhs = [-sum(row.values()) for row in a_rows]
    feasible, v = _phase_one_simplex(a_rows, rhs, r)
    if not feasible:
        return ConeResult(None)
    w = tuple(rational(x + 1) for x in v)
    if not is_cone_witness(n_mat, w):
        raise RuntimeError("simplex produced an invalid cone witness")
    return ConeResult(w)


def is_cone_witness(n_mat: RatMatrix, w) -> bool:
    """Whether ``w`` is a witness as ``positive_kernel_vector`` returns one:
    n_mat @ w = 0 and w_i >= 1 componentwise."""
    return len(w) == n_mat.cols and all(x >= 1 for x in w) and not any(n_mat.mul_vec(w))
