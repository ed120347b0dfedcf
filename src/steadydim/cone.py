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

The tableau starts from N's int rows, and the right-hand side, reduced
costs and objective stay ints until a pivot divides by an entry other
than 1; that quotient is an exact ``Fraction`` (or an int when it is
integral), and the ratio test compares ratios by cross-multiplying, so
the zero-pivot path builds no Fraction at all.  The witness holds ints
and non-integral Fractions, like every ``RatMatrix`` value.  Witnesses
are re-validated exactly before being returned; no infeasibility
certificate is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .ratmat import Rational, RatMatrix, add_multiple, quotient, rational


class ConeStatus(str, Enum):
    POSITIVE_VECTOR_EXISTS = "positive_vector_exists"
    EMPTY = "empty"


@dataclass(frozen=True)
class ConeResult:
    status: ConeStatus
    witness: Optional[tuple[Rational, ...]]

    @property
    def exists(self) -> bool:
        return self.status is ConeStatus.POSITIVE_VECTOR_EXISTS


def _phase_one_simplex(a_rows: list[dict[int, Rational]], rhs: list[Rational], nvars: int):
    """Minimize the sum of artificials for {A v = rhs, v >= 0}.

    ``a_rows`` holds the nonzero entries of each row of A.  Returns the
    attained optimum and the v part of the final basic solution.  Bland's
    rule: entering column is the lowest index with a negative reduced
    cost; the leaving row is the one whose basic variable has the lowest
    index among the minimum-ratio ties.  The loop ends at a zero
    objective, which is optimal, or when no reduced cost is negative.
    Tableau rows and reduced costs keep only their nonzeros; the
    right-hand side is a separate column.
    """
    m = len(a_rows)
    # make rhs nonnegative so the artificial basis is feasible
    tableau = []
    rhs = list(rhs)
    for i in range(m):
        row = dict(a_rows[i])
        if rhs[i] < 0:
            row = {j: -x for j, x in row.items()}
            rhs[i] = -rhs[i]
        row[nvars + i] = 1
        tableau.append(row)
    basis = list(range(nvars, nvars + m))
    # reduced costs for cost vector (0,...,0,1,...,1) under the artificial basis:
    # zero on the artificials, minus the column sums on the rest
    cost: dict[int, Rational] = {}
    for row in tableau:
        for j, x in row.items():
            if j < nvars:
                cost[j] = cost.get(j, 0) - x
    cost = {j: x for j, x in cost.items() if x}
    objective = sum(rhs)

    # the objective is a sum of nonnegative artificials, so once it is 0
    # every further pivot has step 0 and leaves the solution where it is
    while objective:
        entering = min((j for j, c in cost.items() if c.numerator < 0), default=None)
        if entering is None:
            break
        leaving = -1
        for i in range(m):
            coeff = tableau[i].get(entering)
            if coeff is None or coeff.numerator <= 0:
                continue
            if leaving >= 0:
                # ratio rhs[i] / coeff against the best so far, cross-multiplied
                # (both coefficients are positive)
                ratio, best = rhs[i] * tableau[leaving][entering], rhs[leaving] * coeff
                if ratio > best or (ratio == best and basis[i] > basis[leaving]):
                    continue
            leaving = i
        if leaving < 0:
            # phase-1 objective is bounded below by zero, so this is unreachable
            raise RuntimeError("unbounded phase-1 objective")
        piv_row = tableau[leaving]
        piv = piv_row[entering]
        if piv != 1:
            tableau[leaving] = piv_row = {j: quotient(x, piv) for j, x in piv_row.items()}
            rhs[leaving] = quotient(rhs[leaving], piv)
        b = rhs[leaving]
        for i in range(m):
            if i != leaving:
                row = tableau[i]
                f = row.get(entering)
                if f is not None:
                    add_multiple(row, -f, piv_row)
                    rhs[i] -= f * b
        f = cost.get(entering)
        if f is not None:
            add_multiple(cost, -f, piv_row)
            objective += f * b
        basis[leaving] = entering

    solution = [0] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            solution[var] = rhs[i]
    return objective, solution


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
    optimum, v = _phase_one_simplex(a_rows, rhs, r)
    if optimum != 0:
        return ConeResult(ConeStatus.EMPTY, None)
    w = tuple(rational(x + 1) for x in v)
    residual = n_mat.mul_vec(w)
    if any(residual) or min(w) < 1:
        raise RuntimeError("simplex produced an invalid cone witness")
    return ConeResult(ConeStatus.POSITIVE_VECTOR_EXISTS, w)
