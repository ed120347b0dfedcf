import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.simplex import InfeasibleLPError, linprog

from steadydim import cone
from steadydim.cone import ConeResult, _phase_one_simplex, positive_kernel_vector
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.ratmat import RatMatrix, row_update

from conftest import NETWORK_MATRICES, random_network, random_rational_matrix

DATA = Path(__file__).resolve().parent / "data"
CHAIN12 = DATA / "chain12.crn"


def sympy_cone_feasible(m: RatMatrix) -> bool:
    """Independent oracle: exact LP feasibility of {m w = 0, w >= 1}.

    Uses the substitution v = w - 1 and encodes the equality as a pair of
    inequalities (sympy's exact simplex with default v >= 0 bounds).
    """
    rows = [m.row(i) for i in range(m.rows)]
    rhs = [-sum(row) for row in rows]
    a = [list(row) for row in rows] + [[-x for x in row] for row in rows]
    b = rhs + [-x for x in rhs]
    try:
        linprog([0] * m.cols, A=a, b=b)
        return True
    except InfeasibleLPError:
        return False


def assert_valid_witness(m: RatMatrix, result: ConeResult):
    assert result.exists
    w = result.witness
    assert len(w) == m.cols
    assert min(w) >= 1
    assert m.mul_vec(w) == (Fraction(0),) * m.rows
    # witness lies in the kernel's column space
    g = m.kernel_basis()
    augmented = RatMatrix.from_rows([list(g.row(i)) + [w[i]] for i in range(g.rows)])
    assert augmented.rank() == g.rank()


def test_calcium_cone(calcium_gamma):
    res = positive_kernel_vector(calcium_gamma)
    assert_valid_witness(calcium_gamma, res)
    # the hand-checkable vector (1,1,1,2,1,1) is one valid point of the cone
    assert calcium_gamma.mul_vec((1, 1, 1, 2, 1, 1)) == (0, 0, 0, 0)
    # same status on a row basis of gamma
    res2 = positive_kernel_vector(calcium_gamma.row_basis())
    assert res2.exists is res.exists
    assert_valid_witness(calcium_gamma.row_basis(), res2)


def test_kernel_line_through_positive_orthant():
    n = RatMatrix.from_rows([[1, -2, 1]])
    res = positive_kernel_vector(n)
    assert_valid_witness(n, res)


def test_antidiagonal_kernel_is_empty():
    res = positive_kernel_vector(RatMatrix.from_rows([[1, 1]]))
    assert not res.exists
    assert res.witness is None


def test_trivial_kernel_is_empty():
    # single reaction X -> Y: kernel of N = [1] is {0}
    res = positive_kernel_vector(RatMatrix.from_rows([[1]]))
    assert not res.exists


def test_no_constraints_all_ones():
    res = positive_kernel_vector(RatMatrix.zeros(0, 4))
    assert res.witness == (1, 1, 1, 1)


def test_rational_entries():
    n = RatMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)]])
    res = positive_kernel_vector(n)
    assert_valid_witness(n, res)


def test_rejects_empty_column_count():
    with pytest.raises(ValueError):
        positive_kernel_vector(RatMatrix.zeros(1, 0))


def test_status_independent_of_row_basis_random():
    rng = random.Random(303)
    for _ in range(25):
        mats = NetworkMatrices.from_network(random_network(rng))
        via_gamma = positive_kernel_vector(mats.gamma)
        via_n = positive_kernel_vector(mats.n_mat)
        assert via_gamma.exists is via_n.exists
        if via_n.exists:
            assert_valid_witness(mats.n_mat, via_n)
            assert_valid_witness(mats.gamma, via_gamma)


def test_against_sympy_lp_oracle():
    rng = random.Random(304)
    for _ in range(40):
        m = random_rational_matrix(rng, max_dim=5, max_num=4)
        res = positive_kernel_vector(m)
        assert res.exists == sympy_cone_feasible(m)
        if res.exists:
            assert_valid_witness(m, res)


# -- phase 1 stops at a zero objective ------------------------------------------


def bland_to_optimality(a_rows, rhs, nvars):
    """Reference phase 1: the divided tableau and Bland pivots, run until no
    reduced cost is negative, however long the objective has been 0.

    Every value is a Fraction, each pivot row is divided by its pivot, and
    ratios divide with ``/``: plain exact arithmetic, apart from the int
    rows, right-hand-side column and cross-multiplied ratios of the simplex
    under test."""

    def subtract(target, f, source):
        # target -= f * source on sparse rows, dropping the entries that cancel
        for j, x in source.items():
            y = target.get(j, 0) - f * x
            if y:
                target[j] = y
            else:
                del target[j]

    m = len(a_rows)
    tableau, rhs = [], [Fraction(x) for x in rhs]
    for i in range(m):
        row = {j: Fraction(x) for j, x in a_rows[i].items()}
        if rhs[i] < 0:
            row = {j: -x for j, x in row.items()}
            rhs[i] = -rhs[i]
        row[nvars + i] = Fraction(1)
        tableau.append(row)
    basis = list(range(nvars, nvars + m))
    cost = {}
    for row in tableau:
        for j, x in row.items():
            if j < nvars:
                cost[j] = cost.get(j, 0) - x
    cost = {j: x for j, x in cost.items() if x}
    objective = sum(rhs, Fraction(0))
    while True:
        entering = min((j for j, c in cost.items() if c < 0), default=None)
        if entering is None:
            break
        leaving, best = -1, None
        for i in range(m):
            coeff = tableau[i].get(entering)
            if coeff is not None and coeff > 0:
                ratio = rhs[i] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        piv = tableau[leaving][entering]
        tableau[leaving] = piv_row = {j: x / piv for j, x in tableau[leaving].items()}
        rhs[leaving] /= piv
        b = rhs[leaving]
        for i in range(m):
            f = tableau[i].get(entering)
            if i != leaving and f is not None:
                subtract(tableau[i], f, piv_row)
                rhs[i] -= f * b
        f = cost.get(entering)
        if f is not None:
            subtract(cost, f, piv_row)
            objective += f * b
        basis[leaving] = entering
    solution = [Fraction(0)] * nvars
    for i, var in enumerate(basis):
        if var < nvars:
            solution[var] = rhs[i]
    return objective, solution


def test_phase_one_makes_no_pivot_when_the_ones_vector_is_in_the_kernel(monkeypatch):
    # the chain's reactions form a cycle with reversible pairs, so N 1 = 0 and
    # the objective starts at 0; running on to Bland optimality takes 11 pivots
    mats = NetworkMatrices.from_network(parse_network(CHAIN12.read_text()))
    calls = []
    monkeypatch.setattr(cone, "row_update", lambda *args: calls.append(args) or row_update(*args))
    res = positive_kernel_vector(mats.n_mat)
    assert calls == []
    assert res.witness == (1,) * mats.r


def test_phase_one_pivots_keep_primitive_int_rows(monkeypatch):
    # the empty cone's pivots meet entries that do not divide each other, so
    # the divided tableau would hold non-integral values; here each updated
    # row is divided by its content right after its update
    mats = NetworkMatrices.from_network(parse_network((DATA / "empty_cone.crn").read_text()))
    touched, rows, factors = [], [], []

    def spy(target, a, b, source):
        # the last updated row is complete by the time the next update starts
        if touched:
            rows.append(dict(touched[-1]))
        row_update(target, a, b, source)
        touched.append(target)
        factors.append(a)

    monkeypatch.setattr(cone, "row_update", spy)
    assert not positive_kernel_vector(mats.n_mat).exists
    rows.append(dict(touched[-1]))
    assert any(a != 1 for a in factors)
    for row in rows:
        assert row and all(x.__class__ is int for x in row.values())
        assert gcd(*row.values()) == 1


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mats=NETWORK_MATRICES, data=st.data())
def test_phase_one_agrees_with_the_run_to_optimality(mats, data):
    # a pivot taken at objective 0 has step 0: it changes the basis, never
    # the basic solution, so stopping there gives the same optimum and point.
    # Besides the cone's right-hand side -N 1, the feasible A x0 (x0 >= 0)
    # reaches objective 0 with reduced costs still negative more often.
    for m in (mats.n_mat, mats.gamma):
        a_rows = [m.entries(i) for i in range(m.rows)]
        x0 = data.draw(st.lists(st.integers(0, 2), min_size=m.cols, max_size=m.cols))
        for rhs in ([-sum(row.values(), Fraction(0)) for row in a_rows], list(m.mul_vec(x0))):
            objective, solution = bland_to_optimality(a_rows, rhs, m.cols)
            # the simplex takes over the dicts it is given
            assert _phase_one_simplex([dict(row) for row in a_rows], rhs, m.cols) == (objective == 0, solution)
