import random
from fractions import Fraction

import pytest
from sympy.solvers.simplex import InfeasibleLPError, linprog

from steadydim.cone import ConeResult, ConeStatus, positive_kernel_vector
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.ratmat import RatMatrix

from conftest import random_network, random_rational_matrix


def sympy_cone_feasible(m: RatMatrix) -> bool:
    """Independent oracle: exact LP feasibility of {m w = 0, w >= 1}.

    Uses the substitution v = w - 1 and encodes the equality as a pair of
    inequalities (sympy's exact simplex with default v >= 0 bounds).
    """
    rows = m.to_rows()
    rhs = [-sum(row) for row in rows]
    a = [list(row) for row in rows] + [[-x for x in row] for row in rows]
    b = rhs + [-x for x in rhs]
    try:
        linprog([0] * m.cols, A=a, b=b)
        return True
    except InfeasibleLPError:
        return False


def assert_valid_witness(m: RatMatrix, result: ConeResult):
    assert result.status is ConeStatus.POSITIVE_VECTOR_EXISTS
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
    assert res2.status is res.status
    assert_valid_witness(calcium_gamma.row_basis(), res2)


def test_kernel_line_through_positive_orthant():
    n = RatMatrix.from_rows([[1, -2, 1]])
    res = positive_kernel_vector(n)
    assert_valid_witness(n, res)


def test_antidiagonal_kernel_is_empty():
    res = positive_kernel_vector(RatMatrix.from_rows([[1, 1]]))
    assert res.status is ConeStatus.EMPTY
    assert res.witness is None


def test_trivial_kernel_is_empty():
    # single reaction X -> Y: kernel of N = [1] is {0}
    res = positive_kernel_vector(RatMatrix.from_rows([[1]]))
    assert res.status is ConeStatus.EMPTY


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
        assert via_gamma.status is via_n.status
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
