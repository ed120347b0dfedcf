import random
from fractions import Fraction

import pytest
import sympy

from steadydim.ratmat import RatMatrix, primitive

from conftest import CALCIUM_B, CALCIUM_GAMMA, random_rational_matrix


def identity(k: int) -> RatMatrix:
    return RatMatrix.from_rows([[int(i == j) for j in range(k)] for i in range(k)])


def test_primitive_rescaling():
    assert primitive([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert primitive([-2, 4, -6]) == (1, -2, 3)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([Fraction(0), Fraction(-5)]) == (0, 1)


def test_rref_identity():
    ident = identity(3)
    red, pivots, rank = ident.rref()
    assert red == ident
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_zero():
    z = RatMatrix.zeros(2, 2)
    red, pivots, rank = z.rref()
    assert red == z
    assert pivots == ()
    assert rank == 0


def test_rref_calcium_rank(calcium_gamma):
    _, _, rank = calcium_gamma.rref()
    assert rank == 3


def test_rref_idempotent(calcium_gamma):
    red, _, _ = calcium_gamma.rref()
    again, _, _ = red.rref()
    assert again == red


def test_rank_basics():
    assert identity(4).rank() == 4
    assert RatMatrix.from_rows([[1, 2], [1, 2]]).rank() == 1


def test_rank_stacked_calcium(calcium_gamma, calcium_b):
    # rank [Gamma diag(w) B^T ; W] = 4 at w = (1,1,1,2,1,1)
    scaled = calcium_gamma.scale_columns([1, 1, 1, 2, 1, 1])
    stacked = (scaled @ calcium_b.transpose()).vstack(
        RatMatrix.from_rows([[0, 0, 1, 1]])
    )
    assert stacked.rank() == 4


def test_kernel_of_zero_matrix_is_full_space():
    k = RatMatrix.zeros(2, 3).kernel_basis()
    assert k == identity(3)


def test_kernel_basis_single_row():
    n = RatMatrix.from_rows([[1, -2, 1]])
    g = n.kernel_basis()
    assert (g.rows, g.cols) == (3, 2)
    # every column w satisfies w1 - 2 w2 + w3 = 0, checked by exact product
    assert (n @ g).is_zero()
    assert g.rank() == 2


def test_kernel_basis_calcium(calcium_gamma):
    g = calcium_gamma.kernel_basis()
    assert (g.rows, g.cols) == (6, 3)
    assert (calcium_gamma @ g).is_zero()
    assert g.rank() == 3


def test_row_basis_identity():
    ident = identity(3)
    assert ident.row_basis() == ident


def test_row_basis_rank_one():
    gamma = RatMatrix.from_rows([[1, -2, 1], [-1, 2, -1]])
    n = gamma.row_basis()
    assert n.rows == 1
    # single row proportional to (1, -2, 1)
    row = n.row(0)
    assert row == (1, -2, 1)


def test_row_basis_calcium(calcium_gamma):
    n = calcium_gamma.row_basis()
    assert (n.rows, n.cols) == (3, 6)
    assert n.rank() == 3
    assert n.is_integral()
    # same row space: stacking does not raise the rank, in both directions
    assert calcium_gamma.vstack(n).rank() == 3
    assert n.vstack(calcium_gamma).rank() == 3


def test_left_kernel_calcium(calcium_gamma):
    w = calcium_gamma.left_kernel_basis()
    assert (w.rows, w.cols) == (1, 4)
    assert w.row(0) == (0, 0, 1, 1)
    assert (w @ calcium_gamma).is_zero()


def test_left_kernel_rank_one_gamma():
    gamma = RatMatrix.from_rows([[1, -2, 1], [-1, 2, -1]])
    w = gamma.left_kernel_basis()
    assert w.rows == 1
    assert w.row(0) == (1, 1)
    assert (w @ gamma).is_zero()


def test_left_kernel_full_row_rank():
    m = RatMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
    w = m.left_kernel_basis()
    assert (w.rows, w.cols) == (0, 2)


def test_empty_shapes():
    m = RatMatrix.zeros(0, 3)
    assert m.rank() == 0
    assert m.kernel_basis() == identity(3)
    n = RatMatrix.zeros(3, 0)
    assert n.rank() == 0
    assert n.kernel_basis().cols == 0
    assert (RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 4)) == RatMatrix.zeros(2, 4)


def test_matmul_and_mul_vec(calcium_gamma):
    w = (1, 1, 1, 2, 1, 1)
    assert calcium_gamma.mul_vec(w) == (0, 0, 0, 0)
    assert not calcium_gamma.mul_vec((1, 1, 1, 1, 1, 1)) == (0, 0, 0, 0)


def test_immutability():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = 5


@pytest.mark.parametrize("seed", range(4))
def test_random_matrix_identities(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        m = random_rational_matrix(rng)
        red, pivots, rank = m.rref()
        assert rank == m.transpose().rank()
        assert list(pivots) == sorted(pivots)
        k = m.kernel_basis()
        assert rank + k.cols == m.cols
        assert (m @ k).is_zero()
        lk = m.left_kernel_basis()
        assert lk.rows == m.rows - rank
        assert (lk @ m).is_zero()
        assert red.rref()[0] == red
        rb = m.row_basis()
        assert rb.rank() == rank
        assert m.vstack(rb).rank() == rank


def test_row_equivalent_stacked_ranks_random_networks():
    # gamma and its row basis give the same stacked rank for any scalings
    from steadydim.netmodel import NetworkMatrices

    from conftest import random_network

    rng = random.Random(555)
    for _ in range(25):
        mats = NetworkMatrices.from_network(random_network(rng))
        w = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(mats.r)]
        h = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(mats.n)]
        bt = mats.b.transpose()
        via_gamma = (mats.gamma.scale_columns(w) @ bt).scale_columns(h).vstack(mats.w_mat)
        via_n = (mats.n_mat.scale_columns(w) @ bt).scale_columns(h).vstack(mats.w_mat)
        assert via_gamma.rank() == via_n.rank()


def test_scale_columns():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m.scale_columns([2, 3]) == RatMatrix.from_rows([[2, 6], [6, 12]])
    assert m.scale_columns([2, 3]) == m @ RatMatrix.from_rows([[2, 0], [0, 3]])


def test_against_sympy_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        m = random_rational_matrix(rng, max_dim=5)
        sm = sympy.Matrix([[sympy.Rational(x) for x in m.row(i)] for i in range(m.rows)])
        sym_rref, sym_pivots = sm.rref()
        red, pivots, rank = m.rref()
        assert pivots == tuple(sym_pivots)
        assert rank == sm.rank()
        for i in range(m.rows):
            for j in range(m.cols):
                assert red.at(i, j) == Fraction(int(sym_rref[i, j].p), int(sym_rref[i, j].q))
