import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from steadydim.mpoly import MPoly, all_minors_zero, det

from conftest import all_minors_scan, bordering_minors, cofactor_det, dict_rows

# variables u1, u2, h1 are 0, 1, 2
U1, U2, H1 = 0, 1, 2


def u(i, c=1):
    return MPoly.var(U1 + i, c)


def h(i, c=1):
    return MPoly.var(H1 + i, c)


def random_poly(rng: random.Random) -> MPoly:
    pool = [U1, U2, H1]
    p = MPoly()
    for _ in range(rng.randint(0, 4)):
        term = MPoly.const(Fraction(rng.randint(-3, 3)))
        for v in pool:
            for _ in range(rng.randint(0, 2)):
                term = term * MPoly.var(v)
        p = p + term
    return p


def test_additive_identity():
    p = u(0) + h(0, 3)
    assert p + MPoly() == p
    assert MPoly() + p == p


def test_difference_of_squares():
    p = (u(0) + u(1)) * (u(0) - u(1))
    assert p == u(0) * u(0) - u(1) * u(1)


def test_scalar_product():
    assert u(0, 2) * h(0, 3) == (u(0) * h(0)) * 6


def test_neg_and_sub():
    p = u(0) - h(0)
    assert -p == h(0) - u(0)
    assert (p + -p).is_zero()


def test_eval_symmetric_zero():
    p = u(0) * u(0) - u(1) * u(1)
    assert p.eval([3, 3]) == 0


def test_eval_fractional():
    p = u(0, 6) * h(0)
    assert p.eval([Fraction(1, 2), 0, Fraction(1, 3)]) == 1


def test_eval_linear():
    p = u(0, 2) - u(1, 2)
    assert p.eval([2, 5]) == -6


def test_monomials_are_sorted_index_tuples():
    # u1^2 h1 is (0, 0, 2) whatever the order of the factors
    assert h(0) * u(0) * u(0, 3) == MPoly({(U1, U1, H1): 3})
    assert u(0) * MPoly.const(5) == MPoly({(U1,): 5})
    assert MPoly.const(0) == MPoly()


def test_coefficients_keep_their_type():
    p = u(0, 2) * u(1, 3) + MPoly.const(1)
    assert type(p.eval([4, 5])) is int and p.eval([4, 5]) == 121
    half = u(0, Fraction(1, 2))
    assert half * 2 == u(0)
    assert half.eval([Fraction(2, 3)]) == Fraction(1, 3)


def test_det_constant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 4)
        const_rows = [[Fraction(rng.randint(-5, 5)) for _ in range(k)] for _ in range(k)]
        m = [[MPoly.const(x) for x in row] for row in const_rows]
        assert det(dict_rows(m), range(k)).eval([]) == cofactor_det(const_rows)


def test_det_diagonal():
    m = [[u(0), MPoly()], [MPoly(), h(0)]]
    assert det(dict_rows(m), (0, 1)) == u(0) * h(0)


def test_det_duplicate_row_is_zero():
    row = [u(0), h(0, 2), MPoly.const(1)]
    m = [row, [u(1), h(0), u(0)], row]
    assert det(dict_rows(m), (0, 1, 2)).is_zero()


def test_det_empty_matrix_is_one():
    assert det([], ()) == MPoly.const(1)


def test_det_rejects_a_non_square_selection():
    with pytest.raises(ValueError):
        det(dict_rows([[u(0), u(1)]]), (0, 1))


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(30):
        p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)


def test_det_eval_agreement():
    rng = random.Random(21)
    point = [Fraction(3), Fraction(-2), Fraction(5, 7)]
    for _ in range(10):
        k = rng.randint(1, 4)
        m = [[random_poly(rng) for _ in range(k)] for _ in range(k)]
        sym = det(dict_rows(m), range(k))
        evaluated = [[entry.eval(point) for entry in row] for row in m]
        assert sym.eval(point) == cofactor_det(evaluated)
        # det of the numbers is the number: the entries' kind is kept
        assert det(dict_rows(evaluated), range(k)) == sym.eval(point)


def test_all_minors_zero_identity():
    # every leading principal submatrix is a basis, bordered by the next one
    n = 3
    ident = [[MPoly.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for size in range(n):
        lead = tuple(range(size))
        minor = all_minors_zero(dict_rows(ident), n, (lead, lead))
        assert minor == (tuple(range(size + 1)), tuple(range(size + 1)))
        assert det([dict_rows(ident)[i] for i in minor[0]], minor[1]) == MPoly.const(1)


def test_all_minors_zero_rank_one_scaled():
    # rank-1 matrix in one kernel parameter: a 1x1 minor is nonzero, and
    # every 2x2 minor bordering a nonzero entry vanishes
    a = u(0)
    m = [
        [a * -2, a * 2, a * 2],
        [a, -a, -a],
        [a, -a, -a],
    ]
    minor = all_minors_zero(dict_rows(m), 3, ((), ()))
    assert minor == ((0,), (0,))
    assert det([dict_rows(m)[0]], (0,)) == a * -2
    for i in range(3):
        for j in range(3):
            assert all_minors_zero(dict_rows(m), 3, ((i,), (j,))) is None


def test_all_minors_zero_witness_row_vector():
    m = [[u(0, 2) - u(1, 2), MPoly()]]
    minor = all_minors_zero(dict_rows(m), 2, ((), ()))
    assert minor == ((0,), (0,))
    assert det(dict_rows(m), (0,)) == u(0, 2) - u(1, 2)
    # a one-row matrix has no minor bordering a 1x1 one
    assert all_minors_zero(dict_rows(m), 2, ((0,), (0,))) is None


def test_all_minors_zero_bad_k():
    # a 1x1 matrix has no 2x2 minor: a 1x1 basis fits, a 2x2 one does not
    with pytest.raises(ValueError):
        all_minors_zero(dict_rows([[u(0)]]), 1, ((0, 1), (0, 1)))


def _linear_form(rng: random.Random) -> MPoly:
    p = MPoly.const(rng.choice((0, 0, 1, -2)))
    for v in (U1, U2, H1):
        p = p + MPoly.var(v, rng.choice((0, 0, 1, -1, 3)))
    return p


def _dense_linear_form(rng: random.Random) -> MPoly:
    # the u1 coefficient is 2 more than one of 0, 1, -1, 3: never zero
    return _linear_form(rng) + MPoly.var(U1, 2)


def _to_sympy(p: MPoly):
    return sympy.sympify(p.eval(sympy.symbols("u1 u2 h1")))


def test_det_agrees_with_sympy():
    rng = random.Random(99)
    cases = [[[random_poly(rng) for _ in range(k)] for _ in range(k)] for k in (2, 3, 4)]
    for k in range(2, 8):
        cases.append([[_dense_linear_form(rng) for _ in range(k)] for _ in range(k)])
        cases.append(
            [[_linear_form(rng) if rng.random() < 0.5 else MPoly() for _ in range(k)] for _ in range(k)]
        )
    ring = sympy.QQ[sympy.symbols("u1 u2 h1")]
    for m in cases:
        k = len(m)
        entries = [[ring.from_sympy(_to_sympy(p)) for p in row] for row in m]
        sym = det(dict_rows(m), range(k))
        assert ring.from_sympy(_to_sympy(sym)) == DomainMatrix(entries, (k, k), ring).det()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 3))
def test_det_of_a_column_subset_matches_sympy(seed, k, extra):
    # sparse rows over k + extra columns, each with a nonzero entry outside
    # ``cols``; ``cols`` in any order, so the sign of the permutation counts
    rng = random.Random(seed)
    ncols = k + extra
    cols = rng.sample(range(ncols), k)
    outside = [j for j in range(ncols) if j not in cols]
    m = [[_linear_form(rng) if rng.random() < 0.6 else MPoly() for _ in range(ncols)] for _ in range(k)]
    for row in m:
        row[rng.choice(outside)] = _dense_linear_form(rng)
    ring = sympy.QQ[sympy.symbols("u1 u2 h1")]
    entries = [[ring.from_sympy(_to_sympy(row[j])) for j in cols] for row in m]
    sym = det(dict_rows(m), cols)
    assert ring.from_sympy(_to_sympy(sym)) == DomainMatrix(entries, (k, k), ring).det()


def _det_counting_products(monkeypatch, rows, cols):
    """``det(rows, cols)`` and the number of MPoly products it made."""
    products = 0
    mul = MPoly.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(MPoly, "__mul__", counting_mul)
        d = det(rows, cols)
    return d, products


def test_det_dense_singular_8x8_stays_within_the_cache_bound(monkeypatch):
    # dense linear forms; the last row is the sum of the first two
    rng = random.Random(8)
    m = [[_dense_linear_form(rng) for _ in range(8)] for _ in range(7)]
    m.append([a + b for a, b in zip(m[0], m[1])])
    d, products = _det_counting_products(monkeypatch, dict_rows(m), range(8))
    assert d.is_zero()
    # one product per (entry, cached minor); plain cofactor expansion needs about 8!
    assert 0 < products <= 8 * 2**7


def test_det_block_diagonal_with_interleaved_rows_expands_block_by_block(monkeypatch):
    # two dense 6x6 blocks, on columns 0-5 and 6-11, with the rows of the
    # matrix alternating between them: choosing the sparsest remaining row
    # finishes one block's minors before mixing in the other's, where a
    # fixed row order caches minors over both blocks (5 538 products)
    rng = random.Random(12)
    blocks = [[[_dense_linear_form(rng) for _ in range(6)] for _ in range(6)] for _ in range(2)]
    rows = [{6 * (i % 2) + j: x for j, x in enumerate(blocks[i % 2][i // 2])} for i in range(12)]
    d, products = _det_counting_products(monkeypatch, rows, range(12))
    # moving the odd rows below the even ones takes 15 transpositions
    assert d == -(det(dict_rows(blocks[0]), range(6)) * det(dict_rows(blocks[1]), range(6)))
    assert 0 < products <= 2 * 6 * 2**5


def test_all_minors_zero_bordering_agrees_with_full_scan():
    # products of (rows x inner) and (inner x cols) linear-form matrices have
    # generic rank <= inner; the full scan is the reference
    rng = random.Random(31)
    decided = {True: 0, False: 0}
    for _ in range(60):
        nrows, ncols, inner = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        a = [[_linear_form(rng) for _ in range(inner)] for _ in range(nrows)]
        b = [[_linear_form(rng) for _ in range(ncols)] for _ in range(inner)]
        m = [
            [sum((a[i][t] * b[t][j] for t in range(inner)), MPoly()) for j in range(ncols)]
            for i in range(nrows)
        ]
        rows = dict_rows(m)
        for k in range(1, min(nrows, ncols) + 1):
            none_below, base = all_minors_scan(rows, ncols, k - 1)
            if none_below:
                continue  # no nonsingular (k-1)-submatrix to border
            full, _ = all_minors_scan(rows, ncols, k)
            minor = all_minors_zero(rows, ncols, (base.rows, base.cols))
            assert (minor is None) == full
            decided[minor is None] += 1
            if minor is not None:
                minor_rows, minor_cols = minor
                assert set(base.rows) < set(minor_rows)
                assert set(base.cols) < set(minor_cols)
                sub = [[m[i][j] for j in minor_cols] for i in minor_rows]
                assert not det(dict_rows(sub), range(k)).is_zero()
    assert decided[True] > 0 and decided[False] > 0


def _block_matrix(rng: random.Random) -> list[list[MPoly]]:
    """Up to three blocks of linear forms on the diagonal, each sparse or a
    product of lower inner dimension, a few entries linking them, then the
    rows and the columns shuffled."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.5:
            inner = rng.randint(0, min(nr, nc))
            a = [[_linear_form(rng) for _ in range(inner)] for _ in range(nr)]
            b = [[_linear_form(rng) for _ in range(nc)] for _ in range(inner)]
            block = [[sum((a[i][t] * b[t][j] for t in range(inner)), MPoly()) for j in range(nc)] for i in range(nr)]
        else:
            block = [[_linear_form(rng) if rng.random() < 0.6 else MPoly() for _ in range(nc)] for _ in range(nr)]
        blocks.append(block)
    nrows, ncols = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    m = [[MPoly() for _ in range(ncols)] for _ in range(nrows)]
    r0 = c0 = 0
    for block in blocks:
        for i, row in enumerate(block):
            m[r0 + i][c0 : c0 + len(row)] = row
        r0, c0 = r0 + len(block), c0 + len(block[0])
    for _ in range(rng.randint(0, 2)):
        m[rng.randrange(nrows)][rng.randrange(ncols)] = _linear_form(rng)
    row_order, col_order = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    return [[m[i][j] for j in col_order] for i in row_order]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(0, 2**32))
def test_all_minors_zero_bordering_decides_block_by_block(seed):
    # each bordering minor, decided from the blocks of the basis, against its
    # full determinant; the minor named is the first nonzero one in bordering order
    m = _block_matrix(random.Random(seed))
    rows, ncols = dict_rows(m), len(m[0])
    for k in range(1, min(len(rows), ncols) + 1):
        none_below, base = all_minors_scan(rows, ncols, k - 1)
        if none_below:
            break  # no nonsingular (k-1)-submatrix to border
        basis = (base.rows, base.cols)
        minor = all_minors_zero(rows, ncols, basis)
        nonzero = [
            (rset, cset)
            for rset, cset in bordering_minors(len(rows), ncols, basis)
            if det([rows[i] for i in rset], cset)
        ]
        assert minor == (nonzero[0] if nonzero else None)


def test_all_minors_zero_bordering_computes_only_joined_blocks(monkeypatch):
    # two 2x2 blocks and a zero row: the 2x2 basis (one entry of each block)
    # leaves one row and one column of each block free.  A row and a column
    # of different blocks border a zero minor with no arithmetic; one of
    # the same block joins just that block, a 2x2 determinant
    m = [
        [u(0), u(1), MPoly(), MPoly()],
        [u(1), u(0), MPoly(), MPoly()],
        [MPoly(), MPoly(), u(0), u(0)],
        [MPoly(), MPoly(), u(1), u(1)],
        [MPoly()] * 4,
    ]
    sizes = []
    real_det = det
    monkeypatch.setattr(
        "steadydim.mpoly.det", lambda rows, cols: sizes.append(len(cols)) or real_det(rows, cols)
    )
    minor = all_minors_zero(dict_rows(m), 4, ((0, 2), (0, 2)))
    assert minor == ((0, 1, 2), (0, 1, 2))
    # only the joined block rows (0, 1) x cols (0, 1): the minor is not expanded
    assert sizes == [2]
    assert real_det([dict_rows(m)[i] for i in minor[0]], minor[1]) == u(0) * (u(0) * u(0) - u(1) * u(1))
    sizes.clear()
    assert all_minors_zero(dict_rows([row[2:] for row in m[2:]]), 2, ((0,), (0,))) is None
    assert sizes == [2]


def test_all_minors_zero_rejects_a_structurally_singular_basis():
    m = [[u(0), u(1), MPoly()], [u(1), u(0), MPoly()], [MPoly(), MPoly(), u(0)]]
    for basis in (((0, 1), (0, 2)), ((0, 1), (1, 2))):
        with pytest.raises(ValueError):
            all_minors_zero(dict_rows(m), 3, basis)


def test_all_minors_zero_rejects_bad_basis():
    # not square (twice), a repeated index, a row and a column out of range
    m = [[u(0), u(1)], [u(1), u(0)]]
    for basis in (((0,), ()), ((0,), (0, 1)), ((0, 0), (0, 1)), ((2,), (0,)), ((0,), (-1,))):
        with pytest.raises(ValueError):
            all_minors_zero(dict_rows(m), 2, basis)

