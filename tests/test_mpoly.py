import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from steadydim.mpoly import (
    MinorWitness,
    MissingAssignment,
    MPoly,
    VarId,
    all_minors_zero,
    det,
)

from conftest import cofactor_det

U1, U2 = VarId.u(0), VarId.u(1)
H1, H3 = VarId.h(0), VarId.h(2)


def u(i, c=1):
    return MPoly.var(VarId.u(i), c)


def h(i, c=1):
    return MPoly.var(VarId.h(i), c)


def random_poly(rng: random.Random) -> MPoly:
    pool = [VarId.u(0), VarId.u(1), VarId.h(0)]
    p = MPoly.zero()
    for _ in range(rng.randint(0, 4)):
        term = MPoly.const(Fraction(rng.randint(-3, 3)))
        for v in pool:
            for _ in range(rng.randint(0, 2)):
                term = term * MPoly.var(v)
        p = p + term
    return p


def test_additive_identity():
    p = u(0) + h(0, 3)
    assert p + MPoly.zero() == p
    assert MPoly.zero() + p == p


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
    assert p.eval({U1: 3, U2: 3}) == 0


def test_eval_fractional():
    p = u(0, 6) * h(0)
    assert p.eval({U1: Fraction(1, 2), H1: Fraction(1, 3)}) == 1


def test_eval_linear():
    p = u(0, 2) - u(1, 2)
    assert p.eval({U1: 2, U2: 5}) == -6


def test_eval_missing_assignment():
    p = u(0) + h(0)
    with pytest.raises(MissingAssignment) as err:
        p.eval({U1: 1})
    assert err.value.var == H1


def test_det_constant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 4)
        const_rows = [[Fraction(rng.randint(-5, 5)) for _ in range(k)] for _ in range(k)]
        m = [[MPoly.const(x) for x in row] for row in const_rows]
        assert det(m).constant_value() == cofactor_det(const_rows)


def test_det_diagonal():
    m = [[u(0), MPoly.zero()], [MPoly.zero(), h(0)]]
    assert det(m) == u(0) * h(0)


def test_det_duplicate_row_is_zero():
    row = [u(0), h(0, 2), MPoly.const(1)]
    m = [row, [u(1), h(0), u(0)], row]
    assert det(m).is_zero()


def test_det_empty_matrix_is_one():
    assert det([]) == MPoly.const(1)


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
    point = {U1: Fraction(3), U2: Fraction(-2), H1: Fraction(5, 7)}
    for _ in range(10):
        k = rng.randint(1, 4)
        m = [[random_poly(rng) for _ in range(k)] for _ in range(k)]
        sym = det(m)
        evaluated = [[entry.eval(point) for entry in row] for row in m]
        assert sym.eval(point) == cofactor_det(evaluated)


def test_all_minors_zero_identity():
    n = 3
    ident = [[MPoly.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    ok, witness = all_minors_zero(ident, n)
    assert not ok
    assert witness.poly == MPoly.const(1)
    assert witness.rows == (0, 1, 2)
    assert witness.cols == (0, 1, 2)


def test_all_minors_zero_rank_one_scaled():
    # rank-1 matrix in one kernel parameter: every 2x2 and 3x3 minor vanishes
    a = u(0)
    m = [
        [a * -2, a * 2, a * 2],
        [a, -a, -a],
        [a, -a, -a],
    ]
    ok3, _ = all_minors_zero(m, 3)
    assert ok3
    ok2, _ = all_minors_zero(m, 2)
    assert ok2
    ok1, witness = all_minors_zero(m, 1)
    assert not ok1
    assert not witness.poly.is_zero()


def test_all_minors_zero_witness_row_vector():
    m = [[u(0, 2) - u(1, 2), MPoly.zero()]]
    ok, witness = all_minors_zero(m, 1)
    assert not ok
    assert witness == MinorWitness((0,), (0,), u(0, 2) - u(1, 2))


def test_all_minors_zero_bad_k():
    with pytest.raises(ValueError):
        all_minors_zero([[u(0)]], 2)


def _linear_form(rng: random.Random) -> MPoly:
    p = MPoly.const(rng.choice((0, 0, 1, -2)))
    for v in (U1, U2, H1):
        p = p + MPoly.var(v, rng.choice((0, 0, 1, -1, 3)))
    return p


def _dense_linear_form(rng: random.Random) -> MPoly:
    # the u1 coefficient is 2 more than one of 0, 1, -1, 3: never zero
    return _linear_form(rng) + MPoly.var(U1, 2)


def _to_sympy(p: MPoly):
    syms = {v: sympy.Symbol(str(v)) for v in p.variables()}
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(syms[v] ** e for v, e in mono))
            for mono, c in p.terms()
        )
    )


def test_det_agrees_with_sympy():
    rng = random.Random(99)
    cases = [[[random_poly(rng) for _ in range(k)] for _ in range(k)] for k in (2, 3, 4)]
    for k in range(2, 8):
        cases.append([[_dense_linear_form(rng) for _ in range(k)] for _ in range(k)])
        cases.append(
            [[_linear_form(rng) if rng.random() < 0.5 else MPoly.zero() for _ in range(k)] for _ in range(k)]
        )
    ring = sympy.QQ[sympy.symbols("u1 u2 h1")]
    for m in cases:
        k = len(m)
        entries = [[ring.from_sympy(_to_sympy(p)) for p in row] for row in m]
        assert ring.from_sympy(_to_sympy(det(m))) == DomainMatrix(entries, (k, k), ring).det()


def test_det_dense_singular_8x8_stays_within_the_cache_bound(monkeypatch):
    # dense linear forms; the last row is the sum of the first two
    rng = random.Random(8)
    m = [[_dense_linear_form(rng) for _ in range(8)] for _ in range(7)]
    m.append([a + b for a, b in zip(m[0], m[1])])
    products = 0
    mul = MPoly.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counting_mul)
    assert det(m).is_zero()
    # one product per (entry, cached minor); plain cofactor expansion needs about 8!
    assert 0 < products <= 8 * 2**7


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
            [sum((a[i][t] * b[t][j] for t in range(inner)), MPoly.zero()) for j in range(ncols)]
            for i in range(nrows)
        ]
        for k in range(1, min(nrows, ncols) + 1):
            none_below, base = all_minors_zero(m, k - 1)
            if none_below:
                continue  # no nonsingular (k-1)-submatrix to border
            full, _ = all_minors_zero(m, k)
            ok, witness = all_minors_zero(m, k, basis=(base.rows, base.cols))
            assert ok == full
            decided[ok] += 1
            if not ok:
                assert set(base.rows) < set(witness.rows)
                assert set(base.cols) < set(witness.cols)
                sub = [[m[i][j] for j in witness.cols] for i in witness.rows]
                assert witness.poly == det(sub) and not witness.poly.is_zero()
    assert decided[True] > 0 and decided[False] > 0


def test_all_minors_zero_rejects_bad_basis():
    m = [[u(0), u(1)], [u(1), u(0)]]
    for basis in (((0,), ()), ((0, 1), (0, 1)), ((2,), (0,)), ((0,), (-1,))):
        with pytest.raises(ValueError):
            all_minors_zero(m, 2, basis=basis)


def test_str_rendering():
    p = u(0, 2) * h(2) - MPoly.const(Fraction(1, 2)) * u(1) * u(1)
    assert str(p) == "2*u1*h3 - 1/2*u2^2"
    assert str(MPoly.zero()) == "0"
    assert str(MPoly.const(Fraction(-3, 4))) == "-3/4"
    assert str(u(0) - u(1, 2)) == "u1 - 2*u2"


def test_variables_sorted():
    p = h(2) + u(1) + h(0) + u(0)
    assert p.variables() == (U1, U2, H1, H3)
