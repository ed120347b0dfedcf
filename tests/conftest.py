"""Shared fixtures and small independent oracles used across the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from steadydim.mpoly import MPoly, det
from steadydim.netmodel import NetworkMatrices
from steadydim.nondegen import _SAMPLE_BOUND, _sample_point, generic_rank_test
from steadydim.ratmat import MODULUS, EchelonModP, RatMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# Calcium-transfer network reference matrices (4 species, 6 reactions).
CALCIUM_GAMMA = [
    [1, -1, 1, -1, 1, 0],
    [0, 0, -1, 0, 0, 1],
    [0, 0, 0, -1, 1, 1],
    [0, 0, 0, 1, -1, -1],
]
CALCIUM_B = [
    [0, 1, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1],
]


@pytest.fixture
def calcium_gamma() -> RatMatrix:
    return RatMatrix.from_rows(CALCIUM_GAMMA)


@pytest.fixture
def calcium_b() -> RatMatrix:
    return RatMatrix.from_rows(CALCIUM_B)


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def diag(vec) -> RatMatrix:
    """The diagonal matrix with ``vec`` on its diagonal."""
    k = len(vec)
    return RatMatrix.from_rows([[x if i == j else 0 for j in range(k)] for i, x in enumerate(vec)], cols=k)


def dict_rows(rows) -> list[dict]:
    """Dense rows as the rank tests take them: one dict {column: nonzero} per row.

    A dense test matrix ``lambda u, h: [[...]]`` becomes
    ``lambda u, h: dict_rows([[...]])``.
    """
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def sampled_rank_test(matrix, target, rng, *, u_dim: int, h_dim=None, cols: int, hard_cap=None):
    """``generic_rank_test`` from a first sample drawn as ``analyze_matrices``
    draws one: (u, h) by ``_sample_point`` from ``rng`` (an int seeds a
    ``random.Random``), and the matrix there reduced modulo p.  The hunt
    continues from ``rng``."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    u, h = _sample_point(rng, _SAMPLE_BOUND, u_dim, h_dim)
    return generic_rank_test(matrix, target, u, h, EchelonModP(matrix(u, h)), rng, cols=cols, hard_cap=hard_cap)


def random_rational_matrix(rng: random.Random, max_dim: int = 6, max_num: int = 9) -> RatMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    data = [
        [Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_num)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return RatMatrix.from_rows(data)


def random_network(rng: random.Random, max_species: int = 6, max_reactions: int = 8):
    """Random small mass-action network, built as DSL text and parsed.

    Species coefficients are 0..2; reactant and product complexes are
    redrawn until they differ (no self-loops).
    """
    from steadydim.netmodel import parse_network

    n_sp = rng.randint(1, max_species)
    names = [f"X{i + 1}" for i in range(n_sp)]
    lines = []
    n_rx = rng.randint(1, max_reactions)
    for i in range(n_rx):
        while True:
            lhs = [rng.randint(0, 2) for _ in range(n_sp)]
            rhs = [rng.randint(0, 2) for _ in range(n_sp)]
            if lhs != rhs:
                break

        def side(coeffs):
            terms = [
                (name if c == 1 else f"{c} {name}")
                for name, c in zip(names, coeffs)
                if c
            ]
            return " + ".join(terms) if terms else "0"

        lines.append(f"{side(lhs)} -> {side(rhs)} ; k{i + 1}")
    return parse_network("\n".join(lines))


def example42_family_text(k: int, d: int) -> str:
    """``k`` renamed copies of example42 plus ``d`` reversible pairs A_j <-> B_j."""
    lines = []
    for b in range(1, k + 1):
        lines += [
            f"X{b} -> Y{b}",
            f"X{b} -> Z{b}",
            f"Y{b} + Z{b} -> X{b} + Y{b} + Z{b}",
            f"Y{b} + Z{b} -> 0",
        ]
    lines += [f"A{j} <-> B{j}" for j in range(1, d + 1)]
    return "\n".join(lines)


def bordering_minors(nrows: int, ncols: int, basis):
    """Index sets of the minors bordering ``basis = (rows, cols)`` (test oracle).

    Each adds one row outside ``rows`` and one column outside ``cols``;
    yields ``(rows', cols')`` as sorted tuples, added row ascending, then
    added column ascending: the minors a ``BorderingCertificate`` asserts
    to be the zero polynomial.
    """
    rows, cols = basis
    free_rows = [i for i in range(nrows) if i not in rows]
    free_cols = [j for j in range(ncols) if j not in cols]
    for i in free_rows:
        rset = tuple(sorted((*rows, i)))
        for j in free_cols:
            yield rset, tuple(sorted((*cols, j)))


class ScannedMinor(NamedTuple):
    """A nonzero minor found by ``all_minors_scan``: its rows, columns and determinant."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    poly: MPoly


def all_minors_scan(rows, ncols: int, k: int):
    """Whether every k x k minor of ``rows`` is the zero polynomial, by
    scanning them all (test oracle for ``mpoly.all_minors_zero``).

    ``rows`` are sparse rows of MPolys over the columns 0..``ncols``-1.
    Returns ``(True, None)``, or ``(False, witness)`` for the first nonzero
    minor: rows and columns are sorted by ascending nonzero count (ties by
    index), subsets taken in lexicographic order over that arrangement.
    The one 0 x 0 minor is 1.
    """
    if k == 0:
        return False, ScannedMinor((), (), MPoly.const(1))
    row_order = sorted(range(len(rows)), key=lambda i: (len(rows[i]), i))
    col_order = sorted(range(ncols), key=lambda j: (sum(j in row for row in rows), j))
    for rsel in combinations(row_order, k):
        rset = tuple(sorted(rsel))
        for csel in combinations(col_order, k):
            cset = tuple(sorted(csel))
            d = det([rows[i] for i in rset], cset)
            if d:
                return False, ScannedMinor(rset, cset, d)
    return True, None


def basis_mod_p_scan(rows):
    """``EchelonModP(rows).basis()`` with each row's next lead found by a
    ``min`` scan of its columns at every step (test oracle for the heap order)."""
    p = MODULUS
    leads = {}
    basis_rows = []
    for i, row in enumerate(rows):
        denominators = [x.denominator for x in row.values() if isinstance(x, Fraction)]
        mult = lcm(*denominators) if denominators else 1
        vec = {j: y for j, x in row.items() if (y := int(x * mult) % p)}
        while vec:
            lead = min(vec)
            if lead not in leads:
                leads[lead] = (vec, pow(vec[lead], -1, p))
                basis_rows.append(i)
                break
            piv, inv = leads[lead]
            f = vec[lead] * inv % p
            for j, x in piv.items():
                y = (vec.get(j, 0) - f * x) % p
                if y:
                    vec[j] = y
                else:
                    del vec[j]
    return tuple(basis_rows), tuple(sorted(leads))


@st.composite
def raw_matrices(draw) -> NetworkMatrices:
    """from_matrices input with a non-integral n_mat and a negative exponent."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    s = draw(st.integers(1, min(n, r)))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    n_mat = RatMatrix.from_rows([[draw(entry) for _ in range(r)] for _ in range(s)])
    b = RatMatrix.from_rows([[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(n)])
    w_mat = RatMatrix.from_rows(
        [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n - s)], cols=n
    )
    assume(n_mat.rank() == s and not n_mat.is_integral())
    assume(w_mat.rank() == n - s and any(x < 0 for i in range(n) for x in b.row(i)))
    return NetworkMatrices.from_matrices(n_mat, b, w_mat)


NETWORK_MATRICES = st.one_of(
    st.integers(0, 2**32).map(
        lambda seed: NetworkMatrices.from_network(random_network(random.Random(seed)))
    ),
    raw_matrices(),
)


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Brute-force determinant by first-row cofactor expansion (test oracle)."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = a * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total
