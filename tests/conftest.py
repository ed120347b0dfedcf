"""Shared fixtures and small independent oracles used across the test suite."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from steadydim.ratmat import RatMatrix

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


_INDICES = r"\(([0-9,]*)\)"
_HEADER = re.compile(
    rf"rank (\d+) < (\d+): minor rows={_INDICES} cols={_INDICES} "
    r"is nonzero at the sample below; every bordering minor is 0"
)
_MINOR = re.compile(rf"minor rows={_INDICES} cols={_INDICES}: 0")


def _indices(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _values(line: str, name: str) -> tuple[Fraction, ...]:
    prefix = f"sample {name}:"
    assert line.startswith(prefix), line
    return tuple(Fraction(x) for x in line[len(prefix) :].split())


class BorderingCertificate(NamedTuple):
    """A parsed bordering-minor certificate (schema v2 grammar)."""

    rank: int
    target: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    u: tuple[Fraction, ...]
    h: Optional[tuple[Fraction, ...]]
    minors: list[tuple[tuple[int, ...], tuple[int, ...]]]


def parse_certificate(lines, with_h: bool) -> BorderingCertificate:
    """Parse header, sample line(s) and minor lines; fails on any other text."""
    header = _HEADER.fullmatch(lines[0])
    assert header, lines[0]
    u = _values(lines[1], "u")
    h = _values(lines[2], "h") if with_h else None
    minors = []
    for line in lines[3 if with_h else 2 :]:
        m = _MINOR.fullmatch(line)
        assert m, line
        minors.append((_indices(m.group(1)), _indices(m.group(2))))
    return BorderingCertificate(
        rank=int(header.group(1)),
        target=int(header.group(2)),
        rows=_indices(header.group(3)),
        cols=_indices(header.group(4)),
        u=u,
        h=h,
        minors=minors,
    )
