"""Seeded input generators and the three benchmark workloads.

Every generator keeps the coefficients it draws, so the correctness
oracle can build the stoichiometric and exponent matrices without going
through steadydim's parser.  A network is handed to the program only as
the ``.crn`` text rendered here.

Workloads (each definition below says why it was chosen):

  screen_small      five fixtures plus 400 random small networks
  chain_scale       the cyclic chain at 86 and 200 species
  degenerate_cliff  replicated example42 blocks plus reversible pairs
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# A complex maps a species name to its positive coefficient.
Cx = dict[str, int]


@dataclass(frozen=True)
class Expected:
    """Hand-written verdicts for a network whose answer is known."""

    cone: bool
    f_status: str
    F_status: str
    dims: tuple[int, int, int, int]  # (n, r, s, d)


@dataclass(frozen=True)
class Network:
    """One benchmark input: its coefficients, its text and its expected verdict.

    ``reactions`` lists the irreversible reactions the text defines, in
    order, with a reversible line contributing forward then backward.
    ``species`` is in order of first appearance in the text.
    """

    name: str
    species: tuple[str, ...]
    reactions: tuple[tuple[Cx, Cx], ...]
    text: str
    expected: Optional[Expected] = None


def _render(cx: Cx) -> str:
    if not cx:
        return "0"
    return " + ".join(s if c == 1 else f"{c} {s}" for s, c in cx.items())


def _network(name: str, lines: list[tuple[Cx, Cx, bool]], expected=None) -> Network:
    """Assemble a Network from (reactant, product, reversible) lines."""
    species: list[str] = []
    reactions: list[tuple[Cx, Cx]] = []
    text = []
    for lhs, rhs, reversible in lines:
        for s in list(lhs) + list(rhs):
            if s not in species:
                species.append(s)
        k = len(reactions) + 1
        if reversible:
            text.append(f"{_render(lhs)} <-> {_render(rhs)} ; k{k}, k{k + 1}")
            reactions += [(lhs, rhs), (rhs, lhs)]
        else:
            text.append(f"{_render(lhs)} -> {_render(rhs)} ; k{k}")
            reactions.append((lhs, rhs))
    return Network(name, tuple(species), tuple(reactions), "\n".join(text) + "\n", expected)


def _cx(term: str) -> Cx:
    """'2 X1 + X2' -> {'X1': 2, 'X2': 1}; '0' is the empty complex."""
    out: Cx = {}
    if term.strip() == "0":
        return out
    for part in term.split("+"):
        words = part.split()
        coef, name = (int(words[0]), words[1]) if len(words) == 2 else (1, words[0])
        out[name] = out.get(name, 0) + coef
    return out


def _lines(spec: list[tuple[str, str, str]]) -> list[tuple[Cx, Cx, bool]]:
    return [(_cx(lhs), _cx(rhs), arrow == "<->") for lhs, arrow, rhs in spec]


# -- fixtures -------------------------------------------------------------
# Transcribed from fixtures/*.crn (a self-test checks they still agree), so
# the workload does not change when a fixture file is edited.  Expected
# verdicts are the ones the source paper and tests/test_acceptance.py state.

ND, AD = "nondegenerate_exists", "all_degenerate"

FIXTURES: dict[str, tuple[list[tuple[str, str, str]], Expected]] = {
    "calcium": (
        [("0", "<->", "X1"), ("X1 + X2", "->", "2 X1"), ("X1 + X3", "<->", "X4"),
         ("X4", "->", "X2 + X3")],
        Expected(True, ND, ND, (4, 6, 3, 1)),
    ),
    "example42": (
        [("X", "->", "Y"), ("X", "->", "Z"), ("Y + Z", "->", "X + Y + Z"), ("Y + Z", "->", "0")],
        Expected(True, AD, AD, (3, 4, 3, 0)),
    ),
    "example45": (
        [("X1 + X2", "->", "X1"), ("X2", "->", "2 X2")],
        Expected(True, ND, AD, (2, 2, 1, 1)),
    ),
    "example46": (
        [("3 X1 + X2", "->", "4 X1"), ("2 X1 + X2", "->", "3 X2"), ("X1 + X2", "->", "2 X1")],
        Expected(True, ND, ND, (2, 3, 1, 1)),
    ),
    "weakly_reversible": (
        [("2 Y", "->", "Y"), ("Y", "->", "X + Y"), ("X + Y", "->", "Y"), ("X + Y", "->", "2 Y"),
         ("X + 3 Y", "->", "X + 2 Y"), ("X + 2 Y", "->", "X + 3 Y"),
         ("X + 2 Y", "->", "2 X + 2 Y"), ("2 X + 2 Y", "->", "X + 3 Y"),
         ("2 X + Y", "->", "2 X"), ("2 X", "->", "3 X"), ("3 X", "->", "2 X + Y"),
         ("2 X + Y", "->", "3 X")],
        Expected(True, ND, ND, (2, 12, 2, 0)),
    ),
}


def fixture_networks() -> list[Network]:
    return [_network(name, _lines(spec), exp) for name, (spec, exp) in FIXTURES.items()]


# -- generators -------------------------------------------------------------


def random_network(rng: random.Random, name: str, max_species: int = 6, max_reactions: int = 8) -> Network:
    """The acceptance suite's random-network generator (tests/conftest.py).

    Same draws in the same order; species coefficients are 0..2 and
    reactant and product are redrawn until they differ.  A drawn species
    whose coefficients are all 0 does not appear in the text.
    """
    n_sp = rng.randint(1, max_species)
    names = [f"X{i + 1}" for i in range(n_sp)]
    lines = []
    for _ in range(rng.randint(1, max_reactions)):
        while True:
            lhs = [rng.randint(0, 2) for _ in range(n_sp)]
            rhs = [rng.randint(0, 2) for _ in range(n_sp)]
            if lhs != rhs:
                break
        lines.append((
            {s: c for s, c in zip(names, lhs) if c},
            {s: c for s, c in zip(names, rhs) if c},
            False,
        ))
    return _network(name, lines)


def chain_network(n_species: int, prefix: str = "S", extras: int = 7) -> Network:
    """Acceptance criterion 6's cyclic chain: S1 -> ... -> Sn -> S1 plus
    ``extras`` reversible pairs Si + S(i+1) <-> 2 Si."""
    sp = [f"{prefix}{i + 1}" for i in range(n_species)]
    lines = [({sp[i]: 1}, {sp[(i + 1) % n_species]: 1}, False) for i in range(n_species)]
    lines += [({sp[i]: 1, sp[i + 1]: 1}, {sp[i]: 2}, True) for i in range(extras)]
    r = n_species + 2 * extras
    return _network(
        f"chain{n_species}", lines, Expected(True, ND, ND, (n_species, r, n_species - 1, 1))
    )


def example42_family(k: int, d: int, prefix: str = "") -> Network:
    """``k`` renamed copies of example42 plus ``d`` reversible pairs A_j <-> B_j.

    n = 3k + 2d species, s = 3k + d.  Both rank tests are all-degenerate
    by construction (each example42 block is), so the f-certificate lists
    every s x s minor of the s x n matrix: 1 + C(n, s) lines, plus 2 lines
    for the single n x n minor of the F-test.
    """
    lines = []
    for b in range(k):
        x, y, z = (f"{prefix}{c}{b + 1}" for c in "XYZ")
        lines += [
            ({x: 1}, {y: 1}, False),
            ({x: 1}, {z: 1}, False),
            ({y: 1, z: 1}, {x: 1, y: 1, z: 1}, False),
            ({y: 1, z: 1}, {}, False),
        ]
    lines += [({f"{prefix}A{j + 1}": 1}, {f"{prefix}B{j + 1}": 1}, True) for j in range(d)]
    n, s = 3 * k + 2 * d, 3 * k + d
    return _network(
        f"example42_k{k}_d{d}", lines, Expected(True, AD, AD, (n, 4 * k + 2 * d, s, d))
    )


def _prefix(rng: random.Random) -> str:
    # renames species per seed; parsing orders species by first appearance,
    # so the matrices (and the work) do not depend on the names
    return rng.choice("ABCDEFGHJKLMNPQRSTUVW") + rng.choice("abcdefghjkmnpqrstuvw")


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], list[Network]]  # (seed, tiny) -> networks


def _screen_small(seed: int, tiny: bool) -> list[Network]:
    rng = random.Random(f"screen_small:{seed}")
    nets = fixture_networks()
    for i in range(8 if tiny else 400):
        # every fourth draw is larger: <= 10 species and <= 14 reactions
        big = i % 4 == 3
        nets.append(random_network(rng, f"random{i:03d}", *((10, 14) if big else (6, 8))))
    return nets


def _chain_scale(seed: int, tiny: bool) -> list[Network]:
    rng = random.Random(f"chain_scale:{seed}")
    # a 400-species chain takes 10 s or more per verdict: too long to repeat
    return [chain_network(n, _prefix(rng)) for n in ((9, 12) if tiny else (86, 200))]


def _degenerate_cliff(seed: int, tiny: bool) -> list[Network]:
    rng = random.Random(f"degenerate_cliff:{seed}")
    # (k, d) = (4, 5) takes about 52 s and is left out
    sizes = ((1, 1), (1, 2)) if tiny else ((3, 3), (2, 4), (4, 3), (3, 4))
    return [example42_family(k, d, _prefix(rng)) for k, d in sizes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "screen_small",
            "batch screening of fixtures and 400 random small networks: sampling, tiny-matrix "
            "ratmat calls and per-call overhead dominate; about half the verdicts are "
            "all_degenerate with small cofactor certificates",
            _screen_small,
        ),
        Workload(
            "chain_scale",
            "one large sparse nondegenerate chain at a time (86 and 200 species): Fraction rref "
            "in netmodel, ratmat and cone dominates and the certificate path never runs",
            _chain_scale,
        ),
        Workload(
            "degenerate_cliff",
            "replicated example42 with reversible pairs, 13 to 17 rows: the all-minors scan and "
            "Bareiss mpoly.det take over 95% of the time and certificates reach 2381 lines",
            _degenerate_cliff,
        ),
    )
}


def write_inputs(nets: list[Network], directory: Path) -> list[Path]:
    """Write one .crn file per network; the files are all the program sees."""
    paths = []
    for i, net in enumerate(nets):
        path = directory / f"{i:03d}_{net.name}.crn"
        path.write_text(net.text, encoding="utf-8")
        paths.append(path)
    return paths
