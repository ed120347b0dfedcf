"""Reaction network text format and stoichiometric matrices.

A network file (``.crn``) holds one reaction per line::

    complex ARROW complex [ ";" label [ "," label ] ]

* ARROW is ``->`` or ``<->``; a reversible line is split into two
  irreversible reactions, forward first.
* A complex is ``0``, the empty complex, or ``+``-separated terms
  ``coef species``, ``coef*species`` or ``species``; a coefficient is a
  positive decimal integer and defaults to 1.  A species name or label
  is a letter or ``_`` followed by letters, digits and ``_``.
* ``#`` starts a comment; blank lines are skipped.
* A line ends at LF, CRLF or a lone CR, as an editor counts lines; other
  separators (form feed, vertical tab, U+2028, ...) are whitespace.
* Rate labels follow ``;``: one label, or two comma-separated labels for
  ``<->``, forward first.  Labels must be unique.  An omitted label is
  ``k<i>`` for the reaction's position ``i`` (1-based, after splitting)
  or, when the text writes that label or an earlier reaction took it,
  the next free ``kN``.
* Species are ordered by first appearance, reactant terms before product
  terms, and reactions keep textual order.  A self-loop (two equal
  complexes) is rejected.
* An error reads ``line L, column C: message``, and column ``C`` points
  at the offending text: a character outside the grammar (a ``-``, ``<``
  or ``>`` outside the arrow, or a second arrow), the first character of
  a malformed term or label list, a zero or too-long coefficient, a
  duplicate label, or the arrow of a self-loop.

From a parsed network, ``NetworkMatrices`` assembles the stoichiometric
matrix (``gamma``), the reactant-exponent matrix (``b``), an integer row
basis ``n_mat`` of ``gamma`` and an integer basis ``w_mat`` of its left
kernel (the conservation laws).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .ratmat import Rational, RatMatrix


class ParseError(ValueError):
    """Syntax or consistency error in network text, with source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class Complex:
    """Formal nonnegative integer combination of species.

    ``coeffs`` holds (species_index, coefficient) pairs sorted by index,
    with zero coefficients never stored; the empty tuple is the complex
    "0".
    """

    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "Complex":
        return cls(tuple(sorted((i, c) for i, c in d.items() if c != 0)))

    def coefficient(self, species_index: int) -> int:
        for i, c in self.coeffs:
            if i == species_index:
                return c
        return 0

    def render(self, species: Sequence[str]) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in self.coeffs:
            parts.append(species[i] if c == 1 else f"{c} {species[i]}")
        return " + ".join(parts)


@dataclass(frozen=True)
class Reaction:
    reactant: Complex
    product: Complex
    label: str

    def render(self, species: Sequence[str]) -> str:
        return f"{self.reactant.render(species)} -> {self.product.render(species)} ; {self.label}"


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def r(self) -> int:
        return len(self.reactions)

    def render(self) -> str:
        return "\n".join(rx.render(self.species) for rx in self.reactions) + "\n"


# The arrow, or a character the grammar has no place for (a '-', '<' or '>'
# outside the arrow included): the first match must be the arrow, and there
# must be no second one.
_MARK = re.compile(r"<->|->|[^\w\s+*;,]")
_TERM = re.compile(r"\s*(?:(\d+)\s*(?:\*\s*)?)?([A-Za-z_]\w*)\s*")
_NAME = r"\s*([A-Za-z_]\w*)\s*"
_LABELS = (re.compile(_NAME), re.compile(f"{_NAME},{_NAME}"))  # '->', '<->'


def _expected(what: str, part: str, start: int, lineno: int) -> ParseError:
    """The error for ``part`` (at 0-based ``start`` of its line) not being ``what``.

    The column is that of the first nonblank character of ``part``, or the
    one just past it when ``part`` is blank.
    """
    found = part.strip()
    column = start + len(part) - len(part.lstrip()) + 1
    return ParseError(lineno, column, f"expected {what}, found {found!r}" if found else f"expected {what}")


def _parse_complex(part: str, start: int, lineno: int, species: dict[str, int]) -> Complex:
    """The complex written in ``part``, which begins at 0-based ``start`` of its line.

    A species met for the first time gets the next index in ``species``.
    """
    if part.strip() == "0":
        return Complex(())
    coeffs: dict[int, int] = {}
    for term in part.split("+"):
        m = _TERM.fullmatch(term)
        if m is None:
            raise _expected("a complex term", term, start, lineno)
        digits, name = m.groups()
        coef = 1
        if digits:
            column = start + m.start(1) + 1
            try:
                coef = int(digits)
            except ValueError:  # longer than the interpreter's int-string limit
                raise ParseError(lineno, column, f"coefficient of {len(digits)} digits is too long") from None
            if coef == 0:
                raise ParseError(lineno, column, "zero coefficient in complex")
        i = species.setdefault(name, len(species))
        coeffs[i] = coeffs.get(i, 0) + coef
        start += len(term) + 1
    return Complex.from_dict(coeffs)


def parse_network(text: str) -> ReactionNetwork:
    """Parse network text into a ReactionNetwork.

    Raises ParseError for a character outside the grammar, a missing or
    second arrow, a malformed complex or label list, a duplicate rate
    label, a self-loop reaction, or an empty network.
    """
    species: dict[str, int] = {}
    # (reactant, product, explicit label or None), one per irreversible reaction
    pending: list[tuple[Complex, Complex, Optional[str]]] = []
    labels_seen: dict[str, int] = {}
    # lines end at LF, CRLF or CR only; str.splitlines would also break at \f, \x0b, \u2028, ...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        arrow = _MARK.search(line)
        if arrow is None:
            raise ParseError(lineno, len(line.split(";", 1)[0]) + 1, "expected '->' or '<->'")
        stray = arrow if len(arrow.group()) == 1 else _MARK.search(line, arrow.end())
        if stray is not None:
            raise ParseError(lineno, stray.start() + 1, f"unexpected {stray.group()!r}")
        a, b = arrow.span()
        reversible = b - a == 3
        rhs, semi, label_text = line[b:].partition(";")
        # species indices assigned in textual order: reactant terms, then product terms
        reactant = _parse_complex(line[:a], 0, lineno, species)
        product = _parse_complex(rhs, b, lineno, species)

        explicit: list[tuple[str, int]] = []
        if semi:
            start = b + len(rhs) + 1
            m = _LABELS[reversible].fullmatch(label_text)
            if m is None:
                want = "two rate labels 'forward, reverse'" if reversible else "one rate label"
                raise _expected(f"{want} after ';'", label_text, start, lineno)
            explicit = [(m[g], start + m.start(g) + 1) for g in range(1, m.lastindex + 1)]
        if reactant == product:
            raise ParseError(lineno, a + 1, "reactant and product complexes are identical (self-loop)")

        for name, column in explicit:
            if name in labels_seen:
                raise ParseError(
                    lineno, column, f"duplicate rate label {name!r} (first used on line {labels_seen[name]})"
                )
            labels_seen[name] = lineno
        labels = [name for name, _ in explicit] or [None, None]
        pending.append((reactant, product, labels[0]))
        if reversible:
            pending.append((product, reactant, labels[1]))

    if not pending:
        raise ParseError(1, 1, "network has no reactions")
    # auto labels skip every label written anywhere in the text
    taken = set(labels_seen)
    reactions: list[Reaction] = []
    for reactant, product, label in pending:
        if label is None:
            num = len(reactions) + 1
            while f"k{num}" in taken:
                num += 1
            label = f"k{num}"
            taken.add(label)
        reactions.append(Reaction(reactant, product, label))
    return ReactionNetwork(tuple(species), tuple(reactions))


@dataclass(frozen=True)
class NetworkMatrices:
    """The matrix quadruple of a network; its dimensions are their shapes.

    gamma : n x r stoichiometric matrix (product - reactant columns)
    b     : n x r reactant-exponent matrix
    n_mat : s x r integer row basis of gamma (s = rank gamma)
    w_mat : d x n integer left-kernel basis of gamma (d = n - s)

    ``g`` (the kernel basis of N) and ``products`` (the pattern of
    N diag(w) B^T) are computed on first use and kept.
    """

    gamma: RatMatrix
    b: RatMatrix
    n_mat: RatMatrix
    w_mat: RatMatrix

    @property
    def n(self) -> int:
        return self.b.rows

    @property
    def r(self) -> int:
        return self.b.cols

    @property
    def s(self) -> int:
        return self.n_mat.rows

    @property
    def d(self) -> int:
        return self.w_mat.rows

    @cached_property
    def g(self) -> RatMatrix:
        """r x (r - s) kernel basis G of N, one primitive integer column each.

        ker N = ker gamma and RREF(N) = RREF(gamma), so G comes from the
        one elimination of gamma that gave ``n_mat`` and ``w_mat`` (the
        matrix keeps it).
        """
        return self.gamma.kernel_basis()

    @cached_property
    def products(self) -> tuple[tuple[int, int, int, Rational], ...]:
        """(i, j, k, N[i,k] * B[j,k]) for every nonzero product, sorted.

        The sparsity pattern of N diag(w) B^T, collected once per network;
        in (i, j, k) order, a row's columns come in ascending order.  The
        matrices of a parsed network are integral, so the products are
        Python ints, which multiply much faster than Fractions when the
        pattern is evaluated at integer points.
        """
        n_cols, b_cols = self.n_mat.transpose(), self.b.transpose()
        out = []
        for k in range(self.r):
            bcol = b_cols.entries(k).items()
            for i, a in n_cols.entries(k).items():
                for j, b in bcol:
                    out.append((i, j, k, a * b))
        return tuple(sorted(out))

    @classmethod
    def from_network(cls, net: ReactionNetwork) -> "NetworkMatrices":
        n, r = net.n, net.r
        gamma_rows: list[dict[int, int]] = [{} for _ in range(n)]
        b_rows: list[dict[int, int]] = [{} for _ in range(n)]
        for k, rx in enumerate(net.reactions):
            for i, c in rx.product.coeffs:
                gamma_rows[i][k] = c
            for i, c in rx.reactant.coeffs:
                gamma_rows[i][k] = gamma_rows[i].get(k, 0) - c
                b_rows[i][k] = c
        gamma = RatMatrix.from_entries(n, r, gamma_rows)
        b = RatMatrix.from_entries(n, r, b_rows)
        return cls(gamma=gamma, b=b, n_mat=gamma.row_basis(), w_mat=gamma.left_kernel_basis())

    @classmethod
    def from_matrices(cls, n_mat: RatMatrix, b: RatMatrix, w_mat: RatMatrix | None = None) -> "NetworkMatrices":
        """Build from raw matrices, bypassing the parser.

        ``b`` may contain arbitrary integers (negative exponents allowed).
        ``n_mat`` must have full row rank; ``w_mat`` must be a full-rank
        (n - s) x n matrix and may be omitted only when s = n.  A
        stoichiometric matrix with matching row space and left kernel is
        synthesized so downstream invariants hold.
        """
        n, r = b.rows, b.cols
        if not b.is_integral():
            raise ValueError("exponent matrix must have integer entries")
        if n_mat.cols != r:
            raise ValueError(f"n_mat has {n_mat.cols} columns, expected {r}")
        s = n_mat.rank()
        if s != n_mat.rows:
            raise ValueError("n_mat must have full row rank")
        if s > n:
            raise ValueError(f"rank {s} exceeds species count {n}")
        if w_mat is None:
            if s != n:
                raise ValueError("w_mat required when rank < species count")
            w_mat = RatMatrix.zeros(0, n)
        if w_mat.cols != n or w_mat.rows != n - s or w_mat.rank() != n - s:
            raise ValueError(f"w_mat must be a full-rank {n - s}x{n} matrix")
        # gamma := P n_mat with P a basis of ker(w_mat): same row space as
        # n_mat, left kernel spanned by w_mat
        return cls(gamma=w_mat.kernel_basis() @ n_mat, b=b, n_mat=n_mat, w_mat=w_mat)
