"""Reaction network text format and stoichiometric matrices.

Grammar, one reaction per line:

    complex ARROW complex [ ";" label [ "," label ] ]

where a complex is "0" (empty) or "+"-separated terms ``coef species`` /
``coef*species`` / ``species`` (coefficient defaults to 1), ARROW is
``->`` or ``<->``, and ``#`` starts a comment.  A reversible arrow needs
two labels (forward first) and is split into two irreversible reactions,
forward first.  An omitted label becomes ``k<i>`` for the reaction's
position i (1-based, after splitting) or, when the text writes that label
or an earlier reaction took it, the next free ``kN``.

Species are ordered by first appearance in the text; reactions keep
textual order.  From a parsed network, ``NetworkMatrices`` assembles the
stoichiometric matrix (``gamma``), the reactant-exponent matrix (``b``),
an integer row basis ``n_mat`` of ``gamma`` and an integer basis
``w_mat`` of its left kernel (the conservation laws).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .ratmat import RatMatrix


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

    def species_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coeffs)

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


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow><->|->)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<plus>\+)"
    r"|(?P<star>\*)"
    r"|(?P<semi>;)"
    r"|(?P<comma>,)"
)


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    """Token list of (kind, text, 1-based column)."""
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(lineno, pos + 1, f"unknown token {line[pos]!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, lineno, line_len):
        self.tokens = tokens
        self.lineno = lineno
        self.line_len = line_len
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Optional[tuple[str, str, int]]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok is None:
            raise ParseError(self.lineno, self.line_len + 1, f"expected {what} at end of line")
        if tok[0] != kind:
            raise ParseError(self.lineno, tok[2], f"expected {what}, found {tok[1]!r}")
        return tok

    def error(self, message: str, tok=None) -> ParseError:
        col = tok[2] if tok else self.line_len + 1
        return ParseError(self.lineno, col, message)


def _parse_complex(cur: _Cursor) -> list[tuple[str, int, int]]:
    """Parse a complex into (species_name, coefficient, column) terms."""
    terms: list[tuple[str, int, int]] = []
    first = cur.peek()
    if first is not None and first[0] == "int" and first[1] == "0":
        nxt = cur.tokens[cur.i + 1] if cur.i + 1 < len(cur.tokens) else None
        if nxt is None or nxt[0] in ("arrow", "semi"):
            cur.next()
            return terms
    while True:
        tok = cur.peek()
        if tok is None:
            raise cur.error("expected a complex term")
        if tok[0] == "int":
            cur.next()
            coef = int(tok[1])
            if coef == 0:
                raise cur.error("zero coefficient in complex", tok)
            nxt = cur.peek()
            if nxt is not None and nxt[0] == "star":
                cur.next()
            name_tok = cur.expect("name", "species name")
            terms.append((name_tok[1], coef, name_tok[2]))
        elif tok[0] == "name":
            cur.next()
            terms.append((tok[1], 1, tok[2]))
        else:
            raise cur.error(f"expected a complex term, found {tok[1]!r}", tok)
        nxt = cur.peek()
        if nxt is not None and nxt[0] == "plus":
            cur.next()
            continue
        return terms


def parse_network(text: str) -> ReactionNetwork:
    """Parse network text into a ReactionNetwork.

    Raises ParseError for malformed complexes, duplicate rate labels,
    self-loop reactions, unknown tokens, or an empty network.
    """
    species_order: list[str] = []
    species_index: dict[str, int] = {}

    def index_of(name: str) -> int:
        if name not in species_index:
            species_index[name] = len(species_order)
            species_order.append(name)
        return species_index[name]

    # (reactant, product, explicit label or None), one per irreversible reaction
    pending: list[tuple[Complex, Complex, Optional[str]]] = []
    labels_seen: dict[str, int] = {}

    def claim_label(label, lineno, col):
        if label in labels_seen:
            raise ParseError(
                lineno, col, f"duplicate rate label {label!r} (first used on line {labels_seen[label]})"
            )
        labels_seen[label] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, len(line))
        lhs_terms = _parse_complex(cur)
        arrow = cur.expect("arrow", "'->' or '<->'")
        rhs_terms = _parse_complex(cur)
        reversible = arrow[1] == "<->"

        explicit: list[tuple[str, int]] = []
        tok = cur.peek()
        if tok is not None:
            if tok[0] != "semi":
                raise cur.error(f"unexpected {tok[1]!r} after reaction", tok)
            cur.next()
            name = cur.expect("name", "rate label")
            explicit.append((name[1], name[2]))
            if reversible:
                cur.expect("comma", "',' (reversible reactions need two labels)")
                name = cur.expect("name", "second rate label")
                explicit.append((name[1], name[2]))
            trailing = cur.peek()
            if trailing is not None:
                raise cur.error(f"unexpected {trailing[1]!r} after rate labels", trailing)

        # species indices assigned in textual order: reactant terms, then product terms
        lhs: dict[int, int] = {}
        for name, coef, _ in lhs_terms:
            i = index_of(name)
            lhs[i] = lhs.get(i, 0) + coef
        rhs: dict[int, int] = {}
        for name, coef, _ in rhs_terms:
            i = index_of(name)
            rhs[i] = rhs.get(i, 0) + coef
        reactant = Complex.from_dict(lhs)
        product = Complex.from_dict(rhs)
        if reactant == product:
            raise ParseError(lineno, arrow[2], "reactant and product complexes are identical (self-loop)")

        for name, col in explicit:
            claim_label(name, lineno, col)
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
    return ReactionNetwork(tuple(species_order), tuple(reactions))


@dataclass(frozen=True)
class NetworkMatrices:
    """The matrix quadruple of a network plus its dimensions.

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
    n: int
    r: int
    s: int
    d: int

    @cached_property
    def g(self) -> RatMatrix:
        """r x (r - s) kernel basis G of N, one primitive integer column each.

        ker N = ker gamma and RREF(N) = RREF(gamma), so G comes from the
        elimination that gave ``n_mat`` (the matrix keeps its RREF).
        """
        return self.gamma.kernel_basis()

    @cached_property
    def products(self) -> tuple[tuple[int, int, int, int | Fraction], ...]:
        """(i, j, k, N[i,k] * B[j,k]) for every nonzero product, k ascending.

        The sparsity pattern of N diag(w) B^T, collected once per network.
        Integral products are Python ints, which multiply much faster than
        Fractions when the pattern is evaluated at integer points.
        """
        n_cols, b_cols = self.n_mat.transpose(), self.b.transpose()
        out = []
        for k in range(self.r):
            bcol = b_cols.entries(k).items()
            for i, a in n_cols.entries(k).items():
                for j, b in bcol:
                    c = a * b
                    out.append((i, j, k, int(c) if c.denominator == 1 else c))
        return tuple(out)

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
        n_mat = gamma.row_basis()
        w_mat = gamma.left_kernel_basis()
        s = n_mat.rows
        return cls(gamma=gamma, b=b, n_mat=n_mat, w_mat=w_mat, n=n, r=r, s=s, d=n - s)

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
        p = w_mat.kernel_basis()
        gamma = p @ n_mat
        return cls(gamma=gamma, b=b, n_mat=n_mat, w_mat=w_mat, n=n, r=r, s=s, d=n - s)
