"""Sparse multivariate polynomials over the rationals.

Two variable families are supported: kernel parameters ``u1, u2, ...``
and scaling variables ``h1, h2, ...``.  Terms are kept in a dict keyed by
exponent monomials; printing uses graded lexicographic order (u's before
h's) so output is reproducible.

Also provides exact symbolic determinants (cofactor expansion for small
matrices, fraction-free Bareiss elimination for larger ones) and a
short-circuiting test that every k x k minor vanishes: over the minors
that border a known nonsingular (k-1)-submatrix (Kronecker's rank
theorem), or over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

_KIND_ORDER = {"u": 0, "h": 1}


class MissingAssignment(KeyError):
    """A variable of the polynomial has no value in the evaluation point."""

    def __init__(self, var: "VarId"):
        super().__init__(str(var))
        self.var = var


@dataclass(frozen=True)
class VarId:
    """Identifier of a symbolic variable: kind 'u' or 'h', 0-based index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("negative variable index")

    @classmethod
    def u(cls, index: int) -> "VarId":
        return cls("u", index)

    @classmethod
    def h(cls, index: int) -> "VarId":
        return cls("h", index)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)

    def __lt__(self, other: "VarId") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return f"{self.kind}{self.index + 1}"


# A monomial: ((var, exponent), ...) sorted by variable, exponents > 0.
Mono = tuple[tuple[VarId, int], ...]

_EMPTY_MONO: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps: dict[VarId, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda t: t[0].sort_key))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class MPoly:
    """Polynomial in u/h variables with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        cleaned: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    cleaned[mono] = c
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "MPoly":
        return cls({_EMPTY_MONO: Fraction(c)})

    @classmethod
    def var(cls, v: VarId, coeff: Scalar = 1) -> "MPoly":
        return cls({((v, 1),): Fraction(coeff)})

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == _EMPTY_MONO for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms.get(_EMPTY_MONO, Fraction(0))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def variables(self) -> tuple[VarId, ...]:
        seen = {v for mono in self._terms for v, _ in mono}
        return tuple(sorted(seen, key=lambda v: v.sort_key))

    def terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in descending graded-lex order (canonical)."""
        allvars = self.variables()
        pos = {v: i for i, v in enumerate(allvars)}

        def key(mono: Mono):
            exps = [0] * len(allvars)
            for v, e in mono:
                exps[pos[v]] = e
            return (_mono_degree(mono), tuple(exps))

        return sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other)
        return None

    def __add__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in o._terms.items():
            acc = merged.get(mono, Fraction(0)) + coeff
            if acc:
                merged[mono] = acc
            else:
                merged.pop(mono, None)
        return MPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return MPoly.zero()
        prod: dict[Mono, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                mono = _mono_mul(m1, m2)
                acc = prod.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    prod[mono] = acc
                else:
                    prod.pop(mono, None)
        return MPoly(prod)

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------

    def eval(self, point: Mapping[VarId, Scalar]) -> Fraction:
        """Exact value at the given assignment.

        Raises MissingAssignment if some variable of the polynomial is
        not assigned.
        """
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            val = coeff
            for v, e in mono:
                if v not in point:
                    raise MissingAssignment(v)
                val *= Fraction(point[v]) ** e
            total += val
        return total

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms():
            factors = []
            for v, e in mono:
                factors.append(str(v) if e == 1 else f"{v}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{' + ' if coeff > 0 else ' - '}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def divexact(num: MPoly, den: MPoly) -> MPoly:
    """Exact polynomial division, used by Bareiss elimination.

    Assumes den divides num; raises ValueError if the division is not
    exact.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return MPoly.zero()
    if den.is_constant():
        inv = 1 / den.constant_value()
        return MPoly({m: c * inv for m, c in num._terms.items()})
    den_terms = den.terms()
    lead_mono, lead_coeff = den_terms[0]
    lead_exps = dict(lead_mono)
    quotient: dict[Mono, Fraction] = {}
    rem = num
    while not rem.is_zero():
        rmono, rcoeff = rem.terms()[0]
        rexps = dict(rmono)
        qexps = {}
        for v, e in lead_exps.items():
            re = rexps.get(v, 0)
            if re < e:
                raise ValueError("inexact polynomial division")
            if re > e:
                qexps[v] = re - e
        for v, e in rexps.items():
            if v not in lead_exps:
                qexps[v] = e
        qmono = tuple(sorted(qexps.items(), key=lambda t: t[0].sort_key))
        qcoeff = rcoeff / lead_coeff
        quotient[qmono] = quotient.get(qmono, Fraction(0)) + qcoeff
        rem = rem - MPoly({qmono: qcoeff}) * den
    return MPoly(quotient)


def _det_cofactor(rows: list[list[MPoly]]) -> MPoly:
    k = len(rows)
    if k == 0:
        return MPoly.const(1)
    if k == 1:
        return rows[0][0]
    # expand along the sparsest row to exploit structural zeros
    nnz = [sum(1 for p in row if not p.is_zero()) for row in rows]
    i = nnz.index(min(nnz))
    if nnz[i] == 0:
        return MPoly.zero()
    rest = rows[:i] + rows[i + 1 :]
    acc = MPoly.zero()
    for j, entry in enumerate(rows[i]):
        if entry.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rest]
        term = entry * _det_cofactor(minor)
        if (i + j) % 2:
            term = -term
        acc = acc + term
    return acc


def _det_bareiss(rows: list[list[MPoly]]) -> MPoly:
    k = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = MPoly.const(1)
    for step in range(k - 1):
        pivot_row = next((i for i in range(step, k) if not m[i][step].is_zero()), None)
        if pivot_row is None:
            return MPoly.zero()
        if pivot_row != step:
            m[step], m[pivot_row] = m[pivot_row], m[step]
            sign = -sign
        piv = m[step][step]
        for i in range(step + 1, k):
            for j in range(step + 1, k):
                num = piv * m[i][j] - m[i][step] * m[step][j]
                m[i][j] = divexact(num, prev)
            m[i][step] = MPoly.zero()
        prev = piv
    result = m[k - 1][k - 1]
    return result if sign > 0 else -result


def det(matrix: Sequence[Sequence[MPoly]], bareiss_threshold: int = 6) -> MPoly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion along sparsest rows up to ``bareiss_threshold``;
    fraction-free Bareiss elimination above it.  The 0x0 determinant is 1.
    """
    k = len(matrix)
    rows = [list(r) for r in matrix]
    if any(len(r) != k for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if k <= bareiss_threshold:
        return _det_cofactor(rows)
    return _det_bareiss(rows)


class MinorWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    poly: MPoly


def bordering_minors(
    nrows: int, ncols: int, basis: tuple[Sequence[int], Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Index sets of the minors that border the submatrix ``basis``.

    ``basis = (rows, cols)`` selects a square submatrix; each bordering
    minor adds one row outside ``rows`` and one column outside ``cols``.
    Yields ``(rows', cols')`` as sorted tuples, added row ascending, then
    added column ascending: (nrows - k)(ncols - k) sets for a k x k basis.
    """
    rows, cols = basis
    free_rows = [i for i in range(nrows) if i not in rows]
    free_cols = [j for j in range(ncols) if j not in cols]
    for i in free_rows:
        rset = tuple(sorted((*rows, i)))
        for j in free_cols:
            yield rset, tuple(sorted((*cols, j)))


def all_minors_zero(
    matrix: Sequence[Sequence[MPoly]],
    k: int,
    bareiss_threshold: int = 6,
    basis: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> tuple[bool, Optional[MinorWitness]]:
    """Check whether every k x k minor is the zero polynomial.

    Returns ``(True, None)`` when all minors vanish identically, which
    proves the symbolic rank is < k.  Otherwise returns ``(False,
    witness)`` for the first nonzero minor found.

    ``basis = (rows, cols)`` names a (k-1) x (k-1) submatrix whose
    determinant is a nonzero polynomial (the caller's guarantee).  Then
    only the minors bordering it are computed: by Kronecker's theorem they
    all vanish exactly when every k x k minor does, so the answer is the
    same, and a witness borders ``basis``.  They are taken in
    ``bordering_minors`` order.

    Without ``basis`` every minor is scanned.  Rows and columns are then
    sorted by ascending nonzero count (ties by index), subsets in
    lexicographic order over that arrangement, so the witness is
    deterministic and structured matrices exit early.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if k < 0 or k > min(nrows, ncols):
        raise ValueError(f"no {k}x{k} minors in a {nrows}x{ncols} matrix")
    if k == 0:
        return False, MinorWitness((), (), MPoly.const(1))

    if basis is not None:
        rows, cols = basis
        for idx, bound in ((rows, nrows), (cols, ncols)):
            if len(idx) != k - 1 or len(set(idx)) != k - 1 or not all(0 <= x < bound for x in idx):
                raise ValueError(f"basis {basis} is not a {k - 1}x{k - 1} submatrix")
        subsets: Iterable[tuple[tuple[int, ...], tuple[int, ...]]] = bordering_minors(
            nrows, ncols, basis
        )
    else:

        def nnz_row(i):
            return sum(1 for p in matrix[i] if not p.is_zero())

        def nnz_col(j):
            return sum(1 for i in range(nrows) if not matrix[i][j].is_zero())

        row_order = sorted(range(nrows), key=lambda i: (nnz_row(i), i))
        col_order = sorted(range(ncols), key=lambda j: (nnz_col(j), j))
        subsets = (
            (tuple(sorted(rsel)), tuple(sorted(csel)))
            for rsel in combinations(row_order, k)
            for csel in combinations(col_order, k)
        )
    for rset, cset in subsets:
        sub = [[matrix[i][j] for j in cset] for i in rset]
        d = det(sub, bareiss_threshold)
        if not d.is_zero():
            return False, MinorWitness(rset, cset, d)
    return True, None
