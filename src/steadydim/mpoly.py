"""Sparse multivariate polynomials over the rationals.

Variables are numbered 0, 1, 2, ...; the numbering belongs to the caller
(``nondegen`` numbers u1.. first, then h1..).  A monomial is the sorted
tuple of its variables' indices, each repeated by its exponent, so
x0^2 x3 is (0, 0, 3) and the constant monomial is ().  Terms are kept in
a dict from monomials to nonzero coefficients, each the int or Fraction
it was computed as.

A matrix of polynomials is kept as sparse rows, one dict {column:
nonzero MPoly} per row, the format of the samples and of ``RatMatrix``.
On it this module provides the exact symbolic determinant of the minor
that a list of rows and a list of column indices select (Laplace
expansion along the sparsest remaining row, every sub-minor computed once
per call), and a short-circuiting test that every k x k minor vanishes:
over the minors that border a known nonsingular (k-1)-submatrix
(Kronecker's rank theorem), or over all of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

# A monomial: variable indices in ascending order, each repeated by its exponent.
Mono = tuple[int, ...]


class MPoly:
    """Polynomial in integer-indexed variables with int or Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        object.__setattr__(self, "_terms", {m: c for m, c in terms.items() if c} if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "MPoly":
        return cls({(): c})

    @classmethod
    def var(cls, index: int, coeff: Scalar = 1) -> "MPoly":
        return cls({(index,): coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"MPoly({self._terms!r})"

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
            merged[mono] = merged.get(mono, 0) + coeff
        return MPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> "MPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod: dict[Mono, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                mono = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                prod[mono] = prod.get(mono, 0) + c1 * c2
        return MPoly(prod)

    __rmul__ = __mul__

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value with variable i set to ``point[i]``."""
        total = 0
        for mono, coeff in self._terms.items():
            for i in mono:
                coeff *= point[i]
            total += coeff
        return total


_ZERO = MPoly()  # the value of an entry that a sparse row leaves out


def det(rows: Sequence[Mapping[int, MPoly]], cols: Sequence[int]) -> MPoly:
    """Exact determinant of the square submatrix ``rows`` x ``cols``.

    ``rows`` are the minor's rows, each a dict {column: nonzero MPoly}
    that may hold entries outside ``cols``; ``cols`` are its column
    indices, in order.  Laplace expansion along the sparsest remaining
    row (the first of equals), over the entries present in it, with every
    sub-minor cached by its (rows, columns) for the duration of the call.
    Structural zeros prune the expansion, and the cache bounds a dense
    k x k determinant to k * 2^(k-1) entry x minor products.  The 0x0
    determinant is 1.
    """
    k = len(rows)
    if len(cols) != k:
        raise ValueError(f"determinant of a {k}x{len(cols)} matrix")
    if k == 0:
        return MPoly.const(1)
    if k == 1:
        return rows[0].get(cols[0], _ZERO)
    colset = set(cols)
    nnz = [len(row.keys() & colset) for row in rows]
    return _minor(rows, tuple(range(k)), tuple(cols), nnz, {})


def _minor(
    rows: Sequence[Mapping[int, MPoly]],
    ridx: tuple[int, ...],
    cols: tuple[int, ...],
    nnz: list[int],
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], MPoly],
) -> MPoly:
    """Determinant of the rows ``rows[i]`` for i in ``ridx`` at the columns
    ``cols`` (equal, nonzero length); ``nnz[t]`` is the number of entries
    of ``rows[ridx[t]]`` in ``cols``.  Sub-minors go through ``cache``."""
    if len(ridx) == 1:
        return rows[ridx[0]].get(cols[0], _ZERO)
    p = nnz.index(min(nnz))
    row = rows[ridx[p]]
    rest = ridx[:p] + ridx[p + 1 :]
    rest_nnz = nnz[:p] + nnz[p + 1 :]
    acc = MPoly()
    for q, j in enumerate(cols):
        if j not in row:
            continue
        sub_cols = cols[:q] + cols[q + 1 :]
        key = (rest, sub_cols)
        sub = cache.get(key)
        if sub is None:
            # dropping column j lowers the count of each row that holds it
            sub_nnz = [c - (j in rows[i]) for c, i in zip(rest_nnz, rest)]
            sub = cache[key] = _minor(rows, rest, sub_cols, sub_nnz, cache)
        if sub:
            term = row[j] * sub
            acc = acc - term if (p + q) % 2 else acc + term
    return acc


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
    rows: Sequence[Mapping[int, MPoly]],
    ncols: int,
    k: int,
    basis: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> tuple[bool, Optional[MinorWitness]]:
    """Check whether every k x k minor is the zero polynomial.

    The matrix is ``rows``, one dict {column: nonzero MPoly} per row, over
    the columns 0..``ncols``-1.  Returns ``(True, None)`` when all minors
    vanish identically, which proves the symbolic rank is < k.  Otherwise
    returns ``(False, witness)`` for the first nonzero minor found.

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
    nrows = len(rows)
    if k < 0 or k > min(nrows, ncols):
        raise ValueError(f"no {k}x{k} minors in a {nrows}x{ncols} matrix")
    if k == 0:
        return False, MinorWitness((), (), MPoly.const(1))

    if basis is not None:
        basis_rows, basis_cols = basis
        for idx, bound in ((basis_rows, nrows), (basis_cols, ncols)):
            if len(idx) != k - 1 or len(set(idx)) != k - 1 or not all(0 <= x < bound for x in idx):
                raise ValueError(f"basis {basis} is not a {k - 1}x{k - 1} submatrix")
        subsets: Iterable[tuple[tuple[int, ...], tuple[int, ...]]] = bordering_minors(
            nrows, ncols, basis
        )
    else:
        row_order = sorted(range(nrows), key=lambda i: (len(rows[i]), i))
        col_order = sorted(range(ncols), key=lambda j: (sum(j in row for row in rows), j))
        subsets = (
            (tuple(sorted(rsel)), tuple(sorted(csel)))
            for rsel in combinations(row_order, k)
            for csel in combinations(col_order, k)
        )
    for rset, cset in subsets:
        d = det([rows[i] for i in rset], cset)
        if not d.is_zero():
            return False, MinorWitness(rset, cset, d)
    return True, None
