"""Sparse multivariate polynomials over the rationals.

Variables are numbered 0, 1, 2, ...; the numbering belongs to the caller
(``nondegen`` numbers u1.. first, then h1..).  A monomial is the sorted
tuple of its variables' indices, each repeated by its exponent, so
x0^2 x3 is (0, 0, 3) and the constant monomial is ().  Terms are kept in
a dict from monomials to nonzero coefficients, each the int or Fraction
it was computed as.

A matrix of polynomials is kept as sparse rows, one dict {column:
nonzero MPoly} per row, the format of the samples and of ``RatMatrix``.
On it this module provides the exact determinant of the minor that a
list of rows and a list of column indices select, over MPolys or numbers
(Laplace expansion along the sparsest remaining row, every sub-minor
computed once per call), and a short-circuiting test that every k x k
minor vanishes, over the minors that border a known nonsingular
(k-1)-submatrix (Kronecker's rank theorem).  A bordering minor is
decided block by block: the nonsingular submatrix splits into square
blocks, the connected components of its graph of nonzero entries, and
the minor is 0 exactly when the determinant of its added row and column
joined with the blocks that both meet is.  When they meet none and cross
at a zero entry, that is known with no arithmetic.  The test names the
first nonzero minor and expands none beyond its joined block.

Multiplying by an int or a Fraction scales the coefficients, and adding
the int 0 returns the polynomial itself, without the general product or
sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

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
        if isinstance(other, (int, Fraction)) and not other:
            return self  # sum() and row.get(j, 0) start from the int 0
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
        if isinstance(other, (int, Fraction)):
            return MPoly({m: c * other for m, c in self._terms.items()})
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


Entry = Union[MPoly, Scalar]
_ZERO = MPoly()


def det(rows: Sequence[Mapping[int, Entry]], cols: Sequence[int]) -> Entry:
    """Exact determinant of the square submatrix ``rows`` x ``cols``.

    ``rows`` are the minor's rows, each a dict {column: entry}, a column
    left out being 0, that may hold entries outside ``cols``; ``cols``
    are its column indices, in order.  The entries may be ints,
    Fractions or MPolys, and the determinant is of their kind: a number
    for numbers, an MPoly for MPolys or when no row holds an entry.
    Laplace expansion along the sparsest remaining row (the first of
    equals), over the entries present in it, with every sub-minor cached
    by its (rows, columns) for the duration of the call.  Structural
    zeros prune the expansion, and the cache bounds a dense k x k
    determinant to k * 2^(k-1) entry x minor products.  The 0x0
    determinant is the polynomial 1.
    """
    k = len(rows)
    if len(cols) != k:
        raise ValueError(f"determinant of a {k}x{len(cols)} matrix")
    if k == 0:
        return MPoly.const(1)
    # the value of an entry that a row leaves out: 0 among numbers, else the polynomial 0
    first = next((x for row in rows for x in row.values()), _ZERO)
    zero = _ZERO if isinstance(first, MPoly) else 0
    colset = set(cols)
    nnz = [len(row.keys() & colset) for row in rows]
    return _minor(rows, tuple(range(k)), tuple(cols), nnz, {}, zero)


def _minor(
    rows: Sequence[Mapping[int, Entry]],
    ridx: tuple[int, ...],
    cols: tuple[int, ...],
    nnz: list[int],
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Entry],
    zero: Entry,
) -> Entry:
    """Determinant of the rows ``rows[i]`` for i in ``ridx`` at the columns
    ``cols`` (equal, nonzero length); ``nnz[t]`` is the number of entries
    of ``rows[ridx[t]]`` in ``cols``.  Sub-minors go through ``cache``."""
    if len(ridx) == 1:
        return rows[ridx[0]].get(cols[0], zero)
    p = nnz.index(min(nnz))
    row = rows[ridx[p]]
    rest = ridx[:p] + ridx[p + 1 :]
    rest_nnz = nnz[:p] + nnz[p + 1 :]
    acc = zero
    for q, j in enumerate(cols):
        if j not in row:
            continue
        sub_cols = cols[:q] + cols[q + 1 :]
        key = (rest, sub_cols)
        sub = cache.get(key)
        if sub is None:
            # dropping column j lowers the count of each row that holds it
            sub_nnz = [c - (j in rows[i]) for c, i in zip(rest_nnz, rest)]
            sub = cache[key] = _minor(rows, rest, sub_cols, sub_nnz, cache, zero)
        if sub:
            term = row[j] * sub
            acc = acc - term if (p + q) % 2 else acc + term
    return acc


def all_minors_zero(
    rows: Sequence[Mapping[int, MPoly]], ncols: int, basis: tuple[Sequence[int], Sequence[int]]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Check whether every k x k minor is the zero polynomial, k the size of ``basis`` plus 1.

    The matrix is ``rows``, one dict {column: nonzero MPoly} per row, over
    the columns 0..``ncols``-1.  ``basis = (rows, cols)`` names a
    (k-1) x (k-1) submatrix whose determinant is a nonzero polynomial (the
    caller's guarantee).  Only the minors bordering it are decided: by
    Kronecker's theorem they all vanish exactly when every k x k minor
    does.  Returns None when they all vanish identically, which proves the
    symbolic rank is k - 1.  Otherwise returns the first nonzero one as
    ``(rows, cols)``, each ascending, in the format of ``basis``.

    A bordering minor adds one row i outside ``rows`` and one column j
    outside ``cols``; they are taken added row ascending, then added
    column ascending.  Each is decided block by block, from the connected
    components of the basis submatrix's bipartite graph of nonzero
    entries.  Each component is square with a nonzero determinant, since
    the basis is nonsingular.  In the minor, the rows of a component that
    column j does not meet have no entry outside the component's columns,
    and the columns of a component that row i does not meet have none
    outside its rows.  So the minor is, up to sign, the determinant of the
    joined block (row i, column j and every component that both of them
    meet) times those of the other components, and it is 0 exactly when
    the joined block's determinant is.  If j is not an entry of row i and
    the two meet no common component, that block is the 1 x 1 zero and no
    arithmetic is done.  No minor is expanded beyond its joined block.
    A basis that is not square, repeats an index or has one out of range
    raises ValueError, and so does one whose graph has a component that
    is not square, or a column with no entry, which is singular.
    """
    basis_rows, basis_cols = basis
    for idx, bound in zip(basis, (len(rows), ncols)):
        if len(idx) != len(basis_rows) or len(set(idx)) != len(idx) or not all(0 <= x < bound for x in idx):
            raise ValueError(f"basis {basis} is not a square submatrix")
    colset = set(basis_cols)
    col_rows: dict[int, list[int]] = {}  # the basis rows that hold each column
    for r in basis_rows:
        for c in rows[r]:
            col_rows.setdefault(c, []).append(r)
    # the basis graph's components, each as its rows and its columns
    comp_rows: list[list[int]] = []
    comp_cols: list[list[int]] = []
    row_comp: dict[int, int] = {}
    col_comp: dict[int, int] = {}
    for start in basis_rows:
        if start in row_comp:
            continue
        label = row_comp[start] = len(comp_rows)
        comp_rows.append([])
        comp_cols.append([])
        stack = [start]
        while stack:
            r = stack.pop()
            comp_rows[label].append(r)
            for c in rows[r]:
                if c in colset and c not in col_comp:
                    col_comp[c] = label
                    comp_cols[label].append(c)
                    for r2 in col_rows[c]:
                        if r2 not in row_comp:
                            row_comp[r2] = label
                            stack.append(r2)
    if len(col_comp) < len(colset) or any(len(a) != len(b) for a, b in zip(comp_rows, comp_cols)):
        raise ValueError(f"basis {basis} is singular")

    # the components that each column outside the basis meets
    col_touch = {j: {row_comp[r] for r in col_rows.get(j, ())} for j in range(ncols) if j not in colset}
    for i in range(len(rows)):
        if i in row_comp:
            continue
        row = rows[i]
        touched = {col_comp[c] for c in row if c in colset}
        for j, j_touched in col_touch.items():
            joined = touched & j_touched
            if j not in row and not joined:
                continue
            block_rows = sorted([i, *(r for b in joined for r in comp_rows[b])])
            block_cols = sorted([j, *(c for b in joined for c in comp_cols[b])])
            if det([rows[r] for r in block_rows], block_cols):
                return tuple(sorted((*basis_rows, i))), tuple(sorted((*basis_cols, j)))
    return None
