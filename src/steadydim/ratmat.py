"""Exact linear algebra over the rationals, on sparse rows.

A ``RatMatrix`` stores only its nonzero entries: one dict
``{column: Fraction}`` per row.  Reduced row echelon form, rank, and
right/left kernel and row-space bases all eliminate on those dicts, so
the work follows the nonzeros rather than the shape (a stoichiometric
matrix has a few nonzeros per column).  Matrices are immutable after
construction, so values can be shared freely across threads; each one
keeps its RREF once computed, so the row basis and the kernel basis of
one matrix cost one elimination.

``rank_mod_p`` ranks a matrix of ints and Fractions modulo the prime
``MODULUS``; that rank never exceeds the rational rank, so a rank of
at least k modulo p proves a rank of at least k over Q.

Basis vectors are rescaled to primitive integer vectors to keep
downstream coefficients small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, str, Fraction]

# the Mersenne prime 2^61 - 1
MODULUS = (1 << 61) - 1

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _nonzeros(items: Iterable[tuple[int, Scalar]]) -> dict[int, Fraction]:
    """{index: Fraction} for the nonzero values among (index, value) pairs."""
    return {j: v for j, x in items if x and (v := _frac(x))}


def _primitive(entries: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """The primitive integer multiple of a sparse vector, first entry positive."""
    if not entries:
        return {}
    mult = lcm(*(x.denominator for x in entries.values()))
    ints = {j: x.numerator * (mult // x.denominator) for j, x in entries.items()}
    content = gcd(*ints.values())
    if ints[min(ints)] < 0:
        content = -content
    return {j: Fraction(x // content) for j, x in ints.items()}


def primitive(vec: Iterable[Scalar]) -> tuple[Fraction, ...]:
    """Rescale a rational vector to a primitive integer vector.

    Clears denominators, divides by the content (gcd of the entries) and
    flips the sign so the first nonzero entry is positive.  The zero
    vector is returned unchanged.
    """
    v = list(vec)
    p = _primitive(_nonzeros(enumerate(v)))
    return tuple(p.get(j, _ZERO) for j in range(len(v)))


class RatMatrix:
    """Immutable sparse matrix of rationals.

    Row i is a dict {column: nonzero Fraction} with its columns in
    ascending order; every constructor and operation keeps that order.
    """

    __slots__ = ("rows", "cols", "_entries", "_rref")

    def __init__(self, rows: int, cols: int, entries: Sequence[dict[int, Fraction]]):
        """Take ``entries`` as is: one dict per row, as the class stores it.

        ``from_entries`` accepts any values and drops zeros.
        """
        if rows < 0 or cols < 0 or len(entries) != rows:
            raise ValueError(f"bad shape: {rows}x{cols} with {len(entries)} rows of entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Sequence[Mapping[int, Scalar]]) -> "RatMatrix":
        """``entries[i]`` maps column indices of row i to values; zeros are dropped."""
        if any(not 0 <= j < cols for d in entries for j in d):
            raise ValueError(f"column index out of range for {rows}x{cols}")
        return cls(rows, cols, [_nonzeros(sorted(d.items())) for d in entries])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "RatMatrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                raise ValueError("column count required for a matrix with no rows")
            return cls(0, cols, [])
        ncols = len(rows[0]) if cols is None else cols
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [_nonzeros(enumerate(row)) for row in rows])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> "RatMatrix":
        ncols = len(columns)
        if ncols == 0:
            if rows is None:
                raise ValueError("row count required for a matrix with no columns")
            return cls(rows, 0, [{} for _ in range(rows)])
        nrows = len(columns[0]) if rows is None else rows
        if any(len(col) != nrows for col in columns):
            raise ValueError("ragged columns")
        return cls(ncols, nrows, [_nonzeros(enumerate(col)) for col in columns]).transpose()

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [{} for _ in range(rows)])

    # -- access ------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i].get(j, _ZERO)

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self._entries[i]
        return tuple(d.get(j, _ZERO) for j in range(self.cols))

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(d.get(j, _ZERO) for d in self._entries)

    def entries(self, i: int) -> dict[int, Fraction]:
        """The nonzero entries of row i as a new dict {column: value}."""
        return dict(self._entries[i])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self._entries)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for d in self._entries for x in d.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._entries) == (other.rows, other.cols, other._entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(d.items()) for d in self._entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------

    def transpose(self) -> "RatMatrix":
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, d in enumerate(self._entries):
            for j, x in d.items():
                out[j][i] = x
        return RatMatrix(self.cols, self.rows, out)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for d in self._entries:
            acc: dict[int, Fraction] = {}
            for k, a in d.items():
                for j, b in other._entries[k].items():
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append({j: x for j, x in sorted(acc.items()) if x})
        return RatMatrix(self.rows, other.cols, out)

    def mul_vec(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        v = [_frac(x) for x in vec]
        return tuple(sum((a * v[j] for j, a in d.items()), _ZERO) for d in self._entries)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return RatMatrix(self.rows + other.rows, self.cols, list(self._entries + other._entries))

    # -- elimination -------------------------------------------------

    def rref(self) -> tuple["RatMatrix", tuple[int, ...], int]:
        """Reduced row echelon form.

        Returns ``(R, pivot_columns, rank)``.  Column by column, the pivot
        is the sparsest remaining row with a nonzero there (the lowest
        index among equals), and only rows with a nonzero in the pivot
        column are updated, only where the pivot row is nonzero.  The
        RREF is unique, so the pivot choice only controls the work and
        the intermediate entry sizes.  The result is computed once per
        matrix.
        """
        if self._rref is None:
            object.__setattr__(self, "_rref", self._eliminate())
        return self._rref

    def _eliminate(self) -> tuple["RatMatrix", tuple[int, ...], int]:
        work = [dict(d) for d in self._entries]
        free = set(range(self.rows))
        pivots: list[int] = []
        pivot_rows: list[int] = []
        for pc in range(self.cols):
            if not free:
                break
            hits = [i for i, d in enumerate(work) if pc in d]
            cands = [i for i in hits if i in free]
            if not cands:
                continue
            p = min(cands, key=lambda i: len(work[i]))
            piv = work[p][pc]
            rp = work[p] if piv == 1 else {j: x / piv for j, x in work[p].items()}
            work[p] = rp
            for i in hits:
                if i != p:
                    add_multiple(work[i], -work[i][pc], rp)
            free.discard(p)
            pivots.append(pc)
            pivot_rows.append(p)
        rank = len(pivots)
        entries = [dict(sorted(work[p].items())) for p in pivot_rows]
        entries += [{} for _ in range(self.rows - rank)]
        return RatMatrix(self.rows, self.cols, entries), tuple(pivots), rank

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> "RatMatrix":
        """Basis of the right kernel, one primitive integer vector per column.

        The returned matrix ``K`` is ``cols x (cols - rank)`` and satisfies
        ``self @ K == 0`` exactly.  Column t is the primitive multiple of
        the vector that is 1 at the t-th free column, 0 at the other free
        columns and solves the RREF at the pivot columns.
        """
        red, pivots, rank = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for t, fc in enumerate(free):
            v = {fc: _ONE}
            for i, pc in enumerate(pivots):
                x = red._entries[i].get(fc)
                if x:
                    v[pc] = -x
            for j, x in _primitive(v).items():
                out[j][t] = x
        return RatMatrix(self.cols, len(free), out)

    def row_basis(self) -> "RatMatrix":
        """Row-space basis: nonzero RREF rows rescaled to primitive integers.

        The result has full row rank equal to ``rank(self)`` and the same
        row space as ``self``.
        """
        red, _, rank = self.rref()
        return RatMatrix(rank, self.cols, [_primitive(red._entries[i]) for i in range(rank)])

    def left_kernel_basis(self) -> "RatMatrix":
        """Basis of the left kernel as primitive integer rows.

        The result ``K`` is ``(rows - rank) x rows`` with ``K @ self == 0``.
        The rows are reduced in order against the independent rows before
        them (the row-rank profile), recording the multiple of each
        reduced profile row that was subtracted.  A row that reduces to
        zero is a combination of the profile rows before it; unwinding the
        recorded multiples gives that combination, the one left-kernel
        vector that is 1 at the row and 0 at the other rows outside the
        profile, and its primitive multiple becomes a basis row.
        """
        # per profile row: (original row index, reduced row, {earlier profile row: multiple})
        profile: list[tuple[int, dict[int, Fraction], dict[int, Fraction]]] = []
        lead_of: dict[int, int] = {}  # leading column of a reduced profile row -> its position
        out = []
        for i, row in enumerate(self._entries):
            vec = dict(row)
            mult: dict[int, Fraction] = {}
            while True:
                lead = min((j for j in vec if j in lead_of), default=None)
                if lead is None:
                    break
                k = lead_of[lead]
                reduced = profile[k][1]
                f = vec[lead] / reduced[lead]
                mult[k] = f
                add_multiple(vec, -f, reduced)
            if vec:
                lead_of[min(vec)] = len(profile)
                profile.append((i, vec, mult))
                continue
            # row i = sum mult[k] * reduced_k, and reduced_k = row_(profile k) - sum of its own multiples
            comb = {i: _ONE}
            for k in range(max(mult, default=-1), -1, -1):
                c = mult.get(k)
                if c:
                    src, _, below = profile[k]
                    comb[src] = -c
                    for m, fm in below.items():
                        mult[m] = mult.get(m, _ZERO) - c * fm
            out.append(dict(sorted(_primitive(comb).items())))
        return RatMatrix(len(out), self.rows, out)


def add_multiple(target: dict, f, source: dict) -> None:
    """target += f * source on sparse rows, dropping the entries that cancel."""
    for j, x in source.items():
        y = target.get(j, _ZERO) + f * x
        if y:
            target[j] = y
        else:
            del target[j]


def rank_mod_p(rows: Sequence[Sequence]) -> int:
    """Rank modulo ``MODULUS`` of a matrix of ints and Fractions.

    Each row is first scaled by the lcm of its denominators, which keeps
    the rank.  Eliminates forward only, on sparse rows, pivoting on the
    sparsest row.
    """
    p = MODULUS
    work = []
    for row in rows:
        nonzeros = [(j, x) for j, x in enumerate(row) if x]
        mult = lcm(*(x.denominator for _, x in nonzeros if x.__class__ is not int))
        d = {j: y for j, x in nonzeros if (y := int(x * mult) % p)}
        if d:
            work.append(d)
    rank = 0
    ncols = max((len(row) for row in rows), default=0)
    for pc in range(ncols):
        if not work:
            break
        hits = [d for d in work if pc in d]
        if not hits:
            continue
        rp = min(hits, key=len)
        inv = pow(rp[pc], -1, p)
        for ri in hits:
            if ri is not rp:
                f = ri[pc] * inv % p
                for j, x in rp.items():
                    y = (ri.get(j, 0) - f * x) % p
                    if y:
                        ri[j] = y
                    else:
                        del ri[j]
        work = [d for d in work if d and d is not rp]
        rank += 1
    return rank
