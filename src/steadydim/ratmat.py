"""Exact linear algebra over the rationals.

Dense matrices of ``fractions.Fraction`` with reduced row echelon form,
rank, and right/left kernel and row-space bases.  Matrices are immutable
after construction, so values can be shared freely across threads.

Scale note: everything here is meant for network-sized problems (tens of
rows/columns), stored densely.  Basis vectors are rescaled to primitive
integer vectors to keep downstream coefficients small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def primitive(vec: Iterable[Scalar]) -> tuple[Fraction, ...]:
    """Rescale a rational vector to a primitive integer vector.

    Clears denominators, divides by the content (gcd of the entries) and
    flips the sign so the first nonzero entry is positive.  The zero
    vector is returned unchanged.
    """
    v = [_frac(x) for x in vec]
    nonzero = [x for x in v if x]
    if not nonzero:
        return tuple(v)
    mult = Fraction(lcm(*(x.denominator for x in nonzero)))
    ints = [x * mult for x in v]
    content = gcd(*(int(x) for x in ints if x))
    if content > 1:
        ints = [x / content for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


class RatMatrix:
    """Immutable dense matrix of rationals, stored row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Sequence[Fraction]):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"bad shape: {rows}x{cols} with {len(data)} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "RatMatrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                raise ValueError("column count required for a matrix with no rows")
            return cls(0, cols, ())
        ncols = len(rows[0]) if cols is None else cols
        data = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            data.extend(_frac(x) for x in row)
        return cls(nrows, ncols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> "RatMatrix":
        ncols = len(columns)
        if ncols == 0:
            if rows is None:
                raise ValueError("row count required for a matrix with no columns")
            return cls(rows, 0, ())
        nrows = len(columns[0]) if rows is None else rows
        data = []
        for i in range(nrows):
            for col in columns:
                if len(col) != nrows:
                    raise ValueError("ragged columns")
                data.append(_frac(col[i]))
        return cls(nrows, ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [_ZERO] * (rows * cols))

    # -- access ------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self._data[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self._data)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------

    def transpose(self) -> "RatMatrix":
        data = [self._data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return RatMatrix(self.cols, self.rows, data)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        data = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = _ZERO
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        b = other._data[k * other.cols + j]
                        if b:
                            acc += a * b
                data.append(acc)
        return RatMatrix(self.rows, other.cols, data)

    def mul_vec(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        v = [_frac(x) for x in vec]
        return tuple(sum((a * b for a, b in zip(self.row(i), v) if a and b), _ZERO) for i in range(self.rows))

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return RatMatrix(self.rows + other.rows, self.cols, self._data + other._data)

    # -- elimination -------------------------------------------------

    def rref(self) -> tuple["RatMatrix", tuple[int, ...], int]:
        """Reduced row echelon form.

        Returns ``(R, pivot_columns, rank)``.  Within each column the
        pivot is chosen with the largest absolute value among the
        remaining rows (the result is the unique RREF either way; the
        choice only controls intermediate entry sizes).
        """
        m = self.to_rows()
        pivots: list[int] = []
        pr = 0
        for pc in range(self.cols):
            if pr == self.rows:
                break
            best = -1
            best_abs = _ZERO
            for i in range(pr, self.rows):
                a = abs(m[i][pc])
                if a > best_abs:
                    best, best_abs = i, a
            if best < 0:
                continue
            m[pr], m[best] = m[best], m[pr]
            piv = m[pr][pc]
            if piv != 1:
                m[pr] = [x / piv for x in m[pr]]
            rp = m[pr]
            for i in range(self.rows):
                if i == pr:
                    continue
                f = m[i][pc]
                if f:
                    ri = m[i]
                    for j in range(pc, self.cols):
                        if rp[j]:
                            ri[j] -= f * rp[j]
            pivots.append(pc)
            pr += 1
        flat = [x for row in m for x in row]
        return RatMatrix(self.rows, self.cols, flat), tuple(pivots), len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> "RatMatrix":
        """Basis of the right kernel, one primitive integer vector per column.

        The returned matrix ``K`` is ``cols x (cols - rank)`` and satisfies
        ``self @ K == 0`` exactly.
        """
        red, pivots, rank = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        columns = []
        for fc in free:
            v = [_ZERO] * self.cols
            v[fc] = _ONE
            for i, pc in enumerate(pivots):
                v[pc] = -red.at(i, fc)
            columns.append(primitive(v))
        return RatMatrix.from_columns(columns, rows=self.cols)

    def row_basis(self) -> "RatMatrix":
        """Row-space basis: nonzero RREF rows rescaled to primitive integers.

        The result has full row rank equal to ``rank(self)`` and the same
        row space as ``self``.
        """
        red, _, rank = self.rref()
        rows = [primitive(red.row(i)) for i in range(rank)]
        return RatMatrix.from_rows(rows, cols=self.cols)

    def left_kernel_basis(self) -> "RatMatrix":
        """Basis of the left kernel as primitive integer rows.

        The result ``K`` is ``(rows - rank) x rows`` with ``K @ self == 0``.
        """
        return self.transpose().kernel_basis().transpose()
