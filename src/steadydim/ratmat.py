"""Exact linear algebra over the rationals, on sparse rows.

A ``RatMatrix`` stores only its nonzero entries: one dict
``{column: Fraction}`` per row.  One elimination reduces the rows in
order on those dicts, so the work follows the nonzeros rather than the
shape (a stoichiometric matrix has a few nonzeros per column).  It
gives the reduced row echelon form, the rank, the row-rank profile and
the left kernel at once, and the right kernel and row-space bases are
read off the RREF.  Matrices are immutable after construction, so
values can be shared freely across threads; each one keeps its
elimination once computed, so all of these cost one elimination.

``rank_mod_p`` ranks a matrix of ints and Fractions, given as the same
sparse rows, modulo the prime ``MODULUS``, reducing the rows in order
(forward only); that rank never exceeds the rational rank, so a rank
of at least k modulo p proves a rank of at least k over Q.

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

    __slots__ = ("rows", "cols", "_entries", "_elim")

    def __init__(self, rows: int, cols: int, entries: Sequence[dict[int, Fraction]]):
        """Take ``entries`` as is: one dict per row, as the class stores it.

        ``from_entries`` accepts any values and drops zeros.
        """
        if rows < 0 or cols < 0 or len(entries) != rows:
            raise ValueError(f"bad shape: {rows}x{cols} with {len(entries)} rows of entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "_elim", None)

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

    def _eliminate(self) -> tuple:
        """The one rational elimination, which every elimination method reads.

        Returns ``(RREF, pivot columns, rank, row-rank profile, multiples)``.
        Each row is reduced, in order, against the independent rows before
        it (the profile), recording the multiple of each reduced profile
        row it subtracts.  Back-substitution, from the latest profile row
        to the first, scales each to 1 at its lead (first nonzero column)
        and clears it at the later rows' leads: those are the RREF rows.
        """
        # per profile row: (original row index, reduced row, {earlier profile row: multiple})
        profile: list[tuple[int, dict[int, Fraction], dict[int, Fraction]]] = []
        lead_of: dict[int, int] = {}  # lead of a reduced profile row -> its position
        dependent: list[tuple[int, dict[int, Fraction]]] = []  # (row, multiples) of each zero row
        for i, row in enumerate(self._entries):
            vec = dict(row)
            mult: dict[int, Fraction] = {}
            while (lead := min((j for j in vec if j in lead_of), default=None)) is not None:
                k = lead_of[lead]
                reduced = profile[k][1]
                f = vec[lead] / reduced[lead]
                mult[k] = f
                add_multiple(vec, -f, reduced)
            if vec:
                lead_of[min(vec)] = len(profile)
                profile.append((i, vec, mult))
            else:
                dependent.append((i, mult))
        rref_rows: list[dict[int, Fraction]] = [{} for _ in profile]
        for k in range(len(profile) - 1, -1, -1):
            vec = profile[k][1]
            lead = min(vec)
            piv = vec[lead]
            row = vec if piv == 1 else {j: x / piv for j, x in vec.items()}
            for j in [j for j in row if j != lead and j in lead_of]:
                add_multiple(row, -row[j], rref_rows[lead_of[j]])
            rref_rows[k] = row
        pivots = tuple(sorted(lead_of))
        entries = [dict(sorted(rref_rows[lead_of[c]].items())) for c in pivots]
        entries += [{} for _ in range(self.rows - len(pivots))]
        return (
            RatMatrix(self.rows, self.cols, entries),
            pivots,
            len(pivots),
            tuple(i for i, _, _ in profile),
            ([below for _, _, below in profile], dependent),
        )

    def _elimination(self) -> tuple:
        if self._elim is None:
            object.__setattr__(self, "_elim", self._eliminate())
        return self._elim

    def rref(self) -> tuple["RatMatrix", tuple[int, ...], int]:
        """Reduced row echelon form: ``(R, pivot_columns, rank)``, with the
        RREF rows first in ``R`` and zero rows after them."""
        return self._elimination()[:3]

    def rank(self) -> int:
        return self._elimination()[2]

    def row_profile(self) -> tuple[int, ...]:
        """The rows independent of the rows before them, in order: with the
        pivot columns C, these rows R give a nonsingular ``self[R, C]``."""
        return self._elimination()[3]

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
        A row outside the row-rank profile reduced to zero, so it is a
        combination of the profile rows before it; unwinding the recorded
        multiples gives that combination, the one left-kernel vector that
        is 1 at the row and 0 at the other rows outside the profile, and
        its primitive multiple becomes a basis row.
        """
        _, _, _, profile, (below, dependent) = self._elimination()
        out = []
        for i, recorded in dependent:
            # row i = sum mult[k] * reduced_k, and reduced_k = row_(profile k) - sum of its own multiples
            mult = dict(recorded)
            comb = {i: _ONE}
            for k in range(max(mult, default=-1), -1, -1):
                c = mult.get(k)
                if c:
                    comb[profile[k]] = -c
                    for m, fm in below[k].items():
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


def rank_mod_p(rows: Sequence[Mapping[int, Union[int, Fraction]]]) -> int:
    """Rank modulo ``MODULUS`` of a matrix given as sparse rows.

    Each row is a dict {column: int or Fraction}; it is first scaled by
    the lcm of its denominators, which keeps the rank.  The rows are then
    reduced in order, each against the earlier independent rows whose
    lead (first nonzero column) it meets, until its own lead is new or
    nothing is left, so the work follows the nonzeros.
    """
    p = MODULUS
    leads: dict[int, tuple[dict[int, int], int]] = {}  # lead -> (reduced row, inverse of its lead)
    for row in rows:
        mult = lcm(*(x.denominator for x in row.values() if x.__class__ is not int))
        vec = {j: y for j, x in row.items() if (y := int(x * mult) % p)}
        while vec:
            lead = min(vec)
            if lead not in leads:
                leads[lead] = (vec, pow(vec[lead], -1, p))
                break
            piv, inv = leads[lead]
            f = vec[lead] * inv % p
            for j, x in piv.items():
                y = (vec.get(j, 0) - f * x) % p
                if y:
                    vec[j] = y
                else:
                    del vec[j]
    return len(leads)
