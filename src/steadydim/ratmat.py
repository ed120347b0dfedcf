"""Exact linear algebra over the rationals, on sparse rows of integers.

A ``RatMatrix`` stores only its nonzero entries: one dict
``{column: value}`` per row, where a value is a Python ``int`` when it
is an integer and a ``Fraction`` (denominator > 1) only when it is not.
The matrices of a network (stoichiometric, exponent, their bases) are
integral, so their entries are plain ints end to end.

One fraction-free elimination reduces the rows in order on those
dicts, so the work follows the nonzeros rather than the shape (a
stoichiometric matrix has a few nonzeros per column).  Each row is
scaled to integers and reduced against the independent rows before it
by ``row <- a*row - b*earlier`` with coprime integers ``a`` and ``b``,
then divided by its content.  That forward pass gives the rank, the
pivot columns and, by unwinding the recorded integer pairs, the left
kernel.  An integer back-substitution turns the independent rows into
the reduced row echelon form; it runs once, on first use, and gives the
right kernel and row-space bases too.
Matrices are immutable after construction, so values can be shared
freely across threads; each one keeps its elimination once computed.

``basis_mod_p`` runs the same forward pass modulo the prime ``MODULUS``
on a matrix of ints and Fractions, given as the same sparse rows, and
returns the rows and the leads of a submatrix that is nonsingular
modulo p, hence over Q: a proof that the rational rank is at least its
size, with no rational arithmetic.

Basis vectors are primitive integer vectors, to keep downstream
coefficients small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, str, Fraction]
# a stored value: an int, or a Fraction whose denominator is not 1
Rational = Union[int, Fraction]

# the Mersenne prime 2^61 - 1
MODULUS = (1 << 61) - 1


def rational(x: Scalar) -> Rational:
    """The exact value of ``x`` as a matrix stores it: an int when it is
    integral, else a Fraction."""
    if x.__class__ is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def quotient(x: Rational, y: Rational) -> Rational:
    """The exact quotient x / y, an int when it is integral."""
    if x.__class__ is int and y.__class__ is int and not x % y:
        return x // y
    return rational(Fraction(x, y))


def _nonzeros(items: Iterable[tuple[int, Scalar]]) -> dict[int, Rational]:
    """{index: value} for the nonzero values among (index, value) pairs."""
    return {j: v for j, x in items if x and (v := rational(x))}


def _integral(row: Mapping[int, Rational]) -> tuple[int, dict[int, int]]:
    """``(m, m * row)`` for m the lcm of the row's denominators, the
    scaled row as a new dict of ints."""
    denominators = [x.denominator for x in row.values() if x.__class__ is not int]
    if not denominators:
        return 1, dict(row)
    mult = lcm(*denominators)
    return mult, {j: x * mult if x.__class__ is int else x.numerator * (mult // x.denominator) for j, x in row.items()}


def _primitive(entries: Mapping[int, Rational]) -> dict[int, int]:
    """The primitive integer multiple of a sparse vector, first entry positive."""
    if not entries:
        return {}
    _, ints = _integral(entries)
    content = gcd(*ints.values())
    if ints[min(ints)] < 0:
        content = -content
    return {j: x // content for j, x in ints.items()}


def primitive(vec: Iterable[Scalar]) -> tuple[int, ...]:
    """Rescale a rational vector to a primitive integer vector.

    Clears denominators, divides by the content (gcd of the entries) and
    flips the sign so the first nonzero entry is positive.  The zero
    vector is returned as zeros.
    """
    v = list(vec)
    p = _primitive(_nonzeros(enumerate(v)))
    return tuple(p.get(j, 0) for j in range(len(v)))


class RatMatrix:
    """Immutable sparse matrix of rationals.

    Row i is a dict {column: nonzero value} with its columns in
    ascending order; every constructor and operation keeps that order.
    A value is an ``int`` when it is an integer and a ``Fraction`` with
    denominator > 1 otherwise.  The fraction-free elimination runs on
    first use of a rank, pivot or basis method and is kept; the RREF
    back-substitution runs on first use of ``rref``, ``kernel_basis`` or
    ``row_basis`` and is kept too.
    """

    __slots__ = ("rows", "cols", "_entries", "_elim", "_echelon")

    def __init__(self, rows: int, cols: int, entries: Sequence[dict[int, Rational]]):
        """Take ``entries`` as is: one dict per row, as the class stores it.

        ``from_entries`` accepts any values and drops zeros.
        """
        if rows < 0 or cols < 0 or len(entries) != rows:
            raise ValueError(f"bad shape: {rows}x{cols} with {len(entries)} rows of entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "_elim", None)
        object.__setattr__(self, "_echelon", None)

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

    def at(self, i: int, j: int) -> Rational:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i].get(j, 0)

    def row(self, i: int) -> tuple[Rational, ...]:
        d = self._entries[i]
        return tuple(d.get(j, 0) for j in range(self.cols))

    def column(self, j: int) -> tuple[Rational, ...]:
        return tuple(d.get(j, 0) for d in self._entries)

    def entries(self, i: int) -> dict[int, Rational]:
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
        # __init__ takes a row dict as given, so equal rows may list their columns in another order
        return hash((self.rows, self.cols, tuple(frozenset(d.items()) for d in self._entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------

    def transpose(self) -> "RatMatrix":
        out: list[dict[int, Rational]] = [{} for _ in range(self.cols)]
        for i, d in enumerate(self._entries):
            for j, x in d.items():
                out[j][i] = x
        return RatMatrix(self.cols, self.rows, out)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for d in self._entries:
            acc: dict[int, Rational] = {}
            for k, a in d.items():
                for j, b in other._entries[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: rational(x) for j, x in sorted(acc.items()) if x})
        return RatMatrix(self.rows, other.cols, out)

    def mul_vec(self, vec: Sequence[Scalar]) -> tuple[Rational, ...]:
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.rows}x{self.cols}")
        v = [rational(x) for x in vec]
        return tuple(rational(sum(a * v[j] for j, a in d.items())) for d in self._entries)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return RatMatrix(self.rows + other.rows, self.cols, list(self._entries + other._entries))

    # -- elimination -------------------------------------------------

    def _eliminate(self) -> tuple:
        """The one fraction-free forward pass, which every elimination method reads.

        Returns ``(pivot columns, row-rank profile, reduced rows, records)``.
        Each row is scaled to integers by the lcm of its denominators and
        reduced, in order, against the independent rows before it (the
        profile): while it has an entry x at the lead (first nonzero
        column) of a reduced profile row P with lead value p, it becomes
        ``a*row - b*P`` with ``a = p/g``, ``b = x/g``, ``g = gcd(p, x)``.
        A row left nonzero is divided by its content and joins the
        profile.  ``records`` keeps, per profile row, (scale, steps,
        content) and, per row that reduced to zero, (row, scale, steps),
        where steps lists the (profile position, a, b) of each update.
        """
        reduced: list[dict[int, int]] = []  # per profile row, its reduced row over its content
        profile: list[int] = []  # original index of each profile row
        kept: list[tuple[int, list, int]] = []  # (scale, steps, content) per profile row
        dependent: list[tuple[int, int, list]] = []  # (row, scale, steps) per zero row
        lead_of: dict[int, int] = {}  # lead of a reduced profile row -> its position
        for i, row in enumerate(self._entries):
            scale, vec = _integral(row)
            steps = []
            while (lead := min((j for j in vec if j in lead_of), default=None)) is not None:
                k = lead_of[lead]
                piv = reduced[k]
                p, x = piv[lead], vec[lead]
                g = gcd(p, x)
                a, b = p // g, x // g
                row_update(vec, a, b, piv)
                steps.append((k, a, b))
            if vec:
                content = divide_content(vec)
                lead_of[min(vec)] = len(reduced)
                reduced.append(vec)
                profile.append(i)
                kept.append((scale, steps, content))
            else:
                dependent.append((i, scale, steps))
        return tuple(sorted(lead_of)), tuple(profile), reduced, (kept, dependent)

    def _elimination(self) -> tuple:
        if self._elim is None:
            object.__setattr__(self, "_elim", self._eliminate())
        return self._elim

    def _back_substitute(self) -> list[dict[int, int]]:
        """The RREF rows, in pivot order, each as its primitive integer
        multiple with a positive lead.

        From the latest profile row to the first, a reduced row has
        entries only at the leads of later profile rows, which are done;
        each is cleared fraction-free against that row's result, and the
        row is made primitive.
        """
        pivots, _, reduced, _ = self._elimination()
        lead_of = {min(vec): k for k, vec in enumerate(reduced)}
        done: list[dict[int, int]] = [{} for _ in reduced]
        for k in range(len(reduced) - 1, -1, -1):
            vec = dict(reduced[k])
            lead = min(vec)
            for j in [j for j in vec if j != lead and j in lead_of]:
                src = done[lead_of[j]]
                p, x = src[j], vec[j]
                g = gcd(p, x)
                row_update(vec, p // g, x // g, src)
            done[k] = dict(sorted(_primitive(vec).items()))
        return [done[lead_of[c]] for c in pivots]

    def _echelon_rows(self) -> list[dict[int, int]]:
        if self._echelon is None:
            object.__setattr__(self, "_echelon", self._back_substitute())
        return self._echelon

    # no caller in src/: kept while bench/tracer.py patches it by name, as
    # with nondegen.symbolic_jacobian_f
    def rref(self) -> tuple["RatMatrix", tuple[int, ...], int]:
        """Reduced row echelon form: ``(R, pivot_columns, rank)``, with the
        RREF rows first in ``R`` and zero rows after them."""
        pivots = self.pivot_columns()
        entries = [
            {j: quotient(x, row[c]) for j, x in row.items()} for row, c in zip(self._echelon_rows(), pivots)
        ]
        entries += [{} for _ in range(self.rows - len(pivots))]
        return RatMatrix(self.rows, self.cols, entries), pivots, len(pivots)

    def rank(self) -> int:
        return len(self._elimination()[0])

    def pivot_columns(self) -> tuple[int, ...]:
        """The columns of the RREF's leading ones, ascending."""
        return self._elimination()[0]

    def kernel_basis(self) -> "RatMatrix":
        """Basis of the right kernel, one primitive integer vector per column.

        The returned matrix ``K`` is ``cols x (cols - rank)`` and satisfies
        ``self @ K == 0`` exactly.  Column t is the primitive multiple of
        the vector that is 1 at the t-th free column, 0 at the other free
        columns and solves the RREF at the pivot columns.
        """
        pivots = self.pivot_columns()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        # free column -> (pivot column, lead value, entry) of each RREF row that meets it
        meets: dict[int, list[tuple[int, int, int]]] = {c: [] for c in free}
        for row, pc in zip(self._echelon_rows(), pivots):
            d = row[pc]
            for j, x in row.items():
                if j != pc:
                    meets[j].append((pc, d, x))
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for t, fc in enumerate(free):
            mult = lcm(*(d for _, d, _ in meets[fc]))
            v = {fc: mult}
            for pc, d, x in meets[fc]:
                v[pc] = -x * (mult // d)
            for j, x in _primitive(v).items():
                out[j][t] = x
        return RatMatrix(self.cols, len(free), out)

    def row_basis(self) -> "RatMatrix":
        """Row-space basis: the RREF rows rescaled to primitive integers.

        The result has full row rank equal to ``rank(self)`` and the same
        row space as ``self``.
        """
        echelon = self._echelon_rows()
        return RatMatrix(len(echelon), self.cols, list(echelon))

    def left_kernel_basis(self) -> "RatMatrix":
        """Basis of the left kernel as primitive integer rows.

        The result ``K`` is ``(rows - rank) x rows`` with ``K @ self == 0``.
        A row outside the row-rank profile reduced to zero, so it is a
        combination of the profile rows before it; unwinding the recorded
        integer pairs gives that combination, the one left-kernel vector
        that is nonzero at the row and 0 at the other rows outside the
        profile, and its primitive multiple becomes a basis row.
        """
        _, profile, _, (kept, dependent) = self._elimination()
        out = []
        for i, scale, steps in dependent:
            # invariant: sum comb[j] * row_j - sum mult[k] * reduced_k = 0
            alpha, mult = _accumulate(scale, steps)
            comb = {i: alpha}
            for k in range(max(mult, default=-1), -1, -1):
                beta = mult.pop(k, 0)
                if not beta:
                    continue
                # content_k * reduced_k = alpha_k * row_(profile k) - sum beta_k[m] * reduced_m
                scale_k, steps_k, content_k = kept[k]
                alpha_k, mult_k = _accumulate(scale_k, steps_k)
                g = gcd(beta, content_k)
                if content_k != g:
                    c = content_k // g
                    comb = {j: x * c for j, x in comb.items()}
                    mult = {m: x * c for m, x in mult.items()}
                beta //= g
                comb[profile[k]] = -beta * alpha_k
                for m, x in mult_k.items():
                    mult[m] = mult.get(m, 0) - beta * x
            out.append(dict(sorted(_primitive(comb).items())))
        return RatMatrix(len(out), self.rows, out)


def _accumulate(scale: int, steps: list[tuple[int, int, int]]) -> tuple[int, dict[int, int]]:
    """(alpha, beta) with alpha * row - sum beta[k] * reduced_k equal to the
    row's reduced vector (before its content is divided out), from the
    row's scale and its (profile position, a, b) steps."""
    f = 1
    beta: dict[int, int] = {}
    for k, a, b in reversed(steps):
        beta[k] = b * f
        f *= a
    return f * scale, beta


def row_update(target: dict, a: int, b: int, source: dict) -> None:
    """target <- a * target - b * source on sparse rows, dropping the entries that cancel."""
    if a != 1:
        for j in target:
            target[j] *= a
    for j, x in source.items():
        y = target.get(j, 0) - b * x
        if y:
            target[j] = y
        else:
            del target[j]


def divide_content(row: dict[int, int]) -> int:
    """Divide a nonzero int row by its content (the gcd of its entries) in place; return the content."""
    content = gcd(*row.values())
    if content != 1:
        for j in row:
            row[j] //= content
    return content


def basis_mod_p(rows: Sequence[Mapping[int, Rational]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(R, C)``: a nonsingular submatrix modulo ``MODULUS`` of a matrix
    given as sparse rows, of size the rank modulo p.

    Each row is a dict {column: int or Fraction}; it is first scaled by
    the lcm of its denominators.  The rows are then reduced in order,
    each against the earlier independent rows whose lead (first nonzero
    column) it meets, until its own lead is new or nothing is left, so
    the work follows the nonzeros.  R is the rows that added a new lead,
    in order, and C the leads, ascending.  The scaled rows are integers,
    so a determinant of ``A[R, C]`` nonzero modulo p is nonzero over Q:
    ``A[R, C]`` is nonsingular, and ``len(R)`` never exceeds the rational
    rank.
    """
    p = MODULUS
    leads: dict[int, tuple[dict[int, int], int]] = {}  # lead -> (reduced row, inverse of its lead)
    basis_rows = []
    for i, row in enumerate(rows):
        vec = {j: y for j, x in _integral(row)[1].items() if (y := x % p)}
        while vec:
            lead = min(vec)
            if lead not in leads:
                leads[lead] = (vec, pow(vec[lead], -1, p))
                basis_rows.append(i)
                break
            piv, inv = leads[lead]
            f = vec[lead] * inv % p
            for j, x in piv.items():
                y = (vec.get(j, 0) - f * x) % p
                if y:
                    vec[j] = y
                else:
                    del vec[j]
    return tuple(basis_rows), tuple(sorted(leads))
