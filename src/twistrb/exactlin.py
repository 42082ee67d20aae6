"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary-precision, always in lowest terms
with positive denominator, zero is 0/1), so every rank, kernel and inverse
below is exact.  Matrices are dense; elimination runs on sparse rows of ints
or Fractions (`rref_rows`) and pivots on the first nonzero entry in column
order.  Kernel bases come from the reduced row echelon parametrization with
each free variable set to 1 in column order, which makes all outputs
reproducible.

`rref_rows`, behind `Matrix.rref`, takes a certified modular route first.  It
clears the denominators of each row that has any, eliminates the integer rows
modulo the prime p = 2^61 - 1, lifts every entry of the reduced form back to
a rational by rational reconstruction, and then checks over Z that every row
of the matrix is the combination of the lifted rows given by its own
pivot-column entries.  The rank modulo p is a lower bound for the rank over
Q, and the check puts every row in the span of the lifted rows, so it is an
upper bound too; the lifted rows are then the reduced row echelon form over
Q, which is unique.  When a lift or the check fails, the rows go through
`RowSpace`, the Fraction elimination, instead.  No result ever rests on a
probabilistic argument.  `RowSpace` also serves callers that feed vectors
one at a time.

No floating point anywhere.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, SingularMatrix

Scalar = Fraction
Vector = tuple[Fraction, ...]

ScalarLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

# The modulus of the certified route of `Matrix.rref`, and the bound on the
# numerators and denominators that rational reconstruction recovers: any two
# fractions within it are distinct modulo the prime, since 2 * bound^2 < prime.
_PRIME = (1 << 61) - 1
_BOUND = math.isqrt(_PRIME // 2)


def scalar(x: ScalarLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def scalar_str(x: Fraction) -> str:
    """Render in lowest terms, omitting the denominator when it is 1.

    This is the one renderer of exact scalars in reports and documents; it
    writes integers of any length (`_int_str`).
    """
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


# `str` refuses an int of more than 4,300 digits (Python's int-string limit, at
# least 640 when lowered), so longer ones are written 600 digits at a time.
# The limit is left in place: input parsing relies on it to refuse long literals.
_CHUNK = 10**600


def _int_str(n: int) -> str:
    """n in decimal, whatever its length."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0600d}")
    return sign + str(n) + "".join(reversed(chunks))


def vector(entries: Iterable[ScalarLike]) -> Vector:
    return tuple(scalar(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix of exact rationals, row-major.

    `_ints` holds the integer table `multilin._int_table` builds of the
    matrix as a linear map, on first use; it takes no part in `==` or `hash`.
    """

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, rows: int, cols: int, entries: Sequence[ScalarLike]):
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(scalar(e) for e in entries))
        object.__setattr__(self, "_ints", None)

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Sequence[Fraction]) -> "Matrix":
        """A result whose `rows * cols` entries are Fractions already: no coercion, no check."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple(entries))
        object.__setattr__(m, "_ints", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[ScalarLike]], rows: int | None = None) -> "Matrix":
        if not cols:
            if rows is None:
                raise DimensionMismatch("cannot infer row count of an empty column list")
            return cls(rows, 0, [])
        r = len(cols[0])
        if any(len(col) != r for col in cols):
            raise DimensionMismatch("ragged columns")
        return cls(r, len(cols), [cols[j][i] for i in range(r) for j in range(len(cols))])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(scalar_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c: ScalarLike) -> "Matrix":
        c = scalar(c)
        return Matrix._of(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product accumulates a_ik * (row k of other) over nonzero a_ik."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        width = other.cols
        other_rows = [sparse_row(other.row(k)).items() for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [ZERO] * width
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in other_rows[k]:
                        acc[j] += a * b
            out.extend(acc)
        return Matrix._of(self.rows, width, out)

    def apply(self, v: Sequence[ScalarLike]) -> Vector:
        """self @ v, visiting only the columns where v is nonzero."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} matrix applied to length-{len(v)} vector")
        width, entries = self.cols, self.entries
        out = [ZERO] * self.rows
        for k, c in enumerate(vector(v)):
            if c:
                for i in range(self.rows):
                    x = entries[i * width + k]
                    if x:
                        out[i] += c * x
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_skew(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == -self[j, i] for i in range(self.rows) for j in range(i, self.cols)
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return Matrix._of(self.rows, self.cols + other.cols, ent)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        The pivot of each row is its first nonzero entry in column order;
        pivot rows are scaled to pivot 1 and every other row is cleared in the
        pivot columns.  The rows are reduced by `rref_rows`.
        """
        reduced = rref_rows((sparse_row(self.row(i)) for i in range(self.rows)), self.cols)
        pivots = tuple(sorted(reduced))
        entries = [ZERO] * (self.rows * self.cols)
        for r, c in enumerate(pivots):
            for k, x in reduced[c].items():
                entries[r * self.cols + k] = x
        return Matrix._of(self.rows, self.cols, entries), pivots

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list[Vector]:
        """Basis of the null space, one vector per free column in column order."""
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [basis_vector(self.cols, j) for j in range(self.cols)]
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [ZERO] * self.cols
            v[free] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red[r, free]
            basis.append(tuple(v))
        return basis

    def invert(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        aug, pivots = self.hstack(Matrix.identity(n)).rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            raise SingularMatrix(f"rank {self.rank()} < {n}")
        return Matrix._of(n, n, [aug[i, n + j] for i in range(n) for j in range(n)])

    def solve(self, b: Sequence[ScalarLike]) -> Vector | None:
        """One exact solution of self @ x = b, or None when inconsistent.

        The returned solution has every free variable set to 0.
        """
        if len(b) != self.rows:
            raise DimensionMismatch("right-hand side length mismatch")
        if self.cols == 0:
            return () if vec_is_zero(vector(b)) else None
        rhs = Matrix(self.rows, 1, vector(b))
        aug, pivots = self.hstack(rhs).rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = aug[r, self.cols]
        return tuple(x)


def rref_rows(rows: Iterable[dict[int, int | Fraction]], width: int) -> dict[int, dict[int, Fraction]]:
    """The reduced row echelon form of sparse rows, each row keyed by its pivot column.

    Each row is a `{column: nonzero int or Fraction}` dict of a matrix with
    `width` columns.  The rows are taken sparsest first, which keeps the kept
    rows sparse for longer, by the certified modular route, and by `RowSpace`
    when that route cannot certify its result.  The form is unique, so
    neither the route nor the order shows in it.  `Matrix.rref` and the
    ranks of `liealg.ce_cohomology_dims` both come from here.
    """
    rows = sorted(rows, key=len)
    reduced = _certified_rref(rows, width)
    if reduced is None:
        space = RowSpace()
        for row in rows:
            space.add({c: Fraction(x) for c, x in row.items()})
        reduced = space.rows
    return reduced


def sparse_row(v: Sequence[Fraction]) -> dict[int, Fraction]:
    """The nonzero entries of a vector, keyed by position."""
    return {c: x for c, x in enumerate(v) if x}


class RowSpace:
    """A row space kept in reduced row echelon form, one sparse row at a time.

    Rows are `{column: Fraction}` dicts keyed by the column of their leading
    1, and every kept row is zero in the other rows' leading columns.
    `rref_rows` feeds it the rows of a matrix when the modular route cannot
    certify its result, and callers that ask whether a vector lies in the span
    of earlier ones feed it vectors one at a time.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def add(self, row: dict[int, Fraction]) -> bool:
        """Reduce `row` (consumed) by the kept rows; keep what is left, if anything.

        A kept row is zero in every other pivot column, so clearing one pivot
        column of `row` never refills another.  A new pivot row is then
        cleared out of the kept rows, which keeps the form reduced.
        """
        rows = self.rows
        for c in [c for c in row if c in rows]:
            _axpy(row, -row.pop(c), rows[c], c)
        if not row:
            return False
        lead = min(row)
        pv = row[lead]
        if pv != 1:
            row = {k: x / pv for k, x in row.items()}
        for kept in rows.values():
            f = kept.pop(lead, None)
            if f is not None:
                _axpy(kept, -f, row, lead)
        rows[lead] = row
        return True


def _axpy(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction], skip: int) -> None:
    """row += f * other in place, leaving out column `skip` and dropping zeros."""
    for k, y in other.items():
        if k == skip:
            continue
        new = row.get(k, ZERO) + f * y
        if new:
            row[k] = new
        else:
            row.pop(k, None)


def _certified_rref(rows: list[dict[int, int | Fraction]], width: int) -> dict[int, dict[int, Fraction]] | None:
    """The reduced rows keyed by pivot column, or None when they cannot be certified.

    Each row holding a Fraction is cleared to integers, and the rows are
    eliminated modulo the prime in the order given.  Each entry of the
    reduced rows is lifted to the rational with numerator and denominator at
    most the bound that has that residue, and the lifted rows R_c are scaled
    to integers by the lcm L of their denominators.  The result is returned only when every integer row
    A_i satisfies L * A_i = sum over pivot columns c of A_i[c] * (L * R_c).
    A new row is reduced in a dense list of plain ints and taken modulo the
    prime once; the kept rows stay reduced modulo the prime.
    """
    prime, bound = _PRIME, _BOUND
    integer_rows = [_integer_row(row) for row in rows]
    kept: dict[int, dict[int, int]] = {}  # leading 1 left out
    for row in integer_rows:
        residues = {c: r for c, x in row.items() if (r := x % prime)}
        hits = [c for c in residues if c in kept]
        if hits:
            acc = [0] * width
            for c, x in residues.items():
                acc[c] = x
            for c in hits:
                f = acc[c]
                acc[c] = 0
                for k, y in kept[c].items():
                    acc[k] -= f * y
            residues = {k: r for k, x in enumerate(acc) if x and (r := x % prime)}
        if not residues:
            continue
        lead = min(residues)
        pivot = residues.pop(lead)
        if pivot == 1:
            new = residues
        else:
            inverse = pow(pivot, -1, prime)
            new = {k: x * inverse % prime for k, x in residues.items()}
        for other in kept.values():
            f = other.pop(lead, None)
            if f is not None:
                _axpy_mod(other, f, new, prime)
        kept[lead] = new
    reduced: dict[int, dict[int, Fraction]] = {}
    lifts: dict[int, Fraction] = {}  # entries repeat, so each residue is lifted once
    lcm = 1
    for c, residues in kept.items():
        row = reduced[c] = {c: ONE}
        for k, x in residues.items():
            q = lifts.get(x)
            if q is None:
                q = lifts[x] = _reconstruct(x, prime, bound)
                if q is None:
                    return None
            row[k] = q
            if q.denominator != 1:
                lcm = math.lcm(lcm, q.denominator)
    scaled = {c: [(k, x.numerator * (lcm // x.denominator)) for k, x in row.items()] for c, row in reduced.items()}
    for row in integer_rows:
        acc = [0] * width
        for c, a in row.items():
            acc[c] -= lcm * a
            for k, y in scaled.get(c, ()):
                acc[k] += a * y
        if any(acc):
            return None
    return reduced


def _integer_row(row: dict[int, int | Fraction]) -> dict[int, int]:
    """The row times the lcm of its denominators; a row of ints as it is."""
    if all(type(x) is int for x in row.values()):
        return row
    lcm = 1
    for x in row.values():
        if x.denominator != 1:
            lcm = math.lcm(lcm, x.denominator)
    if lcm == 1:
        return {c: x.numerator for c, x in row.items()}
    return {c: x.numerator * (lcm // x.denominator) for c, x in row.items()}


def _axpy_mod(row: dict[int, int], f: int, other: dict[int, int], prime: int) -> None:
    """row -= f * other modulo the prime, in place, dropping zeros."""
    for k, y in other.items():
        x = (row.get(k, 0) - f * y) % prime
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def _reconstruct(x: int, prime: int, bound: int) -> Fraction | None:
    """The fraction n/d with |n|, |d| <= bound and n = d * x modulo the prime, if any.

    Residues within the bound of 0 or of the prime are integers; any other
    residue runs the extended Euclidean algorithm on (prime, x) until the
    remainder falls within the bound (Wang's rational reconstruction).
    """
    if x <= bound:
        return Fraction(x)
    if x >= prime - bound:
        return Fraction(x - prime)
    r0, r1, s0, s1 = prime, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def permutation_sign(word: Sequence[int]) -> int:
    """Parity of a permutation given in word form (image sequence)."""
    sign = 1
    for i, j in itertools.combinations(range(len(word)), 2):
        if word[i] > word[j]:
            sign = -sign
    return sign
