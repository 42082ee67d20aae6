"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary-precision, always in lowest terms
with positive denominator, zero is 0/1), so every rank, kernel and inverse
below is exact.  Matrices are dense; elimination runs on sparse rows of ints
and pivots on the first nonzero entry in column order.  Kernel bases come
from the reduced row echelon parametrization with each free variable set to
1 in column order, which makes all outputs reproducible.

Every elimination reads the matrix's one integer table (`_int_columns`,
which `multilin._int_table` reads too).  `Matrix._reduced` lays the tables
of a matrix and of the blocks beside it side by side, at one scale, as
`{column: int}` rows and reduces them by one exact fraction-free
Gauss-Jordan elimination over Python ints (`_integer_rref`); `rank`, like
`liealg.ce_cohomology_dims`, counts the rows it keeps of the table's
columns.  Each new row is reduced in a sparse `{column: int}` accumulator,
so its cost follows the nonzeros it meets, not the width of the matrix.
Every kept row stays primitive, with a positive pivot and zeros in the
other kept rows' pivot columns, so it is the reduced row of the rational
form times its pivot; dividing it by the pivot gives that row.  Every step
is exact, so no result rests on a probabilistic argument.

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


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix of exact rationals, row-major.

    `_ints` holds the integer table `_int_columns` builds of the matrix as
    a linear map, on first use (a matrix `multilin.tabulate` returns carries
    the one it built from its integer sums); it takes no part in `==` or
    `hash`.
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
        pivot columns.  The rows are reduced by `_reduced`.
        """
        reduced = self._reduced()
        pivots = tuple(sorted(reduced))
        entries = [ZERO] * (self.rows * self.cols)
        for r, c in enumerate(pivots):
            for k, x in reduced[c].items():
                entries[r * self.cols + k] = x
        return Matrix._of(self.rows, self.cols, entries), pivots

    def rank(self) -> int:
        """The count of rows `_integer_rref` keeps of the columns of the integer table, no Fraction formed."""
        return len(_integer_rref(_int_columns(self)[0].values()))

    def nullity(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list[Vector]:
        """Basis of the null space, one vector per free column in column order."""
        reduced = self._reduced()
        vectors = {j: [ZERO] * self.cols for j in range(self.cols) if j not in reduced}
        for j, v in vectors.items():
            v[j] = ONE
        for c, row in reduced.items():
            for k, x in row.items():
                if k != c:
                    vectors[k][c] = -x
        return [tuple(v) for v in vectors.values()]

    def invert(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        reduced = self._reduced(Matrix.identity(n))
        rank = sum(1 for c in reduced if c < n)
        if rank < n:
            raise SingularMatrix(f"rank {rank} < {n}")
        return Matrix._of(n, n, [reduced[i].get(n + j, ZERO) for i in range(n) for j in range(n)])

    def solve(self, b: Sequence[ScalarLike]) -> Vector | None:
        """One exact solution of self @ x = b, or None when inconsistent.

        The returned solution has every free variable set to 0.
        """
        if len(b) != self.rows:
            raise DimensionMismatch("right-hand side length mismatch")
        reduced = self._reduced(Matrix(self.rows, 1, b))
        if self.cols in reduced:
            return None
        x = [ZERO] * self.cols
        for c, row in reduced.items():
            x[c] = row.get(self.cols, ZERO)
        return tuple(x)

    def _reduced(self, *beside: "Matrix") -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form of self with the blocks `beside` (as many rows) to its
        right, each row keyed by its pivot column and divided by its pivot.  The blocks' tables
        are brought to the lcm of their scales and laid side by side as fresh `{column: int}`
        rows for `_integer_rref`; the form is unique, so the order of the rows does not show.
        """
        tables = [_int_columns(m) for m in (self, *beside)]
        scale = math.lcm(*(s for _, s, _, _ in tables))
        rows: dict[int, dict[int, int]] = {}
        offset = 0
        for table, s, (width,), _ in tables:
            f = scale // s
            for j, column in table.items():
                for i, x in column.items():
                    rows.setdefault(i, {})[offset + j] = f * x
            offset += width
        reduced = {}
        for c, row in _integer_rref(rows.values()).items():
            pivot, quotients = row[c], {}  # entries repeat within a row
            out = reduced[c] = {}
            for k, x in row.items():
                q = quotients.get(x)
                if q is None:
                    q = quotients[x] = Fraction(x, pivot)
                out[k] = q
        return reduced


def _int_columns(m: Matrix) -> tuple[dict[int, dict[int, int]], int, tuple[int], int]:
    """The integer table of a matrix, {column: {row: nonzero int}} with every entry times the
    scale (the lcm of the denominators), then that scale, (cols,) and rows: scanned once and
    kept on the matrix (its `_ints`), unless `multilin._from_table` put it there.  Nothing
    writes to a table column, so `multilin._int_table` and every elimination share it.
    """
    cached = m._ints
    if cached is None:
        width, table = m.cols, {}
        nonzero = [(idx, x) for idx, x in enumerate(m.entries) if x]
        scale = math.lcm(*{x.denominator for _, x in nonzero})
        for idx, x in nonzero:
            row, col = divmod(idx, width)
            column = table.get(col)
            if column is None:
                column = table[col] = {}
            column[row] = x.numerator * (scale // x.denominator)
        cached = table, scale, (width,), m.rows
        object.__setattr__(m, "_ints", cached)
    return cached


def sparse_row(v: Sequence[Fraction]) -> dict[int, Fraction]:
    """The nonzero entries of a vector, keyed by position."""
    return {c: x for c, x in enumerate(v) if x}


def _integer_rref(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced row echelon form over Z: each row primitive, keyed by its pivot column.

    Each row is a `{column: nonzero int}` dict, and the rows are taken
    sparsest first, which keeps the kept rows sparse for longer.  Every kept
    row is primitive (the gcd of its entries is 1), has a positive pivot and
    is zero in every other kept row's pivot column, so it is the reduced row
    of the rational form times its pivot.  A new row is reduced in a sparse
    `{column: int}` accumulator, which holds only the columns the row and
    the kept rows it hits reach: it is scaled once by the lcm D of the
    pivots p_c of the kept rows it hits, and (row[c] * D / p_c) * kept[c] is
    subtracted for each hit column c.  Kept rows are zero in each other's
    pivot columns, so no subtraction changes another hit entry.  What is
    left is divided by its content and by the sign of its pivot, and its
    pivot column is cleared out of the kept rows the same way.  No kept row
    is changed in place (each clearing builds a new one), so a caller's row
    may be kept as it is.  Every step is exact.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        hits = [c for c in row if c in kept]
        if hits:
            scale = 1
            for c in hits:
                scale = math.lcm(scale, kept[c][c])
            acc = {k: x * scale for k, x in row.items()}
            for c in hits:
                other = kept[c]
                f = row[c] * scale // other[c]
                for k, y in other.items():
                    x = acc.get(k, 0) - f * y
                    if x:
                        acc[k] = x
                    else:
                        del acc[k]
            row = acc
        if not row:
            continue
        lead = min(row)
        new = _primitive(row, row[lead])
        pivot = new[lead]
        for c, other in kept.items():
            f = other.get(lead)
            if f is not None:
                g = math.gcd(pivot, f)
                a, b = pivot // g, f // g
                merged = {k: a * x for k, x in other.items()}
                for k, y in new.items():
                    x = merged.get(k, 0) - b * y
                    if x:
                        merged[k] = x
                    else:
                        del merged[k]
                kept[c] = _primitive(merged, merged[c])
        kept[lead] = new
    return kept


def _primitive(row: dict[int, int], pivot: int) -> dict[int, int]:
    """The row divided by the gcd of its entries, and negated when its `pivot` entry is negative."""
    g = math.gcd(*row.values())
    if pivot < 0:
        g = -g
    if g == 1:
        return row
    return {k: x // g for k, x in row.items()}


def permutation_sign(word: Sequence[int]) -> int:
    """Parity of a permutation given in word form (image sequence)."""
    sign = 1
    for i, j in itertools.combinations(range(len(word)), 2):
        if word[i] > word[j]:
            sign = -sign
    return sign
