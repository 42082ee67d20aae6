"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary-precision, always in lowest terms
with positive denominator, zero is 0/1), so every rank, kernel and inverse
below is exact.  A Matrix, a frozen slotted dataclass, stores one integer
column table over one scale (`_from_table`, the one constructor from a
table, normalizes it); its Fraction entries are derived on demand.  Exact
scalars come in through `_from_scalars`, which takes a table of ints and
Fractions and keeps the ints as they are.  Arithmetic and elimination run on
the tables, over Python ints, and pivot on the first nonzero entry in
column order.  Kernel bases come from the reduced row echelon
parametrization with each free variable set to 1 in column order, which
makes all outputs reproducible.

`Matrix._reduced` lays the tables of a matrix and of the blocks beside it
side by side, at one scale, as `{column: int}` rows and reduces them by one
exact fraction-free Gauss-Jordan elimination (`_integer_rref`); `rank`,
like `liealg.ce_cohomology_dims`, counts the rows it keeps of the table's
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
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True, init=False)
class Matrix:
    """Immutable matrix of exact rationals: its integer column table `_table` over `_scale`.

    The table is {column: {row: nonzero int}} with no empty column, each
    entry the rational entry times the scale, the lcm of the entries'
    denominators (1 for a zero matrix).  That form is unique, so `==` and
    `hash` compare it directly, the scale before the table (`hash` is written
    out, as the table is a dict).  No table column is ever written to, so
    `multilin._int_table` and every elimination read it as it is, and a
    derived map may share its columns.
    """

    rows: int
    cols: int
    _scale: int
    _table: dict[int, dict[int, int]]

    def __new__(cls, rows: int, cols: int, entries: Sequence[ScalarLike]) -> "Matrix":
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"a matrix cannot be {rows}x{cols}")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        table: dict[int, dict[int, int | Fraction]] = {}
        for idx, x in _nonzero_scalars(entries).items():
            i, j = divmod(idx, cols)
            if j in table:
                table[j][i] = x
            else:
                table[j] = {i: x}
        return _from_scalars(rows, cols, table)

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
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @property
    def entries(self) -> Vector:
        """The row-major Fraction entries."""
        dense = [0] * (self.rows * self.cols)
        for j, column in self._table.items():
            for i, x in column.items():
                dense[i * self.cols + j] = x
        return _fractions(dense, self._scale)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) of a {self.rows}x{self.cols} matrix")
        x = self._table.get(j, {}).get(i)
        return Fraction(x, self._scale) if x else ZERO

    def row(self, i: int) -> Vector:
        return _fractions([self._table.get(j, {}).get(i, 0) for j in range(self.cols)], self._scale)

    def col(self, j: int) -> Vector:
        column = self._table.get(j, {})
        return _fractions([column.get(i, 0) for i in range(self.rows)], self._scale)

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __hash__(self) -> int:
        columns = frozenset((j, frozenset(column.items())) for j, column in self._table.items())
        return hash((self.rows, self.cols, self._scale, columns))

    def __reduce__(self):
        """Copies and pickles rebuild the matrix from its table, as `_from_table` builds every Matrix."""
        return _from_table, (self.rows, self.cols, self._table, self._scale)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(scalar_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        """The sum of the two tables brought to the lcm of their scales."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        scale = math.lcm(self._scale, other._scale)
        sums: dict[int, dict[int, int]] = {}
        for m in (self, other):
            f = scale // m._scale
            for j, column in m._table.items():
                out = sums.setdefault(j, {})
                for i, x in column.items():
                    out[i] = out.get(i, 0) + f * x
        return _from_table(self.rows, self.cols, _nonzero(sums), scale)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: ScalarLike) -> "Matrix":
        c = c if type(c) is int else scalar(c)
        p = c.numerator
        table = {j: {i: p * x for i, x in column.items()} for j, column in self._table.items()} if p else {}
        return _from_table(self.rows, self.cols, table, c.denominator * self._scale)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Column j of the product accumulates b_kj * (column k of self) over nonzero b_kj."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        sums: dict[int, dict[int, int]] = {}
        for j, column in other._table.items():
            out = sums[j] = {}
            for k, y in column.items():
                for i, x in self._table.get(k, {}).items():
                    out[i] = out.get(i, 0) + x * y
        return _from_table(self.rows, other.cols, _nonzero(sums), self._scale * other._scale)

    def apply(self, v: Sequence[ScalarLike]) -> Vector:
        """self @ v, visiting only the columns where v is nonzero."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} matrix applied to length-{len(v)} vector")
        v = vector(v)
        scale = math.lcm(*{c.denominator for c in v})
        out = [0] * self.rows
        for k, c in enumerate(v):
            if c:
                c = c.numerator * (scale // c.denominator)
                for i, x in self._table.get(k, {}).items():
                    out[i] += c * x
        return _fractions(out, scale * self._scale)

    def transpose(self) -> "Matrix":
        table: dict[int, dict[int, int]] = {}
        for j, column in self._table.items():
            for i, x in column.items():
                table.setdefault(i, {})[j] = x
        return _from_table(self.cols, self.rows, table, self._scale)

    def is_zero(self) -> bool:
        return not self._table

    def is_skew(self) -> bool:
        """Every nonzero entry is the negative of its mirror, so the diagonal is zero."""
        table = self._table
        return self.rows == self.cols and all(
            table.get(i, {}).get(j) == -x for j, column in table.items() for i, x in column.items()
        )

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        The pivot of each row is its first nonzero entry in column order;
        pivot rows are scaled to pivot 1 and every other row is cleared in the
        pivot columns.  The rows are reduced by `_reduced`.
        """
        reduced = self._reduced()
        return _divided(reduced, self.rows, self.cols, 0), tuple(sorted(reduced))

    def rank(self) -> int:
        """The count of rows `_integer_rref` keeps of the columns of the table, no Fraction formed."""
        return len(_integer_rref(self._table.values()))

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
                    vectors[k][c] = Fraction(-x, row[c])
        return [tuple(v) for v in vectors.values()]

    def invert(self) -> "Matrix":
        """The block beside self of the reduced form of [self | identity]."""
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        reduced = self._reduced(Matrix.identity(n))
        rank = sum(1 for c in reduced if c < n)
        if rank < n:
            raise SingularMatrix(f"rank {rank} < {n}")
        return _divided(reduced, n, n, n)

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
            x[c] = Fraction(row.get(self.cols, 0), row[c])
        return tuple(x)

    def _reduced(self, *beside: "Matrix") -> dict[int, dict[int, int]]:
        """The reduced row echelon form over Z of self with the blocks `beside` (as many rows) to
        its right, as `_integer_rref` keeps it: each row keyed by its pivot column, and dividing it
        by its pivot gives the rational row.  The blocks' tables are brought to the lcm of their
        scales and laid side by side as fresh `{column: int}` rows; the form is unique, so the
        order of the rows does not show.
        """
        scale = math.lcm(*(m._scale for m in (self, *beside)))
        rows: dict[int, dict[int, int]] = {}
        offset = 0
        for m in (self, *beside):
            f = scale // m._scale
            for j, column in m._table.items():
                for i, x in column.items():
                    rows.setdefault(i, {})[offset + j] = f * x
            offset += m.cols
        return _integer_rref(rows.values())


def _from_table(rows: int, cols: int, table: dict[int, dict[int, int]], scale: int) -> Matrix:
    """The `rows` x `cols` Matrix of an integer column table over `scale`.

    `table` is {column: {row: nonzero integer}} with no empty column, every
    entry times `scale`; its columns may be shared with another map's table,
    since none is ever written.  The entries and the scale are divided by
    their common content, which makes the scale the lcm of the entries'
    denominators, the one form a Matrix stores.  This is the one constructor
    from an integer table to a Matrix, and every Matrix is built by it.
    """
    content = scale
    for column in table.values():
        if content == 1:
            break
        content = math.gcd(content, *column.values())
    if content != 1:
        scale //= content
        table = {j: {k: x // content for k, x in column.items()} for j, column in table.items()}
    m = object.__new__(Matrix)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_scale(m, scale)
    _set_table(m, table)
    return m


# the slot descriptors' setters, which write a field of the frozen Matrix without its __setattr__
_set_rows, _set_cols, _set_scale, _set_table = (getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _nonzero_scalars(values: Iterable[ScalarLike]) -> dict[int, int | Fraction]:
    """{index: value} of the nonzero values: a column of a table for `_from_scalars`, or the
    row-major entries of a Matrix.

    An int is kept as it is; any other scalar is made a Fraction by `scalar`,
    and kept as the int it equals when its denominator is 1, so an integer
    table reaches `_from_scalars` as ints whichever way it was spelled.
    """
    column = {}
    for i, x in enumerate(values):
        if type(x) is int:
            if x:
                column[i] = x
            continue
        if type(x) is not Fraction:
            x = scalar(x)
        n, d = x.as_integer_ratio()
        if n:
            column[i] = n if d == 1 else x
    return column


def _from_scalars(rows: int, cols: int, table: dict[int, dict[int, int | Fraction]]) -> Matrix:
    """The `rows` x `cols` Matrix of a table {column: {row: nonzero int or Fraction}} with no empty column.

    An all-int table goes to `_from_table` as it is, over scale 1, so it is
    shared, not copied; otherwise the scale is the lcm of the Fractions'
    denominators and every entry is brought to it, each Fraction's numerator
    and denominator read once.  This is the one constructor from exact
    scalars: `Matrix(...)`, the instance parser, `Cochain.from_values`,
    `Bilinear.from_values` and `liealg.bracket_cochain` all build their
    table and end here.
    """
    ratios = [x.as_integer_ratio() for column in table.values() for x in column.values() if type(x) is not int]
    if not ratios:
        return _from_table(rows, cols, table, 1)
    scale = math.lcm(*{q for _, q in ratios})
    ratio = iter(ratios)  # each Fraction's (numerator, denominator), in table order
    scaled = {}
    for j, column in table.items():
        out = scaled[j] = {}
        for i, x in column.items():
            if type(x) is int:
                out[i] = x * scale
            else:
                p, q = next(ratio)
                out[i] = p * (scale // q)
    return _from_table(rows, cols, scaled, scale)


def _nonzero(sums: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The integer sums without their zero entries and empty columns."""
    return {j: kept for j, column in sums.items() if (kept := {i: x for i, x in column.items() if x})}


def _divided(reduced: dict[int, dict[int, int]], rows: int, cols: int, offset: int) -> Matrix:
    """The rows of `_integer_rref`'s `reduced`, in pivot order, each divided by its pivot and cut to
    the columns from `offset` on: a `rows` x `cols` Matrix over the lcm of the pivots."""
    scale = math.lcm(*(row[c] for c, row in reduced.items()))
    table: dict[int, dict[int, int]] = {}
    for r, c in enumerate(sorted(reduced)):
        f = scale // reduced[c][c]
        for k, x in reduced[c].items():
            if k >= offset:
                table.setdefault(k - offset, {})[r] = f * x
    return _from_table(rows, cols, table, scale)


def _quotients(sums: list[int] | dict[int, int], denominator: int, zero: Vector) -> Vector:
    """The integer sums over the denominator, in lowest terms: `zero`, the caller's one zero tuple
    of their length, when every sum is zero, so a passing case forms no Fraction.  Every defect of
    an identity check ends here, so `report.first_failure` meets that shared tuple.

    `sums` is the list of every sum (the hand-fused kernels) or a dict {index: sum} that may
    leave zero sums out (a compiled identity); the dict is made dense only for a nonzero defect.
    """
    if type(sums) is dict:
        if not any(sums.values()):
            return zero
        sums = [sums.get(k, 0) for k in range(len(zero))]
    elif not any(sums):
        return zero
    return tuple(Fraction(x, denominator) if x else ZERO for x in sums)


def _fractions(ints: list[int], scale: int) -> Vector:
    """Each integer over `scale` as a Fraction in lowest terms, each distinct one formed once."""
    seen = {0: ZERO}
    out = []
    for x in ints:
        q = seen.get(x)
        if q is None:
            q = seen[x] = Fraction(x, scale)
        out.append(q)
    return tuple(out)


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
