"""Exterior-power bookkeeping and skew multilinear maps.

A degree-p cochain from a source space of dimension n to a target of
dimension m is stored as an m x binomial(n, p) matrix whose j-th column is
the value on the j-th strictly increasing p-tuple of basis indices in
lexicographic order.  Degree 0 means a single column (a constant target
vector).  Basis indices are 0-based throughout the library; instance files
use 1-based indices and are converted at the I/O boundary.

Since source and target carry no internal grading, all Koszul signs on
arguments are trivial and unshuffle signs are plain permutation parities.

Every map an identity applies keeps one sparse integer table
(`_int_table`): a Matrix stores its own (`exactlin.Matrix`), and every
other map's is read off its matrices' tables and kept in its `_ints` field,
which the frozen dataclasses `Cochain`, `Bilinear` and `Representation`
leave out of `__init__`, `==`, `hash` and `repr`.  `tabulate`, which
evaluates signed terms on a list of cases, ends in `exactlin._from_table`,
and so does every derived map of the other modules (ad, the coadjoint
action, psi-sharp, the twisted semidirect bracket, the maps of the derived
brackets, the block operator J): each is its source maps' tables re-keyed,
with no Fraction arithmetic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionMismatch, DuplicateAssignment, IndexOutOfRange
from .exactlin import (
    Matrix,
    Vector,
    ZERO,
    _from_scalars,
    _from_table,
    _nonzero,
    _nonzero_scalars,
    _quotients,
    basis_vector,
    permutation_sign,
    vec_scale,
    vector,
    zero_vector,
)


@lru_cache(maxsize=None)
def ext_basis(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing degree-tuples of {0..dim-1}, lexicographically.

    Empty for degree < 0 or degree > dim; the single empty tuple for degree 0.
    """
    if degree < 0:
        return ()
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def _tuple_index(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(ext_basis(dim, degree))}


def sort_with_sign(t: Sequence[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, tracking the permutation sign; None on a repeat."""
    lst = list(t)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None, 0
    return tuple(lst), sign


def iter_unshuffles(blocks: Sequence[int]) -> Iterable[tuple[tuple[int, ...], int]]:
    """Yield (word, sign) for every permutation increasing on each block.

    Words are 0-based image sequences; blocks of size 0 contribute nothing,
    and any negative block size yields no unshuffles at all (empty sum).
    """
    blocks = tuple(blocks)
    if any(b < 0 for b in blocks):
        return
    n = sum(blocks)
    universe = tuple(range(n))

    def rec(remaining: tuple[int, ...], bi: int, word: tuple[int, ...], sign: int):
        if bi == len(blocks):
            yield word, sign
            return
        size = blocks[bi]
        if size == 0:
            yield from rec(remaining, bi + 1, word, sign)
            return
        for chosen in itertools.combinations(range(len(remaining)), size):
            picked = tuple(remaining[i] for i in chosen)
            chosen_set = set(chosen)
            rest = tuple(x for i, x in enumerate(remaining) if i not in chosen_set)
            # inversions introduced by moving `picked` ahead of the rest
            s = sign * (-1) ** (sum(chosen) - sum(range(size)))
            yield from rec(rest, bi + 1, word + picked, s)

    yield from rec(universe, 0, (), 1)


@dataclass(frozen=True, slots=True)
class Cochain:
    """Skew p-linear map source^p -> target, columns over the lex exterior basis.

    `repr` shows the shape only.  `_ints` holds the integer table
    `_int_table` builds of the map, on first use; it takes no part in `==` or `hash`.
    """

    degree: int
    source_dim: int
    target_dim: int
    matrix: Matrix = field(repr=False)
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = comb(self.source_dim, self.degree) if self.degree >= 0 else 0
        if self.matrix.cols != expected or self.matrix.rows != self.target_dim:
            raise DimensionMismatch(
                f"degree-{self.degree} cochain on dim {self.source_dim} needs a "
                f"{self.target_dim}x{expected} matrix, got {self.matrix.rows}x{self.matrix.cols}"
            )

    @classmethod
    def zero(cls, degree: int, source_dim: int, target_dim: int) -> "Cochain":
        cols = comb(source_dim, degree) if degree >= 0 else 0
        return cls(degree, source_dim, target_dim, Matrix.zero(target_dim, cols))

    @classmethod
    def from_values(
        cls,
        degree: int,
        source_dim: int,
        target_dim: int,
        assignments: Mapping[tuple[int, ...], Sequence],
    ) -> "Cochain":
        """Build from values on increasing basis tuples; unassigned tuples are zero.

        Rejects duplicate, non-increasing, or out-of-range tuples: callers
        must normalize before assigning.
        """
        index, width = _tuple_index(source_dim, degree), comb(source_dim, degree)
        table, seen = {}, set()
        for key, value in assignments.items():
            t = tuple(key)
            if len(t) != degree:
                raise DimensionMismatch(f"tuple {t} has length {len(t)}, expected {degree}")
            if any(i < 0 or i >= source_dim for i in t):
                raise IndexOutOfRange(f"tuple {t} out of range for dimension {source_dim}")
            if any(a >= b for a, b in zip(t, t[1:])):
                raise DuplicateAssignment(f"tuple {t} is not strictly increasing")
            if t in seen:
                raise DuplicateAssignment(f"tuple {t} assigned twice")
            seen.add(t)
            column = _nonzero_scalars(value)
            if len(value) != target_dim:
                raise DimensionMismatch(f"value for {t} has length {len(value)}, expected {target_dim}")
            if column:
                table[index[t]] = column
        return cls(degree, source_dim, target_dim, _from_scalars(target_dim, width, table))

    @classmethod
    def from_matrix_map(cls, m: Matrix) -> "Cochain":
        """A linear map as a degree-1 cochain."""
        return cls(1, m.cols, m.rows, m)

    def basis_tuples(self) -> tuple[tuple[int, ...], ...]:
        return ext_basis(self.source_dim, self.degree)

    def value_on_basis(self, t: Sequence[int]) -> Vector:
        """Value on a strictly increasing basis tuple (fast column lookup)."""
        if self.degree == 0:
            return self.matrix.col(0)
        return self.matrix.col(_tuple_index(self.source_dim, self.degree)[tuple(t)])

    def value_on_tuple(self, t: Sequence[int]) -> Vector:
        """Value on an arbitrary basis tuple, resolving sign and repeats."""
        sorted_t, sign = sort_with_sign(t)
        if sorted_t is None:
            return zero_vector(self.target_dim)
        v = self.value_on_basis(sorted_t)
        return v if sign == 1 else vec_scale(Fraction(-1), v)

    def eval_mixed(self, first, rest: Sequence[int]) -> Vector:
        """Evaluate on (vector, basis, ..., basis): `skew_eval` with unit vectors for `rest`."""
        if len(rest) + 1 != self.degree:
            raise DimensionMismatch("argument count does not match degree")
        if any(not 0 <= i < self.source_dim for i in rest):
            raise IndexOutOfRange(f"basis indices {tuple(rest)} out of range for dimension {self.source_dim}")
        return self.skew_eval([first, *(basis_vector(self.source_dim, i) for i in rest)])

    def skew_eval(self, args: Sequence[Sequence]) -> Vector:
        """Fully multilinear, skew evaluation on arbitrary coordinate vectors:
        the one signed term `self(*args)` for `term_defect`."""
        if len(args) != self.degree:
            raise DimensionMismatch(f"expected {self.degree} arguments, got {len(args)}")
        vs = [vector(a) for a in args]
        for v in vs:
            if len(v) != self.source_dim:
                raise DimensionMismatch("argument dimension mismatch")
        if self.degree == 0:
            return self.matrix.col(0)
        return term_defect([(1, (self, *vs))])()

    # -- linear structure ----------------------------------------------

    def _compatible(self, other: "Cochain") -> None:
        if (
            self.degree != other.degree
            or self.source_dim != other.source_dim
            or self.target_dim != other.target_dim
        ):
            raise DimensionMismatch("cochain shapes differ")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.degree, self.source_dim, self.target_dim, self.matrix + other.matrix)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.degree, self.source_dim, self.target_dim, self.matrix - other.matrix)

    def __neg__(self) -> "Cochain":
        return Cochain(self.degree, self.source_dim, self.target_dim, -self.matrix)

    def scale(self, c) -> "Cochain":
        return Cochain(self.degree, self.source_dim, self.target_dim, self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def vec(self) -> Vector:
        """Flatten column by column (basis tuple by basis tuple)."""
        return self.matrix.transpose().entries

    @classmethod
    def from_vec(cls, degree: int, source_dim: int, target_dim: int, flat: Sequence) -> "Cochain":
        cols = comb(source_dim, degree) if degree >= 0 else 0
        flat = vector(flat)
        if len(flat) != cols * target_dim:
            raise DimensionMismatch("flat vector length mismatch")
        columns = [flat[j * target_dim : (j + 1) * target_dim] for j in range(cols)]
        return cls(degree, source_dim, target_dim, Matrix.from_cols(columns, rows=target_dim))


@dataclass(frozen=True, slots=True)
class Bilinear:
    """A full (not necessarily skew) bilinear map source x source -> target.

    Columns run over ordered pairs (i, j) with index i * source_dim + j.
    `_ints` holds the integer table `_int_table` builds of the map, on first
    use; it takes no part in `==`, `hash` or `repr`.
    """

    source_dim: int
    target_dim: int
    matrix: Matrix
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.cols != self.source_dim * self.source_dim or self.matrix.rows != self.target_dim:
            raise DimensionMismatch("bilinear table shape mismatch")

    @classmethod
    def zero(cls, source_dim: int, target_dim: int) -> "Bilinear":
        return cls(source_dim, target_dim, Matrix.zero(target_dim, source_dim * source_dim))

    @classmethod
    def from_values(
        cls, source_dim: int, target_dim: int, assignments: Mapping[tuple[int, int], Sequence]
    ) -> "Bilinear":
        table, seen = {}, set()
        for (i, j), value in assignments.items():
            if not (0 <= i < source_dim and 0 <= j < source_dim):
                raise IndexOutOfRange(f"pair ({i},{j}) out of range")
            if (i, j) in seen:
                raise DuplicateAssignment(f"pair ({i},{j}) assigned twice")
            seen.add((i, j))
            column = _nonzero_scalars(value)
            if len(value) != target_dim:
                raise DimensionMismatch("value length mismatch")
            if column:
                table[i * source_dim + j] = column
        return cls(source_dim, target_dim, _from_scalars(target_dim, source_dim * source_dim, table))

    def value_on_basis(self, i: int, j: int) -> Vector:
        return self.matrix.col(i * self.source_dim + j)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


# -- identities as signed terms ------------------------------------------


@lru_cache(maxsize=None)
def _orderings(dim: int, degree: int) -> tuple[tuple[tuple, int], ...]:
    """For each ordering of `degree` slots, the basis tuples so reordered and its sign.

    A degree-1 key is the index itself, as for a Matrix.
    """
    basis = ext_basis(dim, degree)
    return tuple(
        (tuple(map(itemgetter(*word), basis)), permutation_sign(word))
        for word in itertools.permutations(range(degree))
    )


def _int_table(op) -> tuple[dict, int, tuple[int, ...], int]:
    """The sparse integer table of a map: {argument index or index tuple: {output index: integer
    coefficient}}, each coefficient times the table's scale (the lcm of the map's denominators),
    then that scale, the map's argument dimensions and its target dimension.

    `op` is a Matrix (linear), a Bilinear, a Representation (liealg), where
    the pair (x, u) maps to rho(e_x) e_u, or a Cochain of degree p >= 1: its
    matrix as a linear map for p = 1, and for p >= 2 every ordering of each
    basis tuple, signed by its permutation.  A degree-0 cochain is a
    constant, not a map.  Zero coefficients are left out.

    A Matrix's table is the one it stores; every other map's table is read
    off its matrices' tables: a positive ordering of a cochain shares its
    matrix's column dicts, a negative one a negated copy of each, and the
    actions of a Representation are brought to the lcm of their scales.  No
    table column is ever written to, so sharing is safe.  The table is kept
    on the map (its `_ints`, set once past the frozen dataclass) for its
    lifetime: every map it takes is immutable.
    """
    if isinstance(op, Matrix):
        return op._table, op._scale, (op.cols,), op.rows
    cached = op._ints
    if cached is not None:
        return cached
    if isinstance(op, Cochain):
        if op.degree < 1:
            raise DimensionMismatch(f"a degree-{op.degree} cochain applied as a map")
        columns, scale, _, rows = _int_table(op.matrix)
        dims = (op.source_dim,) * op.degree
        if op.degree == 1:
            table = columns
        else:
            table, negated = {}, {j: {row: -x for row, x in col.items()} for j, col in columns.items()}
            for keys, sign in _orderings(op.source_dim, op.degree):
                for j, col in (columns if sign > 0 else negated).items():
                    table[keys[j]] = col
        cached = table, scale, dims, rows
    elif isinstance(op, Bilinear):
        columns, scale, _, rows = _int_table(op.matrix)
        table = {divmod(j, op.source_dim): col for j, col in columns.items()}
        cached = table, scale, (op.source_dim, op.source_dim), rows
    else:
        action = op.action
        tables = [_int_table(rho) for rho in action]
        scale = lcm(*(t[1] for t in tables))
        table = {}
        for x, (columns, s, _, _) in enumerate(tables):
            f = scale // s
            for u, col in columns.items():
                table[x, u] = col if f == 1 else {row: f * y for row, y in col.items()}
        cached = table, scale, (len(action), action[0].cols), action[0].rows
    object.__setattr__(op, "_ints", cached)
    return cached


def _closure(node) -> Callable[[tuple], dict[int, int] | None]:
    """A compiled node as a closure: a slot s becomes case -> {case[s]: 1}."""
    if type(node) is int:
        return lambda case: {case[node]: 1}
    return node


def _add(parts: list[tuple[int, Callable]]) -> Callable[[tuple], dict[int, int]]:
    """The sum of (integer factor, closure) parts."""

    def total(case):
        out: dict[int, int] = {}
        for f, part in parts:
            value = part(case)
            if value:
                for k, x in value.items():
                    if k in out:
                        out[k] += f * x
                    else:
                        out[k] = f * x
        return out

    return total


def _apply(table: dict, nodes: list) -> Callable[[tuple], dict[int, int] | None]:
    """A map of integer table `table` applied to compiled nodes (slots or closures)."""
    for node in nodes:
        if type(node) is not int:
            break
    else:
        # the value is that column of the table itself: shared, so never changed
        key = itemgetter(*nodes)
        return lambda case: table.get(key(case))
    if len(nodes) == 1:
        # a lone slot took the branch above, so f is a closure
        (f,) = nodes

        def unary(case):
            out: dict[int, int] = {}
            arg = f(case)
            if arg:
                for k, c in arg.items():
                    col = table.get(k)
                    if col:
                        for row, y in col.items():
                            if row in out:
                                out[row] += c * y
                            else:
                                out[row] = c * y
            return out

        return unary
    if len(nodes) == 2:
        f, g = nodes
        # a slot beside a closure is read straight from the case, with coefficient 1
        if type(f) is int:

            def slot_first(case):
                out: dict[int, int] = {}
                second = g(case)
                if second:
                    i = case[f]
                    for j, cj in second.items():
                        col = table.get((i, j))
                        if col:
                            for row, y in col.items():
                                if row in out:
                                    out[row] += cj * y
                                else:
                                    out[row] = cj * y
                return out

            return slot_first
        if type(g) is int:

            def slot_second(case):
                out: dict[int, int] = {}
                first = f(case)
                if first:
                    j = case[g]
                    for i, ci in first.items():
                        col = table.get((i, j))
                        if col:
                            for row, y in col.items():
                                if row in out:
                                    out[row] += ci * y
                                else:
                                    out[row] = ci * y
                return out

            return slot_second

        def binary(case):
            out: dict[int, int] = {}
            first, second = f(case), g(case)
            if first and second:
                pairs = second.items()
                for i, ci in first.items():
                    for j, cj in pairs:
                        col = table.get((i, j))
                        if col:
                            c = ci * cj
                            for row, y in col.items():
                                if row in out:
                                    out[row] += c * y
                                else:
                                    out[row] = c * y
            return out

        return binary
    fs = [_closure(node) for node in nodes]

    def multi(case):
        out: dict[int, int] = {}
        args = [f(case) for f in fs]
        if all(args):
            coeffs = itertools.product(*[arg.values() for arg in args])
            for key, cs in zip(itertools.product(*args), coeffs):
                col = table.get(key)
                if col:
                    c = prod(cs)
                    for row, y in col.items():
                        if row in out:
                            out[row] += c * y
                        else:
                            out[row] = c * y
        return out

    return multi


def term_defect(terms: list) -> Callable[..., Vector]:
    """Compile an identity stated as signed terms; the result is its defect on one basis tuple.

    A term is (sign, expr) with sign +1 or -1.  An expr is an int (that slot
    of the basis tuple), a fixed Vector, a list of terms (their sum), or
    (op, arg, ...): an op of `_int_table` applied to as many sub-expressions
    as it takes arguments; a k-ary op visits the product of their supports.
    Dimensions that do not compose raise DimensionMismatch.

    Evaluation is over the integers.  Each op's table (`_int_table`, built
    once per op) and each fixed Vector is multiplied by the lcm of its
    denominators, and every compiled node carries the integer scale of its
    values: an op's is its table's times its arguments', a sum's is the lcm
    of its terms', each term's sign folded into the integer factor
    sign * (lcm // scale).  An op with an empty table, a zero Vector and a
    sum of such compile to nothing once their dimensions are checked.

    Every other node compiles once into a closure from the basis tuple to
    its {output index: integer} values (None or empty when zero): an op on
    slots only looks up that column of its table, a sum of one +1 term is
    that term, and no closure changes a value another returned.  The defect
    is the root's integer sums over its scale, through `exactlin._quotients`:
    a dense tuple of Fractions in lowest terms, or, when every sum is zero,
    one zero tuple made once per compiled identity, so a passing case forms
    no Fraction.
    """
    value, dim, scale = _program(terms)
    zero = None if dim is None else (ZERO,) * dim

    def defect(*case) -> Vector:
        sums = value(case) if value else None
        return _quotients(sums or {}, scale, zero)

    return defect


def _program(terms: list) -> tuple[Callable[[tuple], dict[int, int] | None] | None, int | None, int]:
    """The compiled root of signed terms (see `term_defect`): the closure from a basis tuple to its
    integer sums, None when the terms compile to nothing, then their dimension and scale."""

    def compile(expr) -> tuple[object, int | None, int]:
        """The node of expr (a slot, a closure, or None when it is zero), its dimension (None for a slot) and scale.

        One pass over the expression: dimensions are checked as its parts
        come back, each before any of them is pruned as zero.
        """
        kind = type(expr)
        if kind is int:
            return expr, None, 1
        if kind is list:
            dim, others, live, scale = None, None, [], 1
            for sign, e in expr:
                node, d, s = (e, None, 1) if type(e) is int else compile(e)
                if d is not None:
                    if dim is None:
                        dim = d
                    elif d != dim:
                        others = {dim, d} if others is None else others | {d}
                if node is not None:
                    live.append((sign, node, s))
                    if s != scale:
                        scale = lcm(scale, s)
            if others is not None:
                raise DimensionMismatch(f"terms of dimensions {sorted(others)} added")
            if len(live) == 1 and live[0][0] == 1:
                return live[0][1], dim, scale
            parts = [(sign * (scale // s), _closure(node)) for sign, node, s in live]
            return _add(parts) if parts else None, dim, scale
        if not expr or type(expr[0]) is Fraction:
            scale = lcm(*(x.denominator for x in expr))
            ints = {i: x.numerator * (scale // x.denominator) for i, x in enumerate(expr) if x}
            return (lambda case: ints) if ints else None, len(expr), scale
        op = expr[0]
        table, scale, arg_dims, dim = _int_table(op)
        bad, zero, nodes, dims = len(expr) != len(arg_dims) + 1, not table, [], []
        for k in range(1, len(expr)):
            a = expr[k]
            node, d, s = (a, None, 1) if type(a) is int else compile(a)
            dims.append(d)
            if d is not None and not bad and d != arg_dims[k - 1]:
                bad = True
            if node is None:
                zero = True
            else:
                nodes.append(node)
                scale *= s
        if bad:
            raise DimensionMismatch(f"a map on dimensions {arg_dims} applied to {dims}")
        if zero:
            return None, dim, 1
        return _apply(table, nodes), dim, scale

    root, dim, scale = compile(list(terms))
    return (None if root is None else _closure(root)), dim, scale


def tabulate(terms: list, cases: Iterable[tuple], rows: int) -> Matrix:
    """The values of signed terms on each case, one column per case, as a `rows`-row Matrix.

    No terms means the zero matrix: `term_defect` needs at least one term
    to know its dimension.  The integer sums, a fresh dict of the nonzero
    ones per column, go to `exactlin._from_table` with the compiled scale.
    """
    cases = list(cases)
    if not terms:
        return Matrix.zero(rows, len(cases))
    value, dim, scale = _program(terms)
    if cases and dim != rows:
        raise DimensionMismatch(f"terms of dimension {dim} tabulated in {rows} rows")
    sums = {j: value(case) or {} for j, case in enumerate(cases)} if value else {}
    return _from_table(rows, len(cases), _nonzero(sums), scale)


def _partial(op, i: int) -> Matrix:
    """The matrix of x -> op(e_i, x) for a binary map op (a degree-2 Cochain or a Bilinear):
    the columns (i, j) of its integer table, re-keyed by j."""
    table, scale, (_, width), rows = _int_table(op)
    columns = {j: col for j in range(width) if (col := table.get((i, j)))}
    return _from_table(rows, width, columns, scale)
