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

Identities are signed terms (`term_defect`), turned into integer closures
by one compiler, `_compile`, with their maps and fixed vectors as
parameters.  Each identity of the library is a builder over its maps plus
the few integers its shape depends on (a degree, an order, which identity
of a family); `bind` compiles it the first time that structure is met and
keeps the program for the life of the process, so every later call only
binds its maps: reads their integer tables, checks their dimensions and
folds in their scales.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .errors import DimensionMismatch, DuplicateAssignment, IndexOutOfRange, InternalInconsistency
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


class _Param:
    """Stands for the map or fixed vector at one position of a builder's maps while the builder runs."""

    __slots__ = ("position",)

    def __init__(self, position: int):
        self.position = position


# the events of a compiled program's script: a map's table read, a map applied, terms added
_TABLE, _APPLY, _SUM = range(3)


def _closure(node) -> Callable[[tuple, tuple], dict[int, int] | None]:
    """A compiled node as a closure: a slot s becomes (env, case) -> {case[s]: 1}."""
    if type(node) is int:
        return lambda env, case: {case[node]: 1}
    return node


def _add(k: int, parts: list[Callable]) -> Callable[[tuple, tuple], dict[int, int]]:
    """The sum of closures, the j-th times the integer factor env[k][j]."""

    def total(env, case):
        out: dict[int, int] = {}
        for f, part in zip(env[k], parts):
            value = part(env, case)
            if value:
                for key, x in value.items():
                    if key in out:
                        out[key] += f * x
                    else:
                        out[key] = f * x
        return out

    return total


def _apply(p: int, nodes: list) -> Callable[[tuple, tuple], dict[int, int] | None]:
    """The map of integer table env[p] applied to compiled nodes (slots or closures); an empty
    table, a zero map, returns nothing before its arguments are evaluated."""
    if nodes and all(type(node) is int for node in nodes):
        # the value is that column of the table itself: shared, so never changed
        key = itemgetter(*nodes)
        return lambda env, case: env[p].get(key(case))
    if len(nodes) == 1:
        # a lone slot took the branch above, so f is a closure
        (f,) = nodes

        def unary(env, case):
            table = env[p]
            if not table:
                return None
            out: dict[int, int] = {}
            arg = f(env, case)
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

            def slot_first(env, case):
                table = env[p]
                if not table:
                    return None
                out: dict[int, int] = {}
                second = g(env, case)
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

            def slot_second(env, case):
                table = env[p]
                if not table:
                    return None
                out: dict[int, int] = {}
                first = f(env, case)
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

        def binary(env, case):
            table = env[p]
            if not table:
                return None
            out: dict[int, int] = {}
            first = f(env, case)
            if first:
                second = g(env, case)
                if second:
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

    def multi(env, case):
        table = env[p]
        if not table:
            return None
        out: dict[int, int] = {}
        args = [f(env, case) for f in fs]
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


@dataclass(slots=True)
class _Bound:
    """A compiled program bound to maps: its root closure (None when the terms are structurally
    zero), the environment the closures read, the dimension and scale of the root, and whether
    there were no terms at all."""

    value: Callable | None
    env: tuple
    dim: int | None
    scale: int
    empty: bool


@dataclass(frozen=True, slots=True)
class _Program:
    """Signed terms compiled once, with their maps and fixed vectors as parameters 0..P-1 in the
    order the walk met them.  The closures read parameter p's integer table (a vector's
    integer entries) as env[p] and the factors of the k-th sum as env[~k].

    - `vectors`: whether each parameter is a fixed vector rather than a map;
    - `dim`: the parameter whose dimension is the root's, or None;
    - `script`: the walk's table reads, applications (parameter, argument dimension
      parameters) and sums (term dimension parameters), in the order it checks them;
    - `arities`, `left`, `right`: the same checks in one comparison over the dimensions
      (each parameter's own, then every map's argument dimensions), or `arities` None when a
      map is given two argument counts;
    - `plan`, `reg`: the scales of the nodes from the parameters' scales (see `_scales`);
    - `signs`: the sums' factors, in env order, when every scale is 1.
    """

    root: Callable | None
    empty: bool
    vectors: tuple[bool, ...]
    dim: int | None
    script: tuple
    arities: tuple[int, ...] | None
    left: Callable | None
    right: Callable | None
    plan: tuple
    reg: int | None
    signs: tuple

    def bind(self, params: Sequence) -> _Bound:
        """Read each parameter's table, check every dimension the walk checks and fold in the scales."""
        tables, scales, dims, arg_dims = [], [], [], []
        try:
            for obj, is_vector in zip(params, self.vectors):
                if is_vector:
                    scale = lcm(*(x.denominator for x in obj))
                    tables.append({i: x.numerator * (scale // x.denominator) for i, x in enumerate(obj) if x})
                    dims.append(len(obj))
                else:
                    table, scale, args, dim = _int_table(obj)
                    tables.append(table)
                    dims.append(dim)
                    arg_dims.append(args)
                scales.append(scale)
        except DimensionMismatch:
            _replay(self.script, params)
        if tuple(map(len, arg_dims)) != self.arities:
            _replay(self.script, params)
        elif self.left is not None:
            dims += itertools.chain.from_iterable(arg_dims)
            if self.left(dims) != self.right(dims):
                _replay(self.script, params)
        if scales.count(1) == len(scales):
            env, scale = (*tables, *self.signs), 1
        else:
            factors, regs = _scales(self.plan, scales)
            env, scale = (*tables, *reversed(factors)), 1 if self.reg is None else regs[self.reg]
        return _Bound(self.root, env, None if self.dim is None else dims[self.dim], scale, self.empty)


def _scales(plan: tuple, scales: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each sum's integer factors and every node's scale, from the parameters' scales.

    The registers are the parameters' scales, then 1 (a slot's), then one per step of the plan:
    an applied map's scale is its table's times its arguments', a sum's the lcm of its terms',
    each term's sign folded into the factor sign * (lcm // scale).
    """
    regs, factors = [*scales, 1], []
    for refs, signs in plan:
        values = [regs[r] for r in refs]
        if signs is None:
            regs.append(prod(values))
        else:
            common = lcm(*values)
            regs.append(common)
            factors.append(tuple(sign * (common // s) for sign, s in zip(signs, values)))
    return factors, regs


def _replay(script: tuple, params: Sequence) -> NoReturn:
    """Raise the DimensionMismatch the walk of the terms meets first on these maps: each map's table
    read where the walk reaches the map, each application and sum checked once its arguments or
    terms are walked."""
    tables = {}

    def dim(p):
        if p is None:
            return None
        return tables[p][3] if p in tables else len(params[p])

    for event in script:
        if event[0] == _TABLE:
            tables[event[1]] = _int_table(params[event[1]])
        elif event[0] == _APPLY:
            arg_dims, dims = tables[event[1]][2], [dim(p) for p in event[2]]
            if len(dims) != len(arg_dims) or any(d is not None and d != a for d, a in zip(dims, arg_dims)):
                raise DimensionMismatch(f"a map on dimensions {arg_dims} applied to {dims}")
        else:
            dims = [d for d in map(dim, event[1]) if d is not None]
            if any(d != dims[0] for d in dims):
                raise DimensionMismatch(f"terms of dimensions {sorted(set(dims))} added")
    raise InternalInconsistency("the compiled dimension checks disagree with the walk of the terms")


def _compile(terms: list) -> tuple[_Program, list]:
    """Compile signed terms (see `term_defect`) in one walk, each distinct map and fixed vector
    (by identity) a parameter: the program and those parameters, in the order the walk met them.

    Nothing is pruned, since no data is read: a zero map is an empty table in the environment,
    which its closure tests first.  Only a sum with no terms is zero here.
    """
    found: dict[int, int] = {}
    objects, vectors, script, plan, signs = [], [], [], [], []
    arities: dict[int, int] = {}
    mixed = False

    def param(obj, is_vector: bool) -> int:
        p = found.get(id(obj))
        if p is None:
            p = found[id(obj)] = len(objects)
            objects.append(obj)
            vectors.append(is_vector)
        return p

    def walk(expr) -> tuple[object, int | None, int | None]:
        """The node of expr (a slot, a closure, or None for no terms), the parameter whose
        dimension is its own (None for a slot) and its scale register (None for scale 1, a
        parameter's index, or ~step for a step of the plan)."""
        nonlocal mixed
        kind = type(expr)
        if kind is int:
            return expr, None, None
        if kind is list:
            refs, live = [], []
            for sign, e in expr:
                node, ref, reg = walk(e)
                refs.append(ref)
                if node is not None:
                    live.append((sign, node, reg))
            script.append((_SUM, tuple(refs)))
            ref = next((r for r in refs if r is not None), None)
            if not live:
                return None, ref, None
            if len(live) == 1 and live[0][0] == 1:
                return live[0][1], ref, live[0][2]
            k = len(signs)
            signs.append(tuple(sign for sign, _, _ in live))
            plan.append((tuple(reg for _, _, reg in live), signs[k]))
            return _add(~k, [_closure(node) for _, node, _ in live]), ref, ~(len(plan) - 1)
        if kind is _Param or not expr or type(expr[0]) is Fraction:
            p = param(expr, True)
            return (lambda env, case: env[p]), p, p
        p = param(expr[0], False)
        script.append((_TABLE, p))
        args = [walk(a) for a in expr[1:]]
        refs = tuple(ref for _, ref, _ in args)
        script.append((_APPLY, p, refs))
        if arities.setdefault(p, len(refs)) != len(refs):
            mixed = True
        nodes = [node for node, _, _ in args]
        if any(node is None for node in nodes):
            return None, p, None
        regs = tuple(reg for _, _, reg in args if reg is not None)
        if not regs:
            return _apply(p, nodes), p, p
        plan.append(((p, *regs), None))
        return _apply(p, nodes), p, ~(len(plan) - 1)

    root, ref, reg = walk(list(terms))
    count = len(objects)

    def register(r):
        return count if r is None else count + 1 + ~r if r < 0 else r

    maps = [p for p in range(count) if not vectors[p]]
    offsets = dict(zip(maps, itertools.accumulate((arities[p] for p in maps), initial=count)))
    pairs = []
    for event in script:
        if event[0] == _APPLY:
            pairs += [(offsets[event[1]] + j, q) for j, q in enumerate(event[2]) if q is not None]
        elif event[0] == _SUM:
            refs = [q for q in event[1] if q is not None]
            pairs += [(refs[0], q) for q in refs[1:] if q != refs[0]]
    program = _Program(
        root=None if root is None else _closure(root),
        empty=not terms,
        vectors=tuple(vectors),
        dim=ref,
        script=tuple(script),
        arities=None if mixed else tuple(arities[p] for p in maps),
        left=itemgetter(*(a for a, _ in pairs)) if pairs else None,
        right=itemgetter(*(b for _, b in pairs)) if pairs else None,
        plan=tuple((tuple(map(register, refs)), s) for refs, s in plan),
        reg=None if reg is None else register(reg),
        signs=tuple(reversed(signs)),
    )
    return program, objects


# one program per identity and structure, for the life of the process (see `bind`)
_PROGRAMS: dict[tuple, tuple[_Program, tuple[int, ...]]] = {}


def bind(build: Callable[..., list], shape: tuple, maps: Sequence) -> _Bound:
    """The identity `build(maps, *shape)` bound to `maps`, for `term_defect` or `tabulate`.

    `build` is a module-level function stating the identity as signed terms over its maps (and
    fixed vectors), and `shape` the small integers its terms depend on, such as a degree or an
    order.  The first time (build, *shape) is met, `build` runs once on placeholders and its terms
    are compiled; the program is kept for the life of the process, keyed by that structure alone,
    never by the maps' scales, dimensions or zeros.  Every call then only binds: it reads each
    map's integer table, checks the dimensions the compiler would check, with the same
    DimensionMismatch, and folds in the scales.
    """
    key = (build, *shape)
    entry = _PROGRAMS.get(key)
    if entry is None:
        program, objects = _compile(build(tuple(map(_Param, range(len(maps)))), *shape))
        entry = _PROGRAMS[key] = program, tuple(p.position for p in objects)
    program, positions = entry
    return program.bind([maps[k] for k in positions])


def _bound(identity: list | _Bound) -> _Bound:
    """A bound program as it stands; literal signed terms compiled once, their distinct maps the parameters."""
    if type(identity) is _Bound:
        return identity
    program, objects = _compile(identity)
    return program.bind(objects)


def term_defect(identity: list | _Bound) -> Callable[..., Vector]:
    """The defect of an identity on one basis tuple: signed terms, or an identity `bind` compiled once.

    A term is (sign, expr) with sign +1 or -1.  An expr is an int (that slot
    of the basis tuple), a fixed Vector, a list of terms (their sum), or
    (op, arg, ...): an op of `_int_table` applied to as many sub-expressions
    as it takes arguments; a k-ary op visits the product of their supports.
    Dimensions that do not compose raise DimensionMismatch.

    Literal terms are compiled on each call by the one compiler, `_compile`,
    their distinct maps and fixed vectors its parameters, then bound; an
    identity of the library is compiled once per process (`bind`).  Every
    node compiles into a closure from the environment and the basis tuple
    to its {output index: integer} values (None or empty when zero): an op
    on slots only looks up that column of its table, a sum of one +1 term
    is that term, an op whose table is empty (a zero map) returns nothing
    before its arguments are evaluated, and no closure changes a value
    another returned.

    Evaluation is over the integers.  Each op's table (`_int_table`, built
    once per op) and each fixed Vector is multiplied by the lcm of its
    denominators, and every node carries the integer scale of its values,
    worked out when the maps are bound: an op's is its table's times its
    arguments', a sum's is the lcm of its terms', each term's sign folded
    into the integer factor sign * (lcm // scale).  The defect is the root's
    integer sums over its scale, through `exactlin._quotients`: a dense
    tuple of Fractions in lowest terms, or, when every sum is zero, one zero
    tuple made once per binding, so a passing case forms no Fraction.
    """
    bound = _bound(identity)
    value, env, scale = bound.value, bound.env, bound.scale
    zero = None if bound.dim is None else (ZERO,) * bound.dim

    def defect(*case) -> Vector:
        sums = value(env, case) if value else None
        return _quotients(sums or {}, scale, zero)

    return defect


def tabulate(identity: list | _Bound, cases: Iterable[tuple], rows: int) -> Matrix:
    """The values of an identity (signed terms, or one `bind` compiled) on each case, one column
    per case, as a `rows`-row Matrix.

    No terms means the zero matrix: `term_defect` needs at least one term
    to know its dimension.  The integer sums, a fresh dict of the nonzero
    ones per column, go to `exactlin._from_table` with the root's scale.
    """
    cases = list(cases)
    bound = _bound(identity)
    if bound.empty:
        return Matrix.zero(rows, len(cases))
    value, env = bound.value, bound.env
    if cases and bound.dim != rows:
        raise DimensionMismatch(f"terms of dimension {bound.dim} tabulated in {rows} rows")
    sums = {j: value(env, case) or {} for j, case in enumerate(cases)} if value else {}
    return _from_table(rows, len(cases), _nonzero(sums), bound.scale)


def _partial(op, i: int) -> Matrix:
    """The matrix of x -> op(e_i, x) for a binary map op (a degree-2 Cochain or a Bilinear):
    the columns (i, j) of its integer table, re-keyed by j."""
    table, scale, (_, width), rows = _int_table(op)
    columns = {j: col for j in range(width) if (col := table.get((i, j)))}
    return _from_table(rows, width, columns, scale)
