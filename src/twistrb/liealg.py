"""Lie algebras, representations and Chevalley-Eilenberg cohomology.

Everything is over the rationals with a fixed ordered basis.  A Lie algebra
is its dimension plus the bracket stored as a degree-2 cochain; a
representation is one action matrix per basis element; both are frozen,
slotted dataclasses.  Validators are report-style: they return the
structure or the lexicographically first violating tuple with its defect
vector, never raising on mathematical failure.

Validation and the Chevalley-Eilenberg differential run on integers: they
read the one integer table `multilin._int_table` keeps on the bracket and on
the representation, each map times the lcm of its own denominators.  Where
the two meet, both are brought to the lcm of the two scales.  Sums are taken
over ints, and a Fraction is formed only for a returned defect, matrix entry
or cochain value.  The adjoint and coadjoint actions are read off the
bracket's table too (`multilin._partial`, `exactlin._from_table`), with no
Fraction arithmetic.

delta_CE is stated once per form: on a single cochain as the signed terms
of `_ce_terms`, compiled once per degree (`multilin.bind`), and as a matrix
by the integer columns of `_differential_columns`, which feed the rank and
`_from_table` as they are.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Mapping, Sequence, Union

from .errors import IndexOutOfRange, InternalInconsistency, InvalidStructure, NotNijenhuis, NotNilpotent
from .exactlin import (
    ZERO,
    Matrix,
    Vector,
    _from_scalars,
    _from_table,
    _integer_rref,
    _nonzero_scalars,
    _quotients,
    vector,
)
from .multilin import Cochain, _int_table, _partial, _tuple_index, bind, ext_basis, tabulate, term_defect
from .report import CheckReport, Violation, first_failure


@dataclass(frozen=True, slots=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra: dimension and bracket cochain.

    Constructors in this module guarantee the Jacobi identity; the raw
    dataclass does not re-check it.
    """

    dim: int
    bracket: Cochain

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i): the columns (i, j) of the bracket's integer table."""
        return _partial(self.bracket, i)

    def is_abelian(self) -> bool:
        return self.bracket.is_zero()


@dataclass(frozen=True, slots=True)
class Representation:
    """Action of a Lie algebra on a module, one matrix per generator.

    As a map of signed terms (`multilin.term_defect`) it takes (x, u) to
    rho(e_x) e_u; `_ints` holds the integer table `multilin._int_table`
    builds of it, on first use, and takes no part in `==`, `hash` or `repr`.
    """

    module_dim: int
    action: tuple[Matrix, ...]
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)


BracketTable = Mapping[tuple[int, int], Sequence]


def bracket_cochain(dim: int, table: BracketTable) -> tuple[Cochain | None, Violation | None]:
    """Assemble a degree-2 cochain from an ordered-pair table, checking skewness.

    The table may carry any ordered pairs; (j, i) entries must negate (i, j)
    entries and diagonal entries must vanish.  Each value is kept as the
    column of its nonzero entries (`exactlin._nonzero_scalars`), and the
    columns go to `exactlin._from_scalars`; a Fraction is formed only for a
    violation's defect.
    """
    columns: dict[tuple[int, int], dict] = {}
    for (i, j), raw in sorted(table.items()):
        column = _nonzero_scalars(raw)
        if len(raw) != dim:
            return None, Violation("bracket value length", (i, j), vector(raw))
        if i == j:
            if column:
                return None, Violation("skewness (diagonal)", (i, j), vector(raw))
            continue
        key = (i, j)
        if i > j:
            key, column = (j, i), {k: -x for k, x in column.items()}
        if key not in columns:
            columns[key] = column
        elif columns[key] != column:
            defect = tuple(Fraction(columns[key].get(k, 0) - column.get(k, 0)) for k in range(dim))
            return None, Violation("skewness", key, defect)
    index = _tuple_index(dim, 2)
    for key in columns:
        if key not in index:
            raise IndexOutOfRange(f"tuple {key} out of range for dimension {dim}")
    table = {index[key]: column for key, column in columns.items() if column}
    return Cochain(2, dim, dim, _from_scalars(dim, len(index), table)), None


def _shared_tables(bracket: Cochain, rep: Representation) -> tuple[dict, int, list[list[list[tuple[int, int]]]], int]:
    """The `_int_table` columns of the bracket, the factor that brings them to the common scale
    lcm(s_bracket, s_action), the rows of the action at that scale and the common scale.

    rows[x][i] holds the nonzero (column, entry) pairs of row i of rho(e_x),
    read in one pass over the action's `_int_table`.
    """
    constants, bracket_scale = _int_table(bracket)[:2]
    if not rep.action:
        return constants, 1, [], bracket_scale
    columns, action_scale = _int_table(rep)[:2]
    scale = lcm(bracket_scale, action_scale)
    factor = scale // action_scale
    rows: list[list[list[tuple[int, int]]]] = [[[] for _ in range(rho.rows)] for rho in rep.action]
    for (x, k), col in columns.items():
        rho_rows = rows[x]
        for i, y in col.items():
            rho_rows[i].append((k, y * factor))
    return constants, scale // bracket_scale, rows, scale


def _jacobi_defects(bracket: Cochain) -> Callable[[int, int, int], Vector]:
    """The Jacobi defect [[e_j,e_k],e_i] + [[e_k,e_i],e_j] + [[e_i,e_j],e_k] on any triple,
    from one integer table of the structure constants.

    This is the negative of [e_i,[e_j,e_k]] + cyclic; both vanish exactly
    when the bracket satisfies Jacobi on the triple.  Each term
    [[e_b,e_c], e_a] = sum_l c^l_bc [e_l, e_a] is a product of two
    constants, so the integer sums are over the square of the table's scale.
    """
    n = bracket.target_dim
    table, scale = _int_table(bracket)[:2]
    zero = (ZERO,) * n

    def defect(i: int, j: int, k: int) -> Vector:
        total = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = table.get((b, c))
            if inner:
                for l, x in inner.items():
                    outer = table.get((l, a))
                    if outer:
                        for r, y in outer.items():
                            total[r] += x * y
        return _quotients(total, scale * scale, zero)

    return defect


def _first_jacobi_violation(bracket: Cochain) -> Violation | None:
    cases = ext_basis(bracket.source_dim, 3)
    return first_failure("jacobi", cases, _jacobi_defects(bracket)).violation


def validate_lie(
    dim: int, table: BracketTable
) -> Union[LieAlgebra, Violation]:
    """Return the Lie algebra, or the first violation (skewness, then Jacobi)."""
    cochain, violation = bracket_cochain(dim, table)
    if violation is not None:
        return violation
    violation = _first_jacobi_violation(cochain)
    if violation is not None:
        return violation
    return LieAlgebra(dim, cochain)


def lie_algebra(dim: int, table: BracketTable) -> LieAlgebra:
    """Validating constructor; raises InvalidStructure on a bad table."""
    out = validate_lie(dim, table)
    if isinstance(out, Violation):
        raise InvalidStructure(out.describe())
    return out


def lie_algebra_from_cochain(bracket: Cochain) -> LieAlgebra:
    violation = _first_jacobi_violation(bracket)
    if violation is not None:
        raise InvalidStructure(violation.describe())
    return LieAlgebra(bracket.source_dim, bracket)


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, Cochain.zero(2, dim, dim))


def validate_rep(
    algebra: LieAlgebra, module_dim: int, action: Sequence[Matrix]
) -> Union[Representation, Violation]:
    """Check rho([e_i,e_j]) = rho(e_i)rho(e_j) - rho(e_j)rho(e_i) on all pairs.

    The checked object is the returned one, so the integer table of its action
    built here is the one later checks of the same representation read.
    """
    rep = Representation(module_dim, tuple(action))
    # `where` holds basis indices only (`describe` prints them 1-based), so the
    # count and the shape go into the kind text
    if len(rep.action) != algebra.dim:
        return Violation(f"action matrix count ({len(rep.action)} for dimension {algebra.dim})", (), ())
    for i, m in enumerate(rep.action):
        if m.rows != module_dim or m.cols != module_dim:
            kind = f"action matrix shape ({m.rows}x{m.cols} for module dimension {module_dim})"
            return Violation(kind, (i,), ())

    # both terms are products of two entries, so the sums are over the square of one scale
    m = module_dim
    brackets, factor, rows, scale = _shared_tables(algebra.bracket, rep)
    zero = (ZERO,) * (m * m)

    def defect(i: int, j: int) -> Vector:
        """rho([e_i,e_j]) - rho(e_i)rho(e_j) + rho(e_j)rho(e_i), entry by entry in one list."""
        out = [0] * (m * m)
        constants = brackets.get((i, j))
        if constants:
            for k, c in constants.items():
                c *= factor
                for r, row in enumerate(rows[k]):
                    for s, y in row:
                        out[r * m + s] += c * y
        for left, right, sign in ((i, j, -1), (j, i, 1)):
            for r, row in enumerate(rows[left]):
                for s, a in row:
                    a *= sign
                    for col, b in rows[right][s]:
                        out[r * m + col] += a * b
        return _quotients(out, scale * scale, zero)

    report = first_failure("representation", ext_basis(algebra.dim, 2), defect)
    return rep if report.ok else report.violation


def adjoint_rep(algebra: LieAlgebra) -> Representation:
    return Representation(algebra.dim, tuple(algebra.ad(i) for i in range(algebra.dim)))


def trivial_rep(algebra: LieAlgebra, module_dim: int = 1) -> Representation:
    zero = Matrix.zero(module_dim, module_dim)
    return Representation(module_dim, (zero,) * algebra.dim)


def coadjoint_rep(algebra: LieAlgebra) -> Representation:
    """Coadjoint action (ad*_x a)(y) = -a([x,y]); matrices are -ad(e_i)^T, each ad(e_i) read
    off the bracket's integer table, then transposed and negated on its own table."""
    action = tuple(-algebra.ad(i).transpose() for i in range(algebra.dim))
    rep = validate_rep(algebra, algebra.dim, action)
    if isinstance(rep, Violation):
        raise InternalInconsistency(f"coadjoint action is not a representation: {rep.describe()}")
    return rep


# -- Chevalley-Eilenberg complex ---------------------------------------


@lru_cache(maxsize=None)
def _ce_slots(n: int) -> tuple[tuple, tuple]:
    """The (sign, p, other slots) action and (sign, a, b, other slots) bracket terms of `_ce_terms`, n >= 1."""
    slots = range(n + 1)
    acts = tuple(((-1) ** p, p, tuple(s for s in slots if s != p)) for p in slots)
    pairs = itertools.combinations(slots, 2)
    return acts, tuple(((-1) ** (a + b), a, b, tuple(s for s in slots if s not in (a, b))) for a, b in pairs)


def _ce_terms(maps: tuple, n: int, acting: bool) -> list:
    """delta_CE f as signed terms on the basis (n+1)-tuple in slots 0..n, n the degree of f:
    (-1)^p x_p.f(the others) for each slot p, and (-1)^{a+b} f([x_a,x_b], the others) for a < b.

    `maps` is (bracket, f), then the action when `acting`, with the constant
    vector of f for n = 0.  The action is any map (x, u) -> x.u of
    `multilin.term_defect`: a Representation, or the bracket itself for the
    adjoint module; the trivial module has none, so no action terms.
    """
    bracket, f = maps[:2]
    if n == 0:
        return [(1, (maps[2], 0, f))] if acting else []
    acts, brackets = _ce_slots(n)
    terms = [(sign, (maps[2], p, (f,) + rest)) for sign, p, rest in acts] if acting else []
    terms += [(sign, (f, (bracket, a, b)) + rest) for sign, a, b, rest in brackets]
    return terms


def _ce_bound(bracket: Cochain, action, f: Cochain):
    """`_ce_terms` of f, with `action` None for the trivial module, bound to these maps."""
    maps = (bracket, f.matrix.col(0) if f.degree == 0 else f) + (() if action is None else (action,))
    return bind(_ce_terms, (f.degree, action is not None), maps)


def ce_differential_cochain(bracket: Cochain, rep: Representation, f: Cochain) -> Cochain:
    """delta_CE f for a degree-n cochain with values in the module.

    Works for any bracket/action data, valid or not: `_ce_terms` on each basis (n+1)-tuple.
    """
    dim, m = bracket.source_dim, rep.module_dim
    return Cochain(f.degree + 1, dim, m, tabulate(_ce_bound(bracket, rep, f), ext_basis(dim, f.degree + 1), m))


def ce_differential(algebra: LieAlgebra, rep: Representation, n: int) -> Matrix:
    """Matrix of delta_CE : C^n -> C^{n+1} in the flattened lex bases."""
    return _differential_matrix(algebra, rep, n)


def _differential_matrix(algebra: LieAlgebra, rep: Representation, n: int) -> Matrix:
    """delta_CE as a Matrix: the columns of `_differential_columns` through `_from_table`."""
    return _from_table(*_differential_columns(algebra, rep, n))


def _differential_columns(algebra: LieAlgebra, rep: Representation, n: int) -> tuple[int, int, dict[int, dict[int, int]], int]:
    """delta_CE : C^n -> C^{n+1} times a scale as sparse integer columns: the row count, the width,
    {column: {row: int}} in ascending column order with no empty column and no zero entry, and that scale.

    The scale is that of `_shared_tables`, from the integer tables kept on the
    bracket and the action.  Rows and columns come in blocks of the module
    dimension m, one block per lex basis tuple, as in `Cochain.vec`.  For
    each (n+1)-tuple x, with the signs of `_ce_terms`:
    - the action term at position p adds (-1)^p rho(x_p) at the block of x
      with x_p removed;
    - the bracket term at positions a < b adds (-1)^{a+b} c^l_{x_a x_b} times
      the m x m identity at the block of sort(l, rest), with the sign of that
      sort, where rest is x without x_a and x_b; it vanishes when l is in rest.
    A bracket term can cancel an entry, so a zero sum is removed.
    """
    dim, m = algebra.dim, rep.module_dim
    constants, factor, action, scale = _shared_tables(algebra.bracket, rep)
    col_block = {t: j * m for j, t in enumerate(ext_basis(dim, n))}
    columns: dict[int, dict[int, int]] = {c: {} for c in range(len(col_block) * m)}
    tuples = ext_basis(dim, n + 1)
    for top, xs in zip(itertools.count(0, m), tuples):
        # the action terms of x reach distinct (row, column) entries, which nothing has written yet
        for pos, x in enumerate(xs):
            block = col_block[xs[:pos] + xs[pos + 1 :]]
            for i, rho_row in enumerate(action[x]):
                for k, v in rho_row:
                    columns[block + k][top + i] = -v if pos % 2 else v
        for a, b in itertools.combinations(range(n + 1), 2):
            bracket_ab = constants.get((xs[a], xs[b]))
            if not bracket_ab:
                continue
            rest = xs[:a] + xs[a + 1 : b] + xs[b + 1 :]
            for l, c in bracket_ab.items():
                if l in rest:
                    continue
                p = sum(1 for y in rest if y < l)
                block = col_block[rest[:p] + (l,) + rest[p:]]
                v = -c * factor if (a + b + p) % 2 else c * factor
                for i in range(m):
                    column = columns[block + i]
                    x = column.pop(top + i, 0) + v
                    if x:
                        column[top + i] = x
    return len(tuples) * m, len(columns), {c: column for c, column in columns.items() if column}, scale


def cohomology_dims_from_matrices(deltas: Sequence[Matrix]) -> list[int]:
    """dim H^n = nullity(delta^n) - rank(delta^{n-1}) for n in range."""
    dims = []
    prev_rank = 0
    for d in deltas:
        rank = d.rank()
        dims.append(d.cols - rank - prev_rank)
        prev_rank = rank
    return dims


def ce_cohomology_dims(algebra: LieAlgebra, rep: Representation, n_max: int) -> list[int]:
    """dim H^n = nullity(delta^n) - rank(delta^{n-1}) for n in 0..n_max.

    Each rank is taken on the columns of delta^n, as vectors indexed by the
    coordinates of C^{n+1}, and only on the columns outside the pivots of
    the previous degree.  Eliminating the columns of delta^{n-1} keeps rows
    whose pivot coordinates P project im delta^{n-1} bijectively onto Q^P,
    so the unit vectors outside P span a complement W of im delta^{n-1} in
    C^n.  delta^n delta^{n-1} = 0 puts im delta^{n-1} in ker delta^n, hence
    delta^n(C^n) = delta^n(W) and rank delta^n = rank delta^n|_W: the
    columns in P, which reduce to zero, are never eliminated.  Each rank
    counts the rows `exactlin._integer_rref` keeps of the integer columns,
    with no Fraction in between, and their pivots are the next degree's P.
    """
    dims = []
    prev_rank, pivots = 0, set()
    for n in range(n_max + 1):
        _, width, columns, _ = _differential_columns(algebra, rep, n)
        kept = _integer_rref(column for c, column in columns.items() if c not in pivots)
        dims.append(width - len(kept) - prev_rank)
        prev_rank, pivots = len(kept), set(kept)
    return dims


def ce_cohomology_representatives(
    algebra: LieAlgebra, rep: Representation, n: int
) -> list[Cochain]:
    """A (non-canonical) basis of cocycles spanning degree-n cohomology.

    Kernel vectors of the degree-n differential are kept greedily, in the
    deterministic kernel order, whenever they are independent modulo the
    image of the previous differential: they are the kernel columns that are
    pivots of one reduction of the image columns with the kernel columns beside.
    Dimensions are the primary surface; representatives are library-only:
    no CLI command prints them.
    """
    kernel = ce_differential(algebra, rep, n).kernel_basis()
    if not kernel:
        return []
    candidates = Matrix.from_cols(kernel)
    prev = ce_differential(algebra, rep, n - 1) if n > 0 else Matrix.zero(candidates.rows, 0)
    return [
        Cochain.from_vec(n, algebra.dim, rep.module_dim, kernel[c - prev.cols])
        for c in sorted(prev._reduced(candidates))
        if c >= prev.cols
    ]


def is_two_cocycle(algebra: LieAlgebra, rep: Representation, h: Cochain) -> CheckReport:
    """True iff delta_CE h = 0; on failure carries the first violating triple.

    delta_CE h(x, y, z) = x.h(y,z) - y.h(x,z) + z.h(x,y) - h([x,y],z) + h([x,z],y) - h([y,z],x),
    the terms of `_ce_terms` on the basis triple in slots 0-2.
    """
    return first_failure("2-cocycle", ext_basis(algebra.dim, h.degree + 1), term_defect(_ce_bound(algebra.bracket, rep, h)))


# -- Nijenhuis operators ------------------------------------------------


def _deformed_terms(maps: tuple) -> list:
    """[x,y]_N = [Nx,y] + [x,Ny] - N[x,y] as signed terms over (bracket, N) on the basis pair in slots 0, 1."""
    c, n_op = maps
    return [(1, (c, (n_op, 0), 1)), (1, (c, 0, (n_op, 1))), (-1, (n_op, (c, 0, 1)))]


def _nijenhuis_terms(maps: tuple) -> list:
    """[Nx,Ny] - N[x,y]_N over (bracket, N)."""
    c, n_op = maps
    return [(1, (c, (n_op, 0), (n_op, 1))), (-1, (n_op, _deformed_terms(maps)))]


def _n_action_terms(maps: tuple) -> list:
    """x.y = [Nx, y] over (bracket, N): the action of g_N on g, and the circ of its NS-Lie algebra."""
    c, n_op = maps
    return [(1, (c, (n_op, 0), 1))]


def _n_twist_terms(maps: tuple) -> list:
    """H(x, y) = -N[x, y] over (bracket, N): the twist of g_N acting on g, and the vee of its NS-Lie algebra."""
    c, n_op = maps
    return [(-1, (n_op, (c, 0, 1)))]


def nijenhuis_check(algebra: LieAlgebra, n_op: Matrix) -> CheckReport:
    """[Nx,Ny] = N[x,y]_N on basis pairs."""
    defect = term_defect(bind(_nijenhuis_terms, (), (algebra.bracket, n_op)))
    return first_failure("nijenhuis", ext_basis(algebra.dim, 2), defect)


def deformed_bracket_cochain(algebra: LieAlgebra, n_op: Matrix) -> Cochain:
    """[x,y]_N = [Nx,y] + [x,Ny] - N[x,y] as a degree-2 cochain."""
    n = algebra.dim
    return Cochain(2, n, n, tabulate(bind(_deformed_terms, (), (algebra.bracket, n_op)), ext_basis(n, 2), n))


def deformed_bracket(algebra: LieAlgebra, n_op: Matrix) -> LieAlgebra:
    """The deformed Lie algebra g_N; Jacobi is re-validated independently."""
    check = nijenhuis_check(algebra, n_op)
    if not check:
        raise NotNijenhuis(check.violation.describe())
    cochain = deformed_bracket_cochain(algebra, n_op)
    violation = _first_jacobi_violation(cochain)
    if violation is not None:
        raise InvalidStructure(f"deformed bracket broke Jacobi: {violation.describe()}")
    return LieAlgebra(algebra.dim, cochain)


# -- derivations ---------------------------------------------------------


def _derivation_terms(maps: tuple) -> list:
    """-delta_CE d for the adjoint module, over (bracket, d): the action is the bracket itself."""
    c, d = maps
    return [(-1, _ce_terms((c, d, c), 1, True))]


def derivation_check(algebra: LieAlgebra, d: Matrix) -> CheckReport:
    """d[x,y] = [dx,y] + [x,dy] on basis pairs: the defect is -delta_CE d for the adjoint module."""
    defect = term_defect(bind(_derivation_terms, (), (algebra.bracket, d)))
    return first_failure("derivation", ext_basis(algebra.dim, 2), defect)


def nilpotency_index(d: Matrix) -> int:
    """Least k >= 1 with d^k = 0, scanning k <= dim^2 + 1."""
    power = d
    for k in range(1, d.rows * d.rows + 2):
        if power.is_zero():
            return k
        power = power @ d
    raise NotNilpotent(f"no vanishing power up to {d.rows * d.rows + 1}")
