"""Independent oracles used by the test suite.

Nothing here imports the package's machinery on the code path it checks:
the rank and RREF oracles are straight-line Gaussian eliminations on dense
Fraction lists (the library eliminates on sparse rows), the bracket
oracles are literal transcriptions of the three-unshuffle-sum binary and
six-unshuffle-sum ternary displays (the library derives both from the twisted
semidirect bracket on g + M; the six-sum form is valid for degrees >= 1),
the cohomology-representative oracle keeps kernel vectors one at a time in a
`RowSpace`, a Fraction elimination on sparse rows (the library takes the
pivots of one RREF of integer rows), the Chevalley-Eilenberg
oracle is the literal alternating-sum formula, applied to each unit cochain
for the matrix (the library assembles the matrix from structure constants
and applies it to a single cochain too), and the d_T matrix oracle pushes unit
cochains through the L-infinity brackets, where the library builds the matrix
as a Chevalley-Eilenberg differential.  The dense evaluation oracles walk every
index tuple and every matrix entry, where the library evaluates every
multilinear map, `Cochain.skew_eval` and the insertion behind
`linfty.nr_bracket` included, through `multilin.term_defect`, which visits
only the nonzero coordinates.  Every evaluation the other oracles make goes
through the dense forms, never through that evaluator; only the d_T matrix
oracle reaches it, through the library's brackets, since it checks the
Chevalley-Eilenberg route against the bracket route.  The term-by-term
defect oracles build each identity from one evaluation and one vector or
matrix temporary per term, where the library either accumulates the defect
in one hand-fused list (`validate_rep`, `liealg._jacobi_defects`) or states the
identity, or the insertion, as signed terms for `multilin.term_defect`.
That evaluator sums integers over one scale per compiled node;
`term_defect_fraction` evaluates the same signed terms in Fractions, term
by term, on sparse tables `_table` scans here from each map's dense
Fraction entries, where the library reads the integer table each matrix
stores and derives the other maps' tables from those (`multilin._int_table`).
The derived-structure oracles build the induced bracket and action, the
NS-Lie tables of the three constructions and the adjacent Lie algebra of an
NS-Lie algebra by vector arithmetic on each basis tuple, where the library
tabulates signed terms.  The derived-map oracles (`ad`, `coadjoint_action`,
`psi_sharp`, `twisted_semidirect_cochain`, `embed`, `restrict`, `block`)
build each map from Fraction value vectors or rows, where the library
re-keys its source maps' integer tables into `exactlin._from_table`;
`int_table` is the integer table read off `_table`'s dense scan, which the
table a library matrix stores must equal.  The basis helpers
(`bracket_basis`, `act_basis`), `hstack`, `sparse_row` and
`graded_perm_sign` read the library's maps through their dense columns and
rows; no library code needs them.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Callable

from twistrb.errors import DimensionMismatch
from twistrb.exactlin import (
    ONE,
    ZERO,
    Matrix,
    Vector,
    basis_vector,
    permutation_sign,
    scalar,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)
from twistrb.liealg import ce_differential
from twistrb.linfty import d_t_unchecked, koszul_sign
from twistrb.multilin import Bilinear, Cochain, _orderings, ext_basis, iter_unshuffles


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sparse_row(v) -> dict[int, Fraction]:
    """The nonzero entries of a vector, keyed by position."""
    return {c: x for c, x in enumerate(v) if x}


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """The blocks a and b side by side, through their dense rows."""
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ")
    return Matrix(a.rows, a.cols + b.cols, [x for i in range(a.rows) for x in a.row(i) + b.row(i)])


def bracket_basis(algebra, i: int, j: int) -> Vector:
    """[e_i, e_j], read off the bracket cochain."""
    return algebra.bracket.value_on_tuple((i, j))


def act_basis(rep, i: int, u: int) -> Vector:
    """rho(e_i) e_u: column u of the i-th action matrix."""
    return rep.action[i].col(u)


def graded_perm_sign(degrees, word) -> int:
    """Parity times Koszul sign: the sign in the graded skew-symmetry rule."""
    return permutation_sign(word) * koszul_sign(degrees, word)


def rank_oracle(rows: list[list[Fraction]]) -> int:
    """Row-reduce a copy of the matrix and count nonzero rows."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rref_oracle(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss-Jordan on dense row lists: first nonzero pivot in column order."""
    m = matrix_rows(matrix)
    pivots: list[int] = []
    r = 0
    for c in range(matrix.cols):
        if r == matrix.rows:
            break
        pivot_row = next((i for i in range(r, matrix.rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(matrix.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return Matrix(matrix.rows, matrix.cols, [x for row in m for x in row]), tuple(pivots)


def matrix_rows(m: Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def _unit_vector_matrix(diff, degree: int, source_dim: int, target_dim: int) -> Matrix:
    """Columns diff(f) for the unit cochains f of the given degree, flattened."""
    domain = math.comb(source_dim, degree) * target_dim
    cols = []
    for j in range(domain):
        flat = [0] * domain
        flat[j] = 1
        cols.append(diff(Cochain.from_vec(degree, source_dim, target_dim, flat)).vec())
    return Matrix.from_cols(cols, rows=math.comb(source_dim, degree + 1) * target_dim)


def ce_differential_unit_vectors(algebra, rep, n: int) -> Matrix:
    """delta_CE : C^n -> C^{n+1} by the alternating-sum formula on each unit cochain."""
    return _unit_vector_matrix(
        lambda f: ce_differential_alternating(algebra.bracket, rep, f), n, algebra.dim, rep.module_dim
    )


def ce_cohomology_dims_oracle(algebra, rep, n_max: int) -> list[int]:
    """dim H^n from `rank_oracle` on the unit-vector matrices of delta_CE, the rows of each whole."""
    deltas = [ce_differential_unit_vectors(algebra, rep, n) for n in range(n_max + 1)]
    ranks = [rank_oracle(matrix_rows(d)) for d in deltas]
    return [d.cols - rank - prev for d, rank, prev in zip(deltas, ranks, [0] + ranks)]


def d_t_matrix_bracket3(setup, t, degree: int) -> Matrix:
    """d_T(f) = [[T,f]] - (1/2)[[T,T,f]] on each unit cochain, as columns."""
    return _unit_vector_matrix(
        lambda f: d_t_unchecked(setup, t, f), degree, setup.module_dim, setup.dim
    )


def cohomology_dims_oracle(setup, t, n_max: int) -> list[int]:
    """Operator cohomology dimensions from the bracket route and the rank oracle."""
    deltas = [d_t_matrix_bracket3(setup, t, k) for k in range(n_max + 1)]
    ranks = [rank_oracle(matrix_rows(d)) for d in deltas]
    return [d.cols - rank - prev for d, rank, prev in zip(deltas, ranks, [0] + ranks)]


class RowSpace:
    """A row space kept in reduced row echelon form, one sparse row at a time.

    Rows are `{column: Fraction}` dicts keyed by the column of their leading
    1, and every kept row is zero in the other rows' leading columns.
    `add` says whether a vector lies outside the span of the earlier ones,
    which is how `ce_representatives_incremental` keeps kernel vectors.
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


def ce_representatives_incremental(algebra, rep, n: int) -> list[Cochain]:
    """Cohomology representatives kept one at a time: the image columns are
    reduced once into a `RowSpace`, then each kernel vector is kept when it
    leaves a nonzero remainder."""
    span = RowSpace()
    if n > 0:
        prev = ce_differential(algebra, rep, n - 1)
        for j in range(prev.cols):
            span.add(sparse_row(prev.col(j)))
    return [
        Cochain.from_vec(n, algebra.dim, rep.module_dim, candidate)
        for candidate in ce_differential(algebra, rep, n).kernel_basis()
        if span.add(sparse_row(candidate))
    ]


def bracket2_unshuffle(setup, p: Cochain, q: Cochain) -> Cochain:
    """The binary bracket as three unshuffle sums with parity signs.

    P(Q(...).u, rest) - (-1)^{pq} Q(P(...).u, rest) + (-1)^{pq} [P(...), Q(...)],
    written straight from the module action and the bracket of g.
    """
    dp, dq = p.degree, q.degree
    out_deg = dp + dq
    m, n = setup.module_dim, setup.dim
    sign_pq = (-1) ** (dp * dq)
    cols = []
    for us in ext_basis(m, out_deg):
        total = zero_vector(n)
        for word, sgn in iter_unshuffles((dq, 1, dp - 1)):
            qv = q.value_on_basis(tuple(us[k] for k in word[:dq]))
            acted = act_on_basis_dense(setup.rep, qv, us[word[dq]])
            rest = tuple(us[k] for k in word[dq + 1 :])
            total = vec_add(total, vec_scale(Fraction(sgn), eval_mixed_dense(p, acted, rest)))
        for word, sgn in iter_unshuffles((dp, 1, dq - 1)):
            pv = p.value_on_basis(tuple(us[k] for k in word[:dp]))
            acted = act_on_basis_dense(setup.rep, pv, us[word[dp]])
            rest = tuple(us[k] for k in word[dp + 1 :])
            total = vec_add(total, vec_scale(Fraction(-sign_pq * sgn), eval_mixed_dense(q, acted, rest)))
        for word, sgn in iter_unshuffles((dp, dq)):
            pv = p.value_on_basis(tuple(us[k] for k in word[:dp]))
            qv = q.value_on_basis(tuple(us[k] for k in word[dp:]))
            total = vec_add(total, vec_scale(Fraction(sign_pq * sgn), bracket_dense(setup.algebra, pv, qv)))
        cols.append(total)
    return Cochain(out_deg, m, n, Matrix.from_cols(cols, rows=n))


def bracket3_six_sum(setup, p: Cochain, q: Cochain, r: Cochain) -> Cochain:
    """The displayed six-unshuffle-sum form of the ternary bracket.

    Literal transcription with prefactor (-1)^{pqr} / 2; only trustworthy
    when all three degrees are >= 1, which is the only regime the tests use
    it in.
    """
    dp, dq, dr = p.degree, q.degree, r.degree
    out_deg = dp + dq + dr - 1
    m, n = setup.module_dim, setup.dim
    h = setup.cocycle
    terms = (
        (1, (dq, dr, dp - 1), q, r, p),
        (-((-1) ** (dq * dr)), (dr, dq, dp - 1), r, q, p),
        (-((-1) ** (dp * dq)), (dp, dr, dq - 1), p, r, q),
        ((-1) ** (dp * (dq + dr)), (dr, dp, dq - 1), r, p, q),
        ((-1) ** ((dp + dq) * dr), (dp, dq, dr - 1), p, q, r),
        (-((-1) ** (dp * dq + dq * dr + dr * dp)), (dq, dp, dr - 1), q, p, r),
    )
    prefactor = Fraction((-1) ** (dp * dq * dr), 2)
    cols = []
    for us in ext_basis(m, out_deg):
        total = zero_vector(n)
        for coeff, blocks, left, right, outer in terms:
            a, b = blocks[0], blocks[1]
            for word, sgn in iter_unshuffles(blocks):
                lv = left.value_on_basis(tuple(us[k] for k in word[:a]))
                rv = right.value_on_basis(tuple(us[k] for k in word[a : a + b]))
                hv = skew_eval_dense(h, [lv, rv])
                rest = tuple(us[k] for k in word[a + b :])
                total = vec_add(
                    total, vec_scale(Fraction(coeff * sgn), eval_mixed_dense(outer, hv, rest))
                )
        cols.append(vec_scale(prefactor, total))
    return Cochain(out_deg, m, n, Matrix.from_cols(cols, rows=n))


# -- dense evaluation ---------------------------------------------------


def _accumulate(out: list, coeff, value: Vector) -> None:
    """out += coeff * value, entry by entry."""
    for r, y in enumerate(value):
        if y:
            out[r] += coeff * y


def skew_eval_dense(f: Cochain, args) -> Vector:
    """Sum over all source_dim^degree index tuples of the coefficient times f(tuple)."""
    vs = [vector(a) for a in args]
    if f.degree == 0:
        return f.matrix.col(0)
    out = [ZERO] * f.target_dim
    for idx in itertools.product(range(f.source_dim), repeat=f.degree):
        coeff = ONE
        for v, i in zip(vs, idx):
            coeff *= v[i]
            if not coeff:
                break
        if coeff:
            _accumulate(out, coeff, f.value_on_tuple(idx))
    return tuple(out)


def eval_mixed_dense(f: Cochain, first, rest) -> Vector:
    """f(first, e_rest...) as the sum of first_i f(e_i, e_rest...)."""
    out = [ZERO] * f.target_dim
    for i, c in enumerate(first):
        if c != 0:
            _accumulate(out, scalar(c), f.value_on_tuple((i, *rest)))
    return tuple(out)


def bilinear_eval_dense(b: Bilinear, x, y) -> Vector:
    out = [ZERO] * b.target_dim
    xv, yv = vector(x), vector(y)
    for i, a in enumerate(xv):
        for j, c in enumerate(yv):
            if a and c:
                _accumulate(out, a * c, b.value_on_basis(i, j))
    return tuple(out)


def matmul_dense(a: Matrix, b: Matrix) -> Matrix:
    """Every entry as a full inner product of a row of a and a column of b."""
    out = [
        sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO)
        for i in range(a.rows)
        for j in range(b.cols)
    ]
    return Matrix(a.rows, b.cols, out)


def apply_dense(m: Matrix, v) -> Vector:
    vv = vector(v)
    return tuple(sum((m[i, k] * vv[k] for k in range(m.cols)), ZERO) for i in range(m.rows))


def act_dense(rep, x, u) -> Vector:
    """x . u as the sum of x_i rho(e_i) u over every generator."""
    out = [ZERO] * rep.module_dim
    for c, rho in zip(vector(x), rep.action):
        if c:
            _accumulate(out, c, apply_dense(rho, u))
    return tuple(out)


def act_on_basis_dense(rep, x, u: int) -> Vector:
    """x . e_u for the u-th basis vector of the module."""
    return act_dense(rep, x, basis_vector(rep.module_dim, u))


def bracket_dense(algebra, x, y) -> Vector:
    """[x, y] on coordinate vectors."""
    return skew_eval_dense(algebra.bracket, [x, y])


def star_dense(ns, x, y) -> Vector:
    """x*y = x circ y - y circ x + x vee y on coordinate vectors."""
    circ = vec_sub(bilinear_eval_dense(ns.circ, x, y), bilinear_eval_dense(ns.circ, y, x))
    return vec_add(circ, skew_eval_dense(ns.vee, [x, y]))


# -- term-by-term insertion and defects ---------------------------------


def nr_insert_terms(a: Cochain, b: Cochain) -> Cochain:
    """(A o B)(v_*) = sum over Sh(arity B, arity A - 1) of sgn A(B(...), rest),
    one `eval_mixed` and one vector sum per unshuffle term."""
    big = a.source_dim
    alpha, beta = a.degree, b.degree
    arity = alpha + beta - 1
    if arity < 0:
        return Cochain.zero(arity, big, big)
    cols = []
    for us in ext_basis(big, arity):
        total = zero_vector(big)
        for word, sgn in iter_unshuffles((beta, alpha - 1)):
            bv = b.value_on_basis(tuple(us[k] for k in word[:beta]))
            rest = tuple(us[k] for k in word[beta:])
            total = vec_add(total, vec_scale(Fraction(sgn), eval_mixed_dense(a, bv, rest)))
        cols.append(total)
    return Cochain(arity, big, big, Matrix.from_cols(cols, rows=big))


def rep_defect_matrices(algebra, module_dim: int, action, i: int, j: int) -> tuple:
    """rho([e_i,e_j]) - (rho(e_i)rho(e_j) - rho(e_j)rho(e_i)) through Matrix temporaries."""
    lhs = Matrix.zero(module_dim, module_dim)
    for k, c in enumerate(bracket_basis(algebra, i, j)):
        if c != 0:
            lhs = lhs + action[k].scale(c)
    rhs = action[i] @ action[j] - action[j] @ action[i]
    return (lhs - rhs).entries


def jacobi_defect_terms(bracket: Cochain, i: int, j: int, k: int) -> Vector:
    """[[e_j,e_k],e_i] + [[e_k,e_i],e_j] + [[e_i,e_j],e_k], one vector sum per term."""
    total = zero_vector(bracket.target_dim)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = bracket.value_on_tuple((b, c))
        total = vec_add(total, eval_mixed_dense(bracket, inner, (a,)))
    return total


def trb_defect_terms(setup, t: Matrix, i: int, j: int) -> Vector:
    """[Tu_i, Tu_j] - T(Tu_i . u_j - Tu_j . u_i + H(Tu_i, Tu_j)), one vector per term."""
    tu = t.col(i)
    tv = t.col(j)
    lhs = bracket_dense(setup.algebra, tu, tv)
    inner = vec_sub(act_on_basis_dense(setup.rep, tu, j), act_on_basis_dense(setup.rep, tv, i))
    inner = vec_add(inner, skew_eval_dense(setup.cocycle, [tu, tv]))
    return vec_sub(lhs, t.apply(inner))


def ce_differential_alternating(bracket: Cochain, rep, f: Cochain) -> Cochain:
    """delta_CE f by the literal alternating-sum formula, one vector sum per term."""
    n = f.degree
    dim = bracket.source_dim
    m = rep.module_dim
    cols = []
    for xs in ext_basis(dim, n + 1):
        total = zero_vector(m)
        for pos, xi in enumerate(xs):
            rest = xs[:pos] + xs[pos + 1 :]
            term = rep.action[xi].apply(f.value_on_basis(rest))
            if pos % 2 == 1:
                term = vec_scale(-1, term)
            total = vec_add(total, term)
        for a, b in itertools.combinations(range(n + 1), 2):
            rest = tuple(x for p, x in enumerate(xs) if p not in (a, b))
            inner = bracket.value_on_tuple((xs[a], xs[b]))
            term = eval_mixed_dense(f, inner, rest) if n >= 1 else zero_vector(m)
            # (-1)^{i+j} for 1-based positions equals (-1)^{a+b} for 0-based
            if (a + b) % 2 == 1:
                term = vec_scale(-1, term)
            total = vec_add(total, term)
        cols.append(total)
    return Cochain(n + 1, dim, m, Matrix.from_cols(cols, rows=m))


# -- derived structures, one vector temporary per term ----------------------


def induced_bracket_cochain(setup, t: Matrix) -> Cochain:
    """[u,v]_T = T(u).v - T(v).u + H(Tu,Tv) on each basis pair."""
    m = setup.module_dim
    values = {}
    for i, j in ext_basis(m, 2):
        tu, tv = t.col(i), t.col(j)
        v = vec_sub(act_on_basis_dense(setup.rep, tu, j), act_on_basis_dense(setup.rep, tv, i))
        values[(i, j)] = vec_add(v, skew_eval_dense(setup.cocycle, [tu, tv]))
    return Cochain.from_values(2, m, m, values)


def induced_action_matrices(setup, t: Matrix) -> tuple[Matrix, ...]:
    """u . x = [Tu, x] + T(x.u + H(x, Tu)), one matrix per basis vector u of the module."""
    n, m = setup.dim, setup.module_dim
    mats = []
    for a in range(m):
        ta = t.col(a)
        cols = []
        for x in range(n):
            lead = eval_mixed_dense(setup.algebra.bracket, ta, (x,))
            # H(e_x, Tu) = -H(Tu, e_x)
            h_term = vec_scale(-1, eval_mixed_dense(setup.cocycle, ta, (x,)))
            inner = vec_add(act_basis(setup.rep, x, a), h_term)
            cols.append(vec_add(lead, t.apply(inner)))
        mats.append(Matrix.from_cols(cols, rows=n))
    return tuple(mats)


def _ns_tables(dim: int, circ_vals: dict, vee_vals: dict) -> tuple[Bilinear, Cochain]:
    return Bilinear.from_values(dim, dim, circ_vals), Cochain.from_values(2, dim, dim, vee_vals)


def ns_tables_from_nijenhuis(algebra, n_op: Matrix) -> tuple[Bilinear, Cochain]:
    """x circ y = [Nx, y] and x vee y = -N[x, y] on basis tuples."""
    dim = algebra.dim
    circ_vals = {(i, j): eval_mixed_dense(algebra.bracket, n_op.col(i), (j,)) for i in range(dim) for j in range(dim)}
    vee_vals = {t: vec_scale(-1, n_op.apply(bracket_basis(algebra, *t))) for t in ext_basis(dim, 2)}
    return _ns_tables(dim, circ_vals, vee_vals)


def ns_tables_from_assoc(a) -> tuple[Bilinear, Cochain]:
    """x circ y = x succ y - y prec x and x vee y = x box y - y box x on basis tuples."""
    dim = a.dim
    basis = [basis_vector(dim, i) for i in range(dim)]
    prec, succ, box = (partial(bilinear_eval_dense, b) for b in (a.prec, a.succ, a.box))
    pairs = itertools.product(range(dim), repeat=2)
    circ_vals = {(i, j): vec_sub(succ(basis[i], basis[j]), prec(basis[j], basis[i])) for i, j in pairs}
    vee_vals = {(i, j): vec_sub(box(basis[i], basis[j]), box(basis[j], basis[i])) for i, j in ext_basis(dim, 2)}
    return _ns_tables(dim, circ_vals, vee_vals)


def ns_tables_from_trb(setup, t: Matrix) -> tuple[Bilinear, Cochain]:
    """u circ v = T(u).v and u vee v = H(Tu, Tv) on basis tuples of the module."""
    m = setup.module_dim
    circ_vals = {(i, j): act_on_basis_dense(setup.rep, t.col(i), j) for i in range(m) for j in range(m)}
    vee_vals = {(i, j): skew_eval_dense(setup.cocycle, [t.col(i), t.col(j)]) for i, j in ext_basis(m, 2)}
    return _ns_tables(m, circ_vals, vee_vals)


def adjacent_tables(ns) -> tuple[Cochain, tuple[Matrix, ...]]:
    """The adjacent bracket x*y on basis pairs and the action matrices of x circ -, by dense evaluation."""
    dim = ns.dim
    basis = [basis_vector(dim, i) for i in range(dim)]
    star = {(i, j): star_dense(ns, basis[i], basis[j]) for i, j in ext_basis(dim, 2)}
    action = tuple(
        Matrix.from_cols([bilinear_eval_dense(ns.circ, basis[i], basis[j]) for j in range(dim)], rows=dim)
        for i in range(dim)
    )
    return Cochain.from_values(2, dim, dim, star), action


# -- derived maps by vector arithmetic ----------------------------------------


def ad(algebra, i: int) -> Matrix:
    """Matrix of ad(e_i), column j the bracket [e_i, e_j] through `Cochain.value_on_tuple`."""
    cols = [algebra.bracket.value_on_tuple((i, j)) for j in range(algebra.dim)]
    return Matrix.from_cols(cols, rows=algebra.dim)


def coadjoint_action(algebra) -> tuple[Matrix, ...]:
    """The coadjoint action matrices -ad(e_i)^T, negated and transposed in Fractions."""
    return tuple((-ad(algebra, i)).transpose() for i in range(algebra.dim))


def psi_sharp(algebra, psi: Cochain) -> Cochain:
    """The 2-cochain (i, j) -> (psi(e_i, e_j, e_k))_k, each value through `Cochain.value_on_tuple`."""
    dim = algebra.dim
    values = {}
    for i, j in ext_basis(dim, 2):
        values[(i, j)] = tuple(psi.value_on_tuple((i, j, k))[0] for k in range(dim))
    return Cochain.from_values(2, dim, dim, values)


def twisted_semidirect_cochain(setup) -> Cochain:
    """[(x,u),(y,v)] = ([x,y], x.v - y.u + H(x,y)) on g + M from the value vectors on each basis pair."""
    n, m = setup.dim, setup.module_dim
    values = {}
    for i, j in ext_basis(n, 2):
        values[(i, j)] = bracket_basis(setup.algebra, i, j) + setup.cocycle.value_on_basis((i, j))
    for i in range(n):
        for a in range(m):
            values[(i, n + a)] = zero_vector(n) + act_basis(setup.rep, i, a)
    return Cochain.from_values(2, n + m, n + m, values)


def embed(setup, p: Cochain) -> Cochain:
    """A map wedge^p M -> g as a skew map on g (+) M (g first), value by value."""
    n = setup.dim
    big = n + setup.module_dim
    vals = {}
    for t in ext_basis(big, p.degree):
        if all(i >= n for i in t):
            v = p.value_on_basis(tuple(i - n for i in t))
            vals[t] = tuple(v) + zero_vector(setup.module_dim)
    return Cochain.from_values(p.degree, big, big, vals)


def restrict(setup, a: Cochain) -> Cochain:
    """A skew map on g (+) M with inputs restricted to M and values projected to g; zero outside range."""
    n, m = setup.dim, setup.module_dim
    out_deg = a.degree
    if out_deg < 0 or out_deg > m:
        return Cochain.zero(out_deg, m, n)
    vals = {}
    for t in ext_basis(m, out_deg):
        vals[t] = a.value_on_basis(tuple(i + n for i in t))[:n]
    return Cochain.from_values(out_deg, m, n, vals)


def block(j) -> Matrix:
    """J = [[N, T], [sigma, -S]] from its rows, each the rows of two blocks side by side."""
    n = j.n_map.rows
    m = j.s_map.rows
    rows = []
    for i in range(n):
        rows.append(list(j.n_map.row(i)) + list(j.t_map.row(i)))
    for a in range(m):
        rows.append(list(j.sigma.row(a)) + [-x for x in j.s_map.row(a)])
    return Matrix.from_rows(rows)


def int_table(op) -> tuple[dict, int, tuple[int, ...], int]:
    """The integer table of `op` read off the dense Fraction scan `_table`: each coefficient times the
    lcm of the map's denominators, then that lcm, the argument dimensions and the target dimension."""
    table, dims, rows = _table(op)
    scale = math.lcm(*(x.denominator for col in table.values() for _, x in col))
    return {key: {row: int(x * scale) for row, x in col} for key, col in table.items()}, scale, dims, rows


# -- identity defects, one evaluation and one vector temporary per term -----


def tgcs_component_defects(s, j) -> dict:
    """Equations (5)-(10) of the component characterization, keyed by kind."""
    n = s.dim
    nm, tm, sg, sm = j.n_map, j.t_map, j.sigma, j.s_map

    # (5) [Tu,Tv] = T(Tu.v - Tv.u)
    def eq5(a: int, b: int) -> Vector:
        tu, tv = tm.col(a), tm.col(b)
        inner = vec_sub(act_on_basis_dense(s.rep, tu, b), act_on_basis_dense(s.rep, tv, a))
        return vec_sub(bracket_dense(s.algebra, tu, tv), tm.apply(inner))

    # (6) Tu.Sv - Tv.Su - H(Tu,Tv) = S(Tu.v - Tv.u)
    def eq6(a: int, b: int) -> Vector:
        tu, tv = tm.col(a), tm.col(b)
        lhs = vec_sub(act_dense(s.rep, tu, sm.col(b)), act_dense(s.rep, tv, sm.col(a)))
        lhs = vec_sub(lhs, skew_eval_dense(s.cocycle, [tu, tv]))
        inner = vec_sub(act_on_basis_dense(s.rep, tu, b), act_on_basis_dense(s.rep, tv, a))
        return vec_sub(lhs, sm.apply(inner))

    # (7) [Nx,Tu] - N[x,Tu] = T(Nx.u - x.Su + H(x,Tu))
    def eq7(i: int, a: int) -> Vector:
        x = basis_vector(n, i)
        tu = tm.col(a)
        lhs = vec_sub(bracket_dense(s.algebra, nm.col(i), tu), nm.apply(bracket_dense(s.algebra, x, tu)))
        inner = vec_sub(act_on_basis_dense(s.rep, nm.col(i), a), act_dense(s.rep, x, sm.col(a)))
        inner = vec_add(inner, skew_eval_dense(s.cocycle, [x, tu]))
        return vec_sub(lhs, tm.apply(inner))

    # (8) sigma[Tu,x] - Tu.sigma(x) - H(Tu,Nx) = x.u + Nx.Su - S(Nx.u - x.Su + H(x,Tu))
    def eq8(i: int, a: int) -> Vector:
        x = basis_vector(n, i)
        tu = tm.col(a)
        lhs = sg.apply(bracket_dense(s.algebra, tu, x))
        lhs = vec_sub(lhs, act_dense(s.rep, tu, sg.col(i)))
        lhs = vec_sub(lhs, skew_eval_dense(s.cocycle, [tu, nm.col(i)]))
        rhs = vec_add(act_basis(s.rep, i, a), act_dense(s.rep, nm.col(i), sm.col(a)))
        inner = vec_sub(act_on_basis_dense(s.rep, nm.col(i), a), act_dense(s.rep, x, sm.col(a)))
        inner = vec_add(inner, skew_eval_dense(s.cocycle, [x, tu]))
        rhs = vec_sub(rhs, sm.apply(inner))
        return vec_sub(lhs, rhs)

    # (9) [Nx,Ny] - [x,y] - N([Nx,y] + [x,Ny]) = T(x.sigma(y) - y.sigma(x) + H(x,Ny) - H(y,Nx))
    def eq9(i: int, k: int) -> Vector:
        x, y = basis_vector(n, i), basis_vector(n, k)
        lhs = vec_sub(bracket_dense(s.algebra, nm.col(i), nm.col(k)), bracket_basis(s.algebra, i, k))
        mix = vec_add(bracket_dense(s.algebra, nm.col(i), y), bracket_dense(s.algebra, x, nm.col(k)))
        lhs = vec_sub(lhs, nm.apply(mix))
        inner = vec_sub(act_dense(s.rep, x, sg.col(k)), act_dense(s.rep, y, sg.col(i)))
        inner = vec_add(inner, skew_eval_dense(s.cocycle, [x, nm.col(k)]))
        inner = vec_sub(inner, skew_eval_dense(s.cocycle, [y, nm.col(i)]))
        return vec_sub(lhs, tm.apply(inner))

    # (10) Nx.sigma(y) - Ny.sigma(x) + H(Nx,Ny) - H(x,y) - sigma([Nx,y] + [x,Ny])
    #      = -S(x.sigma(y) - y.sigma(x) + H(x,Ny) - H(y,Nx))
    def eq10(i: int, k: int) -> Vector:
        x, y = basis_vector(n, i), basis_vector(n, k)
        lhs = vec_sub(act_dense(s.rep, nm.col(i), sg.col(k)), act_dense(s.rep, nm.col(k), sg.col(i)))
        lhs = vec_add(lhs, skew_eval_dense(s.cocycle, [nm.col(i), nm.col(k)]))
        lhs = vec_sub(lhs, s.cocycle.value_on_basis((i, k)))
        mix = vec_add(bracket_dense(s.algebra, nm.col(i), y), bracket_dense(s.algebra, x, nm.col(k)))
        lhs = vec_sub(lhs, sg.apply(mix))
        inner = vec_sub(act_dense(s.rep, x, sg.col(k)), act_dense(s.rep, y, sg.col(i)))
        inner = vec_add(inner, skew_eval_dense(s.cocycle, [x, nm.col(k)]))
        inner = vec_sub(inner, skew_eval_dense(s.cocycle, [y, nm.col(i)]))
        return vec_add(lhs, sm.apply(inner))

    return {
        "[Tu,Tv] = T(Tu.v - Tv.u)": eq5,
        "Tu.Sv - Tv.Su - H(Tu,Tv) = S(Tu.v - Tv.u)": eq6,
        "[Nx,Tu] - N[x,Tu] = T(Nx.u - x.Su + H(x,Tu))": eq7,
        "sigma[Tu,x] - Tu.sigma(x) - H(Tu,Nx) = ...": eq8,
        "nijenhuis-type = T(...)": eq9,
        "dual-nijenhuis-type = -S(...)": eq10,
    }


def complex_structure_defects(algebra, rep, i_map: Matrix, i_mod: Matrix) -> dict:
    """Integrability of I and its compatibility with I_M, keyed by kind."""
    n = algebra.dim

    def integrability(a: int, b: int) -> Vector:
        x, y = basis_vector(n, a), basis_vector(n, b)
        defect = vec_sub(bracket_dense(algebra, i_map.col(a), i_map.col(b)), bracket_basis(algebra, a, b))
        mix = vec_add(bracket_dense(algebra, i_map.col(a), y), bracket_dense(algebra, x, i_map.col(b)))
        return vec_sub(defect, i_map.apply(mix))

    def compatibility(a: int, u: int) -> Vector:
        x = basis_vector(n, a)
        lhs = act_dense(rep, i_map.col(a), i_mod.col(u))
        lhs = vec_sub(lhs, act_basis(rep, a, u))
        inner = vec_add(act_on_basis_dense(rep, i_map.col(a), u), act_dense(rep, x, i_mod.col(u)))
        return vec_sub(lhs, i_mod.apply(inner))

    return {"integrability of I": integrability, "I(x).I_M(u) - x.u - I_M(I(x).u + x.I_M(u)) = 0": compatibility}


def ns_defects(ns) -> dict:
    """NS1 and NS2, keyed by kind."""
    circ, dim = ns.circ, ns.dim

    def unit(i: int) -> Vector:
        return basis_vector(dim, i)

    def ns1(i: int, j: int, k: int) -> Vector:
        """(x o y) o z - x o (y o z) - (y o x) o z + y o (x o z) + (x vee y) o z."""
        out = bilinear_eval_dense(circ, circ.value_on_basis(i, j), unit(k))
        out = vec_sub(out, bilinear_eval_dense(circ, unit(i), circ.value_on_basis(j, k)))
        out = vec_sub(out, bilinear_eval_dense(circ, circ.value_on_basis(j, i), unit(k)))
        out = vec_add(out, bilinear_eval_dense(circ, unit(j), circ.value_on_basis(i, k)))
        return vec_add(out, bilinear_eval_dense(circ, ns.vee.value_on_tuple((i, j)), unit(k)))

    def ns2(i: int, j: int, k: int) -> Vector:
        """x vee (y*z) + cyclic + x circ (y vee z) + cyclic."""
        total = zero_vector(dim)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # e_a vee (e_b * e_c) = -vee(e_b * e_c, e_a)
            total = vec_sub(total, eval_mixed_dense(ns.vee, star_dense(ns, unit(b), unit(c)), (a,)))
            total = vec_add(total, bilinear_eval_dense(circ, unit(a), ns.vee.value_on_tuple((b, c))))
        return total

    return {"NS1": ns1, "NS2": ns2}


def assoc_ns_defects(a) -> dict:
    """The four associative NS identities, keyed by name."""
    basis = [basis_vector(a.dim, i) for i in range(a.dim)]
    prec, succ, box = (partial(bilinear_eval_dense, b) for b in (a.prec, a.succ, a.box))

    def star_all(x, y) -> Vector:
        return vec_add(vec_add(prec(x, y), succ(x, y)), box(x, y))

    def prec_assoc(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(prec(prec(x, y), z), prec(x, star_all(y, z)))

    def succ_prec(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(prec(succ(x, y), z), succ(x, prec(y, z)))

    def succ_assoc(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(succ(star_all(x, y), z), succ(x, succ(y, z)))

    def box_identity(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(
            vec_add(prec(box(x, y), z), box(star_all(x, y), z)),
            vec_add(succ(x, box(y, z)), box(x, star_all(y, z))),
        )

    return {"prec-assoc": prec_assoc, "succ-prec": succ_prec, "succ-assoc": succ_assoc, "box": box_identity}


def order_defect(d, n: int, i: int, j: int) -> Vector:
    """Coefficient of t^n in the twisted Rota-Baxter defect at (u_i, u_j)."""
    s = d.setup
    lhs = zero_vector(s.dim)
    for a in range(n + 1):
        ta, tb = d.coefficient(a), d.coefficient(n - a)
        lhs = vec_add(lhs, bracket_dense(s.algebra, ta.col(i), tb.col(j)))
    rhs = zero_vector(s.dim)
    for a in range(n + 1):
        ta, tb = d.coefficient(a), d.coefficient(n - a)
        inner = vec_sub(act_on_basis_dense(s.rep, tb.col(i), j), act_on_basis_dense(s.rep, tb.col(j), i))
        rhs = vec_add(rhs, ta.apply(inner))
    for a in range(n + 1):
        for b in range(n + 1 - a):
            ta, tb, tc = d.coefficient(a), d.coefficient(b), d.coefficient(n - a - b)
            rhs = vec_add(rhs, ta.apply(skew_eval_dense(s.cocycle, [tb.col(i), tc.col(j)])))
    return vec_sub(lhs, rhs)


def nijenhuis_element_defects(s, t: Matrix, x, induced_action) -> dict:
    """The Nijenhuis-element identities for a fixed x, keyed by kind."""
    xv = vector(x)
    n = s.dim

    # [x, u .bar x] = 0 for all u
    def bracket_action(a: int) -> Vector:
        ubar_x = zero_vector(n)
        for k, c in enumerate(xv):
            if c != 0:
                ubar_x = vec_add(ubar_x, vec_scale(c, induced_action[a].col(k)))
        return bracket_dense(s.algebra, xv, ubar_x)

    # [[x,y],[x,z]] = 0 for all y, z
    def lie_hom(i: int, j: int) -> Vector:
        y, z = basis_vector(n, i), basis_vector(n, j)
        return bracket_dense(s.algebra, bracket_dense(s.algebra, xv, y), bracket_dense(s.algebra, xv, z))

    # H(x, T(y.u)) = y.H(x, Tu) for all y, u
    def action_pre_1(i: int, a: int) -> Vector:
        lhs = skew_eval_dense(s.cocycle, [xv, t.apply(act_basis(s.rep, i, a))])
        return vec_sub(lhs, s.rep.action[i].apply(skew_eval_dense(s.cocycle, [xv, t.col(a)])))

    # [x,y].(x.u + H(x,Tu)) = 0 for all y, u
    def action_pre_2(i: int, a: int) -> Vector:
        xy = bracket_dense(s.algebra, xv, basis_vector(n, i))
        inner = vec_add(act_on_basis_dense(s.rep, xv, a), skew_eval_dense(s.cocycle, [xv, t.col(a)]))
        return act_dense(s.rep, xy, inner)

    # x.H(y,z) + H(x, T H(y,z)) = H([x,y], z) + H(y, [x,z]) for all y, z
    def twist_compat_1(i: int, j: int) -> Vector:
        hyz = s.cocycle.value_on_basis((i, j))
        lhs = vec_add(act_dense(s.rep, xv, hyz), skew_eval_dense(s.cocycle, [xv, t.apply(hyz)]))
        rhs = vec_add(
            eval_mixed_dense(s.cocycle, bracket_dense(s.algebra, xv, basis_vector(n, i)), (j,)),
            vec_scale(-1, eval_mixed_dense(s.cocycle, bracket_dense(s.algebra, xv, basis_vector(n, j)), (i,))),
        )
        return vec_sub(lhs, rhs)

    # H([x,y], [x,z]) = 0 for all y, z
    def twist_compat_2(i: int, j: int) -> Vector:
        y, z = basis_vector(n, i), basis_vector(n, j)
        return skew_eval_dense(s.cocycle, [bracket_dense(s.algebra, xv, y), bracket_dense(s.algebra, xv, z)])

    return {
        "[x, u.x] = 0": bracket_action,
        "[[x,y],[x,z]] = 0": lie_hom,
        "H(x,T(y.u)) = y.H(x,Tu)": action_pre_1,
        "[x,y].(x.u + H(x,Tu)) = 0": action_pre_2,
        "x.H(y,z)+H(x,TH(y,z)) = H([x,y],z)+H(y,[x,z])": twist_compat_1,
        "H([x,y],[x,z]) = 0": twist_compat_2,
    }


def transport_defects(s, t: Matrix, t1: Matrix, t1p: Matrix, x) -> dict:
    """The two transport identities of an equivalence, keyed by kind."""
    xv = vector(x)

    # T_1(u) + [x, Tu] = T(x.u + H(x,Tu)) + T_1'(u)
    def transport(a: int) -> Vector:
        lhs = vec_add(t1.col(a), bracket_dense(s.algebra, xv, t.col(a)))
        inner = vec_add(act_on_basis_dense(s.rep, xv, a), skew_eval_dense(s.cocycle, [xv, t.col(a)]))
        return vec_sub(lhs, vec_add(t.apply(inner), t1p.col(a)))

    # [x, T_1(u)] = T_1'(x.u + H(x,Tu))
    def transport_higher(a: int) -> Vector:
        inner = vec_add(act_on_basis_dense(s.rep, xv, a), skew_eval_dense(s.cocycle, [xv, t.col(a)]))
        return vec_sub(bracket_dense(s.algebra, xv, t1.col(a)), t1p.apply(inner))

    return {"T1(u)+[x,Tu] = T(x.u+H(x,Tu))+T1'(u)": transport, "[x,T1(u)] = T1'(x.u+H(x,Tu))": transport_higher}


def deformed_bracket_value(algebra, n_op: Matrix, i: int, j: int) -> Vector:
    """[Nx,y] + [x,Ny] - N[x,y] on a basis pair."""
    mixed = partial(eval_mixed_dense, algebra.bracket)
    v = vec_sub(mixed(n_op.col(i), (j,)), mixed(n_op.col(j), (i,)))
    return vec_sub(v, n_op.apply(bracket_basis(algebra, i, j)))


def nijenhuis_defect(algebra, n_op: Matrix, i: int, j: int) -> Vector:
    """[Nx,Ny] - N([Nx,y] + [x,Ny] - N[x,y]) on a basis pair."""
    lhs = bracket_dense(algebra, n_op.col(i), n_op.col(j))
    return vec_sub(lhs, n_op.apply(deformed_bracket_value(algebra, n_op, i, j)))


def derivation_defect(algebra, d: Matrix, i: int, j: int) -> Vector:
    """d[x,y] - [dx,y] - [x,dy] on a basis pair."""
    mixed = partial(eval_mixed_dense, algebra.bracket)
    rhs = vec_sub(mixed(d.col(i), (j,)), mixed(d.col(j), (i,)))
    return vec_sub(d.apply(bracket_basis(algebra, i, j)), rhs)


def reynolds_defect(algebra, r: Matrix, i: int, j: int) -> Vector:
    """[Rx,Ry] - R([Rx,y] + [x,Ry] - [Rx,Ry]) on a basis pair."""
    rx, ry = r.col(i), r.col(j)
    lhs = bracket_dense(algebra, rx, ry)
    mixed = partial(eval_mixed_dense, algebra.bracket)
    inner = vec_sub(mixed(rx, (j,)), mixed(ry, (i,)))
    return vec_sub(lhs, r.apply(vec_sub(inner, lhs)))


def _table(op) -> tuple[dict, tuple[int, ...], int]:
    """Sparse table {argument index or index tuple: nonzero (output index, coefficient)} of a map,
    with the map's argument dimensions and target dimension.

    `op` is a Matrix (linear), a Bilinear, a Representation (liealg), where
    the pair (x, u) maps to rho(e_x) e_u, or a Cochain of degree p >= 1: its
    matrix as a linear map for p = 1, and for p >= 2 every ordering of each
    basis tuple, signed by its permutation.  A degree-0 cochain is a
    constant, not a map.
    """
    if isinstance(op, Matrix):
        blocks, dims = [(op, range(op.cols), 1)], (op.cols,)
    elif isinstance(op, Cochain):
        if op.degree < 1:
            raise DimensionMismatch(f"a degree-{op.degree} cochain applied as a map")
        blocks = [(op.matrix, keys, sign) for keys, sign in _orderings(op.source_dim, op.degree)]
        dims = (op.source_dim,) * op.degree
    elif isinstance(op, Bilinear):
        blocks = [(op.matrix, [divmod(j, op.source_dim) for j in range(op.matrix.cols)], 1)]
        dims = (op.source_dim, op.source_dim)
    else:
        action = op.action
        blocks = [(rho, [(x, u) for u in range(rho.cols)], 1) for x, rho in enumerate(action)]
        dims = (len(action), action[0].cols)
    table: dict = {}
    for matrix, keys, sign in blocks:
        for idx, x in enumerate(matrix.entries):
            if x:
                row, col = divmod(idx, matrix.cols)
                table.setdefault(keys[col], []).append((row, x if sign > 0 else -x))
    return table, dims, blocks[0][0].rows


def term_defect_fraction(terms: list) -> Callable[..., Vector]:
    """`multilin.term_defect` with every value a Fraction: no scales, each sign applied to each entry,
    and an op's value summed over every combination of its arguments' entries, one at a time."""
    tables: dict[int, tuple[dict, tuple[int, ...], int]] = {}

    def compile(expr) -> tuple[object, int | None]:
        """The evaluation node of expr and its dimension (None for a slot)."""
        if isinstance(expr, int):
            return expr, None
        if isinstance(expr, list):
            parts = [(sign, compile(e)) for sign, e in expr]
            dims = {dim for _, (_, dim) in parts} - {None}
            if len(dims) > 1:
                raise DimensionMismatch(f"terms of dimensions {sorted(dims)} added")
            return [(sign, node) for sign, (node, _) in parts], dims.pop() if dims else None
        if not expr or isinstance(expr[0], Fraction):
            return {i: x for i, x in enumerate(expr) if x}, len(expr)
        if id(expr[0]) not in tables:
            tables[id(expr[0])] = _table(expr[0])
        table, arg_dims, dim = tables[id(expr[0])]
        args = [compile(a) for a in expr[1:]]
        if len(args) != len(arg_dims) or any(d not in (None, want) for (_, d), want in zip(args, arg_dims)):
            raise DimensionMismatch(f"a map on dimensions {arg_dims} applied to {[d for _, d in args]}")
        return (table, *(node for node, _ in args)), dim

    def value(node, case) -> dict[int, Fraction]:
        if isinstance(node, int):
            return {case[node]: ONE}
        if isinstance(node, dict):
            return node
        if isinstance(node, list):
            items = [(k, x if sign > 0 else -x) for sign, e in node for k, x in value(e, case).items()]
        else:
            table, args = node[0], [value(a, case) for a in node[1:]]
            items = []
            for combo in itertools.product(*(arg.items() for arg in args)):
                key = combo[0][0] if len(combo) == 1 else tuple(k for k, _ in combo)
                coeff = math.prod(x for _, x in combo)
                items += [(k, coeff * y) for k, y in table.get(key, ())]
        out: dict[int, Fraction] = {}
        for k, x in items:
            out[k] = out[k] + x if k in out else x
        return out

    root, dim = compile(list(terms))

    def defect(*case) -> Vector:
        sums = value(root, case)
        return tuple(sums.get(k, ZERO) for k in range(dim))

    return defect
