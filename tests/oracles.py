"""Independent oracles used by the test suite.

Nothing here imports the package's machinery on the code path it checks:
the rank and RREF oracles are straight-line Gaussian eliminations on dense
Fraction lists (the library eliminates on sparse rows), the ternary-bracket
oracle is a literal transcription of the six-unshuffle-sum display (valid
for degrees >= 1), the Chevalley-Eilenberg matrix oracle applies the
alternating-sum formula to each unit cochain (the library assembles the
matrix from structure constants), and the d_T matrix oracle pushes unit
cochains through the L-infinity brackets, where the library builds the
matrix as a Chevalley-Eilenberg differential.  The dense evaluation oracles
walk every index tuple and every matrix entry, where the library's kernels
visit only the nonzero coordinates.  The term-by-term defect oracles build
each identity from one evaluation and one vector or matrix temporary per
term, where the library accumulates each defect in one list.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from twistrb.exactlin import ZERO, Matrix, Vector, scalar, vec_add, vec_scale, vec_sub, vector, zero_vector
from twistrb.liealg import ce_differential_cochain
from twistrb.linfty import d_t_unchecked
from twistrb.multilin import Bilinear, Cochain, ext_basis, iter_unshuffles


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
        lambda f: ce_differential_cochain(algebra.bracket, rep, f), n, algebra.dim, rep.module_dim
    )


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
                hv = h.skew_eval([lv, rv])
                rest = tuple(us[k] for k in word[a + b :])
                total = vec_add(
                    total, vec_scale(Fraction(coeff * sgn), outer.eval_mixed(hv, rest))
                )
        cols.append(vec_scale(prefactor, total))
    return Cochain(out_deg, m, n, Matrix.from_cols(cols, rows=n))


# -- dense evaluation ---------------------------------------------------


def skew_eval_dense(f: Cochain, args) -> Vector:
    """Sum over all source_dim^degree index tuples of the coefficient times f(tuple)."""
    vs = [vector(a) for a in args]
    if f.degree == 0:
        return f.matrix.col(0)
    out = zero_vector(f.target_dim)
    for idx in itertools.product(range(f.source_dim), repeat=f.degree):
        coeff = Fraction(1)
        for k, i in enumerate(idx):
            coeff *= vs[k][i]
        if coeff != 0:
            out = vec_add(out, vec_scale(coeff, f.value_on_tuple(idx)))
    return out


def eval_mixed_dense(f: Cochain, first, rest) -> Vector:
    """f(first, e_rest...) as the sum of first_i f(e_i, e_rest...)."""
    out = zero_vector(f.target_dim)
    for i, c in enumerate(first):
        if c != 0:
            out = vec_add(out, vec_scale(scalar(c), f.value_on_tuple((i, *rest))))
    return out


def bilinear_eval_dense(b: Bilinear, x, y) -> Vector:
    out = zero_vector(b.target_dim)
    for i, a in enumerate(vector(x)):
        for j, c in enumerate(vector(y)):
            if a * c != 0:
                out = vec_add(out, vec_scale(a * c, b.value_on_basis(i, j)))
    return out


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
    out = zero_vector(rep.module_dim)
    for c, rho in zip(vector(x), rep.action):
        out = vec_add(out, vec_scale(c, apply_dense(rho, u)))
    return out


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
            total = vec_add(total, vec_scale(Fraction(sgn), a.eval_mixed(bv, rest)))
        cols.append(total)
    return Cochain(arity, big, big, Matrix.from_cols(cols, rows=big))


def rep_defect_matrices(algebra, module_dim: int, action, i: int, j: int) -> tuple:
    """rho([e_i,e_j]) - (rho(e_i)rho(e_j) - rho(e_j)rho(e_i)) through Matrix temporaries."""
    lhs = Matrix.zero(module_dim, module_dim)
    for k, c in enumerate(algebra.bracket_basis(i, j)):
        if c != 0:
            lhs = lhs + action[k].scale(c)
    rhs = action[i] @ action[j] - action[j] @ action[i]
    return (lhs - rhs).entries


def jacobi_defect_terms(bracket: Cochain, i: int, j: int, k: int) -> Vector:
    """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]], one vector sum per term."""
    total = zero_vector(bracket.target_dim)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = bracket.value_on_tuple((b, c))
        total = vec_add(total, bracket.eval_mixed(inner, (a,)))
    return total


def trb_defect_terms(setup, t: Matrix, i: int, j: int) -> Vector:
    """[Tu_i, Tu_j] - T(Tu_i . u_j - Tu_j . u_i + H(Tu_i, Tu_j)), one vector per term."""
    tu = t.col(i)
    tv = t.col(j)
    lhs = setup.algebra.bracket_vec(tu, tv)
    inner = vec_sub(setup.rep.act_vec_on_basis(tu, j), setup.rep.act_vec_on_basis(tv, i))
    inner = vec_add(inner, setup.cocycle.skew_eval([tu, tv]))
    return vec_sub(lhs, t.apply(inner))
