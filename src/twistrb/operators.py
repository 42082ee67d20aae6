"""Twisted Rota-Baxter operators and their companions.

A setup bundles a Lie algebra g, a module M with its action, and a skew
2-cochain H with values in M that must be closed.  An operator is a linear
map T : M -> g given by its dim(g) x dim(M) matrix.  The defining identity is

    [T(u), T(v)] = T( T(u).v - T(v).u + H(Tu, Tv) )

checked on all basis pairs.  Reynolds operators are the special case where M
is the adjoint module and H = -bracket; twisted triangular r-matrices are the
special case where M is the coadjoint module and H comes from a scalar
3-cocycle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .errors import (
    InternalInconsistency,
    InvalidStructure,
    NotAdmissible,
    NotCocycle,
    NotDerivation,
    NotSkew,
    NotTwistedRB,
    SingularMatrix,
)
from .exactlin import Matrix, _from_table, vector
from .liealg import (
    LieAlgebra,
    Representation,
    _ce_terms,
    adjoint_rep,
    coadjoint_rep,
    ce_differential_cochain,
    deformed_bracket,
    derivation_check,
    is_two_cocycle,
    lie_algebra_from_cochain,
    nilpotency_index,
    validate_rep,
)
from .multilin import Cochain, _int_table, _tuple_index, ext_basis, tabulate, term_defect
from .report import CheckReport, Violation, first_failure

Operator = Matrix


@dataclass(frozen=True)
class TrbSetup:
    """Ambient data (g, M, action, H) an operator is tested against."""

    algebra: LieAlgebra
    rep: Representation
    cocycle: Cochain

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def module_dim(self) -> int:
        return self.rep.module_dim

    def operator_shape(self) -> tuple[int, int]:
        return (self.algebra.dim, self.rep.module_dim)


def trb_setup(algebra: LieAlgebra, rep: Representation, cocycle: Cochain | None = None) -> TrbSetup:
    """Validating constructor: the action and the cocycle are re-checked.

    The setup keeps the checked representation, which equals `rep`, so later
    checks read the integer table its validation built.
    """
    checked = validate_rep(algebra, rep.module_dim, rep.action)
    if isinstance(checked, Violation):
        raise InvalidStructure(checked.describe())
    return _closed_setup(algebra, checked, cocycle)


def _closed_setup(algebra: LieAlgebra, rep: Representation, cocycle: Cochain | None) -> TrbSetup:
    """The setup of a representation already validated, once its cocycle is checked closed."""
    if cocycle is None:
        cocycle = Cochain.zero(2, algebra.dim, rep.module_dim)
    if cocycle.source_dim != algebra.dim or cocycle.target_dim != rep.module_dim or cocycle.degree != 2:
        raise InvalidStructure("cocycle shape does not match the setup")
    closed = is_two_cocycle(algebra, rep, cocycle)
    if not closed:
        raise NotCocycle(closed.violation.describe())
    return TrbSetup(algebra, rep, cocycle)


def _coadjoint_setup(algebra: LieAlgebra, psi: Cochain) -> TrbSetup:
    """The setup over the coadjoint module twisted by psi-sharp.

    `coadjoint_rep` validates the action it returns, so only the cocycle is
    checked here.
    """
    return _closed_setup(algebra, coadjoint_rep(algebra), psi_sharp(algebra, psi))


def _check_shape(setup: TrbSetup, t: Operator) -> None:
    rows, cols = setup.operator_shape()
    if t.rows != rows or t.cols != cols:
        raise InvalidStructure(
            f"operator must be {rows}x{cols}, got {t.rows}x{t.cols}"
        )


def bracket_terms(setup: TrbSetup, ts: Sequence[Operator], n: int) -> list:
    """Coefficient of t^n in [u,v]_T = Tu.v - Tv.u + H(Tu,Tv) for T = sum_k t^k ts[k], as signed terms.

    u and v are the basis vectors in slots 0 and 1.  Only the stored
    coefficients enter, so past order 2(len(ts) - 1) there are no terms.
    """
    rho, h, k = setup.rep, setup.cocycle, len(ts)
    terms = [(1, (rho, (ts[n], 0), 1)), (-1, (rho, (ts[n], 1), 0))] if 0 <= n < k else []
    return terms + [(1, (h, (ts[a], 0), (ts[n - a], 1))) for a in range(k) if 0 <= n - a < k]


def trb_terms(setup: TrbSetup, ts: Sequence[Operator], n: int) -> list:
    """Coefficient of t^n in [Tu,Tv] - T[u,v]_T for T = sum_k t^k ts[k], as signed terms on slots 0 and 1.

    With (T,) and n = 0 this is the defining identity; with a deformation's
    coefficients it is the order-n deformation equation.  Past order
    3(len(ts) - 1) there are no terms: the coefficient vanishes identically.
    """
    c, k = setup.algebra.bracket, len(ts)
    terms = [(1, (c, (ts[a], 0), (ts[n - a], 1))) for a in range(k) if 0 <= n - a < k]
    return terms + [(-1, (ts[a], inner)) for a in range(k) if (inner := bracket_terms(setup, ts, n - a))]


def check_trb(setup: TrbSetup, t: Operator) -> CheckReport:
    """The defining identity on all basis pairs, first defect as witness."""
    _check_shape(setup, t)
    return first_failure("twisted Rota-Baxter", ext_basis(setup.module_dim, 2), term_defect(trb_terms(setup, (t,), 0)))


def require_trb(setup: TrbSetup, t: Operator) -> None:
    rep = check_trb(setup, t)
    if not rep:
        raise NotTwistedRB(rep.violation.describe())


def twisted_semidirect_cochain(setup: TrbSetup) -> Cochain:
    """Bracket [(x,u),(y,v)] = ([x,y], x.v - y.u + H(x,y)) on g + M, unvalidated.

    Coordinates 0..dim-1 are g, the rest are M.  The integer tables of the
    bracket, H and the action are brought to the lcm of their scales and
    re-keyed by the pairs of g + M: a pair in g takes the bracket in the g
    rows and H in the M rows, a pair (x, u) the column rho(e_x) e_u in the
    M rows, and a pair in M is zero.
    """
    n, m = setup.dim, setup.module_dim
    big = n + m
    brackets, s_bracket = _int_table(setup.algebra.bracket.matrix)[:2]
    twists, s_twist = _int_table(setup.cocycle.matrix)[:2]
    actions, s_action = _int_table(setup.rep)[:2] if setup.rep.action else ({}, 1)
    scale = lcm(s_bracket, s_twist, s_action)
    f_bracket, f_twist, f_action = scale // s_bracket, scale // s_twist, scale // s_action
    index = _tuple_index(big, 2)
    table = {}
    for j, pair in enumerate(ext_basis(n, 2)):
        column = {row: f_bracket * x for row, x in brackets.get(j, {}).items()}
        column.update((n + row, f_twist * x) for row, x in twists.get(j, {}).items())
        if column:
            table[index[pair]] = column
    for (x, u), col in actions.items():
        table[index[x, n + u]] = {n + row: f_action * y for row, y in col.items()}
    return Cochain(2, big, big, _from_table(big, comb(big, 2), table, scale))


def twisted_semidirect(setup: TrbSetup) -> LieAlgebra:
    """The twisted semidirect product g + M, with Jacobi re-validated."""
    bracket = twisted_semidirect_cochain(setup)
    try:
        return lie_algebra_from_cochain(bracket)
    except InvalidStructure as exc:
        raise InvalidStructure(f"twisted semidirect product broke Jacobi: {exc}") from None


def graph_subalgebra_check(setup: TrbSetup, t: Operator) -> bool:
    """Closure of {(Tu, u)} under the semidirect bracket, via a rank test.

    Independent oracle for check_trb: goes through the semidirect product's
    structure constants and exact rank computations only.  The brackets of
    all pairs of spanning vectors are tabulated at once, and the graph is
    closed when adjoining them leaves the rank m (the spanning vectors' M rows are I).
    """
    _check_shape(setup, t)
    semi = twisted_semidirect(setup)
    n, m = setup.dim, setup.module_dim
    span_cols = [tuple(t.col(a)) + tuple(1 if b == a else 0 for b in range(m)) for a in range(m)]
    span = Matrix.from_cols([vector(c) for c in span_cols], rows=n + m)
    brackets = tabulate([(1, (semi.bracket, (span, 0), (span, 1)))], ext_basis(m, 2), n + m)
    return len(span._reduced(brackets)) == m


def induced_bracket_cochain(setup: TrbSetup, t: Operator) -> Cochain:
    """[u,v]_T = T(u).v - T(v).u + H(Tu,Tv) as a degree-2 cochain on M."""
    m = setup.module_dim
    return Cochain(2, m, m, tabulate(bracket_terms(setup, (t,), 0), ext_basis(m, 2), m))


def induced_bracket(setup: TrbSetup, t: Operator) -> LieAlgebra:
    """The Lie algebra (M, [.,.]_T); requires the operator check to pass."""
    require_trb(setup, t)
    return lie_algebra_from_cochain(induced_bracket_cochain(setup, t))


def induced_action_matrices(setup: TrbSetup, t: Operator) -> tuple[Matrix, ...]:
    """Action of (M,[.,.]_T) on g: u . x = [Tu, x] + T(x.u + H(x, Tu)), with u in slot 0 and x in slot 1."""
    n, c, rho, h = setup.dim, setup.algebra.bracket, setup.rep, setup.cocycle
    terms = [(1, (c, (t, 0), 1)), (1, (t, [(1, (rho, 1, 0)), (1, (h, 1, (t, 0)))]))]
    return tuple(tabulate(terms, [(a, x) for x in range(n)], n) for a in range(setup.module_dim))


def induced_rep(setup: TrbSetup, t: Operator) -> Representation:
    require_trb(setup, t)
    mats = induced_action_matrices(setup, t)
    algebra = lie_algebra_from_cochain(induced_bracket_cochain(setup, t))
    out = validate_rep(algebra, setup.dim, mats)
    if isinstance(out, Violation):
        raise InvalidStructure(f"induced action is not a representation: {out.describe()}")
    return out


# -- new operators from old ----------------------------------------------


def is_one_cocycle(setup: TrbSetup, b: Matrix) -> bool:
    """True iff delta_CE B(x, y) = x.B(y) - y.B(x) - B([x,y]) vanishes on every basis pair."""
    terms = _ce_terms(setup.algebra.bracket, setup.rep, Cochain.from_matrix_map(b))
    return first_failure("1-cocycle", ext_basis(setup.dim, 2), term_defect(terms)).ok


def gauge_transform(setup: TrbSetup, t: Operator, b: Matrix) -> Operator:
    """T_B = T(id + B.T)^{-1} for a T-admissible 1-cocycle B.

    The transport identity (id + B.T)[u,v]_T = [(id+B.T)u, (id+B.T)v]_{T_B}
    is checked on all basis pairs before returning.
    """
    require_trb(setup, t)
    if b.rows != setup.module_dim or b.cols != setup.dim:
        raise InvalidStructure("gauge cochain must map g to M")
    if not is_one_cocycle(setup, b):
        raise NotCocycle("B is not closed")
    perturbed = Matrix.identity(setup.module_dim) + b @ t
    try:
        inv = perturbed.invert()
    except SingularMatrix as exc:
        raise NotAdmissible("id + B.T is singular") from exc
    t_b = t @ inv
    if not (verdict := check_trb(setup, t_b)):  # T_B passes by the gauge theorem: a failure is a bug
        raise InternalInconsistency(f"the gauge transform fails: {verdict.violation.describe()}")
    after = induced_bracket_cochain(setup, t_b)
    transport = [(1, (perturbed, bracket_terms(setup, (t,), 0))), (-1, (after, (perturbed, 0), (perturbed, 1)))]
    verdict = first_failure("gauge transport", ext_basis(setup.module_dim, 2), term_defect(transport))
    if not verdict.ok:
        raise InternalInconsistency(verdict.violation.describe())
    return t_b


def shift_by_coboundary(setup: TrbSetup, t: Operator, h: Matrix) -> tuple[TrbSetup, Operator]:
    """Move to the (H + delta h)-twisted setup with operator T(id - h.T)^{-1}."""
    require_trb(setup, t)
    if h.rows != setup.module_dim or h.cols != setup.dim:
        raise InvalidStructure("shift cochain must map g to M")
    perturbed = Matrix.identity(setup.module_dim) - h @ t
    try:
        inv = perturbed.invert()
    except SingularMatrix as exc:
        raise NotAdmissible("id - h.T is singular") from exc
    dh = ce_differential_cochain(setup.algebra.bracket, setup.rep, Cochain.from_matrix_map(h))
    shifted = _closed_setup(setup.algebra, setup.rep, setup.cocycle + dh)  # the action is checked already
    t_new = t @ inv
    if not (verdict := check_trb(shifted, t_new)):  # it passes by the shift theorem: a failure is a bug
        raise InternalInconsistency(f"the shifted operator fails: {verdict.violation.describe()}")
    return shifted, t_new


def setup_from_invertible_cochain(
    algebra: LieAlgebra, rep: Representation, h: Matrix
) -> tuple[TrbSetup, Operator]:
    """T = h^{-1} is an operator for the twist H = -delta h."""
    if h.rows != rep.module_dim or h.cols != algebra.dim:
        raise InvalidStructure("h must map g to M")
    t = h.invert()
    dh = ce_differential_cochain(algebra.bracket, rep, Cochain.from_matrix_map(h))
    setup = trb_setup(algebra, rep, -dh)
    require_trb(setup, t)
    return setup, t


def nijenhuis_trb_setup(algebra: LieAlgebra, n_op: Matrix) -> tuple[TrbSetup, Operator]:
    """Setup (g_N acting on g by x.y = [Nx,y], H = -N[.,.]) with T = id.

    `deformed_bracket` checks that N is a Nijenhuis operator; the
    representation and cocycle axioms are re-validated once each, and the
    identity map then passes the twisted Rota-Baxter check.
    """
    g_n = deformed_bracket(algebra, n_op)
    dim, c = algebra.dim, algebra.bracket
    # x.y = [Nx, y] and H(x, y) = -N[x, y]
    action = [tabulate([(1, (c, (n_op, 0), 1))], [(i, j) for j in range(dim)], dim) for i in range(dim)]
    rep = validate_rep(g_n, dim, action)
    if isinstance(rep, Violation):
        raise InvalidStructure(f"Nijenhuis action is not a representation: {rep.describe()}")
    cocycle = Cochain(2, dim, dim, tabulate([(-1, (n_op, (c, 0, 1)))], ext_basis(dim, 2), dim))
    setup = _closed_setup(g_n, rep, cocycle)
    t = Matrix.identity(dim)
    require_trb(setup, t)
    return setup, t


# -- Reynolds operators ----------------------------------------------------


def reynolds_setup(algebra: LieAlgebra) -> TrbSetup:
    """Adjoint module with H = -bracket: its operators are Reynolds operators."""
    cocycle = Cochain(2, algebra.dim, algebra.dim, -algebra.bracket.matrix)
    return trb_setup(algebra, adjoint_rep(algebra), cocycle)


def reynolds_check(algebra: LieAlgebra, r: Matrix) -> CheckReport:
    """[Rx,Ry] = R([Rx,y] + [x,Ry] - [Rx,Ry]), cross-checked via the twisted route.

    Both the direct identity and the (H = -bracket, adjoint) twisted
    Rota-Baxter check are computed; they must agree.
    """
    if r.rows != algebra.dim or r.cols != algebra.dim:
        raise InvalidStructure("Reynolds operator must be square of the algebra dimension")
    c = algebra.bracket
    inner = [(1, (c, (r, 0), 1)), (1, (c, 0, (r, 1))), (-1, (c, (r, 0), (r, 1)))]
    terms = [(1, (c, (r, 0), (r, 1))), (-1, (r, inner))]
    direct = first_failure("reynolds", ext_basis(algebra.dim, 2), term_defect(terms))
    twisted = check_trb(reynolds_setup(algebra), r)
    if direct.ok != twisted.ok:
        raise InternalInconsistency("direct and twisted Reynolds routes disagree")
    return direct


def reynolds_from_derivation(algebra: LieAlgebra, d: Matrix) -> Operator:
    """R = sum_{n<k} (-1)^n d^n for a nilpotent derivation with d^k = 0."""
    check = derivation_check(algebra, d)
    if not check:
        raise NotDerivation(check.violation.describe())
    k = nilpotency_index(d)
    r = Matrix.zero(algebra.dim, algebra.dim)
    power = Matrix.identity(algebra.dim)
    for n in range(k):
        r = r + power.scale(Fraction((-1) ** n))
        power = power @ d
    if not reynolds_check(algebra, r).ok:
        raise InternalInconsistency("the derivation series fails the Reynolds identity")
    return r


@dataclass(frozen=True)
class WittRow:
    m: int
    n: int
    lhs: Fraction
    rhs: Fraction
    induced: Fraction
    ok: bool


def witt_report(n_max: int) -> list[WittRow]:
    """Exact per-pair checks for R(l_m) = l_m/(m+1) on the Witt span l_0, l_1, ...

    Both sides of the Reynolds identity land on the single line l_{m+n}, so
    each pair is one rational identity; the closed forms are asserted too.
    """
    rows = []
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            rm = Fraction(1, m + 1)
            rn = Fraction(1, n + 1)
            br = Fraction(m - n)  # coefficient of l_{m+n} in [l_m, l_n]
            lhs = rm * rn * br
            inner = br * rm + br * rn - rm * rn * br
            rhs = inner * Fraction(1, m + n + 1)
            induced = inner
            expected = Fraction(m - n, (m + 1) * (n + 1))
            expected_ind = Fraction((m - n) * (m + n + 1), (m + 1) * (n + 1))
            ok = lhs == rhs == expected and induced == expected_ind
            rows.append(WittRow(m, n, lhs, rhs, induced, ok))
    return rows


# -- twisted triangular r-matrices ------------------------------------------


def psi_sharp(algebra: LieAlgebra, psi: Cochain) -> Cochain:
    """Turn a scalar 3-cochain into a 2-cochain valued in the dual space.

    The value on (i, j) has psi(e_i, e_j, e_k) in row k: psi's integer table,
    which holds every ordering of each triple, re-keyed by the pair.
    """
    if psi.degree != 3 or psi.source_dim != algebra.dim or psi.target_dim != 1:
        raise InvalidStructure("psi must be a degree-3 cochain with scalar values")
    dim = algebra.dim
    values, scale = _int_table(psi)[:2]
    table = {}
    for j, (a, b) in enumerate(ext_basis(dim, 2)):
        column = {k: v[0] for k in range(dim) if (v := values.get((a, b, k)))}
        if column:
            table[j] = column
    return Cochain(2, dim, dim, _from_table(dim, comb(dim, 2), table, scale))


def is_scalar_cocycle(algebra: LieAlgebra, psi: Cochain) -> bool:
    """delta_CE psi = 0 for a 3-cochain psi with values in the trivial module Q.

    delta_CE psi(x_0, x_1, x_2, x_3) is the sum over a < b of (-1)^{a+b} psi([x_a, x_b], rest), rest
    the other two in order: the terms of `liealg._ce_terms` with no action, on the basis 4-tuple
    in slots 0-3.
    """
    terms = _ce_terms(algebra.bracket, None, psi)
    return first_failure("3-cocycle", ext_basis(algebra.dim, psi.degree + 1), term_defect(terms)).ok


def r_matrix_check(
    algebra: LieAlgebra, r: Matrix, psi: Cochain
) -> tuple[CheckReport, LieAlgebra | None]:
    """Is r (the matrix of the induced map g* -> g) a twisted r-matrix?

    Delegates to the twisted Rota-Baxter check over the coadjoint module with
    H built from psi.  On success also returns the induced dual-space Lie
    algebra and checks that r is a morphism onto it.
    """
    if r.rows != algebra.dim or r.cols != algebra.dim:
        raise InvalidStructure(f"r must be {algebra.dim}x{algebra.dim}, got {r.rows}x{r.cols}")
    if not r.is_skew():
        raise NotSkew("r must be skew-symmetric")
    if not is_scalar_cocycle(algebra, psi):
        raise NotCocycle("psi is not closed")
    setup = _coadjoint_setup(algebra, psi)
    verdict = check_trb(setup, r)
    if not verdict:
        return verdict, None
    dual = lie_algebra_from_cochain(induced_bracket_cochain(setup, r))
    c = algebra.bracket
    morphism = [(1, (c, (r, 0), (r, 1))), (-1, (r, (dual.bracket, 0, 1)))]
    morphism_check = first_failure("r morphism onto the dual bracket", ext_basis(algebra.dim, 2), term_defect(morphism))
    if not morphism_check.ok:
        raise InternalInconsistency(morphism_check.violation.describe())
    return verdict, dual
