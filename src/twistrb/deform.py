"""Linear and formal deformations of a twisted Rota-Baxter operator.

A polynomial deformation T_t = T + t T_1 + ... + t^k T_k is a twisted
Rota-Baxter operator mod t^{k+1} exactly when the order-n defects vanish for
n = 1..k.  The order-1 equation says the leading coefficient is closed for
the operator's differential; equivalent deformations have cohomologous
leading coefficients; Nijenhuis elements generate trivial deformations and
feed the rigidity criterion Z^1 = d_T(Nij(T)).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistency, InvalidStructure
from .exactlin import (
    Matrix,
    Vector,
    basis_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)
from .liealg import ce_differential
from .linfty import d_t_unchecked, induced_structure, operator_element
from .multilin import Cochain, ext_basis
from .operators import Operator, TrbSetup, induced_action_matrices, require_trb
from .report import CheckReport, EquationReport, first_failure


@dataclass(frozen=True)
class FormalDeformation:
    """Base operator plus higher coefficients T_1..T_k (all dim(g) x dim(M))."""

    setup: TrbSetup
    base: Operator
    coefficients: tuple[Operator, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def coefficient(self, i: int) -> Operator:
        """T_i, with T_0 the base and 0 beyond the stored order."""
        if i == 0:
            return self.base
        if 1 <= i <= self.order:
            return self.coefficients[i - 1]
        return Matrix.zero(self.setup.dim, self.setup.module_dim)


def formal_deformation(
    setup: TrbSetup, base: Operator, coefficients: Sequence[Operator]
) -> FormalDeformation:
    require_trb(setup, base)
    return _deformation(setup, base, coefficients)


def _deformation(
    setup: TrbSetup, base: Operator, coefficients: Sequence[Operator]
) -> FormalDeformation:
    """`formal_deformation` for a base operator the caller has already checked."""
    rows, cols = setup.operator_shape()
    for c in coefficients:
        if c.rows != rows or c.cols != cols:
            raise InvalidStructure("deformation coefficient shape mismatch")
    return FormalDeformation(setup, base, tuple(coefficients))


def _order_defect(d: FormalDeformation, n: int, i: int, j: int) -> Vector:
    """Coefficient of t^n in the twisted Rota-Baxter defect at (u_i, u_j)."""
    s = d.setup
    lhs = zero_vector(s.dim)
    for a in range(n + 1):
        ta, tb = d.coefficient(a), d.coefficient(n - a)
        lhs = vec_add(lhs, s.algebra.bracket_vec(ta.col(i), tb.col(j)))
    rhs = zero_vector(s.dim)
    for a in range(n + 1):
        ta, tb = d.coefficient(a), d.coefficient(n - a)
        inner = vec_sub(
            s.rep.act_vec_on_basis(tb.col(i), j), s.rep.act_vec_on_basis(tb.col(j), i)
        )
        rhs = vec_add(rhs, ta.apply(inner))
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            ta, tb, tc = d.coefficient(a), d.coefficient(b), d.coefficient(c)
            hv = s.cocycle.skew_eval([tb.col(i), tc.col(j)])
            rhs = vec_add(rhs, ta.apply(hv))
    return vec_sub(lhs, rhs)


def deformation_equation_defects(d: FormalDeformation, up_to: int | None = None) -> list[Cochain]:
    """Defect 2-cochains for orders 1..k; all zero iff T_t is twisted RB mod t^{k+1}.

    Coefficients beyond the stored order count as zero, so passing a larger
    `up_to` checks the polynomial deformation at higher orders (up to 3k the
    defects can still be nonzero).  `up_to` defaults to the stored order.
    """
    s = d.setup
    m = s.module_dim
    out = []
    for n in range(1, (d.order if up_to is None else up_to) + 1):
        values = {(i, j): _order_defect(d, n, i, j) for i, j in ext_basis(m, 2)}
        out.append(Cochain.from_values(2, m, s.dim, values))
    return out


def infinitesimal_is_cocycle(setup: TrbSetup, t: Operator, t1: Operator) -> bool:
    """d_T(T_1) = 0; agrees with the vanishing of the order-1 defect."""
    require_trb(setup, t)
    closed = d_t_unchecked(setup, t, operator_element(setup, t1)).is_zero()
    order1 = deformation_equation_defects(_deformation(setup, t, [t1]))[0].is_zero()
    if closed != order1:
        raise InternalInconsistency("cocycle route disagrees with order-1 defect")
    return closed


def linear_deformation_check(
    setup: TrbSetup, t: Operator, t1: Operator
) -> tuple[bool, bool, bool]:
    """Exact vanishing of the t^1, t^2, t^3 coefficients for T + tT_1."""
    d = formal_deformation(setup, t, [t1])
    s = setup
    m = s.module_dim
    orders = []
    for n in (1, 2, 3):
        ok = all(vec_is_zero(_order_defect(d, n, i, j)) for i, j in ext_basis(m, 2))
        orders.append(ok)
    return tuple(orders)


def _nijenhuis_conditions(
    setup: TrbSetup, t: Operator, x: Sequence
) -> list[tuple[str, CheckReport]]:
    """The trivial-deformation identities that do not involve T_1, T_1'."""
    s = setup
    xv = vector(x)
    n, m = s.dim, s.module_dim
    tx_action = induced_action_matrices(s, t)
    pairs = ext_basis(n, 2)
    mixed = list(itertools.product(range(n), range(m)))

    # [x, u .bar x] = 0 for all u
    def bracket_action(a: int) -> Vector:
        ubar_x = zero_vector(n)
        for k, c in enumerate(vector(xv)):
            if c != 0:
                ubar_x = vec_add(ubar_x, vec_scale(c, tx_action[a].col(k)))
        return s.algebra.bracket_vec(xv, ubar_x)

    # [[x,y],[x,z]] = 0 for all y, z
    def lie_hom(i: int, j: int) -> Vector:
        return s.algebra.bracket_vec(
            s.algebra.bracket_vec(xv, basis_vector(n, i)),
            s.algebra.bracket_vec(xv, basis_vector(n, j)),
        )

    # H(x, T(y.u)) = y.H(x, Tu) for all y, u
    def action_pre_1(i: int, a: int) -> Vector:
        yu = s.rep.act_basis(i, a)
        lhs = s.cocycle.skew_eval([xv, t.apply(yu)])
        rhs = s.rep.action[i].apply(s.cocycle.skew_eval([xv, t.col(a)]))
        return vec_sub(lhs, rhs)

    # [x,y].(x.u + H(x,Tu)) = 0 for all y, u
    def action_pre_2(i: int, a: int) -> Vector:
        xy = s.algebra.bracket_vec(xv, basis_vector(n, i))
        inner = vec_add(s.rep.act_vec_on_basis(xv, a), s.cocycle.skew_eval([xv, t.col(a)]))
        return s.rep.act(xy, inner)

    # x.H(y,z) + H(x, T H(y,z)) = H([x,y], z) + H(y, [x,z]) for all y, z
    def twist_compat_1(i: int, j: int) -> Vector:
        hyz = s.cocycle.value_on_basis((i, j))
        lhs = vec_add(s.rep.act(xv, hyz), s.cocycle.skew_eval([xv, t.apply(hyz)]))
        rhs = vec_add(
            s.cocycle.eval_mixed(s.algebra.bracket_vec(xv, basis_vector(n, i)), (j,)),
            vec_scale(-1, s.cocycle.eval_mixed(s.algebra.bracket_vec(xv, basis_vector(n, j)), (i,))),
        )
        return vec_sub(lhs, rhs)

    # H([x,y], [x,z]) = 0 for all y, z
    def twist_compat_2(i: int, j: int) -> Vector:
        return s.cocycle.skew_eval(
            [s.algebra.bracket_vec(xv, basis_vector(n, i)), s.algebra.bracket_vec(xv, basis_vector(n, j))]
        )

    return [
        (name, first_failure(kind, cases, defect))
        for name, kind, cases, defect in (
            ("bracket-action", "[x, u.x] = 0", [(a,) for a in range(m)], bracket_action),
            ("lie-hom", "[[x,y],[x,z]] = 0", pairs, lie_hom),
            ("action-pre-1", "H(x,T(y.u)) = y.H(x,Tu)", mixed, action_pre_1),
            ("action-pre-2", "[x,y].(x.u + H(x,Tu)) = 0", mixed, action_pre_2),
            ("twist-compat-1", "x.H(y,z)+H(x,TH(y,z)) = H([x,y],z)+H(y,[x,z])", pairs, twist_compat_1),
            ("twist-compat-2", "H([x,y],[x,z]) = 0", pairs, twist_compat_2),
        )
    ]


def nijenhuis_element_check(setup: TrbSetup, t: Operator, x: Sequence) -> EquationReport:
    """Is x a Nijenhuis element for the operator?"""
    require_trb(setup, t)
    return EquationReport(tuple(_nijenhuis_conditions(setup, t, x)))


def equivalence_check(
    setup: TrbSetup, t: Operator, t1: Operator, t1p: Operator, x: Sequence
) -> EquationReport:
    """All identities making x an equivalence between T + tT_1 and T + tT_1'.

    When every condition passes, T_1 - T_1' = d_T(x) holds exactly (asserted).
    """
    require_trb(setup, t)
    s = setup
    xv = vector(x)
    n, m = s.dim, s.module_dim
    conditions = [c for c in _nijenhuis_conditions(setup, t, x) if c[0] != "bracket-action"]
    module_basis = [(a,) for a in range(m)]

    # T_1(u) + [x, Tu] = T(x.u + H(x,Tu)) + T_1'(u)
    def transport(a: int) -> Vector:
        lhs = vec_add(t1.col(a), s.algebra.bracket_vec(xv, t.col(a)))
        inner = vec_add(s.rep.act_vec_on_basis(xv, a), s.cocycle.skew_eval([xv, t.col(a)]))
        rhs = vec_add(t.apply(inner), t1p.col(a))
        return vec_sub(lhs, rhs)

    # [x, T_1(u)] = T_1'(x.u + H(x,Tu))
    def transport_higher(a: int) -> Vector:
        lhs = s.algebra.bracket_vec(xv, t1.col(a))
        inner = vec_add(s.rep.act_vec_on_basis(xv, a), s.cocycle.skew_eval([xv, t.col(a)]))
        return vec_sub(lhs, t1p.apply(inner))

    kind = "T1(u)+[x,Tu] = T(x.u+H(x,Tu))+T1'(u)"
    conditions.append(("transport", first_failure(kind, module_basis, transport)))
    kind = "[x,T1(u)] = T1'(x.u+H(x,Tu))"
    conditions.append(("transport-higher", first_failure(kind, module_basis, transport_higher)))

    report = EquationReport(tuple(conditions))
    if report.ok:
        diff = operator_element(s, t1 - t1p)
        dx = d_t_unchecked(s, t, Cochain(0, m, n, Matrix(n, 1, xv)))
        if diff != dx:
            raise InternalInconsistency("equivalence passed but T1 - T1' != d_T(x)")
    return report


@dataclass(frozen=True)
class CocycleProbe:
    """Outcome for one basis 1-cocycle during the rigidity probe."""

    cocycle: tuple[Fraction, ...]
    preimage: tuple[Fraction, ...] | None
    nijenhuis: bool


@dataclass(frozen=True)
class RigidityReport:
    verdict: str
    probes: tuple[CocycleProbe, ...] = field(default_factory=tuple)

    @property
    def established(self) -> bool:
        return self.verdict == "sufficient condition established"


def rigidity_probe(setup: TrbSetup, t: Operator, grid: int = 2) -> RigidityReport:
    """Try to certify Z^1 = d_T(Nij(T)) by finding Nijenhuis preimages.

    Every basis cocycle of Z^1 is solved against the degree-0 differential;
    the affine solution space is scanned over a bounded coefficient grid in
    lexicographic order.  The report never claims more than the sufficient
    condition.
    """
    require_trb(setup, t)
    s = setup
    n = s.dim
    # one induced structure for both degrees; d_T = +delta_CE in degree 0, and
    # in degree 1 the sign of d_T = -delta_CE does not change the kernel Z^1
    algebra, rep = induced_structure(s, t)
    d0 = ce_differential(algebra, rep, 0)
    kernel = ce_differential(algebra, rep, 1).kernel_basis()
    homogeneous = d0.kernel_basis()
    probes = []
    all_found = True
    for f in kernel:
        particular = d0.solve(f)
        if particular is None:
            probes.append(CocycleProbe(f, None, False))
            all_found = False
            continue
        found = None
        # product() yields the grid in lexicographic order already
        for coeffs in itertools.product(range(-grid, grid + 1), repeat=len(homogeneous)):
            x = list(particular)
            for c, k in zip(coeffs, homogeneous):
                x = [a + c * b for a, b in zip(x, k)]
            if nijenhuis_element_check(s, t, x).ok:
                found = tuple(x)
                break
        if found is None:
            probes.append(CocycleProbe(f, None, False))
            all_found = False
        else:
            probes.append(CocycleProbe(f, found, True))
    verdict = "sufficient condition established" if all_found else "inconclusive"
    return RigidityReport(verdict, tuple(probes))
