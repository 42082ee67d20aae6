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

from .errors import DimensionMismatch, InternalInconsistency, InvalidStructure
from .exactlin import Matrix, Vector, vector
from .liealg import Representation, ce_differential
from .linfty import d_t_unchecked, induced_structure, operator_element
from .multilin import Cochain, ext_basis, tabulate
from .operators import Operator, TrbSetup, induced_action_matrices, require_trb, trb_terms
from .report import EquationReport, identity_reports


@dataclass(frozen=True)
class FormalDeformation:
    """Base operator plus higher coefficients T_1..T_k (all dim(g) x dim(M)), their shapes
    checked on construction; that the base passes is checked by `formal_deformation`."""

    setup: TrbSetup
    base: Operator
    coefficients: tuple[Operator, ...]

    def __post_init__(self):
        rows, cols = self.setup.operator_shape()
        for c in self.coefficients:
            if c.rows != rows or c.cols != cols:
                raise InvalidStructure("deformation coefficient shape mismatch")

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
    return FormalDeformation(setup, base, tuple(coefficients))


def deformation_equation_defects(d: FormalDeformation, up_to: int | None = None) -> list[Cochain]:
    """Defect 2-cochains for orders 1..k; all zero iff T_t is twisted RB mod t^{k+1}.

    The order-n defect is the t^n coefficient of the twisted Rota-Baxter
    identity (`operators.trb_terms`).  Coefficients beyond the stored order
    count as zero, so passing a larger `up_to` checks the polynomial
    deformation at higher orders; past 3k the defects vanish identically.
    `up_to` defaults to the stored order.
    """
    s, ts = d.setup, (d.base, *d.coefficients)
    m = s.module_dim
    orders = range(1, (d.order if up_to is None else up_to) + 1)
    return [Cochain(2, m, s.dim, tabulate(trb_terms(s, ts, n), ext_basis(m, 2), s.dim)) for n in orders]


def infinitesimal_is_cocycle(setup: TrbSetup, t: Operator, t1: Operator) -> bool:
    """d_T(T_1) = 0; agrees with the vanishing of the order-1 defect."""
    require_trb(setup, t)
    closed = d_t_unchecked(setup, t, operator_element(setup, t1)).is_zero()
    order1 = deformation_equation_defects(FormalDeformation(setup, t, (t1,)))[0].is_zero()
    if closed != order1:
        raise InternalInconsistency("cocycle route disagrees with order-1 defect")
    return closed


def linear_deformation_check(
    setup: TrbSetup, t: Operator, t1: Operator
) -> tuple[bool, bool, bool]:
    """Exact vanishing of the t^1, t^2, t^3 coefficients for T + tT_1."""
    defects = deformation_equation_defects(formal_deformation(setup, t, [t1]), up_to=3)
    return tuple(defect.is_zero() for defect in defects)


def _nijenhuis_identities(setup: TrbSetup, t: Operator, x: Vector) -> list[tuple[str, str, list, list]]:
    """The identities on a fixed x in g shared by Nijenhuis elements and equivalences.

    Each is (name, kind, basis tuples, signed terms).
    """
    s = setup
    if len(x) != s.dim:
        raise DimensionMismatch(f"x has length {len(x)}, expected {s.dim}")
    c, rho, h = s.algebra.bracket, s.rep, s.cocycle
    pairs = ext_basis(s.dim, 2)
    mixed = list(itertools.product(range(s.dim), range(s.module_dim)))
    x_dot_u = [(1, (rho, x, 1)), (1, (h, x, (t, 1)))]  # x.u + H(x,Tu), with u in slot 1
    # x.H(y,z) + H(x, T H(y,z)) = H([x,y], z) + H(y, [x,z])
    twist_1 = [(1, (rho, x, (h, 0, 1))), (1, (h, x, (t, (h, 0, 1)))), (-1, (h, (c, x, 0), 1)), (-1, (h, 0, (c, x, 1)))]
    return [
        ("lie-hom", "[[x,y],[x,z]] = 0", pairs, [(1, (c, (c, x, 0), (c, x, 1)))]),
        ("action-pre-1", "H(x,T(y.u)) = y.H(x,Tu)", mixed, [(1, (h, x, (t, (rho, 0, 1)))), (-1, (rho, 0, (h, x, (t, 1))))]),
        ("action-pre-2", "[x,y].(x.u + H(x,Tu)) = 0", mixed, [(1, (rho, (c, x, 0), x_dot_u))]),
        ("twist-compat-1", "x.H(y,z)+H(x,TH(y,z)) = H([x,y],z)+H(y,[x,z])", pairs, twist_1),
        ("twist-compat-2", "H([x,y],[x,z]) = 0", pairs, [(1, (h, (c, x, 0), (c, x, 1)))]),
    ]


def nijenhuis_element_check(setup: TrbSetup, t: Operator, x: Sequence) -> EquationReport:
    """Is x a Nijenhuis element for the operator?"""
    require_trb(setup, t)
    return _nijenhuis_element_report(setup, t, x, Representation(setup.dim, induced_action_matrices(setup, t)))


def _nijenhuis_element_report(
    setup: TrbSetup, t: Operator, x: Sequence, induced_action: Representation
) -> EquationReport:
    """`nijenhuis_element_check` for an operator already checked, given its induced representation on g."""
    xv = vector(x)
    module_basis = [(a,) for a in range(setup.module_dim)]
    # [x, u.x] = 0 for the induced action of u in M on g
    bracket_action = [(1, (setup.algebra.bracket, xv, (induced_action, 0, xv)))]
    identities = [("bracket-action", "[x, u.x] = 0", module_basis, bracket_action)]
    return EquationReport(identity_reports(identities + _nijenhuis_identities(setup, t, xv)))


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
    c = s.algebra.bracket
    x_dot_u = [(1, (s.rep, xv, 0)), (1, (s.cocycle, xv, (t, 0)))]
    module_basis = [(a,) for a in range(m)]
    # T_1(u) + [x,Tu] = T(x.u + H(x,Tu)) + T_1'(u) and [x,T_1(u)] = T_1'(x.u + H(x,Tu))
    transport = [(1, (t1, 0)), (1, (c, xv, (t, 0))), (-1, (t, x_dot_u)), (-1, (t1p, 0))]
    higher = [(1, (c, xv, (t1, 0))), (-1, (t1p, x_dot_u))]
    transports = [
        ("transport", "T1(u)+[x,Tu] = T(x.u+H(x,Tu))+T1'(u)", module_basis, transport),
        ("transport-higher", "[x,T1(u)] = T1'(x.u+H(x,Tu))", module_basis, higher),
    ]
    report = EquationReport(identity_reports(_nijenhuis_identities(setup, t, xv) + transports))
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
            if _nijenhuis_element_report(s, t, x, rep).ok:
                found = tuple(x)
                break
        if found is None:
            probes.append(CocycleProbe(f, None, False))
            all_found = False
        else:
            probes.append(CocycleProbe(f, found, True))
    verdict = "sufficient condition established" if all_found else "inconclusive"
    return RigidityReport(verdict, tuple(probes))
