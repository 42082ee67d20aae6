"""Twisted generalized complex structures on a module over a Lie algebra.

The block operator J = [[N, T], [sigma, -S]] on g (+) M is a twisted
generalized complex structure when J^2 = -id and the twisted-semidirect
integrability defect vanishes.  The equivalent ten-equation component
characterization is computed independently and cross-checked against the
direct definition on every call.  The Lie-algebra case lives on g (+) g*
with the coadjoint module and a twist built from a scalar 3-cocycle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency, InvalidStructure, NonzeroH, NotCocycle, NotGcs, NotSkew
from .exactlin import Matrix
from .liealg import LieAlgebra, Representation, coadjoint_rep
from .multilin import Cochain, ext_basis, term_defect
from .operators import (
    Operator,
    TrbSetup,
    is_scalar_cocycle,
    psi_sharp,
    require_trb,
    trb_setup,
    twisted_semidirect,
)
from .report import EquationReport, first_failure, identity_reports, vanishes


@dataclass(frozen=True)
class GcsComponents:
    """Structure components of the block operator J = [[N, T],[sigma, -S]]."""

    n_map: Matrix
    t_map: Matrix
    sigma: Matrix
    s_map: Matrix

    def block(self) -> Matrix:
        """Assemble J on g (+) M (the S block is rendered with its sign)."""
        n = self.n_map.rows
        m = self.s_map.rows
        rows = []
        for i in range(n):
            rows.append(list(self.n_map.row(i)) + list(self.t_map.row(i)))
        for a in range(m):
            rows.append(list(self.sigma.row(a)) + [-x for x in self.s_map.row(a)])
        return Matrix.from_rows(rows)


def gcs_components(setup: TrbSetup, n_map: Matrix, t_map: Matrix, sigma: Matrix, s_map: Matrix) -> GcsComponents:
    n, m = setup.dim, setup.module_dim
    shapes = ((n_map, n, n), (t_map, n, m), (sigma, m, n), (s_map, m, m))
    for mat, r, c in shapes:
        if mat.rows != r or mat.cols != c:
            raise InvalidStructure("component shape does not match the setup")
    return GcsComponents(n_map, t_map, sigma, s_map)


def _integrability_terms(c: Cochain, j: Matrix) -> list:
    """[Jx,Jy] - [x,y] - J([Jx,y] + [x,Jy]) as signed terms on the basis pair in slots 0, 1."""
    mix = [(1, (c, (j, 0), 1)), (1, (c, 0, (j, 1)))]
    return [(1, (c, (j, 0), (j, 1))), (-1, (c, 0, 1)), (-1, (j, mix))]


def tgcs_check_direct(setup: TrbSetup, j: GcsComponents) -> EquationReport:
    """J^2 = -id and the integrability defect over the twisted semidirect bracket."""
    total = setup.dim + setup.module_dim
    big = j.block()
    square = vanishes("J^2 = -id", big @ big + Matrix.identity(total))
    semi = twisted_semidirect(setup)
    integ = first_failure("integrability", ext_basis(total, 2), term_defect(_integrability_terms(semi.bracket, big)))
    return EquationReport((("almost-complex", square), ("integrability", integ)))


def _component_identities(s: TrbSetup, j: GcsComponents) -> list[tuple[str, str, list, list]]:
    """Equations (5)-(10) as (name, kind, basis tuples, signed terms); x, y in g and u, v in M."""
    c, rho, h = s.algebra.bracket, s.rep, s.cocycle
    nm, tm, sg, sm = j.n_map, j.t_map, j.sigma, j.s_map
    tu_v = [(1, (rho, (tm, 0), 1)), (-1, (rho, (tm, 1), 0))]  # Tu.v - Tv.u
    nx_u = [(1, (rho, (nm, 0), 1)), (-1, (rho, 0, (sm, 1))), (1, (h, 0, (tm, 1)))]  # Nx.u - x.Su + H(x,Tu)
    x_sy = [(1, (rho, 0, (sg, 1))), (-1, (rho, 1, (sg, 0))), (1, (h, 0, (nm, 1))), (-1, (h, 1, (nm, 0)))]
    n_xy = [(1, (c, (nm, 0), 1)), (1, (c, 0, (nm, 1)))]  # [Nx,y] + [x,Ny]
    # (5) [Tu,Tv] = T(Tu.v - Tv.u)
    eq5 = [(1, (c, (tm, 0), (tm, 1))), (-1, (tm, tu_v))]
    # (6) Tu.Sv - Tv.Su - H(Tu,Tv) = S(Tu.v - Tv.u)
    eq6 = [(1, (rho, (tm, 0), (sm, 1))), (-1, (rho, (tm, 1), (sm, 0))), (-1, (h, (tm, 0), (tm, 1))), (-1, (sm, tu_v))]
    # (7) [Nx,Tu] - N[x,Tu] = T(Nx.u - x.Su + H(x,Tu))
    eq7 = [(1, (c, (nm, 0), (tm, 1))), (-1, (nm, (c, 0, (tm, 1)))), (-1, (tm, nx_u))]
    # (8) sigma[Tu,x] - Tu.sigma(x) - H(Tu,Nx) = x.u + Nx.Su - S(Nx.u - x.Su + H(x,Tu))
    eq8 = [(1, (sg, (c, (tm, 1), 0))), (-1, (rho, (tm, 1), (sg, 0))), (-1, (h, (tm, 1), (nm, 0)))]
    eq8 += [(-1, (rho, 0, 1)), (-1, (rho, (nm, 0), (sm, 1))), (1, (sm, nx_u))]
    # (9) [Nx,Ny] - [x,y] - N([Nx,y] + [x,Ny]) = T(x.sigma(y) - y.sigma(x) + H(x,Ny) - H(y,Nx))
    eq9 = _integrability_terms(c, nm) + [(-1, (tm, x_sy))]
    # (10) Nx.sigma(y) - Ny.sigma(x) + H(Nx,Ny) - H(x,y) - sigma([Nx,y] + [x,Ny])
    #      = -S(x.sigma(y) - y.sigma(x) + H(x,Ny) - H(y,Nx))
    eq10 = [(1, (rho, (nm, 0), (sg, 1))), (-1, (rho, (nm, 1), (sg, 0))), (1, (h, (nm, 0), (nm, 1))), (-1, (h, 0, 1))]
    eq10 += [(-1, (sg, n_xy)), (1, (sm, x_sy))]
    pairs_m, pairs_n = ext_basis(s.module_dim, 2), ext_basis(s.dim, 2)
    mixed = list(itertools.product(range(s.dim), range(s.module_dim)))
    return [
        ("untwisted-rb", "[Tu,Tv] = T(Tu.v - Tv.u)", pairs_m, eq5),
        ("graph-TS", "Tu.Sv - Tv.Su - H(Tu,Tv) = S(Tu.v - Tv.u)", pairs_m, eq6),
        ("mixed-g", "[Nx,Tu] - N[x,Tu] = T(Nx.u - x.Su + H(x,Tu))", mixed, eq7),
        ("mixed-m", "sigma[Tu,x] - Tu.sigma(x) - H(Tu,Nx) = ...", mixed, eq8),
        ("nijenhuis-type", "nijenhuis-type = T(...)", pairs_n, eq9),
        ("dual-nijenhuis-type", "dual-nijenhuis-type = -S(...)", pairs_n, eq10),
    ]


def tgcs_check_components(setup: TrbSetup, j: GcsComponents) -> EquationReport:
    """The ten component identities; conjunction equals the direct verdict.

    The agreement with `tgcs_check_direct` is checked on every call: the
    direct definition acts as a built-in oracle.
    """
    nm, tm, sg, sm = j.n_map, j.t_map, j.sigma, j.s_map
    differences = (
        ("NT = TS", nm @ tm - tm @ sm),
        ("N^2 + T.sigma = -id", nm @ nm + tm @ sg + Matrix.identity(setup.dim)),
        ("S.sigma = sigma.N", sm @ sg - sg @ nm),
        ("S^2 + sigma.T = -id", sm @ sm + sg @ tm + Matrix.identity(setup.module_dim)),
    )
    matrix_eqs = tuple((label, vanishes(label, diff)) for label, diff in differences)
    report = EquationReport(matrix_eqs + identity_reports(_component_identities(setup, j)))
    direct = tgcs_check_direct(setup, j)
    if report.ok != direct.ok:
        raise InternalInconsistency("component characterization disagrees with the definition")
    return report


def gcs_from_invertible_rb(setup: TrbSetup, t: Operator) -> GcsComponents:
    """J = [[0, T],[-T^{-1}, 0]] for an invertible untwisted operator."""
    if not setup.cocycle.is_zero():
        raise NonzeroH("construction requires an untwisted setup")
    require_trb(setup, t)
    n, m = setup.dim, setup.module_dim
    if n != m:
        raise InvalidStructure("T must be square to be invertible")
    inv = t.invert()
    j = GcsComponents(Matrix.zero(n, n), t, -inv, Matrix.zero(m, m))
    if not tgcs_check_direct(setup, j).ok:
        raise InternalInconsistency("J = [[0, T],[-T^{-1}, 0]] fails the direct definition")
    return j


def opposite(setup: TrbSetup, j: GcsComponents) -> tuple[TrbSetup, GcsComponents]:
    """[[N, -T],[-sigma, -S]] over the sign-flipped twist."""
    verdict = tgcs_check_direct(setup, j)
    if not verdict.ok:
        raise NotGcs("input does not pass the direct check")
    flipped = trb_setup(setup.algebra, setup.rep, -setup.cocycle)
    out = GcsComponents(j.n_map, -j.t_map, -j.sigma, j.s_map)
    if not tgcs_check_direct(flipped, out).ok:
        raise InternalInconsistency("the opposite structure fails the direct definition")
    return flipped, out


def complex_structure_check(
    algebra: LieAlgebra, rep: Representation, i_map: Matrix, i_mod: Matrix
) -> EquationReport:
    """A complex structure on the module over the algebra: four conditions."""
    n, m = algebra.dim, rep.module_dim
    square = vanishes("I^2 = -id", i_map @ i_map + Matrix.identity(n))
    integ = first_failure("integrability of I", ext_basis(n, 2), term_defect(_integrability_terms(algebra.bracket, i_map)))
    square_m = vanishes("I_M^2 = -id", i_mod @ i_mod + Matrix.identity(m))
    inner = [(1, (rep, (i_map, 0), 1)), (1, (rep, 0, (i_mod, 1)))]
    terms = [(1, (rep, (i_map, 0), (i_mod, 1))), (-1, (rep, 0, 1)), (-1, (i_mod, inner))]
    kind = "I(x).I_M(u) - x.u - I_M(I(x).u + x.I_M(u)) = 0"
    compat = first_failure(kind, itertools.product(range(n), range(m)), term_defect(terms))
    eqs = (("I^2 = -id", square), ("integrability", integ), ("I_M^2 = -id", square_m), ("module-compat", compat))
    return EquationReport(eqs)


def embed_complex(i_map: Matrix, i_mod: Matrix) -> GcsComponents:
    """J = [[I, 0],[0, I_M]], stored with S = -I_M."""
    n, m = i_map.rows, i_mod.rows
    return GcsComponents(i_map, Matrix.zero(n, m), Matrix.zero(m, n), -i_mod)


@dataclass(frozen=True)
class LieGcsTriple:
    """Endomorphism, skew matrix of the induced map g* -> g, skew matrix of g -> g*."""

    n_map: Matrix
    r: Matrix
    sigma: Matrix


def _pairing_matrix(n: int) -> Matrix:
    """<(x,a),(y,b)> = (a(y) + b(x)) / 2 on g (+) g*."""
    half = Fraction(1, 2)
    rows = []
    for i in range(2 * n):
        row = [Fraction(0)] * (2 * n)
        if i < n:
            row[n + i] = half
        else:
            row[i - n] = half
        rows.append(row)
    return Matrix.from_rows(rows)


def lie_tgcs_check(algebra: LieAlgebra, psi: Cochain, triple: LieGcsTriple) -> EquationReport:
    """Twisted generalized complex structure on g via the coadjoint module.

    Orthogonality of the block operator for the canonical pairing is checked
    explicitly, then the ten component identities run with M = g*, the
    coadjoint action, the twist built from psi, T = r and S = N^T.
    """
    if not triple.r.is_skew():
        raise NotSkew("r must be skew")
    if not triple.sigma.is_skew():
        raise NotSkew("sigma must be skew")
    if not is_scalar_cocycle(algebra, psi):
        raise NotCocycle("psi is not closed")
    n = algebra.dim
    setup = trb_setup(algebra, coadjoint_rep(algebra), psi_sharp(algebra, psi))
    j = GcsComponents(triple.n_map, triple.r, triple.sigma, triple.n_map.transpose())
    big = j.block()
    g = _pairing_matrix(n)
    orth_report = vanishes("orthogonality", big.transpose() @ g @ big - g)
    components = tgcs_check_components(setup, j)
    return EquationReport((("orthogonality", orth_report),) + components.equations)
