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
from math import lcm

from .errors import DimensionMismatch, InternalInconsistency, InvalidStructure, NonzeroH, NotCocycle, NotGcs, NotSkew
from .exactlin import Matrix, _from_table
from .liealg import LieAlgebra, Representation
from .multilin import Cochain, _int_table, ext_basis, tabulate, term_defect
from .operators import (
    Operator,
    TrbSetup,
    _closed_setup,
    _coadjoint_setup,
    is_scalar_cocycle,
    require_trb,
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
        """Assemble J on g (+) M (the S block is rendered with its sign): the integer tables of the
        four blocks, brought to the lcm of their scales and shifted to their rows and columns."""
        nm, tm, sg, sm = self.n_map, self.t_map, self.sigma, self.s_map
        if (tm.rows, sg.cols, sm.rows, sm.cols) != (nm.rows, nm.cols, sg.rows, tm.cols):
            raise DimensionMismatch("the blocks of J do not fit together")
        n, k = nm.rows, nm.cols
        blocks = ((nm, 0, 0, 1), (tm, 0, k, 1), (sg, n, 0, 1), (sm, n, k, -1))
        scale = lcm(*(_int_table(mat)[1] for mat, *_ in blocks))
        table: dict[int, dict[int, int]] = {}
        for mat, row0, col0, sign in blocks:
            columns, s = _int_table(mat)[:2]
            f = sign * (scale // s)
            for j, col in columns.items():
                table.setdefault(col0 + j, {}).update((row0 + row, f * x) for row, x in col.items())
        return _from_table(n + sm.rows, k + tm.cols, table, scale)


def gcs_components(setup: TrbSetup, n_map: Matrix, t_map: Matrix, sigma: Matrix, s_map: Matrix) -> GcsComponents:
    n, m = setup.dim, setup.module_dim
    shapes = ((n_map, n, n), (t_map, n, m), (sigma, m, n), (s_map, m, m))
    for mat, r, c in shapes:
        if mat.rows != r or mat.cols != c:
            raise InvalidStructure("component shape does not match the setup")
    return GcsComponents(n_map, t_map, sigma, s_map)


def _product_sum(terms: list, rows: int, cols: int) -> Matrix:
    """A sum of matrix products as a `rows` x `cols` Matrix: signed terms on the unit vector e_j in
    slot 0, tabulated column by column, so a bare slot term (1, 0) is the identity."""
    return tabulate(terms, ext_basis(cols, 1), rows)


def _integrability_terms(c: Cochain, j: Matrix) -> list:
    """[Jx,Jy] - [x,y] - J([Jx,y] + [x,Jy]) as signed terms on the basis pair in slots 0, 1."""
    mix = [(1, (c, (j, 0), 1)), (1, (c, 0, (j, 1)))]
    return [(1, (c, (j, 0), (j, 1))), (-1, (c, 0, 1)), (-1, (j, mix))]


def tgcs_check_direct(setup: TrbSetup, j: GcsComponents) -> EquationReport:
    """J^2 = -id and the integrability defect over the twisted semidirect bracket."""
    total = setup.dim + setup.module_dim
    big = j.block()
    square = vanishes("J^2 = -id", _product_sum([(1, (big, (big, 0))), (1, 0)], total, total))
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
    n, m = setup.dim, setup.module_dim
    differences = (
        ("NT = TS", _product_sum([(1, (nm, (tm, 0))), (-1, (tm, (sm, 0)))], n, m)),
        ("N^2 + T.sigma = -id", _product_sum([(1, (nm, (nm, 0))), (1, (tm, (sg, 0))), (1, 0)], n, n)),
        ("S.sigma = sigma.N", _product_sum([(1, (sm, (sg, 0))), (-1, (sg, (nm, 0)))], m, n)),
        ("S^2 + sigma.T = -id", _product_sum([(1, (sm, (sm, 0))), (1, (sg, (tm, 0))), (1, 0)], m, m)),
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
    flipped = _closed_setup(setup.algebra, setup.rep, -setup.cocycle)
    out = GcsComponents(j.n_map, -j.t_map, -j.sigma, j.s_map)
    if not tgcs_check_direct(flipped, out).ok:
        raise InternalInconsistency("the opposite structure fails the direct definition")
    return flipped, out


def complex_structure_check(
    algebra: LieAlgebra, rep: Representation, i_map: Matrix, i_mod: Matrix
) -> EquationReport:
    """A complex structure on the module over the algebra: four conditions."""
    n, m = algebra.dim, rep.module_dim
    square = vanishes("I^2 = -id", _product_sum([(1, (i_map, (i_map, 0))), (1, 0)], n, n))
    integ = first_failure("integrability of I", ext_basis(n, 2), term_defect(_integrability_terms(algebra.bracket, i_map)))
    square_m = vanishes("I_M^2 = -id", _product_sum([(1, (i_mod, (i_mod, 0))), (1, 0)], m, m))
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
    """<(x,a),(y,b)> = (a(y) + b(x)) / 2 on g (+) g*: the halves pair each coordinate of g with its dual."""
    return _from_table(2 * n, 2 * n, {j: {(j + n) % (2 * n): 1} for j in range(2 * n)}, 2)


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
    setup = _coadjoint_setup(algebra, psi)
    j = GcsComponents(triple.n_map, triple.r, triple.sigma, triple.n_map.transpose())
    big = j.block()
    g = _pairing_matrix(n)
    orthogonality = [(1, (big.transpose(), (g, (big, 0)))), (-1, (g, 0))]  # J^T G J - G
    orth_report = vanishes("orthogonality", _product_sum(orthogonality, 2 * n, 2 * n))
    components = tgcs_check_components(setup, j)
    return EquationReport((("orthogonality", orth_report),) + components.equations)
