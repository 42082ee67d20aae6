"""NS-Lie algebras and their constructions.

An NS-Lie algebra is a space with two products: a full bilinear `circ` and a
skew `vee`, subject to

    NS1:  Ass(x,y,z) - Ass(y,x,z) + (x vee y) circ z = 0
    NS2:  x vee (y*z) + cyclic + x circ (y vee z) + cyclic = 0

where x*y = x circ y - y circ x + x vee y.  The bracket x*y is then a Lie
bracket (the adjacent Lie algebra), circ is its action on the underlying
space, and vee becomes a closed twisting cochain, so the identity map is a
twisted Rota-Baxter operator over the adjacent structure.  Instances arise
from Nijenhuis operators, from associative NS-algebras, and from twisted
Rota-Baxter operators.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InternalInconsistency, InvalidStructure, NotAssocNs, NotNijenhuis, NotNsLie
from .exactlin import Matrix
from .liealg import (
    LieAlgebra,
    Representation,
    _n_action_terms,
    _n_twist_terms,
    lie_algebra_from_cochain,
    nijenhuis_check,
    validate_rep,
)
from .multilin import Bilinear, Cochain, _partial, bind, ext_basis, tabulate
from .operators import Operator, TrbSetup, _closed_setup, require_trb
from .report import EquationReport, Violation, identity_reports


@dataclass(frozen=True)
class NsLie:
    """Candidate NS-Lie structure; `ns_check` decides whether it is one."""

    dim: int
    circ: Bilinear
    vee: Cochain


def _star_terms(maps: tuple, b, c) -> list:
    """x*y = x circ y - y circ x + x vee y over (circ, vee) on the sub-expressions b and c, as signed terms."""
    circ, vee = maps
    return [(1, (circ, b, c)), (-1, (circ, c, b)), (1, (vee, b, c))]


def _ns_terms(maps: tuple, second: int) -> list:
    """NS1, or NS2 when `second`, as signed terms over (circ, vee) on the basis triple in slots 0-2."""
    circ, vee = maps
    if not second:
        # NS1: (x o y) o z - x o (y o z) - (y o x) o z + y o (x o z) + (x vee y) o z
        return [
            (1, (circ, (circ, 0, 1), 2)),
            (-1, (circ, 0, (circ, 1, 2))),
            (-1, (circ, (circ, 1, 0), 2)),
            (1, (circ, 1, (circ, 0, 2))),
            (1, (circ, (vee, 0, 1), 2)),
        ]
    # NS2: x vee (y*z) + x o (y vee z), summed over the cyclic shifts
    ns2 = []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        ns2 += [(1, (vee, a, _star_terms(maps, b, c))), (1, (circ, a, (vee, b, c)))]
    return ns2


def ns_check(ns: NsLie) -> EquationReport:
    """NS1 on all ordered basis triples, NS2 on strictly increasing triples."""
    maps = (ns.circ, ns.vee)
    triples = list(itertools.product(range(ns.dim), repeat=3))
    ns1, ns2 = bind(_ns_terms, (0,), maps), bind(_ns_terms, (1,), maps)
    return EquationReport(identity_reports([("NS1", "NS1", triples, ns1), ("NS2", "NS2", ext_basis(ns.dim, 3), ns2)]))


def _star_pair_terms(maps: tuple) -> list:
    """x*y over (circ, vee) on the basis pair in slots 0 and 1."""
    return _star_terms(maps, 0, 1)


def adjacent_lie(ns: NsLie) -> tuple[LieAlgebra, Representation]:
    """The Lie algebra (L, x*y) with circ as its action on L."""
    rep_check = ns_check(ns)
    if not rep_check.ok:
        raise NotNsLie(rep_check.first_violation().describe())
    star = tabulate(bind(_star_pair_terms, (), (ns.circ, ns.vee)), ext_basis(ns.dim, 2), ns.dim)
    algebra = lie_algebra_from_cochain(Cochain(2, ns.dim, ns.dim, star))
    action = [_partial(ns.circ, i) for i in range(ns.dim)]
    rep = validate_rep(algebra, ns.dim, action)
    if isinstance(rep, Violation):
        raise InvalidStructure(f"adjacent action is not a representation: {rep.describe()}")
    return algebra, rep


def _tabulated(dim: int, circ, vee, construction: str) -> NsLie:
    """The NsLie of circ and vee stated as signed terms on slots 0 and 1 (bound by `multilin.bind`),
    required to pass `ns_check`."""
    pairs = itertools.product(range(dim), repeat=2)
    ns = NsLie(
        dim,
        Bilinear(dim, dim, tabulate(circ, pairs, dim)),
        Cochain(2, dim, dim, tabulate(vee, ext_basis(dim, 2), dim)),
    )
    if not ns_check(ns).ok:
        raise InternalInconsistency(f"the {construction} construction fails the NS-Lie axioms")
    return ns


def ns_from_nijenhuis(algebra: LieAlgebra, n_op: Matrix) -> NsLie:
    """x circ y = [Nx, y], x vee y = -N[x, y]."""
    check = nijenhuis_check(algebra, n_op)
    if not check:
        raise NotNijenhuis(check.violation.describe())
    maps = (algebra.bracket, n_op)
    return _tabulated(algebra.dim, bind(_n_action_terms, (), maps), bind(_n_twist_terms, (), maps), "Nijenhuis")


@dataclass(frozen=True)
class AssocNs:
    """Candidate associative NS-algebra: three products prec, succ, box."""

    dim: int
    prec: Bilinear
    succ: Bilinear
    box: Bilinear


def _assoc_terms(maps: tuple, which: int) -> list:
    """The `which`-th identity of `_ASSOC` as signed terms over (prec, succ, box) on the triple in slots 0-2,
    with x*y = x prec y + x succ y + x box y."""
    prec, succ, box = maps

    def star(x, y) -> list:
        return [(1, (prec, x, y)), (1, (succ, x, y)), (1, (box, x, y))]

    # (x box y) prec z + (x * y) box z = x succ (y box z) + x box (y * z)
    box_terms = [(1, (prec, (box, 0, 1), 2)), (1, (box, star(0, 1), 2))]
    box_terms += [(-1, (succ, 0, (box, 1, 2))), (-1, (box, 0, star(1, 2)))]
    return [
        # (x prec y) prec z = x prec (y * z)
        [(1, (prec, (prec, 0, 1), 2)), (-1, (prec, 0, star(1, 2)))],
        # (x succ y) prec z = x succ (y prec z)
        [(1, (prec, (succ, 0, 1), 2)), (-1, (succ, 0, (prec, 1, 2)))],
        # (x * y) succ z = x succ (y succ z)
        [(1, (succ, star(0, 1), 2)), (-1, (succ, 0, (succ, 1, 2)))],
        box_terms,
    ][which]


_ASSOC = ("prec-assoc", "succ-prec", "succ-assoc", "box")


def assoc_ns_check(a: AssocNs) -> EquationReport:
    """The four defining identities on all ordered basis triples."""
    maps, triples = (a.prec, a.succ, a.box), list(itertools.product(range(a.dim), repeat=3))
    identities = [(name, name, triples, bind(_assoc_terms, (which,), maps)) for which, name in enumerate(_ASSOC)]
    return EquationReport(identity_reports(identities))


def _assoc_circ_terms(maps: tuple) -> list:
    """x circ y = x succ y - y prec x over (prec, succ)."""
    prec, succ = maps
    return [(1, (succ, 0, 1)), (-1, (prec, 1, 0))]


def _assoc_vee_terms(maps: tuple) -> list:
    """x vee y = x box y - y box x over (box,)."""
    (box,) = maps
    return [(1, (box, 0, 1)), (-1, (box, 1, 0))]


def ns_from_assoc(a: AssocNs) -> NsLie:
    """x circ y = x succ y - y prec x, x vee y = x box y - y box x."""
    verdict = assoc_ns_check(a)
    if not verdict.ok:
        raise NotAssocNs(verdict.first_violation().describe())
    circ, vee = bind(_assoc_circ_terms, (), (a.prec, a.succ)), bind(_assoc_vee_terms, (), (a.box,))
    return _tabulated(a.dim, circ, vee, "associative NS")


def _trb_circ_terms(maps: tuple) -> list:
    """u circ v = T(u).v over (rho, T)."""
    rho, t = maps
    return [(1, (rho, (t, 0), 1))]


def _trb_vee_terms(maps: tuple) -> list:
    """u vee v = H(Tu, Tv) over (H, T)."""
    h, t = maps
    return [(1, (h, (t, 0), (t, 1)))]


def ns_from_trb(setup: TrbSetup, t: Operator) -> NsLie:
    """u circ v = T(u).v, u vee v = H(Tu, Tv) on the module."""
    require_trb(setup, t)
    circ, vee = bind(_trb_circ_terms, (), (setup.rep, t)), bind(_trb_vee_terms, (), (setup.cocycle, t))
    return _tabulated(setup.module_dim, circ, vee, "operator")


def trb_from_ns(ns: NsLie) -> tuple[TrbSetup, Operator]:
    """The identity map over the adjacent Lie algebra, twisted by vee; `adjacent_lie` validates the action."""
    algebra, rep = adjacent_lie(ns)
    setup = _closed_setup(algebra, rep, ns.vee)
    ident = Matrix.identity(ns.dim)
    require_trb(setup, ident)
    return setup, ident
