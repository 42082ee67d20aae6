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
from functools import partial
from typing import Sequence

from .errors import InternalInconsistency, InvalidStructure, NotAssocNs, NotNijenhuis, NotNsLie
from .exactlin import Matrix, Vector, vec_add, vec_scale, vec_sub, zero_vector
from .liealg import (
    LieAlgebra,
    Representation,
    lie_algebra_from_cochain,
    nijenhuis_check,
    validate_rep,
)
from .multilin import Bilinear, Cochain, ext_basis
from .operators import Operator, TrbSetup, require_trb, trb_setup
from .report import EquationReport, Violation, first_failure


@dataclass(frozen=True)
class NsLie:
    """Candidate NS-Lie structure; `ns_check` decides whether it is one."""

    dim: int
    circ: Bilinear
    vee: Cochain

    def star(self, i: int, j: int) -> Vector:
        """x*y = x circ y - y circ x + x vee y on basis pairs."""
        return vec_add(
            vec_sub(self.circ.value_on_basis(i, j), self.circ.value_on_basis(j, i)),
            self.vee.value_on_tuple((i, j)),
        )



def ns1_defect(ns: NsLie, i: int, j: int, k: int) -> Vector:
    """(x o y) o z - x o (y o z) - (y o x) o z + y o (x o z) + (x vee y) o z."""
    circ = ns.circ
    ek = tuple(1 if t == k else 0 for t in range(ns.dim))
    out = circ.eval(circ.value_on_basis(i, j), ek)
    out = vec_sub(out, circ.eval(tuple(1 if t == i else 0 for t in range(ns.dim)), circ.value_on_basis(j, k)))
    out = vec_sub(out, circ.eval(circ.value_on_basis(j, i), ek))
    out = vec_add(out, circ.eval(tuple(1 if t == j else 0 for t in range(ns.dim)), circ.value_on_basis(i, k)))
    out = vec_add(out, circ.eval(ns.vee.value_on_tuple((i, j)), ek))
    return out


def ns2_defect(ns: NsLie, i: int, j: int, k: int) -> Vector:
    """x vee (y*z) + cyclic + x circ (y vee z) + cyclic."""
    total = zero_vector(ns.dim)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        ea = tuple(1 if t == a else 0 for t in range(ns.dim))
        # e_a vee (e_b * e_c) = -vee(e_b * e_c, e_a)
        total = vec_sub(total, ns.vee.eval_mixed(ns.star(b, c), (a,)))
        total = vec_add(total, ns.circ.eval(ea, ns.vee.value_on_tuple((b, c))))
    return total


def ns_check(ns: NsLie) -> EquationReport:
    """NS1 on all ordered basis triples, NS2 on strictly increasing triples."""
    triples = itertools.product(range(ns.dim), repeat=3)
    ns1 = first_failure("NS1", triples, partial(ns1_defect, ns))
    ns2 = first_failure("NS2", ext_basis(ns.dim, 3), partial(ns2_defect, ns))
    return EquationReport((("NS1", ns1), ("NS2", ns2)))


def adjacent_lie(ns: NsLie) -> tuple[LieAlgebra, Representation]:
    """The Lie algebra (L, x*y) with circ as its action on L."""
    rep_check = ns_check(ns)
    if not rep_check.ok:
        raise NotNsLie(rep_check.first_violation().describe())
    values = {t: ns.star(*t) for t in ext_basis(ns.dim, 2)}
    algebra = lie_algebra_from_cochain(Cochain.from_values(2, ns.dim, ns.dim, values))
    action = []
    for i in range(ns.dim):
        cols = [ns.circ.value_on_basis(i, j) for j in range(ns.dim)]
        action.append(Matrix.from_cols(cols, rows=ns.dim))
    rep = validate_rep(algebra, ns.dim, action)
    if isinstance(rep, Violation):
        raise InvalidStructure(f"adjacent action is not a representation: {rep.describe()}")
    return algebra, rep


def ns_from_nijenhuis(algebra: LieAlgebra, n_op: Matrix) -> NsLie:
    """x circ y = [Nx, y], x vee y = -N[x, y]."""
    check = nijenhuis_check(algebra, n_op)
    if not check:
        raise NotNijenhuis(check.violation.describe())
    dim = algebra.dim
    circ_vals = {}
    for i in range(dim):
        for j in range(dim):
            circ_vals[(i, j)] = algebra.bracket.eval_mixed(n_op.col(i), (j,))
    vee_vals = {
        t: vec_scale(-1, n_op.apply(algebra.bracket_basis(*t))) for t in ext_basis(dim, 2)
    }
    ns = NsLie(
        dim,
        Bilinear.from_values(dim, dim, circ_vals),
        Cochain.from_values(2, dim, dim, vee_vals),
    )
    if not ns_check(ns).ok:
        raise InternalInconsistency("the Nijenhuis construction fails the NS-Lie axioms")
    return ns


@dataclass(frozen=True)
class AssocNs:
    """Candidate associative NS-algebra: three products prec, succ, box."""

    dim: int
    prec: Bilinear
    succ: Bilinear
    box: Bilinear

    def star_all(self, x: Sequence, y: Sequence) -> Vector:
        """x (*) y = x prec y + x succ y + x box y."""
        return vec_add(
            vec_add(self.prec.eval(x, y), self.succ.eval(x, y)), self.box.eval(x, y)
        )


def assoc_ns_check(a: AssocNs) -> EquationReport:
    """The four defining identities on all ordered basis triples."""
    dim = a.dim
    basis = [tuple(1 if t == i else 0 for t in range(dim)) for i in range(dim)]

    def prec_assoc(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(a.prec.eval(a.prec.eval(x, y), z), a.prec.eval(x, a.star_all(y, z)))

    def succ_prec(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(a.prec.eval(a.succ.eval(x, y), z), a.succ.eval(x, a.prec.eval(y, z)))

    def succ_assoc(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(a.succ.eval(a.star_all(x, y), z), a.succ.eval(x, a.succ.eval(y, z)))

    def box(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(
            vec_add(a.prec.eval(a.box.eval(x, y), z), a.box.eval(a.star_all(x, y), z)),
            vec_add(a.succ.eval(x, a.box.eval(y, z)), a.box.eval(x, a.star_all(y, z))),
        )

    triples = list(itertools.product(range(dim), repeat=3))
    identities = {"prec-assoc": prec_assoc, "succ-prec": succ_prec, "succ-assoc": succ_assoc, "box": box}
    return EquationReport(tuple((k, first_failure(k, triples, f)) for k, f in identities.items()))


def ns_from_assoc(a: AssocNs) -> NsLie:
    """x circ y = x succ y - y prec x, x vee y = x box y - y box x."""
    verdict = assoc_ns_check(a)
    if not verdict.ok:
        raise NotAssocNs(verdict.first_violation().describe())
    dim = a.dim
    basis = [tuple(1 if t == i else 0 for t in range(dim)) for i in range(dim)]
    circ_vals = {
        (i, j): vec_sub(a.succ.eval(basis[i], basis[j]), a.prec.eval(basis[j], basis[i]))
        for i in range(dim)
        for j in range(dim)
    }
    vee_vals = {
        (i, j): vec_sub(a.box.eval(basis[i], basis[j]), a.box.eval(basis[j], basis[i]))
        for i, j in ext_basis(dim, 2)
    }
    ns = NsLie(
        dim,
        Bilinear.from_values(dim, dim, circ_vals),
        Cochain.from_values(2, dim, dim, vee_vals),
    )
    if not ns_check(ns).ok:
        raise InternalInconsistency("the associative NS construction fails the NS-Lie axioms")
    return ns


def ns_from_trb(setup: TrbSetup, t: Operator) -> NsLie:
    """u circ v = T(u).v, u vee v = H(Tu, Tv) on the module."""
    require_trb(setup, t)
    m = setup.module_dim
    circ_vals = {
        (i, j): setup.rep.act_vec_on_basis(t.col(i), j) for i in range(m) for j in range(m)
    }
    vee_vals = {
        (i, j): setup.cocycle.skew_eval([t.col(i), t.col(j)]) for i, j in ext_basis(m, 2)
    }
    ns = NsLie(
        m,
        Bilinear.from_values(m, m, circ_vals),
        Cochain.from_values(2, m, m, vee_vals),
    )
    if not ns_check(ns).ok:
        raise InternalInconsistency("the operator construction fails the NS-Lie axioms")
    return ns


def trb_from_ns(ns: NsLie) -> tuple[TrbSetup, Operator]:
    """The identity map over the adjacent Lie algebra, twisted by vee."""
    verdict = ns_check(ns)
    if not verdict.ok:
        raise NotNsLie(verdict.first_violation().describe())
    algebra, rep = adjacent_lie(ns)
    setup = trb_setup(algebra, rep, ns.vee)
    ident = Matrix.identity(ns.dim)
    require_trb(setup, ident)
    return setup, ident
