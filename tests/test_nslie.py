import itertools
import re

import pytest

from oracles import bilinear_eval_dense, bracket_basis, star_dense
from twistrb import corpus, nslie
from twistrb.errors import NotNsLie
from twistrb.exactlin import Matrix, basis_vector
from twistrb.liealg import Representation, ce_differential_cochain, deformed_bracket
from twistrb.multilin import Bilinear, Cochain, ext_basis
from twistrb.nslie import (
    AssocNs,
    NsLie,
    adjacent_lie,
    assoc_ns_check,
    ns_check,
    ns_from_assoc,
    ns_from_nijenhuis,
    ns_from_trb,
    trb_from_ns,
)
from twistrb.operators import check_trb, induced_bracket, nijenhuis_trb_setup


def upper_triangular_product():
    """2x2 upper triangular matrices, basis (E11, E12, E22)."""
    return Bilinear.from_values(
        3,
        3,
        {
            (0, 0): (1, 0, 0),
            (0, 1): (0, 1, 0),
            (1, 2): (0, 1, 0),
            (2, 2): (0, 0, 1),
        },
    )


def test_lie_bracket_alone_is_ns(algebras):
    sl2 = algebras["sl2"]
    ns = NsLie(3, Bilinear.zero(3, 3), sl2.bracket)
    assert ns_check(ns).ok
    algebra, rep = adjacent_lie(ns)
    assert algebra.bracket == sl2.bracket
    assert all(m.is_zero() for m in rep.action)


def test_pre_lie_alone_is_ns():
    ns = NsLie(3, upper_triangular_product(), Cochain.zero(2, 3, 3))
    assert ns_check(ns).ok
    algebra, _ = adjacent_lie(ns)
    # the adjacent bracket is the commutator: [E11, E12] = E12
    assert bracket_basis(algebra, 0, 1) == (0, 1, 0)


def test_ns_check_rejects_junk():
    # e1 o e2 = e1 alone breaks NS1: the defect on (e1, e2, e2) is e1 o e2
    circ = Bilinear.from_values(2, 2, {(0, 1): (1, 0)})
    bad = NsLie(2, circ, Cochain.zero(2, 2, 2))
    report = ns_check(bad)
    assert not report.ok
    assert not report["NS1"].ok
    with pytest.raises(NotNsLie):
        adjacent_lie(bad)


@pytest.mark.parametrize("ok", [True, False])
def test_trb_from_ns_checks_the_axioms_once(monkeypatch, ok):
    """The NS check runs once, inside `adjacent_lie`, and a failure raises its witness."""
    circ = upper_triangular_product() if ok else Bilinear.from_values(3, 3, {(0, 1): (1, 0, 0)})
    ns = NsLie(3, circ, Cochain.zero(2, 3, 3))
    calls = []
    monkeypatch.setattr(nslie, "ns_check", lambda candidate: calls.append(candidate) or ns_check(candidate))
    if ok:
        trb_from_ns(ns)
    else:
        with pytest.raises(NotNsLie, match=re.escape(ns_check(ns).first_violation().describe())):
            trb_from_ns(ns)
    assert calls == [ns]


def test_ns_from_nijenhuis_cases(algebras):
    sl2 = algebras["sl2"]
    ns_id = ns_from_nijenhuis(sl2, Matrix.identity(3))
    # circ = bracket, vee = -bracket, adjacent telescopes to the bracket
    algebra, _ = adjacent_lie(ns_id)
    assert algebra.bracket == sl2.bracket
    ns_zero = ns_from_nijenhuis(sl2, Matrix.zero(3, 3))
    assert ns_zero.circ.is_zero() and ns_zero.vee.is_zero()
    aff = algebras["affine"]
    for lam, mu in itertools.product((-1, 0, 1, 2), repeat=2):
        ns = ns_from_nijenhuis(aff, Matrix.from_rows([[lam, 0], [0, mu]]))
        assert ns_check(ns).ok


def test_ns_from_nijenhuis_adjacent_is_deformed_bracket(algebras):
    aff = algebras["affine"]
    n = Matrix.from_rows([[2, 0], [0, 3]])
    ns = ns_from_nijenhuis(aff, n)
    algebra, _ = adjacent_lie(ns)
    assert algebra.bracket == deformed_bracket(aff, n).bracket


def test_assoc_ns_examples():
    prod = upper_triangular_product()
    a = AssocNs(3, prod, Bilinear.zero(3, 3), Bilinear.zero(3, 3))
    assert assoc_ns_check(a).ok
    ns = ns_from_assoc(a)
    assert ns_check(ns).ok
    # circ(x, y) = -y*x, vee = 0, adjacent = commutator
    assert ns.vee.is_zero()
    basis = [tuple(1 if k == i else 0 for k in range(3)) for i in range(3)]
    for i in range(3):
        for j in range(3):
            expected = tuple(-x for x in bilinear_eval_dense(prod, basis[j], basis[i]))
            assert ns.circ.value_on_basis(i, j) == expected
    zero = AssocNs(2, Bilinear.zero(2, 2), Bilinear.zero(2, 2), Bilinear.zero(2, 2))
    assert assoc_ns_check(zero).ok
    assert ns_from_assoc(zero).circ.is_zero()


def test_assoc_ns_rejects_nonassociative():
    bad = Bilinear.from_values(2, 2, {(0, 0): (0, 1), (1, 0): (1, 0)})
    a = AssocNs(2, bad, Bilinear.zero(2, 2), Bilinear.zero(2, 2))
    if not assoc_ns_check(a).ok:
        with pytest.raises(Exception):
            ns_from_assoc(a)


def test_ns_from_trb_universal(trb_corpus):
    for name, setup, t in trb_corpus:
        ns = ns_from_trb(setup, t)
        assert ns_check(ns).ok, name
        algebra, _ = adjacent_lie(ns)
        assert algebra.bracket == induced_bracket(setup, t).bracket, name


def test_ns_from_trb_zero_operator(trb_corpus):
    name, setup, _ = trb_corpus[0]
    zero = Matrix.zero(setup.dim, setup.module_dim)
    ns = ns_from_trb(setup, zero)
    assert ns.circ.is_zero() and ns.vee.is_zero()


def test_ns_from_trb_matches_nijenhuis_route(algebras):
    for g, n in [
        (algebras["affine"], Matrix.from_rows([[2, 0], [0, 3]])),
        (algebras["sl2"], Matrix.identity(3).scale(3)),
        (algebras["heisenberg"], Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]])),
    ]:
        setup, ident = nijenhuis_trb_setup(g, n)
        via_trb = ns_from_trb(setup, ident)
        via_nij = ns_from_nijenhuis(g, n)
        assert via_trb.circ == via_nij.circ
        assert via_trb.vee == via_nij.vee


def test_trb_from_ns_round_trip(trb_corpus):
    for name, setup, t in trb_corpus[:6]:
        ns = ns_from_trb(setup, t)
        rebuilt_setup, ident = trb_from_ns(ns)
        assert check_trb(rebuilt_setup, ident).ok, name
        # the rebuilt twist is vee, i.e. H composed with T on both slots
        for i, j in ext_basis(setup.module_dim, 2):
            assert rebuilt_setup.cocycle.value_on_basis((i, j)) == setup.cocycle.skew_eval(
                [t.col(i), t.col(j)]
            ), name


def test_trb_from_ns_pre_lie_gives_untwisted_operator():
    ns = NsLie(3, upper_triangular_product(), Cochain.zero(2, 3, 3))
    setup, ident = trb_from_ns(ns)
    assert setup.cocycle.is_zero()
    assert check_trb(setup, ident).ok


def test_ns2_iff_vee_closed_over_adjacent_data(rng):
    """NS2 holds iff vee is closed over the adjacent data, both directions."""
    dim = 3
    for _ in range(25):
        circ = Bilinear(dim, dim, corpus.random_matrix(rng, dim, dim * dim, bound=1))
        vee_vals = {
            t: [rng.randint(-1, 1) for _ in range(dim)] for t in ext_basis(dim, 2)
        }
        vee = Cochain.from_values(2, dim, dim, vee_vals)
        cand = NsLie(dim, circ, vee)
        basis = [basis_vector(dim, i) for i in range(dim)]
        star_vals = {(i, j): star_dense(cand, basis[i], basis[j]) for i, j in ext_basis(dim, 2)}
        star = Cochain.from_values(2, dim, dim, star_vals)
        action = tuple(
            Matrix.from_cols([circ.value_on_basis(i, j) for j in range(dim)], rows=dim)
            for i in range(dim)
        )
        formal_rep = Representation(dim, action)
        closed = ce_differential_cochain(star, formal_rep, vee).is_zero()
        ns2 = ns_check(cand)["NS2"].ok
        assert closed == ns2
