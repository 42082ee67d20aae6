from fractions import Fraction

import pytest

from oracles import act_on_basis_dense, bracket_dense, hstack
from twistrb import corpus
from twistrb.errors import NonzeroH, NotGcs, NotSkew
from twistrb.exactlin import Matrix
from twistrb.liealg import abelian, adjoint_rep, trivial_rep
from twistrb.multilin import Cochain
from twistrb.operators import check_trb, trb_setup, twisted_semidirect
from twistrb.tgcs import (
    GcsComponents,
    LieGcsTriple,
    _pairing_matrix,
    complex_structure_check,
    embed_complex,
    gcs_components,
    gcs_from_invertible_rb,
    lie_tgcs_check,
    opposite,
    tgcs_check_components,
    tgcs_check_direct,
)


def one_dim_setup():
    g = abelian(1)
    return trb_setup(g, trivial_rep(g, 1), None)


def test_one_dimensional_example():
    setup = one_dim_setup()
    j = gcs_components(
        setup, Matrix.zero(1, 1), Matrix.from_rows([[1]]), Matrix.from_rows([[-1]]), Matrix.zero(1, 1)
    )
    assert tgcs_check_direct(setup, j).ok
    report = tgcs_check_components(setup, j)
    assert report.ok and all(report.verdicts().values())


def test_identity_is_not_almost_complex():
    setup = one_dim_setup()
    j = GcsComponents(Matrix.identity(1), Matrix.zero(1, 1), Matrix.zero(1, 1), -Matrix.identity(1))
    report = tgcs_check_direct(setup, j)
    assert not report.ok
    assert not report["almost-complex"].ok


def test_dropping_sigma_fails_equation_two():
    setup = one_dim_setup()
    j = GcsComponents(Matrix.zero(1, 1), Matrix.from_rows([[1]]), Matrix.zero(1, 1), Matrix.zero(1, 1))
    report = tgcs_check_components(setup, j)
    assert not report["N^2 + T.sigma = -id"].ok
    assert not tgcs_check_direct(setup, j).ok


def test_gcs_from_invertible_rb_abelian():
    g = abelian(2)
    setup = trb_setup(g, trivial_rep(g, 2), None)
    for t in (Matrix.identity(2), Matrix.from_rows([[1, 1], [0, 1]]), Matrix.from_rows([[2, 1], [1, 1]])):
        j = gcs_from_invertible_rb(setup, t)
        assert tgcs_check_direct(setup, j).ok
        assert j.t_map == t and j.sigma == -t.invert()


def test_gcs_from_invertible_rb_nonabelian(algebras):
    """The inverse of an invertible derivation is an invertible untwisted
    operator; on the Heisenberg algebra diag(1,1,2) is such a derivation."""
    g = algebras["heisenberg"]
    setup = trb_setup(g, adjoint_rep(g), None)
    t = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])
    assert check_trb(setup, t).ok
    j = gcs_from_invertible_rb(setup, t)
    assert tgcs_check_direct(setup, j).ok
    assert tgcs_check_components(setup, j).ok


def test_gcs_from_invertible_rb_rejects_twisted(trb_corpus):
    for name, setup, t in trb_corpus:
        if setup.cocycle.is_zero():
            continue
        if setup.dim != setup.module_dim or t.rank() < setup.dim:
            continue
        with pytest.raises(NonzeroH):
            gcs_from_invertible_rb(setup, t)
        return


def test_random_components_cross_validation(rng, trb_corpus):
    """tgcs_check_components itself asserts agreement with the direct check."""
    for name, setup, _ in trb_corpus[:5]:
        n, m = setup.dim, setup.module_dim
        for _ in range(40):
            j = GcsComponents(
                corpus.random_matrix(rng, n, n, 1),
                corpus.random_matrix(rng, n, m, 1),
                corpus.random_matrix(rng, m, n, 1),
                corpus.random_matrix(rng, m, m, 1),
            )
            report = tgcs_check_components(setup, j)
            assert report.ok == tgcs_check_direct(setup, j).ok, name


def test_conjugated_complex_structures_cross_validation(rng):
    """J = P J0 P^{-1} satisfies J^2 = -id; integrability varies; routes agree."""
    g = abelian(2)
    setup = trb_setup(g, trivial_rep(g, 2), None)
    j0 = Matrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    )
    hits = 0
    for _ in range(40):
        p = corpus.random_matrix(rng, 4, 4, 1)
        if p.rank() < 4:
            continue
        big = p @ j0 @ p.invert()
        j = GcsComponents(
            Matrix.from_rows([[big[i, k] for k in range(2)] for i in range(2)]),
            Matrix.from_rows([[big[i, 2 + k] for k in range(2)] for i in range(2)]),
            Matrix.from_rows([[big[2 + i, k] for k in range(2)] for i in range(2)]),
            Matrix.from_rows([[-big[2 + i, 2 + k] for k in range(2)] for i in range(2)]),
        )
        report = tgcs_check_components(setup, j)
        assert report["NT = TS"].ok and report["N^2 + T.sigma = -id"].ok
        hits += 1
    assert hits >= 10


def test_equation5_implies_untwisted_rb(rng, trb_corpus):
    for name, setup, _ in trb_corpus[:4]:
        n, m = setup.dim, setup.module_dim
        untwisted = trb_setup(setup.algebra, setup.rep, None)
        for _ in range(25):
            j = GcsComponents(
                corpus.random_matrix(rng, n, n, 1),
                corpus.random_matrix(rng, n, m, 1),
                corpus.random_matrix(rng, m, n, 1),
                corpus.random_matrix(rng, m, m, 1),
            )
            report = tgcs_check_components(setup, j)
            if report["untwisted-rb"].ok:
                assert check_trb(untwisted, j.t_map).ok, name


def test_equation6_is_graph_closure_in_flipped_twist(rng, trb_corpus):
    """The (-H)-twisted bracket of graph generators (Tu, Su), (Tv, Sv) equals
    (Tw, Sw) with the canonical witness w = Tu.v - Tv.u exactly when
    equations 5 (T-component) and 6 (S-component) hold; the S-component
    comparison alone reproduces the equation-6 verdict, and jointly they give
    rank-closure of the graph."""
    from twistrb.exactlin import vec_sub
    from twistrb.multilin import ext_basis

    for name, setup, _ in trb_corpus[:4]:
        n, m = setup.dim, setup.module_dim
        flipped = trb_setup(setup.algebra, setup.rep, -setup.cocycle)
        semi = twisted_semidirect(flipped)
        for _ in range(25):
            j = GcsComponents(
                corpus.random_matrix(rng, n, n, 1),
                corpus.random_matrix(rng, n, m, 1),
                corpus.random_matrix(rng, m, n, 1),
                corpus.random_matrix(rng, m, m, 1),
            )
            report = tgcs_check_components(setup, j)
            s_component_ok = True
            t_component_ok = True
            for a, b in ext_basis(m, 2):
                ga = tuple(j.t_map.col(a)) + tuple(j.s_map.col(a))
                gb = tuple(j.t_map.col(b)) + tuple(j.s_map.col(b))
                bracket = bracket_dense(semi, ga, gb)
                w = vec_sub(
                    act_on_basis_dense(setup.rep, j.t_map.col(a), b),
                    act_on_basis_dense(setup.rep, j.t_map.col(b), a),
                )
                if bracket[:n] != j.t_map.apply(w):
                    t_component_ok = False
                if bracket[n:] != j.s_map.apply(w):
                    s_component_ok = False
            assert report["graph-TS"].ok == s_component_ok, name
            assert report["untwisted-rb"].ok == t_component_ok, name
            if s_component_ok and t_component_ok:
                span = Matrix.from_cols(
                    [tuple(j.t_map.col(a)) + tuple(j.s_map.col(a)) for a in range(m)],
                    rows=n + m,
                )
                base_rank = span.rank()
                for a, b in ext_basis(m, 2):
                    w = bracket_dense(semi, span.col(a), span.col(b))
                    grown = hstack(span, Matrix.from_cols([w], rows=n + m)).rank()
                    assert grown == base_rank, name


def test_opposite_involution(rng, trb_corpus):
    setup = one_dim_setup()
    j = gcs_components(
        setup, Matrix.zero(1, 1), Matrix.from_rows([[1]]), Matrix.from_rows([[-1]]), Matrix.zero(1, 1)
    )
    flipped, jop = opposite(setup, j)
    assert tgcs_check_direct(flipped, jop).ok
    back, jback = opposite(flipped, jop)
    assert jback == j
    assert back.cocycle == setup.cocycle


def test_opposite_with_nonzero_twist():
    """A genuinely twisted passing instance: abelian frame, trivial action,
    nonzero closed twist, rotation blocks on both factors."""
    g = abelian(2)
    h = Cochain.from_values(2, 2, 2, {(0, 1): (1, 2)})
    setup = trb_setup(g, trivial_rep(g, 2), h)
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    j = GcsComponents(rot, Matrix.zero(2, 2), Matrix.zero(2, 2), rot)
    assert tgcs_check_direct(setup, j).ok
    assert tgcs_check_components(setup, j).ok
    flipped, jop = opposite(setup, j)
    assert flipped.cocycle == -setup.cocycle
    assert tgcs_check_direct(flipped, jop).ok
    # double opposite returns the original data
    back, jback = opposite(flipped, jop)
    assert jback == j and back.cocycle == setup.cocycle


def test_opposite_rejects_non_gcs():
    setup = one_dim_setup()
    j = GcsComponents(Matrix.identity(1), Matrix.zero(1, 1), Matrix.zero(1, 1), Matrix.identity(1))
    with pytest.raises(NotGcs):
        opposite(setup, j)


def test_complex_structure_cases():
    g = abelian(2)
    rep = trivial_rep(g, 2)
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    assert complex_structure_check(g, rep, rot, rot).ok
    assert not complex_structure_check(g, rep, Matrix.identity(2), rot).ok
    j = embed_complex(rot, rot)
    assert j.s_map == -rot
    setup = trb_setup(g, rep, None)
    assert tgcs_check_direct(setup, j).ok


def test_complex_structure_module_compat_can_fail():
    g = abelian(2)
    rep_mats = (Matrix.from_rows([[1, 0], [0, 0]]), Matrix.zero(2, 2))
    from twistrb.liealg import Representation, validate_rep

    rep = validate_rep(g, 2, rep_mats)
    assert isinstance(rep, Representation)
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    report = complex_structure_check(g, rep, rot, rot)
    assert not report["module-compat"].ok


def test_lie_tgcs_abelian_example():
    g = abelian(2)
    r = Matrix.from_rows([[0, 1], [-1, 0]])
    sigma = Matrix.from_rows([[0, 1], [-1, 0]])
    assert (sigma @ r + Matrix.identity(2)).is_zero()
    psi0 = Cochain.zero(3, 2, 1)
    report = lie_tgcs_check(g, psi0, LieGcsTriple(Matrix.zero(2, 2), r, sigma))
    assert report.ok
    assert report["orthogonality"].ok


def test_lie_tgcs_rejects_bad_inputs():
    g = abelian(2)
    psi0 = Cochain.zero(3, 2, 1)
    with pytest.raises(NotSkew):
        lie_tgcs_check(g, psi0, LieGcsTriple(Matrix.zero(2, 2), Matrix.identity(2), Matrix.zero(2, 2)))
    bad = LieGcsTriple(Matrix.identity(2), Matrix.zero(2, 2), Matrix.zero(2, 2))
    report = lie_tgcs_check(g, psi0, bad)
    assert not report.ok


def test_block_form_is_skew_adjoint_for_pairing(rng, algebras):
    """<Jr, s> + <r, Js> = 0 holds for every block triple with skew r, sigma."""
    g = algebras["sl2"]
    n = g.dim
    pairing = _pairing_matrix(n)
    for _ in range(30):
        nm = corpus.random_matrix(rng, n, n, 2)
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        r = Matrix.from_rows([[0, a, b], [-a, 0, c], [-b, -c, 0]])
        d, e, f = (rng.randint(-2, 2) for _ in range(3))
        sigma = Matrix.from_rows([[0, d, e], [-d, 0, f], [-e, -f, 0]])
        j = GcsComponents(nm, r, sigma, nm.transpose())
        big = j.block()
        skew_adj = big.transpose() @ pairing + pairing @ big
        assert skew_adj.is_zero()


def test_lie_tgcs_twisted_heisenberg_probe(rng, algebras):
    """On a 3-dim algebra any top form is closed; the checker runs end to end
    and the orthogonality verdict matches J^2 = -id for block forms."""
    g = algebras["heisenberg"]
    psi = Cochain.from_values(3, 3, 1, {(0, 1, 2): (1,)})
    hits = {True: 0, False: 0}
    for _ in range(40):
        a, b, c = (rng.randint(-1, 1) for _ in range(3))
        r = Matrix.from_rows([[0, a, b], [-a, 0, c], [-b, -c, 0]])
        d, e, f = (rng.randint(-1, 1) for _ in range(3))
        sigma = Matrix.from_rows([[0, d, e], [-d, 0, f], [-e, -f, 0]])
        nm = corpus.random_matrix(rng, 3, 3, 1)
        report = lie_tgcs_check(g, psi, LieGcsTriple(nm, r, sigma))
        j = GcsComponents(nm, r, sigma, nm.transpose())
        square_ok = (j.block() @ j.block() + Matrix.identity(6)).is_zero()
        assert report["orthogonality"].ok == square_ok
        hits[report.ok] += 1
    assert hits[False] > 0  # random triples overwhelmingly fail integrability
