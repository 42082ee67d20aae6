import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    act_on_basis_dense,
    bracket2_unshuffle,
    bracket_basis,
    bracket_dense,
    bracket3_six_sum,
    cohomology_dims_oracle,
    d_t_matrix_bracket3,
    graded_perm_sign,
)
from twistrb import corpus, linfty
from twistrb.errors import NotTwistedRB
from twistrb.exactlin import Matrix, vec_scale, vec_sub
from twistrb.linfty import (
    bracket2,
    bracket3,
    cohomology_of_t_dims,
    compare_dt_ce,
    d_t,
    d_t_matrix,
    d_t_unchecked,
    induced_structure,
    linfty_jacobi_defect,
    mc_defect,
    mc_defect_shifted,
    operator_element,
    twisted_bracket2,
    zero_element,
)
from twistrb.liealg import adjoint_rep, ce_cohomology_dims, ce_differential_cochain, coadjoint_rep, trivial_rep
from twistrb.multilin import Cochain, ext_basis
from twistrb.operators import check_trb, setup_from_invertible_cochain


def random_element(rng, setup, degree):
    size = math.comb(setup.module_dim, degree) * setup.dim
    return Cochain.from_vec(
        degree, setup.module_dim, setup.dim, [Fraction(rng.randint(-2, 2)) for _ in range(size)]
    )


def test_bracket2_operator_closed_form(rng, trb_corpus):
    """[[T,T]](u,v) = 2{T(Tu.v - Tv.u) - [Tu,Tv]} entry for entry."""
    for name, setup, _ in trb_corpus[:6]:
        for _ in range(5):
            t = corpus.random_operator(rng, setup)
            te = operator_element(setup, t)
            b2 = bracket2(setup, te, te)
            for i, j in ext_basis(setup.module_dim, 2):
                tu, tv = t.col(i), t.col(j)
                inner = vec_sub(
                    act_on_basis_dense(setup.rep, tu, j), act_on_basis_dense(setup.rep, tv, i)
                )
                expected = vec_scale(
                    Fraction(2), vec_sub(t.apply(inner), bracket_dense(setup.algebra, tu, tv))
                )
                assert b2.value_on_basis((i, j)) == expected, name


def test_bracket2_bilinearity_zero(trb_corpus):
    name, setup, t = trb_corpus[0]
    te = operator_element(setup, t)
    zero = zero_element(setup, 2)
    assert bracket2(setup, te, zero).is_zero()
    assert bracket2(setup, zero, te).is_zero()


def test_bracket2_degree_zero_is_plain_bracket(trb_corpus):
    """[[x, y]] = [x, y] for constants; the recorded sign is +1."""
    for name, setup, _ in trb_corpus[:4]:
        n = setup.dim
        for i in range(n):
            for j in range(n):
                x = Cochain(0, setup.module_dim, n, Matrix(n, 1, [1 if k == i else 0 for k in range(n)]))
                y = Cochain(0, setup.module_dim, n, Matrix(n, 1, [1 if k == j else 0 for k in range(n)]))
                out = bracket2(setup, x, y)
                assert out.value_on_basis(()) == bracket_basis(setup.algebra, i, j)


def test_bracket3_operator_closed_form(rng, trb_corpus):
    """[[T,T,T]](u,v) = -6 T(H(Tu,Tv)) entry for entry."""
    for name, setup, _ in trb_corpus[:6]:
        for _ in range(5):
            t = corpus.random_operator(rng, setup)
            te = operator_element(setup, t)
            b3 = bracket3(setup, te, te, te)
            for i, j in ext_basis(setup.module_dim, 2):
                hv = setup.cocycle.skew_eval([t.col(i), t.col(j)])
                assert b3.value_on_basis((i, j)) == vec_scale(Fraction(-6), t.apply(hv)), name


def test_bracket3_untwisted_vanishes(algebras, rng):
    from twistrb.liealg import trivial_rep
    from twistrb.operators import trb_setup

    g = algebras["sl2"]
    setup = trb_setup(g, trivial_rep(g, 2), None)
    for _ in range(5):
        degs = [rng.randint(0, 2) for _ in range(3)]
        p, q, r = (random_element(rng, setup, d) for d in degs)
        assert bracket3(setup, p, q, r).is_zero()


def test_bracket3_multilinearity_zero(trb_corpus):
    name, setup, t = trb_corpus[0]
    te = operator_element(setup, t)
    zero = zero_element(setup, 1)
    assert bracket3(setup, te, te, zero).is_zero()
    assert bracket3(setup, zero, te, te).is_zero()


def test_bracket3_matches_six_sum_display_on_positive_degrees(rng, trb_corpus):
    """The paper's six-unshuffle display agrees with the insertion-bracket form
    whenever every argument has degree >= 1."""
    for name, setup, _ in trb_corpus[:4]:
        for degs in itertools.product((1, 2), repeat=3):
            if sum(degs) - 1 > setup.module_dim:
                continue
            p, q, r = (random_element(rng, setup, d) for d in degs)
            assert bracket3(setup, p, q, r) == bracket3_six_sum(setup, p, q, r), (name, degs)


def test_graded_skew_symmetry(rng, trb_corpus):
    for name, setup, _ in trb_corpus[:3]:
        for degs in itertools.product((0, 1, 2), repeat=2):
            p, q = (random_element(rng, setup, d) for d in degs)
            lhs = bracket2(setup, q, p)
            rhs = bracket2(setup, p, q).scale(Fraction(-((-1) ** (degs[0] * degs[1]))))
            assert lhs == rhs, (name, degs)
        for degs in itertools.product((0, 1, 2), repeat=3):
            p, q, r = (random_element(rng, setup, d) for d in degs)
            base = bracket3(setup, p, q, r)
            for perm in itertools.permutations(range(3)):
                got = bracket3(setup, *[(p, q, r)[k] for k in perm])
                sign = graded_perm_sign(degs, perm)
                assert got == base.scale(Fraction(sign)), (name, degs, perm)


def test_mc_defect_biconditional(rng, trb_corpus):
    for name, setup, t in trb_corpus:
        assert mc_defect(setup, t)[0].is_zero(), name
        for _ in range(10):
            cand = corpus.random_operator(rng, setup)
            defect, direct = mc_defect(setup, cand)
            assert direct == check_trb(setup, cand), name
            assert defect.is_zero() == direct.ok, name


def test_mc_defect_embeds_the_operator_once(rng, trb_corpus):
    """[[T,T]] and [[T,T,T]] come from one chain that brings T in three times: T is embedded on
    g (+) M once per `mc_defect`, passing or not, and the defect is unchanged."""
    embed = linfty._embed
    for name, setup, t in trb_corpus:
        for op in (t, corpus.random_operator(rng, setup)):
            expected = mc_defect(setup, op)
            with mock.patch.object(linfty, "_embed", side_effect=embed) as counted:
                assert mc_defect(setup, op) == expected, name
            assert counted.call_count == 1, name


def test_mc_defect_closed_form(rng, trb_corpus):
    """defect(u,v) = T(Tu.v - Tv.u + H(Tu,Tv)) - [Tu,Tv], recomputed directly."""
    name, setup, _ = trb_corpus[0]
    for _ in range(10):
        t = corpus.random_operator(rng, setup)
        defect, _ = mc_defect(setup, t)
        for i, j in ext_basis(setup.module_dim, 2):
            tu, tv = t.col(i), t.col(j)
            inner = vec_sub(act_on_basis_dense(setup.rep, tu, j), act_on_basis_dense(setup.rep, tv, i))
            inner = tuple(a + b for a, b in zip(inner, setup.cocycle.skew_eval([tu, tv])))
            direct = vec_sub(t.apply(inner), bracket_dense(setup.algebra, tu, tv))
            assert defect.value_on_basis((i, j)) == direct


def test_d_t_zero_and_degree_zero_formula(trb_corpus):
    for name, setup, t in trb_corpus:
        assert d_t(setup, t, zero_element(setup, 1)).is_zero(), name
        n, m = setup.dim, setup.module_dim
        for i in range(n):
            x = Cochain(0, m, n, Matrix(n, 1, [1 if k == i else 0 for k in range(n)]))
            image = d_t(setup, t, x)
            for a in range(m):
                ta = t.col(a)
                xv = x.value_on_basis(())
                expected = bracket_dense(setup.algebra, ta, xv)
                inner = tuple(
                    p + q
                    for p, q in zip(
                        act_on_basis_dense(setup.rep, xv, a),
                        setup.cocycle.skew_eval([xv, ta]),
                    )
                )
                expected = tuple(e + f for e, f in zip(expected, t.apply(inner)))
                assert image.value_on_basis((a,)) == expected, name


def test_d_t_requires_operator(trb_corpus, rng):
    name, setup, t = trb_corpus[0]
    bad = None
    for _ in range(50):
        cand = corpus.random_operator(rng, setup)
        if not check_trb(setup, cand).ok:
            bad = cand
            break
    assert bad is not None
    with pytest.raises(NotTwistedRB):
        d_t(setup, bad, zero_element(setup, 1))


def test_d_t_squares_to_zero(rng, trb_corpus):
    for name, setup, t in trb_corpus:
        for deg in (0, 1, 2):
            for _ in range(3):
                f = random_element(rng, setup, deg)
                assert d_t_unchecked(setup, t, d_t_unchecked(setup, t, f)).is_zero(), name


def test_compare_dt_ce_basis_sweep(trb_corpus):
    for name, setup, t in trb_corpus:
        m, n = setup.module_dim, setup.dim
        for deg in (0, 1, 2):
            size = math.comb(m, deg) * n
            for j in range(size):
                flat = [0] * size
                flat[j] = 1
                f = Cochain.from_vec(deg, m, n, flat)
                assert compare_dt_ce(setup, t, f), (name, deg, j)


def test_d_t_matrix_matches_bracket_route(trb_corpus):
    """The CE-built matrix equals the bracket3-route oracle entry for entry."""
    for name, setup, t in trb_corpus:
        for k in (0, 1, 2):
            assert d_t_matrix(setup, t, k) == d_t_matrix_bracket3(setup, t, k), (name, k)


def test_cohomology_pipeline_equality(trb_corpus):
    for name, setup, t in trb_corpus:
        assert cohomology_of_t_dims(setup, t, 3) == cohomology_dims_oracle(setup, t, 3), name


def test_cohomology_of_singular_operators_with_nonzero_induced_differentials():
    """Both singular corpus operators induce zero structures; the single-entry operators on sl2
    with H = 0 are singular and induce a nonzero bracket and action, so every degree ranks a
    nonzero differential on a complement of a nonzero image."""
    dims = {}
    for name, setup, t in corpus.sl2_single_entry_operators():
        algebra, rep = induced_structure(setup, t)
        assert t.rank() < 3 and not algebra.bracket.is_zero() and not all(m.is_zero() for m in rep.action), name
        dims[name] = cohomology_of_t_dims(setup, t, 3)
        assert dims[name] == cohomology_dims_oracle(setup, t, 3), name
    assert dims == {
        "sl2-rb-e12": [1, 3, 3, 1],
        "sl2-rb-e21": [1, 3, 3, 1],
        "sl2-rb-e31": [0, 1, 2, 1],
        "sl2-rb-e32": [0, 1, 2, 1],
        "sl2-rb-e33": [1, 2, 1, 0],
    }


def test_cohomology_all_differentials_vanish_case():
    """Abelian everything: dims are dim(g) * binomial(dim M, n)."""
    from twistrb.liealg import abelian, trivial_rep
    from twistrb.operators import trb_setup

    g = abelian(2)
    setup = trb_setup(g, trivial_rep(g, 3), None)
    t = Matrix.zero(2, 3)
    dims = cohomology_of_t_dims(setup, t, 3)
    assert dims == [2 * math.comb(3, n) for n in range(4)]


def test_twisted_mc_defect(rng, trb_corpus):
    for name, setup, t in trb_corpus[:6]:
        zero = Matrix.zero(setup.dim, setup.module_dim)
        assert mc_defect_shifted(setup, t, zero).is_zero(), name
        assert mc_defect_shifted(setup, t, -t).is_zero(), name
        for _ in range(6):
            tp = corpus.random_operator(rng, setup)
            shifted = mc_defect_shifted(setup, t, tp)
            assert shifted.is_zero() == check_trb(setup, t + tp).ok, name
            assert shifted == mc_defect(setup, t + tp)[0], name


def test_twisted_bracket2_reduces_to_plain_when_untwisted(rng, algebras):
    from twistrb.liealg import trivial_rep
    from twistrb.operators import trb_setup

    g = algebras["affine"]
    setup = trb_setup(g, trivial_rep(g, 2), None)
    t = Matrix.zero(2, 2)
    for _ in range(5):
        p = random_element(rng, setup, 1)
        q = random_element(rng, setup, 1)
        assert twisted_bracket2(setup, t, p, q) == bracket2(setup, p, q)


def test_higher_jacobi(rng, trb_corpus):
    for name, setup, _ in trb_corpus:
        for n in (2, 3, 4):
            for _ in range(5):
                degs = [rng.randint(0, 2) for _ in range(n)]
                els = [random_element(rng, setup, d) for d in degs]
                assert linfty_jacobi_defect(setup, n, els).is_zero(), (name, n, degs)


# -- the derived brackets against the hand-written forms ------------------

CORPUS = corpus.trb_instances()
# zero-heavy, non-integer entries
SCALARS = st.sampled_from([Fraction(0)] * 5 + [Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(-5, 7)])


def setups():
    return st.sampled_from([setup for _, setup, _ in CORPUS])


def entries(size):
    return st.lists(SCALARS, min_size=size, max_size=size)


@st.composite
def elements(draw, setup):
    degree = draw(st.integers(0, 3))
    m, n = setup.module_dim, setup.dim
    return Cochain.from_vec(degree, m, n, draw(entries(math.comb(m, degree) * n)))


@st.composite
def operators(draw, setup):
    return Matrix(setup.dim, setup.module_dim, draw(entries(setup.dim * setup.module_dim)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bracket2_matches_unshuffle_oracle(data):
    setup = data.draw(setups())
    p, q = data.draw(elements(setup)), data.draw(elements(setup))
    assert bracket2(setup, p, q) == bracket2_unshuffle(setup, p, q), (p.degree, q.degree)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mc_defect_is_half_bracket2_minus_sixth_bracket3(data):
    setup = data.draw(setups())
    t = data.draw(operators(setup))
    te = operator_element(setup, t)
    expected = bracket2(setup, te, te).scale(Fraction(1, 2)) - bracket3(setup, te, te, te).scale(Fraction(1, 6))
    defect, direct = mc_defect(setup, t)
    assert defect == expected
    assert direct == check_trb(setup, t)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_d_t_unchecked_matches_brackets(data):
    setup = data.draw(setups())
    t = data.draw(operators(setup))
    f = data.draw(elements(setup))
    te = operator_element(setup, t)
    expected = bracket2(setup, te, f) - bracket3(setup, te, te, f).scale(Fraction(1, 2))
    assert d_t_unchecked(setup, t, f) == expected, f.degree


# -- the (g, M) route of operator cohomology for an invertible T ----------------

# wide coprime denominators (2^61 - 1 and 10^9 + 7 are prime) next to small ones
WIDE_SCALARS = st.builds(
    Fraction, st.integers(-(2**64), 2**64), st.sampled_from([1, 2, 3, 2**61 - 1, 10**9 + 7])
)
NONZERO_WIDE = WIDE_SCALARS.filter(bool)
SINGULAR = {"abelian-zero", "heis-reynolds-zero"}


def invertible_cases():
    """(label, setup, T, degree): the invertible corpus operators to degree 3, and the Heisenberg
    ladder, sparse and dense, h3 and h5 to degree 3 and h7 to degree 2."""
    out = [(name, setup, t, 3) for name, setup, t in CORPUS if name not in SINGULAR]
    for label, setup, t in corpus.heisenberg_ladder(random.Random(20240817)):
        out.append((label, setup, t, 2 if label.startswith("h7") else 3))
    return out


INVERTIBLE = invertible_cases()


def singular_cases():
    """The singular (heis-reynolds-zero, the single-entry operators on sl2) and non-square
    (abelian-zero) operators."""
    return [(name, setup, t) for name, setup, t in CORPUS if name in SINGULAR] + corpus.sl2_single_entry_operators()


def no_induced_structure(setup, t):
    raise AssertionError("the induced route was taken")


def assert_lemma(setup, t):
    """H = -delta(T^{-1}) exactly, the lemma behind the (g, M) route."""
    h = Cochain.from_matrix_map(t.invert())
    assert setup.cocycle == -ce_differential_cochain(setup.algebra.bracket, setup.rep, h)


def test_corpus_operators_split_into_invertible_and_singular():
    """Every corpus operator but the two zero ones is square and invertible, and the singular
    cases all are singular or not square."""
    assert {name for name, _, t in CORPUS if t.rows != t.cols or t.rank() < t.rows} == SINGULAR
    for label, _, t, _ in INVERTIBLE:
        assert t.rows == t.cols and t.rank() == t.rows, label
    for name, _, t in singular_cases():
        assert t.rows != t.cols or t.rank() < t.rows, name


@pytest.mark.parametrize("label", [case[0] for case in INVERTIBLE])
def test_invertible_operator_cohomology_is_ce_of_g_and_m(label, monkeypatch):
    """The (g, M) route equals the induced route, and the bracket oracle on the dimension-2 and -3
    cases; H = -delta(T^{-1}); the route does not reach `induced_structure`."""
    _, setup, t, n_max = next(case for case in INVERTIBLE if case[0] == label)
    expected = ce_cohomology_dims(*induced_structure(setup, t), n_max)
    if setup.dim <= 3:
        assert expected == cohomology_dims_oracle(setup, t, n_max)
    assert_lemma(setup, t)
    monkeypatch.setattr(linfty, "induced_structure", no_induced_structure)
    assert cohomology_of_t_dims(setup, t, n_max) == expected


@pytest.mark.parametrize("name", [case[0] for case in singular_cases()])
def test_singular_operators_take_the_induced_route(name, monkeypatch):
    _, setup, t = next(case for case in singular_cases() if case[0] == name)
    expected = cohomology_of_t_dims(setup, t, 2)
    assert expected == ce_cohomology_dims(*induced_structure(setup, t), 2)
    monkeypatch.setattr(linfty, "induced_structure", no_induced_structure)
    with pytest.raises(AssertionError, match="the induced route was taken"):
        cohomology_of_t_dims(setup, t, 2)


@st.composite
def invertible_cochains(draw, n):
    """h = L D U: unit lower and upper triangular factors and a diagonal of nonzero entries,
    all with wide denominators."""
    lower = [[Fraction(int(i == j)) if j >= i else draw(WIDE_SCALARS) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) if j <= i else draw(WIDE_SCALARS) for j in range(n)] for i in range(n)]
    diagonal = Matrix(n, n, [draw(NONZERO_WIDE) if i == j else 0 for i in range(n) for j in range(n)])
    return Matrix.from_rows(lower) @ diagonal @ Matrix.from_rows(upper)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drawn_invertible_cochain_operator_cohomology(data):
    """T = h^{-1} for drawn h on the named algebras acting on themselves (adjoint, coadjoint) or
    trivially: both routes and the bracket oracle agree to degree 3, and H = -delta(T^{-1})."""
    name, g = data.draw(st.sampled_from(corpus.named_algebras()))
    rep = data.draw(st.sampled_from([adjoint_rep(g), coadjoint_rep(g), trivial_rep(g, g.dim)]))
    setup, t = setup_from_invertible_cochain(g, rep, data.draw(invertible_cochains(g.dim)))
    expected = ce_cohomology_dims(*induced_structure(setup, t), 3)
    assert expected == cohomology_dims_oracle(setup, t, 3), name
    assert_lemma(setup, t)
    with mock.patch.object(linfty, "induced_structure", no_induced_structure):
        assert cohomology_of_t_dims(setup, t, 3) == expected, name
