"""The integer Chevalley-Eilenberg pipeline against its Fraction oracles, on wide denominators.

Jacobi and representation validation, the CE differential (as a matrix and
on one cochain) and the ranks of `ce_cohomology_dims` read the integer
tables `multilin._int_table` keeps on the bracket and on the action, each
times the lcm of its own denominators, bring both to the lcm of the two
scales where they meet, and sum Python ints.  Every benchmark structure has
integer entries, so there every scale is 1.  Here the corpus structures are
divided by large q: 2^61 - 1, 10^9 + 7 and 2^64.  Dividing the bracket and
the action by one q gives an isomorphic structure (x -> q x) with the same
cohomology; dividing them by two different, coprime q gives a bracket and an
action that are no representation, with wide-denominator witnesses, and
scales that only meet at their product.  The oracles in `oracles.py` compute
in Fractions throughout.
"""
import itertools
import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twistrb import corpus, liealg
from twistrb.exactlin import Matrix
from twistrb.liealg import LieAlgebra, Representation, abelian, adjoint_rep, coadjoint_rep, trivial_rep
from twistrb.linfty import induced_structure
from twistrb.multilin import Cochain, ext_basis
from twistrb.operators import setup_from_invertible_cochain
from twistrb.report import first_failure

WIDE = {"2^61-1": 2**61 - 1, "10^9+7": 10**9 + 7, "2^64": 2**64}
QS = tuple(WIDE.values())
by_q = pytest.mark.parametrize("q", QS, ids=WIDE.keys())


def divided(algebra, rep, q_bracket, q_action=None):
    """The bracket divided by q_bracket and every action matrix by q_action (by default the same q)."""
    q_action = q_bracket if q_action is None else q_action
    g = LieAlgebra(algebra.dim, algebra.bracket.scale(Fraction(1, q_bracket)))
    return g, Representation(rep.module_dim, tuple(rho.scale(Fraction(1, q_action)) for rho in rep.action))


def structures():
    """(label, algebra, representation): each named algebra on its adjoint, coadjoint and a trivial
    module, and the induced structure of each corpus operator, whose entries have denominators already."""
    out = []
    for name, g in corpus.named_algebras():
        for rep in (adjoint_rep(g), coadjoint_rep(g), trivial_rep(g, 2)):
            out.append((name, g, rep))
    for name, setup, t in corpus.trb_instances():
        out.append((f"{name}-induced", *induced_structure(setup, t)))
    return out


STRUCTURES = structures()


PAIRS = list(itertools.product(WIDE, repeat=2))
by_q_pair = pytest.mark.parametrize(
    "q_bracket, q_action", [(WIDE[a], WIDE[b]) for a, b in PAIRS], ids=[f"{a},{b}" for a, b in PAIRS]
)


# an equal pair is named by its one q
@pytest.mark.parametrize(
    "q_bracket, q_action", [(WIDE[a], WIDE[b]) for a, b in PAIRS], ids=[a if a == b else f"{a},{b}" for a, b in PAIRS]
)
def test_ce_differential_matches_unit_vectors(q_bracket, q_action):
    """Degrees 0-3 of every structure, its bracket divided by q_bracket and its action by
    q_action, entry for entry."""
    for label, g, rep in STRUCTURES:
        g, rep = divided(g, rep, q_bracket, q_action)
        for n in range(4):
            assert liealg.ce_differential(g, rep, n) == oracles.ce_differential_unit_vectors(g, rep, n), (label, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ce_differential_cochain_matches_alternating_sum(data):
    """A structure, its bracket and its action each divided by a drawn q, applied to a cochain whose
    entries have other wide denominators."""
    label, g, rep = data.draw(st.sampled_from(STRUCTURES))
    g, rep = divided(g, rep, data.draw(st.sampled_from(QS)), data.draw(st.sampled_from(QS)))
    degree = data.draw(st.integers(0, 3))
    entry = st.builds(Fraction, st.integers(-(2**70), 2**70), st.sampled_from((1, 3, 2**61 - 1, 10**9 + 7)))
    cols = comb(g.dim, degree)
    flat = data.draw(st.lists(st.one_of(st.just(0), entry), min_size=cols * rep.module_dim, max_size=cols * rep.module_dim))
    f = Cochain.from_vec(degree, g.dim, rep.module_dim, flat)
    assert liealg.ce_differential_cochain(g.bracket, rep, f) == oracles.ce_differential_alternating(g.bracket, rep, f)


def rep_oracle(algebra, module_dim, action):
    """The first violation of the representation identity through Matrix temporaries, or None."""
    return first_failure(
        "representation", ext_basis(algebra.dim, 2), partial(oracles.rep_defect_matrices, algebra, module_dim, action)
    ).violation


@by_q_pair
def test_validate_rep_witness_matches_matrix_oracle(q_bracket, q_action):
    """Equal divisors keep each action a representation; different ones break every nonabelian one."""
    failures = 0
    for label, g, rep in STRUCTURES:
        g, rep = divided(g, rep, q_bracket, q_action)
        got, expected = liealg.validate_rep(g, rep.module_dim, rep.action), rep_oracle(g, rep.module_dim, rep.action)
        if expected is None:
            assert got == Representation(rep.module_dim, rep.action), label
        else:
            failures += 1
            assert got == expected, label
    assert (failures > 0) == (q_bracket != q_action)


@by_q
def test_jacobi_defect_matches_terms_on_divided_brackets(q):
    """Every index triple, repeats included, of each bracket divided by q and of the same bracket
    with one constant moved by 1/q^2, which mostly breaks Jacobi."""
    for label, g, _ in STRUCTURES:
        bracket = g.bracket.scale(Fraction(1, q))
        if bracket.matrix.cols:
            entries = list(bracket.matrix.entries)
            entries[-1] += Fraction(1, q * q)
            moved = Cochain(2, g.dim, g.dim, Matrix(g.dim, bracket.matrix.cols, entries))
        else:
            moved = bracket
        for b in (bracket, moved):
            jacobi_defect = liealg._jacobi_defects(b)
            for i, j, k in itertools.product(range(g.dim), repeat=3):
                assert jacobi_defect(i, j, k) == oracles.jacobi_defect_terms(b, i, j, k), (label, i, j, k)
            expected = first_failure("jacobi", ext_basis(g.dim, 3), partial(oracles.jacobi_defect_terms, b)).violation
            assert liealg._first_jacobi_violation(b) == expected, label


@by_q
def test_ce_cohomology_dims_match_rank_oracle(q):
    for label, g, rep in STRUCTURES:
        g, rep = divided(g, rep, q)
        assert liealg.ce_cohomology_dims(g, rep, 2) == oracles.ce_cohomology_dims_oracle(g, rep, 2), label


def test_ce_cohomology_dims_of_a_line_with_an_entry_3_to_the_45_over_7():
    """delta^0 of the line acting on Q^2 by A/q is A/q, whose reduced form holds 3^45/7."""
    for q in QS:
        line = abelian(1)
        rep = Representation(2, (Matrix.from_rows([[Fraction(7, q), Fraction(3**45, q)], [0, 0]]),))
        assert liealg.ce_cohomology_dims(line, rep, 1) == oracles.ce_cohomology_dims_oracle(line, rep, 1) == [1, 1]


@pytest.mark.parametrize("seed", range(3))
def test_ce_cohomology_dims_of_a_dense_induced_h5(seed):
    """T = h^{-1} for a unit upper-triangular h on h5 with its adjoint module: the induced
    structure's differentials are dense and their reduced forms grow, as on the benchmark ladder.
    Degrees 1-3 are ranked only on the columns outside the previous degree's pivots."""
    rng = random.Random(seed)
    h5 = corpus.heisenberg(2)
    h = Matrix.from_rows([[1 if i == j else rng.choice((-2, -1, 1, 3)) if j > i else 0 for j in range(5)] for i in range(5)])
    g, rep = induced_structure(*setup_from_invertible_cochain(h5, adjoint_rep(h5), h))
    assert liealg.ce_cohomology_dims(g, rep, 3) == oracles.ce_cohomology_dims_oracle(g, rep, 3)
