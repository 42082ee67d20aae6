"""The single-pass insertion and defects against the term-by-term oracles.

`linfty._nr_insert` folds every unshuffle term of a basis tuple into one
coefficient per column; `validate_rep`, `jacobi_defect` and `trb_defect`
accumulate each defect in one list.  The oracles in `oracles.py` build the
same values one evaluation and one temporary per term.  Inputs are
zero-heavy with non-integer entries, all-zero cochains included.
"""
import itertools
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_defect_terms, nr_insert_terms, rep_defect_matrices, trb_defect_terms
from twistrb import corpus
from twistrb.exactlin import Matrix
from twistrb.liealg import Representation, jacobi_defect, validate_rep
from twistrb.linfty import _nr_insert
from twistrb.multilin import Cochain, ext_basis
from twistrb.operators import trb_defect
from twistrb.report import Violation, first_failure

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
CORPUS = {name: (setup, t) for name, setup, t in corpus.trb_instances()}


def matrices(rows, cols):
    """Zero-heavy rational matrices, the all-zero matrix drawn on its own too."""
    return st.one_of(
        st.just(Matrix.zero(rows, cols)),
        st.lists(sparse_rationals, min_size=rows * cols, max_size=rows * cols).map(
            lambda es: Matrix(rows, cols, es)
        ),
    )


def cochains(dim, degree):
    """Degree-`degree` cochains from dimension `dim` to itself."""
    return matrices(dim, comb(dim, degree) if degree >= 0 else 0).map(lambda m: Cochain(degree, dim, dim, m))


def assert_same(got, expected):
    assert type(got) is tuple
    assert all(type(x) is Fraction for x in got)
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nr_insert_matches_terms(data):
    """Source dims 1-5, degrees 0-3: degree > dim and arity < 0 included."""
    dim = data.draw(st.integers(1, 5))
    a = data.draw(cochains(dim, data.draw(st.integers(0, 3))))
    b = data.draw(cochains(dim, data.draw(st.integers(0, 3))))
    got, expected = _nr_insert(a, b), nr_insert_terms(a, b)
    assert (got.degree, got.source_dim, got.target_dim) == (expected.degree, dim, dim)
    assert_same(got.matrix.entries, expected.matrix.entries)


@pytest.mark.parametrize("dim", [1, 3])
def test_nr_insert_negative_arity_and_zero_cochains(dim):
    a, b = Cochain.zero(0, dim, dim), Cochain(0, dim, dim, Matrix(dim, 1, [Fraction(1, 2)] * dim))
    out = _nr_insert(a, b)
    assert out.degree == -1 and out == nr_insert_terms(a, b)
    zero = Cochain.zero(2, dim, dim)
    for degree in range(4):
        other = Cochain.zero(degree, dim, dim)
        assert _nr_insert(zero, other).is_zero() and _nr_insert(zero, other) == nr_insert_terms(zero, other)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_jacobi_defect_matches_terms(data):
    """Any skew bracket (Jacobi need not hold), every index triple, repeats included."""
    dim = data.draw(st.integers(1, 5))
    bracket = data.draw(cochains(dim, 2))
    for i, j, k in itertools.product(range(dim), repeat=3):
        assert_same(jacobi_defect(bracket, i, j, k), jacobi_defect_terms(bracket, i, j, k))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trb_defect_matches_terms(data):
    """Corpus setups with drawn operators, every ordered basis pair."""
    setup, _ = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    t = data.draw(matrices(setup.dim, setup.module_dim))
    for i, j in itertools.product(range(setup.module_dim), repeat=2):
        assert_same(trb_defect(setup, t, i, j), trb_defect_terms(setup, t, i, j))


def rep_oracle(algebra, module_dim, action):
    """`validate_rep` with the Matrix-temporary defect in the same first-violation scan."""
    report = first_failure(
        "representation", ext_basis(algebra.dim, 2), partial(rep_defect_matrices, algebra, module_dim, action)
    )
    return Representation(module_dim, tuple(action)) if report.ok else report.violation


def perturb(action, k, r, c, delta):
    rho = action[k]
    entries = list(rho.entries)
    entries[r * rho.cols + c] += delta
    return action[:k] + (Matrix(rho.rows, rho.cols, entries),) + action[k + 1 :]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_rep_witness_on_perturbed_corpus_actions(data):
    """Same verdict, and on failure the same pair and defect tuple, as the oracle."""
    setup, _ = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    algebra, m, action = setup.algebra, setup.module_dim, setup.rep.action
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, algebra.dim - 1))
        r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        action = perturb(action, k, r, c, data.draw(rationals.filter(bool)))
    got, expected = validate_rep(algebra, m, action), rep_oracle(algebra, m, action)
    assert got == expected
    if isinstance(got, Violation):
        assert all(type(x) is Fraction for x in got.defect)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validate_rep_matches_oracle_on_drawn_actions(data):
    name, algebra = data.draw(st.sampled_from(corpus.named_algebras()))
    m = data.draw(st.integers(1, 4))
    action = tuple(data.draw(matrices(m, m)) for _ in range(algebra.dim))
    assert validate_rep(algebra, m, action) == rep_oracle(algebra, m, action)
