"""The sparse evaluation kernels against the dense oracles, entry for entry.

The kernels visit only nonzero coordinates; the oracles in `oracles.py` walk
every index tuple and every matrix entry.  Inputs are zero-heavy, with
non-integer entries, so both the skipped and the visited coordinates matter.
"""
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_dense,
    eval_mixed_dense,
    matmul_dense,
    skew_eval_dense,
)
from twistrb import corpus
from twistrb.errors import DimensionMismatch, IndexOutOfRange
from twistrb.exactlin import Matrix
from twistrb.multilin import Cochain

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
CORPUS = {name: (setup, t) for name, setup, t in corpus.trb_instances()}


def vectors(n):
    return st.lists(sparse_rationals, min_size=n, max_size=n).map(tuple)


def matrices(rows, cols):
    return vectors(rows * cols).map(lambda es: Matrix(rows, cols, es))


def cochains(max_dim=4, max_degree=3):
    """Degrees 0..max_degree on sources of dimension 0..max_dim, degree > source_dim included."""
    return st.tuples(
        st.integers(0, max_degree), st.integers(0, max_dim), st.integers(0, 3)
    ).flatmap(
        lambda dnt: matrices(dnt[2], comb(dnt[1], dnt[0])).map(
            lambda m: Cochain(dnt[0], dnt[1], dnt[2], m)
        )
    )


def assert_same(got, expected):
    assert type(got) is tuple
    assert all(type(x) is Fraction for x in got)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_skew_eval_matches_dense(data):
    f = data.draw(cochains())
    args = [data.draw(vectors(f.source_dim)) for _ in range(f.degree)]
    assert_same(f.skew_eval(args), skew_eval_dense(f, args))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eval_mixed_matches_dense(data):
    f = data.draw(cochains().filter(lambda c: c.degree >= 1 and c.source_dim >= 1))
    first = data.draw(vectors(f.source_dim))
    # indices may repeat, in the rest and against the first slot
    rest = data.draw(st.lists(st.integers(0, f.source_dim - 1), min_size=f.degree - 1, max_size=f.degree - 1))
    assert_same(f.eval_mixed(first, rest), eval_mixed_dense(f, first, rest))


def test_eval_mixed_repeated_indices_vanish():
    f = Cochain.from_values(3, 3, 2, {(0, 1, 2): (Fraction(1, 2), 3)})
    first = (Fraction(2, 3), 0, 5)
    assert_same(f.eval_mixed(first, (1, 1)), (0, 0))
    assert_same(f.eval_mixed(first, (2, 1)), eval_mixed_dense(f, first, (2, 1)))
    assert f.eval_mixed(first, (2, 1)) == (Fraction(-1, 3), -2)


@pytest.mark.parametrize(
    "first, rest, error",
    [
        ((1, 0, 0, 1), (1,), DimensionMismatch),
        ((0, 1), (0,), DimensionMismatch),
        ((1, 0, 0), (5,), IndexOutOfRange),
        ((1, 0, 0), (-1,), IndexOutOfRange),
    ],
)
def test_eval_mixed_rejects_bad_arguments(first, rest, error):
    """A first argument of the wrong length or a basis index out of range raises, never pads or wraps."""
    with pytest.raises(error):
        corpus.heisenberg().bracket.eval_mixed(first, rest)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_matches_dense(data):
    """Rectangular shapes, 0 x k and k x 0 among them."""
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = data.draw(matrices(r, k)), data.draw(matrices(k, c))
    product = a @ b
    expected = matmul_dense(a, b)
    assert (product.rows, product.cols) == (r, c)
    assert_same(product.entries, expected.entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_matches_dense(data):
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m, v = data.draw(matrices(r, c)), data.draw(vectors(c))
    assert_same(m.apply(v), apply_dense(m, v))


def test_integer_like_arguments_are_coerced():
    f = Cochain.from_values(2, 3, 1, {(0, 1): (1,), (1, 2): ("1/2",)})
    assert_same(f.skew_eval([(1, "2", 0), (0, 1, "-3")]), skew_eval_dense(f, [(1, "2", 0), (0, 1, "-3")]))
    assert_same(f.eval_mixed((0, "1/3", 2), (1,)), eval_mixed_dense(f, (0, "1/3", 2), (1,)))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kernels_on_corpus_setups(name):
    """Every evaluation the twisted Rota-Baxter identity makes, on every corpus setup."""
    setup, t = CORPUS[name]
    bracket, h, rep = setup.algebra.bracket, setup.cocycle, setup.rep
    cols = [t.col(k) for k in range(setup.module_dim)]
    for i, j in itertools.product(range(setup.module_dim), repeat=2):
        tu, tv = cols[i], cols[j]
        assert_same(bracket.skew_eval([tu, tv]), skew_eval_dense(bracket, [tu, tv]))
        assert_same(h.skew_eval([tu, tv]), skew_eval_dense(h, [tu, tv]))
        assert_same(t.apply(h.skew_eval([tu, tv])), apply_dense(t, h.skew_eval([tu, tv])))
    for k, x in itertools.product(range(setup.dim), range(setup.module_dim)):
        assert_same(bracket.eval_mixed(cols[x], (k,)), eval_mixed_dense(bracket, cols[x], (k,)))
        assert_same(h.eval_mixed(cols[x], (k,)), eval_mixed_dense(h, cols[x], (k,)))
    for a, b in itertools.product(rep.action, repeat=2):
        assert_same((a @ b).entries, matmul_dense(a, b).entries)
    assert_same((t @ t.transpose()).entries, matmul_dense(t, t.transpose()).entries)
