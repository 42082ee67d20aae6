import copy
import dataclasses
import itertools
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistrb.errors import DimensionMismatch, DuplicateAssignment, IndexOutOfRange
from twistrb.exactlin import Matrix, permutation_sign
from twistrb.instances import load_instance
from twistrb.liealg import Representation, lie_algebra, validate_lie, validate_rep
from twistrb.multilin import (
    Bilinear,
    Cochain,
    _int_table,
    ext_basis,
    iter_unshuffles,
    sort_with_sign,
)
from twistrb.operators import check_trb, trb_setup

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# each builds a fresh map of one structure-map type from the same entries on every call
FRESH = {
    "Matrix": lambda: Matrix.from_rows([[1, Fraction(1, 2)], [0, -3]]),
    "Cochain": lambda: Cochain.from_values(2, 3, 2, {(0, 1): (1, 0), (1, 2): (Fraction(2, 3), -1)}),
    "Bilinear": lambda: Bilinear.from_values(2, 2, {(0, 1): (1, Fraction(1, 2)), (1, 0): (0, 4)}),
    "LieAlgebra": lambda: lie_algebra(2, {(0, 1): (0, Fraction(1, 2))}),
    "Representation": lambda: Representation(2, (Matrix.identity(2), Matrix.from_rows([[0, Fraction(1, 3)], [0, 0]]))),
}


@pytest.mark.parametrize("kind", sorted(FRESH))
def test_structure_maps_are_immutable_values(kind):
    """No field can be assigned or deleted and no attribute added; a map whose integer table is built
    still equals, hashes and prints like a fresh copy; a Cochain prints its shape only."""
    value = FRESH[kind]()
    assert type(value).__name__ == kind
    for name in [f.name for f in dataclasses.fields(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # CPython's frozen `__setattr__` for a slotted class raises TypeError, not AttributeError, on a
    # name that is not a field (its `super(cls, self)` names the class before slots were added)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = None
    assert not hasattr(value, "extra")
    table_owner = value.bracket if kind == "LieAlgebra" else value
    _int_table(table_owner)
    assert kind == "Matrix" or table_owner._ints is not None
    fresh = FRESH[kind]()
    assert value is not fresh
    assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
    if kind == "Cochain":
        assert repr(value) == "Cochain(degree=2, source_dim=3, target_dim=2)"


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", ["affine_hinv", "heisenberg_failing_checks"])
def test_structure_maps_survive_copies_and_pickles(route, name):
    """A Matrix, a Cochain whose integer table is built, a LieAlgebra, a Representation and a TrbSetup
    come back equal, and check_trb on the copied setup and operator gives the same report."""
    doc = load_instance(str(INSTANCES / f"{name}.json"))
    algebra = validate_lie(doc.lie_dim, doc.brackets)
    setup = trb_setup(algebra, validate_rep(algebra, doc.module_dim, doc.action), doc.cocycle_h)
    t = doc.operator_t
    report = check_trb(setup, t)
    cochain = FRESH["Cochain"]()
    _int_table(cochain)
    assert cochain._ints is not None and setup.cocycle._ints is not None
    values = [FRESH["Matrix"](), t, cochain, setup.cocycle, algebra, setup.rep, setup]
    back = [ROUND_TRIPS[route](value) for value in values]
    for before, after in zip(values, back):
        assert after is not before and type(after) is type(before)
        assert after == before and hash(after) == hash(before)
    assert check_trb(back[-1], back[1]) == report
    assert report.ok == (name == "affine_hinv")


def test_ext_basis_is_lexicographic():
    assert ext_basis(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert ext_basis(3, 0) == ((),)
    assert ext_basis(3, 4) == ()
    assert ext_basis(3, -1) == ()


def test_unshuffle_small_cases():
    assert list(iter_unshuffles((1, 1))) == [((0, 1), 1), ((1, 0), -1)]
    assert len(list(iter_unshuffles((2, 1)))) == 3
    three = list(iter_unshuffles((1, 1, 1)))
    assert len(three) == 6
    for word, sign in three:
        assert sign == permutation_sign(word)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda b: sum(b) <= 6))
def test_unshuffle_count_is_multinomial(blocks):
    us = list(iter_unshuffles(blocks))
    multinomial = math.factorial(sum(blocks)) // math.prod(math.factorial(b) for b in blocks)
    assert len(us) == multinomial
    seen = set()
    for word, sign in us:
        assert word not in seen
        seen.add(word)
        assert sign == permutation_sign(word)
        # increasing within each block
        pos = 0
        for b in blocks:
            chunk = word[pos : pos + b]
            assert list(chunk) == sorted(chunk)
            pos += b


def test_negative_block_is_empty_sum():
    assert list(iter_unshuffles((1, 1, -1))) == []


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 1)) == (None, 0)


def test_skew_eval_basis_behaviour():
    f = Cochain.from_values(2, 3, 3, {(0, 1): (0, 0, 1)})
    e = [tuple(1 if i == k else 0 for i in range(3)) for k in range(3)]
    assert f.skew_eval([e[1], e[0]]) == (0, 0, -1)
    assert f.skew_eval([e[0], e[0]]) == (0, 0, 0)
    const = Cochain.from_values(0, 3, 2, {(): (5, 7)})
    assert const.skew_eval([]) == (5, 7)
    # on a 0-dimensional source every argument is the empty vector and every value is zero
    for degree in (1, 2):
        assert Cochain.zero(degree, 0, 2).skew_eval([()] * degree) == (0, 0)
    with pytest.raises(DimensionMismatch):
        f.skew_eval([e[0]])


@settings(max_examples=40)
@given(st.integers(1, 3), st.data())
def test_skew_eval_full_permutation_property(p, data):
    dim = 3
    values = {}
    for t in ext_basis(dim, p):
        values[t] = [data.draw(st.integers(-3, 3)) for _ in range(2)]
    f = Cochain.from_values(p, dim, 2, values)
    args = [
        [Fraction(data.draw(st.integers(-2, 2))) for _ in range(dim)] for _ in range(p)
    ]
    base = f.skew_eval(args)
    for perm in itertools.permutations(range(p)):
        sign = permutation_sign(perm)
        permuted = f.skew_eval([args[k] for k in perm])
        assert permuted == tuple(sign * x for x in base)


def test_cochain_round_trip_from_samples():
    f = Cochain.from_values(2, 4, 3, {(0, 2): (1, 2, 3), (1, 3): (0, -1, 0)})
    rebuilt = Cochain.from_values(
        2, 4, 3, {t: f.skew_eval([_basis(4, t[0]), _basis(4, t[1])]) for t in ext_basis(4, 2)}
    )
    assert rebuilt == f


def _basis(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def test_from_values_rejections():
    with pytest.raises(DuplicateAssignment):
        Cochain.from_values(2, 3, 1, {(2, 1): (1,)})
    with pytest.raises(IndexOutOfRange):
        Cochain.from_values(2, 3, 1, {(0, 5): (1,)})
    with pytest.raises(DimensionMismatch):
        Cochain.from_values(2, 3, 1, {(0, 1): (1, 2)})
    assert Cochain.from_values(2, 3, 1, {}).is_zero()


def test_vec_round_trip():
    f = Cochain.from_values(2, 3, 2, {(0, 1): (1, 2), (1, 2): (3, 4)})
    assert Cochain.from_vec(2, 3, 2, f.vec()) == f


def test_bilinear_eval():
    b = Bilinear.from_values(2, 2, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (2, 0)})
    assert b.value_on_basis(0, 1) == (0, 1)
    with pytest.raises(IndexOutOfRange):
        Bilinear.from_values(2, 2, {(0, 3): (1, 0)})
