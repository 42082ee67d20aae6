import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RowSpace,
    bracket_basis,
    bracket_dense,
    ce_cohomology_dims_oracle,
    ce_differential_unit_vectors,
    ce_representatives_incremental,
    matrix_rows,
    rank_oracle,
    rref_oracle,
    sparse_row,
)
from twistrb import corpus
from twistrb.errors import NotNijenhuis, NotNilpotent
from twistrb.exactlin import Matrix, _integer_rref, vec_is_zero
from twistrb.liealg import (
    Representation,
    Violation,
    abelian,
    adjoint_rep,
    bracket_cochain,
    ce_cohomology_dims,
    ce_differential,
    coadjoint_rep,
    deformed_bracket,
    derivation_check,
    _jacobi_defects,
    is_two_cocycle,
    nijenhuis_check,
    nilpotency_index,
    trivial_rep,
    validate_lie,
    validate_rep,
)
from twistrb.linfty import induced_structure
from twistrb.multilin import Cochain, _int_table
from twistrb.operators import setup_from_invertible_cochain


def test_validate_lie_examples(algebras):
    assert not isinstance(validate_lie(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}), Violation)
    assert not isinstance(validate_lie(2, {(0, 1): (0, 1)}), Violation)
    bad = validate_lie(2, {(0, 1): (1, 0), (1, 0): (1, 0)})
    assert isinstance(bad, Violation)
    assert "skew" in bad.kind


def test_validate_lie_catches_jacobi():
    # [e1,e2] = e3, [e2,e3] = e2 leaves a defect e3 on the triple
    bad = validate_lie(3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
    assert isinstance(bad, Violation)
    assert bad.kind == "jacobi"
    assert bad.where == (0, 1, 2)
    assert not vec_is_zero(bad.defect)


def test_jacobi_defect_sign_by_hand():
    """[[e_j,e_k],e_i] + cyclic, not its negative [e_i,[e_j,e_k]] + cyclic.

    With [e1,e2] = e3 and [e2,e3] = e2 (0-based: [e0,e1] = e2, [e1,e2] = e1):
    [[e1,e2],e0] = [e1,e0] = -e2, [[e2,e0],e1] = 0 and [[e0,e1],e2] = [e2,e2] = 0.
    """
    bracket, violation = bracket_cochain(3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
    assert violation is None
    minus_e2 = (Fraction(0), Fraction(0), Fraction(-1))
    jacobi_defect = _jacobi_defects(bracket)
    assert jacobi_defect(0, 1, 2) == minus_e2
    # cyclic in (i, j, k), and negated by a transposition
    assert jacobi_defect(1, 2, 0) == jacobi_defect(2, 0, 1) == minus_e2
    assert jacobi_defect(1, 0, 2) == (0, 0, 1)
    assert validate_lie(3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)}).defect == minus_e2


def test_validate_rep_examples(algebras):
    sl2 = algebras["sl2"]
    assert isinstance(validate_rep(sl2, 3, adjoint_rep(sl2).action), Representation)
    ab = algebras["abelian2"]
    assert isinstance(validate_rep(ab, 1, trivial_rep(ab, 1).action), Representation)
    co = coadjoint_rep(sl2)
    assert isinstance(validate_rep(sl2, 3, co.action), Representation)
    # breaking one matrix breaks the axiom
    broken = list(adjoint_rep(sl2).action)
    broken[0] = broken[0] + Matrix.identity(3)
    assert isinstance(validate_rep(sl2, 3, broken), Violation)


def test_validate_rep_reports_real_count_and_shape(algebras):
    """Count and shape are not basis indices: they are printed as they are."""
    sl2 = algebras["sl2"]
    action = adjoint_rep(sl2).action
    few = validate_rep(sl2, 3, action[:2])
    assert few.describe() == "action matrix count (2 for dimension 3) fails at (): defect ()"
    many = validate_rep(algebras["affine"], 3, action)
    assert many.describe() == "action matrix count (3 for dimension 2) fails at (): defect ()"
    misshapen = list(action)
    misshapen[1] = Matrix.zero(2, 3)
    # the location is the generator e_2 whose matrix has the wrong shape
    assert validate_rep(sl2, 3, misshapen).describe() == (
        "action matrix shape (2x3 for module dimension 3) fails at (2): defect ()"
    )


def test_coadjoint_examples(algebras):
    sl2 = algebras["sl2"]
    co = coadjoint_rep(sl2)
    for i in range(3):
        assert co.action[i] == (-sl2.ad(i)).transpose()
    aff = algebras["affine"]
    co2 = coadjoint_rep(aff)
    assert co2.action[0] == Matrix.from_rows([[0, 0], [0, -1]])
    ab = abelian(2)
    assert all(m.is_zero() for m in coadjoint_rep(ab).action)


def test_ce_differential_degree_zero_is_action(algebras):
    sl2 = algebras["sl2"]
    ad = adjoint_rep(sl2)
    d0 = ce_differential(sl2, ad, 0)
    # columns: f = e_j constant; value on e_i is ad(e_i) e_j
    for j in range(3):
        flat = [0] * 3
        flat[j] = 1
        f = Cochain.from_vec(0, 3, 3, flat)
        image = Cochain.from_vec(1, 3, 3, d0.apply(f.vec()))
        for i in range(3):
            assert image.value_on_basis((i,)) == ad.action[i].col(j)


def test_ce_differential_abelian_trivial_vanishes():
    ab = abelian(3)
    triv = trivial_rep(ab, 2)
    for n in range(0, 3):
        assert ce_differential(ab, triv, n).is_zero()


def test_heisenberg_delta1_matches_hand_matrix(algebras):
    heis = algebras["heisenberg"]
    triv = trivial_rep(heis, 1)
    d1 = ce_differential(heis, triv, 1)
    # only nonzero entry: (delta f)(e1,e2) = -f([e1,e2]) = -f(e3)
    expected = Matrix.from_rows([[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    assert d1 == expected
    assert d1.rank() == 1


def test_delta_squared_zero(algebras):
    for name, g in algebras.items():
        for rep in (adjoint_rep(g), trivial_rep(g, 1), coadjoint_rep(g)):
            for n in range(0, g.dim):
                dn = ce_differential(g, rep, n)
                dn1 = ce_differential(g, rep, n + 1)
                assert (dn1 @ dn).is_zero(), (name, n)


def _assert_ce_matrix_matches_unit_vectors(algebra, rep, label):
    for n in range(4):
        assert ce_differential(algebra, rep, n) == ce_differential_unit_vectors(algebra, rep, n), (label, n)


def test_ce_differential_matches_unit_vector_oracle_on_induced_structures(trb_corpus):
    for name, setup, t in trb_corpus:
        _assert_ce_matrix_matches_unit_vectors(*induced_structure(setup, t), name)


def test_ce_differential_matches_unit_vector_oracle_on_named_algebras(algebras):
    for name, g in algebras.items():
        for rep in (adjoint_rep(g), coadjoint_rep(g), trivial_rep(g, 2)):
            _assert_ce_matrix_matches_unit_vectors(g, rep, name)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ce_differential_matches_unit_vector_oracle_on_random_setups(seed):
    """Random closed twists, and the induced data of a random operator, which
    need not be a Lie algebra: the assembly is the literal formula either way."""
    rng = random.Random(seed)
    setup = next(iter(corpus.random_setups(rng, 1)))
    _assert_ce_matrix_matches_unit_vectors(setup.algebra, setup.rep, seed)
    t = corpus.random_operator(rng, setup)
    _assert_ce_matrix_matches_unit_vectors(*induced_structure(setup, t), seed)


def test_cohomology_dims_examples(algebras):
    one = abelian(1)
    assert ce_cohomology_dims(one, trivial_rep(one, 1), 1) == [1, 1]
    heis = algebras["heisenberg"]
    dims = ce_cohomology_dims(heis, trivial_rep(heis, 1), 3)
    assert dims[1] == 2
    sl2 = algebras["sl2"]
    dims = ce_cohomology_dims(sl2, adjoint_rep(sl2), 1)
    assert dims == [0, 0]


def test_cohomology_against_elimination_oracle(algebras):
    heis, sl2 = algebras["heisenberg"], algebras["sl2"]
    for g, rep, degree, expected in [
        (heis, trivial_rep(heis, 1), 1, 2),
        (sl2, adjoint_rep(sl2), 0, 0),
        (sl2, adjoint_rep(sl2), 1, 0),
    ]:
        dn = ce_differential(g, rep, degree)
        dn_prev = ce_differential(g, rep, degree - 1) if degree else None
        nullity = dn.cols - rank_oracle(matrix_rows(dn))
        boundary = rank_oracle(matrix_rows(dn_prev)) if dn_prev is not None else 0
        assert nullity - boundary == expected


def dense_induced_heisenberg(k: int, upper: list[int]):
    """The induced structure of T = h^{-1} on h_{2k+1} with its adjoint module, for the unit
    upper-triangular h whose entries above the diagonal are `upper` row by row: dense differentials."""
    n = 2 * k + 1
    entries = iter(upper)
    h = Matrix.from_rows([[1 if i == j else next(entries) if j > i else 0 for j in range(n)] for i in range(n)])
    g = corpus.heisenberg(k)
    return induced_structure(*setup_from_invertible_cochain(g, adjoint_rep(g), h))


CE_FRAMES = [(g, rep(g)) for _, g in corpus.named_algebras() for rep in (adjoint_rep, coadjoint_rep, lambda g: trivial_rep(g, 2))]
CE_FRAMES += [induced_structure(setup, t) for _, setup, t in corpus.trb_instances()]
CE_FRAMES += [induced_structure(setup, t) for _, setup, t in corpus.sl2_single_entry_operators()]


@st.composite
def ce_structures(draw):
    """A named frame, an induced structure of a corpus or singular sl2 operator, or a dense
    induced h5, whose oracle ranks dense matrices with growing entries (the slow case)."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(CE_FRAMES))
    return dense_induced_heisenberg(2, draw(st.lists(st.integers(-2, 3), min_size=10, max_size=10)))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_ce_cohomology_dims_match_the_oracle_up_to_one_past_the_dimension(data):
    """Every degree up to dim + 1, where C^n is zero: each rank taken on a complement of the
    previous image equals the oracle's rank of the whole differential."""
    g, rep = data.draw(ce_structures())
    n_max = data.draw(st.integers(0, g.dim + 1))
    assert ce_cohomology_dims(g, rep, n_max) == ce_cohomology_dims_oracle(g, rep, n_max)


def test_rank_on_the_columns_outside_the_previous_pivots():
    """The lemma behind `ce_cohomology_dims`, on degrees 2 and 3 of a dense induced h5: P, the
    pivots of the rref of the columns of delta^{n-1}, projects its image bijectively, so dropping
    the columns of delta^n in P keeps the rank.  The kernel's pivots of those columns are P too.
    `scripts/rref_oracle_sweep.py` checks the same on h7, whose dense oracle ranks are too slow
    for this suite (about 39 s of `rank_oracle` on a 2-core VM)."""
    g, rep = dense_induced_heisenberg(2, [-2, -1, 1, 3, -2, -1, 1, 3, -2, -1])
    for n in (2, 3):
        prev, delta = ce_differential(g, rep, n - 1), ce_differential(g, rep, n)
        _, pivots = rref_oracle(prev.transpose())
        assert set(_integer_rref(_int_table(prev)[0].values())) == set(pivots)
        outside = [c for c in range(delta.cols) if c not in set(pivots)]
        rows = [[delta[i, c] for c in outside] for i in range(delta.rows)]
        assert rank_oracle(rows) == rank_oracle(matrix_rows(delta)), n


def test_euler_characteristic(algebras):
    from math import comb

    for g in algebras.values():
        rep = adjoint_rep(g)
        n_max = g.dim
        dims = ce_cohomology_dims(g, rep, n_max)
        chain = sum((-1) ** n * comb(g.dim, n) * g.dim for n in range(n_max + 1))
        homology = sum((-1) ** n * d for n, d in enumerate(dims))
        assert chain == homology


def test_cohomology_representatives(algebras):
    from twistrb.liealg import ce_cohomology_representatives, ce_differential_cochain

    heis = algebras["heisenberg"]
    triv = trivial_rep(heis, 1)
    reps = ce_cohomology_representatives(heis, triv, 1)
    assert len(reps) == ce_cohomology_dims(heis, triv, 1)[1] == 2
    for f in reps:
        assert ce_differential_cochain(heis.bracket, triv, f).is_zero()
    sl2 = algebras["sl2"]
    assert ce_cohomology_representatives(sl2, adjoint_rep(sl2), 1) == []


@pytest.mark.parametrize("label, limit_mb", [("h9 dense", 6), ("h9 sparse", 2)])
def test_ce_differential_of_h9_in_degree_3_holds_only_its_table(label, limit_mb):
    """delta_CE of the induced h9 in degree 3 (a 1,134 x 756 matrix) is its integer table and
    nothing more: its traced peak stays near that of `_differential_columns` alone (3.7 MB dense,
    0.3 MB sparse), well below the 17.4 MB and 13.9 MB dense Fraction entries took it to."""
    ladder = {name: (setup, t) for name, setup, t in corpus.heisenberg_ladder(random.Random(7), ks=(4,))}
    algebra, rep = induced_structure(*ladder[label])
    tracemalloc.start()
    try:
        delta = ce_differential(algebra, rep, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (delta.rows, delta.cols) == (1134, 756)
    assert peak <= limit_mb * 10**6, f"{label}: traced peak {peak / 1e6:.1f} MB"


def test_cohomology_representatives_follow_greedy_rank_rule(trb_corpus):
    """Each kernel vector is kept iff it raises the rank of the image plus the
    vectors kept before it (ranks from the oracle)."""
    from twistrb.liealg import ce_cohomology_representatives

    for name, setup, t in trb_corpus:
        algebra, rep = induced_structure(setup, t)
        for n in range(3):
            kept = []
            if n:
                prev = ce_differential(algebra, rep, n - 1)
                kept = [list(prev.col(j)) for j in range(prev.cols)]
            expected = []
            for v in ce_differential(algebra, rep, n).kernel_basis():
                if rank_oracle(kept + [list(v)]) > rank_oracle(kept):
                    kept.append(list(v))
                    expected.append(Cochain.from_vec(n, algebra.dim, rep.module_dim, v))
            assert ce_cohomology_representatives(algebra, rep, n) == expected, (name, n)


def test_cohomology_representatives_match_incremental_oracle(trb_corpus, algebras):
    """One RREF keeps the same kernel vectors as the incremental elimination."""
    from twistrb.liealg import ce_cohomology_representatives

    structures = [induced_structure(setup, t) for _, setup, t in trb_corpus]
    for g in algebras.values():
        structures += [(g, adjoint_rep(g)), (g, coadjoint_rep(g)), (g, trivial_rep(g, 2))]
    structures += [(s.algebra, s.rep) for s in corpus.random_setups(random.Random(8), 5)]
    for k, (algebra, rep) in enumerate(structures):
        for n in range(3):
            got = ce_cohomology_representatives(algebra, rep, n)
            assert got == ce_representatives_incremental(algebra, rep, n), (k, n)


# zero-heavy rows of any length up to 6, as many as 6 of them
row_lists = st.integers(0, 6).flatmap(
    lambda cols: st.lists(
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6)),
            min_size=cols,
            max_size=cols,
        ),
        max_size=6,
    )
)


@settings(max_examples=100)
@given(row_lists)
def test_row_space_keeps_exactly_the_rank_raising_rows(rows):
    """The incremental oracle behind `ce_representatives_incremental` keeps a row exactly when it raises the rank."""
    space, kept = RowSpace(), []
    for row in rows:
        raises = rank_oracle(kept + [row]) > rank_oracle(kept)
        assert space.add(sparse_row(row)) == raises
        if raises:
            kept.append(row)


def test_two_cocycle_examples(algebras):
    sl2 = algebras["sl2"]
    ad = adjoint_rep(sl2)
    zero = Cochain.zero(2, 3, 3)
    assert is_two_cocycle(sl2, ad, zero).ok
    # the bracket itself is closed for the adjoint action
    assert is_two_cocycle(sl2, ad, sl2.bracket).ok
    # any coboundary is closed
    h = Cochain.from_matrix_map(Matrix.from_rows([[1, 2, 0], [0, 1, 0], [3, 0, 1]]))
    from twistrb.liealg import ce_differential_cochain

    dh = ce_differential_cochain(sl2.bracket, ad, h)
    assert is_two_cocycle(sl2, ad, dh).ok
    # a non-cocycle is rejected with a witness
    bad = Cochain.from_values(2, 3, 3, {(0, 1): (1, 0, 0)})
    verdict = is_two_cocycle(sl2, ad, bad)
    assert not verdict.ok and verdict.violation.where == (0, 1, 2)


def test_nijenhuis_examples(algebras):
    sl2 = algebras["sl2"]
    aff = algebras["affine"]
    assert nijenhuis_check(sl2, Matrix.identity(3)).ok
    assert nijenhuis_check(sl2, Matrix.zero(3, 3)).ok
    assert deformed_bracket(sl2, Matrix.identity(3)).bracket == sl2.bracket
    assert deformed_bracket(sl2, Matrix.zero(3, 3)).is_abelian()
    for lam, mu in itertools.product((-1, 0, 1, 2), repeat=2):
        n = Matrix.from_rows([[lam, 0], [0, mu]])
        assert nijenhuis_check(aff, n).ok
        # both sides of the identity equal lam*mu*e2 on the only pair
        lhs = bracket_dense(aff, n.col(0), n.col(1))
        assert lhs == (0, Fraction(lam * mu))
        g_n = deformed_bracket(aff, n)
        assert bracket_basis(g_n, 0, 1) == (0, Fraction(lam))


def test_non_nijenhuis_rejected(algebras):
    sl2 = algebras["sl2"]
    bad = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    if not nijenhuis_check(sl2, bad).ok:
        with pytest.raises(NotNijenhuis):
            deformed_bracket(sl2, bad)


def test_deformed_bracket_compatibility(algebras):
    """The sum of the bracket and its deformation still satisfies Jacobi."""
    aff = algebras["affine"]
    n = Matrix.from_rows([[2, 0], [0, 3]])
    g_n = deformed_bracket(aff, n)
    total = aff.bracket + g_n.bracket
    from twistrb.liealg import lie_algebra_from_cochain

    lie_algebra_from_cochain(total)  # raises if Jacobi fails


def test_derivation_examples(algebras):
    heis = algebras["heisenberg"]
    zero = Matrix.zero(3, 3)
    assert derivation_check(heis, zero).ok
    assert nilpotency_index(zero) == 1
    d = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert derivation_check(heis, d).ok
    assert nilpotency_index(d) == 2
    sl2 = algebras["sl2"]
    assert not derivation_check(sl2, Matrix.identity(3)).ok
    with pytest.raises(NotNilpotent):
        nilpotency_index(Matrix.identity(2))
