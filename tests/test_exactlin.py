import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ce_representatives_incremental, matmul_dense, matrix_rows, rank_oracle, rref_oracle
from twistrb import corpus, exactlin
from twistrb.errors import DimensionMismatch, SingularMatrix
from twistrb.exactlin import Matrix, scalar, scalar_str, sparse_row, vec_is_zero
from twistrb.liealg import adjoint_rep, ce_cohomology_representatives, ce_differential, coadjoint_rep, validate_lie
from twistrb.linfty import induced_structure
from twistrb.multilin import _from_table
from twistrb.operators import check_trb, graph_subalgebra_check

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def matrices(max_dim=4):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda rc: st.lists(
            rationals, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]
        ).map(lambda es: Matrix(rc[0], rc[1], es))
    )


# zero-heavy entries, so rows and columns that vanish come up often
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


def shaped(rows, cols, entries=sparse_rationals):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: Matrix(rows, cols, es)
    )


def rectangular(max_dim=6):
    """Any shape up to max_dim on each side, the empty shapes included."""
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(lambda rc: shaped(*rc))


def low_rank(max_dim=6):
    """Products (r x k)(k x c) with k <= 2: rank at most 2, deficient on most shapes."""
    return st.tuples(
        st.integers(1, max_dim), st.integers(0, 2), st.integers(1, max_dim)
    ).flatmap(lambda rkc: st.tuples(shaped(rkc[0], rkc[1], rationals), shaped(rkc[1], rkc[2], rationals)))


def test_scalar_parsing_round_trip():
    for text, value in [("3/4", Fraction(3, 4)), ("-2", Fraction(-2)), ("0", 0), ("10/4", Fraction(5, 2))]:
        assert scalar(text) == value
    assert scalar_str(Fraction(5, 2)) == "5/2"
    assert scalar_str(Fraction(-7)) == "-7"
    assert scalar(scalar_str(Fraction(22, 7))) == Fraction(22, 7)


def test_rank_examples():
    assert Matrix.identity(2).rank() == 2
    assert Matrix.zero(2, 2).rank() == 0
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert len(Matrix.zero(3, 3).kernel_basis()) == 3
    assert Matrix.identity(3).kernel_basis() == []
    (v,) = Matrix.from_rows([[1, 1]]).kernel_basis()
    assert v[0] * 1 + v[1] * 1 == 0 and v != (0, 0)


def test_invert_examples():
    assert Matrix.identity(3).invert() == Matrix.identity(3)
    d = Matrix.from_rows([[2, 0], [0, Fraction(1, 3)]])
    assert d.invert() == Matrix.from_rows([["1/2", 0], [0, 3]])
    u = Matrix.from_rows([[1, 1], [0, 1]])
    inv = u.invert()
    assert inv == Matrix.from_rows([[1, -1], [0, 1]])
    assert u @ inv == Matrix.identity(2)


def test_invert_singular():
    with pytest.raises(SingularMatrix):
        Matrix.from_rows([[1, 2], [2, 4]]).invert()


@settings(max_examples=150)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=150)
@given(matrices())
def test_rank_matches_straight_line_oracle(m):
    assert m.rank() == rank_oracle(matrix_rows(m))


@settings(max_examples=150)
@given(matrices())
def test_kernel_vectors_annihilate_and_are_independent(m):
    basis = m.kernel_basis()
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert vec_is_zero(m.apply(v))
    if basis:
        assembled = Matrix.from_cols(basis, rows=m.cols)
        assert assembled.rank() == len(basis)


@settings(max_examples=100)
@given(matrices(3).filter(lambda m: m.rows == m.cols))
def test_invert_is_two_sided_when_it_succeeds(m):
    try:
        inv = m.invert()
    except SingularMatrix:
        assert m.rank() < m.rows
        return
    ident = Matrix.identity(m.rows)
    assert inv @ m == ident
    assert m @ inv == ident


@settings(max_examples=100)
@given(matrices(3), st.lists(rationals, min_size=1, max_size=3))
def test_solve_consistency(m, target_coeffs):
    # build a consistent right-hand side from a known combination of columns
    coeffs = (target_coeffs * m.cols)[: m.cols]
    b = [sum((m[i, j] * coeffs[j] for j in range(m.cols)), Fraction(0)) for i in range(m.rows)]
    x = m.solve(b)
    assert x is not None
    assert list(m.apply(x)) == b


@settings(max_examples=150)
@given(rectangular())
def test_rref_matches_dense_oracle(m):
    assert m.rref() == rref_oracle(m)


@settings(max_examples=100)
@given(low_rank())
def test_rref_matches_dense_oracle_rank_deficient(factors):
    m = factors[0] @ factors[1]
    assert m.rref() == rref_oracle(m)


@settings(max_examples=100)
@given(rectangular(5), st.integers(1, 6))
def test_rref_matches_dense_oracle_wide_augmented(m, extra):
    for aug in (m.hstack(Matrix.identity(m.rows)), m.hstack(Matrix(m.rows, 1, [1] * m.rows))):
        assert aug.rref() == rref_oracle(aug)
    wide = m.hstack(Matrix(m.rows, extra, [Fraction(i % 3 - 1) for i in range(m.rows * extra)]))
    assert wide.rref() == rref_oracle(wide)


@pytest.mark.parametrize("k", range(4))
def test_rref_of_empty_shapes(k):
    for m in (Matrix(0, k, []), Matrix(k, 0, [])):
        assert m.rref() == rref_oracle(m) == (m, ())


def test_public_constructor_still_coerces_and_rejects():
    assert Matrix(1, 1, ["1/2"]).entries == (Fraction(1, 2),)
    assert Matrix(2, 1, [3, " -4/6 "]).entries == (Fraction(3), Fraction(-2, 3))
    with pytest.raises(TypeError):
        Matrix(1, 1, [1.5])
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [1, 2, 3])


@settings(max_examples=100)
@given(rectangular())
def test_arithmetic_results_hold_fractions(m):
    """Results built without coercion equal the coerced ones and hold Fractions only."""
    other = Matrix(m.rows, m.cols, [x * 2 - 1 for x in m.entries])
    results = [
        (m + other, m.rows, m.cols, [a + b for a, b in zip(m.entries, other.entries)]),
        (m - other, m.rows, m.cols, [a - b for a, b in zip(m.entries, other.entries)]),
        (-m, m.rows, m.cols, [-a for a in m.entries]),
        (m.scale("2/3"), m.rows, m.cols, [Fraction(2, 3) * a for a in m.entries]),
        (m.transpose(), m.cols, m.rows, [m[i, j] for j in range(m.cols) for i in range(m.rows)]),
        (m @ m.transpose(), m.rows, m.rows, matmul_dense(m, m.transpose()).entries),
        (m.rref()[0], m.rows, m.cols, rref_oracle(m)[0].entries),
        (m.hstack(other), m.rows, 2 * m.cols, [x for i in range(m.rows) for x in m.row(i) + other.row(i)]),
    ]
    if m.rows == m.cols and m.rank() == m.rows:
        aug = rref_oracle(m.hstack(Matrix.identity(m.rows)))[0]
        results.append((m.invert(), m.rows, m.cols, [x for i in range(m.rows) for x in aug.row(i)[m.cols :]]))
    for got, rows, cols, entries in results:
        assert got == Matrix(rows, cols, list(entries))
        assert type(got.entries) is tuple and all(type(x) is Fraction for x in got.entries)


# -- the integer elimination kernel ------------------------------------------

# numerators and denominators past 2^61, so entries of the reduced form grow
# past a machine word
huge_rationals = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
mixed_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals, huge_rationals)


def mixed(max_rows=6, max_cols=9):
    """Zero-heavy matrices up to max_rows x max_cols, wide shapes included, with small and huge entries."""
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(
        lambda rc: shaped(*rc, entries=mixed_rationals)
    )


def rank_deficient_huge():
    """Products (r x k)(k x c) with k <= 3 of mixed entries, up to 6 x 9."""
    return st.tuples(st.integers(1, 6), st.integers(0, 3), st.integers(1, 9)).flatmap(
        lambda rkc: st.tuples(shaped(rkc[0], rkc[1], mixed_rationals), shaped(rkc[1], rkc[2], mixed_rationals))
    ).map(lambda factors: factors[0] @ factors[1])


@settings(max_examples=200)
@given(mixed())
def test_rref_matches_dense_oracle_with_huge_entries(m):
    assert m.rref() == rref_oracle(m)


@settings(max_examples=100)
@given(rank_deficient_huge())
def test_rref_matches_dense_oracle_rank_deficient_huge(m):
    assert m.rref() == rref_oracle(m)


@settings(max_examples=200)
@given(st.one_of(mixed(), rank_deficient_huge()))
def test_integer_rref_keeps_primitive_reduced_rows(m):
    """Every kept row of the integer rows of the matrix's table is primitive, has a positive pivot
    at its key, is zero in the other pivot columns, and is the oracle's reduced row times that
    pivot."""
    rows = {}
    for c, column in exactlin._int_columns(m)[0].items():
        for i, x in column.items():
            rows.setdefault(i, {})[c] = x
    kept = exactlin._integer_rref(rows.values())
    form, pivots = rref_oracle(m)
    assert sorted(kept) == list(pivots)
    for r, c in enumerate(pivots):
        row = kept[c]
        assert min(row) == c and row[c] > 0
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert not any(k in row for k in pivots if k != c)
        assert {k: Fraction(x, row[c]) for k, x in row.items()} == sparse_row(form.row(r))


@settings(max_examples=200)
@given(st.integers(-(2**70), 2**70), st.integers(1, 2**70))
def test_rref_divides_a_row_by_its_pivot(n, d):
    m = Matrix.from_rows([[d, n]])
    assert m.rref() == rref_oracle(m) == (Matrix.from_rows([[1, Fraction(n, d)]]), (0,))


def test_rref_of_a_pivot_minor_of_determinant_101():
    m = Matrix.from_rows([[1, 1], [1, 102], [2, 2]])
    assert m.rref() == rref_oracle(m) == (Matrix.from_rows([[1, 0], [0, 1], [0, 0]]), (0, 1))


def test_rref_of_an_entry_3_to_the_45_over_7():
    m = Matrix.from_rows([[7, 3**45, 0], [0, 0, 2]])
    assert m.rref() == rref_oracle(m)
    assert m.rref()[0][0, 1] == Fraction(3**45, 7)


def test_rref_of_an_entry_2_to_the_70_over_3():
    m = Matrix.from_rows([[3, 2**70], [6, 2**71]])
    assert m.rref() == rref_oracle(m) == (Matrix.from_rows([[1, Fraction(2**70, 3)], [0, 0]]), (0,))


def _heisenberg(k: int):
    """h_{2k+1}: [x_i, y_i] = z, with z the last basis vector."""
    n = 2 * k + 1
    table = {(i, k + i): tuple(1 if j == n - 1 else 0 for j in range(n)) for i in range(k)}
    return validate_lie(n, table)


def test_rref_of_heisenberg_ce_matrices():
    matrices = [
        ce_differential(g, rep(g), n)
        for g in (corpus.heisenberg(), _heisenberg(2))
        for rep in (adjoint_rep, coadjoint_rep)
        for n in range(3)
    ]
    expected = [rref_oracle(m) for m in matrices]
    assert [m.rref() for m in matrices] == expected
    assert [m.rank() for m in matrices] == [len(pivots) for _, pivots in expected]
    assert sum(m.rank() for m in matrices) > 0


# -- the one reduction behind rank, kernel, solve and invert -----------------


def oracle_kernel(m: Matrix) -> list[tuple]:
    form, pivots = rref_oracle(m)
    basis = []
    for free in range(m.cols):
        if free not in pivots:
            v = [Fraction(0)] * m.cols
            v[free] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -form[r, free]
            basis.append(tuple(v))
    return basis


def oracle_solve(m: Matrix, b) -> tuple | None:
    form, pivots = rref_oracle(m.hstack(Matrix(m.rows, 1, b)))
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = form[r, m.cols]
    return tuple(x)


def oracle_inverse(m: Matrix) -> Matrix | None:
    n = m.rows
    form, pivots = rref_oracle(m.hstack(Matrix.identity(n)))
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix(n, n, [form[i, n + j] for i in range(n) for j in range(n)])


def assert_agrees_with_oracle(m: Matrix, *rhs) -> None:
    """rank, kernel_basis, solve of each right-hand side and, on a square, invert against the oracle."""
    rank = len(rref_oracle(m)[1])
    assert m.rank() == rank
    assert m.kernel_basis() == oracle_kernel(m)
    for b in rhs:
        assert m.solve(b) == oracle_solve(m, b)
    if m.rows == m.cols:
        expected = oracle_inverse(m)
        if expected is None:
            with pytest.raises(SingularMatrix, match=f"^rank {rank} < {m.rows}$"):
                m.invert()
        else:
            assert m.invert() == expected


def over(denominator):
    """Zero-heavy entries over one denominator, with numerators past a machine word."""
    return st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-(2**64), 2**64), st.just(denominator)))


@settings(max_examples=100)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda rc: st.tuples(
        shaped(*rc, entries=over(2**61 - 1)),
        st.lists(over(10**9 + 7), min_size=rc[1], max_size=rc[1]),
        st.lists(over(10**9 + 7), min_size=rc[0], max_size=rc[0]),
    )
))
def test_reduction_of_blocks_of_coprime_scales_matches_the_oracle(case):
    """A over 2^61 - 1 beside a right-hand side over 10^9 + 7: b = A y, which solve must reach,
    and a drawn b, inconsistent whenever it leaves the image."""
    m, y, b = case
    consistent = list(m.apply(y))
    assert_agrees_with_oracle(m, consistent, b)
    x = m.solve(consistent)
    assert x is not None and list(m.apply(x)) == consistent


mixed_scale_rows = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.sampled_from((1, 3, 2**61 - 1, 10**9 + 7)).flatmap(
            lambda d: st.lists(over(d), min_size=n, max_size=n)
        ),
        min_size=n,
        max_size=n,
    ).map(lambda rows: Matrix(n, n, [x for row in rows for x in row]))
)


@settings(max_examples=150)
@given(st.one_of(mixed_scale_rows, low_rank(5).map(lambda f: f[0] @ f[0].transpose())))
def test_invert_of_rows_of_mixed_scales_and_of_singular_squares_matches_the_oracle(m):
    """Squares whose rows each have their own denominator, and squares of rank at most 2."""
    assert_agrees_with_oracle(m, [Fraction(i % 3 - 1) for i in range(m.rows)])


@pytest.mark.parametrize("k", range(4))
def test_reduction_of_empty_shapes(k):
    for m in (Matrix(0, k, []), Matrix(k, 0, []), Matrix(0, 0, [])):
        assert_agrees_with_oracle(m, [0] * m.rows, [1] * m.rows)
    assert Matrix(0, k, []).kernel_basis() == [exactlin.basis_vector(k, j) for j in range(k)]
    assert Matrix(0, k, []).solve([]) == (Fraction(0),) * k
    assert Matrix(k, 0, []).solve([0] * k) == ()
    assert Matrix(k, 0, []).solve([1] * k) == (None if k else ())
    assert Matrix(0, 0, []).invert() == Matrix(0, 0, [])


@settings(max_examples=100)
@given(rectangular(5), st.integers(2, 6))
def test_a_matrix_built_from_its_table_reduces_as_a_fresh_copy(m, content):
    """A matrix whose `_ints` came from `multilin._from_table` (here from its own table times a
    content that the constructor divides out) gives what a fresh copy of its entries gives."""
    table, scale = exactlin._int_columns(Matrix(m.rows, m.cols, m.entries))[:2]
    built = _from_table(m.rows, m.cols, {j: {i: content * x for i, x in col.items()} for j, col in table.items()}, content * scale)
    assert built == m and built._ints[:2] == (table, scale)
    b = [Fraction(i - 1, 2) for i in range(m.rows)]
    fresh = Matrix(m.rows, m.cols, m.entries)
    assert built.rref() == fresh.rref()
    assert built.rank() == fresh.rank()
    assert built.kernel_basis() == fresh.kernel_basis()
    assert built.solve(b) == fresh.solve(b)
    if m.rows == m.cols:
        try:
            expected = fresh.invert()
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix, match=f"^{exc}$"):
                built.invert()
        else:
            assert built.invert() == expected


def test_differentials_reduce_as_fresh_copies():
    """CE matrices carry the table `_from_table` built; their results are a fresh copy's."""
    g = _heisenberg(2)
    for rep in (adjoint_rep(g), coadjoint_rep(g)):
        for n in range(3):
            d = ce_differential(g, rep, n)
            assert d._ints is not None
            fresh = Matrix(d.rows, d.cols, d.entries)
            assert (d.rank(), d.kernel_basis(), d.rref()) == (fresh.rank(), fresh.kernel_basis(), fresh.rref())
            b = d.apply([Fraction(j % 3 - 1) for j in range(d.cols)])
            assert d.solve(b) == fresh.solve(b)
            assert fresh.solve(b) is not None


def test_representatives_and_graph_check_do_without_hstack(trb_corpus, algebras):
    """The library stacks no dense blocks: with `Matrix.hstack` failing, cohomology representatives
    and the graph closure check still give the oracles' answers."""
    structures = [induced_structure(setup, t) for _, setup, t in trb_corpus]
    structures += [(g, rep(g)) for g in algebras.values() for rep in (adjoint_rep, coadjoint_rep)]
    expected_reps = [[ce_representatives_incremental(g, rep, n) for n in range(3)] for g, rep in structures]
    rng = random.Random(5)
    operators = [(setup, t) for _, setup, t in trb_corpus[:5]]
    operators += [(setup, corpus.random_operator(rng, setup, bound=1)) for setup, _ in operators for _ in range(4)]
    expected_graph = [check_trb(setup, t).ok for setup, t in operators]
    assert any(expected_graph) and not all(expected_graph)
    with mock.patch.object(Matrix, "hstack", side_effect=AssertionError("hstack called")):
        got = [[ce_cohomology_representatives(g, rep, n) for n in range(3)] for g, rep in structures]
        assert got == expected_reps
        assert [graph_subalgebra_check(setup, t) for setup, t in operators] == expected_graph
