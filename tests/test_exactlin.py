import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import ce_representatives_incremental, hstack, matmul_dense, matrix_rows, rank_oracle, rref_oracle, sparse_row
from twistrb import corpus, exactlin, instances, multilin
from twistrb.errors import DimensionMismatch, SingularMatrix
from twistrb.exactlin import Matrix, _from_table, scalar, scalar_str, vec_is_zero
from twistrb.liealg import adjoint_rep, ce_cohomology_representatives, ce_differential, coadjoint_rep, validate_lie
from twistrb.linfty import induced_structure
from twistrb.multilin import Cochain, _int_table, _partial
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
    for aug in (hstack(m, Matrix.identity(m.rows)), hstack(m, Matrix(m.rows, 1, [1] * m.rows))):
        assert aug.rref() == rref_oracle(aug)
    wide = hstack(m, Matrix(m.rows, extra, [Fraction(i % 3 - 1) for i in range(m.rows * extra)]))
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
    ]
    if m.rows == m.cols and m.rank() == m.rows:
        aug = rref_oracle(hstack(m, Matrix.identity(m.rows)))[0]
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
    for c, column in oracles.int_table(m)[0].items():
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
    form, pivots = rref_oracle(hstack(m, Matrix(m.rows, 1, b)))
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = form[r, m.cols]
    return tuple(x)


def oracle_inverse(m: Matrix) -> Matrix | None:
    n = m.rows
    form, pivots = rref_oracle(hstack(m, Matrix.identity(n)))
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
    """A matrix built by `_from_table` (here from its own table times a content that the
    constructor divides out) stores the fresh copy's table and gives what the copy gives."""
    table, scale = oracles.int_table(Matrix(m.rows, m.cols, m.entries))[:2]
    built = _from_table(m.rows, m.cols, {j: {i: content * x for i, x in col.items()} for j, col in table.items()}, content * scale)
    assert built == m and _int_table(built)[:2] == (table, scale)
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
    """CE matrices store the table of their entries; their results are a fresh copy's."""
    g = _heisenberg(2)
    for rep in (adjoint_rep(g), coadjoint_rep(g)):
        for n in range(3):
            d = ce_differential(g, rep, n)
            fresh = Matrix(d.rows, d.cols, d.entries)
            assert _int_table(d) == _int_table(fresh) == oracles.int_table(d)
            assert (d.rank(), d.kernel_basis(), d.rref()) == (fresh.rank(), fresh.kernel_basis(), fresh.rref())
            b = d.apply([Fraction(j % 3 - 1) for j in range(d.cols)])
            assert d.solve(b) == fresh.solve(b)
            assert fresh.solve(b) is not None


# -- one stored form: the integer column table over one scale -----------------

ROUTES = ("init", "strings", "from_rows", "from_cols", "parser", "table", "tabulate", "partial", "ce")
# CE differentials of structures with fractional constants, in degrees 0-2
CE_MATRICES = [
    ce_differential(g, rep, n)
    for g, rep in [(_heisenberg(2), coadjoint_rep(_heisenberg(2)))]
    + [induced_structure(setup, t) for _, setup, t in corpus.trb_instances()[:6]]
    for n in range(3)
]


def built(data, route: str) -> tuple[Matrix, int, int, list[Fraction]]:
    """A matrix built by one construction route, with the shape and dense entries it must have.

    A CE differential comes with its own entries, which the unit-vector oracle checks in
    `test_liealg`; here its stored table is checked against them."""
    if route == "ce":
        m = data.draw(st.sampled_from(CE_MATRICES))
        return m, m.rows, m.cols, list(m.entries)
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 5))
    if route == "partial":
        # x -> c(e_i, x) of a degree-2 cochain c of wide denominators
        n = max(cols, 2)
        pairs = list(itertools.combinations(range(n), 2))
        values = data.draw(st.lists(mixed_rationals, min_size=rows * len(pairs), max_size=rows * len(pairs)))
        i = data.draw(st.integers(0, n - 1))

        def value(k: int, j: int) -> Fraction:
            """Row k of c(e_i, e_j), read off the drawn values of the pairs a < b."""
            if j == i:
                return Fraction(0)
            return values[k * len(pairs) + pairs.index((min(i, j), max(i, j)))] * (1 if i < j else -1)

        m = _partial(Cochain(2, n, rows, Matrix(rows, len(pairs), values)), i)
        return m, rows, n, [value(k, j) for k in range(rows) for j in range(n)]
    entries = data.draw(st.lists(mixed_rationals, min_size=rows * cols, max_size=rows * cols))
    dense = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    if route == "init":
        m = Matrix(rows, cols, entries)
    elif route == "strings":
        m = Matrix(rows, cols, [scalar_str(x) for x in entries])
    elif route == "from_rows":
        m = Matrix.from_rows(dense)
    elif route == "from_cols":
        m = Matrix.from_cols([[row[j] for row in dense] for j in range(cols)], rows=rows)
    elif route == "parser":
        raw = [[x.numerator if x.denominator == 1 else scalar_str(x) for x in row] for row in dense]
        m = instances.parse_matrix(raw, rows, cols, "m")
    elif route == "table":
        # the oracle's table times a content the constructor divides out
        content = data.draw(st.integers(1, 6))
        table, scale = oracles.int_table(Matrix(rows, cols, entries))[:2]
        m = _from_table(rows, cols, {j: {i: content * x for i, x in col.items()} for j, col in table.items()}, content * scale)
    else:
        # three terms that sum to the matrix, so its columns are fresh integer sums, not op's table
        op = Matrix(rows, cols, entries)
        m = multilin.tabulate([(1, (op, 0)), (1, (op, 0)), (-1, (op, 0))], [(j,) for j in range(cols)], rows)
    return m, rows, cols, entries


def assert_canonical(m: Matrix, rows: int, cols: int, entries: list[Fraction]) -> None:
    """m has the shape and dense entries given, and stores the table the oracle scans from them."""
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == tuple(entries) and all(type(x) is Fraction for x in m.entries)
    assert _int_table(m) == oracles.int_table(m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_stores_one_canonical_table(data):
    """Every construction route and every operation gives a matrix that stores the table an oracle
    scans from its dense entries; `==` is equality of the dense entries and equal matrices hash
    equal; each operation is Fraction arithmetic on the dense entries, wide denominators included."""
    m, rows, cols, entries = built(data, data.draw(st.sampled_from(ROUTES)))
    assert_canonical(m, rows, cols, entries)

    def at(i: int, j: int) -> Fraction:
        return entries[i * cols + j]

    # the same entries by another route, and the entries with one of them redrawn
    twin = Matrix(rows, cols, entries)
    other_entries = list(entries)
    if entries and data.draw(st.booleans()):
        other_entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(mixed_rationals)
    other = Matrix.from_cols([[other_entries[i * cols + j] for i in range(rows)] for j in range(cols)], rows=rows)
    for candidate, dense in ((twin, entries), (other, other_entries)):
        assert (m == candidate) == (candidate == m) == (dense == entries)
        if m == candidate:
            assert hash(m) == hash(candidate)
    if rows > 1:
        assert m != Matrix(1, rows * cols, entries)

    assert [m[i, j] for i in range(rows) for j in range(cols)] == entries
    assert [x for i in range(rows) for x in m.row(i)] == entries
    assert [m.col(j)[i] for i in range(rows) for j in range(cols)] == entries
    assert m.is_zero() == (not any(entries))
    assert m.is_skew() == (rows == cols and all(at(i, j) == -at(j, i) for i in range(rows) for j in range(cols)))

    c = data.draw(mixed_rationals)
    k = data.draw(st.integers(0, 4))
    right = Matrix(cols, k, data.draw(st.lists(mixed_rationals, min_size=cols * k, max_size=cols * k)))
    v = data.draw(st.lists(mixed_rationals, min_size=cols, max_size=cols))
    products = [sum((at(i, t) * right[t, j] for t in range(cols)), Fraction(0)) for i in range(rows) for j in range(k)]
    results = [
        (m + other, rows, cols, [a + b for a, b in zip(entries, other_entries)]),
        (m - other, rows, cols, [a - b for a, b in zip(entries, other_entries)]),
        (-m, rows, cols, [-a for a in entries]),
        (m.scale(c), rows, cols, [c * a for a in entries]),
        (m.transpose(), cols, rows, [at(i, j) for j in range(cols) for i in range(rows)]),
        (m @ right, rows, k, products),
        (m.rref()[0], rows, cols, list(rref_oracle(Matrix(rows, cols, entries))[0].entries)),
    ]
    if rows == cols:
        results.append((m - m.transpose(), rows, cols, [at(i, j) - at(j, i) for i in range(rows) for j in range(cols)]))
        assert results[-1][0].is_skew()
        inverse = oracle_inverse(Matrix(rows, cols, entries))
        if inverse is not None:
            results.append((m.invert(), rows, cols, list(inverse.entries)))
    for got, shape_rows, shape_cols, dense in results:
        assert_canonical(got, shape_rows, shape_cols, dense)
    assert m.apply(v) == tuple(sum((at(i, t) * v[t] for t in range(cols)), Fraction(0)) for i in range(rows))
    assert all(type(x) is Fraction for x in m.apply(v))


def test_constructor_rejects_negative_shapes():
    """A negative row or column count is refused, even where rows * cols matches the entries."""
    for rows, cols, entries in ((-1, -1, [5]), (-1, 0, []), (0, -3, []), (-2, -3, [1] * 6)):
        with pytest.raises(DimensionMismatch):
            Matrix(rows, cols, entries)
    with pytest.raises(DimensionMismatch):
        Matrix.zero(-1, 2)
    with pytest.raises(DimensionMismatch):
        Matrix.from_cols([], rows=-1)


def test_representatives_and_graph_check_do_without_hstack(trb_corpus, algebras):
    """The library stacks no dense blocks (a Matrix has no `hstack`): cohomology representatives
    and the graph closure check give the oracles' answers."""
    structures = [induced_structure(setup, t) for _, setup, t in trb_corpus]
    structures += [(g, rep(g)) for g in algebras.values() for rep in (adjoint_rep, coadjoint_rep)]
    expected_reps = [[ce_representatives_incremental(g, rep, n) for n in range(3)] for g, rep in structures]
    rng = random.Random(5)
    operators = [(setup, t) for _, setup, t in trb_corpus[:5]]
    operators += [(setup, corpus.random_operator(rng, setup, bound=1)) for setup, _ in operators for _ in range(4)]
    expected_graph = [check_trb(setup, t).ok for setup, t in operators]
    assert any(expected_graph) and not all(expected_graph)
    assert not hasattr(Matrix, "hstack")
    got = [[ce_cohomology_representatives(g, rep, n) for n in range(3)] for g, rep in structures]
    assert got == expected_reps
    assert [graph_subalgebra_check(setup, t) for setup, t in operators] == expected_graph
