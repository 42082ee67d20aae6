"""Single-pass and signed-term defects against the term-by-term oracles.

`validate_rep` and `liealg._jacobi_defects` accumulate each defect in one list;
every other identity check, the twisted Rota-Baxter check included, states
its identity as signed terms for `multilin.term_defect`, and the derived
structures (induced bracket and action, the NS-Lie tables) and the graded
bracket `linfty.nr_bracket` are signed terms tabulated by `multilin.tabulate`.
The oracles in `oracles.py` build the same values one evaluation and one
temporary per term.  A signed-term defect is taken from the call the check
makes to `report.first_failure`, so what is compared is what the check
scans.  Inputs are zero-heavy with non-integer entries, all-zero data
included.  `term_defect` itself, which sums integers over one scale per
node, is also compared with `oracles.term_defect_fraction` on drawn
identities.  The maps built by re-keying integer tables (ad, the coadjoint
action, psi-sharp, the semidirect bracket, the embedding and restriction of
the derived brackets, J) are compared with the oracles' Fraction builds, and
the table each carries with a scan of its entries; the whole-matrix
identities with dense products.
"""
import copy
import itertools
import random
import re
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import partial
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import bracket_basis, jacobi_defect_terms, nr_insert_terms, rep_defect_matrices, term_defect_fraction, trb_defect_terms
from twistrb import corpus, deform, liealg, linfty, multilin, nslie, operators, report, tgcs
from twistrb.errors import DimensionMismatch
from twistrb.exactlin import ZERO, Matrix, vector
from twistrb.liealg import Representation, _jacobi_defects, abelian, trivial_rep, validate_rep
from twistrb.linfty import nr_bracket
from twistrb.multilin import Bilinear, Cochain, _int_table, ext_basis, term_defect
from twistrb.operators import trb_setup
from twistrb.report import EquationReport, Violation, first_failure, passed

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
# large coprime denominators (2^61 - 1 and 10^9 + 7 are prime) and numerators past 2^70
wide_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(2**72), 2**72)),
    st.sampled_from([1, 2, 3, 7, 2**61 - 1, 10**9 + 7]),
)
wide_sparse_rationals = st.one_of(st.just(Fraction(0)), sparse_rationals, wide_rationals)
CORPUS = {name: (setup, t) for name, setup, t in corpus.trb_instances()}


def matrices(rows, cols, entries=sparse_rationals):
    """Zero-heavy rational matrices, the all-zero matrix drawn on its own too."""
    return st.one_of(
        st.just(Matrix.zero(rows, cols)),
        st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(lambda es: Matrix(rows, cols, es)),
    )


def cochains(dim, degree):
    """Degree-`degree` cochains from dimension `dim` to itself."""
    return matrices(dim, comb(dim, degree) if degree >= 0 else 0).map(lambda m: Cochain(degree, dim, dim, m))


def assert_same(got, expected):
    assert type(got) is tuple
    assert all(type(x) is Fraction for x in got)
    assert got == expected


def nr_bracket_terms(a, b):
    """A o B - (-1)^{|A||B|} B o A from the term-by-term insertions, |A| = degree - 1."""
    flip = nr_insert_terms(b, a)
    return nr_insert_terms(a, b) + (flip if (a.degree - 1) * (b.degree - 1) % 2 else -flip)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nr_bracket_matches_terms(data):
    """Source dims 1-5, degrees 0-3: degree > dim and arity < 0 included."""
    dim = data.draw(st.integers(1, 5))
    a = data.draw(cochains(dim, data.draw(st.integers(0, 3))))
    b = data.draw(cochains(dim, data.draw(st.integers(0, 3))))
    got, expected = nr_bracket(a, b), nr_bracket_terms(a, b)
    assert (got.degree, got.source_dim, got.target_dim) == (expected.degree, dim, dim)
    assert_same(got.matrix.entries, expected.matrix.entries)


@pytest.mark.parametrize("dim", [1, 3])
def test_nr_bracket_negative_arity_and_zero_cochains(dim):
    a, b = Cochain.zero(0, dim, dim), Cochain(0, dim, dim, Matrix(dim, 1, [Fraction(1, 2)] * dim))
    out = nr_bracket(a, b)
    assert out.degree == -1 and out == nr_bracket_terms(a, b)
    zero = Cochain.zero(2, dim, dim)
    for degree in range(4):
        other = Cochain.zero(degree, dim, dim)
        for x, y in ((zero, other), (other, zero)):
            assert nr_bracket(x, y).is_zero() and nr_bracket(x, y) == nr_bracket_terms(x, y)


@pytest.mark.parametrize("dim", [1, 3])
def test_nr_bracket_with_a_constant_pins_each_insertion(dim):
    """A o B has no terms when A has degree 0, so the bracket of a constant A with a
    degree-p map B is (-1)^p B o A, and the bracket the other way round is B o A alone."""
    const = Cochain(0, dim, dim, Matrix(dim, 1, [Fraction(k + 1, 2) for k in range(dim)]))
    for degree in (1, 2, 3):
        cols = comb(dim, degree)
        other = Cochain(degree, dim, dim, Matrix(dim, cols, [Fraction(k % 3 - 1, 3) for k in range(dim * cols)]))
        assert nr_insert_terms(const, other).is_zero()
        inserted = nr_insert_terms(other, const)
        assert nr_bracket(const, other) == (-inserted if degree % 2 else inserted)
        assert nr_bracket(other, const) == inserted


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_jacobi_defect_matches_terms(data):
    """Any skew bracket (Jacobi need not hold), every index triple, repeats included."""
    dim = data.draw(st.integers(1, 5))
    bracket = data.draw(cochains(dim, 2))
    jacobi_defect = _jacobi_defects(bracket)
    for i, j, k in itertools.product(range(dim), repeat=3):
        assert_same(jacobi_defect(i, j, k), jacobi_defect_terms(bracket, i, j, k))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trb_defect_matches_terms(data):
    """The defect `check_trb` scans, on corpus setups with drawn (mostly failing) or corpus operators;
    compared on every ordered basis pair, repeats included, beyond the scanned ones."""
    setup, t = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    if data.draw(st.booleans()):
        t = data.draw(matrices(setup.dim, setup.module_dim, entries=wide_sparse_rationals))
    expected = partial(trb_defect_terms, setup, t)
    _, seen = scanned(operators, operators.check_trb, setup, t)
    assert_scans_match(seen, {"twisted Rota-Baxter": expected})
    [(_, _, defect, _)] = seen
    for i, j in itertools.product(range(setup.module_dim), repeat=2):
        assert_same(defect(i, j), expected(i, j))


def test_first_failure_compares_each_entry_with_zero_by_value():
    """A passing case is told apart by `count` of the shared ZERO, which still compares every other
    entry by value: zero defects given as ints, as lists and as Fractions equal to ZERO that are
    not that object all pass, and a nonzero last entry fails at its case."""
    other_zero = Fraction(0)
    assert other_zero == ZERO and other_zero is not ZERO
    zeros = [(0, 0, 0), [0, 0, 0], [ZERO, 0, other_zero], (other_zero, Fraction(0, 5), ZERO), ()]
    assert first_failure("zero", [(k,) for k in range(len(zeros))], lambda k: zeros[k]).ok
    for last in (1, Fraction(-1, 3)):
        defects = [(ZERO,) * 3, [0, ZERO, other_zero], [ZERO, 0, last]]
        report = first_failure("last entry", [(k,) for k in range(3)], lambda k: defects[k])
        assert not report.ok
        assert report.violation == Violation("last entry", (2,), (0, 0, last))


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


# -- signed-term identities ------------------------------------------------


def scanned(module, check, *args):
    """Run `check`, keeping each (kind, cases, defect, report) that `first_failure` is handed and returns,
    called from `module` or through `report.identity_reports`."""
    seen = []
    real = report.first_failure

    def recording(kind, cases, defect):
        cases = list(cases)
        verdict = real(kind, cases, defect)
        seen.append((kind, cases, defect, verdict))
        return verdict

    with ExitStack() as stack:
        for target in {module, report}:
            if hasattr(target, "first_failure"):
                stack.enter_context(mock.patch.object(target, "first_failure", recording))
        result = check(*args)
    return result, seen


def assert_scans_match(seen, expected: dict):
    """Each oracle's identity was scanned; on every scanned case its defect equals the oracle's,
    and its first-failure report is the one the oracle gives."""
    assert sorted(kind for kind, *_ in seen if kind in expected) == sorted(expected)
    for kind, cases, defect, verdict in seen:
        if kind in expected:
            for case in cases:
                assert_same(defect(*case), tuple(expected[kind](*case)))
            assert verdict == first_failure(kind, cases, expected[kind])


def vectors(n):
    return st.lists(sparse_rationals, min_size=n, max_size=n).map(vector)


def untwisted(n, m):
    g = abelian(n)
    return trb_setup(g, trivial_rep(g, m), None)


ROT = Matrix(2, 2, [0, -1, 1, 0])
# complex and generalized complex structures that pass, next to the drawn ones that mostly fail
PASSING_GCS = [
    (untwisted(1, 1), tgcs.GcsComponents(Matrix.zero(1, 1), Matrix(1, 1, [1]), Matrix(1, 1, [-1]), Matrix.zero(1, 1))),
    (untwisted(2, 2), tgcs.embed_complex(ROT, ROT)),
    (untwisted(2, 2), tgcs.gcs_from_invertible_rb(untwisted(2, 2), Matrix(2, 2, [1, 1, 0, 1]))),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tgcs_components_match_oracle(data):
    if data.draw(st.booleans()):
        setup, j = data.draw(st.sampled_from(PASSING_GCS))
    else:
        setup, _ = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
        n, m = setup.dim, setup.module_dim
        j = tgcs.GcsComponents(*(data.draw(matrices(r, c)) for r, c in ((n, n), (n, m), (m, n), (m, m))))
    _, seen = scanned(tgcs, tgcs.tgcs_check_components, setup, j)
    assert_scans_match(seen, oracles.tgcs_component_defects(setup, j))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complex_structure_matches_oracle(data):
    setup, _ = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    if data.draw(st.booleans()):
        setup = untwisted(2, 2)
        i_map, i_mod = ROT, data.draw(st.sampled_from([ROT, Matrix.identity(2)]))
    else:
        i_map, i_mod = data.draw(matrices(setup.dim, setup.dim)), data.draw(matrices(setup.module_dim, setup.module_dim))
    args = (setup.algebra, setup.rep, i_map, i_mod)
    _, seen = scanned(tgcs, tgcs.complex_structure_check, *args)
    assert_scans_match(seen, oracles.complex_structure_defects(*args))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ns_check_matches_oracle(data):
    """Drawn candidates (mostly failing), and the NS-Lie structures of corpus operators (passing)."""
    if data.draw(st.booleans()):
        setup, t = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
        ns = nslie.ns_from_trb(setup, t)
    else:
        dim = data.draw(st.integers(1, 4))
        ns = nslie.NsLie(dim, Bilinear(dim, dim, data.draw(matrices(dim, dim * dim))), data.draw(cochains(dim, 2)))
    _, seen = scanned(nslie, nslie.ns_check, ns)
    assert_scans_match(seen, oracles.ns_defects(ns))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_assoc_ns_check_matches_oracle(data):
    dim = data.draw(st.integers(1, 3))
    prec, succ, box = (Bilinear(dim, dim, data.draw(matrices(dim, dim * dim))) for _ in range(3))
    a = nslie.AssocNs(dim, prec, succ, box)
    _, seen = scanned(nslie, nslie.assoc_ns_check, a)
    assert_scans_match(seen, oracles.assoc_ns_defects(a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deformation_defects_match_oracle(data):
    """Every order up to 3k + 2 on every basis pair, the base operator drawn or from the corpus;
    the orders past 3k have no terms and must still be the oracle's zero defects."""
    setup, t = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    shape = setup.operator_shape()
    base = t if data.draw(st.booleans()) else data.draw(matrices(*shape))
    coefficients = [data.draw(matrices(*shape)) for _ in range(data.draw(st.integers(1, 2)))]
    d = deform.FormalDeformation(setup, base, tuple(coefficients))
    up_to = data.draw(st.integers(1, 3 * len(coefficients) + 2))
    defects = deform.deformation_equation_defects(d, up_to=up_to)
    assert len(defects) == up_to
    for n, defect in enumerate(defects, start=1):
        for pair in ext_basis(setup.module_dim, 2):
            assert_same(defect.value_on_basis(pair), oracles.order_defect(d, n, *pair))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_linear_deformation_check_matches_oracle(data):
    """Each of the three verdicts is the vanishing of that order's oracle defect on every pair."""
    setup, t = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    t1 = data.draw(matrices(*setup.operator_shape()))
    d = deform.FormalDeformation(setup, t, (t1,))
    pairs = ext_basis(setup.module_dim, 2)
    expected = tuple(all(not any(oracles.order_defect(d, n, *pair)) for pair in pairs) for n in (1, 2, 3))
    assert deform.linear_deformation_check(setup, t, t1) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nijenhuis_element_and_equivalence_match_oracle(data):
    """x = 0 and T_1 = T_1' pass every identity; drawn x, T_1 and T_1' mostly fail."""
    setup, t = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    x = data.draw(vectors(setup.dim))
    _, seen = scanned(deform, deform.nijenhuis_element_check, setup, t, x)
    assert_scans_match(seen, oracles.nijenhuis_element_defects(setup, t, x, oracles.induced_action_matrices(setup, t)))
    t1 = data.draw(matrices(*setup.operator_shape()))
    t1p = t1 if data.draw(st.booleans()) else data.draw(matrices(*setup.operator_shape()))
    equivalence, seen = scanned(deform, deform.equivalence_check, setup, t, t1, t1p, x)
    expected = oracles.nijenhuis_element_defects(setup, t, x, None) | oracles.transport_defects(setup, t, t1, t1p, x)
    del expected["[x, u.x] = 0"]
    assert_scans_match(seen, expected)
    assert "[x, u.x] = 0" not in [kind for kind, *_ in seen]
    assert [name for name, _ in equivalence.equations][-2:] == ["transport", "transport-higher"]


def unvalidated_ns():
    """Patch out the checks the NS-Lie constructions and `adjacent_lie` make, so their tables come from any input."""
    stack = ExitStack()
    verdicts = {"require_trb": None, "nijenhuis_check": passed(), "assoc_ns_check": EquationReport(), "ns_check": EquationReport()}
    for name, verdict in verdicts.items():
        stack.enter_context(mock.patch.object(nslie, name, lambda *_, verdict=verdict: verdict))
    builders = {
        "lie_algebra_from_cochain": lambda bracket: liealg.LieAlgebra(bracket.source_dim, bracket),
        "validate_rep": lambda _, dim, action: Representation(dim, tuple(action)),
    }
    for name, builder in builders.items():
        stack.enter_context(mock.patch.object(nslie, name, builder))
    return stack


def assert_ns_tables(ns, expected):
    circ, vee = expected
    assert_same(ns.circ.matrix.entries, circ.matrix.entries)
    assert_same(ns.vee.matrix.entries, vee.matrix.entries)


def assert_adjacent_lie(ns):
    algebra, rep = nslie.adjacent_lie(ns)
    bracket, action = oracles.adjacent_tables(ns)
    assert_same(algebra.bracket.matrix.entries, bracket.matrix.entries)
    assert len(rep.action) == len(action) == ns.dim
    for a, b in zip(rep.action, action):
        assert_same(a.entries, b.entries)
        assert _int_table(a) == oracles.int_table(a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_derived_structures_match_oracle(data):
    """The induced bracket and action, the circ and vee of the three NS-Lie constructions and the
    adjacent Lie algebra of each of them and of a drawn NS-Lie candidate, entry for entry.

    Operators are corpus ones (passing), zero or drawn zero-heavy with wide denominators (mostly failing):
    the induced builders take any operator, and the NS constructions and `adjacent_lie` run with their
    checks patched out.
    """
    setup, t = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
    n, m = setup.operator_shape()
    wide = partial(matrices, entries=wide_sparse_rationals)
    if data.draw(st.booleans()):
        t = data.draw(wide(n, m))
    assert_same(operators.induced_bracket_cochain(setup, t).matrix.entries, oracles.induced_bracket_cochain(setup, t).matrix.entries)
    got, expected = operators.induced_action_matrices(setup, t), oracles.induced_action_matrices(setup, t)
    assert len(got) == len(expected) == m
    for a, b in zip(got, expected):
        assert_same(a.entries, b.entries)
    n_op = data.draw(wide(n, n))
    dim = data.draw(st.integers(1, 3))
    assoc = nslie.AssocNs(dim, *(Bilinear(dim, dim, data.draw(wide(dim, dim * dim))) for _ in range(3)))
    products = data.draw(wide(dim, dim * dim)), data.draw(wide(dim, comb(dim, 2)))
    drawn = nslie.NsLie(dim, Bilinear(dim, dim, products[0]), Cochain(2, dim, dim, products[1]))
    with unvalidated_ns():
        constructed = [
            (nslie.ns_from_trb(setup, t), oracles.ns_tables_from_trb(setup, t)),
            (nslie.ns_from_nijenhuis(setup.algebra, n_op), oracles.ns_tables_from_nijenhuis(setup.algebra, n_op)),
            (nslie.ns_from_assoc(assoc), oracles.ns_tables_from_assoc(assoc)),
        ]
        for ns, expected in constructed:
            assert_ns_tables(ns, expected)
        for ns in [ns for ns, _ in constructed] + [drawn]:
            assert_adjacent_lie(ns)
    # x.y = [Nx, y] and H = -N[.,.] of the Nijenhuis setup are circ and vee of the Nijenhuis NS-Lie algebra;
    # a scalar multiple of the identity is a Nijenhuis operator on any Lie algebra
    n_op = Matrix.identity(n).scale(data.draw(wide_rationals))
    nij_setup, _ = operators.nijenhuis_trb_setup(setup.algebra, n_op)
    circ, vee = oracles.ns_tables_from_nijenhuis(setup.algebra, n_op)
    assert_same(nij_setup.cocycle.matrix.entries, vee.matrix.entries)
    for i, rho in enumerate(nij_setup.rep.action):
        for j in range(n):
            assert_same(rho.col(j), circ.value_on_basis(i, j))


def test_nijenhuis_element_rejects_wrong_length():
    _, setup, t = corpus.trb_instances()[0]
    with pytest.raises(DimensionMismatch):
        deform.nijenhuis_element_check(setup, t, [0] * (setup.dim + 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lie_operator_identities_match_oracle(data):
    """Nijenhuis, derivation and Reynolds identities and the deformed bracket, on drawn maps (the zero map passes)."""
    _, algebra = data.draw(st.sampled_from(corpus.named_algebras()))
    n = algebra.dim
    op = data.draw(matrices(n, n))
    _, seen = scanned(liealg, liealg.nijenhuis_check, algebra, op)
    assert_scans_match(seen, {"nijenhuis": partial(oracles.nijenhuis_defect, algebra, op)})
    _, seen = scanned(liealg, liealg.derivation_check, algebra, op)
    assert_scans_match(seen, {"derivation": partial(oracles.derivation_defect, algebra, op)})
    _, seen = scanned(operators, operators.reynolds_check, algebra, op)
    assert_scans_match(seen, {"reynolds": partial(oracles.reynolds_defect, algebra, op)})
    bracket = liealg.deformed_bracket_cochain(algebra, op)
    for pair in ext_basis(n, 2):
        assert_same(bracket.value_on_basis(pair), oracles.deformed_bracket_value(algebra, op, *pair))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ce_differential_cochain_matches_alternating_sum(data):
    """Any skew bracket and any action matrices (neither need be valid), degrees 0-3."""
    dim, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    bracket = data.draw(cochains(dim, 2))
    rep = Representation(m, tuple(data.draw(matrices(m, m)) for _ in range(dim)))
    degree = data.draw(st.integers(0, 3))
    f = Cochain(degree, dim, m, data.draw(matrices(m, comb(dim, degree))))
    got, expected = liealg.ce_differential_cochain(bracket, rep, f), oracles.ce_differential_alternating(bracket, rep, f)
    assert (got.degree, got.source_dim, got.target_dim) == (degree + 1, dim, m)
    assert_same(got.matrix.entries, expected.matrix.entries)


def drawn_structure(data):
    """A corpus setup's algebra and module, or a drawn bracket and action (neither need be valid)
    with entries whose denominators reach 2^61 - 1 and 10^9 + 7."""
    if data.draw(st.booleans()):
        setup, _ = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
        return setup.algebra, setup.rep
    dim, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    wide = partial(matrices, entries=wide_sparse_rationals)
    algebra = liealg.LieAlgebra(dim, Cochain(2, dim, dim, data.draw(wide(dim, comb(dim, 2)))))
    return algebra, Representation(m, tuple(data.draw(wide(m, m)) for _ in range(dim)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ce_differential_cochain_matches_matrix_route(data):
    """The two forms of delta_CE: the signed terms of `ce_differential_cochain` on one cochain equal
    the integer columns of `ce_differential` applied to its coordinates, degrees 0 to dim + 1."""
    algebra, rep = drawn_structure(data)
    dim, m = algebra.dim, rep.module_dim
    degree = data.draw(st.integers(0, dim + 1))
    f = Cochain(degree, dim, m, data.draw(matrices(m, comb(dim, degree), wide_sparse_rationals)))
    got = liealg.ce_differential_cochain(algebra.bracket, rep, f)
    assert (got.degree, got.source_dim, got.target_dim) == (degree + 1, dim, m)
    assert_same(got.vec(), liealg.ce_differential(algebra, rep, degree).apply(f.vec()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_differential_matrix_carries_the_table_of_its_entries(data):
    """The table `_differential_matrix` stores is the scan of its entries, in every degree up to
    dim + 1: an empty C^{n+1} at n = dim and no columns past it."""
    algebra, rep = drawn_structure(data)
    for n in range(algebra.dim + 2):
        delta = liealg._differential_matrix(algebra, rep, n)
        assert _int_table(delta) == oracles.int_table(delta), n


def test_ce_differential_cochain_rejects_a_cochain_of_other_dimensions():
    """A cochain on another source (degrees 1-3; a degree-0 cochain takes no argument) or with
    values in another module."""
    setup, _ = CORPUS[sorted(CORPUS)[0]]
    bracket, rep = setup.algebra.bracket, setup.rep
    n, m = setup.dim, setup.module_dim
    for degree in range(4):
        with pytest.raises(DimensionMismatch):
            liealg.ce_differential_cochain(bracket, rep, Cochain.zero(degree, n, m + 1))
        if degree:
            with pytest.raises(DimensionMismatch):
                liealg.ce_differential_cochain(bracket, rep, Cochain.zero(degree, n + 1, m))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_derivation_check_is_minus_delta_of_the_adjoint_module(data):
    """`derivation_check` is the first failure of -delta_CE d for the adjoint module by the
    alternating sum, witness included, on valid and drawn brackets and drawn maps."""
    algebra, _ = drawn_structure(data)
    n = algebra.dim
    d = data.draw(matrices(n, n, wide_sparse_rationals))
    minus_dd = -oracles.ce_differential_alternating(algebra.bracket, liealg.adjoint_rep(algebra), Cochain.from_matrix_map(d))
    expected = first_failure("derivation", ext_basis(n, 2), lambda *t: minus_dd.value_on_basis(t))
    assert liealg.derivation_check(algebra, d) == expected


def drawn_cochain(data, algebra, rep, degree):
    """A degree-`degree` cochain of (algebra, rep): drawn, or delta_CE of a drawn one (a cocycle
    when both are valid), either of them possibly moved at one entry."""
    dim, m = algebra.dim, rep.module_dim
    wide = partial(matrices, entries=wide_sparse_rationals)
    if data.draw(st.booleans()):
        f = Cochain(degree - 1, dim, m, data.draw(wide(m, comb(dim, degree - 1))))
        c = oracles.ce_differential_alternating(algebra.bracket, rep, f)
    else:
        c = Cochain(degree, dim, m, data.draw(wide(m, comb(dim, degree))))
    if c.matrix.cols and data.draw(st.booleans()):
        entries = list(c.matrix.entries)
        entries[data.draw(st.integers(0, len(entries) - 1))] += data.draw(wide_rationals)
        c = Cochain(degree, dim, m, Matrix(m, c.matrix.cols, entries))
    return c


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cocycle_checks_match_alternating_sum(data):
    """`is_two_cocycle` is the first failure of delta_CE H by the alternating sum, and `is_one_cocycle`
    and `is_scalar_cocycle` are delta_CE B = 0 and delta_CE psi = 0 (psi a scalar 3-cochain), on corpus setups and
    on drawn brackets and actions (neither need be valid), for H, B and psi drawn or coboundaries,
    moved or not; entries reach denominators 2^61 - 1 and 10^9 + 7."""
    algebra, rep = drawn_structure(data)
    h = drawn_cochain(data, algebra, rep, 2)
    dh = oracles.ce_differential_alternating(algebra.bracket, rep, h)
    expected = first_failure("2-cocycle", ext_basis(algebra.dim, 3), lambda *t: dh.value_on_basis(t))
    assert liealg.is_two_cocycle(algebra, rep, h) == expected
    b = drawn_cochain(data, algebra, rep, 1)
    closed = oracles.ce_differential_alternating(algebra.bracket, rep, b).is_zero()
    assert operators.is_one_cocycle(operators.TrbSetup(algebra, rep, h), b.matrix) is closed
    scalars = trivial_rep(algebra, 1)
    psi = drawn_cochain(data, algebra, scalars, 3)
    closed = oracles.ce_differential_alternating(algebra.bracket, scalars, psi).is_zero()
    assert operators.is_scalar_cocycle(algebra, psi) is closed


def test_term_defect_forms():
    """Slots, fixed vectors, nested sums and each kind of table, on a 2-dimensional example."""
    half = Fraction(1, 2)
    c = Cochain(2, 2, 2, Matrix(2, 1, [half, 0]))
    b = Bilinear(2, 2, Matrix(2, 4, [1, 0, 0, half, 0, 0, 3, 0]))
    a = Matrix(2, 2, [0, 1, half, 0])
    rho = Representation(2, (Matrix(2, 2, [1, 0, 0, 0]), Matrix.zero(2, 2)))
    x = vector([half, 2])
    terms = [(1, (c, 1, 0)), (-1, (a, [(1, (b, 0, x)), (-1, (rho, 0, 1))])), (1, (b, x, (a, 1)))]
    # c(e1,e0) = (-1/2, 0); A(b(e0,x) - rho(e0)e1) = A(1/2, 0) = (0, 1/4); b(x, A e1) = b(x, e0) = (1/2, 6)
    assert_same(term_defect(terms)(0, 1), (Fraction(0), Fraction(23, 4)))


def test_term_defect_rejects_maps_that_do_not_compose():
    """A map applied to a value of another dimension or to the wrong number of arguments, a sum
    of two dimensions, a fixed vector of the wrong length, a constant used as a map; each with
    its whole message."""
    c, a = Cochain.zero(2, 3, 3), Matrix.zero(2, 2)

    def ones(degree, dim):
        return Cochain(degree, dim, dim, Matrix(dim, comb(dim, degree), [1] * dim * comb(dim, degree)))

    for terms, message in (
        ([(1, (c, (a, 0), 1))], "a map on dimensions (3, 3) applied to [2, None]"),
        ([(1, (a, 0)), (-1, (c, 0, 1))], "terms of dimensions [2, 3] added"),
        ([(1, (c, vector([1, 2]), 0))], "a map on dimensions (3, 3) applied to [2, None]"),
        ([(1, (a, 0, 1))], "a map on dimensions (2,) applied to [None, None]"),
        # cochains given other than as many arguments as their degree: as many columns as
        # pairs (degree 1 on dim 3), fewer (degree 3 on dim 4), more (degree 1 on dim 2)
        ([(1, (ones(1, 3), 0, 1))], "a map on dimensions (3,) applied to [None, None]"),
        ([(1, (ones(3, 4), 0, 1))], "a map on dimensions (4, 4, 4) applied to [None, None]"),
        ([(1, (ones(1, 2), 0, 1))], "a map on dimensions (2,) applied to [None, None]"),
        ([(1, (ones(3, 3), 0, 1))], "a map on dimensions (3, 3, 3) applied to [None, None]"),
        ([(1, (ones(2, 3), 0, 1, 2))], "a map on dimensions (3, 3) applied to [None, None, None]"),
        # a degree-0 cochain is a constant, not a map, whatever it is given
        ([(1, (ones(0, 3), 0))], "a degree-0 cochain applied as a map"),
        ([(1, (ones(0, 3),))], "a degree-0 cochain applied as a map"),
    ):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            term_defect(terms)
        # the same terms as an identity of `multilin.bind`, bound when compiled and again when kept
        build, params = rebuilt(terms)
        try:
            for _ in range(2):
                with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
                    multilin.bind(build, (), params)
        finally:
            multilin._PROGRAMS.pop((build,), None)
    _, sl2 = corpus.named_algebras()[0]
    assert liealg.nijenhuis_check(sl2, Matrix.identity(sl2.dim)).ok  # the program is kept from here on
    with pytest.raises(DimensionMismatch, match=f"^{re.escape('a map on dimensions (3, 3) applied to [2, 2]')}$"):
        liealg.nijenhuis_check(sl2, Matrix.identity(sl2.dim - 1))


SLOTS = 3


def arity(op):
    """How many arguments a map of `identity_maps` takes."""
    if isinstance(op, Matrix):
        return 1
    return op.degree if isinstance(op, Cochain) else 2


def identity_maps(n):
    """One map of each kind on dimension n, cochains of degrees 1-3, each possibly all-zero,
    entries of wide scales."""
    wide = partial(matrices, entries=wide_sparse_rationals)
    return st.tuples(
        wide(n, n),
        *(wide(n, comb(n, p)).map(partial(Cochain, p, n, n)) for p in (1, 2, 3)),
        wide(n, n * n).map(lambda m: Bilinear(n, n, m)),
        st.tuples(*[wide(n, n)] * n).map(partial(Representation, n)),
    )


def identity_expr(data, maps, n, depth, kinds=("slot", "vector", "sum", "op")):
    """A drawn signed-term expression of dimension n (or a slot) over `maps`."""
    kind = data.draw(st.sampled_from(kinds if depth else ("slot", "vector")))
    if kind == "slot":
        return data.draw(st.integers(0, SLOTS - 1))
    if kind == "vector":
        return vector(data.draw(st.lists(wide_sparse_rationals, min_size=n, max_size=n)))
    if kind == "sum":
        count = data.draw(st.integers(1, 3))
        return [(data.draw(st.sampled_from([1, -1])), identity_expr(data, maps, n, depth - 1)) for _ in range(count)]
    op = data.draw(st.sampled_from(maps))
    return (op, *(identity_expr(data, maps, n, depth - 1) for _ in range(arity(op))))


def slot_beside_compiled(data, maps, n, op=None):
    """Two terms applying a binary map (`op`, or one drawn from `maps`) to a slot and a compiled
    argument (a fixed vector or a map applied), the slot first in one and second in the other."""
    terms = []
    for slot_first in (True, False):
        binary = op or data.draw(st.sampled_from([m for m in maps if arity(m) == 2]))
        slot = data.draw(st.integers(0, SLOTS - 1))
        compiled = identity_expr(data, maps, n, 1, kinds=("vector", "op"))
        args = (slot, compiled) if slot_first else (compiled, slot)
        terms.append((data.draw(st.sampled_from([1, -1])), (binary, *args)))
    return terms


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_term_defect_matches_fraction_oracle(data):
    """Drawn identities over every kind of map, unary to ternary: nested sums of terms with
    different scales, fixed vectors, all-zero maps, large coprime denominators, and a binary map
    with a slot on either side of a compiled argument; every basis tuple."""
    n = data.draw(st.integers(1, 3))
    maps = data.draw(identity_maps(n))
    terms = [
        (data.draw(st.sampled_from([1, -1])), identity_expr(data, maps, n, data.draw(st.integers(1, 3)), kinds=("op",)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    terms += slot_beside_compiled(data, maps, n)
    got, expected = term_defect(terms), term_defect_fraction(terms)
    for case in itertools.product(range(n), repeat=SLOTS):
        assert_same(got(*case), expected(*case))


def substituted(expr, index: dict, params):
    """expr with each map and fixed vector o replaced by params[index[id(o)]]."""
    if type(expr) is int:
        return expr
    if type(expr) is list:
        return [(sign, substituted(e, index, params)) for sign, e in expr]
    if id(expr) in index:
        return params[index[id(expr)]]
    return (params[index[id(expr[0])]], *(substituted(a, index, params) for a in expr[1:]))


def rebuilt(terms, maps=()):
    """A builder for `multilin.bind` whose terms on its own maps are `terms`, and those maps: `maps`,
    then every other map and fixed vector of `terms`, each once, in the order they first appear."""
    found = {id(op): op for op in maps}

    def visit(expr):
        if type(expr) is list:
            for _, e in expr:
                visit(e)
        elif type(expr) is tuple:
            if not expr or type(expr[0]) is Fraction:
                found.setdefault(id(expr), expr)
            else:
                found.setdefault(id(expr[0]), expr[0])
                for a in expr[1:]:
                    visit(a)

    visit(terms)
    params = tuple(found.values())
    return partial(substituted, terms, {k: j for j, k in enumerate(found)}), params


def zero_maps(n):
    """The all-zero map of each kind of `identity_maps(n)`."""
    zero = Matrix.zero(n, n)
    return (zero, *(Cochain.zero(p, n, n) for p in (1, 2, 3)), Bilinear.zero(n, n), Representation(n, (zero,) * n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_program_binds_maps_of_every_scale(data):
    """A drawn identity (the strategies of `test_term_defect_matches_fraction_oracle`) compiled once by
    `multilin.bind` and bound to three sets of maps and fixed vectors of its structure: those it was
    drawn with, a second draw with wide denominators and all-zero ones.  Each binding equals the
    Fraction oracle on every basis tuple, and the cache gains the one program."""
    n = data.draw(st.integers(1, 3))
    maps = data.draw(identity_maps(n))
    terms = [
        (data.draw(st.sampled_from([1, -1])), identity_expr(data, maps, n, data.draw(st.integers(1, 3)), kinds=("op",)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    terms += slot_beside_compiled(data, maps, n)
    build, drawn = rebuilt(terms, maps)
    vectors = len(drawn) - len(maps)
    wide = [vector(data.draw(st.lists(wide_sparse_rationals, min_size=n, max_size=n))) for _ in range(vectors)]
    sets = (drawn, (*data.draw(identity_maps(n)), *wide), (*zero_maps(n), *[vector([0] * n)] * vectors))
    before = len(multilin._PROGRAMS)
    try:
        for params in sets:
            got, expected = term_defect(multilin.bind(build, (), params)), term_defect_fraction(build(params))
            for case in itertools.product(range(n), repeat=SLOTS):
                assert_same(got(*case), expected(*case))
        assert len(multilin._PROGRAMS) == before + 1
    finally:
        multilin._PROGRAMS.pop((build,), None)


def test_binding_many_scales_keeps_one_program(monkeypatch, trb_corpus):
    """Programs are kept by structure alone, never by scale, dimension or zero pattern: the twisted
    Rota-Baxter check of every corpus operator, scaled by each wide factor and by 0, leaves one program."""
    monkeypatch.setattr(multilin, "_PROGRAMS", {})
    for _, setup, t in trb_corpus:
        for factor in (*WIDE_FACTORS, 0):
            operators.check_trb(setup, t.scale(factor))
    assert list(multilin._PROGRAMS) == [(operators._trb_terms, 1, 0)]


def shared_map_terms(data, maps, n):
    """A bare map on slots (the root is then that column of its table), or a sum of terms that all
    apply one map, on slots or on drawn expressions that may apply it again; a binary map is also
    applied to a slot on either side of a compiled argument."""
    op = data.draw(st.sampled_from(maps))
    slots = st.integers(0, SLOTS - 1)
    if data.draw(st.booleans()):
        return [(1, (op, *(data.draw(slots) for _ in range(arity(op)))))]
    terms = slot_beside_compiled(data, (op, *maps), n, op) if arity(op) == 2 else []
    for _ in range(data.draw(st.integers(2, 4))):
        args = [
            data.draw(slots) if data.draw(st.booleans()) else identity_expr(data, (op, *maps), n, 1)
            for _ in range(arity(op))
        ]
        terms.append((data.draw(st.sampled_from([1, -1])), (op, *args)))
    return terms


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tabulated_table_equals_a_scan(data):
    """The integer table `tabulate` keeps on its matrix equals the table a scan of the matrix's
    entries builds, scale included: drawn identities over every kind of map, all-zero maps and
    wide denominators, some terms cancelled by their negatives so that sums reach an explicit 0."""
    n = data.draw(st.integers(1, 3))
    maps = data.draw(identity_maps(n))
    terms = [
        (data.draw(st.sampled_from([1, -1])), identity_expr(data, maps, n, data.draw(st.integers(1, 3)), kinds=("op",)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    terms += [(-sign, expr) for sign, expr in terms[: data.draw(st.integers(0, len(terms)))]]
    m = multilin.tabulate(terms, itertools.product(range(n), repeat=SLOTS), n)
    assert _int_table(m) == _int_table(Matrix(m.rows, m.cols, m.entries)) == oracles.int_table(m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derived_tables_equal_the_oracle_scan(data):
    """The tables `_int_table` derives from its matrices' column tables (a Cochain of degree 1, or of
    degree 2 or 3 in every ordering, a Bilinear, a Representation whose action matrices have their
    own scales)
    equal the oracle's scan of the map, whether the matrices were scanned or come from `tabulate`."""
    n = data.draw(st.integers(1, 4))
    _, c1, c2, c3, b, rep = data.draw(identity_maps(n))
    # each map again, its matrices tabulated from the map itself
    again = [
        Cochain(c.degree, n, n, multilin.tabulate([(1, (c, *range(c.degree)))], ext_basis(n, c.degree), n))
        for c in (c1, c2, c3)
    ]
    again.append(Bilinear(n, n, multilin.tabulate([(1, (b, 0, 1))], itertools.product(range(n), repeat=2), n)))
    action = tuple(multilin.tabulate([(1, (rep, 0, 1))], [(x, u) for u in range(n)], n) for x in range(n))
    again.append(Representation(n, action))
    for op in (c1, c2, c3, b, rep, *again):
        assert _int_table(op) == oracles.int_table(op)
    assert again[:4] == [c1, c2, c3, b] and again[4].action == rep.action


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reynolds_setup_needs_no_validation(data):
    """`reynolds_setup` validates nothing, since on every Lie algebra ad is a representation and -[.,.] is
    closed (delta_CE of the bracket in the adjoint module is twice the Jacobiator): both hold on the
    drawn algebras in bases rescaled by wide factors, and the setup equals the validated one."""
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    algebra = rescaled(algebra, [data.draw(st.sampled_from(WIDE_FACTORS)) for _ in range(algebra.dim)])
    adjoint = liealg.adjoint_rep(algebra)
    assert validate_rep(algebra, algebra.dim, adjoint.action) == adjoint
    cocycle = Cochain(2, algebra.dim, algebra.dim, -algebra.bracket.matrix)
    assert liealg.is_two_cocycle(algebra, adjoint, cocycle).ok
    assert operators.reynolds_setup(algebra) == trb_setup(algebra, adjoint, cocycle)


def test_representation_table_brings_each_action_to_the_common_scale():
    """Action matrices of scales 2, 3 and 1: the table's scale is 6, each column multiplied by the
    factor of its matrix, and the columns of a matrix already at that scale are its own."""
    halves = Matrix(2, 2, [Fraction(1, 2), 0, 0, 1])
    thirds = Matrix(2, 2, [0, Fraction(2, 3), 0, 0])
    ones = Matrix(2, 2, [0, 0, 3, 0])
    rep = Representation(2, (halves, thirds, ones))
    table, scale, dims, rows = _int_table(rep)
    assert (scale, dims, rows) == (6, (3, 2), 2)
    assert table == {(0, 0): {0: 3}, (0, 1): {1: 6}, (1, 1): {0: 4}, (2, 0): {1: 18}}
    assert (table, scale, dims, rows) == oracles.int_table(rep)
    assert _int_table(halves) == ({0: {0: 1}, 1: {1: 2}}, 2, (2,), 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_defect_leaks_no_state_between_cases(data):
    """One compiled defect evaluated twice over every basis tuple, in drawn orders, equals the
    Fraction oracle each time, and leaves every cached integer table as it was before."""
    n = data.draw(st.integers(1, 3))
    maps = data.draw(identity_maps(n))
    terms = shared_map_terms(data, maps, n)
    got, expected = term_defect(terms), term_defect_fraction(terms)
    tables = [copy.deepcopy(_int_table(op)) for op in maps]
    cases = list(itertools.product(range(n), repeat=SLOTS))
    for _ in range(2):
        for case in data.draw(st.permutations(cases)):
            assert_same(got(*case), expected(*case))
    assert [_int_table(op) for op in maps] == tables


def fresh(setup, t):
    """A copy of (setup, T) sharing no map with it, so no integer table is built yet."""

    def matrix(m):
        return Matrix(m.rows, m.cols, m.entries)

    def cochain(c):
        return Cochain(c.degree, c.source_dim, c.target_dim, matrix(c.matrix))

    algebra = liealg.LieAlgebra(setup.dim, cochain(setup.algebra.bracket))
    rep = Representation(setup.module_dim, tuple(matrix(rho) for rho in setup.rep.action))
    return operators.TrbSetup(algebra, rep, cochain(setup.cocycle)), matrix(t)


@contextmanager
def table_builds():
    """The maps whose integer table is built while the block runs, in order: `multilin._int_table`,
    the one table builder, wrapped where it is defined and where `liealg` imports it, records each
    map it is given that keeps no table yet (a Matrix stores its table, so it is never recorded)."""
    build, builds = multilin._int_table, []

    def counted(op):
        if not isinstance(op, Matrix) and op._ints is None:
            builds.append(op)
        return build(op)

    with mock.patch.object(multilin, "_int_table", counted), mock.patch.object(liealg, "_int_table", counted):
        yield builds


def test_integer_tables_are_built_once_per_map():
    """A second check of one (setup, T) builds no table; the cached table of a cochain, a bilinear
    map or a representation takes no part in `==` or `hash`; a new one (the result of an operation
    included) starts without one."""
    setup, t = fresh(*CORPUS[sorted(CORPUS)[0]])
    with table_builds() as builds:
        first = operators.check_trb(setup, t)
        built = len(builds)
        assert operators.check_trb(setup, t) == first
    assert 0 < built == len(builds) == len({id(op) for op in builds})

    m = Matrix(2, 2, [1, Fraction(1, 2), 0, 3])
    c = Cochain(2, 2, 2, Matrix(2, 1, [Fraction(2, 3), 1]))
    b = Bilinear(2, 2, Matrix(2, 4, [1, 0, 0, Fraction(1, 2), 0, 0, 3, 0]))
    rep = Representation(2, (m, m.transpose()))
    twins = [
        (c, Cochain(2, 2, 2, Matrix(2, 1, c.matrix.entries))),
        (b, Bilinear(2, 2, Matrix(2, 4, b.matrix.entries))),
        (rep, Representation(2, rep.action)),
    ]
    for op, twin in twins:
        assert op._ints is None
        _int_table(op)
        assert op._ints is not None and twin._ints is None
        assert op == twin and twin == op and hash(op) == hash(twin)
    for result in (c + c, c - c, -c, c.scale(2)):
        assert result._ints is None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_validation_builds_the_one_table_of_bracket_and_rep(name):
    """`validate_lie` and `validate_rep` leave their integer tables on the maps they return, and
    `check_trb` and `ce_cohomology_dims` read those: neither builds a table of the bracket or of
    the representation again.  `trb_setup` keeps the representation it checked, with its table."""
    setup, t = fresh(*CORPUS[name])
    brackets = {pair: bracket_basis(setup.algebra, *pair) for pair in ext_basis(setup.dim, 2)}
    algebra = liealg.validate_lie(setup.dim, brackets)
    rep = validate_rep(algebra, setup.module_dim, setup.rep.action)
    assert algebra.bracket._ints is not None and rep._ints is not None
    assert rep == setup.rep

    with table_builds() as builds:
        assert operators.check_trb(operators.TrbSetup(algebra, rep, setup.cocycle), t)
        liealg.ce_cohomology_dims(algebra, rep, 2)
        kept = trb_setup(algebra, setup.rep, setup.cocycle)
        assert kept.rep == setup.rep and kept.rep._ints is not None
        before = len(builds)
        assert operators.check_trb(kept, t)
    assert not any(op is algebra.bracket or op is rep for op in builds)
    assert not any(op is kept.rep for op in builds[before:])


# x with a distinct odd-prime-power denominator in each coordinate
FRACTIONAL_X = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 11), Fraction(11, 13))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_nijenhuis_element_witness_of_fractional_x_matches_oracle(name):
    """Each identity's verdict and `Violation.describe()` line equal those of the oracle route."""
    setup, t = CORPUS[name]
    x = FRACTIONAL_X[: setup.dim]
    report, seen = scanned(deform, deform.nijenhuis_element_check, setup, t, x)
    expected = oracles.nijenhuis_element_defects(setup, t, x, oracles.induced_action_matrices(setup, t))
    assert [verdict for *_, verdict in seen] == [rep for _, rep in report.equations]
    lines = []
    for kind, cases, _, verdict in seen:
        oracle = first_failure(kind, cases, expected[kind])
        assert verdict.ok == oracle.ok
        if not verdict.ok:
            lines.append(verdict.violation.describe())
            assert lines[-1] == oracle.violation.describe()
    # x passes every identity on the Heisenberg and abelian setups; elsewhere the witnesses are not integral
    assert not lines or any("/" in line for line in lines)


# -- derived maps built from integer tables ------------------------------------

SETUPS = [setup for setup, _ in CORPUS.values()] + list(corpus.random_setups(random.Random(0), 12))
ALGEBRAS = [g for _, g in corpus.named_algebras()] + [operators.twisted_semidirect(s) for s in SETUPS]
# rescaling a basis vector by one of these gives structure constants with coprime denominators
WIDE_FACTORS = (1, Fraction(-2, 3), Fraction(1, 2**61 - 1), 10**9 + 7, Fraction(5, 10**9 + 7))


def over(denominator):
    """Zero-heavy entries k / denominator."""
    return st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(lambda k: Fraction(k, denominator)))


def assert_built_from_table(got: Matrix, expected: Matrix):
    """`got` equals the oracle's matrix entry for entry and stores the table a scan of its entries builds."""
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert_same(got.entries, expected.entries)
    assert _int_table(got) == oracles.int_table(got)


def rescaled(algebra, factors):
    """The algebra in the basis f_i = a_i e_i: [f_i, f_j] = sum_k (a_i a_j / a_k) c^k_ij f_k."""
    values = {}
    for i, j in ext_basis(algebra.dim, 2):
        column = bracket_basis(algebra, i, j)
        values[i, j] = [Fraction(factors[i] * factors[j]) / factors[k] * x for k, x in enumerate(column)]
    return liealg.lie_algebra_from_cochain(Cochain.from_values(2, algebra.dim, algebra.dim, values))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjoint_coadjoint_and_reynolds_twist_are_built_from_the_bracket_table(data):
    """ad, the adjoint and coadjoint actions and the Reynolds twist H = -[.,.] of the named algebras and
    of the semidirect products of corpus and random setups, in bases rescaled by wide factors; ad also
    of a drawn skew bracket that need not satisfy Jacobi."""
    algebra = data.draw(st.sampled_from(ALGEBRAS))
    algebra = rescaled(algebra, [data.draw(st.sampled_from(WIDE_FACTORS)) for _ in range(algebra.dim)])
    adjoint = liealg.adjoint_rep(algebra)
    for i in range(algebra.dim):
        assert_built_from_table(algebra.ad(i), oracles.ad(algebra, i))
        assert_built_from_table(adjoint.action[i], oracles.ad(algebra, i))
    coadjoint = liealg.coadjoint_rep(algebra).action
    assert len(coadjoint) == algebra.dim
    for got, expected in zip(coadjoint, oracles.coadjoint_action(algebra)):
        assert_built_from_table(got, expected)
    assert_built_from_table(operators.reynolds_setup(algebra).cocycle.matrix, -algebra.bracket.matrix)
    n = data.draw(st.integers(1, 4))
    drawn = liealg.LieAlgebra(n, Cochain(2, n, n, data.draw(matrices(n, comb(n, 2), wide_sparse_rationals))))
    for i in range(n):
        assert_built_from_table(drawn.ad(i), oracles.ad(drawn, i))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_twisted_semidirect_bracket_is_built_from_three_tables(data):
    """Corpus and random setups, and raw setups whose bracket, H and action have the coprime
    denominators 2^61 - 1, 10^9 + 7 and 3 in a drawn order, so that each table is brought to an lcm
    past its own scale."""
    if data.draw(st.booleans()):
        setup = data.draw(st.sampled_from(SETUPS))
    else:
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        bracket_d, twist_d, action_d = data.draw(st.permutations([2**61 - 1, 10**9 + 7, 3]))
        bracket = Cochain(2, n, n, data.draw(matrices(n, comb(n, 2), over(bracket_d))))
        twist = Cochain(2, n, m, data.draw(matrices(m, comb(n, 2), over(twist_d))))
        rep = Representation(m, tuple(data.draw(matrices(m, m, over(action_d))) for _ in range(n)))
        setup = operators.TrbSetup(liealg.LieAlgebra(n, bracket), rep, twist)
    got, expected = operators.twisted_semidirect_cochain(setup), oracles.twisted_semidirect_cochain(setup)
    assert (got.degree, got.source_dim, got.target_dim) == (expected.degree, expected.source_dim, expected.target_dim)
    assert_built_from_table(got.matrix, expected.matrix)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_psi_sharp_is_built_from_the_table_of_psi(data):
    """Drawn scalar 3-cochains with wide denominators, on dimensions 1-5."""
    algebra = abelian(data.draw(st.integers(1, 5)))
    n = algebra.dim
    psi = Cochain(3, n, 1, data.draw(matrices(1, comb(n, 3), wide_sparse_rationals)))
    assert_built_from_table(operators.psi_sharp(algebra, psi).matrix, oracles.psi_sharp(algebra, psi).matrix)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_embedding_and_restriction_are_built_from_tables(data):
    """Elements of degrees 0-3 and maps on g (+) M of the same degree, entries with wide denominators:
    degrees past dim M included."""
    setup = data.draw(st.sampled_from(SETUPS))
    n, m = setup.dim, setup.module_dim
    big, degree = n + m, data.draw(st.integers(0, 3))
    wide = partial(matrices, entries=wide_sparse_rationals)
    p = Cochain(degree, m, n, data.draw(wide(n, comb(m, degree))))
    a = Cochain(degree, big, big, data.draw(wide(big, comb(big, degree))))
    for got, expected in ((linfty._embed(setup, p), oracles.embed(setup, p)), (linfty._restrict(setup, a), oracles.restrict(setup, a))):
        assert (got.degree, got.source_dim, got.target_dim) == (expected.degree, expected.source_dim, expected.target_dim)
        assert_built_from_table(got.matrix, expected.matrix)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_operator_is_built_from_four_tables(data):
    """The blocks N, T, sigma and S have the denominators 1, 2^61 - 1, 10^9 + 7 and 6 in a drawn order."""
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    denominators = data.draw(st.permutations([1, 2**61 - 1, 10**9 + 7, 6]))
    shapes = ((n, n), (n, m), (m, n), (m, m))
    j = tgcs.GcsComponents(*(data.draw(matrices(r, c, over(d))) for (r, c), d in zip(shapes, denominators)))
    assert_built_from_table(j.block(), oracles.block(j))


def test_block_operator_refuses_blocks_that_do_not_fit():
    j = tgcs.GcsComponents(Matrix.zero(2, 2), Matrix.zero(1, 1), Matrix.zero(1, 2), Matrix.zero(1, 1))
    with pytest.raises(DimensionMismatch):
        j.block()


def vanished(check, *args):
    """Run a tgcs check, keeping the matrix and verdict of each whole-matrix identity handed to `vanishes`."""
    seen = {}
    real = tgcs.vanishes

    def recording(kind, m):
        verdict = real(kind, m)
        seen[kind] = m, verdict
        return verdict

    with mock.patch.object(tgcs, "vanishes", recording):
        check(*args)
    return seen


def assert_matrix_identities(seen, expected: dict):
    """Each identity's matrix equals the oracle's dense one, with the same `fails at ()` witness."""
    assert sorted(seen) == sorted(expected)
    for kind, (m, verdict) in seen.items():
        assert_same(m.entries, expected[kind].entries)
        assert verdict == report.vanishes(kind, expected[kind])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_whole_matrix_identities_equal_dense_products(data):
    """The four matrix equations of the tgcs components, J^2 + id of the direct check, and I^2 + id and
    I_M^2 + id of a complex structure, on passing and drawn (mostly failing) components."""
    wide = partial(matrices, entries=wide_sparse_rationals)
    if data.draw(st.booleans()):
        setup, j = data.draw(st.sampled_from(PASSING_GCS))
    else:
        setup, _ = CORPUS[data.draw(st.sampled_from(sorted(CORPUS)))]
        n, m = setup.dim, setup.module_dim
        j = tgcs.GcsComponents(*(data.draw(wide(r, c)) for r, c in ((n, n), (n, m), (m, n), (m, m))))
    n, m = setup.dim, setup.module_dim
    nm, tm, sg, sm = j.n_map, j.t_map, j.sigma, j.s_map
    mul, big = oracles.matmul_dense, oracles.block(j)
    expected = {
        "NT = TS": mul(nm, tm) - mul(tm, sm),
        "N^2 + T.sigma = -id": mul(nm, nm) + mul(tm, sg) + Matrix.identity(n),
        "S.sigma = sigma.N": mul(sm, sg) - mul(sg, nm),
        "S^2 + sigma.T = -id": mul(sm, sm) + mul(sg, tm) + Matrix.identity(m),
        "J^2 = -id": mul(big, big) + Matrix.identity(n + m),
    }
    assert_matrix_identities(vanished(tgcs.tgcs_check_components, setup, j), expected)

    i_map, i_mod = (ROT, ROT) if data.draw(st.booleans()) else (data.draw(wide(2, 2)), data.draw(wide(2, 2)))
    g = abelian(2)
    expected = {
        "I^2 = -id": mul(i_map, i_map) + Matrix.identity(2),
        "I_M^2 = -id": mul(i_mod, i_mod) + Matrix.identity(2),
    }
    assert_matrix_identities(vanished(tgcs.complex_structure_check, g, trivial_rep(g, 2), i_map, i_mod), expected)


def derived_chain(setup, elements, head=None):
    """The oracle's restriction of every bracket of the full `nr_bracket` chain from head (Delta by default)."""
    raw = oracles.twisted_semidirect_cochain(setup) if head is None else head
    out = []
    for e in elements:
        raw = nr_bracket(raw, oracles.embed(setup, e))
        out.append(oracles.restrict(setup, raw))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_brackets_equal_the_restricted_full_chain(data):
    """One to three elements of degrees 0-3 bracketed into Delta or a drawn head of degree 1-3:
    arities past dim M and below 0 included (three constants bring the chain to arity -1)."""
    setup = data.draw(st.sampled_from(SETUPS))
    n, m = setup.dim, setup.module_dim
    big = n + m
    elements = []
    for _ in range(data.draw(st.integers(1, 3))):
        degree = data.draw(st.integers(0, 3))
        elements.append(Cochain(degree, m, n, data.draw(matrices(n, comb(m, degree)))))
    head = None
    if data.draw(st.booleans()):
        degree = data.draw(st.integers(1, 3))
        head = Cochain(degree, big, big, data.draw(matrices(big, comb(big, degree))))
    got = linfty._derived(setup, elements, head)
    assert got == derived_chain(setup, elements, head)
    for c in got:
        assert _int_table(c.matrix) == oracles.int_table(c.matrix)


@pytest.mark.parametrize("constants, degree", [(3, 0), (1, 3), (2, 3)])
def test_derived_brackets_past_the_module_and_below_zero(constants, degree):
    """Constants take the arity of the chain down to -1; degree-3 elements take it past dim M = 2."""
    setup = operators.reynolds_setup(corpus.affine_line())
    n, m = setup.dim, setup.module_dim
    element = Cochain(degree, m, n, Matrix(n, comb(m, degree), [Fraction(k + 1, 2) for k in range(n * comb(m, degree))]))
    elements = [element] * constants
    got = linfty._derived(setup, elements)
    assert got == derived_chain(setup, elements)
    assert any(c.degree < 0 or c.degree > m for c in got)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_last_derived_bracket_is_tabulated_only_on_module_tuples(name):
    """`mc_defect` and `d_t_unchecked` read their last bracket only through the projection P, so it is
    tabulated on the pairs of M alone (shifted past g); each bracket before it, which the next one
    reads, on every pair of g (+) M."""
    setup, t = CORPUS[name]
    n, m = setup.dim, setup.module_dim
    real = linfty.tabulate
    runs = (partial(linfty.mc_defect, setup, t), partial(linfty.d_t_unchecked, setup, t, linfty.operator_element(setup, t)))
    for run in runs:
        calls = []

        def recording(terms, cases, rows):
            cases = list(cases)
            calls.append(cases)
            return real(terms, cases, rows)

        with mock.patch.object(linfty, "tabulate", recording):
            run()
        *full, last = calls
        assert full and all(cases == list(ext_basis(n + m, 2)) for cases in full)
        assert last == [(n + a, n + b) for a, b in ext_basis(m, 2)]
