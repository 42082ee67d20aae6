import itertools
from fractions import Fraction

import pytest

from oracles import act_basis, act_dense, act_on_basis_dense, bracket_dense, vec_add
from twistrb import corpus, deform, operators
from twistrb.deform import (
    deformation_equation_defects,
    equivalence_check,
    formal_deformation,
    infinitesimal_is_cocycle,
    linear_deformation_check,
    nijenhuis_element_check,
    rigidity_probe,
)
from twistrb.errors import InvalidStructure
from twistrb.exactlin import Matrix
from twistrb.liealg import Representation, abelian, adjoint_rep, trivial_rep, validate_rep
from twistrb.linfty import d_t_unchecked, operator_element
from twistrb.multilin import Cochain
from twistrb.operators import check_trb, setup_from_invertible_cochain, trb_setup


def coboundary_operator(setup, t, x):
    """d_T(x) as an operator matrix, for x given in coordinates."""
    elem = Cochain(0, setup.module_dim, setup.dim, Matrix(setup.dim, 1, x))
    image = d_t_unchecked(setup, t, elem)
    return Matrix.from_cols(
        [image.value_on_basis((a,)) for a in range(setup.module_dim)], rows=setup.dim
    )


def test_zero_coefficient_deformation(trb_corpus):
    for name, setup, t in trb_corpus[:5]:
        zero = Matrix.zero(setup.dim, setup.module_dim)
        defects = deformation_equation_defects(formal_deformation(setup, t, [zero]))
        assert all(d.is_zero() for d in defects), name


def test_trb_terms_vanish_past_three_k(rng, trb_corpus):
    """With k stored higher coefficients the t^n coefficient has terms at n = 3k and none past it."""
    for name, setup, t in trb_corpus:
        for k in range(4):
            ts = (t, *(corpus.random_operator(rng, setup) for _ in range(k)))
            assert operators.trb_terms(setup, ts, 3 * k), name
            assert all(operators.trb_terms(setup, ts, n) == [] for n in range(3 * k + 1, 3 * k + 5)), name


def test_formal_deformation_rejects_a_wrong_shaped_coefficient(trb_corpus):
    """The constructor checks every coefficient's shape, whichever route builds the deformation."""
    _, setup, t = trb_corpus[0]
    good = Matrix.zero(setup.dim, setup.module_dim)
    for bad in (Matrix.zero(setup.dim + 1, setup.module_dim), Matrix.zero(setup.dim, setup.module_dim + 1)):
        with pytest.raises(InvalidStructure, match="deformation coefficient shape mismatch"):
            deform.FormalDeformation(setup, t, (good, bad))
        with pytest.raises(InvalidStructure, match="deformation coefficient shape mismatch"):
            formal_deformation(setup, t, [bad])
    assert deform.FormalDeformation(setup, t, (good,)).coefficient(1) == good


def test_order_one_defect_iff_cocycle(rng, trb_corpus):
    for name, setup, t in trb_corpus:
        for _ in range(8):
            t1 = corpus.random_operator(rng, setup)
            d = formal_deformation(setup, t, [t1])
            order1 = deformation_equation_defects(d)[0].is_zero()
            closed = d_t_unchecked(setup, t, operator_element(setup, t1)).is_zero()
            assert order1 == closed, name
            assert infinitesimal_is_cocycle(setup, t, t1) == closed, name


def test_coboundary_infinitesimal_is_cocycle(rng, trb_corpus):
    for name, setup, t in trb_corpus[:6]:
        x = [rng.randint(-2, 2) for _ in range(setup.dim)]
        t1 = coboundary_operator(setup, t, x)
        assert infinitesimal_is_cocycle(setup, t, t1), name


def test_order_one_defect_is_minus_dt(rng, trb_corpus):
    """The order-1 defect cochain equals -d_T(T_1) exactly."""
    name, setup, t = trb_corpus[0]
    for _ in range(10):
        t1 = corpus.random_operator(rng, setup)
        d = formal_deformation(setup, t, [t1])
        defect = deformation_equation_defects(d)[0]
        dt1 = d_t_unchecked(setup, t, operator_element(setup, t1))
        assert defect == -dt1


def test_linear_deformation_trivial_cases(trb_corpus):
    for name, setup, t in trb_corpus[:5]:
        zero = Matrix.zero(setup.dim, setup.module_dim)
        assert linear_deformation_check(setup, t, zero) == (True, True, True), name


def test_linear_deformation_sampling_oracle(rng, trb_corpus):
    """All three orders vanish iff T + cT_1 passes for c = 0,1,2,3."""
    for name, setup, t in trb_corpus[:6]:
        for _ in range(12):
            t1 = corpus.random_operator(rng, setup, bound=1)
            orders = linear_deformation_check(setup, t, t1)
            sampled = all(check_trb(setup, t + t1.scale(c)).ok for c in (0, 1, 2, 3))
            assert all(orders) == sampled, name


def test_linear_deformation_order3_untwisted(algebras):
    """With H = 0 the cubic condition is vacuous: T1(H(T1 u, T1 v)) = 0."""
    g = algebras["affine"]
    setup = trb_setup(g, trivial_rep(g, 2), None)
    t = Matrix.zero(2, 2)
    t1 = Matrix.from_rows([[1, 0], [0, 1]])
    _, _, third = linear_deformation_check(setup, t, t1)
    assert third


def test_equivalence_trivial(trb_corpus, rng):
    for name, setup, t in trb_corpus[:5]:
        t1 = corpus.random_operator(rng, setup)
        zero_x = [0] * setup.dim
        assert equivalence_check(setup, t, t1, t1, zero_x).ok, name


def test_equivalence_abelian_collapse():
    g = abelian(2)
    setup = trb_setup(g, trivial_rep(g, 2), None)
    t = Matrix.zero(2, 2)
    t1 = Matrix.from_rows([[1, 2], [0, 1]])
    for x in itertools.product((-1, 0, 1), repeat=2):
        assert equivalence_check(setup, t, t1, t1, x).ok


def test_equivalence_implies_coboundary_difference(rng, trb_corpus):
    """Constructed instances: T1 = T1' + d_T(x) for a verified Nijenhuis x."""
    exercised = 0
    for name, setup, t in trb_corpus:
        for x in _candidate_elements(setup.dim):
            if not nijenhuis_element_check(setup, t, x).ok:
                continue
            t1p = corpus.random_operator(rng, setup, bound=1)
            t1 = t1p + coboundary_operator(setup, t, x)
            report = equivalence_check(setup, t, t1, t1p, x)
            # equivalence_check itself asserts T1 - T1' = d_T(x) when all pass
            if report.ok:
                exercised += 1
                break
    assert exercised >= 2


def _candidate_elements(dim):
    grid = [0, 1, -1, 2]
    for coords in itertools.product(grid, repeat=dim):
        if any(coords):
            yield coords


def test_equivalent_infinitesimals_cohomologous(rng, trb_corpus):
    """When the equivalence passes, T1 - T1' lies in the image of d_T."""
    from twistrb.linfty import d_t_matrix

    for name, setup, t in trb_corpus[:4]:
        for x in _candidate_elements(setup.dim):
            if nijenhuis_element_check(setup, t, x).ok:
                t1p = corpus.random_operator(rng, setup, bound=1)
                t1 = t1p + coboundary_operator(setup, t, x)
                if not equivalence_check(setup, t, t1, t1p, x).ok:
                    continue
                d0 = d_t_matrix(setup, t, 0)
                diff = operator_element(setup, t1 - t1p).vec()
                assert d0.solve(diff) is not None, name
                break


def test_nijenhuis_element_trivial_cases(trb_corpus):
    for name, setup, t in trb_corpus[:6]:
        zero = [0] * setup.dim
        assert nijenhuis_element_check(setup, t, zero).ok, name


def test_nijenhuis_element_abelian_everything():
    g = abelian(2)
    setup = trb_setup(g, trivial_rep(g, 2), None)
    t = Matrix.zero(2, 2)
    for x in itertools.product((-2, -1, 0, 1, 2), repeat=2):
        assert nijenhuis_element_check(setup, t, x).ok


def test_nijenhuis_element_grid_oracle(rng, algebras):
    """2-dim nonabelian instance: the checker agrees with brute-force expansion
    of the five defining identities over a coefficient grid."""
    g = algebras["affine"]
    setup, t = setup_from_invertible_cochain(g, adjoint_rep(g), Matrix.from_rows([[1, 1], [0, 1]]))
    s = setup

    def brute(x):
        from twistrb.exactlin import vec_is_zero, basis_vector
        from twistrb.operators import induced_action_matrices

        ok = True
        n, m = s.dim, s.module_dim
        action = induced_action_matrices(s, t)
        for a in range(m):
            ubar = [sum(Fraction(x[k]) * action[a].col(k)[r] for k in range(n)) for r in range(n)]
            if not vec_is_zero(bracket_dense(s.algebra, x, ubar)):
                ok = False
        for i in range(n):
            for j in range(n):
                xy = bracket_dense(s.algebra, x, basis_vector(n, i))
                xz = bracket_dense(s.algebra, x, basis_vector(n, j))
                if not vec_is_zero(bracket_dense(s.algebra, xy, xz)):
                    ok = False
                if not vec_is_zero(s.cocycle.skew_eval([xy, xz])):
                    ok = False
        for i in range(n):
            for a in range(m):
                yu = act_basis(s.rep, i, a)
                lhs = s.cocycle.skew_eval([x, t.apply(yu)])
                rhs = s.rep.action[i].apply(s.cocycle.skew_eval([x, t.col(a)]))
                if lhs != rhs:
                    ok = False
                xy = bracket_dense(s.algebra, x, basis_vector(n, i))
                inner = vec_add(act_on_basis_dense(s.rep, x, a), s.cocycle.skew_eval([x, t.col(a)]))
                if not vec_is_zero(act_dense(s.rep, xy, inner)):
                    ok = False
        for i in range(n):
            for j in range(n):
                hyz = s.cocycle.skew_eval([basis_vector(n, i), basis_vector(n, j)])
                lhs = vec_add(act_dense(s.rep, x, hyz), s.cocycle.skew_eval([x, t.apply(hyz)]))
                rhs = vec_add(
                    s.cocycle.skew_eval([bracket_dense(s.algebra, x, basis_vector(n, i)), basis_vector(n, j)]),
                    s.cocycle.skew_eval([basis_vector(n, i), bracket_dense(s.algebra, x, basis_vector(n, j))]),
                )
                if lhs != rhs:
                    ok = False
        return ok

    for coords in itertools.product((-1, 0, 1), repeat=2):
        x = tuple(Fraction(c) for c in coords)
        assert nijenhuis_element_check(setup, t, x).ok == brute(x), coords


def test_rigidity_probe_abelian_inconclusive():
    g = abelian(2)
    setup = trb_setup(g, trivial_rep(g, 2), None)
    report = rigidity_probe(setup, Matrix.zero(2, 2))
    assert report.verdict == "inconclusive"
    assert len(report.probes) == 4  # Z^1 is all of Hom(M, g)


def test_rigidity_probe_dim1_established():
    g = abelian(1)
    rep = Representation(1, (Matrix.from_rows([[1]]),))
    assert isinstance(validate_rep(g, 1, rep.action), Representation)
    setup, t = setup_from_invertible_cochain(g, rep, Matrix.from_rows([[1]]))
    report = rigidity_probe(setup, t)
    assert report.established
    assert all(p.nijenhuis for p in report.probes)


def test_rigidity_probe_deterministic(trb_corpus):
    name, setup, t = trb_corpus[0]
    first = rigidity_probe(setup, t)
    second = rigidity_probe(setup, t)
    assert first == second


def test_deformation_checks_run_check_trb_once(monkeypatch, trb_corpus):
    """Each entry point checks the base operator once, not again inside formal_deformation."""
    calls = []
    original = operators.check_trb

    def counted(setup, t):
        calls.append(1)
        return original(setup, t)

    monkeypatch.setattr(operators, "check_trb", counted)
    _, setup, t = trb_corpus[0]
    t1 = Matrix.zero(setup.dim, setup.module_dim)
    for entry in (formal_deformation, infinitesimal_is_cocycle, linear_deformation_check):
        calls.clear()
        entry(setup, t, [t1] if entry is formal_deformation else t1)
        assert len(calls) == 1, entry.__name__


def test_rigidity_probe_runs_check_trb_once(monkeypatch, trb_corpus):
    """The grid scan reuses the probe's one induced structure: no check_trb per Nijenhuis attempt."""
    calls, attempts = [], []
    original_check, original_report = operators.check_trb, deform._nijenhuis_element_report

    def counted(setup, t):
        calls.append(1)
        return original_check(setup, t)

    def attempted(*args):
        attempts.append(1)
        return original_report(*args)

    monkeypatch.setattr(operators, "check_trb", counted)
    monkeypatch.setattr(deform, "_nijenhuis_element_report", attempted)
    g = abelian(1)
    dim1 = setup_from_invertible_cochain(g, Representation(1, (Matrix.from_rows([[1]]),)), Matrix.from_rows([[1]]))
    for setup, t in (dim1, trb_corpus[0][1:]):
        calls.clear()
        attempts.clear()
        report = rigidity_probe(setup, t)
        assert len(calls) == 1
        assert attempts, "the probe never reached the grid scan"
        for probe in report.probes:
            if probe.nijenhuis:
                assert nijenhuis_element_check(setup, t, probe.preimage).ok
