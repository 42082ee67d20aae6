"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact rational equality (tolerance zero).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import itertools
import math
import random
import time
from fractions import Fraction

from oracles import act_on_basis_dense, bracket_dense, cohomology_dims_oracle, matrix_rows, rank_oracle
from twistrb import corpus
from twistrb.deform import (
    deformation_equation_defects,
    equivalence_check,
    formal_deformation,
    linear_deformation_check,
    nijenhuis_element_check,
)
from twistrb.exactlin import Matrix, vec_scale, vec_sub
from twistrb.liealg import (
    adjoint_rep,
    ce_cohomology_dims,
    ce_differential,
    trivial_rep,
)
from twistrb.linfty import (
    bracket2,
    bracket3,
    cohomology_of_t_dims,
    compare_dt_ce,
    d_t_unchecked,
    linfty_jacobi_defect,
    mc_defect,
    operator_element,
)
from twistrb.multilin import Cochain, ext_basis
from twistrb.nslie import adjacent_lie, ns_check, ns_from_nijenhuis, ns_from_trb
from twistrb.operators import (
    check_trb,
    gauge_transform,
    induced_bracket,
    nijenhuis_trb_setup,
    shift_by_coboundary,
    witt_report,
)
from twistrb.tgcs import (
    GcsComponents,
    embed_complex,
    gcs_from_invertible_rb,
    opposite,
    tgcs_check_components,
    tgcs_check_direct,
)
from twistrb.operators import trb_setup


def announce(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_witt_reynolds():
    start = time.monotonic()
    ok = True
    rows = witt_report(10)
    ok = ok and len(rows) == 66 and all(r.ok for r in rows)
    # all ordered pairs, recomputed from the structure data
    for m in range(11):
        for n in range(11):
            lhs = Fraction(1, m + 1) * Fraction(1, n + 1) * (m - n)
            inner = Fraction(m - n, m + 1) + Fraction(m - n, n + 1) - lhs
            rhs = inner * Fraction(1, m + n + 1)
            ok = ok and lhs == rhs == Fraction(m - n, (m + 1) * (n + 1))
            ok = ok and inner == Fraction((m - n) * (m + n + 1), (m + 1) * (n + 1))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    announce(1, "Witt Reynolds reproduction", ok)


def test_criterion_02_mc_iff_trb(trb_corpus):
    start = time.monotonic()
    rng = random.Random(2)
    checked = 0
    agree = True
    # constructed positives from the corpus (h-inverse, Nijenhuis, Reynolds, gauge)
    for name, setup, t in trb_corpus:
        agree = agree and mc_defect(setup, t)[0].is_zero() == check_trb(setup, t).ok
        checked += 1
    # random operators over corpus setups, dims <= 4
    for name, setup, _ in itertools.cycle(trb_corpus):
        if checked >= 170:
            break
        cand = corpus.random_operator(rng, setup)
        agree = agree and mc_defect(setup, cand)[0].is_zero() == check_trb(setup, cand).ok
        checked += 1
    # setups with randomly sampled closed twists
    for setup in corpus.random_setups(rng, 40):
        cand = corpus.random_operator(rng, setup)
        agree = agree and mc_defect(setup, cand)[0].is_zero() == check_trb(setup, cand).ok
        checked += 1
    elapsed = time.monotonic() - start
    ok = agree and checked >= 200 and elapsed < 30.0
    announce(2, f"MC = TRB on {checked} instances in {elapsed:.1f}s", ok)


def test_criterion_03_bracket_closed_forms(trb_corpus):
    rng = random.Random(3)
    ok = True
    done = 0
    for name, setup, _ in itertools.cycle(trb_corpus):
        if done >= 50:
            break
        t = corpus.random_operator(rng, setup)
        te = operator_element(setup, t)
        b2 = bracket2(setup, te, te)
        b3 = bracket3(setup, te, te, te)
        for i, j in ext_basis(setup.module_dim, 2):
            tu, tv = t.col(i), t.col(j)
            inner = vec_sub(
                act_on_basis_dense(setup.rep, tu, j), act_on_basis_dense(setup.rep, tv, i)
            )
            two = vec_scale(Fraction(2), vec_sub(t.apply(inner), bracket_dense(setup.algebra, tu, tv)))
            ok = ok and b2.value_on_basis((i, j)) == two
            hv = setup.cocycle.skew_eval([tu, tv])
            ok = ok and b3.value_on_basis((i, j)) == vec_scale(Fraction(-6), t.apply(hv))
        done += 1
    announce(3, "binary and ternary closed forms on 50 random operators", ok)


def test_criterion_04_dt_squared_and_ce_identification(trb_corpus):
    ok = True
    for name, setup, t in trb_corpus:
        m, n = setup.module_dim, setup.dim
        for deg in (0, 1, 2):
            size = math.comb(m, deg) * n
            for j in range(size):
                flat = [0] * size
                flat[j] = 1
                f = Cochain.from_vec(deg, m, n, flat)
                ok = ok and d_t_unchecked(setup, t, d_t_unchecked(setup, t, f)).is_zero()
                ok = ok and compare_dt_ce(setup, t, f)
    announce(4, "d_T^2 = 0 and d_T = (-1)^n delta_CE on basis cochains", ok)


def test_criterion_05_higher_jacobi(trb_corpus):
    rng = random.Random(5)
    ok = True
    for name, setup, _ in trb_corpus:
        budget = 50
        while budget > 0:
            for n in (2, 3, 4):
                degs = [rng.randint(0, 2) for _ in range(n)]
                els = [
                    Cochain.from_vec(
                        d,
                        setup.module_dim,
                        setup.dim,
                        [
                            Fraction(rng.randint(-2, 2))
                            for _ in range(math.comb(setup.module_dim, d) * setup.dim)
                        ],
                    )
                    for d in degs
                ]
                ok = ok and linfty_jacobi_defect(setup, n, els).is_zero()
                budget -= 1
    announce(5, "higher Jacobi identities n = 2, 3, 4", ok)


def test_criterion_06_cohomology_pipeline(trb_corpus, algebras):
    ok = True
    for name, setup, t in trb_corpus:
        ok = ok and cohomology_of_t_dims(setup, t, 3) == cohomology_dims_oracle(setup, t, 3)
    # pinned values against the straight-line elimination oracle
    sl2, heis = algebras["sl2"], algebras["heisenberg"]
    for g, rep, degree, expected in [
        (sl2, adjoint_rep(sl2), 0, 0),
        (sl2, adjoint_rep(sl2), 1, 0),
        (heis, trivial_rep(heis, 1), 1, 2),
    ]:
        dn = ce_differential(g, rep, degree)
        prev = ce_differential(g, rep, degree - 1) if degree else None
        nullity = dn.cols - rank_oracle(matrix_rows(dn))
        boundary = rank_oracle(matrix_rows(prev)) if prev is not None else 0
        ok = ok and nullity - boundary == expected
    ok = ok and ce_cohomology_dims(sl2, adjoint_rep(sl2), 1) == [0, 0]
    ok = ok and ce_cohomology_dims(heis, trivial_rep(heis, 1), 1)[1] == 2
    announce(6, "cohomology pipeline equality + pinned dimensions", ok)


def test_criterion_07_ns_lie_universals(trb_corpus, algebras):
    ok = True
    for name, setup, t in trb_corpus:
        ns = ns_from_trb(setup, t)
        ok = ok and ns_check(ns).ok
        adjacent, _ = adjacent_lie(ns)
        ok = ok and adjacent.bracket == induced_bracket(setup, t).bracket
    for g, n_op in [
        (algebras["affine"], Matrix.from_rows([[2, 0], [0, 3]])),
        (algebras["sl2"], Matrix.identity(3).scale(2)),
        (algebras["heisenberg"], Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]])),
    ]:
        setup, ident = nijenhuis_trb_setup(g, n_op)
        via_trb = ns_from_trb(setup, ident)
        via_nij = ns_from_nijenhuis(g, n_op)
        ok = ok and via_trb.circ == via_nij.circ and via_trb.vee == via_nij.vee
    announce(7, "NS-Lie universals and Nijenhuis agreement", ok)


def test_criterion_08_tgcs_theorem_as_oracle(trb_corpus, algebras):
    rng = random.Random(8)
    ok = True
    checked = 0
    for name, setup, _ in itertools.cycle(trb_corpus):
        if checked >= 200:
            break
        n, m = setup.dim, setup.module_dim
        j = GcsComponents(
            corpus.random_matrix(rng, n, n, 1),
            corpus.random_matrix(rng, n, m, 1),
            corpus.random_matrix(rng, m, n, 1),
            corpus.random_matrix(rng, m, m, 1),
        )
        report = tgcs_check_components(setup, j)  # raises if routes disagree
        ok = ok and report.ok == tgcs_check_direct(setup, j).ok
        checked += 1
    # constructed positives: invertible operator, complex embedding, opposites
    from twistrb.liealg import abelian

    g = abelian(2)
    flat = trb_setup(g, trivial_rep(g, 2), None)
    j = gcs_from_invertible_rb(flat, Matrix.from_rows([[1, 1], [0, 1]]))
    ok = ok and tgcs_check_components(flat, j).ok
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    j2 = embed_complex(rot, rot)
    ok = ok and tgcs_check_components(flat, j2).ok
    flipped, j3 = opposite(flat, j)
    ok = ok and tgcs_check_components(flipped, j3).ok
    heis = algebras["heisenberg"]
    frame = trb_setup(heis, adjoint_rep(heis), None)
    j4 = gcs_from_invertible_rb(frame, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]]))
    ok = ok and tgcs_check_components(frame, j4).ok
    announce(8, f"ten-equation oracle on {checked} random + constructed tuples", ok)


def test_criterion_09_deformation_suite(trb_corpus):
    rng = random.Random(9)
    ok = True
    for name, setup, t in trb_corpus:
        for _ in range(6):
            t1 = corpus.random_operator(rng, setup, bound=1)
            order1 = deformation_equation_defects(formal_deformation(setup, t, [t1]))[0]
            closed = d_t_unchecked(setup, t, operator_element(setup, t1)).is_zero()
            ok = ok and order1.is_zero() == closed
            orders = linear_deformation_check(setup, t, t1)
            sampled = all(check_trb(setup, t + t1.scale(c)).ok for c in (0, 1, 2, 3))
            ok = ok and all(orders) == sampled
    # equivalence: constructed pairs differing by a verified coboundary
    exercised = 0
    for name, setup, t in trb_corpus:
        for coords in itertools.product((0, 1, -1), repeat=setup.dim):
            if not any(coords):
                continue
            if not nijenhuis_element_check(setup, t, coords).ok:
                continue
            x_elem = Cochain(0, setup.module_dim, setup.dim, Matrix(setup.dim, 1, coords))
            dx = d_t_unchecked(setup, t, x_elem)
            dx_op = Matrix.from_cols(
                [dx.value_on_basis((a,)) for a in range(setup.module_dim)], rows=setup.dim
            )
            t1p = corpus.random_operator(rng, setup, bound=1)
            t1 = t1p + dx_op
            report = equivalence_check(setup, t, t1, t1p, coords)
            if report.ok:
                exercised += 1  # the check itself asserts T1 - T1' = d_T(x)
            break
    ok = ok and exercised >= 2
    announce(9, "deformation suite (cocycle, sampling oracle, equivalence)", ok)


def test_criterion_10_gauge_and_shift_closure(trb_corpus):
    rng = random.Random(10)
    ok = True
    gauged = 0
    shifted = 0
    for name, setup, t in trb_corpus:
        b = corpus._first_admissible_cocycle(setup, t)
        if b is not None:
            t_b = gauge_transform(setup, t, b)  # asserts transport internally
            ok = ok and check_trb(setup, t_b).ok
            gauged += 1
        for _ in range(10):
            h = corpus.random_matrix(rng, setup.module_dim, setup.dim, bound=1)
            perturbed = Matrix.identity(setup.module_dim) - h @ t
            if perturbed.rank() < setup.module_dim:
                continue
            new_setup, t_new = shift_by_coboundary(setup, t, h)
            ok = ok and check_trb(new_setup, t_new).ok
            shifted += 1
            break
    ok = ok and gauged >= 3 and shifted >= len(trb_corpus) - 1
    announce(10, f"gauge ({gauged}) and shift ({shifted}) closure", ok)
