"""Seeded instance families and the job list of each workload.

The library builds every instance (the constructions are what a user would
call), the files are written through the public `twistrb.instances`
serializers, and every generated operator is confirmed at generation time by
`check_trb` and by the independent graph-closure oracle
`graph_subalgebra_check`.  The expected answer of each job comes from
`oracle.py`, the construction, or graph closure, never from the command
being timed.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from twistrb import corpus
from twistrb.exactlin import Matrix
from twistrb.instances import cochain_json, load_instance, matrix_json
from twistrb.liealg import (
    Representation,
    ce_differential_cochain,
    abelian,
    adjoint_rep,
    ce_cohomology_representatives,
    coadjoint_rep,
    lie_algebra,
    lie_algebra_from_cochain,
    trivial_rep,
    validate_lie,
    validate_rep,
)
from twistrb.multilin import Cochain
from twistrb.operators import (
    TrbSetup,
    check_trb,
    graph_subalgebra_check,
    induced_action_matrices,
    induced_bracket_cochain,
    psi_sharp,
    reynolds_from_derivation,
    reynolds_setup,
    setup_from_invertible_cochain,
    trb_setup,
)

import oracle

Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    """One closed-loop request: a CLI argv (or a library call) and its gate."""

    name: str
    command: str
    argv: list[str] | None
    check: Check
    call: Callable[[], int] | None = None


# -- algebras ---------------------------------------------------------------


def heisenberg(k: int):
    """h_{2k+1}: [x_i, y_i] = z with basis x_1..x_k, y_1..y_k, z."""
    n = 2 * k + 1
    z = tuple(int(j == n - 1) for j in range(n))
    return lie_algebra(n, {(i, k + i): z for i in range(k)})


def affine_sum(copies: int):
    """Direct sum of affine lines: [a_i, b_i] = b_i."""
    n = 2 * copies
    table = {(2 * i, 2 * i + 1): tuple(int(j == 2 * i + 1) for j in range(n)) for i in range(copies)}
    return lie_algebra(n, table)


ALGEBRAS = {
    "affine": lambda: affine_sum(1),
    "abelian2": lambda: abelian(2),
    "heis3": lambda: heisenberg(1),
    "sl2": corpus.sl2,
    "abelian3": lambda: abelian(3),
    "affine2x": lambda: affine_sum(2),
    "abelian4": lambda: abelian(4),
    "heis5": lambda: heisenberg(2),
}
NONABELIAN = ("affine", "heis3", "sl2", "affine2x", "heis5")
MODULES = {
    "adjoint": adjoint_rep,
    "coadjoint": coadjoint_rep,
    "trivial": lambda g: trivial_rep(g, g.dim),
}


class Source(random.Random):
    """Seeded choices, plus the algebras, modules and setups built so far in this build."""

    def __init__(self, seed: str):
        super().__init__(seed)
        self._built: dict = {}

    def _once(self, key, make):
        if key not in self._built:
            self._built[key] = make()
        return self._built[key]

    def algebra(self, name: str):
        return self._once(name, ALGEBRAS[name])

    def frame(self, name: str, module: str):
        """The algebra and one of its modules, validated once."""
        g = self.algebra(name)
        return g, self._once((name, module), lambda: trb_setup(g, MODULES[module](g)).rep)

    def reynolds_setup(self, name: str):
        return self._once((name, "reynolds"), lambda: reynolds_setup(self.algebra(name)))


# -- documents ----------------------------------------------------------------


def setup_doc(setup, t: Matrix | None = None) -> dict:
    doc = {
        "lie_algebra": {"dim": setup.dim, "brackets": cochain_json(setup.algebra.bracket)["values"]},
        "representation": {"module_dim": setup.module_dim, "action": [matrix_json(a) for a in setup.rep.action]},
        "cocycle_H": cochain_json(setup.cocycle),
    }
    if t is not None:
        doc["operator_T"] = matrix_json(t)
    return doc


def induced_doc(setup, t: Matrix) -> dict:
    """The induced Lie algebra (M, [.,.]_T) acting on g, as an instance."""
    algebra = lie_algebra_from_cochain(induced_bracket_cochain(setup, t))
    rep = validate_rep(algebra, setup.dim, induced_action_matrices(setup, t))
    if not isinstance(rep, Representation):
        raise RuntimeError("induced action is not a representation")
    return {
        "lie_algebra": {"dim": algebra.dim, "brackets": cochain_json(algebra.bracket)["values"]},
        "representation": {"module_dim": rep.module_dim, "action": [matrix_json(a) for a in rep.action]},
    }


def confirmed(setup, t: Matrix) -> bool:
    """check_trb verdict, required to agree with graph closure."""
    direct = check_trb(setup, t).ok
    if direct != graph_subalgebra_check(setup, t):
        raise RuntimeError("check_trb and graph closure disagree on a generated operator")
    return direct


def perturb(rng: Source, m: Matrix) -> Matrix:
    """The same matrix with one entry moved by +-1."""
    rows = m.row_list()
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[i][j] += rng.choice((1, -1))
    return Matrix.from_rows(rows)


def skew_perturb(rng: Source, m: Matrix) -> Matrix:
    rows = m.row_list()
    i, j = rng.sample(range(m.rows), 2)
    rows[i][j] += 1
    rows[j][i] -= 1
    return Matrix.from_rows(rows)


def unit_triangular(rng: Source, n: int) -> Matrix:
    return Matrix.from_rows(
        [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    )


class Writer:
    """Writes instance documents into one directory, numbered in order."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.count = 0

    def write(self, tag: str, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"{self.count:04d}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path


# -- output gates -----------------------------------------------------------------


def gate(expected_code: int, inspect: Callable[[dict], "str | None"] | None = None) -> Check:
    def check(code: int, out: str):
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        try:
            data = json.loads(out)
        except json.JSONDecodeError:
            return "output is not one JSON object"
        want = "pass" if expected_code == 0 else "fail"
        if data.get("verdict") != want:
            return f"verdict {data.get('verdict')!r}, expected {want!r}"
        return inspect(data) if inspect else None

    return check


def trb_witness(doc: dict):
    """Gate detail for a failing check-trb: the oracle's first violation."""
    (i, j), defect = oracle.first_trb_violation(oracle.Setup(doc), oracle.matrix(doc["operator_T"]))
    want = f"twisted Rota-Baxter fails at ({i},{j}): defect ({', '.join(str(c) for c in defect)})"

    def inspect(data):
        return None if data.get("witnesses") == [want] else f"witness {data.get('witnesses')}, expected [{want!r}]"

    return inspect


def dims_gate(expected: list[int]) -> Check:
    return gate(0, lambda d: None if d.get("dimensions") == expected else f"dimensions {d.get('dimensions')}, expected {expected}")


# -- cohomology-ladder ----------------------------------------------------------


def heisenberg_signs(rng: Source, k: int) -> Matrix:
    """A seeded diagonal automorphism of h_{2k+1}: signs with e(x_i) e(y_i) = e(z)."""
    ez = rng.choice((1, -1))
    ex = [rng.choice((1, -1)) for _ in range(k)]
    diag = ex + [ez * e for e in ex] + [ez]
    return Matrix.from_rows([[diag[i] if i == j else 0 for j in range(2 * k + 1)] for i in range(2 * k + 1)])


def sparse_operator(rng: Source, k: int):
    """Reynolds operator of a nilpotent derivation of h_{2k+1}.

    d(x_i) = y_i + z, d(y_i) = z is a derivation with d^3 = 0; the seed
    conjugates it by a diagonal automorphism (see `dense_operator`).
    """
    g = heisenberg(k)
    n = 2 * k + 1
    d = [[0] * n for _ in range(n)]
    for i in range(k):
        d[k + i][i] = d[n - 1][i] = d[n - 1][k + i] = 1
    s = heisenberg_signs(rng, k)
    return reynolds_setup(g), reynolds_from_derivation(g, s @ Matrix.from_rows(d) @ s)


DENSE_BASE = "b1"  # seeds the one draw of h0 that every benchmark seed shares


def dense_operator(rng: Source, k: int):
    """T = h^{-1} for a unit upper-triangular h, twist H = -delta h.

    h is s h0 s for one fixed h0 and a seeded sign automorphism s, so every
    seed gives an isomorphic instance whose matrices differ only in signs:
    the same work for every seed, so the spread of the timings measures the
    machine rather than the draw.
    """
    g = heisenberg(k)
    s = heisenberg_signs(rng, k)
    h0 = unit_triangular(Source(DENSE_BASE), 2 * k + 1)
    return setup_from_invertible_cochain(g, adjoint_rep(g), s @ h0 @ s)


def ladder_instance(w: Writer, tag: str, setup, t):
    if not confirmed(setup, t):
        raise RuntimeError(f"{tag}: generated operator fails")
    doc = setup_doc(setup, t)
    return doc, w.write(tag, doc)


def expected_dims(doc: dict, n_max: int) -> list[int]:
    """The paper's identification: H_T = CE cohomology of (M,[.,.]_T) on g."""
    s = oracle.Setup(doc)
    return oracle.ce_dims(oracle.induced(s, oracle.matrix(doc["operator_T"])), n_max)


def cohomology_ladder(rng: Source, w: Writer):
    jobs = []
    for tag, make, k, command in (
        ("h3_sparse", sparse_operator, 1, "cohomology-of-t"),
        ("h5_dense", dense_operator, 2, "cohomology-of-t"),
        ("h7_sparse", sparse_operator, 3, "ce-cohomology"),
        ("h7_dense", dense_operator, 3, "ce-cohomology"),
    ):
        setup, t = make(rng, k)
        doc, path = ladder_instance(w, tag, setup, t)
        if command == "ce-cohomology":
            path = w.write(tag + "-induced", induced_doc(setup, t))
        prefix = "cohom_t" if command == "cohomology-of-t" else "ce"
        jobs.append(Job(f"{prefix}.{tag}", command, [command, path, "--nmax", "2", "--json"], dims_gate(expected_dims(doc, 2))))
    return jobs, jobs[:1]


# -- verify-sweep ------------------------------------------------------------------

VERIFY_PER_COMMAND = 50


def trb_frame(rng: Source, i: int, names=tuple(ALGEBRAS), modules=tuple(MODULES)):
    """A passing (setup, T) with a seeded h over frame `i` of dimension 2..5.

    T = h^{-1} with twist H = -delta h.  Frames are taken in turn rather
    than drawn, so every seed has the same mix of dimensions and modules and
    the slowest jobs are the same kind.  The module is validated once per
    frame; each operator is confirmed by `confirmed` where a job uses it.
    """
    frames = [(n, m) for n in names for m in modules]
    name, module = frames[i % len(frames)]
    g, rep = rng.frame(name, module)
    h = unit_triangular(rng, g.dim)
    twist = -ce_differential_cochain(g.bracket, rep, Cochain.from_matrix_map(h))
    return name, TrbSetup(g, rep, twist), h.invert()


def candidate(rng: Source, setup, t: Matrix, want_pass: bool):
    """The passing operator, or a one-entry perturbation and its true verdict."""
    if want_pass:
        if not confirmed(setup, t):
            raise RuntimeError("constructed operator fails")
        return t, True
    bad = perturb(rng, t)
    return bad, confirmed(setup, bad)


def job_check_trb(rng, w, i, want_pass):
    name, setup, t = trb_frame(rng, i)
    op, ok = candidate(rng, setup, t, want_pass)
    doc = setup_doc(setup, op)
    path = w.write(f"trb-{name}", doc)
    check = gate(0) if ok else gate(1, trb_witness(doc))
    return Job(f"check-trb.{i}", "check-trb", ["check-trb", path, "--json"], check)


def job_check_mc(rng, w, i, want_pass):
    name, setup, t = trb_frame(rng, i)
    op, ok = candidate(rng, setup, t, want_pass)
    path = w.write(f"mc-{name}", setup_doc(setup, op))

    def inspect(d):
        return None if d.get("maurer_cartan") is ok and d.get("direct") is ok else "Maurer-Cartan and direct verdicts"

    return Job(f"check-mc.{i}", "check-mc", ["check-mc", path, "--json"], gate(0 if ok else 1, inspect))


def job_ns_from_trb(rng, w, i, want_pass):
    name, setup, t = trb_frame(rng, i)
    op, ok = candidate(rng, setup, t, want_pass)
    doc = setup_doc(setup, op)
    path = w.write(f"ns-{name}", doc)
    argv = ["ns-from", "trb", path, "--json"]
    if not ok:
        return Job(f"ns-from-trb.{i}", "ns-from", argv, gate(1, lambda d: None if d.get("failed_check") == "NotTwistedRB" else "failed_check"))
    circ, vee = oracle.ns_from_trb(oracle.Setup(doc), oracle.matrix(doc["operator_T"]))

    def nonzero(table):
        return {f"[{a},{b}]": [Fraction(x) for x in v] for (a, b), v in table.items() if any(v)}

    want = (nonzero(circ), nonzero(vee))

    def inspect(d):
        got = d["ns_lie"]
        parsed = tuple({k: [Fraction(x) for x in v] for k, v in got[part].items()} for part in ("circ", "vee"))
        return None if parsed == want and got["dim"] == setup.module_dim else "NS-Lie structure differs from u.v = T(u).v, H(Tu,Tv)"

    return Job(f"ns-from-trb.{i}", "ns-from", argv, gate(0, inspect))


def job_validate(rng, w, i, want_pass):
    name, setup, _ = trb_frame(rng, i)
    doc = setup_doc(setup)
    if not want_pass:
        n, m = setup.dim, setup.module_dim
        a, b = sorted(rng.sample(range(n), 2))
        key = f"[{a + 1},{b + 1}]"
        vals = doc["cocycle_H"]["values"]
        vec = [Fraction(x) for x in vals.get(key, ["0"] * m)]
        vec[rng.randrange(m)] += rng.choice((1, -1))
        vals[key] = [str(x) for x in vec]
    s = oracle.Structure.from_document(doc)
    rows, _ = oracle.ce_matrix(s, 2)
    h = oracle.flatten(oracle.table(doc["cocycle_H"]["values"]), setup.dim, 2, setup.module_dim)
    closed = not any(oracle.apply_rows(rows, h))
    path = w.write(f"validate-{name}", doc)
    want = {"lie_algebra": True, "representation": True, "cocycle_H": closed}
    check = gate(0 if closed else 1, lambda d: None if d.get("sections") == want else f"sections {d.get('sections')}")
    return Job(f"validate.{i}", "validate", ["validate", path, "--json"], check)


def reynolds_frame(rng: Source, i: int):
    """A Lie algebra with a seeded nilpotent inner derivation."""
    name = NONABELIAN[i % len(NONABELIAN)]
    g = rng.algebra(name)
    n = g.dim
    if name == "affine":
        x = (0, rng.choice((1, -1, 2)))
    elif name == "sl2":
        x = (rng.choice((1, -1, 2)), 0, 0)
    elif name == "affine2x":
        x = (0, rng.choice((1, -1)), 0, rng.choice((1, -1)))
    else:
        x = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
    d = Matrix.zero(n, n)
    for k, c in enumerate(x):
        if c:
            d = d + g.ad(k).scale(c)
    return name, g, reynolds_from_derivation(g, d)


def job_check_reynolds(rng, w, i, want_pass):
    name, g, r = reynolds_frame(rng, i)
    op = r if want_pass else perturb(rng, r)
    ok = confirmed(rng.reynolds_setup(name), op)
    if want_pass and not ok:
        raise RuntimeError("constructed Reynolds operator fails")
    doc = {"lie_algebra": {"dim": g.dim, "brackets": cochain_json(g.bracket)["values"]}, "operator_T": matrix_json(op)}
    path = w.write(f"reynolds-{name}", doc)
    return Job(f"check-reynolds.{i}", "check-reynolds", ["check-reynolds", path, "--json"], gate(0 if ok else 1))


def r_matrix_frame(rng: Source, i: int):
    """A skew r passing by construction, with its scalar 3-cocycle psi.

    On h_{2k+1}, r in wedge^2 of the abelian span{x_i, z} solves the
    classical Yang-Baxter equation; on an abelian algebra, r = a ^ b passes
    for every psi because r(psi(ra, rb, .)) = 0.
    """
    kind = ("heis3", "heis5", "abelian3", "abelian4")[i % 4]
    g = rng.algebra(kind)
    n = g.dim
    psi = Cochain.zero(3, n, 1)
    if kind.startswith("heis"):
        k = (n - 1) // 2
        span = list(range(k)) + [n - 1]
        r = [[0] * n for _ in range(n)]
        for p, q in itertools.combinations(span, 2):
            c = rng.choice((-1, 0, 1, 2))
            r[p][q] += c
            r[q][p] -= c
    else:
        a = [rng.choice((-1, 0, 1)) for _ in range(n)]
        b = [rng.choice((-1, 0, 1, 2)) for _ in range(n)]
        r = [[a[p] * b[q] - b[p] * a[q] for q in range(n)] for p in range(n)]
        values = {t: (rng.choice((-1, 1, 2)),) for t in itertools.combinations(range(n), 3) if rng.random() < 0.6}
        psi = Cochain.from_values(3, n, 1, values)
    return kind, g, Matrix.from_rows(r), psi


def job_check_r_matrix(rng, w, i, want_pass):
    name, g, r, psi = r_matrix_frame(rng, i)
    op = r if want_pass else skew_perturb(rng, r)
    dual = rng.frame(name, "coadjoint")[1]
    ok = confirmed(TrbSetup(g, dual, psi_sharp(g, psi)), op)
    if want_pass and not ok:
        raise RuntimeError("constructed r-matrix fails")
    doc = {
        "lie_algebra": {"dim": g.dim, "brackets": cochain_json(g.bracket)["values"]},
        "operator_T": matrix_json(op),
        "psi": cochain_json(psi),
    }
    path = w.write(f"rmatrix-{name}", doc)
    return Job(f"check-r-matrix.{i}", "check-r-matrix", ["check-r-matrix", path, "--json"], gate(0 if ok else 1))


def tgcs_frame(rng: Source, i: int):
    """An untwisted setup with an invertible operator.

    Abelian algebras with the trivial module take any invertible T; on
    h_{2k+1}, T = D^{-1} for an invertible diagonal derivation D.  The check
    works on g (+) M, twice the dimension, so frames stay at dimension <= 3
    to keep these jobs as small as the other commands'.
    """
    name = ("abelian2", "abelian3", "heis3")[i % 3]
    g = rng.algebra(name)
    n = g.dim
    if name.startswith("abelian"):
        setup = TrbSetup(g, rng.frame(name, "trivial")[1], Cochain.zero(2, n, n))
        t = unit_triangular(rng, n)
        if rng.random() < 0.5:
            t = t.transpose()
    else:
        k = (n - 1) // 2
        c = 2
        a = [rng.choice((1, 3, -1)) for _ in range(k)]
        diag = a + [c - x for x in a] + [c]
        setup = TrbSetup(g, rng.frame(name, "adjoint")[1], Cochain.zero(2, n, n))
        t = Matrix.from_rows([[Fraction(1, diag[p]) if p == q else 0 for q in range(n)] for p in range(n)])
    return name, setup, t


def job_check_tgcs(rng, w, i, want_pass):
    name, setup, t = tgcs_frame(rng, i)
    if not confirmed(setup, t):
        raise RuntimeError("constructed operator fails")
    zero = Matrix.zero(setup.dim, setup.dim)
    comp = {"N": zero, "T": t, "sigma": -t.invert(), "S": zero}  # J = [[0, T], [-T^-1, 0]]
    doc = setup_doc(setup)
    while True:
        parts = dict(comp)
        if not want_pass:
            key = rng.choice(("N", "sigma", "S"))
            parts[key] = perturb(rng, parts[key])
        doc["gcs_components"] = {k: matrix_json(v) for k, v in parts.items()}
        square = oracle.gcs_square_is_minus_id(doc)
        if square == want_pass:
            break
    path = w.write(f"tgcs-{name}", doc)
    return Job(f"check-tgcs.{i}", "check-tgcs", ["check-tgcs", path, "--json"], gate(0 if want_pass else 1))


VERIFY_COMMANDS = (
    job_check_trb,
    job_check_mc,
    job_check_reynolds,
    job_check_r_matrix,
    job_check_tgcs,
    job_validate,
    job_ns_from_trb,
)


def verify_sweep(rng: Source, w: Writer):
    jobs = []
    for i in range(VERIFY_PER_COMMAND):
        for make in VERIFY_COMMANDS:
            jobs.append(make(rng, w, i, want_pass=(i % 2 == 0)))
    rng.shuffle(jobs)
    warm, seen = [], set()
    for job in jobs:
        if job.command not in seen:
            seen.add(job.command)
            warm.append(job)
    return jobs, warm


# -- deform-probe -------------------------------------------------------------------

DEFORM_PER_KIND = 88


def rigidity_gate(doc: dict) -> Check:
    """Exit code matches the verdict; every preimage x satisfies d0 x = f.

    d0 is the degree-0 differential of the induced structure (d_T = delta_CE
    in degree 0); the number of probed cocycles must be dim Z^1 and the
    cocycles must be closed and independent.
    """
    s = oracle.induced(oracle.Setup(doc), oracle.matrix(doc["operator_T"]))
    d0, _ = oracle.ce_matrix(s, 0)
    d1, cols1 = oracle.ce_matrix(s, 1)
    z1 = cols1 - oracle.rank(d1)

    def check(code: int, out: str):
        data = json.loads(out)
        established = data.get("verdict") == "sufficient condition established"
        if code != (0 if established else 1):
            return f"exit code {code} with verdict {data.get('verdict')!r}"
        probes = data.get("probes", [])
        if len(probes) != z1:
            return f"{len(probes)} cocycles probed, dim Z^1 = {z1}"
        cocycles = [[Fraction(x) for x in p["cocycle"]] for p in probes]
        if any(any(oracle.apply_rows(d1, f)) for f in cocycles):
            return "a probed cochain is not closed"
        if z1 and oracle.rank([{c: v for c, v in enumerate(f) if v} for f in cocycles]) != z1:
            return "probed cocycles are dependent"
        for p, f in zip(probes, cocycles):
            if (p["preimage"] is not None) != p["nijenhuis"]:
                return "preimage and nijenhuis flag disagree"
            if p["preimage"] is not None:
                x = [Fraction(v) for v in p["preimage"]]
                if oracle.apply_rows(d0, x) != f:
                    return "preimage x fails d0 x = f"
        if established != all(p["nijenhuis"] for p in probes):
            return "verdict disagrees with the probes"
        return None

    return check


def coboundary(setup, v) -> Matrix:
    """B = delta v, B(x) = x . v: a closed 1-cochain g -> M."""
    cols = [setup.rep.action[k].apply(v) for k in range(setup.dim)]
    return Matrix.from_cols(cols, rows=setup.module_dim)


def deform_frame(rng: Source, i: int):
    """A passing (setup, T) over frame `i` and a coboundary B with B.T != 0."""
    while True:
        name, setup, t = trb_frame(rng, i, NONABELIAN, ("adjoint", "coadjoint"))
        b = coboundary(setup, [rng.choice((-1, 0, 1)) for _ in range(setup.module_dim)])
        if not (b @ t).is_zero():
            if not confirmed(setup, t):
                raise RuntimeError("constructed operator fails")
            return name, setup, t, b


def job_deform_check(rng, w, i, want_pass):
    """T_s = T (id + sBT)^{-1} truncated at order k: a gauge family, so it passes unless perturbed."""
    name, setup, t, b = deform_frame(rng, i // 2)
    order = 2 + (i // 20) % 2
    bt = b @ t
    coeffs, power = [], Matrix.identity(setup.module_dim)
    for k in range(1, order + 1):
        power = power @ bt
        coeffs.append((t @ power).scale(-1 if k % 2 else 1))
    if not want_pass:
        coeffs[-1] = perturb(rng, coeffs[-1])
    doc = setup_doc(setup, t)
    doc["deformation"] = {"order": order, "coefficients": [matrix_json(c) for c in coeffs]}
    s = oracle.Setup(doc)
    orders = oracle.order_defects(s, [oracle.matrix(doc["operator_T"])] + [oracle.matrix(c) for c in doc["deformation"]["coefficients"]], order)
    if want_pass and not all(orders):
        raise RuntimeError("gauge family fails the deformation equations")
    path = w.write(f"deform-{name}", doc)
    ok = all(orders)
    check = gate(0 if ok else 1, lambda d: None if d.get("orders") == orders else f"orders {d.get('orders')}, expected {orders}")
    return Job(f"deform-check.{i}", "deform-check", ["deform-check", path, "--order", str(order), "--json"], check)


def job_gauge(rng, w, i):
    """Gauge transform by an admissible coboundary; gate: T_B (id + BT) = T and T_B passes."""
    while True:
        name, setup, t, b = deform_frame(rng, i)
        if (Matrix.identity(setup.module_dim) + b @ t).rank() == setup.module_dim:
            break
    doc = setup_doc(setup, t)
    path = w.write(f"gauge-{name}", doc)
    s = oracle.Setup(doc)
    t_raw, b_raw = oracle.matrix(doc["operator_T"]), oracle.matrix(matrix_json(b))
    bt = oracle.matmul(b_raw, t_raw)
    perturbed = [[bt[r][c] + (r == c) for c in range(len(bt))] for r in range(len(bt))]

    def inspect(d):
        t_b = oracle.matrix(d["operator"])
        if oracle.matmul(t_b, perturbed) != t_raw:
            return "T_B (id + BT) != T"
        if oracle.first_trb_violation(s, t_b) is not None:
            return "gauge-transformed operator fails the identity"
        return None

    argv = ["gauge", path, "--b", json.dumps(matrix_json(b)), "--json"]
    return Job(f"gauge.{i}", "gauge", argv, gate(0, inspect))


def reps_job(doc: dict, path: str) -> Job:
    """Library call: ce_cohomology_representatives(., ., 2) on an induced instance."""

    def call() -> int:
        inst = load_instance(path)
        algebra = validate_lie(inst.lie_dim, inst.brackets or {})
        rep = validate_rep(algebra, inst.module_dim, inst.action)
        reps = ce_cohomology_representatives(algebra, rep, 2)
        print(json.dumps({"representatives": [cochain_json(c) for c in reps]}, sort_keys=True))
        return 0

    s = oracle.Structure.from_document(doc)
    d1, _ = oracle.ce_matrix(s, 1)
    d2, _ = oracle.ce_matrix(s, 2)
    h2 = oracle.ce_dims(s, 2)[2]
    image: dict[int, dict] = {}  # columns of d1, i.e. rows of its transpose
    for r, row in enumerate(d1):
        for c, v in row.items():
            image.setdefault(c, {})[r] = v
    image_rows = list(image.values())
    image_rank = oracle.rank(image_rows)

    def check(code: int, out: str):
        if code != 0:
            return f"exit code {code}"
        reps = json.loads(out)["representatives"]
        if len(reps) != h2:
            return f"{len(reps)} representatives, dim H^2 = {h2}"
        vecs = [oracle.flatten(oracle.table(c["values"]), s.dim, 2, s.vdim) for c in reps]
        if any(any(oracle.apply_rows(d2, v)) for v in vecs):
            return "a representative is not closed"
        rows = image_rows + [{c: x for c, x in enumerate(v) if x} for v in vecs]
        if oracle.rank(rows) != image_rank + h2:
            return "representatives are dependent modulo coboundaries"
        return None

    return Job("reps.h5_dense", "ce_cohomology_representatives", None, check, call)


def deform_probe(rng: Source, w: Writer):
    jobs = []
    for name, setup, t in corpus.trb_instances():
        if not confirmed(setup, t):
            raise RuntimeError(f"corpus instance {name} fails")
        doc = setup_doc(setup, t)
        path = w.write(f"rigidity-{name}", doc)
        jobs.append(Job(f"rigidity.{name}", "rigidity-probe", ["rigidity-probe", path, "--grid", "2", "--json"], rigidity_gate(doc)))
    setup, t = dense_operator(rng, 2)
    doc, path = ladder_instance(w, "h5_dense", setup, t)
    jobs.append(Job("rigidity.h5_dense", "rigidity-probe", ["rigidity-probe", path, "--grid", "2", "--json"], rigidity_gate(doc)))
    ind = induced_doc(setup, t)
    jobs.append(reps_job(ind, w.write("h5_dense-induced", ind)))
    for i in range(DEFORM_PER_KIND):
        jobs.append(job_deform_check(rng, w, i, want_pass=(i % 2 == 0)))
        jobs.append(job_gauge(rng, w, i))
    warm = [jobs[0], jobs[-2], jobs[-1]]
    return jobs, warm


WORKLOADS = {
    "cohomology-ladder": cohomology_ladder,
    "verify-sweep": verify_sweep,
    "deform-probe": deform_probe,
}


def build(workload: str, seed: int, directory: str):
    """(jobs, warm-up jobs) for one workload; same seed, same files and jobs."""
    rng = Source(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Writer(directory))
