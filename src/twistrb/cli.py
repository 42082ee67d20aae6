"""Command-line surface.

One instance document in, one deterministic report out.  Exit codes:
0 every check passed, 1 a mathematical check failed (the report names it),
2 invalid input or usage, 3 an internal consistency check failed (two routes
that must agree did not: a bug, reported as `internal error: ...` on stderr).
`--json` switches to a single machine-readable object; `--seed` is echoed in
the header so sweep scripts can cite it.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import deform as deform_mod
from . import linfty, nslie, tgcs
from .errors import InternalInconsistency, InvalidStructure, ToolkitError
from .exactlin import Matrix, scalar_str
from .instances import (
    InstanceDocument,
    MissingSection,
    cochain_json,
    load_instance,
    matrix_json,
    ns_json,
    parse_matrix,
    parse_vector,
    vector_json,
)
from .liealg import (
    LieAlgebra,
    Representation,
    Violation,
    ce_cohomology_dims,
    is_two_cocycle,
    validate_lie,
    validate_rep,
)
from .multilin import Cochain
from .operators import (
    TrbSetup,
    check_trb,
    gauge_transform,
    r_matrix_check,
    reynolds_check,
    reynolds_from_derivation,
    shift_by_coboundary,
    witt_report,
)
from .report import CheckReport, EquationReport


class MathFailure(Exception):
    """A mathematical check failed; exit code 1 with a named report."""

    def __init__(self, name: str, witnesses: list[str]):
        super().__init__(name)
        self.name = name
        self.witnesses = witnesses


def _witness(v: Violation | None) -> list[str]:
    return [] if v is None else [v.describe()]


def _need_pass(name: str, report: CheckReport) -> None:
    if not report.ok:
        raise MathFailure(name, _witness(report.violation))


def _algebra(doc: InstanceDocument) -> LieAlgebra:
    doc.require("lie_algebra")
    out = validate_lie(doc.lie_dim, doc.brackets or {})
    if isinstance(out, Violation):
        raise MathFailure("lie_algebra", [out.describe()])
    return out


def _representation(doc: InstanceDocument, algebra: LieAlgebra) -> Representation:
    doc.require("representation")
    out = validate_rep(algebra, doc.module_dim, doc.action)
    if isinstance(out, Violation):
        raise MathFailure("representation", [out.describe()])
    return out


def _setup(doc: InstanceDocument) -> TrbSetup:
    """The setup, each axiom checked once; the parser already matched the shapes."""
    algebra = _algebra(doc)
    rep = _representation(doc, algebra)
    h = doc.cocycle_h
    if h is None:
        h = Cochain.zero(2, algebra.dim, rep.module_dim)
    _need_pass("cocycle_H", is_two_cocycle(algebra, rep, h))
    return TrbSetup(algebra, rep, h)


def _operator(doc: InstanceDocument):
    doc.require("operator_T")
    return doc.operator_t


def _passing_operator(doc: InstanceDocument) -> tuple[TrbSetup, Matrix]:
    """The setup and the operator, which must pass the twisted Rota-Baxter identity."""
    setup, t = _setup(doc), _operator(doc)
    _need_pass("twisted Rota-Baxter identity", check_trb(setup, t))
    return setup, t


def _equation_lines(report: EquationReport) -> tuple[list[str], list[str]]:
    lines, witnesses = [], []
    for name, rep in report.equations:
        lines.append(f"{name}: {'pass' if rep.ok else 'FAIL'}")
        if not rep.ok and rep.violation is not None:
            witnesses.append(rep.violation.describe())
    return lines, witnesses


# -- command handlers ------------------------------------------------------
# each returns (verdict_ok, payload dict, human lines)


def cmd_validate(doc: InstanceDocument, args) -> tuple[bool, dict, list[str]]:
    results: dict[str, bool] = {}
    witnesses: list[str] = []

    def record(name: str, violation: Violation | None) -> bool:
        results[name] = violation is None
        witnesses.extend(_witness(violation))
        return violation is None

    if doc.lie_dim is not None:
        out = validate_lie(doc.lie_dim, doc.brackets or {})
        if record("lie_algebra", out if isinstance(out, Violation) else None) and doc.action is not None:
            rep = validate_rep(out, doc.module_dim, doc.action)
            if record("representation", rep if isinstance(rep, Violation) else None) and doc.cocycle_h is not None:
                record("cocycle_H", is_two_cocycle(out, rep, doc.cocycle_h).violation)
    for name, section, check in (("ns_lie", doc.ns, nslie.ns_check), ("assoc_ns", doc.assoc, nslie.assoc_ns_check)):
        if section is not None:
            report = check(section)
            results[name] = report.ok
            witnesses.extend(_equation_lines(report)[1])
    if not results:
        raise MissingSection("nothing to validate: no recognized sections present")
    lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in results.items()]
    return all(results.values()), {"sections": results, "witnesses": witnesses}, lines + witnesses


def cmd_ce_cohomology(doc, args):
    algebra = _algebra(doc)
    rep = _representation(doc, algebra)
    dims = ce_cohomology_dims(algebra, rep, args.nmax)
    lines = [f"H^{n} dimension: {d}" for n, d in enumerate(dims)]
    return True, {"dimensions": dims}, lines


def cmd_check_trb(doc, args):
    setup = _setup(doc)
    t = _operator(doc)
    rep = check_trb(setup, t)
    lines = [f"twisted Rota-Baxter identity: {'pass' if rep.ok else 'FAIL'}"]
    return rep.ok, {"witnesses": _witness(rep.violation)}, lines + _witness(rep.violation)


def cmd_check_mc(doc, args):
    setup = _setup(doc)
    t = _operator(doc)
    defect, direct = linfty.mc_defect(setup, t)
    ok = defect.is_zero()
    lines = [
        f"Maurer-Cartan defect zero: {'pass' if ok else 'FAIL'}",
        f"direct identity agrees: {'pass' if direct.ok == ok else 'FAIL'}",
    ]
    return ok, {"maurer_cartan": ok, "direct": direct.ok, "witnesses": _witness(direct.violation)}, lines


def cmd_cohomology_of_t(doc, args):
    setup, t = _passing_operator(doc)
    dims = linfty.cohomology_of_t_dims(setup, t, args.nmax)
    lines = [f"H^{n}_T dimension: {d}" for n, d in enumerate(dims)]
    return True, {"dimensions": dims}, lines


def cmd_check_reynolds(doc, args):
    algebra = _algebra(doc)
    doc.require("operator_T")
    r = doc.operator_t
    if r.rows != algebra.dim or r.cols != algebra.dim:
        raise InvalidStructure("Reynolds operator must be square of the algebra dimension")
    rep = reynolds_check(algebra, r)
    lines = [f"Reynolds identity: {'pass' if rep.ok else 'FAIL'}"]
    return rep.ok, {"witnesses": _witness(rep.violation)}, lines + _witness(rep.violation)


def cmd_reynolds_from_derivation(doc, args):
    algebra = _algebra(doc)
    doc.require("derivation_d")
    r = reynolds_from_derivation(algebra, doc.derivation_d)
    lines = ["Reynolds operator from the derivation series:"]
    lines += ["  " + " ".join(row) for row in matrix_json(r)]
    lines.append("Reynolds identity: pass")
    return True, {"operator": matrix_json(r)}, lines


def cmd_witt_report(doc, args):
    rows = witt_report(args.nmax)
    all_ok = all(r.ok for r in rows)
    lines = ["m n lhs rhs induced ok"]
    for r in rows:
        lines.append(
            f"{r.m} {r.n} {scalar_str(r.lhs)} {scalar_str(r.rhs)} "
            f"{scalar_str(r.induced)} {'yes' if r.ok else 'NO'}"
        )
    lines.append(f"rows: {len(rows)}  all pass: {'yes' if all_ok else 'NO'}")
    payload = {
        "rows": [
            {
                "m": r.m,
                "n": r.n,
                "lhs": scalar_str(r.lhs),
                "rhs": scalar_str(r.rhs),
                "induced": scalar_str(r.induced),
                "ok": r.ok,
            }
            for r in rows
        ]
    }
    return all_ok, payload, lines


def cmd_check_r_matrix(doc, args):
    algebra = _algebra(doc)
    doc.require("operator_T")
    psi = doc.psi if doc.psi is not None else Cochain.zero(3, algebra.dim, 1)
    verdict, dual = r_matrix_check(algebra, doc.operator_t, psi)
    lines = [f"twisted triangular r-matrix: {'pass' if verdict.ok else 'FAIL'}"]
    payload: dict[str, Any] = {"witnesses": _witness(verdict.violation)}
    if dual is not None:
        payload["dual_bracket"] = cochain_json(dual.bracket)
        lines.append("dual bracket computed; r is a morphism onto it")
    return verdict.ok, payload, lines + _witness(verdict.violation)


def cmd_check_ns(doc, args):
    doc.require("ns_lie")
    rep = nslie.ns_check(doc.ns)
    lines, witnesses = _equation_lines(rep)
    return rep.ok, {"equations": rep.verdicts(), "witnesses": witnesses}, lines + witnesses


def cmd_ns_from(doc, args):
    if args.source == "nijenhuis":
        algebra = _algebra(doc)
        doc.require("operator_N")
        ns = nslie.ns_from_nijenhuis(algebra, doc.operator_n)
    elif args.source == "assoc":
        doc.require("assoc_ns")
        ns = nslie.ns_from_assoc(doc.assoc)
    else:
        setup = _setup(doc)
        t = _operator(doc)
        ns = nslie.ns_from_trb(setup, t)
    payload = {"ns_lie": ns_json(ns)}
    lines = ["constructed NS-Lie structure:", json.dumps(payload["ns_lie"], sort_keys=True)]
    lines.append("ns_check: pass")
    return True, payload, lines


def cmd_trb_from_ns(doc, args):
    doc.require("ns_lie")
    setup, ident = nslie.trb_from_ns(doc.ns)
    payload = {
        "adjacent_bracket": cochain_json(setup.algebra.bracket),
        "cocycle_H": cochain_json(setup.cocycle),
        "operator": matrix_json(ident),
    }
    lines = [
        "adjacent Lie algebra bracket: " + json.dumps(payload["adjacent_bracket"], sort_keys=True),
        "twist: " + json.dumps(payload["cocycle_H"], sort_keys=True),
        "identity operator passes: pass",
    ]
    return True, payload, lines


def cmd_deform_check(doc, args):
    setup = _setup(doc)
    t = _operator(doc)
    doc.require("deformation")
    _need_pass("twisted Rota-Baxter identity (base)", check_trb(setup, t))
    # the coefficients were shape-checked on parsing
    d = deform_mod.FormalDeformation(setup, t, doc.deformation)
    defects = deform_mod.deformation_equation_defects(d, up_to=args.order)
    verdicts = [dd.is_zero() for dd in defects]
    lines = [f"order {n+1} defect zero: {'pass' if v else 'FAIL'}" for n, v in enumerate(verdicts)]
    ok = all(verdicts)
    return ok, {"orders": verdicts}, lines


def cmd_nijenhuis_element(doc, args):
    setup, t = _passing_operator(doc)
    x = parse_vector([p.strip() for p in args.x.split(",")], setup.dim, "--x")
    rep = deform_mod.nijenhuis_element_check(setup, t, x)
    lines, witnesses = _equation_lines(rep)
    return rep.ok, {"equations": rep.verdicts(), "witnesses": witnesses}, lines + witnesses


def cmd_rigidity_probe(doc, args):
    setup, t = _passing_operator(doc)
    report = deform_mod.rigidity_probe(setup, t, grid=args.grid)
    lines = [f"verdict: {report.verdict}"]
    for k, probe in enumerate(report.probes):
        status = "nijenhuis preimage found" if probe.nijenhuis else "no verified preimage"
        lines.append(f"cocycle {k + 1}: {status}")
    payload = {
        "verdict": report.verdict,
        "probes": [
            {
                "cocycle": vector_json(p.cocycle),
                "preimage": None if p.preimage is None else vector_json(p.preimage),
                "nijenhuis": p.nijenhuis,
            }
            for p in report.probes
        ],
    }
    return report.established, payload, lines


def cmd_check_tgcs(doc, args):
    setup = _setup(doc)
    doc.require("gcs_components")
    j = tgcs.gcs_components(setup, *doc.gcs)
    # the components report is cross-checked against the direct definition,
    # so its verdict is the direct verdict too
    components = tgcs.tgcs_check_components(setup, j)
    ok = components.ok
    lines, witnesses = _equation_lines(components)
    lines.append(f"direct definition: {'pass' if ok else 'FAIL'}")
    return ok, {"equations": components.verdicts(), "direct": ok, "witnesses": witnesses}, lines + witnesses


def cmd_lie_tgcs(doc, args):
    algebra = _algebra(doc)
    doc.require("lie_gcs")
    psi = doc.psi if doc.psi is not None else Cochain.zero(3, algebra.dim, 1)
    rep = tgcs.lie_tgcs_check(algebra, psi, doc.lie_gcs)
    lines, witnesses = _equation_lines(rep)
    return rep.ok, {"equations": rep.verdicts(), "witnesses": witnesses}, lines + witnesses


def cmd_gauge(doc, args):
    setup, t = _passing_operator(doc)
    b = _parse_matrix_flag(args.b, setup.module_dim, setup.dim, "--b")
    t_b = gauge_transform(setup, t, b)
    lines = ["gauge transform:"]
    lines += ["  " + " ".join(row) for row in matrix_json(t_b)]
    lines.append("transformed operator passes: pass")
    return True, {"operator": matrix_json(t_b)}, lines


def cmd_shift(doc, args):
    setup, t = _passing_operator(doc)
    h = _parse_matrix_flag(args.h, setup.module_dim, setup.dim, "--h")
    shifted, t_new = shift_by_coboundary(setup, t, h)
    lines = ["shifted twist: " + json.dumps(cochain_json(shifted.cocycle), sort_keys=True)]
    lines += ["shifted operator:"]
    lines += ["  " + " ".join(row) for row in matrix_json(t_new)]
    lines.append("shifted operator passes: pass")
    return True, {"cocycle_H": cochain_json(shifted.cocycle), "operator": matrix_json(t_new)}, lines


def _parse_matrix_flag(text: str, rows: int, cols: int, flag: str) -> Matrix:
    """Inline JSON rows, or a path to a JSON file holding them."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidStructure(f"{flag}: neither inline JSON nor a readable JSON file ({exc})")
    return parse_matrix(raw, rows, cols, flag)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistrb",
        description="Exact verification toolkit for twisted Rota-Baxter operators on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = ("input", dict(help="instance JSON file"))

    def add(name: str, handler, *positionals, **flags):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for dest, kwargs in positionals:
            p.add_argument(dest, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0, help="echoed in the report header")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)

    nmax = dict(type=_int_at_least(0), default=2)
    matrix = dict(required=True, help="matrix as inline JSON or a file path")
    add("validate", cmd_validate, instance)
    add("ce-cohomology", cmd_ce_cohomology, instance, **{"--nmax": nmax})
    add("check-trb", cmd_check_trb, instance)
    add("check-mc", cmd_check_mc, instance)
    add("cohomology-of-t", cmd_cohomology_of_t, instance, **{"--nmax": nmax})
    add("check-reynolds", cmd_check_reynolds, instance)
    add("reynolds-from-derivation", cmd_reynolds_from_derivation, instance)
    add("witt-report", cmd_witt_report, **{"--nmax": dict(type=_int_at_least(0), default=10)})
    add("check-r-matrix", cmd_check_r_matrix, instance)
    add("check-ns", cmd_check_ns, instance)
    add("ns-from", cmd_ns_from, ("source", dict(choices=["nijenhuis", "assoc", "trb"])), instance)
    add("trb-from-ns", cmd_trb_from_ns, instance)
    add("deform-check", cmd_deform_check, instance, **{"--order": dict(type=_int_at_least(1), default=None)})
    add("nijenhuis-element", cmd_nijenhuis_element, instance, **{"--x": dict(required=True, help="comma-separated rationals")})
    add("rigidity-probe", cmd_rigidity_probe, instance, **{"--grid": dict(type=_int_at_least(0), default=2)})
    add("check-tgcs", cmd_check_tgcs, instance)
    add("lie-tgcs", cmd_lie_tgcs, instance)
    add("gauge", cmd_gauge, instance, **{"--b": matrix})
    add("shift", cmd_shift, instance, **{"--h": matrix})
    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on the first call and kept for the process.

    Parsing leaves no state on the parser: each call gets a fresh namespace
    filled from the declared defaults.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        doc = load_instance(args.input) if "input" in args else InstanceDocument()
        ok, payload, lines = args.handler(doc, args)
        verdict = "pass" if ok else "fail"
        exit_code = 0 if ok else 1
    except (MissingSection,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathFailure as exc:
        _emit(args, "fail", {"failed_check": exc.name, "witnesses": exc.witnesses},
              [f"{exc.name}: FAIL"] + exc.witnesses)
        return 1
    except InvalidStructure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        _emit(args, "fail", {"failed_check": type(exc).__name__, "witnesses": [str(exc)]},
              [f"{type(exc).__name__}: {exc}"])
        return 1
    _emit(args, verdict, payload, lines)
    return exit_code


def _emit(args, verdict: str, payload: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        out = {
            "command": args.command,
            "seed": args.seed,
            "verdict": verdict,
        }
        out.update(payload)
        print(json.dumps(out, sort_keys=True, default=str))
    else:
        print(f"command: {args.command}")
        print(f"seed: {args.seed}")
        print(f"verdict: {verdict}")
        for line in lines:
            print(line)


if __name__ == "__main__":
    sys.exit(main())
