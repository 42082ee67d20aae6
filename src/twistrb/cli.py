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
from .errors import InternalInconsistency, InvalidStructure, NotCocycle, NotTwistedRB, ToolkitError
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
    unique_keys,
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
    _closed_setup,
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


def _witnesses(report: CheckReport | EquationReport) -> list[str]:
    """The witness of a failed check; for equations, those of the failed identities in order."""
    if isinstance(report, EquationReport):
        return [w for _, rep in report.equations for w in _witnesses(rep)]
    return [] if report.ok or report.violation is None else [report.violation.describe()]


def _need_pass(name: str, report: CheckReport) -> None:
    if not report.ok:
        raise MathFailure(name, _witnesses(report))


def _as_report(out) -> CheckReport:
    """A validator's result as a check: failed with its violation, or passed."""
    return CheckReport(False, out) if isinstance(out, Violation) else CheckReport(True)


def _valid(name: str, out):
    """A validator's structure, or a MathFailure naming the section and its violation."""
    _need_pass(name, _as_report(out))
    return out


def _algebra(doc: InstanceDocument) -> LieAlgebra:
    doc.require("lie_algebra")
    return _valid("lie_algebra", validate_lie(doc.lie_dim, doc.brackets or {}))


def _representation(doc: InstanceDocument, algebra: LieAlgebra) -> Representation:
    doc.require("representation")
    return _valid("representation", validate_rep(algebra, doc.module_dim, doc.action))


def _setup(doc: InstanceDocument) -> TrbSetup:
    """The setup, each axiom checked once; `operators._closed_setup` checks H (zero when absent)."""
    algebra = _algebra(doc)
    rep = _representation(doc, algebra)
    try:
        return _closed_setup(algebra, rep, doc.cocycle_h)
    except NotCocycle as exc:
        raise MathFailure("cocycle_H", [str(exc)]) from None


def _operator(doc: InstanceDocument):
    doc.require("operator_T")
    return doc.operator_t


def _trb_checked(call, setup: TrbSetup, t: Matrix, *args):
    """call(setup, t, *args), the CLI's one path to a library call that presupposes T passes:
    its `require_trb` is the job's one operator check, and its NotTwistedRB is the handler's
    MathFailure.  Handlers read their flags first, so a malformed flag exits 2 whatever T."""
    try:
        return call(setup, t, *args)
    except NotTwistedRB as exc:
        raise MathFailure("twisted Rota-Baxter identity", [str(exc)]) from None


# -- renderers: the one text and JSON form of each report kind ---------------
# each returns (verdict_ok, payload dict, human lines), as the handlers do


def _verdict(title: str, ok: bool) -> str:
    return f"{title}: {'pass' if ok else 'FAIL'}"


def _check(title: str, report: CheckReport, *extra: str, **payload: Any):
    """'title: pass/FAIL', the extra lines, then the witness."""
    witnesses = _witnesses(report)
    return report.ok, {"witnesses": witnesses, **payload}, [_verdict(title, report.ok), *extra, *witnesses]


def _equations(report: EquationReport, *extra: str, **payload: Any):
    """One verdict line per identity, the extra lines, then the witnesses."""
    witnesses = _witnesses(report)
    lines = [_verdict(name, rep.ok) for name, rep in report.equations]
    payload = {"equations": report.verdicts(), "witnesses": witnesses, **payload}
    return report.ok, payload, [*lines, *extra, *witnesses]


def _dimensions(group: str, dims: list[int]):
    """One line per degree n: the group's name, formatted with n, and its dimension."""
    return True, {"dimensions": dims}, [f"{group.format(n)} dimension: {d}" for n, d in enumerate(dims)]


def _operator_matrix(heading: str, m: Matrix, passes: str):
    """The heading, one indented line per row, then the identity the matrix passes."""
    rows = matrix_json(m)
    lines = [heading, *("  " + " ".join(row) for row in rows), _verdict(passes, True)]
    return True, {"operator": rows}, lines


_WITT_FIELDS = ("m", "n", "lhs", "rhs", "induced", "ok")


def _witt(witt_rows: list) -> tuple[bool, dict, list[str]]:
    """One JSON row per pair; each text line lists the row's fields, ok as yes/NO."""
    yes = {True: "yes", False: "NO"}
    rows = [
        dict(zip(_WITT_FIELDS, (r.m, r.n, scalar_str(r.lhs), scalar_str(r.rhs), scalar_str(r.induced), r.ok)))
        for r in witt_rows
    ]
    all_ok = all(row["ok"] for row in rows)
    lines = [" ".join(_WITT_FIELDS)]
    lines += [" ".join(yes[v] if k == "ok" else str(v) for k, v in row.items()) for row in rows]
    lines.append(f"rows: {len(rows)}  all pass: {yes[all_ok]}")
    return all_ok, {"rows": rows}, lines


# -- command handlers ------------------------------------------------------


def cmd_validate(doc: InstanceDocument, args) -> tuple[bool, dict, list[str]]:
    sections: dict[str, CheckReport | EquationReport] = {}
    if doc.lie_dim is not None:
        algebra = validate_lie(doc.lie_dim, doc.brackets or {})
        sections["lie_algebra"] = _as_report(algebra)
        if sections["lie_algebra"].ok and doc.action is not None:
            rep = validate_rep(algebra, doc.module_dim, doc.action)
            sections["representation"] = _as_report(rep)
            if sections["representation"].ok and doc.cocycle_h is not None:
                sections["cocycle_H"] = is_two_cocycle(algebra, rep, doc.cocycle_h)
    for name, section, check in (("ns_lie", doc.ns, nslie.ns_check), ("assoc_ns", doc.assoc, nslie.assoc_ns_check)):
        if section is not None:
            sections[name] = check(section)
    if not sections:
        raise MissingSection("nothing to validate: no recognized sections present")
    witnesses = [w for report in sections.values() for w in _witnesses(report)]
    lines = [_verdict(name, report.ok) for name, report in sections.items()]
    verdicts = {name: report.ok for name, report in sections.items()}
    return all(verdicts.values()), {"sections": verdicts, "witnesses": witnesses}, lines + witnesses


def cmd_ce_cohomology(doc, args):
    algebra = _algebra(doc)
    rep = _representation(doc, algebra)
    return _dimensions("H^{}", ce_cohomology_dims(algebra, rep, args.nmax))


def cmd_check_trb(doc, args):
    setup = _setup(doc)
    return _check("twisted Rota-Baxter identity", check_trb(setup, _operator(doc)))


def cmd_check_mc(doc, args):
    setup = _setup(doc)
    defect, direct = linfty.mc_defect(setup, _operator(doc))
    ok = defect.is_zero()
    lines = [_verdict("Maurer-Cartan defect zero", ok), _verdict("direct identity agrees", direct.ok == ok)]
    return ok, {"maurer_cartan": ok, "direct": direct.ok, "witnesses": _witnesses(direct)}, lines


def cmd_cohomology_of_t(doc, args):
    setup, t = _setup(doc), _operator(doc)
    return _dimensions("H^{}_T", _trb_checked(linfty.cohomology_of_t_dims, setup, t, args.nmax))


def cmd_check_reynolds(doc, args):
    algebra = _algebra(doc)
    return _check("Reynolds identity", reynolds_check(algebra, _operator(doc)))


def cmd_reynolds_from_derivation(doc, args):
    algebra = _algebra(doc)
    doc.require("derivation_d")
    r = reynolds_from_derivation(algebra, doc.derivation_d)
    return _operator_matrix("Reynolds operator from the derivation series:", r, "Reynolds identity")


def cmd_witt_report(doc, args):
    return _witt(witt_report(args.nmax))


def cmd_check_r_matrix(doc, args):
    algebra = _algebra(doc)
    r = _operator(doc)
    psi = doc.psi if doc.psi is not None else Cochain.zero(3, algebra.dim, 1)
    verdict, dual = r_matrix_check(algebra, r, psi)
    if dual is None:
        return _check("twisted triangular r-matrix", verdict)
    morphism = "dual bracket computed; r is a morphism onto it"
    return _check("twisted triangular r-matrix", verdict, morphism, dual_bracket=cochain_json(dual.bracket))


def cmd_check_ns(doc, args):
    doc.require("ns_lie")
    return _equations(nslie.ns_check(doc.ns))


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
        ns = nslie.ns_from_trb(setup, _operator(doc))
    payload = {"ns_lie": ns_json(ns)}
    lines = ["constructed NS-Lie structure:", json.dumps(payload["ns_lie"], sort_keys=True)]
    lines.append(_verdict("ns_check", True))
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
        _verdict("identity operator passes", True),
    ]
    return True, payload, lines


def cmd_deform_check(doc, args):
    setup = _setup(doc)
    t = _operator(doc)
    doc.require("deformation")
    _need_pass("twisted Rota-Baxter identity (base)", check_trb(setup, t))
    d = deform_mod.FormalDeformation(setup, t, doc.deformation)
    defects = deform_mod.deformation_equation_defects(d, up_to=args.order)
    verdicts = [dd.is_zero() for dd in defects]
    lines = [_verdict(f"order {n + 1} defect zero", v) for n, v in enumerate(verdicts)]
    return all(verdicts), {"orders": verdicts}, lines


def cmd_nijenhuis_element(doc, args):
    setup, t = _setup(doc), _operator(doc)
    x = parse_vector([p.strip() for p in args.x.split(",")], setup.dim, "--x")
    return _equations(_trb_checked(deform_mod.nijenhuis_element_check, setup, t, x))


def cmd_rigidity_probe(doc, args):
    report = _trb_checked(deform_mod.rigidity_probe, _setup(doc), _operator(doc), args.grid)
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
    return _equations(components, _verdict("direct definition", components.ok), direct=components.ok)


def cmd_lie_tgcs(doc, args):
    algebra = _algebra(doc)
    doc.require("lie_gcs")
    psi = doc.psi if doc.psi is not None else Cochain.zero(3, algebra.dim, 1)
    return _equations(tgcs.lie_tgcs_check(algebra, psi, doc.lie_gcs))


def cmd_gauge(doc, args):
    setup, t = _setup(doc), _operator(doc)
    b = _parse_matrix_flag(args.b, setup.module_dim, setup.dim, "--b")
    return _operator_matrix("gauge transform:", _trb_checked(gauge_transform, setup, t, b), "transformed operator passes")


def cmd_shift(doc, args):
    setup, t = _setup(doc), _operator(doc)
    h = _parse_matrix_flag(args.h, setup.module_dim, setup.dim, "--h")
    shifted, t_new = _trb_checked(shift_by_coboundary, setup, t, h)
    twist = cochain_json(shifted.cocycle)
    ok, payload, lines = _operator_matrix("shifted operator:", t_new, "shifted operator passes")
    return ok, {"cocycle_H": twist, **payload}, ["shifted twist: " + json.dumps(twist, sort_keys=True), *lines]


def _parse_matrix_flag(text: str, rows: int, cols: int, flag: str) -> Matrix:
    """Inline JSON rows, or a path to a JSON file holding them."""
    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=unique_keys)
        except (OSError, ValueError, RecursionError) as exc:
            raise InvalidStructure(f"{flag}: neither inline JSON nor a readable JSON file ({exc})")
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting or a repeated key
        raise InvalidStructure(f"{flag}: {exc}") from None
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
    """The parser `main` uses, built on the first call and kept for the process;
    `_parse_args` reads argv with it, mostly through its sub-parsers.

    Parsing leaves no state on the parser: each call gets a fresh namespace
    filled from the declared defaults.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as `_parser().parse_args` parses it, in one pass when it names a command.

    The full parser hands the arguments after the command to the command's
    sub-parser, so calling that sub-parser directly parses, prints and exits
    as it would.  The full parser runs only when argv names no command or
    the sub-parser leaves arguments unconsumed: it stays the one source of
    the top-level usage text.
    """
    parser = _parser()
    # argparse keeps the sub-parsers on its one sub-parsers action, with no public accessor
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run the command argv names (`sys.argv[1:]` by default) and return its exit code.

    argv is parsed once, by the command's own sub-parser (`_parse_args`);
    usage errors and help exit as argparse makes them, with 2 or 0.
    """
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        doc = load_instance(args.input) if "input" in args else InstanceDocument()
        ok, payload, lines = args.handler(doc, args)
    except MathFailure as exc:
        _emit(args, "fail", {"failed_check": exc.name, "witnesses": exc.witnesses},
              [_verdict(exc.name, False)] + exc.witnesses)
        return 1
    except InvalidStructure as exc:  # MissingSection too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        _emit(args, "fail", {"failed_check": type(exc).__name__, "witnesses": [str(exc)]},
              [f"{type(exc).__name__}: {exc}"])
        return 1
    _emit(args, "pass" if ok else "fail", payload, lines)
    return 0 if ok else 1


def _emit(args, verdict: str, payload: dict, lines: list[str]) -> None:
    """The report's envelope: its header fields and payload as one JSON object, or as lines."""
    header = {"command": args.command, "seed": args.seed, "verdict": verdict}
    if getattr(args, "json", False):
        print(json.dumps({**header, **payload}, sort_keys=True, default=str))
    else:
        for key, value in header.items():
            print(f"{key}: {value}")
        for line in lines:
            print(line)


if __name__ == "__main__":
    sys.exit(main())
