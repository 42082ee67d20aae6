"""Golden CLI outputs: exit code and stdout, byte for byte, on `instances/`.

Every file in `instances/` is run through every command whose sections it
carries, in text and in `--json` mode, with `--nmax 2`.  The flag values of
`--x`, `--b` and `--h` are the zero vector and zero matrices used in
test_cli.py, sized to the instance; the zero `--x` always passes, so
`FLAG_CASES` adds a failing one.  `tests/golden/<instance>.json` maps
each case to its recorded exit code and stdout; running this file as a
script (with `src` on PYTHONPATH) re-records them; do so only for an
intended output change.  Each case runs twice, first with no compiled
identity kept (`multilin.bind`), then with the programs the first run
compiled, and both must give the recorded output.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from twistrb import multilin
from twistrb.cli import main

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"

# command -> (leading arguments, sections the instance must carry)
COMMANDS = (
    ("validate", (), ()),
    ("ce-cohomology", ("--nmax", "2"), ("lie_algebra", "representation")),
    ("check-trb", (), ("lie_algebra", "representation", "operator_T")),
    ("check-mc", (), ("lie_algebra", "representation", "operator_T")),
    ("cohomology-of-t", ("--nmax", "2"), ("lie_algebra", "representation", "operator_T")),
    ("check-reynolds", (), ("lie_algebra", "operator_T")),
    ("reynolds-from-derivation", (), ("lie_algebra", "derivation_d")),
    ("check-r-matrix", (), ("lie_algebra", "operator_T")),
    ("check-ns", (), ("ns_lie",)),
    ("ns-from nijenhuis", (), ("lie_algebra", "operator_N")),
    ("ns-from assoc", (), ("assoc_ns",)),
    ("ns-from trb", (), ("lie_algebra", "representation", "operator_T")),
    ("trb-from-ns", (), ("ns_lie",)),
    ("deform-check", (), ("lie_algebra", "representation", "operator_T", "deformation")),
    ("nijenhuis-element", ("--x",), ("lie_algebra", "representation", "operator_T")),
    ("rigidity-probe", (), ("lie_algebra", "representation", "operator_T")),
    ("check-tgcs", (), ("lie_algebra", "representation", "gcs_components")),
    ("lie-tgcs", (), ("lie_algebra", "lie_gcs")),
    ("gauge", ("--b",), ("lie_algebra", "representation", "operator_T")),
    ("shift", ("--h",), ("lie_algebra", "representation", "operator_T")),
)
# (instance, command, flag arguments) run besides the zero flag values
FLAG_CASES = (("affine_failing_deformation", "nijenhuis-element", ("--x", "1/2,-2/3")),)


def _zeros(rows: int, cols: int) -> str:
    return json.dumps([[0] * cols for _ in range(rows)])


def _argv(command: str, extra: tuple, path: Path, doc: dict) -> list[str]:
    n = doc["lie_algebra"]["dim"] if "lie_algebra" in doc else 0
    m = doc.get("module", {}).get("dim") or doc.get("representation", {}).get("module_dim", 0)
    flag_values = {"--x": ",".join(["0"] * n), "--b": _zeros(m, n), "--h": _zeros(m, n)}
    argv = command.split() + [str(path)]
    for flag in extra:
        argv.append(flag)
        if flag in flag_values:
            argv.append(flag_values[flag])
    return argv


def cases() -> list[tuple[str, str, list[str]]]:
    """(golden file stem, case name, argv) for every covered case."""
    out = []
    for path in sorted(INSTANCES.glob("*.json")):
        doc = json.loads(path.read_text())
        for command, extra, needs in COMMANDS:
            if not all(section in doc for section in needs):
                continue
            argv = _argv(command, extra, path, doc)
            out.append((path.stem, command, argv))
            out.append((path.stem, command + " --json", argv + ["--json"]))
    for stem, command, flags in FLAG_CASES:
        argv = [command, str(INSTANCES / f"{stem}.json"), *flags]
        name = " ".join([command, *flags])
        out.append((stem, name, argv))
        out.append((stem, name + " --json", argv + ["--json"]))
    out.append(("witt-report", "witt-report", ["witt-report", "--nmax", "2"]))
    out.append(("witt-report", "witt-report --json", ["witt-report", "--nmax", "2", "--json"]))
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _load(stem: str) -> dict:
    return json.loads((GOLDEN / f"{stem}.json").read_text())


CASES = cases()


@pytest.mark.parametrize("stem,name,argv", CASES, ids=[f"{s}:{n}" for s, n, _ in CASES])
def test_golden_output(stem, name, argv, monkeypatch):
    expected = _load(stem)[name]
    monkeypatch.setattr(multilin, "_PROGRAMS", {})
    assert run(argv) == expected, "with no program kept"
    assert run(argv) == expected, "with the programs the first run kept"


def record() -> None:
    recorded: dict[str, dict] = {}
    for stem, name, argv in CASES:
        recorded.setdefault(stem, {})[name] = run(argv)
    GOLDEN.mkdir(exist_ok=True)
    for stem, entries in recorded.items():
        text = json.dumps(entries, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
        (GOLDEN / f"{stem}.json").write_text(text)


if __name__ == "__main__":
    record()
