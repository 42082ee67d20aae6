import ast
import copy
import itertools
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from twistrb import tgcs
from twistrb.cli import main
from twistrb.instances import load_instance
from twistrb.liealg import validate_lie, validate_rep
from twistrb.operators import trb_setup
from twistrb.report import EquationReport, failed, first_failure

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SRC = Path(__file__).resolve().parent.parent / "src" / "twistrb"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_trb_pass(capsys):
    code, out, _ = run_cli(["check-trb", str(INSTANCES / "sl2_reynolds.json")], capsys)
    assert code == 0
    assert "verdict: pass" in out


def test_check_mc_agrees_with_check_trb(capsys):
    path = str(INSTANCES / "sl2_reynolds.json")
    code_mc, out_mc, _ = run_cli(["check-mc", path, "--json"], capsys)
    code_trb, out_trb, _ = run_cli(["check-trb", path, "--json"], capsys)
    assert code_mc == code_trb == 0
    mc = json.loads(out_mc)
    trb = json.loads(out_trb)
    assert mc["verdict"] == trb["verdict"]
    assert mc["direct"] is True and mc["maurer_cartan"] is True


def test_check_mc_fail_still_agrees(tmp_path, capsys):
    doc = json.loads((INSTANCES / "sl2_reynolds.json").read_text())
    doc["operator_T"] = [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code_mc, out_mc, _ = run_cli(["check-mc", str(bad), "--json"], capsys)
    code_trb, out_trb, _ = run_cli(["check-trb", str(bad), "--json"], capsys)
    assert code_mc == code_trb == 1
    assert json.loads(out_mc)["verdict"] == json.loads(out_trb)["verdict"] == "fail"


def test_witt_report_full(capsys):
    code, out, _ = run_cli(["witt-report", "--nmax", "10"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 66
    assert "all pass: yes" in out


def test_ce_cohomology(capsys):
    code, out, _ = run_cli(
        ["ce-cohomology", str(INSTANCES / "sl2_reynolds.json"), "--nmax", "2", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["dimensions"] == [0, 0, 0]


def test_cohomology_of_t(capsys):
    code, out, _ = run_cli(
        ["cohomology-of-t", str(INSTANCES / "heisenberg_derivation.json"), "--nmax", "2", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["dimensions"] == [1, 4, 5]


def test_reynolds_commands(capsys):
    path = str(INSTANCES / "heisenberg_derivation.json")
    code, out, _ = run_cli(["check-reynolds", path], capsys)
    assert code == 0
    code, out, _ = run_cli(["reynolds-from-derivation", path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["operator"] == [["1", "0", "0"], ["0", "1", "0"], ["-1", "0", "1"]]


def test_check_r_matrix(capsys):
    code, out, _ = run_cli(
        ["check-r-matrix", str(INSTANCES / "abelian3_twisted_rmatrix.json"), "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["dual_bracket"]["values"] == {"[1,2]": ["0", "0", "1"]}


def test_check_r_matrix_non_square_exit_two(tmp_path, capsys):
    """A 3x2 r on a 3-dimensional algebra is invalid input, not a failed skew-symmetry check."""
    path = tmp_path / "nonsquare.json"
    path.write_text(json.dumps({"lie_algebra": {"dim": 3, "brackets": {}}, "operator_T": [["0", "1"], ["-1", "0"], ["0", "0"]]}))
    code, out, err = run_cli(["check-r-matrix", str(path)], capsys)
    assert code == 2
    assert "r must be 3x3, got 3x2" in err and "Traceback" not in out + err


def test_check_tgcs(capsys):
    code, out, _ = run_cli(["check-tgcs", str(INSTANCES / "dim1_gcs.json"), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["direct"] is True
    assert all(payload["equations"].values())


def test_ns_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(
        ["ns-from", "nijenhuis", str(INSTANCES / "affine_hinv.json"), "--json"], capsys
    )
    assert code == 0
    ns = json.loads(out)["ns_lie"]
    ns_path = tmp_path / "ns.json"
    ns_path.write_text(json.dumps({"ns_lie": ns}))
    code, out, _ = run_cli(["check-ns", str(ns_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["trb-from-ns", str(ns_path), "--json"], capsys)
    assert code == 0


def test_ns_from_assoc(capsys):
    code, out, _ = run_cli(
        ["ns-from", "assoc", str(INSTANCES / "assoc_upper_triangular.json"), "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_deform_check(capsys):
    code, out, _ = run_cli(["deform-check", str(INSTANCES / "affine_hinv.json")], capsys)
    assert code == 0
    assert "order 1 defect zero: pass" in out


def counted_calls(monkeypatch, module: str, name: str) -> list:
    """Record each call of the library function `name` of `module`, through every twistrb module that holds it."""
    original = getattr(sys.modules[module], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("twistrb") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_deform_check_runs_check_trb_once(monkeypatch, capsys):
    calls = counted_calls(monkeypatch, "twistrb.operators", "check_trb")
    code, _, _ = run_cli(["deform-check", str(INSTANCES / "affine_hinv.json")], capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["heisenberg_derivation.json", "heisenberg_failing_checks.json"])
def test_cohomology_of_t_runs_check_trb_once(name, monkeypatch, capsys):
    """The library call's check is the job's only one, on a passing and on a failing operator."""
    calls = counted_calls(monkeypatch, "twistrb.operators", "check_trb")
    code, _, _ = run_cli(["cohomology-of-t", str(INSTANCES / name)], capsys)
    assert code == (0 if name == "heisenberg_derivation.json" else 1)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["affine_hinv.json", "heisenberg_failing_checks.json"])
def test_rigidity_probe_runs_check_trb_once(name, monkeypatch, capsys):
    """The probe's own check is the job's only one, on a passing and on a failing operator."""
    calls = counted_calls(monkeypatch, "twistrb.operators", "check_trb")
    code, out, _ = run_cli(["rigidity-probe", str(INSTANCES / name)], capsys)
    assert code == 1
    assert ("verdict: inconclusive" if name == "affine_hinv.json" else "twisted Rota-Baxter identity: FAIL") in out
    assert len(calls) == 1


def test_check_r_matrix_runs_check_trb_once(monkeypatch, capsys):
    """The verdict's check is not repeated when the dual bracket is built."""
    calls = counted_calls(monkeypatch, "twistrb.operators", "check_trb")
    code, _, _ = run_cli(["check-r-matrix", str(INSTANCES / "abelian3_twisted_rmatrix.json")], capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, module, name, count",
    [
        (["nijenhuis-element", "--x", "0,0"], "twistrb.operators", "check_trb", 1),
        (["gauge", "--b", "[[0,0],[0,0]]"], "twistrb.operators", "check_trb", 2),
        (["shift", "--h", "[[0,0],[0,0]]"], "twistrb.liealg", "validate_rep", 1),
    ],
    ids=["nijenhuis-element-check_trb", "gauge-check_trb", "shift-validate_rep"],
)
def test_operator_commands_check_each_hypothesis_once(argv, module, name, count, monkeypatch, capsys):
    """The library function's own check is the job's only one.  `gauge` checks T and the transformed
    operator once each; `shift` validates the representation once, when the setup is read, and
    builds the shifted setup without validating it again."""
    calls = counted_calls(monkeypatch, module, name)
    code, _, _ = run_cli(argv[:1] + [str(INSTANCES / "affine_hinv.json")] + argv[1:], capsys)
    assert code == 0
    assert len(calls) == count


@pytest.mark.parametrize("path", ["x.json", str(INSTANCES / "sl2_reynolds.json")])
def test_witt_report_takes_no_input_file(path, capsys):
    code, out, _ = run_cli(["witt-report", path], capsys)
    assert code == 2
    assert out == ""


def test_nijenhuis_element(capsys):
    code, out, _ = run_cli(
        ["nijenhuis-element", str(INSTANCES / "affine_hinv.json"), "--x", "0,0"], capsys
    )
    assert code == 0


@pytest.mark.parametrize("name, x", [("affine_hinv.json", "1/2,-2/3"), ("sl2_reynolds.json", "1/2,-2/3,5/7")])
def test_nijenhuis_element_fractional_x_witnesses_match_oracle(name, x, capsys):
    """Every witness line is the oracle's first failure of that identity, with a non-integer defect."""
    doc = load_instance(str(INSTANCES / name))
    algebra = validate_lie(doc.lie_dim, doc.brackets or {})
    setup = trb_setup(algebra, validate_rep(algebra, doc.module_dim, doc.action), doc.cocycle_h)
    t, xv = doc.operator_t, [Fraction(c) for c in x.split(",")]
    defects = oracles.nijenhuis_element_defects(setup, t, xv, oracles.induced_action_matrices(setup, t))
    pairs = list(itertools.combinations(range(setup.dim), 2))
    mixed = list(itertools.product(range(setup.dim), range(setup.module_dim)))
    cases = [[(a,) for a in range(setup.module_dim)], pairs, mixed, mixed, pairs, pairs]
    reports = [first_failure(kind, c, defect) for (kind, defect), c in zip(defects.items(), cases)]
    expected = [r.violation.describe() for r in reports if not r.ok]
    assert expected and any("/" in line for line in expected)
    code, out, _ = run_cli(["nijenhuis-element", str(INSTANCES / name), "--x", x], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if " fails at " in line] == expected


def test_rigidity_probe_exit_code_matches_verdict(capsys):
    code, out, _ = run_cli(
        ["rigidity-probe", str(INSTANCES / "affine_hinv.json"), "--json"], capsys
    )
    payload = json.loads(out)
    assert (code == 0) == (payload["verdict"] == "sufficient condition established")


def test_gauge_and_shift(capsys):
    path = str(INSTANCES / "affine_hinv.json")
    code, out, _ = run_cli(["gauge", path, "--b", "[[0,0],[0,0]]", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["operator"] == [["1", "-1"], ["0", "1"]]
    code, out, _ = run_cli(["shift", path, "--h", "[[0,0],[0,0]]", "--json"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "brackets, witness",
    [
        ({"[2,1]": ["0", "-1"]}, None),
        ({"[1,2]": ["0", "1"], "[2,1]": ["0", "-1"], "[2,2]": ["0", "0"]}, None),
        ({"[1,2]": ["0", "1"], "[2,1]": ["0", "1"]}, "skewness fails at (1,2): defect (0, 2)"),
        ({"[1,1]": ["0", "1"]}, "skewness (diagonal) fails at (1,1): defect (0, 1)"),
    ],
    ids=["reversed-alone", "both-orders-and-zero-diagonal", "reversed-not-negated", "nonzero-diagonal"],
)
def test_bracket_keys_in_either_order_are_checked(brackets, witness, tmp_path, capsys):
    """A [j,i] key stands for the negated [i,j] and must agree with it; an [i,i] key must be zero."""
    path = tmp_path / "brackets.json"
    path.write_text(json.dumps({"lie_algebra": {"dim": 2, "brackets": brackets}}))
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == (0 if witness is None else 1)
    assert out.splitlines()[-1] == ("lie_algebra: pass" if witness is None else witness)


def test_validate_fail_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lie_algebra": {"dim": 2, "brackets": {"[1,2]": ["1", "0"], "[2,1]": ["1", "0"]}}}))
    code, out, _ = run_cli(["validate", str(bad)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_invalid_input_exit_two(tmp_path, capsys):
    code, _, err = run_cli(["check-trb", "/nonexistent/file.json"], capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"lie_algebra": {"dim": 1, "brackets": {}}}))
    code, _, err = run_cli(["check-trb", str(missing)], capsys)
    assert code == 2
    assert "missing" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(["validate", str(garbled)], capsys)
    assert code == 2


SL2_SECTIONS = json.loads((INSTANCES / "sl2_reynolds.json").read_text())


MALFORMED = {
    "section-not-object": {"lie_algebra": [1, 2]},
    "brackets-not-object": {"lie_algebra": {"dim": 2, "brackets": []}},
    "bool-dim": {"lie_algebra": {"dim": True, "brackets": {}}},
    "bool-index": {"lie_algebra": {"dim": 2, "brackets": {"[true,2]": ["0", "1"]}}},
    "decimal-scalar": {"lie_algebra": {"dim": 2, "brackets": {"[1,2]": ["1.5", "0"]}}},
    "exponent-scalar": {"lie_algebra": {"dim": 2, "brackets": {"[1,2]": ["1e3", "0"]}}},
    "bool-scalar": {"lie_algebra": {"dim": 2, "brackets": {"[1,2]": [True, 0]}}},
    "zero-denominator": {"lie_algebra": {"dim": 2, "brackets": {"[1,2]": ["1/0", "0"]}}},
    "padded-scalar": {"lie_algebra": {"dim": 2, "brackets": {"[1,2]": [" 1", "0"]}}},
    "module-not-object": {"lie_algebra": {"dim": 2}, "module": "2"},
    "values-not-object": {"lie_algebra": {"dim": 2}, "module": {"dim": 2}, "cocycle_H": {"values": []}},
    "circ-not-object": {"ns_lie": {"dim": 2, "circ": [], "vee": {}}},
    "vee-not-object": {"ns_lie": {"dim": 2, "circ": {}, "vee": []}},
    "float-dim": {"assoc_ns": {"dim": 1.0}},
    "representation-not-object": {**SL2_SECTIONS, "representation": [SL2_SECTIONS["representation"]]},
    "bool-order": {**SL2_SECTIONS, "deformation": {"order": True, "coefficients": [SL2_SECTIONS["operator_T"]]}},
    "gcs-not-object": {**SL2_SECTIONS, "gcs_components": "N"},
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_exit_two(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# two keys that name one index tuple, in each of the four index tables
DUPLICATE_TUPLE = {
    "lie_algebra.brackets": {"lie_algebra": {"dim": 2, "brackets": {"[1,2]": ["0", "1"], "[1, 2]": ["0", "2"]}}},
    "ns_lie.vee": {"ns_lie": {"dim": 2, "circ": {}, "vee": {"[1,2]": ["0", "1"], "[1, 2]": ["0", "2"]}}},
    "ns_lie.circ": {"ns_lie": {"dim": 2, "circ": {"[2,1]": ["1", "0"], " [2,1]": ["0", "1"]}, "vee": {}}},
    "cocycle_H.values": {
        "lie_algebra": {"dim": 2, "brackets": {}},
        "module": {"dim": 1},
        "cocycle_H": {"degree": 2, "values": {"[1,2]": ["1"], "[1,2 ]": ["2"]}},
    },
}


@pytest.mark.parametrize("doc", DUPLICATE_TUPLE.values(), ids=DUPLICATE_TUPLE.keys())
def test_keys_naming_one_tuple_exit_two(doc, tmp_path, capsys):
    """The last of two such keys used to win silently."""
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "same index tuple" in err


# the same key twice in one JSON object: `json.load` alone lets the last one win
REPEATED_KEYS = {
    "table-key": '{"lie_algebra": {"dim": 3, "brackets": {"[1,2]": ["0", "0", "1"], "[1,2]": ["0", "0", "0"]}}}',
    "section": '{"lie_algebra": {"dim": 3, "brackets": {"[1,2]": ["0", "0", "1"]}}, "lie_algebra": {"dim": 2, "brackets": {}}}',
}


@pytest.mark.parametrize("text", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys())
def test_repeated_json_keys_exit_two(text, tmp_path, capsys):
    """Both documents used to validate with exit 0."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "appears twice" in err


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_repeated_json_key_in_a_matrix_flag_exit_two(inline, tmp_path, capsys):
    text = '{"rows": [[0, 0], [0, 0]], "rows": [[1, 0], [0, 1]]}'
    matrix_file = tmp_path / "b.json"
    matrix_file.write_text(text)
    flag = text if inline else str(matrix_file)
    code, out, err = run_cli(["gauge", str(INSTANCES / "affine_hinv.json"), "--b", flag], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --b") and "appears twice" in err


def _decimal(x: Fraction) -> str:
    """x in decimal through `decimal`, which has no digit limit: an oracle for `scalar_str`."""
    digits = str(Decimal(x.numerator))
    return digits if x.denominator == 1 else f"{digits}/{Decimal(x.denominator)}"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_witness_past_the_int_string_limit(as_json, tmp_path, capsys):
    """A diagonal operator of 3,001-digit entries: its defect squares them, past the
    4,300-digit limit of `str` on ints, which used to end in a traceback."""
    doc = json.loads((INSTANCES / "heisenberg_failing_checks.json").read_text())
    big = "7" + "3" * 3000
    doc["operator_T"] = [[big if i == j else "0" for j in range(3)] for i in range(3)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    loaded = load_instance(str(path))
    algebra = validate_lie(loaded.lie_dim, loaded.brackets)
    setup = trb_setup(algebra, validate_rep(algebra, loaded.module_dim, loaded.action), loaded.cocycle_h)
    defect = oracles.trb_defect_terms(setup, loaded.operator_t, 0, 1)
    assert max(abs(x.numerator) for x in defect) > 10**5000
    witness = f"twisted Rota-Baxter fails at (1,2): defect ({', '.join(_decimal(x) for x in defect)})"
    code, out, err = run_cli(["check-trb", str(path)] + ["--json"] * as_json, capsys)
    assert code == 1 and err == ""
    if as_json:
        assert json.loads(out)["witnesses"] == [witness]
    else:
        assert out.splitlines()[-1] == witness


LONG = "1" * 5000  # past Python's 4,300-digit limit on int <-> str conversion
DEEP = "[" * 100_000 + "]" * 100_000
BRACKETS_2 = '{"lie_algebra": {"dim": 2, "brackets": {%s: %s}}}'
BOUNDARY_FILES = {
    "long-p/q-scalar": BRACKETS_2 % ('"[1,2]"', f'["1/{LONG}", "0"]'),
    "long-integer-literal": BRACKETS_2 % ('"[1,2]"', f"[{LONG}, 0]"),
    "long-index-in-key": BRACKETS_2 % (f'"[{LONG},2]"', '["0", "1"]'),
    "deep-index-key": BRACKETS_2 % (json.dumps(DEEP), '["0", "1"]'),
    "deep-document": DEEP,
    "not-utf-8": b'{"lie_algebra": {"dim": 1, "brackets": {}}, "module": "\xff"}',
}


@pytest.mark.parametrize("text", BOUNDARY_FILES.values(), ids=BOUNDARY_FILES.keys())
def test_boundary_documents_exit_two(text, tmp_path, capsys):
    path = tmp_path / "boundary.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["nijenhuis-element", "--x", f"1/{LONG},0"],
        ["nijenhuis-element", "--x", f"{LONG},0"],
        ["gauge", "--b", f"[[{LONG},0],[0,0]]"],
        ["shift", "--h", f"[[0,0],[0,{LONG}]]"],
        ["gauge", "--b", DEEP],
        ["gauge", "--b", "FILE"],
    ],
    ids=["x-long-p/q", "x-long-integer", "b-long-integer", "h-long-integer", "b-deep", "b-file-long-integer"],
)
def test_boundary_flag_values_exit_two(argv, tmp_path, capsys):
    matrix_file = tmp_path / "b.json"
    matrix_file.write_text(f"[[{LONG},0],[0,0]]")
    argv = [a if a != "FILE" else str(matrix_file) for a in argv]
    code, out, err = run_cli(argv[:1] + [str(INSTANCES / "affine_hinv.json")] + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# -- exact error texts of bad scalars and vectors ----------------------------

AFFINE_DOC = json.loads((INSTANCES / "affine_hinv.json").read_text())


def with_values(doc, *changes):
    """A deep copy of doc with each (path, value) of `changes` set."""
    doc = copy.deepcopy(doc)
    for path, value in changes:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


# affine_hinv.json with an operator that fails the twisted Rota-Baxter identity
FAILING_T_DOC = with_values(AFFINE_DOC, (("operator_T",), [["2", "0"], ["0", "2"]]))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nijenhuis-element", "--x", "0,x"], "error: --x: bad scalar 'x'"),
        (["gauge", "--b", "[[0,0]]"], "error: --b: expected 2 rows, got 1"),
        (["shift", "--h", "[[0,0],[0,0],[0,0]]"], "error: --h: expected 2 rows, got 3"),
    ],
    ids=["nijenhuis-element", "gauge", "shift"],
)
def test_a_malformed_flag_exits_two_before_the_operator_check(argv, message, tmp_path, capsys):
    """Flags are read before the operator check: a failing T with a malformed flag exits 2 naming the
    flag; with a well-formed flag the same document exits 1 naming the identity."""
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(FAILING_T_DOC))
    code, out, err = run_cli(argv[:1] + [str(path)] + argv[1:], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(message)
    well_formed = {"--x": "0,0", "--b": "[[0,0],[0,0]]", "--h": "[[0,0],[0,0]]"}[argv[1]]
    code, out, err = run_cli([argv[0], str(path), argv[1], well_formed], capsys)
    assert (code, err) == (1, "")
    assert "twisted Rota-Baxter identity: FAIL\ntwisted Rota-Baxter fails at (1,2): defect (-8, 4)\n" in out


def test_deform_check_reports_a_failing_base(tmp_path, capsys):
    """A base operator that fails the identity is reported under its own label, with the witness."""
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(FAILING_T_DOC))
    code, out, err = run_cli(["deform-check", str(path)], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[2:] == [
        "verdict: fail",
        "twisted Rota-Baxter identity (base): FAIL",
        "twisted Rota-Baxter fails at (1,2): defect (-8, 4)",
    ]


BAD_SCALAR = 'expected an integer or "p/q")'


@pytest.mark.parametrize(
    "path, value, line",
    [
        (("operator_T", 0, 1), "1.5", f"error: operator_T: bad scalar '1.5' ({BAD_SCALAR}"),
        (("cocycle_H", "values", "[1,2]", 0), LONG, "error: cocycle_H.values[[1,2]]: a scalar has more digits than Python converts"),
        (("lie_algebra", "brackets", "[1,2]"), ["0"], "error: lie_algebra.brackets[[1,2]]: expected a list of 2 scalars"),
    ],
    ids=["bad-scalar", "past-digit-limit", "wrong-length"],
)
def test_bad_scalar_in_a_file_message(path, value, line, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(with_values(AFFINE_DOC, (path, value))))
    assert run_cli(["validate", str(doc)], capsys) == (2, "", line + "\n")


def test_a_thousand_digit_scalar_loads_within_the_digit_limit(tmp_path, capsys):
    """A 1,000-digit scalar is read where Python's int-string digit limit allows it and is
    refused with exit 2 below the limit (CI also runs this under a limit of 640)."""
    wide = "1" * 1000
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps(with_values(AFFINE_DOC, (("operator_T", 0, 1), wide))))
    limit = sys.get_int_max_str_digits()
    if limit == 0 or limit >= len(wide):
        assert load_instance(str(doc)).operator_t[0, 1] == int(wide)
        assert run_cli(["validate", str(doc)], capsys)[0] == 0
    else:
        line = "error: operator_T: a scalar has more digits than Python converts\n"
        assert run_cli(["validate", str(doc)], capsys) == (2, "", line)


@pytest.mark.parametrize(
    "x, line",
    [
        ("1.5,0", f"error: --x: bad scalar '1.5' ({BAD_SCALAR}"),
        (f"{LONG},0", "error: --x: a scalar has more digits than Python converts"),
        ("0,0,0", "error: --x: expected a list of 2 scalars"),
    ],
    ids=["bad-scalar", "past-digit-limit", "wrong-length"],
)
def test_bad_scalar_in_x_message(x, line, capsys):
    assert run_cli(["nijenhuis-element", str(INSTANCES / "affine_hinv.json"), "--x", x], capsys) == (2, "", line + "\n")


@pytest.mark.parametrize("earlier", ["1", 1], ids=["string", "integer"])
@pytest.mark.parametrize(
    "value, shown", [(True, "True"), (1.0, "1.0"), ("1.0", "'1.0'")], ids=["bool", "float", "decimal-string"]
)
def test_scalars_equal_to_an_earlier_one_are_still_refused(earlier, value, shown, tmp_path, capsys):
    """A bool, a float or a decimal string equal to a scalar seen earlier in the document is
    refused as if it came first: parsed scalars are remembered by their string only."""
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(with_values(AFFINE_DOC, (("operator_T", 0, 0), earlier), (("operator_T", 1, 1), value))))
    assert run_cli(["validate", str(doc)], capsys) == (2, "", f"error: operator_T: bad scalar {shown} ({BAD_SCALAR}\n")


# -- fuzzed document shapes ------------------------------------------------

FUZZ_SEEDS = list(MALFORMED.values()) + [
    json.loads(path.read_text()) for path in sorted(INSTANCES.glob("*.json"))
]


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _paths(value, prefix + (k,))


FUZZ_KEYS = sorted({key for doc in FUZZ_SEEDS for key in _keys(doc)})
# small integers only: a fuzzed dimension must not ask for a large computation
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-1, 4),
        st.just(1.5),
        st.sampled_from(["0", "1", "-1", "1/2", "1/0", "1.5", "x", "", "[1,2]", "[2,1]", "[1,1]"]),
    ),
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(FUZZ_KEYS), kids, max_size=3)),
    max_leaves=6,
)
FUZZ_COMMANDS = [
    ["validate"],
    ["check-trb"],
    ["check-mc"],
    ["deform-check"],
    ["ce-cohomology", "--nmax", "1"],
    ["cohomology-of-t", "--nmax", "1"],
    ["check-reynolds"],
    ["check-r-matrix"],
    ["check-ns"],
    ["trb-from-ns"],
    ["ns-from", "trb"],
    ["check-tgcs"],
    ["lie-tgcs"],
    ["reynolds-from-derivation"],
    ["ns-from", "nijenhuis"],
    ["ns-from", "assoc"],
    ["nijenhuis-element", "--x", "1,0"],
    ["rigidity-probe", "--grid", "1"],
    ["gauge", "--b", "[[0,0],[0,0]]"],
    ["shift", "--h", "[[0,0],[0,0]]"],
]


@st.composite
def fuzzed_documents(draw):
    """A seed document with one to three parts replaced, deleted or added."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if not path:
            if action == "replace" or not isinstance(doc, (dict, list)):
                doc = draw(json_values)
                continue
            node = doc
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            node = parent[path[-1]]
            if action == "replace":
                parent[path[-1]] = draw(json_values)
                continue
            if action == "delete":
                del parent[path[-1]]
                continue
        if isinstance(node, dict):
            node[draw(st.sampled_from(FUZZ_KEYS))] = draw(json_values)
        elif isinstance(node, list):
            node.append(draw(json_values))
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=fuzzed_documents(), command=st.sampled_from(FUZZ_COMMANDS), as_json=st.booleans())
def test_fuzzed_documents_exit_cleanly(doc, command, as_json, tmp_path, capsys):
    """Any document shape gets a documented exit code and no traceback."""
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(command + [str(path)] + (["--json"] if as_json else []), capsys)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology-of-t", "heisenberg_derivation.json", "--nmax", "-3"],
        ["ce-cohomology", "sl2_reynolds.json", "--nmax", "-1"],
        ["witt-report", "--nmax", "-1"],
        ["rigidity-probe", "affine_hinv.json", "--grid", "-1"],
        ["deform-check", "affine_hinv.json", "--order", "0"],
        ["deform-check", "affine_hinv.json", "--order", "-2"],
        ["deform-check", "affine_hinv.json", "--order", "two"],
        ["nijenhuis-element", "affine_hinv.json", "--x", "1.5,0"],
    ],
)
def test_out_of_range_flags_exit_two(argv, capsys):
    argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


def test_smallest_flag_values_accepted(capsys):
    code, out, _ = run_cli(["witt-report", "--nmax", "0"], capsys)
    assert code == 0 and "rows: 1" in out
    code, out, _ = run_cli(["deform-check", str(INSTANCES / "affine_hinv.json"), "--order", "1"], capsys)
    assert code == 0 and out.splitlines()[-1] == "order 1 defect zero: pass"


def test_deform_check_orders_past_three_k(capsys):
    """An order-1 deformation checked to order 200: every order past 3 has no terms and passes."""
    code, out, _ = run_cli(["deform-check", str(INSTANCES / "affine_hinv.json"), "--order", "200"], capsys)
    lines = [line for line in out.splitlines() if line.startswith("order ")]
    assert code == 0 and lines == [f"order {n} defect zero: pass" for n in range(1, 201)]


def test_internal_inconsistency_exit_three(monkeypatch, capsys):
    """A disagreement between cross-checked routes is a bug: exit 3, not 1 or 2."""
    wrong = EquationReport((("integrability", failed("integrability", (), ())),))
    monkeypatch.setattr(tgcs, "tgcs_check_direct", lambda setup, j: wrong)
    code, out, err = run_cli(["check-tgcs", str(INSTANCES / "dim1_gcs.json")], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")


@pytest.mark.parametrize("argv", [["gauge", "--b", "[[0,0],[0,0]]"], ["shift", "--h", "[[0,0],[0,0]]"]], ids=["gauge", "shift"])
def test_a_constructed_operator_that_fails_is_an_internal_error(argv, monkeypatch, capsys):
    """The new operator of `gauge` and `shift` passes by a theorem: its failing check exits 3, not as T's failure."""
    from twistrb import operators

    original, checked = operators.check_trb, []

    def second_fails(setup, t):
        checked.append(t)
        return failed("twisted Rota-Baxter", (0, 1), (1, 0)) if len(checked) == 2 else original(setup, t)

    monkeypatch.setattr(operators, "check_trb", second_fails)
    code, out, err = run_cli(argv[:1] + [str(INSTANCES / "affine_hinv.json")] + argv[1:], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: the ") and "fails: twisted Rota-Baxter fails at (1,2): defect (1, 0)" in err


def test_library_has_no_assert_statements():
    """`python -O` strips asserts, so cross-checks must raise named errors."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def test_library_imports_only_the_standard_library():
    """The library runs on the standard library alone: every module it imports, wherever the
    import stands, is a standard-library module, twistrb itself, or relative to it."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
        foreign = [name for name in names if name.split(".")[0] not in (*sys.stdlib_module_names, "twistrb")]
        assert foreign == [], f"{path.relative_to(SRC)}: imports {foreign}"


def test_reports_are_byte_identical(capsys):
    args = ["check-mc", str(INSTANCES / "sl2_reynolds.json"), "--json", "--seed", "7"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    assert json.loads(first)["seed"] == 7


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twistrb.cli", "witt-report", "--nmax", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all pass: yes" in proc.stdout


# -- one parser per process ----------------------------------------------


def run_alone(args, monkeypatch, capsys):
    """A call on a freshly built parser, as in a new process."""
    from twistrb import cli

    monkeypatch.setattr(cli, "_PARSER", None)
    return run_cli(args, capsys)


SL2 = str(INSTANCES / "sl2_reynolds.json")
AFFINE = str(INSTANCES / "affine_hinv.json")
HEIS = str(INSTANCES / "heisenberg_derivation.json")


@pytest.mark.parametrize(
    "first, second",
    [
        (["cohomology-of-t", HEIS, "--nmax", "-3"], ["cohomology-of-t", HEIS, "--nmax", "1"]),
        (["no-such-command", SL2], ["check-trb", SL2]),
        (["check-trb"], ["check-trb", SL2]),
        (["check-mc", SL2, "--json"], ["check-mc", SL2]),
        # flag values and defaults: --seed, --order and --nmax must not carry over
        (["check-trb", SL2, "--seed", "9"], ["check-trb", SL2]),
        (["check-trb", SL2, "--seed", "9", "--json"], ["check-trb", SL2, "--json"]),
        (["deform-check", AFFINE, "--order", "3"], ["deform-check", AFFINE]),
        (["ce-cohomology", SL2, "--nmax", "0"], ["ce-cohomology", SL2]),
        (["ns-from", "bogus", SL2], ["ns-from", "trb", AFFINE]),
    ],
)
def test_reused_parser_leaks_nothing_between_calls(first, second, monkeypatch, capsys):
    """Each call of a sequence on one parser matches the same call run alone."""
    from twistrb import cli

    alone = [run_alone(args, monkeypatch, capsys) for args in (first, second)]
    monkeypatch.setattr(cli, "_PARSER", None)
    in_sequence = [run_cli(args, capsys) for args in (first, second, first)]
    assert in_sequence == alone + alone[:1]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    from twistrb import cli

    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    codes = [run_cli(args, capsys)[0] for args in (
        ["check-trb", SL2], ["no-such-command"], ["witt-report", "--nmax", "1"], ["check-mc", SL2, "--json"],
        ["ce-cohomology", SL2, "--nmax", "-1"],
    )]
    assert codes == [0, 2, 0, 0, 2]
    assert len(built) == 1


# -- one parse of argv: a command's arguments go straight to its sub-parser --------

ZERO_2x2 = "[[0,0],[0,0]]"
DISPATCH_ARGVS = [
    # every command with valid arguments
    ["validate", AFFINE],
    ["ce-cohomology", SL2, "--nmax", "1"],
    ["check-trb", SL2],
    ["check-mc", SL2, "--json", "--seed", "3"],
    ["cohomology-of-t", HEIS, "--nmax", "1"],
    ["check-reynolds", SL2],
    ["reynolds-from-derivation", HEIS],
    ["witt-report", "--nmax", "2"],
    ["check-r-matrix", str(INSTANCES / "abelian3_twisted_rmatrix.json")],
    ["check-ns", str(INSTANCES / "abelian2_ns_lie_gcs.json")],
    ["ns-from", "nijenhuis", AFFINE],
    ["ns-from", "assoc", str(INSTANCES / "assoc_upper_triangular.json")],
    ["ns-from", "trb", AFFINE],
    ["trb-from-ns", str(INSTANCES / "abelian2_ns_lie_gcs.json")],
    ["deform-check", AFFINE],
    ["nijenhuis-element", AFFINE, "--x", "1/2,-2/3"],
    ["rigidity-probe", AFFINE, "--grid", "1"],
    ["check-tgcs", str(INSTANCES / "dim1_gcs.json")],
    ["lie-tgcs", str(INSTANCES / "abelian2_ns_lie_gcs.json")],
    ["gauge", AFFINE, "--b", ZERO_2x2],
    ["shift", AFFINE, "--h", ZERO_2x2],
    # usage errors, help and the spellings argparse accepts
    ["no-such-command", SL2],
    [],
    ["-h"],
    ["check-trb", "-h"],
    ["check-trb", SL2, "extra"],
    ["ce-cohomology", SL2, "--nmax", "-1"],
    ["deform-check", AFFINE, "--order=3"],
    ["check-trb", SL2, "--js"],
    ["check-trb", "--", SL2],
    ["check-trb"],
    ["witt-report", "--nmax"],
    ["ns-from", "bogus", SL2],
    ["check-trb", SL2, "--no-such-flag", "1"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=[" ".join(Path(a).name for a in argv) or "empty" for argv in DISPATCH_ARGVS])
def test_main_parses_as_the_full_parser(argv, monkeypatch, capsys):
    """Exit code, stdout and stderr equal those of a route that always parses with the full parser."""
    from twistrb import cli

    got = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert got == run_cli(argv, capsys)
