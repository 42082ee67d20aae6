"""Parsing of instance documents: each distinct scalar string is parsed once per document.

`parse_instance` remembers the value of every scalar string it has read in
one document, an int when it is integral and a Fraction otherwise; these
tests pin that the remembered values equal a fresh parse, that only equal
strings share one (never a bool, a float or an int equal to a remembered
scalar), that errors keep their text and place, and that no two loads share
anything.  Every route to a table of exact scalars (the parser, `Matrix`,
`Cochain.from_values`, `Bilinear.from_values`) stores the table and scale
of the same entries given as Fractions, and a passing check of an integer
instance forms no Fraction after loading.
"""
from __future__ import annotations

import copy
import json
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twistrb import cli, instances
from twistrb.errors import InvalidStructure
from twistrb.exactlin import Matrix
from twistrb.instances import load_instance, parse_instance, parse_matrix, parse_vector
from twistrb.multilin import Bilinear, Cochain, ext_basis
from twistrb.operators import check_trb, r_matrix_check, reynolds_check

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
AFFINE = json.loads((INSTANCES / "affine_hinv.json").read_text())
LONG = "1" * 5000  # past Python's 4,300-digit limit on int <-> str conversion
BAD_SCALAR = 'expected an integer or "p/q")'

# the scalar lists of affine_hinv.json, by path, in the order `parse_instance` reads them
SCALAR_LISTS = (
    ("lie_algebra", "brackets", "[1,2]"),
    ("representation", "action", 0, 0),
    ("representation", "action", 0, 1),
    ("representation", "action", 1, 0),
    ("representation", "action", 1, 1),
    ("cocycle_H", "values", "[1,2]"),
    ("operator_T", 0),
    ("operator_T", 1),
    ("operator_N", 0),
    ("operator_N", 1),
    ("deformation", "coefficients", 0, 0),
    ("deformation", "coefficients", 0, 1),
)


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_lists(values):
    """affine_hinv.json with the scalar lists of `SCALAR_LISTS` replaced by `values`."""
    doc = copy.deepcopy(AFFINE)
    for path, value in zip(SCALAR_LISTS, values):
        at(doc, path[:-1])[path[-1]] = value
    return doc


def parsed_lists(doc):
    """Every scalar list of a parsed affine_hinv-shaped document, in the order of `SCALAR_LISTS`."""
    bracket = tuple(doc.brackets[0, 1])
    action = [m.row(i) for m in doc.action for i in range(2)]
    cocycle = doc.cocycle_h.value_on_basis((0, 1))
    rows = [m.row(i) for m in (doc.operator_t, doc.operator_n, *doc.deformation) for i in range(2)]
    return [bracket, *action, cocycle, *rows]


def distinct_strings(doc) -> int:
    """How many distinct strings the lists of an instance document hold: its scalar strings."""
    seen = set()

    def walk(node, in_list):
        if isinstance(node, str):
            if in_list:
                seen.add(node)
        elif isinstance(node, list):
            for x in node:
                walk(x, True)
        elif isinstance(node, dict):
            for x in node.values():
                walk(x, False)

    walk(doc, False)
    return len(seen)


# "0/5", "-0" and "007" are other spellings of values in the pool; "2/4" is 1/2 unreduced
POOL = ["0", "1", "-1", "1/2", "2/4", "-1/2", "0/5", "-0", "007", "3/9", 0, 1, -1, 2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(POOL), min_size=2, max_size=2), min_size=len(SCALAR_LISTS), max_size=len(SCALAR_LISTS)))
def test_repeated_scalars_equal_a_fresh_parse(values):
    """Scalars repeated across sections, in other spellings and unreduced, read as each alone would."""
    doc = parse_instance(with_lists(values))
    fresh = [tuple(parse_vector([x], 1, "fresh")[0] for x in row) for row in values]
    got = parsed_lists(doc)
    assert got == fresh
    assert all(type(x) is Fraction for row in got for x in row)


def test_equal_strings_share_one_value_and_unreduced_ones_reduce():
    values = [["0", "1/2"], ["2/4", "0"], ["1/2", "0"], ["0", "0"], ["0", "2/4"], ["1/2", "1/2"]] + [["0", "0"]] * 6
    got = parsed_lists(parse_instance(with_lists(values)))
    halves = [x for row in got for x in row if x]
    assert halves == [Fraction(1, 2)] * 6
    # a matrix stores integers and derives its Fractions, so the sharing shows where lists are read:
    # every list of the document is read with one memory of scalar strings
    reads, read = [], instances._parse_vector

    def recorded(raw, length, where, seen):
        out = read(raw, length, where, seen)
        reads.append((raw, out, seen))
        return out

    with mock.patch.object(instances, "_parse_vector", recorded):
        parse_instance(with_lists(values))
    assert len(reads) >= len(SCALAR_LISTS) and len({id(seen) for *_, seen in reads}) == 1
    shared = {}
    for raw, out, _ in reads:
        for text, x in zip(raw, out):
            if isinstance(text, str):
                assert shared.setdefault(text, x) is x  # "1/2" in three sections, "2/4" in two
    assert shared["1/2"] == shared["2/4"] == Fraction(1, 2)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("operator_T", 1), ["1/2", "1/2x"], f"operator_T: bad scalar '1/2x' ({BAD_SCALAR}"),
        (("operator_T", 1), ["1", True], f"operator_T: bad scalar True ({BAD_SCALAR}"),
        (("operator_T", 1), ["1", 1.0], f"operator_T: bad scalar 1.0 ({BAD_SCALAR}"),
        (("cocycle_H", "values", "[1,2]"), ["-1", " -1"], f"cocycle_H.values[[1,2]]: bad scalar ' -1' ({BAD_SCALAR}"),
        (("operator_N", 0), ["0", LONG], "operator_N: a scalar has more digits than Python converts"),
        # every scalar of a list is checked before any is converted
        (("operator_N", 0), [LONG, "1.5"], f"operator_N: bad scalar '1.5' ({BAD_SCALAR}"),
        (("deformation", "coefficients", 0, 1), ["0"], "deformation.coefficients[0]: expected a list of 2 scalars"),
    ],
    ids=["syntax", "bool", "float", "padded", "digit-limit", "syntax-before-digits", "length"],
)
def test_a_bad_scalar_after_remembered_ones_keeps_its_message(path, value, message):
    """The bad entry follows lists whose scalars (its own good neighbour among them) were remembered."""
    doc = copy.deepcopy(AFFINE)
    at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(InvalidStructure, match=f"^{re.escape(message)}$"):
        parse_instance(doc)


def test_each_load_parses_each_distinct_string_once_and_shares_nothing(tmp_path, monkeypatch):
    """Two loads of one document match the same number of strings: one per distinct scalar
    string, so nothing read by the first load is remembered by the second."""
    calls = []
    pattern = instances._SCALAR

    class Counted:
        def fullmatch(self, text):
            calls.append(text)
            return pattern.fullmatch(text)

    monkeypatch.setattr(instances, "_SCALAR", Counted())
    path = tmp_path / "doc.json"
    raw = json.loads((INSTANCES / "sl2_reynolds.json").read_text())
    path.write_text(json.dumps(raw))
    first = load_instance(str(path))
    counts = [len(calls)]
    second = load_instance(str(path))
    counts.append(len(calls) - counts[0])
    assert counts == [distinct_strings(raw)] * 2
    assert sorted(calls[: counts[0]]) == sorted(set(calls))
    assert first == second


# -- a list of remembered strings is read by look-ups alone ---------------------------

# entries that are no remembered string: bools, floats, unhashable values and bad strings
STRANGERS = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([[], ["1"], {}, None, "1.5", " 1", "1/0", "", "x", "1/-2"]),
)
# the pool's strings drawn twice as often, so lists made only of remembered strings are common
ENTRIES = st.one_of(st.sampled_from(POOL), st.sampled_from(POOL[:10]), STRANGERS)


def read(raw, length, seen=None):
    """`_parse_vector` with the memo `seen` (or a fresh one): its values, or the text of its refusal."""
    try:
        return instances._parse_vector(raw, length, "v", {} if seen is None else seen)
    except InvalidStructure as exc:
        return str(exc)


def read_alone(raw, length):
    """`parse_vector` on the list alone: its Fractions, or the text of its refusal."""
    try:
        return parse_vector(raw, length, "v")
    except InvalidStructure as exc:
        return str(exc)


def assert_read_as_alone(raw, length, seen):
    shared, fresh = read(raw, length, seen), read(raw, length)
    assert shared == fresh and [type(x) for x in shared] == [type(x) for x in fresh]
    alone = read_alone(raw, length)
    assert (shared if isinstance(shared, str) else instances._as_fractions(shared)) == alone


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(ENTRIES, max_size=4), st.integers(-1, 1)), min_size=1, max_size=8))
def test_lists_read_through_one_memo_read_as_each_alone(lists):
    """Lists read in turn through one memo give the values, or the refusal text, of each list read
    alone, whether every entry is a remembered string or not; `offset` makes some lengths wrong."""
    seen = {}
    for raw, offset in lists:
        assert_read_as_alone(raw, len(raw) + offset, seen)


@pytest.mark.parametrize(
    "raw, expected",
    [
        (["1", True], f"v: bad scalar True ({BAD_SCALAR}"),
        ([True, "1"], f"v: bad scalar True ({BAD_SCALAR}"),
        (["0", False], f"v: bad scalar False ({BAD_SCALAR}"),
        (["1", 1.0], f"v: bad scalar 1.0 ({BAD_SCALAR}"),
        (["1/2", ["1/2"]], f"v: bad scalar ['1/2'] ({BAD_SCALAR}"),
        (["1", 1], (1, 1)),
        (["0", 0, "1/2"], (0, 0, Fraction(1, 2))),
    ],
    ids=["true-after", "true-before", "false", "float", "list", "int", "ints-and-half"],
)
def test_remembered_strings_beside_a_bool_or_an_int_read_as_today(raw, expected):
    """A bool, a float or a list is refused and an int read as itself, whatever its neighbours."""
    seen = {}
    instances._parse_vector(["0", "1", "1/2"], 3, "earlier", seen)
    assert read(raw, len(raw), seen) == expected
    assert_read_as_alone(raw, len(raw), seen)


def test_remembered_strings_beside_a_long_digit_string_still_fail():
    """A list of remembered strings and one past the int-string digit limit is refused as alone."""
    seen = {}
    instances._parse_vector(["0", "1", "-1/2"], 3, "earlier", seen)
    raw = ["0", "1", "-1/2", LONG]
    assert read(raw, 4, seen) == read_alone(raw, 4) == "v: a scalar has more digits than Python converts"
    assert LONG not in seen


# -- every route to a table of exact scalars stores the table of their Fractions -------

# Python values a library caller may give: the pool's spellings, ints and Fractions
SCALARS = st.one_of(
    st.sampled_from(POOL), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def assert_fraction_route(m: Matrix, dense) -> None:
    """m stores the table and scale of the Matrix of the row-major `dense` scalars given as
    Fractions, which is the table an oracle scans from the entries; `==` and `hash` agree."""
    ref = Matrix(m.rows, m.cols, [Fraction(x) for x in dense])
    assert m.entries == ref.entries == tuple(Fraction(x) for x in dense)
    assert (m._table, m._scale) == (ref._table, ref._scale) == oracles.int_table(ref)[:2]
    assert all(type(x) is int for column in m._table.values() for x in column.values())
    assert m == ref and hash(m) == hash(ref)


def dense_columns(columns: dict, rows: int, width: int) -> list:
    """The row-major entries of a rows x width matrix given by some of its columns (the rest zero)."""
    return [columns[j][i] if j in columns else 0 for i in range(rows) for j in range(width)]


def json_key(t) -> str:
    return json.dumps([i + 1 for i in t], separators=(",", ""))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_route_stores_the_table_of_the_fraction_route(data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    raw = data.draw(st.lists(st.lists(st.sampled_from(POOL), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    flat = [x for row in raw for x in row]
    assert_fraction_route(parse_matrix(raw, rows, cols, "m"), flat)
    assert_fraction_route(parse_instance({"operator_T": raw}).operator_t, flat)
    mixed = data.draw(st.lists(SCALARS, min_size=rows * cols, max_size=rows * cols))
    assert_fraction_route(Matrix(rows, cols, mixed), mixed)

    n = data.draw(st.integers(2, 3))
    tuples, pairs = ext_basis(n, 2), [(i, j) for i in range(n) for j in range(n)]

    def values(keys, scalars):
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True))
        return {t: data.draw(st.lists(scalars, min_size=n, max_size=n)) for t in chosen}

    vee, circ = values(tuples, SCALARS), values(pairs, SCALARS)
    width = len(tuples)
    vee_dense = dense_columns({tuples.index(t): v for t, v in vee.items()}, n, width)
    circ_dense = dense_columns({i * n + j: v for (i, j), v in circ.items()}, n, n * n)
    assert_fraction_route(Cochain.from_values(2, n, n, vee).matrix, vee_dense)
    assert_fraction_route(Bilinear.from_values(n, n, circ).matrix, circ_dense)

    # the same tables read from a document, whose scalars are JSON strings and ints
    vee, circ = values(tuples, st.sampled_from(POOL)), values(pairs, st.sampled_from(POOL))
    doc = parse_instance({"ns_lie": {
        "dim": n,
        "circ": {json_key(t): v for t, v in circ.items()},
        "vee": {json_key(t): v for t, v in vee.items()},
    }})
    assert_fraction_route(doc.ns.vee.matrix, dense_columns({tuples.index(t): v for t, v in vee.items()}, n, width))
    assert_fraction_route(doc.ns.circ.matrix, dense_columns({i * n + j: v for (i, j), v in circ.items()}, n, n * n))


# -- an integer instance reaches its verdict without a Fraction ----------------------


def _r_matrix(doc):
    psi = doc.psi if doc.psi is not None else Cochain.zero(3, doc.lie_dim, 1)
    return r_matrix_check(cli._algebra(doc), doc.operator_t, psi)[0].ok


# what each command's handler computes up to its verdict (check-r-matrix also renders the
# dual bracket it found, whose entries are Fractions)
VERDICTS = {
    "check-trb": lambda doc: check_trb(cli._setup(doc), doc.operator_t).ok,
    "validate": lambda doc: cli.cmd_validate(doc, None)[0],
    "check-reynolds": lambda doc: reynolds_check(cli._algebra(doc), doc.operator_t).ok,
    "check-r-matrix": _r_matrix,
}
PASSING = [
    ("check-trb", "sl2_reynolds"),
    ("check-trb", "affine_hinv"),
    ("check-trb", "heisenberg_derivation"),
    ("validate", "affine_failing_deformation"),
    ("validate", "assoc_upper_triangular"),
    ("validate", "abelian2_ns_lie_gcs"),
    ("check-reynolds", "sl2_rb_rank1"),
    ("check-reynolds", "heis_reynolds_zero"),
    ("check-r-matrix", "abelian3_twisted_rmatrix"),
    ("check-r-matrix", "heis_reynolds_zero"),
]


@pytest.mark.parametrize("command, name", PASSING, ids=[f"{c}-{n}" for c, n in PASSING])
def test_a_passing_integer_instance_forms_no_fraction_after_loading(command, name, capsys):
    """Scalars of an integer document are read as ints: loading forms Fractions only for the
    bracket table (whose entries stay Fractions) and tests none for zero, and from the loaded
    document to the verdict no Fraction is formed or tested for zero."""
    path = INSTANCES / f"{name}.json"
    assert cli.main([command, str(path)]) == 0
    capsys.readouterr()
    calls = {"__new__": 0, "__bool__": 0}

    def counted(method):
        real = getattr(Fraction, method)

        def call(*args, **kwargs):
            calls[method] += 1
            return real(*args, **kwargs)

        return call

    with mock.patch.object(Fraction, "__new__", counted("__new__")), mock.patch.object(Fraction, "__bool__", counted("__bool__")):
        doc = load_instance(str(path))
        brackets = sum(len(v) for v in (doc.brackets or {}).values())
        assert calls["__new__"] <= brackets and calls["__bool__"] == 0
        calls.update({"__new__": 0, "__bool__": 0})
        assert VERDICTS[command](doc)
    assert calls == {"__new__": 0, "__bool__": 0}
