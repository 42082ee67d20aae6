"""Parsing of instance documents: each distinct scalar string is parsed once per document.

`parse_instance` remembers the Fraction of every scalar string it has read
in one document; these tests pin that the remembered values equal a fresh
parse, that only equal strings share one (never a bool, a float or an int
equal to a remembered scalar), that errors keep their text and place, and
that no two loads share anything.
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

from twistrb import instances
from twistrb.errors import InvalidStructure
from twistrb.instances import load_instance, parse_instance, parse_vector

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
