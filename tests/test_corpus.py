"""Tests for the regression corpus and the JSON report format."""

import copy
import json

import pytest

from pba.corpus import bundled_corpus_text, load_corpus, run_corpus
from pba.parser import parse
from pba.poly import Poly
from pba.serialize import SCHEMA, dumps, report_payload
from pba.spectrum import PencilParameter, spectrum_report


def test_bundled_corpus_loads():
    entries = load_corpus(bundled_corpus_text())
    assert len(entries) == 11
    names = [e.name for e in entries]
    assert "sl2" in names and "whitney" in names and "heisenberg" in names


def test_bundled_corpus_passes():
    results = run_corpus(load_corpus(bundled_corpus_text()))
    assert [r.name for r in results] == sorted(r.name for r in results)
    for r in results:
        assert r.passed, (r.name, r.diffs)
        assert r.diffs == ()


def test_wrong_expected_point_fails_with_diff():
    data = json.loads(bundled_corpus_text())
    entry = copy.deepcopy(next(e for e in data if e["name"] == "sl2"))
    entry["expected"]["maximal_points"] = [["1", "2", "3"]]
    results = run_corpus(load_corpus(json.dumps([entry])))
    assert len(results) == 1
    assert not results[0].passed
    assert any("maximal_points" in d for d in results[0].diffs)


def test_wrong_expected_multiplicity_fails():
    data = json.loads(bundled_corpus_text())
    entry = copy.deepcopy(next(e for e in data if e["name"] == "sl2"))
    entry["expected"]["height_one"]["1:0"][0]["multiplicity"] = 2
    results = run_corpus(load_corpus(json.dumps([entry])))
    assert not results[0].passed
    assert any("height_one[1:0]" in d for d in results[0].diffs)


@pytest.mark.parametrize(
    "edit, diff",
    [
        (
            lambda e: e["expected"].update(residually_null_dimension=1),
            "residually_null_dimension: expected 1, got 0",
        ),
        (
            lambda e: e["params"].remove("1:1"),
            "height_one[1:1]: parameter missing from report",
        ),
    ],
    ids=["dimension", "parameter-not-asked"],
)
def test_wrong_expected_names_the_field(edit, diff):
    data = json.loads(bundled_corpus_text())
    entry = copy.deepcopy(next(e for e in data if e["name"] == "sl2"))
    edit(entry)
    results = run_corpus(load_corpus(json.dumps([entry])))
    assert not results[0].passed
    assert results[0].diffs == (diff,)


def test_generator_comparison_ignores_rendering():
    data = json.loads(bundled_corpus_text())
    entry = copy.deepcopy(next(e for e in data if e["name"] == "sl2"))
    # same polynomial, differently written
    entry["expected"]["height_one"]["1:0"][0]["generator"] = "-1/4*z^2 + x*y"
    results = run_corpus(load_corpus(json.dumps([entry])))
    assert results[0].passed


def test_load_corpus_errors():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_corpus("{nope")
    with pytest.raises(ValueError, match="JSON array"):
        load_corpus('{"name": "x"}')
    with pytest.raises(ValueError, match="bad corpus entry"):
        load_corpus('[{"name": "broken", "s": "x +", "t": "1", "params": [], "max_deg": 2, "expected": {}}]')


@pytest.mark.parametrize("coordinate", ["1_0", True, 0.1], ids=["separator", "bool", "float"])
def test_maximal_point_coordinates_are_text_or_int(coordinate):
    # these read as 10, 1 and 3602879701896397/36028797018963968 before
    entry = next(e for e in json.loads(bundled_corpus_text()) if e["name"] == "sl2")
    entry["expected"]["maximal_points"] = [[coordinate, "0", "0"]]
    with pytest.raises(ValueError, match="bad corpus entry 'sl2': rational literal needs"):
        load_corpus(json.dumps([entry]))
    entry["expected"]["maximal_points"] = [[0, "0", 0]]
    (result,) = run_corpus(load_corpus(json.dumps([entry])))
    assert result.passed


def test_report_payload_shape():
    s = parse("1/2*z^2 - 2*x*y")
    report = spectrum_report(s, Poly.one(), [PencilParameter(1, 0)], 3)
    payload = report_payload(s, Poly.one(), 3, report)
    assert payload["schema"] == SCHEMA
    assert payload["s"] == "-2*x*y + 1/2*z^2"
    assert payload["t"] == "1"
    assert payload["residually_null"]["dimension"] == 0
    pt = payload["residually_null"]["points"][0]
    assert pt["point"] == ["0", "0", "0"]
    assert pt["kind"] == "singular_point"
    assert pt["parameter"] == "1:0"
    assert payload["height_one"]["1:0"][0]["generator"] == "x*y - 1/4*z^2"
    assert payload["flags"]["factorization_complete"] is True


def test_dumps_round_trips_byte_identically():
    s = parse("x")
    report = spectrum_report(s, parse("y"), [PencilParameter(1, -1)], 3)
    doc = dumps(report_payload(s, parse("y"), 3, report))
    assert doc.endswith("\n")
    assert json.dumps(json.loads(doc), indent=2, sort_keys=True) + "\n" == doc


def test_payload_rationals_are_strings():
    s = parse("1/2*z^2 - 2*x*y")
    report = spectrum_report(s, Poly.one(), [PencilParameter(1, "1/2")], 3)
    doc = dumps(report_payload(s, Poly.one(), 3, report))
    data = json.loads(doc)
    assert "1:1/2" in data["height_one"]


def test_expectations_compare_in_canonical_form():
    data = json.loads(bundled_corpus_text())
    entry = copy.deepcopy(next(e for e in data if e["name"] == "equitable"))
    # the same points, parameters and generators, written otherwise
    entry["params"][entry["params"].index("1:0")] = "2:0"
    expected = entry["expected"]
    expected["maximal_points"] = [["2/2", "1.0", "1"], ["-3/3", "-1", "-1"], ["1", "1", "1"]]
    expected["height_one"] = {
        ("2:8" if key == "1:4" else key): rows for key, rows in expected["height_one"].items()
    }
    expected["height_one"]["1:0"][0]["generator"] = "-z - y - x + z*y*x"
    (result,) = run_corpus(load_corpus(json.dumps([entry])))
    assert (result.passed, result.diffs) == (True, ())
    expected["maximal_points"][0] = ["2/4", "1", "1"]
    (result,) = run_corpus(load_corpus(json.dumps([entry])))
    assert result.diffs == (
        "maximal_points: expected [('-1', '-1', '-1'), ('1', '1', '1'), ('1/2', '1', '1')],"
        " got [('-1', '-1', '-1'), ('1', '1', '1')]",
    )
