"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from pba import cli
from pba.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def test_check_jacobi_true():
    code, out, _ = run_cli("check-jacobi", "--f", "y", "--g", "-x", "--h", "0")
    assert code == 0
    assert "Jacobi" in out


def test_check_jacobi_false_prints_witness():
    code, out, _ = run_cli("check-jacobi", "--f", "y", "--g", "z", "--h", "x")
    assert code == 1
    assert "-x - y - z" in out


def test_check_jacobi_parse_error():
    code, _, err = run_cli("check-jacobi", "--f", "y^", "--g", "z", "--h", "x")
    assert code == 2
    assert "--f" in err and "offset" in err


def test_bracket_pins():
    code, out, _ = run_cli(
        "bracket", "--f", "x", "--g", "y", "--h", "z", "--lhs", "x", "--rhs", "y"
    )
    assert (code, out) == (0, "z\n")
    code, out, _ = run_cli(
        "bracket", "--f", "2 - 2*y*z", "--g", "2 - 2*x*z", "--h", "2 - 2*x*y",
        "--lhs", "x", "--rhs", "y",
    )
    assert code == 0
    assert out == "-2*x*y + 2\n"
    code, out, _ = run_cli(
        "bracket", "--f", "x", "--g", "y", "--h", "z", "--lhs", "x + y", "--rhs", "x + y"
    )
    assert (code, out) == (0, "0\n")


def test_spectrum_text_report():
    code, out, _ = run_cli(
        "spectrum", "--s", "1/2*z^2 - 2*x*y", "--t", "1", "--params", "1:0,1:1"
    )
    assert code == 0
    assert "dimension 0" in out
    assert "point (0, 0, 0)" in out
    assert "x*y - 1/4*z^2" in out
    assert "primitive" in out


def test_spectrum_coordinate_pencil():
    code, out, _ = run_cli("spectrum", "--s", "x", "--t", "y", "--params", "1:0,0:1,1:-1")
    assert code == 0
    assert "dimension 1" in out
    for gen in ("(x)", "(y)", "(x + y)"):
        assert gen in out


def test_spectrum_not_coprime():
    code, _, err = run_cli("spectrum", "--s", "x", "--t", "x", "--params", "1:0")
    assert code == 2
    assert "factor" in err


def test_spectrum_default_t_is_one():
    code, out, _ = run_cli("spectrum", "--s", "1/2*z^2 - 2*x*y", "--params", "1:0")
    assert code == 0
    assert "qm_exact(-2*x*y + 1/2*z^2, 1)" in out


def test_spectrum_bad_param_syntax():
    code, _, err = run_cli("spectrum", "--s", "x", "--params", "1;0")
    assert code == 2
    assert "lambda:mu" in err


def test_spectrum_deep_nesting_is_a_usage_error():
    code, _, err = run_cli("spectrum", "--s", "(" * 3000 + "x" + ")" * 3000, "--params", "1:0")
    assert code == 2
    assert "--s" in err and "nested" in err


def test_parse_error_does_not_expect_what_it_found():
    code, _, err = run_cli("check-jacobi", "--f", "x + -y", "--g", "z", "--h", "x")
    assert code == 2
    assert "found '-'" in err and "'-', found" not in err


def test_spectrum_square_free_part_of_degree_six():
    # the pseudo-remainder sequence that used to find this gcd never finished
    code, out, _ = run_cli("spectrum", "--s", "(x^2*y+z-3)*(x*y+z)*(x+1)", "--params", "1:0")
    assert code == 0
    for gen in ("(x + 1)", "(x*y + z)", "(x^2*y + z - 3)"):
        assert gen + "  [primitive, multiplicity 1" in out
    assert "factorization_complete=true" in out


def test_spectrum_json_round_trip():
    code, out, _ = run_cli(
        "spectrum", "--s", "1/2*z^2 - 2*x*y", "--params", "1:0,1:1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "pba/1"
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize(
    "golden, argv",
    [
        # the README example
        ("spectrum_sl2.json", ("--s", "1/2*z^2 - 2*x*y", "--params", "1:0,1:1,1:-2")),
        # t != 1, two rational points, a fractional parameter
        (
            "spectrum_equitable_pencil.json",
            ("--s", "2*x + 2*y + 2*z - 2*x*y*z", "--t", "x + y + z - x*y*z + 1",
             "--params", "1:0,0:1,3:4,1:4"),
        ),
    ],
)
def test_spectrum_json_golden(golden, argv):
    code, out, err = run_cli("spectrum", *argv, "--json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_spectrum_large_linear_eliminant():
    # every eliminant is linear; trial division over the divisors of
    # N = 10^20 would take about 10^10 steps
    n = 10**20
    code, out, _ = run_cli(
        "spectrum", "--s", f"x^2 - {2 * n}*x + {n * n} + y^2 + z^2", "--params", "1:0", "--json"
    )
    assert code == 0
    points = json.loads(out)["residually_null"]["points"]
    assert [p["point"] for p in points] == [[str(n), "0", "0"]]


@pytest.mark.parametrize(
    "n, points",
    [
        (10**20 + 1, []),
        (10**40, [[str(-(10**20)), "0", "0"], [str(10**20), "0", "0"]]),
    ],
)
def test_spectrum_large_quadratic_eliminant(n, points):
    # the eliminant is x^2 - n; trial division over the divisors of n
    # would take about 10^10 or 10^20 steps
    code, out, _ = run_cli(
        "spectrum", "--s", f"1/3*x^3 - {n}*x + y^2 + z^2", "--params", "1:0", "--json"
    )
    assert code == 0
    stratum = json.loads(out)["residually_null"]
    assert [p["point"] for p in stratum["points"]] == points
    assert stratum["eliminants"] == ([] if points else [f"x^2 - {n}"])


def test_lift_certificate():
    code, out, _ = run_cli("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "4")
    assert code == 0
    assert "cycles: 0" in out
    assert "point: (-1, -1, -1)" in out
    assert "d[0,0,0]=0" in out and "d[1,0,0]=1" in out
    assert "verified" in out


def test_lift_immediate_single_component():
    code, out, _ = run_cli("lift", "--f", "1 + x^2", "--g", "0", "--h", "0", "--weight", "3")
    assert code == 0
    assert "point: (0, 0, 0)" in out
    assert "b (degree <= 3): x^2 + 1" in out
    assert "d (degree <= 4): x" in out


def test_lift_negative_weight_usage_error():
    code, _, err = run_cli("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "-2")
    assert code == 2
    assert "non-negative" in err


def test_lift_non_poisson():
    code, out, _ = run_cli("lift", "--f", "y", "--g", "z", "--h", "x", "--weight", "2")
    assert code == 1
    assert "-x - y - z" in out


def test_lift_point_search_failure():
    code, out, _ = run_cli(
        "lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "2", "--search-box", "0"
    )
    assert code == 1
    assert "no certificate" in out


def test_corpus_bundled_passes():
    code, out, _ = run_cli("corpus", "run")
    assert code == 0
    assert out.count("PASS") == 11
    assert "11/11 passed" in out


def test_corpus_detects_mismatch(tmp_path):
    data = json.loads(run_cli("corpus", "run", "--json")[1])
    assert all(e["passed"] for e in data)
    from pba.corpus import bundled_corpus_text

    entries = json.loads(bundled_corpus_text())
    target = next(e for e in entries if e["name"] == "sl2")
    target["expected"]["maximal_points"] = [["1", "1", "1"]]
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps([target]))
    code, out, _ = run_cli("corpus", "run", "--file", str(bad))
    assert code == 1
    assert "FAIL  sl2" in out
    assert "maximal_points" in out


def test_corpus_missing_file():
    code, _, err = run_cli("corpus", "run", "--file", "/nonexistent/corpus.json")
    assert code == 2
    assert "cannot read" in err


def test_corpus_malformed_file(tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text("{not json")
    code, _, err = run_cli("corpus", "run", "--file", str(bad))
    assert code == 2
    assert "not valid JSON" in err


def test_corpus_json_output():
    code, out, _ = run_cli("corpus", "run", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data) == 11
    assert all(e["passed"] and e["diffs"] == [] for e in data)


def test_unknown_command_is_usage_error():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli("check-jacobi", "--f", "y", "--g", "-x", "--h", "0")[0] == 0
        assert run_cli("frobnicate")[0] == 2
    finally:
        cli._build_parser.cache_clear()
    assert built.count("pba") == 1


def test_shared_parser_prints_what_separate_calls_print():
    calls = [
        ("spectrum", "--s", "x*y + z^2", "--max-deg", "three"),
        ("spectrum", "--s", "x^2 + y^2 + z^2", "--params", "1:0", "--json"),
        ("spectrum", "--s", "x^2 + y^2 + z^2", "--params", "1:0"),
    ]
    separate = []
    for argv in calls:
        cli._build_parser.cache_clear()
        separate.append(run_cli(*argv))
    shared = [run_cli(*argv) for argv in calls]
    assert [r[0] for r in shared] == [2, 0, 0]
    assert shared == separate


# Triples t*grad(s) - s*grad(t), one per way a certificate is found:
# f(0) g(0) != 0 lifts at the origin; f = 0 cycles the variables; F(0) = 0
# moves the base point.
LIFT_TRIPLES = {
    "origin": ("-3*x^2*y + 3*x^2 + y - 1", "x^3 - 2*z^2 - x + 1", "4*y^2*z - 4*y*z"),
    "cycled": ("0", "-27*y^2*z + 9*y^2 + 6*y*z - 2*y", "9*y^3 + 12*z^3 - 3*y^2 - 6*z^2"),
    "shifted": ("4*x^2 + 4*y*z - 4*x", "-4*x*z + 2*z", "-4*x*y + 2*y"),
}


@pytest.mark.parametrize("weight", [8, 11, 14])
@pytest.mark.parametrize("family", sorted(LIFT_TRIPLES))
def test_lift_golden(family, weight):
    f, g, h = LIFT_TRIPLES[family]
    code, out, err = run_cli("lift", "--f", f, "--g", g, "--h", h, "--weight", str(weight))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"lift_{family}_w{weight}.txt").read_text(encoding="utf-8")


def test_lift_golden_readme():
    code, out, err = run_cli("lift", "--f", "y", "--g", "-x", "--h", "0", "--weight", "4")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "lift_readme.txt").read_text(encoding="utf-8")


def test_lift_checks_jacobi_twice(monkeypatch):
    import pba.cli
    import pba.triples

    calls = []
    real = pba.triples.jacobi_witness

    def counted(F):
        calls.append(F)
        return real(F)

    monkeypatch.setattr(pba.triples, "jacobi_witness", counted)
    monkeypatch.setattr(pba.cli, "jacobi_witness", counted)
    code, _, _ = run_cli("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "3")
    assert code == 0
    # the input, and the triple translated to the base point (-1, -1, -1)
    assert len(calls) == 2
