"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import io
import json
import time
from pathlib import Path

import pytest

from pba import cli
from pba.cli import main
from pba.lifting import MAX_WEIGHT
from pba.parser import MAX_DIGITS, MAX_LITERAL_DIGITS, MAX_TERM_PAIRS, parse

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


def test_spectrum_text_names_eliminant_without_rational_root():
    code, out, _ = run_cli("spectrum", "--s", "x^3 - 2*x + y^2 + z^2", "--params", "1:0")
    assert code == 0
    assert "\n  no rational root: x^2 - 2/3\n" in out


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


@pytest.mark.parametrize("param", ["1e3000000:1", "1:2E5", "1" * (MAX_DIGITS + 1) + ":1"],
                         ids=["exponent", "capital-exponent", "too-long"])
def test_spectrum_param_in_exponent_notation_or_too_long_exits_2_quickly(param):
    start = time.perf_counter()
    code, out, err = run_cli("spectrum", "--s", "x", "--t", "y", "--params", param)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: --params: bad pencil parameter ") and "rational literal" in err
    # integers, fractions and decimals parse as before
    code, out, _ = run_cli("spectrum", "--s", "x", "--t", "y", "--params", "3:1,1/2:3.5,-0.25:1")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("height one")] == [
        "height one at (1:1/3):", "height one at (1:7):", "height one at (1:-4):"]


@pytest.mark.parametrize("s, params", [("\u00b2", "1:0"), ("x^\u00b2", "1:0"), ("1/\u00b2", "1:0"),
                                       ("\u0663*x", "1:0"), ("\U0001d7d9", "1:0"), ("x*y + 1", "1:\u0663"),
                                       ("x*y + 1", "1_0:1")],
                         ids=["superscript", "superscript-exponent", "superscript-denominator",
                              "arabic-indic", "mathematical-one", "arabic-indic-param", "separator-param"])
def test_non_ascii_digits_are_a_usage_error(s, params):
    # the first three ended in a traceback; the others read as 3*x, 1, 1:3
    # and 10:1
    code, out, err = run_cli("spectrum", "--s", s, "--params", params)
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("corpus_run.txt", ("corpus", "run")),
        ("corpus_run.json", ("corpus", "run", "--json")),
        # eliminant x^2 - 2: no rational root, points incomplete
        (
            "spectrum_eliminant.json",
            ("spectrum", "--json", "--s", "x^3 - 6*x + y^2 + z^2", "--params", "1:0,1:2"),
        ),
        # fractional coefficients, a 1-dimensional residually null stratum
        (
            "spectrum_fractional.json",
            ("spectrum", "--json", "--s", "1/2*x^2*y - 2/3*z + 5/7", "--t", "x + 3/4",
             "--params", "1:0,0:1,3:-2", "--max-deg", "2"),
        ),
    ],
)
def test_golden_output(golden, argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("spectrum_sl2.txt", ("--s", "1/2*z^2 - 2*x*y", "--params", "1:0,1:1,1:-2")),
        (
            "spectrum_equitable_pencil.txt",
            ("--s", "2*x + 2*y + 2*z - 2*x*y*z", "--t", "x + y + z - x*y*z + 1",
             "--params", "1:0,0:1,3:4,1:4"),
        ),
        ("spectrum_eliminant.txt", ("--s", "x^3 - 6*x + y^2 + z^2", "--params", "1:0,1:2")),
        (
            "spectrum_fractional.txt",
            ("--s", "1/2*x^2*y - 2/3*z + 5/7", "--t", "x + 3/4",
             "--params", "1:0,0:1,3:-2", "--max-deg", "2"),
        ),
        # members with rational linear factors: the factor led by y comes
        # before the one led by z; rational coefficients; the least of two
        # factors led by x first; a double root and a zero polynomial on
        # the line the factor test restricts to
        ("linear_lead_order.txt", ("--s", "(y + 2*z - 1)*(z + 3)*(x^2 + y)", "--params", "1:0")),
        (
            "linear_rational.txt",
            ("--s", "(2*x - 1)*(3*y + z - 2)*(x*y + z^2 + 1)", "--params", "1:0,1:1"),
        ),
        ("linear_least_tuple.txt", ("--s", "(x + y)*(x - y)*(x + z + 1)", "--params", "1:0")),
        ("linear_double_root.txt", ("--s", "(x - y + 1)*(x - 2*y + 3)*(z + 1)", "--params", "1:0")),
        ("linear_zero_line.txt", ("--s", "(y - 2)*(x^2 + z)", "--params", "1:0")),
    ],
)
def test_spectrum_text_golden(golden, argv):
    # the inputs of the four spectrum JSON goldens, as a text report, and
    # five members with linear factors
    code, out, err = run_cli("spectrum", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden, s", [
    ("stress_x10_y.txt", "x^10 + y"),
    ("stress_x40_yz.txt", "x^40 + y*z + 1"),
    ("stress_xyz_squared.txt", "x^2*y^2*z^2 + 1"),
    ("stress_sextic_a.txt", "(3*x*z + 3*y*z - 2*z - 1)*(3*z^2 - 2*y + 3*z)*(3*y*z + 2*z^2 - 3*x + 3)"),
    ("stress_sextic_b.txt", "(x*y - 2*y*z + x + 3)*(-3*x*y - 2*y^2 - 2*y - 2*z)*(-y^2 + 1)"),
    ("stress_sextic_c.txt", "(-x*y - x + 3)*(3*y*z - 2)*(-x*y + 2*x - 2)"),
    ("stress_three_factors.txt", "(x^2*y+z-3)*(x*y+z)*(x+1)"),
    ("stress_linear_content.txt", "(x - 1)*(x^20000 + y + z)"),
])
def test_stress_rows_answer_in_bounded_time(golden, s):
    # each of these once ran past 5 s, most of them past 20 s
    start = time.perf_counter()
    code, out, err = run_cli("spectrum", "--s", s, "--params", "1:0,1:1", "--max-deg", "3")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden, s", [
    ("huge_exponent_monomial.json", "x^100000000000000000000*y + z^2"),
    ("huge_exponent_unit.json", "x^100000000000000000000 + y"),
])
def test_huge_exponents_answer_exactly(golden, s):
    # 67-bit exponents reach the residually null basis, past the engine's
    # first field width
    start = time.perf_counter()
    code, out, err = run_cli("spectrum", "--s", s, "--params", "1:0,1:1", "--json")
    assert time.perf_counter() - start < 5
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


def decimal_value(text: str) -> int:
    """The int that a decimal string names, read in chunks that int()
    accepts at any setting of the digit limit."""
    value = 0
    for i in range(0, len(text), 500):
        chunk = text[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_integer_literal_past_the_digit_bound_is_a_usage_error():
    # one digit past the bound
    for lhs in ("1" + "0" * MAX_LITERAL_DIGITS, "x^1" + "0" * MAX_LITERAL_DIGITS):
        start = time.perf_counter()
        code, out, err = run_cli("bracket", "--f", "0", "--g", "0", "--h", "1", "--lhs", lhs, "--rhs", "y")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: --lhs: offset ")
        assert f"longer than {MAX_LITERAL_DIGITS} digits" in err


def test_spectrum_json_document_parses_back():
    # s holds 2^20001, 6021 digits: past the digit limit of int()
    argv = ("spectrum", "--s", "x^2 - 2^20000*x + y^2 + z^2", "--params", "1:0", "--json")
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    s = json.loads(out)["s"]
    assert len(s.rsplit(" - ", 1)[1].removesuffix("*x")) == 6021
    assert parse(s) == parse(argv[2])
    assert run_cli(*argv[:2], s, *argv[3:]) == (0, out, "")


def test_bracket_prints_a_coefficient_past_the_str_digit_limit():
    # {(2x)^20000, y} = 20000 * 2^20000 * x^19999: 6025 digits
    code, out, err = run_cli(
        "bracket", "--f", "0", "--g", "0", "--h", "1", "--lhs", "(2*x)^20000", "--rhs", "y"
    )
    assert (code, err) == (0, "")
    coeff, mono = out.rstrip("\n").split("*")
    assert mono == "x^19999"
    assert len(coeff) == 6025
    assert decimal_value(coeff) == 20000 * 2**20000


def test_spectrum_prints_points_past_the_str_digit_limit():
    # the singular point (2^19999, 0, 0) lies on the member s - c*t with
    # c = s(point) = -2^39998; 6021 and 12041 digits
    argv = ("spectrum", "--s", "x^2 - 2^20000*x + y^2 + z^2", "--params", "1:0")
    big, bigger = 2**19999, 2**39998
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    (point,) = doc["residually_null"]["points"]
    assert point["point"][1:] == ["0", "0"]
    assert decimal_value(point["point"][0]) == big
    assert point["parameter"].startswith("1:-")
    assert decimal_value(point["parameter"][3:]) == bigger
    head, tail = doc["s"].rsplit(" - ", 1)
    assert head == "x^2 + y^2 + z^2" and decimal_value(tail.removesuffix("*x")) == 2 * big
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert f"  point ({point['point'][0]}, 0, 0): " in out
    assert f"({doc['s']})" in out


def test_bracket_prints_an_exponent_past_the_str_digit_limit():
    # {x^(2N), y} = 2N * x^(2N - 1) with N = 10^4300 - 1: 4301 digits each
    n = "9" * MAX_DIGITS
    code, out, err = run_cli(
        "bracket", "--f", "0", "--g", "0", "--h", "1", "--lhs", f"x^{n}*x^{n}", "--rhs", "y"
    )
    assert (code, err) == (0, "")
    coeff, power = out.rstrip("\n").split("*x^")
    assert len(coeff) == len(power) == MAX_DIGITS + 1
    assert decimal_value(coeff) == 2 * decimal_value(n)
    assert decimal_value(power) == 2 * decimal_value(n) - 1


# s = x^N * x = x^(10^4300) with N = 10^4300 - 1: the height-one prime (x)
# has multiplicity 10^4300, 4301 digits
BIG_MULTIPLICITY = ("spectrum", "--s", f"x^{'9' * MAX_DIGITS}*x", "--params", "1:0")


def test_spectrum_text_prints_a_multiplicity_past_the_str_digit_limit():
    code, out, err = run_cli(*BIG_MULTIPLICITY)
    assert (code, err) == (0, "")
    row = f"  (x)  [not primitive, multiplicity 1{'0' * MAX_DIGITS}, absolutely irreducible]\n"
    assert f"height one at (1:0):\n{row}" in out


def test_spectrum_json_prints_a_multiplicity_past_the_str_digit_limit():
    code, out, err = run_cli(*BIG_MULTIPLICITY, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_int=decimal_value)
    (row,) = doc["height_one"]["1:0"]
    assert row["generator"] == "x"
    assert row["multiplicity"] == 10**MAX_DIGITS
    assert f'"multiplicity": 1{"0" * MAX_DIGITS},\n' in out


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
    code, _, err = run_cli(
        "lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "2", "--search-box", "-1"
    )
    assert code == 2
    assert err == "error: --search-box must be non-negative\n"


def test_lift_weight_above_the_bound_usage_error():
    weight = str(MAX_WEIGHT + 1)
    code, out, err = run_cli("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", weight)
    assert (code, out, err) == (2, "", f"error: --weight must be at most {MAX_WEIGHT}\n")
    code, out, err = run_cli("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "-2")
    assert (code, out, err) == (2, "", "error: --weight must be non-negative\n")


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


def test_lift_at_the_origin_of_a_huge_power_answers_at_once():
    start = time.perf_counter()
    code, out, err = run_cli("lift", "--f", "1 + x^1000000000", "--g", "1", "--h", "0", "--weight", "1")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == (
        "cycles: 0\npoint: (0, 0, 0)\nb (degree <= 1): 1\nd (degree <= 2): x + y\n"
        "conventions: d[0,0,0]=0 d[1,0,0]=1 d[2,0,0]=0\ncongruence through degree 1: verified\n"
    )


@pytest.mark.parametrize("f, note", [
    ("x^100000", "term pairs times coefficient bits past 8589934592"),
    ("x^1000000", "expansion past 1000000 term pairs"),
])
def test_lift_refuses_a_shift_past_the_product_bounds(f, note):
    start = time.perf_counter()
    code, out, err = run_cli("lift", "--f", f, "--g", "1", "--h", "0", "--weight", "1")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: translate: {note}\n")


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda e: e["expected"]["height_one"]["1:0"].append({"generator": "x"}),
         "bad corpus entry 'sl2': missing 'multiplicity'"),
        (lambda e: e["expected"]["height_one"].update({"1;0": []}),
         "bad corpus entry 'sl2': expected 'lambda:mu', got '1;0'"),
        (lambda e: e["expected"]["height_one"]["1:0"][0].update({"multiplicity": 0}),
         "bad corpus entry 'sl2': height_one[1:0]: "),
        (lambda e: e["expected"]["height_one"]["1:0"][0].update({"primitive": "yes"}),
         "bad corpus entry 'sl2': height_one[1:0]: "),
        (lambda e: e["expected"]["height_one"]["1:0"][0].update({"generator": "x +"}),
         "bad corpus entry 'sl2': offset 3"),
        (lambda e: e["expected"].update({"maximal_points": [1]}),
         "bad corpus entry 'sl2': maximal_points: "),
        (lambda e: e["expected"].update({"maximal_points": [[None, 0, 0]]}),
         "bad corpus entry 'sl2': "),
        (lambda e: e["expected"].update({"maximal_points": [["a", "0", "0"]]}),
         "bad corpus entry 'sl2': "),
        (lambda e: e["expected"].update({"maximal_points": [["1/0", "0", "0"]]}),
         "bad corpus entry 'sl2': "),
        (lambda e: e["expected"].update({"residually_null_dimension": "0"}),
         "bad corpus entry 'sl2': residually_null_dimension: "),
        (lambda e: e["expected"].update({"maximal_points": [["1e1000000000", "0", "0"]]}),
         "bad corpus entry 'sl2': rational literal "),
        (lambda e: e["expected"].update({"maximal_points": [["0", "1" * (MAX_DIGITS + 1), "0"]]}),
         "bad corpus entry 'sl2': rational literal "),
        (lambda e: e.update({"name": 1}), "bad corpus entry 1: name: "),
        (lambda e: e.update({"name": None}), "bad corpus entry None: name: "),
        (lambda e: e.update({"max_deg": True}), "bad corpus entry 'sl2': max_deg: "),
        (lambda e: e.update({"max_deg": 2.7}), "bad corpus entry 'sl2': max_deg: "),
        (lambda e: e.update({"max_deg": "3"}), "bad corpus entry 'sl2': max_deg: "),
    ],
    ids=["row-without-multiplicity", "bad-parameter-key", "zero-multiplicity",
         "string-primitive", "bad-generator", "point-not-a-row", "null-coordinate",
         "non-numeric-coordinate", "zero-denominator", "string-dimension",
         "exponent-coordinate", "long-coordinate", "int-name", "null-name",
         "bool-max-deg", "float-max-deg", "string-max-deg"],
)
def test_corpus_malformed_expected_row(tmp_path, edit, message):
    from pba.corpus import bundled_corpus_text

    entry = next(e for e in json.loads(bundled_corpus_text()) if e["name"] == "sl2")
    edit(entry)
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps([entry]))
    code, out, err = run_cli("corpus", "run", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_corpus_int_and_string_names_are_a_usage_error(tmp_path):
    # names of two types cannot be sorted together; the int one is refused
    entries = [{"name": 1, "s": "x", "t": "1", "params": ["1:0"], "expected": {}},
               {"name": "a", "s": "y", "t": "1", "params": ["1:0"], "expected": {}}]
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(entries))
    code, out, err = run_cli("corpus", "run", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad corpus entry 1: name: ")


@pytest.mark.parametrize("text", ["(x+y+z+1)^100", "(x+y+z+1)^40*(x+y+z+2)^40", "(2^250*x + 1)^999"])
def test_expansion_past_the_bound_exits_2_quickly(text):
    start = time.perf_counter()
    code, out, err = run_cli("spectrum", "--s", text, "--params", "1:0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "term pairs" in err


@pytest.mark.parametrize("s, t", [("(x+y+z+1)^40", "(x+y+z+2)^40"), ("(x+y+z+1)^18", "1")])
def test_pencil_past_the_gcd_bound_exits_2_quickly(s, t):
    # GCDHEU gives up on these gcds, and the lcm fallback's product p*q
    # passes the bound
    start = time.perf_counter()
    code, out, err = run_cli("spectrum", "--s", s, "--t", t, "--params", "1:0")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: gcd: expansion past {MAX_TERM_PAIRS} term pairs\n")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--s", "x*y + 1", "--params", "1:0", "--max-deg"),
    ("lift", "--f", "y", "--g", "-x", "--h", "0", "--weight"),
    ("lift", "--f", "y", "--g", "-x", "--h", "0", "--weight", "3", "--search-box"),
], ids=["max-deg", "weight", "search-box"])
@pytest.mark.parametrize("value", ["\u0663", "1_0", " 3"], ids=["arabic-indic", "separator", "space"])
def test_integer_options_read_only_ascii_digits(argv, value):
    # int() reads these as 3, 10 and 3
    code, out, err = run_cli(*argv, value)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {value!r}\n")
    assert run_cli(*argv, "+3")[0] == 0


@pytest.mark.parametrize("params", [(), ("--params", "1:0")], ids=["no-params", "params"])
def test_spectrum_negative_max_deg_is_a_usage_error(params):
    assert run_cli("spectrum", "--s", "x", *params, "--max-deg", "-1") == (2, "", "error: negative degree bound\n")


BIG = "(x+y+z+1)^40"  # 12341 terms: it parses, but its products pass the bound


@pytest.mark.parametrize("argv, what", [
    (("check-jacobi", "--f", BIG, "--g", BIG, "--h", "x"), "dot(F, curl F)"),
    (("lift", "--f", BIG, "--g", BIG, "--h", "x", "--weight", "2"), "dot(F, curl F)"),
    (("bracket", "--f", "1", "--g", "1", "--h", "1", "--lhs", BIG, "--rhs", "(x+y+z+2)^40"), "bracket"),
    (("bracket", "--f", BIG, "--g", "0", "--h", "0", "--lhs", BIG, "--rhs", "y*z"), "bracket"),
], ids=["check-jacobi", "lift", "bracket-gradients", "bracket-components"])
def test_products_past_the_bound_exit_2_quickly(argv, what):
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == f"error: {what}: expansion past {MAX_TERM_PAIRS} term pairs\n"


def test_corpus_missing_file():
    code, _, err = run_cli("corpus", "run", "--file", "/nonexistent/corpus.json")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("content, message", [
    (b"\x7fELF\x02\x01\x01\x00\xd0\x00", "error: cannot read corpus: 'utf-8' codec can't decode"),
    (b"[" * 100_000, "error: corpus is not valid JSON: maximum recursion depth exceeded"),
    (b'[{"max_deg": ' + b"1" * 5000 + b"}]", "error: corpus is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["binary", "deep-nesting", "long-integer"])
def test_unreadable_corpus_is_a_usage_error(tmp_path, content, message):
    bad = tmp_path / "corpus.json"
    bad.write_bytes(content)
    code, out, err = run_cli("corpus", "run", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_corpus_malformed_file(tmp_path):
    bad = tmp_path / "corpus.json"
    bad.write_text("{not json")
    code, _, err = run_cli("corpus", "run", "--file", str(bad))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("entry, message", [
    ({"s": "x*y", "t": "x", "params": ["1:0"]}, "share the non-constant factor x"),
    ({"s": "x", "t": "1", "params": ["1:0"], "max_deg": -1}, "negative degree bound"),
    ({"s": "x", "t": "1", "params": ["0:1"]}, "must be a nonzero nonunit"),
], ids=["not-coprime", "negative-max-deg", "unit-member"])
def test_corpus_entry_without_report_is_a_usage_error(tmp_path, entry, message):
    # spectrum exits 2 on the same input, and so does the corpus entry
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps([{"name": "bad", "expected": {}, **entry}]))
    code, out, err = run_cli("corpus", "run", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad corpus entry 'bad': ") and message in err
    argv = ["spectrum", "--s", entry["s"], "--t", entry["t"], "--params", entry["params"][0]]
    assert run_cli(*argv, "--max-deg", str(entry.get("max_deg", 3)))[0] == 2


@pytest.mark.parametrize("height_one", [[], None, 0], ids=["list", "null", "number"])
def test_corpus_height_one_not_an_object_is_a_usage_error(tmp_path, height_one):
    entry = {"name": "a", "s": "x", "t": "1", "params": ["1:0"], "expected": {"height_one": height_one}}
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps([entry]))
    code, out, err = run_cli("corpus", "run", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad corpus entry 'a': ")


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


def test_lift_checks_jacobi_once(monkeypatch):
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
    # the input only: the triple moved to the base point (-1, -1, -1) is
    # Poisson by the move, and the replay moves it again unchecked
    assert [tuple(map(str, F)) for F in calls] == [("x", "y", "z")]


def test_lift_bounds_only_the_products_of_its_input():
    # F's Jacobi products pass the bound; those of F moved to the base
    # point (-1, -1, 1), 8,778 terms per component, would not
    B = "(x^20*y^20*z^17 + 1)"
    start = time.perf_counter()
    code, out, err = run_cli("lift", "--f", f"{B}*y*z", "--g", f"{B}*x*z", "--h", f"{B}*x*y", "--weight", "2")
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert "point: (-1, -1, 1)\n" in out
    assert out.endswith("congruence through degree 2: verified\n")


@pytest.mark.parametrize("argv, code, out", [
    (("check-jacobi", "--f", "y^", "--g", "z", "--h", "x"), 2, ""),
    (("spectrum", "--s", "x", "--params", "1;0"), 2, ""),
    (("corpus", "run", "--file", "/nonexistent/corpus.json"), 2, ""),
    (("spectrum", "--s", "x", "--t", "x", "--params", "1:0"), 2, ""),
    (("check-jacobi", "--f", BIG, "--g", BIG, "--h", "x"), 2, ""),
    (("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "-1"), 2, ""),
    (("corpus", "run", "--file", "BAD_CORPUS"), 2, ""),
    (("lift", "--f", "y", "--g", "z", "--h", "x", "--weight", "2"), 1,
     "not Poisson: dot(F, curl F) = -x - y - z\n"),
    (("lift", "--f", "x", "--g", "y", "--h", "z", "--weight", "2", "--search-box", "0"), 1,
     "no certificate: no point with f*g != 0 found in [0, 0]^3\n"),
], ids=["bad-f", "bad-params", "unreadable-file", "not-coprime", "bound-refusal",
        "negative-weight", "bad-corpus-entry", "not-poisson", "no-base-point"])
def test_main_returns_the_exit_code(tmp_path, capsys, argv, code, out):
    # main returns the code itself, a refusal included, and writes one
    # error line for a refusal
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps([{"name": "bad", "s": "x", "t": "1", "params": ["1;0"], "expected": {}}]))
    assert cli.main([str(bad) if a == "BAD_CORPUS" else a for a in argv]) == code
    got = capsys.readouterr()
    assert got.out == out
    if code == 2:
        assert got.err.startswith("error: ") and got.err.count("\n") == 1
    else:
        assert got.err == ""
