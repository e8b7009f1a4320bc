"""Tests for the polynomial text format."""

import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pba.parser import (
    MAX_COEFF_BITS,
    MAX_DIGITS,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_PAIR_BITS,
    MAX_TERM_PAIRS,
    ParseError,
    _power_cost,
    parse,
    rational_literal,
    render,
)
from pba.poly import Poly, X, Y, Z, int_text

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
monos = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(monos, coeffs, max_size=8).map(Poly)


def test_parse_pins():
    assert parse("0").is_zero()
    assert parse("x") == X
    assert parse("y + x") == X + Y
    assert parse("2*x*y - z^2") == 2 * X * Y - Z**2
    assert parse("1/2*z^2") == Z**2 / 2
    assert parse("-x") == -X
    assert parse("-x + y") == Y - X
    assert parse("(x + y)^2") == (X + Y) ** 2
    assert parse("3/4") == Poly.constant(Fraction(3, 4))
    assert parse(" x + 1 ") == X + 1


def test_render_pins():
    assert render(parse("y + x")) == "x + y"
    assert render(Poly.zero()) == "0"
    assert render(-2 * X + Y**3) == "y^3 - 2*x"
    assert render(X * Y - Z**2 / 4) == "x*y - 1/4*z^2"


def test_parse_error_offsets():
    with pytest.raises(ParseError) as info:
        parse("x^")
    assert info.value.offset == 2
    with pytest.raises(ParseError) as info:
        parse("x + @")
    assert info.value.offset == 4
    with pytest.raises(ParseError) as info:
        parse("")
    assert info.value.offset == 0


def test_parse_error_messages_name_the_offset():
    with pytest.raises(ParseError, match="offset 2"):
        parse("x^")


@pytest.mark.parametrize("text, offset", [("\u00b2", 0), ("x^\u00b2", 2), ("1/\u00b2", 2),
                                          ("\u0663*x", 0), ("\U0001d7d9", 0), ("1\u0663", 1)],
                         ids=["superscript", "superscript-exponent", "superscript-denominator",
                              "arabic-indic", "mathematical-one", "after-ascii"])
def test_only_ascii_digits_are_digits(text, offset):
    # str.isdigit holds for each of these, and int() reads the last three
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == offset


def test_rational_literal_reads_only_ascii_digits():
    assert rational_literal("-3/4") == Fraction(-3, 4)
    for text in ("\u0663", "1/\u0663", "\U0001d7d9"):
        with pytest.raises(ValueError, match="ASCII digits"):
            rational_literal(text)


def test_rational_literal_refuses_separators_bools_and_floats():
    # Fraction reads these as 10, 1/10, 1, 0 and 3602879701896397/36028797018963968
    for value in ("1_0", "1/1_0", True, False, 0.1):
        with pytest.raises(ValueError, match="rational literal needs"):
            rational_literal(value)
    assert rational_literal(10) == rational_literal("10") == Fraction(10)


def test_nonconstant_division_rejected():
    with pytest.raises(ParseError):
        parse("x/y")
    with pytest.raises(ParseError):
        parse("1/0")


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x^-2")


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse("2x")


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        parse("(x + y")
    with pytest.raises(ParseError):
        parse("x + y)")


def test_nesting_past_the_limit_is_a_parse_error():
    assert parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == X
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested") as info:
            parse("(" * depth + "x" + ")" * depth)
        assert info.value.offset == MAX_NESTING


def test_high_power_expands_in_bounded_time():
    p = parse("(x+y+z+1)^40")
    assert len(p) == 12341
    assert p.coeff((40, 0, 0)) == 1
    assert p.coeff((10, 10, 10)) == factorial(40) // factorial(10) ** 4
    # under MAX_PAIR_BITS, 999,000 term pairs of up to 1998 bits
    p = parse("(2*x+1)^999")
    assert len(p) == 1000
    assert p.coeff((999, 0, 0)) == 2**999 and p.coeff((1, 0, 0)) == 2 * 999


def test_expansion_is_bounded_before_it_runs():
    # (x+y+z+1)^k has C(k+3, 3) terms, and x^(k+1) = x^k * x pairs them all
    assert _power_cost(parse("x+y+z+1"), 40) == (4 * comb(43, 4), comb(43, 3))
    assert _power_cost(parse("x^10+1"), 5) == (2 * (1 + 2 + 3 + 4 + 5), 6)
    for text in ("(x+y+z+1)^60", "(x+y)^2000", "(x+y+z+1)^20*(x+y+z+1)^30"):
        with pytest.raises(ParseError, match=f"past {MAX_TERM_PAIRS} term pairs"):
            parse(text)
    # a single term is raised directly, at any exponent
    assert parse("(2*x*y)^100000").leading_monomial() == (100000, 100000, 0)


@pytest.mark.parametrize("text, offset", [
    ("3^16000000", 2),
    ("2^1000000000000", 2),
    ("(2*x)^1000000000000", 6),
    ("(1/2*x)^300000", 8),
    ("(2^1000*x + 1)^300", 15),
    ("*".join(["2^999999"] * 40), 2),
    ("2^200000*2^200000", 8),
    ("(2^200000 + x)*(2^200000 + y)", 14),
])
def test_coefficient_growth_is_bounded_before_it_runs(text, offset):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"offset {offset}: coefficient past {MAX_COEFF_BITS} bits"):
        parse(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text, offset", [
    ("(2^250*x + 1)^999", 14),
    ("(2^100*x + 1)^999", 14),
    ("(2^250*x + 1)^500", 14),
    ("(2^1000*x + 1)^261", 15),
    ("(x+y+z+1)^10*2^200000*(x+y+z+1)^10", 21),
])
def test_pairs_times_bits_is_bounded_before_it_runs(text, offset):
    # each of these holds MAX_TERM_PAIRS and MAX_COEFF_BITS
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"offset {offset}: term pairs times coefficient bits past {MAX_PAIR_BITS}"):
        parse(text)
    assert time.perf_counter() - start < 1


def test_coefficients_up_to_the_bound_parse():
    half = MAX_COEFF_BITS // 2
    assert parse(f"2^{MAX_COEFF_BITS}") == Poly.constant(2**MAX_COEFF_BITS)
    assert parse(f"2^{half}*(2^{half}*x + 1)") == 2**MAX_COEFF_BITS * X + 2**half
    assert parse(f"(1/2*x)^{MAX_COEFF_BITS}") == Fraction(1, 2**MAX_COEFF_BITS) * X**MAX_COEFF_BITS
    # no power of 0, 1 or -1 grows a coefficient, at any exponent
    n = "9" * MAX_DIGITS
    assert parse(f"0^{n}") == parse("(x - x)^5") == Poly.zero()
    assert parse(f"1^{n}") == -parse(f"(-1)^{n}") == parse("0^0") == Poly.one()


def test_integer_literals_are_bounded_in_length():
    # the digits of 2^MAX_COEFF_BITS, which parses and so must parse back
    assert MAX_LITERAL_DIGITS == len(render(Poly.constant(2**MAX_COEFF_BITS))) == 78914
    assert parse("1" + "0" * (MAX_LITERAL_DIGITS - 1)) == Poly.constant(10 ** (MAX_LITERAL_DIGITS - 1))
    assert parse("x^0" + "0" * (MAX_LITERAL_DIGITS - 1)) == Poly.one()
    long = "9" * (MAX_LITERAL_DIGITS + 1)
    for text, offset in ((long, 0), (f"x + 1/{long}", 6), (f"x^{long}", 2)):
        with pytest.raises(ParseError, match=f"offset {offset}: integer literal longer than {MAX_LITERAL_DIGITS} digits"):
            parse(text)


def test_sums_are_bounded_like_literals():
    # the sum of two literals within the bound can print a longer one
    big, half = 10 ** (MAX_LITERAL_DIGITS - 1), 10 ** ((MAX_LITERAL_DIGITS - 1) // 2)
    fractions = f"1/{int_text(big + 1)} + 1/{int_text(big + 3)}"
    for text, offset in ((fractions, MAX_LITERAL_DIGITS + 3), ("9" * MAX_LITERAL_DIGITS + " + 1", MAX_LITERAL_DIGITS + 1)):
        with pytest.raises(ParseError, match=f"offset {offset}: sum with a numerator or denominator longer than"):
            parse(text)
    for text in ("9" * (MAX_LITERAL_DIGITS - 1) + " + 1", f"1/{int_text(half + 1)} - 1/{int_text(half + 3)}"):
        p = parse(text)
        assert parse(str(p)) == p


@pytest.mark.parametrize("n", [7 * 10**638 + 1, 7 * 10**639 + 1, 7 * 10**4300 + 1, 2**20001, 2**MAX_COEFF_BITS],
                         ids=["639", "640", "4301", "6021", "78914"])
def test_literals_past_the_int_digit_limit_convert_by_pieces(n):
    text = render(Poly.constant(n) * X + Fraction(1, n))
    assert parse(text) == n * X + Fraction(1, n)
    assert render(parse(text)) == text


def test_minus_is_expected_only_where_an_expression_starts():
    for text in ("x + -y", "x*-y"):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.found == "'-'"
        assert "'-'" not in info.value.expected
    for text in ("", "(*"):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "'-'" in info.value.expected


@given(polys)
def test_round_trip(p):
    assert parse(render(p)) == p


@given(polys)
def test_render_is_stable(p):
    assert render(parse(render(p))) == render(p)


def test_str_agrees_with_render():
    p = parse("x*y - 1/4*z^2 + 3")
    assert str(p) == render(p)
