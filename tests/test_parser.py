"""Tests for the polynomial text format."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pba.parser import MAX_NESTING, ParseError, parse, render
from pba.poly import Poly, X, Y, Z

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
