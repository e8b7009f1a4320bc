"""Tests for the sparse polynomial core."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pba import poly
from pba.poly import (
    Poly,
    SquareFreePart,
    X,
    Y,
    Z,
    _gcd_prs,
    divides,
    exact_quotient,
    gcd,
    gcd_many,
    squarefree_decomposition,
)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, max_size=6).map(Poly)
points = st.tuples(coeffs, coeffs, coeffs)

SX, SY, SZ = sp.symbols("x y z")


def to_sympy(p: Poly):
    expr = sp.Integer(0)
    for (i, j, k), c in p.items():
        expr += sp.Rational(c.numerator, c.denominator) * SX**i * SY**j * SZ**k
    return sp.expand(expr)


def sympy_monic_grlex(expr):
    if expr == 0:
        return expr
    pb = sp.Poly(expr, SX, SY, SZ)
    lc = max(pb.terms(), key=lambda t: (sum(t[0]), t[0]))[1]
    return sp.expand(expr / lc)


def int_polys(max_degree: int, bound: int):
    """Polynomials of total degree <= max_degree with integer coefficients
    in [-bound, bound]."""
    mono = st.integers(0, max_degree).flatmap(
        lambda d: st.integers(0, d).flatmap(
            lambda i: st.integers(0, d - i).map(lambda j: (i, j, d - i - j))
        )
    )
    return st.dictionaries(mono, st.integers(-bound, bound), min_size=1, max_size=5).map(Poly)


@st.composite
def sharing_pairs(draw, max_degree: int, bound: int):
    """(A*C, B*C) with total degrees at most max_degree."""
    dc = draw(st.integers(0, max_degree // 2))
    a = draw(int_polys(max_degree - dc, bound))
    b = draw(int_polys(max_degree - dc, bound))
    c = draw(int_polys(dc, bound))
    return a * c, b * c


def test_zero_coefficients_are_dropped():
    p = Poly({(0, 0, 0): 1, (1, 0, 0): 0})
    assert len(p) == 1
    assert p.coeff((1, 0, 0)) == 0
    assert Poly({(1, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(1, 2)}) == X / 2


def test_duplicate_monomials_accumulate():
    p = Poly([((1, 0, 0), 1), ((1, 0, 0), -1)])
    assert p.is_zero()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0, 0): 1})


def test_constructors():
    assert Poly.zero().is_zero()
    assert Poly.one() == 1
    assert Poly.constant(Fraction(3, 2)).constant_term() == Fraction(3, 2)
    assert Poly.constant(0).is_zero()
    assert Poly.variable("y") == Y
    assert Poly.variable(2) == Z
    assert Poly.term(3, (1, 1, 0)) == 3 * X * Y


def test_degrees():
    assert Poly.zero().total_degree() == -1
    assert Poly.one().total_degree() == 0
    assert (X * Y * Z + X).total_degree() == 3
    assert (X**2 + Y).degree_in("x") == 2
    assert (X**2 + Y).degree_in("z") == 0
    assert (X + Y**3).variables() == (0, 1)


def test_leading_term_graded_lex():
    assert (X + Y**2).leading_monomial() == (0, 2, 0)
    # same total degree: x*y beats z^2
    assert (Z**2 + X * Y).leading_monomial() == (1, 1, 0)
    assert (2 * X**2 + Y).leading_coefficient() == 2
    with pytest.raises(ValueError):
        Poly.zero().leading_monomial()


def test_str_canonical_form():
    assert str(Poly.zero()) == "0"
    assert str(X**2 - Y) == "x^2 - y"
    assert str(-X) == "-x"
    assert str(1 - X) == "-x + 1"
    assert str(Z * Z / 2) == "1/2*z^2"
    assert str(X * Y - Z**2 / 4) == "x*y - 1/4*z^2"
    assert str(X + Y + 1) == "x + y + 1"


def test_pow():
    assert X**0 == 1
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    with pytest.raises(ValueError):
        X ** (-1)


def test_product_pins():
    # the cross terms cancel, and no zero coefficient is stored
    p = (X / 2 + Y / 3) * (X / 2 - Y / 3)
    assert p == X**2 / 4 - Y**2 / 9
    assert len(p) == 2
    assert (X + Fraction(1, 7)) * Poly.zero() == Poly.zero()
    assert (Poly.zero() * (X + 1)).is_zero()
    assert Poly.constant(Fraction(-2, 3)) * (X / 5 + 1) == -2 * X / 15 - Fraction(2, 3)


big_coeffs = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
big_monos = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
big_polys = st.dictionaries(big_monos, big_coeffs, max_size=12).map(Poly)


@given(big_polys, big_polys)
@settings(max_examples=40, deadline=None)
def test_product_matches_sympy(a, b):
    assert to_sympy(a * b) == sp.expand(to_sympy(a) * to_sympy(b))


def test_scalar_division():
    assert (2 * X) / 2 == X
    assert X / Fraction(1, 3) == 3 * X
    with pytest.raises(ZeroDivisionError):
        X / 0


def test_monic():
    assert (2 * X + 4).monic() == X + 2
    assert Poly.zero().monic().is_zero()


def test_derivative():
    p = X**2 * Y + 3 * Z
    assert p.derivative("x") == 2 * X * Y
    assert p.derivative("y") == X**2
    assert p.derivative("z") == 3
    assert Poly.constant(7).derivative("x").is_zero()


def test_evaluate():
    p = X**2 + Y * Z
    assert p.evaluate((2, 3, 4)) == 16
    assert p.evaluate((Fraction(1, 2), 0, 0)) == Fraction(1, 4)


def test_translate_pin():
    assert (X * Y).translate((1, 2, 0)) == (X + 1) * (Y + 2)
    assert (Z**2).translate((0, 0, -1)) == Z**2 - 2 * Z + 1


def test_substitute_exponents_cycle():
    tau = (1, 2, 0)
    assert X.substitute_exponents(tau) == Z
    assert Y.substitute_exponents(tau) == X
    assert Z.substitute_exponents(tau) == Y
    p = X**2 * Y + Z
    assert p.substitute_exponents(tau) == Z**2 * X + Y


def test_equality_against_scalars_and_hash():
    assert Poly.constant(5) == 5
    assert X != 5
    assert hash(X + Y) == hash(Y + X)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero()
    assert a + Poly.zero() == a
    assert a * Poly.one() == a


@given(polys, points)
def test_evaluate_is_a_ring_map(p, pt):
    q = p * p + 3 * p
    assert q.evaluate(pt) == p.evaluate(pt) ** 2 + 3 * p.evaluate(pt)


@given(polys, points)
@settings(max_examples=40)
def test_translate_matches_evaluation(p, pt):
    shifted = p.translate(pt)
    assert shifted.evaluate((0, 0, 0)) == p.evaluate(pt)
    assert shifted.translate((-pt[0], -pt[1], -pt[2])) == p


@given(polys, polys)
@settings(max_examples=40)
def test_derivative_product_rule(a, b):
    for var in range(3):
        lhs = (a * b).derivative(var)
        rhs = a.derivative(var) * b + a * b.derivative(var)
        assert lhs == rhs


def test_exact_quotient_pins():
    assert exact_quotient(X**2 - Y**2, X - Y) == X + Y
    assert exact_quotient(X**2 + Y, X - Y) is None
    assert exact_quotient(Poly.zero(), X).is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_quotient(X, Poly.zero())
    assert divides(X + Y, (X + Y) * (Z - 2))
    assert not divides(X + Y, X * Y)
    # remainder terms that cancel on the way, and a rejection after a step
    assert exact_quotient(X**3 - Y**3, X - Y) == X**2 + X * Y + Y**2
    assert exact_quotient((X + Y) ** 3 + Z, X + Y) is None
    assert exact_quotient(X**2 * Y - Y / 9, 3 * X + 1) == (X - Fraction(1, 3)) * Y / 3


@given(polys, polys)
@settings(max_examples=40)
def test_exact_quotient_inverts_multiplication(a, b):
    if b.is_zero():
        return
    q = exact_quotient(a * b, b)
    assert q == a


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_exact_quotient_matches_sympy(a, b, e):
    # one polynomial is a Groebner basis of its ideal, so b divides p
    # exactly when the remainder of p on division by b is zero
    if b.is_zero():
        return
    p = a * b + e
    q = exact_quotient(p, b)
    _, r = sp.div(to_sympy(p), to_sympy(b), SX, SY, SZ)
    assert (q is not None) == (sp.expand(r) == 0)
    if q is not None:
        assert q * b == p


def test_gcd_pins():
    assert gcd(Poly.zero(), Poly.zero()).is_zero()
    assert gcd(X, Poly.zero()) == X
    assert gcd(X**2 - Y**2, (X + Y) ** 2) == X + Y
    assert gcd(X * Y, Z) == 1
    # normalization: graded-lex leading coefficient 1
    assert gcd(2 * X + 2 * Y, 4 * X + 4 * Y) == X + Y
    assert gcd_many([X * Y * Z, X * Y, X * Z]) == X


@given(polys, polys, polys)
@settings(max_examples=25, deadline=None)
def test_gcd_divides_both(a, b, c):
    g = gcd(a * c, b * c)
    if not g.is_zero():
        assert divides(g, a * c)
        assert divides(g, b * c)
    if not (a.is_zero() and b.is_zero()):
        # the common factor c must divide the gcd
        if not c.is_zero():
            assert divides(c.monic(), g)


@given(sharing_pairs(8, 2**32))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(pair):
    f, g = pair
    assert to_sympy(gcd(f, g)) == sympy_monic_grlex(sp.gcd(to_sympy(f), to_sympy(g)))


# the fallback runs rarely and its content gcds are slow on some coprime
# pairs of degree 5 and above, so it is compared at degree <= 4
@given(sharing_pairs(4, 2**32))
@settings(max_examples=40, deadline=None)
def test_prs_fallback_matches_sympy(pair):
    f, g = pair
    ours = _gcd_prs(f, g).monic()
    assert to_sympy(ours) == sympy_monic_grlex(sp.gcd(to_sympy(f), to_sympy(g)))


def test_prs_fallback_pins():
    assert _gcd_prs(X**2 - Y**2, (X + Y) ** 2).monic() == X + Y
    assert _gcd_prs(6 * X + 4, 9 * X + 6).monic() == X + Fraction(2, 3)
    # rational contents at every level of the recursion
    p = (X * Y / 2 + Z / 3) * (Y**2 / 5 - 7 * Z)
    assert _gcd_prs(p * (X + 1), p * (X - Y)).monic() == p.monic()


def test_gcd_hands_over_to_the_prs(monkeypatch):
    monkeypatch.setattr(poly, "_HEU_TRIES", 0)
    assert gcd(X**2 - Y**2, (X + Y) ** 2) == X + Y
    assert gcd(2 * X * Z + 2 * Y * Z, 4 * X + 4 * Y) == X + Y
    assert gcd(X * Y, Z) == 1


def test_squarefree_parts_that_stalled_the_prs():
    # a pseudo-remainder sequence that took no rational contents grew
    # denominators past hundreds of digits on these products
    for f1, f2, f3 in (
        (X**2 * Y + Z - 3, X * Y + Z, X + 1),
        (X * Y - 3 * Z, -2 * Y**2 - 3 * Y * Z + 2 * X + 1, X + Y + 2),
        (X**2 + Y**2 + Z**2 - 1, X + Y + Z, X * Y * Z - 1),
    ):
        p = f1 * f2 * f3
        assert squarefree_decomposition(p) == (p.leading_coefficient(), (SquareFreePart(p.monic(), 1),))
        q = f1 * f2 * f3**2
        assert squarefree_decomposition(q) == (
            q.leading_coefficient(),
            (SquareFreePart((f1 * f2).monic(), 1), SquareFreePart(f3.monic(), 2)),
        )


def test_squarefree_decomposition_pin():
    p = 3 * X**2 * (X + Y) ** 3
    unit, parts = squarefree_decomposition(p)
    assert parts == (
        SquareFreePart(X, 2),
        SquareFreePart(X + Y, 3),
    )
    rebuilt = Poly.constant(unit)
    for part in parts:
        rebuilt = rebuilt * part.factor**part.multiplicity
    assert rebuilt == p


def test_squarefree_of_squarefree_input():
    unit, parts = squarefree_decomposition(2 * X * Y - 2)
    assert unit == 2
    assert parts == (SquareFreePart(X * Y - 1, 1),)


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly.zero())


def test_squarefree_constant():
    unit, parts = squarefree_decomposition(Poly.constant(Fraction(7, 2)))
    assert unit == Fraction(7, 2)
    assert parts == ()
