"""Tests for the sparse polynomial core."""

import fractions
import math
import sys
import time
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pba import poly
from pba.parser import parse
from pba.poly import (
    Poly,
    SquareFreePart,
    X,
    Y,
    Z,
    _gcd_by_lcm,
    _gcd_heu,
    divides,
    exact_quotient,
    gcd,
    gcd_many,
    int_text,
    rat_text,
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


def test_str_power_text_around_the_table():
    assert str(X**31 * Y - 2 * Z**32) == "x^31*y - 2*z^32"
    assert str(Y**32 / 3 - X**31 + X) == "1/3*y^32 - x^31 + x"
    e = 10**4300  # past the digit limit of str
    assert str(X**e * Y**31 * Z**32 - Z) == f"x^1{'0' * 4300}*y^31*z^32 - z"


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


CAPS = (0, 1, 3, 4, 7, 8, 15, 16, 101)


def truncated(terms: dict, cap: int) -> dict:
    return {m: n for m, n in terms.items() if sum(m) <= cap}


@pytest.mark.parametrize("cap", CAPS)
def test_capped_product_pins(cap):
    # exponents equal to the cap in each slot, and terms above it
    a = {(cap, 0, 0): 2, (0, cap, 0): -3, (0, 0, cap): 5, (0, 0, 0): 1, (cap + 1, 0, 0): 7, (1, 1, cap): 4}
    b = {(0, 0, 0): -1, (0, 0, cap): 6, (1, 0, 0): 3, (0, cap + 1, 0): 9}
    assert poly.product_terms(a, b, cap) == truncated(poly.product_terms(a, b), cap)
    assert poly.product_terms(b, a, cap) == truncated(poly.product_terms(a, b), cap)


@given(st.sampled_from(CAPS), st.data())
@settings(max_examples=60, deadline=None)
def test_capped_product_is_the_truncated_product(cap, data):
    e = st.integers(0, cap + 2) | st.sampled_from((0, 1, cap, cap + 1))
    terms = st.dictionaries(st.tuples(e, e, e), st.integers(-9, 9).filter(bool), max_size=8)
    a, b = data.draw(terms), data.draw(terms)
    assert poly.product_terms(a, b, cap) == truncated(poly.product_terms(a, b), cap)


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


def test_translate_of_a_high_power_is_fast():
    start = time.perf_counter()
    p = (X**2000).translate((1, 0, 0))
    assert time.perf_counter() - start < 1
    assert len(p) == 2001
    assert all(p.coeff((r, 0, 0)) == math.comb(2000, r) for r in (0, 1, 7, 1000, 2000))


def test_translate_refuses_past_the_product_bounds():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="translate: expansion past"):
        (X**1000000).translate((1, 0, 0))
    with pytest.raises(ValueError, match="translate: term pairs times coefficient bits"):
        (X**100000 + Y).translate((-1, 2, 0))
    with pytest.raises(ValueError, match="translate: coefficient past"):
        (X**10).translate((Fraction(2**30000, 3), 0, 0))
    assert time.perf_counter() - start < 1
    # only the shifted variables count
    assert (X**1000000 + Z).translate((0, 0, 1)) == X**1000000 + Z + 1


def test_evaluate_raises_only_the_powers_present():
    p = 1 + X**(10**9) + X * Y**(10**9 + 1) / 2
    assert p.evaluate((0, 0, 0)) == 1
    assert p.evaluate((-1, -1, 7)) == Fraction(5, 2)
    assert p.evaluate((1, 0, Fraction(1, 3))) == 2


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


def test_constant_divisor_pins():
    # a constant divisor divides term by term, and any remainder refuses
    one, x, y = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    assert poly._divide({x: 6, one: -4}, {one: 2}) == {x: 3, one: -2}
    assert poly._divide({x: 6, one: -3}, {one: 2}) is None
    assert poly._divide({x: 6, y: -3}, {one: -3}) == {x: -2, y: 1}
    assert poly._divide({x: 7}, {one: -3}) is None
    assert poly._divide({}, {one: 5}) == {}


@given(st.dictionaries(monos, st.integers(-50, 50).filter(bool), max_size=6), st.integers(-7, 7).filter(bool))
def test_divide_by_a_constant_is_termwise(a, c):
    exact = all(n % c == 0 for n in a.values())
    assert poly._divide(a, {(0, 0, 0): c}) == ({m: n // c for m, n in a.items()} if exact else None)


@given(polys, coeffs.filter(bool))
def test_exact_quotient_by_a_constant(p, c):
    q = exact_quotient(p, Poly.constant(c))
    assert dict(q.items()) == {m: v / c for m, v in p.items()}


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


# The fallback runs rarely, so it is compared on its own, on the same
# draws as gcd.
@given(sharing_pairs(8, 2**32))
@settings(max_examples=60, deadline=None)
def test_lcm_fallback_matches_sympy(pair):
    f, g = pair
    ours = _gcd_by_lcm(f, g).monic()
    assert to_sympy(ours) == sympy_monic_grlex(sp.gcd(to_sympy(f), to_sympy(g)))


def test_lcm_fallback_pins():
    assert _gcd_by_lcm(X**2 - Y**2, (X + Y) ** 2).monic() == X + Y
    assert _gcd_by_lcm(6 * X + 4, 9 * X + 6).monic() == X + Fraction(2, 3)
    # rational coefficients in every factor
    p = (X * Y / 2 + Z / 3) * (Y**2 / 5 - 7 * Z)
    assert _gcd_by_lcm(p * (X + 1), p * (X - Y)).monic() == p.monic()


def test_lcm_fallback_on_coprime_pairs_that_stalled_the_prs():
    # each took seconds to minutes in the pseudo-remainder sequence that
    # was the fallback before
    a = (-17125 * X**2 * Y**3 - 12625 * X**2 * Y**2 * Z + 31375 * X * Y * Z**2
         - 7625 * X * Y**2 + 30125 * X)
    assert _gcd_by_lcm(a, -27375 * X**5 - 13375 * X + 3500 * Z + 9875).monic() == 1
    f = (X**2 + Y**2 + Z**2 - 1) * (X + Y + Z) * (X * Y * Z - 1)
    for vi in range(3):
        assert _gcd_by_lcm(f, f.derivative(vi)).monic() == 1
    a = (112560 * X**3 * Y**2 - 11538000 * Y**2 * Z**3 + 1030792150800 * X**2
         - 6134428080 * Y**2 - 102720 * Z)
    b = 132720 * X**5 + 2549520 * X**2 * Y**2 - 222960 * X**3 - 1424921040 * Y**2 * Z - 2874480
    assert _gcd_by_lcm(a, b).monic() == 1
    a = (-8023536070 * X**6 - 233018949680 * X**2 * Y**3 * Z + 237011280 * X**2 * Y**2 * Z
         + 163843797480 * Y * Z**4 + 5228520 * Y**2 * Z)
    b = (-24616680 * Y**4 * Z**2 + 99110 * X**5 - 80378690590 * X**4 * Z
         + 813055742290 * Y**2 * Z - 594660 * X)
    assert _gcd_by_lcm(a, b).monic() == 1


def test_gcd_hands_over_to_the_lcm(monkeypatch):
    monkeypatch.setattr(poly, "_HEU_TRIES", 0)
    assert gcd(X**2 - Y**2, (X + Y) ** 2) == X + Y
    assert gcd(2 * X * Z + 2 * Y * Z, 4 * X + 4 * Y) == X + Y
    assert gcd(X * Y, Z) == 1


def test_gcd_past_the_heuristic_bit_cap():
    # 3000-bit coefficients at degree <= 4: the images of the recursive
    # evaluations pass _HEU_MAX_BITS, so GCDHEU gives up and the lcm answers
    c = X**2 + 3**1900 * Y * Z + 5**1300
    f = (7**1070 * X + Y**2 - 11**870) * c
    g = (13**810 * Y * Z + X - 17**735) * c
    assert _gcd_heu(f._num, g._num) is None
    assert to_sympy(gcd(f, g)) == sympy_monic_grlex(sp.gcd(to_sympy(f), to_sympy(g)))
    assert gcd(f, g) == c.monic()


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


# -- the representation: integer numerators over one denominator -----------
#
# Each operation is checked against a plain dict[Monomial, Fraction] oracle,
# and its result against the canonical form: nonzero int numerators over a
# positive int denominator coprime to all of them, zero as ({}, 1).

mixed = st.fractions(min_value=-7, max_value=7, max_denominator=12)
oracle_polys = st.dictionaries(monos, mixed, max_size=5).map(
    lambda d: {m: c for m, c in d.items() if c})
scalars = mixed.filter(bool)
far = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))


def canonical(p: Poly) -> dict:
    """p's terms as Fractions, after asserting the canonical form."""
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert not hasattr(p, "_terms") and len(p) == len(num)
    return {m: Fraction(n, den) for m, n in num.items()}


def o_add(a, b, s=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + s * c
    return {m: c for m, c in out.items() if c}


def o_mul(a, b):
    out = {}
    for (i, j, k), c in a.items():
        for (p, q, r), d in b.items():
            m = (i + p, j + q, k + r)
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c}


def o_scale(a, c):
    return {m: v * c for m, v in a.items() if v * c}


def o_pow(a, e):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(e):
        out = o_mul(out, a)
    return out


def o_evaluate(a, point):
    x, y, z = (Fraction(v) for v in point)
    return sum(c * x**i * y**j * z**k for (i, j, k), c in a.items())


def o_lead(a):
    return max(a, key=lambda m: (sum(m), m))


def o_quotient(a, b):
    """Division by the graded-lex lead of b: the quotient, or None when a
    remainder is left."""
    a, quot = dict(a), {}
    lb = o_lead(b)
    while a:
        m = o_lead(a)
        d = tuple(x - y for x, y in zip(m, lb))
        if min(d) < 0:
            return None
        c = a[m] / b[lb]
        quot[d] = c
        a = o_add(a, o_mul({d: c}, b), -1)
    return quot


@given(oracle_polys, oracle_polys, scalars, st.integers(0, 3), st.tuples(far, far, far))
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_the_fraction_oracle(a, b, c, e, point):
    pa, pb = Poly(a), Poly(b)
    assert pa.evaluate(point) == o_evaluate(a, point)
    assert canonical(pa) == a and canonical(pb) == b
    assert canonical(pa + pb) == o_add(a, b)
    assert canonical(pa - pb) == o_add(a, b, -1)
    assert canonical(-pa) == o_scale(a, -1)
    assert canonical(pa * c) == canonical(c * pa) == o_scale(a, c)
    assert canonical(pa + c) == o_add(a, {(0, 0, 0): c})
    assert canonical(pa / c) == o_scale(a, 1 / c)
    assert canonical(pa * pb) == o_mul(a, b)
    assert canonical(pa**e) == o_pow(a, e)
    for vi in range(3):
        unit = tuple(int(k == vi) for k in range(3))
        want = {tuple(x - y for x, y in zip(m, unit)): v * m[vi] for m, v in a.items() if m[vi]}
        assert canonical(pa.derivative(vi)) == want
    if a:
        assert canonical(pa.monic()) == o_scale(a, 1 / a[o_lead(a)])


@given(oracle_polys, st.tuples(mixed, mixed, mixed))
@settings(max_examples=40, deadline=None)
def test_translate_matches_the_fraction_oracle(a, point):
    want = {}
    for (i, j, k), c in a.items():
        shifted = [o_pow({tuple(int(v == vi) for v in range(3)): Fraction(1), (0, 0, 0): s}, e)
                   if s else o_pow({tuple(int(v == vi) for v in range(3)): Fraction(1)}, e)
                   for vi, (s, e) in enumerate(zip(point, (i, j, k)))]
        want = o_add(want, o_scale(o_mul(o_mul(shifted[0], shifted[1]), shifted[2]), c))
    assert canonical(Poly(a).translate(point)) == want


@given(oracle_polys, oracle_polys, oracle_polys)
@settings(max_examples=40, deadline=None)
def test_division_and_gcd_match_the_fraction_oracle(a, b, r):
    pa, pb, pr = Poly(a), Poly(b), Poly(r)
    if b:
        assert canonical(exact_quotient(pa * pb, pb)) == a
        q = exact_quotient(pa, pb)
        want = o_quotient(a, b)
        assert (q is None) == (want is None)
        if q is not None:
            assert canonical(q) == want
    g = gcd(pa * pr, pb * pr)
    terms = canonical(g)
    if terms:
        assert terms[o_lead(terms)] == 1
        for f in (o_mul(a, r), o_mul(b, r)):
            assert o_quotient(f, terms) is not None


@given(oracle_polys)
@settings(max_examples=40, deadline=None)
def test_equal_polys_hash_equally(a):
    p = Poly(a)
    twins = [
        parse(str(p)),
        Poly(list(a.items())[::-1]),
        Poly(dict(p.items())),
        (p + X * Y) - X * Y,
        p * Fraction(3, 7) / Fraction(3, 7),
        exact_quotient(p * (X / 2 + 1), X / 2 + 1),
        (p * (X + 1)).derivative("x") - X * p.derivative("x") - p.derivative("x"),
    ]
    for q in twins:
        assert q == p and hash(q) == hash(p)
        assert (q._num, q._den) == (p._num, p._den)


def test_integer_kernels_make_no_fractions():
    made = []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
                "__new__", "_from_coprime_ints"):
            made.append(code.co_name)

    a = parse("3*x^2*y - 5*z + 7*x*y*z - 2")
    b = parse("x*y - 4*z^2 + 11")
    point = (Fraction(1, 2), -3, Fraction(2, 5))
    sys.setprofile(count)
    try:
        product = a * b
        total = a + b
        quotient = exact_quotient(product, b)
        shifted = a.translate(point)
    finally:
        sys.setprofile(None)
    assert made == []
    assert quotient == a and total == b + a
    assert shifted.evaluate((0, 0, 0)) == a.evaluate(point)
    # evaluate makes the one Fraction it returns
    sys.setprofile(count)
    try:
        value = a.evaluate(point)
    finally:
        sys.setprofile(None)
    assert made == ["__new__"] and value == Fraction(-209, 20)
    # the counter sees the Fractions made at the public edges
    sys.setprofile(count)
    try:
        a.leading_coefficient()
    finally:
        sys.setprofile(None)
    assert made


def digits_of(n: int) -> str:
    """Decimal digits of n >= 0 by repeated division, as a reference that
    str's digit limit does not apply to."""
    out = []
    while True:
        n, r = divmod(n, 10**100)
        out.append(str(r).zfill(100))
        if not n:
            return "".join(reversed(out)).lstrip("0") or "0"


@given(st.integers(0, 30000), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60)
def test_int_text_at_any_size(bits, low, negative):
    n = (1 << bits) + low
    n = -n if negative else n
    assert int_text(n) == ("-" if negative else "") + digits_of(abs(n))
    if abs(n).bit_length() < 10000:
        assert int_text(n) == str(n)


def test_int_text_pins():
    assert int_text(0) == "0"
    assert int_text(-7) == "-7"
    assert int_text(10**5000) == "1" + "0" * 5000
    assert int_text(10**5000 - 1) == "9" * 5000
    assert rat_text(Fraction(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"
    assert rat_text(Fraction(4, 6)) == "2/3"
    assert rat_text(Fraction(-5)) == "-5"
    assert str(Poly.constant(Fraction(1, 10**5000))) == "1/1" + "0" * 5000
