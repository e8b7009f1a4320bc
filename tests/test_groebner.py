"""Tests for the Groebner layer, cross-checked against sympy."""

from fractions import Fraction
from math import gcd

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pba._engine import _divisors, univariate_rational_roots
from pba.groebner import (
    GroebnerBasis,
    TermOrder,
    buchberger,
    certify,
    dimension,
    ideal_member,
    is_unit_ideal,
    normal_form,
    rational_points,
)
from pba.parser import parse
from pba.poly import Poly, X, Y, Z

SX, SY, SZ = sp.symbols("x y z")


def to_sympy(p: Poly):
    expr = sp.Integer(0)
    for (i, j, k), c in p.items():
        expr += sp.Rational(c.numerator, c.denominator) * SX**i * SY**j * SZ**k
    return sp.expand(expr)


def sympy_monic_grlex(expr):
    pb = sp.Poly(expr, SX, SY, SZ)
    lc = max(pb.terms(), key=lambda t: (sum(t[0]), t[0]))[1]
    return sp.expand(expr / lc)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(Poly)


def test_buchberger_pins():
    G = buchberger([X + Y, Y + Z])
    assert G.basis == (X - Z, Y + Z)
    # unit ideal collapses to [1]
    U = buchberger([X, X + 1])
    assert U.basis == (Poly.one(),)
    assert is_unit_ideal(U)
    # zero generators vanish; all-zero input is the zero ideal
    Zero = buchberger([Poly.zero()])
    assert Zero.basis == ()
    assert dimension(Zero) == 3
    with pytest.raises(ValueError):
        buchberger([])


def test_basis_is_reduced():
    G = buchberger([X**2 - Y, X * Y - Z, X * Z - Y**2])
    for i, b in enumerate(G.basis):
        assert b.leading_coefficient() == 1
        others = GroebnerBasis(G.generators, G.basis[:i] + G.basis[i + 1 :], G.order)
        # no term of b is divisible by another leading monomial
        rest = [o.leading_monomial() for o in others.basis]
        for m, _ in b.items():
            assert not any(all(m[t] >= lm[t] for t in range(3)) for lm in rest)


def test_normal_form_and_membership():
    G = buchberger([X * Y - 1, Y**2 - 1])
    assert ideal_member((X * Y - 1) * (X + 3) + (Y**2 - 1) * Z, G)
    assert not ideal_member(X, G)
    nf = normal_form(X * Y, G)
    assert nf == 1


def test_dimension_pins():
    assert dimension(buchberger([X, Y, Z])) == 0
    assert dimension(buchberger([X, Y])) == 1
    assert dimension(buchberger([X])) == 2
    assert dimension(buchberger([X, X + 1])) == -1


def test_certify():
    G = buchberger([X**2 + Y, X * Z + 1, Y - Z])
    assert certify(G)
    # tampering with the basis must be caught
    bad = GroebnerBasis(G.generators, G.basis[:-1], G.order)
    assert not certify(bad)
    swapped = GroebnerBasis((X,), (Y,), TermOrder.GRLEX)
    assert not certify(swapped)


def test_rational_points_pins():
    G = buchberger([X**2 - 1, Y - X, Z])
    pts = rational_points(G)
    assert pts.complete
    assert set(pts.points) == {(1, 1, 0), (-1, -1, 0)}
    assert pts.eliminants == ()


def test_rational_points_incomplete():
    G = buchberger([X**2 - 2, Y, Z])
    pts = rational_points(G)
    assert not pts.complete
    assert pts.points == ()
    assert len(pts.eliminants) == 1
    assert pts.eliminants[0].monic() == X**2 - 2


def test_rational_points_requires_dim_zero():
    with pytest.raises(ValueError):
        rational_points(buchberger([X]))


def test_rational_points_with_multiplicity():
    # double root: the point is still found once
    G = buchberger([X**2, Y - 1, Z + 2])
    pts = rational_points(G)
    assert pts.points == ((0, 1, -2),)
    assert pts.complete


def test_engine_leaves_its_inputs_alone():
    # the engine gets the term dicts of the Polys themselves, uncopied
    h = Fraction(1, 2)
    gens = [X**2 / 4 - Fraction(1, 9), Y - 3 * X / 2, 6 * Z**2 - Z * h, Poly.zero()]
    p = X**3 * Y / 7 - Z / 5 + h
    snaps = {}

    def snap(*polys):
        for q in polys:
            snaps[id(q)] = (q, dict(q.items()), hash(q))

    snap(*gens, p)
    G = buchberger(gens)
    snap(*G.basis)
    Glex = buchberger(gens, order=TermOrder.LEX)
    snap(*Glex.basis)
    for basis in (G, Glex):
        normal_form(p, basis)
        ideal_member(p, basis)
        assert certify(basis)
        assert dimension(basis) == 0
        assert rational_points(basis).points
    for q, terms, digest in snaps.values():
        assert dict(q.items()) == terms
        assert hash(q) == digest


def test_lex_order_elimination():
    G = buchberger([X - Y**2, Y - Z], order=TermOrder.LEX)
    # lex with x > y > z eliminates x first
    univ = [b for b in G.basis if b.variables() in ((2,), ())]
    assert univ == []
    assert any(b.variables() == (1, 2) for b in G.basis)


@given(st.lists(polys, min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_matches_sympy_groebner(gens):
    if all(g.is_zero() for g in gens):
        return
    ours = buchberger(gens)
    theirs = sp.groebner([to_sympy(g) for g in gens], SX, SY, SZ, order="grlex", domain="QQ")
    expected = {sympy_monic_grlex(e) for e in theirs.exprs if e != 0}
    got = {to_sympy(b) for b in ours.basis}
    assert got == expected


@given(st.lists(polys, min_size=1, max_size=3), polys)
@settings(max_examples=20, deadline=None)
def test_membership_matches_sympy(gens, p):
    if all(g.is_zero() for g in gens):
        return
    G = buchberger(gens)
    member = ideal_member(p, G)
    theirs = sp.groebner([to_sympy(g) for g in gens], SX, SY, SZ, order="grlex", domain="QQ")
    assert member == (theirs.reduce(to_sympy(p))[1] == 0)


@given(st.lists(polys, min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_certify_passes_for_computed_bases(gens):
    G = buchberger(gens)
    assert certify(G)


def trial_division_roots(coeffs):
    """Rational roots of a0 + a1*v + a2*v^2 with a0 != 0 by trial division
    over p/q, p | a0 and q | a2, and the monic residual: the reference for
    the discriminant path."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [c * den for c in coeffs]
    roots = []
    candidates = sorted(
        {sg * Fraction(p, q) for p in _divisors(abs(int(ints[0])))
         for q in _divisors(abs(int(ints[-1]))) for sg in (1, -1)}
    )
    for r in candidates:
        while len(ints) > 1:
            quot = [Fraction(0)] * (len(ints) - 1)
            acc = Fraction(0)
            for i in range(len(ints) - 1, 0, -1):
                acc = ints[i] + acc * r
                quot[i - 1] = acc
            if ints[0] + acc * r:
                break
            if r not in roots:
                roots.append(r)
            ints = quot
    return sorted(roots), [c / ints[-1] for c in ints]


def test_quadratic_roots_pins():
    F = Fraction
    # two roots, a double root, no rational root, a negative discriminant
    assert univariate_rational_roots([F(-1), F(-1), F(2)]) == ([F(-1, 2), F(1)], [F(1)])
    assert univariate_rational_roots([F(4), F(-12), F(9)]) == ([F(2, 3)], [F(1)])
    assert univariate_rational_roots([F(-2), F(0), F(1)]) == ([], [F(-2), F(0), F(1)])
    assert univariate_rational_roots([F(1, 2), F(1, 3), F(2)]) == (
        [], [F(1, 4), F(1, 6), F(1)]
    )
    # a zero root comes off first, leaving v^2 - 1
    assert univariate_rational_roots([F(0), F(-1), F(0), F(1)]) == ([F(-1), F(0), F(1)], [F(1)])


nonzero_small = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)


@given(
    st.one_of(
        # a * (v - r1) * (v - r2): rational roots, double when r1 == r2
        st.tuples(nonzero_small, nonzero_small, nonzero_small).map(
            lambda t: [t[0] * t[1] * t[2], -t[0] * (t[1] + t[2]), t[0]]
        ),
        st.tuples(nonzero_small, nonzero_small).map(lambda t: [t[0] * t[0], 2 * t[0] * t[1], t[1] * t[1]]),
        st.tuples(nonzero_small, st.fractions(-6, 6, max_denominator=6), nonzero_small).map(list),
    )
)
@settings(max_examples=200)
def test_quadratic_roots_match_trial_division(coeffs):
    assert univariate_rational_roots(coeffs) == trial_division_roots(coeffs)
