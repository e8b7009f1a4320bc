"""Tests for the Groebner layer, cross-checked against sympy."""

import fractions
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from operator import le

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pba import _engine, poly
from pba._engine import _divisors, univariate_rational_roots
from pba.factor import _division_system, _monomials_upto
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
from pba.poly import Poly, X, Y, Z, grlex_key
from pba.spectrum import PencilParameter, spectrum_report

SX, SY, SZ = sp.symbols("x y z")


def to_sympy(p: Poly):
    expr = sp.Integer(0)
    for (i, j, k), c in p.items():
        expr += sp.Rational(c.numerator, c.denominator) * SX**i * SY**j * SZ**k
    return sp.expand(expr)


def sympy_monic(expr, gens=(SX, SY, SZ), order="grlex"):
    return sp.expand(expr / sp.Poly(expr, *gens).LC(order=order))


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
    # the generators reduce to zero, but their S-polynomial x - y^2 does not
    g = (X**2 - Y, X * Y - 1)
    assert not certify(GroebnerBasis(g, g, TermOrder.GRLEX))


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


def test_engine_makes_no_fraction(monkeypatch):
    # integers in, primitive integers out: the Gröbner routines neither
    # construct a Fraction nor run any code of the fractions module
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            made.append(frame.f_code.co_name)

    monkeypatch.setattr(_engine, "Fraction", counting_fraction)
    gens = [g._num for g in (4 * X**2 - 9 * Y, 6 * X * Y - 4 * Z + 2, 10 * Z**2 - 3 * X)]
    p = (X**3 * Y - 5 * Z + 7)._num
    for key in (_engine.grlex_key, _engine.lex_key):
        sys.setprofile(profile)
        try:
            basis = _engine.buchberger(gens, key)
            _engine.normal_form(p, basis, key)
            certified = _engine.certify(gens, basis, key)
        finally:
            sys.setprofile(None)
        assert made == []
        assert certified
        for b in basis:
            lead = max(b, key=key)
            assert next(iter(b)) == lead and b[lead] > 0
            assert all(type(c) is int for c in b.values()) and gcd(*b.values()) == 1
    # the counter sees the Fractions the module makes elsewhere
    _engine.solve_rational(_engine.buchberger([(2 * Z - 1)._num], _engine.lex_key), 3)
    assert made


def _lagrange(zs, values) -> Poly:
    """The polynomial in z of degree < len(zs) through (zs[i], values[i])."""
    return sum((v * prod((Z - w) / (z - w) for w in zs if w != z) for z, v in zip(zs, values)),
               Poly.zero())


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@given(st.lists(st.tuples(small_rationals, small_rationals, small_rationals),
                min_size=1, max_size=3, unique_by=lambda p: p[2]))
@settings(max_examples=40, deadline=None)
def test_rational_points_with_denominators(points):
    # <prod(z - z_i), x - X(z), y - Y(z)> vanishes exactly on the points,
    # so every root a/b is substituted with its denominator
    zs = [p[2] for p in points]
    gens = [prod((Z - z for z in zs), start=Poly.one()),
            X - _lagrange(zs, [p[0] for p in points]),
            Y - _lagrange(zs, [p[1] for p in points])]
    found = rational_points(buchberger(gens))
    assert found.complete and found.eliminants == ()
    assert found.points == tuple(sorted(points))


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
    expected = {sympy_monic(e) for e in theirs.exprs if e != 0}
    got = {to_sympy(b) for b in ours.basis}
    assert got == expected


@given(st.lists(polys, min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_lex_matches_sympy_groebner(gens):
    if all(g.is_zero() for g in gens):
        return
    ours = buchberger(gens, order=TermOrder.LEX)
    theirs = sp.groebner([to_sympy(g) for g in gens], SX, SY, SZ, order="lex", domain="QQ")
    expected = {sympy_monic(e, order="lex") for e in theirs.exprs if e != 0}
    assert {to_sympy(b) for b in ours.basis} == expected
    assert certify(ours)


def _random_factor(rng: random.Random, d: int) -> Poly:
    top = [m for m in _monomials_upto(d) if sum(m) == d]
    low = [m for m in _monomials_upto(d) if sum(m) < d]
    picks = rng.sample(top, rng.randint(1, 2)) + rng.sample(low, min(len(low), rng.randint(1, 2)))
    return Poly({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in picks})


def ansatz_systems(seed: int):
    """The factor-search systems of a seeded product q at factor degrees 1
    and 2, as (q, lead, unknowns, system): one unknown, so one ring
    variable, per monomial under each candidate lead, up to nine. Unlike
    factor._ansatz_search, the unknowns are deliberately not pruned by
    Newton polytopes, so the systems stay wide."""
    rng = random.Random(seed)
    q = (_random_factor(rng, rng.randint(1, 2)) * _random_factor(rng, 2)).monic()
    qlm = q.leading_monomial()
    for d in (1, 2):
        for m in _monomials_upto(d):
            if sum(m) == d and all(map(le, m, qlm)):
                unknowns = [u for u in _monomials_upto(d) if grlex_key(u) < grlex_key(m)]
                unknowns.sort(key=grlex_key, reverse=True)
                yield q, m, unknowns, _division_system(q, m, unknowns)


def test_division_systems_match_sympy_reduced():
    # Each member is the coefficient, a polynomial in the c's, of one x,y,z
    # monomial of the remainder of q by lm + sum c_i * u_i under grlex; the
    # members may differ from sympy's by one rational factor in all.
    for seed in range(20):
        for q, m, unknowns, system in ansatz_systems(seed):
            cs = sp.symbols(f"c0:{len(unknowns)}")
            factor = to_sympy(Poly.term(1, m)) + sum(
                c * to_sympy(Poly.term(1, u)) for c, u in zip(cs, unknowns))
            _, r = sp.reduced(to_sympy(q), [factor], SX, SY, SZ, order="grlex",
                              domain=sp.QQ[cs])
            theirs = [sp.Poly(c, *cs).as_dict()
                      for c in sp.Poly(r, SX, SY, SZ).as_dict().values()] if r else []

            def members(polys, scale):
                return Counter(frozenset((k, scale * sp.Rational(c.numerator, c.denominator))
                                         for k, c in p.items()) for p in polys)

            if not system:
                assert not theirs, seed
                continue
            k, c = next(iter(system[0].items()))
            ours = members(system, 1)
            assert any(members(theirs, c / p[k]) == ours for p in theirs if k in p), seed


def test_ansatz_systems_match_sympy_lex():
    widths = set()
    for seed in range(20):
        for _, _, unknowns, system in ansatz_systems(seed):
            n = len(unknowns)
            widths.add(n)
            cs = sp.symbols(f"c0:{n}")

            def sym(p):
                return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                                * sp.Mul(*(v**e for v, e in zip(cs, m))) for m, c in p.items()))

            # the engine returns primitive integer elements; made monic
            # under lex, they must be sympy's reduced basis term for term
            ours = _engine.buchberger(system, _engine.lex_key)
            theirs = sp.groebner([sym(p) for p in system], *cs, order="lex", domain="QQ")
            expected = {sympy_monic(e, cs, "lex") for e in theirs.exprs}
            assert {sympy_monic(sym(b), cs, "lex") for b in ours} == expected, seed
            assert _engine.certify(system, ours, _engine.lex_key), seed
    assert max(widths) == 9


def test_criteria_prune_pairs(monkeypatch):
    # Output cannot show a dropped criterion, so count the reductions: one
    # per S-polynomial reduced, plus one per basis element inter-reduced.
    calls = []
    reduce = _engine._reduce
    monkeypatch.setattr(_engine, "_reduce", lambda *args: calls.append(1) or reduce(*args))
    cases = [
        # generators, order, and S-polynomials reduced; the former
        # chain-criterion scan over the pairs done reduced 41 and 4
        ([X**2 * Y - Z**2, X * Z**2 - Y**3 + 1, Y * Z - X**2 + 2], TermOrder.LEX, 34),
        ([X + 2 * Y + 2 * Z - 1, X**2 + 2 * Y**2 + 2 * Z**2 - X, 2 * X * Y + 2 * Y * Z - Y],
         TermOrder.GRLEX, 4),
    ]
    for gens, order, pairs in cases:
        calls.clear()
        G = buchberger(gens, order)
        assert len(calls) - len(G.basis) == pairs
        assert certify(G)


@given(st.lists(polys, min_size=1, max_size=3), polys)
@settings(max_examples=20, deadline=None)
def test_membership_matches_sympy(gens, p):
    if all(g.is_zero() for g in gens):
        return
    G = buchberger(gens)
    member = ideal_member(p, G)
    theirs = sp.groebner([to_sympy(g) for g in gens], SX, SY, SZ, order="grlex", domain="QQ")
    assert member == (theirs.reduce(to_sympy(p))[1] == 0)


@given(st.lists(polys, min_size=1, max_size=2), polys)
@example([2 * X + 1], X)
@example([X * Y / 3 - Z, 2 * Y**2 + 3], X * Y**2 / 5 + Z**2)
@settings(max_examples=20, deadline=None)
def test_normal_form_matches_sympy_reduce(gens, p):
    # the remainder itself, not only whether it is zero: the reduced basis
    # makes it unique, so a scaled remainder fails
    if all(g.is_zero() for g in gens):
        return
    for order in TermOrder:
        G = buchberger(gens, order)
        theirs = sp.groebner([to_sympy(g) for g in gens], SX, SY, SZ, order=order.value, domain="QQ")
        assert to_sympy(normal_form(p, G)) == sp.expand(theirs.reduce(to_sympy(p))[1])


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


def test_substitute_pins():
    p = {(1, 2, 0, 3): 5, (0, 0, 1, 1): -2, (2, 0, 0, 0): 7}
    # 3^3 * p with the last slot at 2/3: each term scaled by 2^e * 3^(3-e)
    assert _engine.substitute(p, 3, 2, 3) == ({(1, 2, 0, 0): 40, (0, 0, 1, 0): -36, (2, 0, 0, 0): 189}, 3)
    assert _engine.substitute(p, 1, -1) == ({(1, 0, 0, 3): 5, (0, 0, 1, 1): -2, (2, 0, 0, 0): 7}, 2)
    # terms that meet on the zeroed slot add, and cancelling ones drop
    assert _engine.substitute({(0, 0, 1, 1): 2, (0, 0, 1, 0): -4}, 3, 2) == ({}, 1)
    assert p == {(1, 2, 0, 3): 5, (0, 0, 1, 1): -2, (2, 0, 0, 0): 7}


def test_quadratic_roots_pins():
    assert univariate_rational_roots([-1, -1, 2]) == ([Fraction(-1, 2), Fraction(1)], [Fraction(1)])
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


def _engine_calls(monkeypatch):
    """Every buchberger and normal_form call of the engine, with its answer,
    made by spectrum reports on 20 seeded pencils (residually null ideals,
    ansatz systems and their rational points) and by the lcm fallback of
    the gcd on their members and derivatives."""
    calls = []

    def recording(f):
        def call(*args):
            out = f(*args)
            calls.append((f, args, out))
            return out
        return call

    for module, name in ((_engine, "buchberger"), (_engine, "normal_form"), (poly, "buchberger")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    rng = random.Random(24)
    for _ in range(20):
        s = _random_factor(rng, rng.randint(1, 2)) * _random_factor(rng, 2)
        t = Poly.one() if rng.random() < 0.5 else _random_factor(rng, 1)
        if not poly.gcd(s, t).is_constant():
            continue
        spectrum_report(s, t, [PencilParameter(1, 0), PencilParameter(1, rng.choice((-1, 1, 2)))], 3)
        poly._gcd_by_lcm(s, s.derivative(0) + s.derivative(1))
    monkeypatch.undo()
    return calls


def test_bases_do_not_depend_on_the_field_width(monkeypatch):
    # replayed from the narrowest fields that hold each input, every call
    # must answer as at the default width, however often it widens
    calls = _engine_calls(monkeypatch)
    kinds = Counter(args[-1] for _, args, _ in calls)
    assert len(calls) > 150 and len(kinds) == 4
    widths = []
    layout = _engine._layout
    monkeypatch.setattr(_engine, "_MIN_BITS", 1)
    monkeypatch.setattr(_engine, "_layout", lambda *key: widths.append(key) or layout(*key))
    widened = 0
    for f, args, out in calls:
        widths.clear()
        assert f(*args) == out
        widened += len(widths) > 1
    assert widened > 50


@pytest.mark.parametrize("gens, basis", [
    # x^3 by x - y^2 leaves y^6: past the 2 bits that hold the inputs
    ([X**3, X - Y**2], [X - Y**2, Y**6]),
    # x = y^2 = z^6 turns x^2 - z into z^12 - z
    ([X**2 - Z, Y - Z**3, X - Y**2], [X - Z**6, Y - Z**3, Z**12 - Z]),
    # a 67-bit exponent passes the first width again
    ([X - Y**(2**66), X**2], [X - Y**(2**66), Y**(2**67)]),
])
def test_lex_widens_mid_computation(monkeypatch, gens, basis):
    widths = []
    layout = _engine._layout
    monkeypatch.setattr(_engine, "_MIN_BITS", 1)
    monkeypatch.setattr(_engine, "_layout", lambda *key: widths.append(key[2]) or layout(*key))
    G = buchberger(gens, TermOrder.LEX)
    assert list(G.basis) == basis
    assert len(widths) > 1 and widths == sorted(widths)
    assert certify(G)
