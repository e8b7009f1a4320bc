"""Tests for bounded rational factorization."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pba import _engine, factor
from pba.factor import (FactorPart, Factorization, _linear_content, _linear_factor, _squarefree_by_content,
                        factor_bounded)
from pba.parser import parse
from pba.poly import Poly, SquareFreePart, X, Y, Z, divides, exact_quotient, gcd, squarefree_decomposition
from pba.triples import generates_poisson_ideal, qm_exact_triple

SX, SY, SZ = sp.symbols("x y z")


def to_sympy(p: Poly):
    expr = sp.Integer(0)
    for (i, j, k), c in p.items():
        expr += sp.Rational(c.numerator, c.denominator) * SX**i * SY**j * SZ**k
    return sp.expand(expr)


def rebuild(result: Factorization) -> Poly:
    p = Poly.constant(result.unit)
    for part in result.parts:
        p = p * part.factor**part.multiplicity
    return p


def as_multiset(result: Factorization):
    return {(str(part.factor), part.multiplicity) for part in result.parts}


def test_linear_and_monomial_pins():
    r = factor_bounded(6 * X * Y**2, 1)
    assert r.unit == 6
    assert as_multiset(r) == {("x", 1), ("y", 2)}
    assert r.complete

    r = factor_bounded(X**2 - 9, 1)
    assert as_multiset(r) == {("x - 3", 1), ("x + 3", 1)}
    assert r.complete
    assert all(part.absolutely_irreducible_certified for part in r.parts)


def test_unit_and_signs():
    r = factor_bounded(Poly.constant(Fraction(-3, 2)), 0)
    assert r.unit == Fraction(-3, 2)
    assert r.parts == ()
    assert r.complete
    r = factor_bounded(-X - Y, 2)
    assert r.unit == -1
    assert as_multiset(r) == {("x + y", 1)}


def test_multiplicities():
    r = factor_bounded((X + Y) ** 2 * (X - Y), 2)
    assert as_multiset(r) == {("x + y", 2), ("x - y", 1)}
    assert rebuild(r) == (X + Y) ** 2 * (X - Y)


def test_rationally_irreducible_but_not_absolutely():
    r = factor_bounded(X**2 - 2, 1)
    assert as_multiset(r) == {("x^2 - 2", 1)}
    assert r.complete
    assert not r.parts[0].absolutely_irreducible_certified


def test_absolutely_irreducible_quadric():
    r = factor_bounded(X * Y - Z**2 / 4, 1)
    assert len(r.parts) == 1
    assert r.complete
    assert r.parts[0].absolutely_irreducible_certified


def test_incomplete_under_low_bound():
    cubic = X * Y * Z - X**2 - Y**2 - Z**2
    low = factor_bounded(cubic, 1)
    assert not low.complete
    assert not low.parts[0].absolutely_irreducible_certified
    ok = factor_bounded(cubic, 2)
    assert ok.complete
    assert as_multiset(ok) == {(str(cubic.monic()), 1)}
    assert ok.parts[0].absolutely_irreducible_certified


def test_mixed_structure():
    p = X**2 * Z * (X**2 - 9) * (X + Y + 1) ** 2
    r = factor_bounded(p, 3)
    assert r.complete
    assert as_multiset(r) == {
        ("x", 2),
        ("x + y + 1", 2),
        ("x - 3", 1),
        ("x + 3", 1),
        ("z", 1),
    }
    assert rebuild(r) == p


@pytest.mark.parametrize(
    "text, parts",
    [
        # x^2 - 2*y^2 splits over Q(sqrt 2), so only its cofactor is certified
        ("(x^2 - 2*y^2)*(x^2 + y^2 + z^2 + 1)",
         [("x^2 - 2*y^2", False), ("x^2 + y^2 + z^2 + 1", True)]),
        ("(x*y - z^2)*(x^2 - 2)", [("x^2 - 2", False), ("x*y - z^2", True)]),
        ("(x^2 + y^2 + z^2 + 1)*(x*y - z^2)",
         [("x^2 + y^2 + z^2 + 1", True), ("x*y - z^2", True)]),
        ("(x*y - z^2)*(x^2 - 2)*(y + z + 1)",
         [("y + z + 1", True), ("x^2 - 2", False), ("x*y - z^2", True)]),
    ],
)
@pytest.mark.parametrize("bound", [2, 3, 4])
def test_quadratic_head_factor_flags(text, parts, bound):
    r = factor_bounded(parse(text), bound)
    assert r.complete
    assert [(str(p.factor), p.absolutely_irreducible_certified) for p in r.parts] == parts
    assert all(p.multiplicity == 1 for p in r.parts)


def test_bad_inputs():
    with pytest.raises(ValueError):
        factor_bounded(Poly.zero(), 2)
    with pytest.raises(ValueError):
        factor_bounded(X, -1)


def test_factors_of_another_member_do_not_multiply_back(monkeypatch):
    # x^2 - 4*y^2 is another member of the pencil (x^2, y^2): its factors
    # generate Poisson ideals of qm_exact(x^2, y^2) just as those of
    # x^2 - y^2 do, so only multiplying back tells the two apart
    F = qm_exact_triple(X**2, Y**2)
    other = factor._split(X**2 - 4 * Y**2, 2)
    assert all(generates_poisson_ideal(F, q) for q, _ in other[0])
    monkeypatch.setattr(factor, "_split", lambda q, bound, content: other)
    with pytest.raises(AssertionError):
        factor_bounded(X**2 - Y**2, 2)


def test_the_multiply_back_check_holds_under_python_O():
    # python -O strips assert statements; the check raises AssertionError
    # itself, so the case above fails the same way there
    probe = (
        "from pba import factor\n"
        "from pba.poly import X, Y\n"
        "other = factor._split(X**2 - 4 * Y**2, 2)\n"
        "factor._split = lambda q, bound, content: other\n"
        "assert False, '-O is off'\n"
        "try:\n"
        "    factor.factor_bounded(X**2 - Y**2, 2)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(factor.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "not the factors of x^2 - y^2\n"


@pytest.mark.parametrize("mutate", [
    lambda unit, parts: (unit, tuple(SquareFreePart(sq.factor, 1) for sq in parts)),
    lambda unit, parts: (2 * unit, parts),
], ids=["dropped-multiplicity", "scaled-unit"])
def test_a_wrong_squarefree_split_does_not_multiply_back(monkeypatch, mutate):
    real = factor.squarefree_decomposition
    monkeypatch.setattr(factor, "squarefree_decomposition", lambda p: mutate(*real(p)))
    with pytest.raises(AssertionError):
        factor_bounded(3 * (X + Y) ** 2 * (X - Y), 2)


def test_factors_divide_and_rebuild():
    p = (X * Y - 1) * (X + Z) ** 2 * 5
    r = factor_bounded(p, 2)
    for part in r.parts:
        assert divides(part.factor, p)
    assert rebuild(r) == p


linear = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)
).map(lambda t: t[0] * X + t[1] * Y + t[2] * Z + t[3])


@given(st.lists(linear, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_matches_sympy_on_products_of_linears(factors):
    p = Poly.one()
    for f in factors:
        p = p * f
    if p.is_zero():
        return
    deg = p.total_degree()
    r = factor_bounded(p, max(1, (deg + 1) // 2))
    assert r.complete
    assert rebuild(r) == p
    _, theirs = sp.factor_list(to_sympy(p), SX, SY, SZ)
    ours = sorted(
        ((sp.expand(to_sympy(part.factor)), part.multiplicity) for part in r.parts),
        key=str,
    )
    theirs_monic = []
    for f, mult in theirs:
        pb = sp.Poly(f, SX, SY, SZ)
        lc = max(pb.terms(), key=lambda t: (sum(t[0]), t[0]))[1]
        theirs_monic.append((sp.expand(f / lc), mult))
    assert ours == sorted(theirs_monic, key=str)


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=1, max_size=4,
).map(Poly))
@settings(max_examples=25, deadline=None)
def test_part_count_matches_sympy(p):
    if p.is_zero():
        return
    deg = p.total_degree()
    r = factor_bounded(p, max(1, (deg + 1) // 2))
    assert r.complete
    assert rebuild(r) == p
    _, theirs = sp.factor_list(to_sympy(p), SX, SY, SZ)
    assert sum(m for _, m in theirs) == sum(part.multiplicity for part in r.parts)


@pytest.mark.parametrize("text", [
    "x^2*y^2*z^2 + 1",
    "3*x^2*y^2*z^2 - 2*x^2*z^2 + 1/2*x*y + y^2",
    "2*x^2*y^2*z^2 + y^2*z^2 + y*z + 3",
    "(x*y - 2*y*z + x + 3)*(-3*x*y - 2*y^2 - 2*y - 2*z)*(-y^2 + 1)",
])
def test_degree_six_inputs_answer(text):
    # the unpruned degree-3 ansatz ran past 100 s on each of these; the
    # first three were drawn by test_part_count_matches_sympy
    p = parse(text)
    r = factor_bounded(p, 3)
    assert r.complete
    assert rebuild(r) == p
    _, theirs = sp.factor_list(to_sympy(p), SX, SY, SZ)
    assert sum(m for _, m in theirs) == sum(part.multiplicity for part in r.parts)


def test_newton_pruning_keeps_the_extension_flag():
    # (xyz)^2 + 1 splits over Q(i) as (xyz + i)(xyz - i): the one unknown
    # the pruned degree-3 ansatz keeps meets c^2 + 1 = 0, a proper ideal
    r = factor_bounded(parse("x^2*y^2*z^2 + 1"), 3)
    assert [(str(p.factor), p.absolutely_irreducible_certified) for p in r.parts] == [
        ("x^2*y^2*z^2 + 1", False)
    ]


@pytest.mark.parametrize(
    "p, bound, calls",
    [(X**2 - 2 * Y**2, 2, (1, 1)), ((X - Fraction(1, 2)) * (2 * Y + 3 * Z - 1), 2, (0, 0)),
     ((X**2 + Y**2 + 1) * (X + Z), 2, (1, 0))],
    ids=["x^2-2y^2", "two-linears", "quadric-times-linear"],
)
def test_one_buchberger_per_ansatz_system(monkeypatch, p, bound, calls):
    # (graded-lex, lex) Buchberger runs: one graded-lex per ansatz system,
    # and one lex for a proper ideal, whose basis the solver takes; a
    # rational linear factor builds none, so only the quadric's degree-1
    # system is left, and it is the unit ideal
    made = []
    buchberger = _engine.buchberger
    monkeypatch.setattr(_engine, "buchberger", lambda gens, key: made.append(key) or buchberger(gens, key))
    r = factor_bounded(p, bound)
    assert r.complete and rebuild(r) == p
    assert (made.count(_engine.grlex_key), made.count(_engine.lex_key)) == calls


def test_unit_ideal_is_decided_before_lex():
    # irreducible, and its degree-3 systems are unit ideals that a lex
    # basis did not reach in minutes
    p = parse("9*y*z^5 + 9*z^6 + 9*y^2*z^3 + 27*y*z^4 + 9*z^5 + 9*y^2*z^2 + 9*y*z^3 - 1")
    r = factor_bounded(p, 3)
    assert r.complete and r.unit == 9 and r.parts == (FactorPart(p.monic(), 1, True),)


def _small(free_of=None, max_terms=4):
    """Nonconstant polynomials of degree <= 3, free of variable free_of."""
    monos = [m for m in factor._monomials_upto(3) if free_of is None or not m[free_of]]
    return st.dictionaries(st.sampled_from(monos), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=max_terms).map(Poly).filter(lambda p: not p.is_constant())


@given(st.integers(0, 2).flatmap(lambda vi: st.tuples(_small(vi), _small())))
@settings(max_examples=60, deadline=None)
def test_certificate_declines_every_product(uv):
    # u is free of one variable, so u*v is linear in it whenever v is
    u, v = uv
    assert _linear_content(u * v) != 1


@pytest.mark.parametrize("text", ["x^2 + y", "x*y + 1", "x", "2*x*y*z + 3*y^2 + y*z - 1"])
def test_certified_pins(text):
    p = parse(text)
    assert _linear_content(p) == 1
    r = factor_bounded(p, 3)
    assert r.complete and as_multiset(r) == {(str(p.monic()), 1)}
    assert r.parts[0].absolutely_irreducible_certified


@pytest.mark.parametrize("text, parts", [
    ("(x + 1)*y + x + 1", [("x + 1", True), ("y + 1", True)]),
    ("y*(x^2 - 2*z^2) + x^2 - 2*z^2", [("x^2 - 2*z^2", False), ("y + 1", True)]),
])
def test_declined_pins_split(text, parts):
    p = parse(text)
    assert _linear_content(p) != 1
    r = factor_bounded(p, 3)
    assert r.complete and rebuild(r) == p
    assert sorted((str(q.factor), q.absolutely_irreducible_certified) for q in r.parts) == parts


def test_high_degree_linear_member_is_left_whole_without_search(monkeypatch):
    # x^8 + y at bound 3 is what the search gives: one part, incomplete and
    # not certified, since the bound does not reach ceil(8/2)
    monkeypatch.setattr(factor, "_ansatz_search", None)
    for text in ("x^10 + y", "x^8 + y"):
        r = factor_bounded(parse(text), 3)
        assert [(str(q.factor), q.absolutely_irreducible_certified) for q in r.parts] == [(text, False)]
        assert not r.complete
    monkeypatch.undo()
    certified = factor_bounded(parse("x^8 + y"), 3)
    monkeypatch.setattr(factor, "_linear_content", lambda q: None)
    assert factor_bounded(parse("x^8 + y"), 3) == certified


@given(st.tuples(_small(max_terms=3), _small(max_terms=3), st.integers(-2, 2)), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_certificate_gives_what_the_search_gives(parts, bound):
    u, v, c = parts
    p = u * v + c
    if p.is_zero():
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "_linear_content", lambda q: None)
        searched = factor_bounded(p, bound)
    assert factor_bounded(p, bound) == searched


def _certified_by_some_variable(q):
    """The certificate as first defined: some variable v of degree 1 with
    q = a*v + b and gcd(a, b) constant."""
    for vi in q.variables():
        if q.degree_in(vi) == 1:
            a = Poly({m[:vi] + (0,) + m[vi + 1:]: c for m, c in q.items() if m[vi]})
            b = Poly({m: c for m, c in q.items() if not m[vi]})
            if gcd(a, b).is_constant():
                return True
    return False


@given(st.one_of(
    st.tuples(_small(max_terms=3), _small(max_terms=3), st.integers(-2, 2)).map(lambda t: t[0] * t[1] + t[2]),
    st.integers(0, 2).flatmap(lambda vi: st.tuples(_small(vi), _small(vi, max_terms=2), _small(vi, max_terms=2))
                              .map(lambda t: t[0] * (t[1] * Poly.variable(vi) + t[2]))),
).filter(bool))
@settings(max_examples=80, deadline=None)
def test_content_verdict_is_the_certificate(q):
    # the first variable of degree 1 decides what any of them would
    assert (_linear_content(q) == 1) == _certified_by_some_variable(q)


def _free_of(vi, deg, max_terms):
    monos = [m for m in factor._monomials_upto(deg) if not m[vi]]
    return st.dictionaries(st.sampled_from(monos), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=max_terms).map(Poly)


@given(st.integers(0, 2).flatmap(lambda vi: st.tuples(
    st.just(vi),
    st.lists(st.tuples(_free_of(vi, 2, 3).filter(lambda p: not p.is_constant()), st.integers(1, 3)),
             min_size=1, max_size=2),
    _free_of(vi, 1, 2), _free_of(vi, 1, 2))))
@settings(max_examples=100, deadline=None)
def test_squarefree_by_content_is_the_decomposition(draw):
    # q = c*(alpha*v + beta) with c free of v, at degree <= 5 as in the
    # linear-factor differential below
    vi, powers, alpha, beta = draw
    q = prod((f**e for f, e in powers), start=Poly.one()) * (alpha * Poly.variable(vi) + beta)
    if q.total_degree() > 5:
        return
    content = _linear_content(q)
    if content is None:
        return
    assert _squarefree_by_content(q, content) == squarefree_decomposition(q)


def test_linear_content_divides_before_any_gcd(monkeypatch):
    def no_gcd(p, q):
        raise AssertionError("gcd called")

    monkeypatch.setattr(factor, "gcd", no_gcd)
    assert str(_linear_content(parse("(x + y + 1)*(y + z + 2)"))) == "y + z + 2"
    assert _linear_content(parse("x*y + z + 1")) == 1


@pytest.mark.parametrize("text", [
    "(x + y + 1)*(y + z + 2)",  # its own one part, with content y + z + 2
    "(x^2 + y^2 + 1)*(x^2 - z^2 + 2)",  # its own one part, no variable of degree 1
    "(x + y + 1)^2*(x*z + y + 2)*(x^2 + y^2 + 1)*(y + z + 2)",
])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_each_linear_content_is_computed_once(monkeypatch, text, bound):
    # the member's content settles its squarefree split, and a member that
    # is its own one part keeps it for the search
    seen = []
    real = factor._linear_content
    monkeypatch.setattr(factor, "_linear_content", lambda q: seen.append(q.monic()) or real(q))
    p = parse(text)
    assert rebuild(factor_bounded(p, bound)) == p
    assert seen[0] == p.monic() and len(seen) == len(set(seen))


def _factor_upto_2(max_terms=3):
    """Nonconstant polynomials of degree 1 or 2 (about half each) with
    <= max_terms terms and coefficients in +-3, some halves and thirds."""
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2, 3]))
    return st.integers(1, 2).flatmap(
        lambda d: st.dictionaries(st.sampled_from(factor._monomials_upto(d)), coeffs, min_size=1, max_size=max_terms)
    ).map(Poly).filter(lambda p: not p.is_constant())


@given(st.lists(_factor_upto_2(), min_size=1, max_size=3), st.sampled_from([0, 0, 0, -2, -1, 1, 2]),
       st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_linear_factor_gives_what_the_search_gives(factors, c, bound):
    # degree <= 5: a degree-6 draw can stall the search itself
    p = prod(factors, start=Poly.one()) + c
    if p.is_zero() or p.total_degree() > 5:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "_linear_factor", lambda q: None)
        searched = factor_bounded(p, bound)
    assert factor_bounded(p, bound) == searched


@pytest.mark.parametrize("text, u", [
    ("(x + y)*(x - y)*(x + z + 1)", "x - y"),
    ("(y + 2*z - 1)*(z + 3)*(x^2 + y)", "y + 2*z - 1"),
])
def test_linear_factor_pins(text, u):
    assert str(_linear_factor(parse(text).monic())[0]) == u


@pytest.mark.parametrize("text, decided", [
    ("(x + 1)*(z + 1)*(y^2 + x)", True),  # two leads: x comes first
    ("(2*x - 1)*(3*y + z - 2)*(x*y + z^2 + 1)", True),
    ("(x^2 + y^2 + 1)*(x + z)", True),
    ("x^2 - 2*y^2", True),  # no rational linear factor
    ("(x - y + 1)*(x - 2*y + 3)*(x + z + 5)", False),  # two factors share a root on the line
])
def test_linear_factor_is_the_search_factor_or_declines(text, decided):
    q = parse(text).monic()
    searched, _ = factor._ansatz_search(q, 1, factor._newton_slabs(q))
    expected = searched and (searched, exact_quotient(q, searched))
    assert _linear_factor(q) == (expected if decided else None)


@pytest.mark.parametrize("text", [
    "(x - y + 1)*(x - 2*y + 3)*(z + 1)",  # a double root on the line
    "(y - 2)*(x^2 + z)",  # zero on the line
    "x^3 + y^3 + 10^30",  # past the bound on the line's root search
    "x^1001 + y^2 + z^2",  # past the degree bound
    "(x - 2^6000)*(x + (y - 2)*x^200)",  # a root too large for its powers
])
def test_linear_factor_declines_quickly(text):
    q = parse(text).monic()
    start = time.perf_counter()
    assert _linear_factor(q) is None
    assert time.perf_counter() - start < 0.1
