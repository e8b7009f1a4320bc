"""Tests for the Poisson ideal classification layer."""

import random
import sys
import time
from fractions import Fraction

import pytest

from pba import poly, triples
from pba.corpus import bundled_corpus_text, load_corpus
from pba.groebner import buchberger, dimension, ideal_member
from pba.parser import parse
from pba.poly import Poly, X, Y, Z
from pba.spectrum import (
    HeightOnePrime,
    NotCoprimeError,
    PencilParameter,
    PoissonCore,
    PointKind,
    ResiduallyNullStratum,
    SpectrumReport,
    classify_point,
    height_one_primes,
    is_poisson_simple_quotient,
    pencil_member,
    poisson_core_of_point,
    poisson_maximal_locus,
    residually_null_ideal,
    spectrum_report,
)
from pba.triples import PolyVec, generates_poisson_ideal, qm_exact_triple

SL2_S = Z**2 / 2 - 2 * X * Y


def P(lam, mu):
    return PencilParameter(lam, mu)


def test_parameter_normalization():
    assert P(2, -8) == P(1, -4)
    assert P(0, 3) == P(0, 1)
    assert P(Fraction(1, 2), 1) == P(1, 2)
    assert len({P(2, -8), P(1, -4), P(0, 1)}) == 2
    with pytest.raises(ValueError):
        P(0, 0)


def test_parameter_parse_and_str():
    assert PencilParameter.parse("1:-4") == P(1, -4)
    assert PencilParameter.parse(" 9/2 : 3 ") == P(Fraction(9, 2), 3)
    assert str(P(2, -8)) == "1:-4"
    with pytest.raises(ValueError):
        PencilParameter.parse("1;0")
    with pytest.raises(ValueError):
        PencilParameter.parse("a:b")
    with pytest.raises(ValueError):
        PencilParameter.parse("1/0:2")


def test_pencil_member():
    assert pencil_member(X, Y, P(1, 0)) == X
    assert pencil_member(X, Y, P(0, 1)) == -Y
    assert pencil_member(X, Y, P(1, -1)) == X + Y
    assert pencil_member(X, Y, P(2, -2)) == X + Y


def test_residually_null_ideal():
    F = qm_exact_triple(SL2_S, Poly.one())
    G = residually_null_ideal(F)
    assert set(G.basis) == {X, Y, Z}
    # every bracket value lies in the component ideal
    from pba.triples import bracket

    assert ideal_member(bracket(F, X**2 + Y, Z * X), G)


def test_classify_point_kinds():
    # singular point of the member through the origin
    cls = classify_point(SL2_S, Poly.one(), (0, 0, 0))
    assert cls.kind is PointKind.SINGULAR_POINT
    assert cls.parameter == P(1, 0)
    # nonsingular zero of its member
    cls = classify_point(SL2_S, Poly.one(), (1, 0, 0))
    assert cls.kind is PointKind.NOT_POISSON
    # common zero of s and t
    cls = classify_point(X, Y, (0, 0, 5))
    assert cls.kind is PointKind.COMMON_ZERO
    assert cls.parameter is None
    # fractions normalize
    cls = classify_point(X, Y, (Fraction(1, 2), 1, 0))
    assert cls.point == (Fraction(1, 2), 1, 0)


def test_classify_rejects_bad_pencils():
    with pytest.raises(NotCoprimeError):
        classify_point(X * Y, X, (0, 0, 0))
    with pytest.raises(ValueError):
        classify_point(Poly.zero(), X, (0, 0, 0))


def test_locus_dimension_zero():
    stratum = poisson_maximal_locus(SL2_S, Poly.one())
    assert stratum.dimension == 0
    assert stratum.points_complete
    assert [c.point for c in stratum.points] == [(0, 0, 0)]
    assert stratum.points[0].kind is PointKind.SINGULAR_POINT
    assert stratum.eliminants == ()


def test_locus_equitable_points():
    s = parse("2*x + 2*y + 2*z - 2*x*y*z")
    stratum = poisson_maximal_locus(s, Poly.one())
    assert stratum.dimension == 0
    pts = {c.point for c in stratum.points}
    assert pts == {(1, 1, 1), (-1, -1, -1)}
    params = {c.point: c.parameter for c in stratum.points}
    assert params[(1, 1, 1)] == P(1, 4)
    assert params[(-1, -1, -1)] == P(1, -4)
    assert all(c.kind is PointKind.SINGULAR_POINT for c in stratum.points)


def test_locus_positive_dimension():
    stratum = poisson_maximal_locus(parse("x*y^2 - z^2"), Poly.one())
    assert stratum.dimension == 1
    assert stratum.points == ()
    assert not stratum.points_complete
    got = {str(b) for b in stratum.basis.basis}
    assert got == {"x*y", "y^2", "z"}


def test_locus_unit_ideal():
    stratum = poisson_maximal_locus(parse("x + 2*y + 3*z"), Poly.one())
    assert stratum.dimension == -1
    assert stratum.points_complete
    assert [str(b) for b in stratum.basis.basis] == ["1"]


def test_height_one_primes_pins():
    primes = height_one_primes(SL2_S, Poly.one(), P(1, 0), 3)
    assert len(primes) == 1
    r = primes[0]
    assert str(r.generator) == "x*y - 1/4*z^2"
    assert r.multiplicity == 1
    assert r.primitive
    assert r.absolutely_irreducible_certified

    primes = height_one_primes(SL2_S, Poly.one(), P(1, 1), 3)
    assert [str(r.generator) for r in primes] == ["x*y - 1/4*z^2 + 1/2"]


def test_height_one_multiplicity():
    # heisenberg-style member with a square factor
    s = X**2 * Y
    primes = height_one_primes(s, Poly.one(), P(1, 0), 3)
    by_gen = {str(r.generator): r for r in primes}
    assert by_gen["x"].multiplicity == 2
    assert not by_gen["x"].primitive
    assert by_gen["y"].multiplicity == 1
    assert by_gen["y"].primitive


def test_result_flags_follow_their_sources():
    assert HeightOnePrime(X, 1, True).primitive
    assert not HeightOnePrime(X, 2, True).primitive
    origin = (Fraction(0),) * 3
    assert PoissonCore(origin, (X,)).principal
    assert not PoissonCore(origin, (X, Y, Z)).principal
    for gens, finite in (([Poly.one()], True), ([X, Y, Z], True), ([X, Y], False)):
        G = buchberger(gens)
        stratum = ResiduallyNullStratum(G, dimension(G), (), (), True)
        for complete in (True, False):
            report = SpectrumReport(stratum, {}, complete)
            assert report.zero_ideal
            assert report.flags.factorization_complete == complete
            assert report.flags.finitely_many_poisson_maximal == finite


def test_height_one_rejects_constant_member():
    with pytest.raises(ValueError, match="nonzero nonunit"):
        height_one_primes(X, X + 1, P(1, 1), 2)


def test_poisson_core_on_locus():
    core = poisson_core_of_point(SL2_S, Poly.one(), (0, 0, 0), 3)
    assert not core.principal
    assert set(core.generators) == {X, Y, Z}
    core = poisson_core_of_point(X, Y, (0, 0, 7), 3)
    assert set(core.generators) == {X, Y, Z - 7}


def test_poisson_core_off_locus():
    core = poisson_core_of_point(SL2_S, Poly.one(), (1, 0, 0), 3)
    assert core.principal
    assert [str(g) for g in core.generators] == ["x*y - 1/4*z^2"]


def test_simplicity_pins():
    for mu, expected in [(-2, True), (-1, True), (0, False), (1, True), (2, True)]:
        assert is_poisson_simple_quotient(SL2_S, Poly.one(), P(1, mu)) == expected


def test_simplicity_requires_finite_locus():
    with pytest.raises(ValueError, match="finitely many"):
        is_poisson_simple_quotient(parse("x*y^2 - z^2"), Poly.one(), P(1, 0))


def test_factor_bound_too_small_is_an_error():
    s = X**2 + Y**2 + Z**2
    with pytest.raises(ValueError, match="incomplete at degree bound 0"):
        poisson_core_of_point(s, Poly.one(), (1, 0, 0), 0)
    with pytest.raises(ValueError, match="not certified irreducible at degree bound 0"):
        is_poisson_simple_quotient(s, Poly.one(), P(1, 1), 0)


def test_spectrum_report_shape():
    report = spectrum_report(SL2_S, Poly.one(), [P(1, 0), P(2, 0), P(1, 1)], 3)
    assert report.zero_ideal
    # duplicate parameters collapse after normalization
    assert list(report.height_one) == [P(1, 0), P(1, 1)]
    assert report.flags.factorization_complete
    assert report.flags.finitely_many_poisson_maximal


def test_spectrum_report_infinite_locus_flag():
    report = spectrum_report(X, Y, [P(1, 0)], 3)
    assert not report.flags.finitely_many_poisson_maximal
    assert report.residually_null.dimension == 1


def _count_calls(monkeypatch, fn, counted):
    """Wrap fn wherever a pba module binds it; the returned list gathers
    the argument tuples of the calls that `counted` accepts."""
    calls = []

    def wrapper(*args):
        if counted(*args):
            calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "pba" or name.startswith("pba."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_spectrum_report_validates_the_pencil_once(monkeypatch):
    s, t = parse("2*x + 2*y + 2*z - 2*x*y*z"), parse("x + y + z - x*y*z + 1")
    coprime = _count_calls(monkeypatch, poly.gcd, lambda a, b: (a, b) == (s, t))
    jacobi = _count_calls(monkeypatch, triples.jacobi_witness, lambda F: True)
    report = spectrum_report(s, t, [P(1, 0), P(0, 1), P(3, 4), P(1, 4)], 3)
    assert len(report.residually_null.points) == 2
    assert (len(coprime), len(jacobi)) == (1, 1)
    # the height-one primes need the coprimality check and no bracket
    coprime.clear()
    jacobi.clear()
    height_one_primes(s, t, P(1, 4), 3)
    assert (len(coprime), len(jacobi)) == (1, 0)


_LINEAR = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _seeded_pencils(count):
    rng = random.Random(21)

    def linear():
        return Poly({m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in rng.sample(_LINEAR, 3)})

    while count:
        s, t = linear() * linear(), linear() * linear() + rng.randint(-2, 2)
        if not poly.gcd(s, t).is_constant():
            continue
        params = {P(1, 0), P(0, 1), P(rng.randint(-3, 3) or 1, rng.randint(-3, 3))}
        yield s, t, [q for q in params if not pencil_member(s, t, q).is_constant()]
        count -= 1


def test_height_one_generators_generate_poisson_ideals():
    # a theorem, so the library does not check it at run time
    pencils = [(e.s, e.t, list(e.params), e.max_deg) for e in load_corpus(bundled_corpus_text())]
    pencils += [(s, t, params, 3) for s, t, params in _seeded_pencils(20)]
    checked = 0
    for s, t, params, max_deg in pencils:
        F = qm_exact_triple(s, t)
        for primes in spectrum_report(s, t, params, max_deg).height_one.values():
            for prime in primes:
                assert generates_poisson_ideal(F, prime.generator), (s, t, prime)
                checked += 1
    assert len(pencils) == 31 and checked >= 60


def test_classify_point_past_the_gcd_bound_raises_quickly():
    s, t = parse("(x+y+z+1)^40"), parse("(x+y+z+2)^40")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="gcd: expansion past"):
        classify_point(s, t, (0, 0, 0))
    assert time.perf_counter() - start < 1


def test_spectrum_report_refuses_a_negative_degree_bound_first(monkeypatch):
    monkeypatch.setattr(triples, "require_coprime", None)
    for params in ([], [P(1, 0)]):
        with pytest.raises(ValueError, match="negative degree bound"):
            spectrum_report(X, Y, params, -1)
