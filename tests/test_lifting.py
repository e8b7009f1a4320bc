"""Tests for truncated series and completion-exactness certificates."""

import fractions
import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pba.lifting
from pba.lifting import (
    MAX_WEIGHT,
    CmCertificate,
    LiftResult,
    PointSearchError,
    TruncatedSeries,
    cm_certificate,
    lift_at_origin,
    truncate,
    verify_certificate,
    verify_lift,
)
from pba.poly import Poly, X, Y, Z
from pba.triples import PolyVec, cycle_variables, grad, qm_exact_triple, translate_variables, verify_triple

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, max_size=5).map(Poly)


def series(p: Poly, cap: int) -> TruncatedSeries:
    return truncate(p, cap)


def test_truncate_pins():
    s = truncate(X**3 + X + 1, 2)
    assert s.poly == X + 1
    assert s.cap == 2
    assert s.poly.coeff((1, 0, 0)) == 1
    assert s.poly.coeff((3, 0, 0)) == 0
    assert truncate(Poly.zero(), 4).poly.is_zero()
    assert str(s) == "x + 1"


def test_series_arithmetic():
    a = series(X + Y, 3)
    b = series(X * Y, 3)
    # products drop terms beyond the cap
    assert (a * b).poly == X**2 * Y + X * Y**2
    c = series(X**2, 3)
    assert (b * c).poly.is_zero()


def test_series_constructor_validates_like_poly():
    assert TruncatedSeries(X + Fraction(1, 2), 2) == truncate(X + Fraction(1, 2) + 2 * X**3, 2)
    with pytest.raises(ValueError):
        TruncatedSeries(Poly({("a", 0, 0): 1}), 3)
    with pytest.raises(ValueError):
        TruncatedSeries(Poly({(-1, 0, 0): 1}), 3)
    with pytest.raises(ValueError, match="non-negative"):
        TruncatedSeries(X, -1)
    with pytest.raises(ValueError, match="non-negative"):
        truncate(X, -1)
    # the constructor does not chop: a term above the cap is an error
    with pytest.raises(ValueError, match="degree 3 above the cap 2"):
        TruncatedSeries(X + 2 * X**3, 2)


def test_series_cap_mismatch():
    with pytest.raises(ValueError, match="cap mismatch"):
        series(X, 2) * series(Y, 1)


def test_series_derivative():
    s = series(X**2 + Y * Z + 5, 2)
    d = s.derivative("x")
    assert d.cap == 1
    assert d.poly == 2 * X
    assert series(Poly.constant(3), 0).derivative("z").cap == 0


def test_series_equality_and_hash():
    assert series(X, 2) == series(X, 2)
    assert series(X, 2) != series(X, 3)
    assert hash(series(X, 2)) == hash(series(X, 2))


@given(polys, polys, st.integers(0, 4))
@settings(max_examples=30)
def test_series_mul_matches_truncated_poly_mul(p, q, cap):
    a, b = series(p, cap), series(q, cap)
    assert a * b == truncate(p * q, cap)


def convolution(a: TruncatedSeries, b: TruncatedSeries) -> dict:
    """The product coefficients by a plain Fraction convolution."""
    out: dict = {}
    for ma, ca in a.poly.items():
        for mb, cb in b.poly.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= a.cap:
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


@given(polys, polys, st.integers(0, 5))
@settings(max_examples=40)
def test_series_mul_matches_fraction_convolution(p, q, cap):
    a, b = series(p, cap), series(q, cap)
    assert dict((a * b).poly.items()) == convolution(a, b)


def test_series_mul_cancellation():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # the x*y terms cancel; no zero coefficient is kept
    a = series(half * X + third * Y, 2) * series(half * X - third * Y, 2)
    assert dict(a.poly.items()) == {(2, 0, 0): Fraction(1, 4), (0, 2, 0): Fraction(-1, 9)}
    # (1 + x/2)(1 - x/2 + x^2/4 - x^3/8) = 1 - x^4/16: all but 1 cancels or is cut
    b = series(1 + half * X, 3) * series(1 - half * X + X**2 / 4 - X**3 / 8, 3)
    assert dict(b.poly.items()) == {(0, 0, 0): Fraction(1)}
    assert (series(X**2 / 3, 3) * series(Y**2 / 5, 3)).poly.is_zero()
    assert (series(Poly.zero(), 3) * series(X / 7, 3)).poly.is_zero()
    with pytest.raises(ValueError, match="cap mismatch"):
        series(X / 2, 2) * series(Y / 3, 3)


@pytest.mark.parametrize("other", [2, X, Poly.constant(2)], ids=["int", "poly", "constant"])
def test_series_times_a_non_series_is_a_type_error(other):
    a = truncate(X + 1, 2)
    with pytest.raises(TypeError):
        a * other
    with pytest.raises(TypeError):
        other * a


@given(polys, polys, polys, st.integers(0, 4))
@settings(max_examples=30)
def test_series_ring_axioms(p, q, r, cap):
    a, b, c = series(p, cap), series(q, cap), series(r, cap)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert series(p + q, cap) * c == series((p + q) * r, cap)


def test_lift_requires_nonzero_constants():
    with pytest.raises(ValueError, match="weight"):
        lift_at_origin(PolyVec(Poly.one(), Poly.one(), Poly.one()), -1)
    with pytest.raises(ValueError, match="constant"):
        lift_at_origin(verify_triple(PolyVec(X, Y, Z)), 3)


def test_lift_reproduces_engineered_data():
    # F = b * grad(d) for polynomial b, d satisfying the conventions
    b0 = 1 + X
    d0 = X + Y + Z**2
    F = grad(d0).scale(b0)
    result = lift_at_origin(verify_triple(F), 5)
    assert result.weight == 5
    assert result.b == truncate(b0, 5)
    assert result.d == truncate(d0, 6)
    assert verify_lift(result, F)


def test_lift_conventions():
    F = grad(X + Y).scale(Poly.one() + Z)
    result = lift_at_origin(verify_triple(F), 3)
    conv = dict(result.conventions)
    assert conv[(0, 0, 0)] == 0
    assert conv[(1, 0, 0)] == 1
    assert conv[(2, 0, 0)] == 0
    assert conv[(3, 0, 0)] == 0
    assert conv[(4, 0, 0)] == 0
    assert verify_lift(result, F)


def test_lift_result_reads_weight_and_conventions_from_b():
    for cap in (0, 3):
        result = LiftResult(truncate(1 + X, cap), truncate(X + Y, cap + 1))
        assert result.weight == cap
        assert result.conventions == (
            ((0, 0, 0), 0),
            ((1, 0, 0), 1),
            *(((w + 1, 0, 0), 0) for w in range(1, cap + 1)),
        )


def test_weight_out_of_range_is_a_value_error():
    # refused before any work, on the immediate path as on the lifted one
    lifted = verify_triple(PolyVec(1 + X, 1 + Y, Poly.zero()))
    immediate = PolyVec(Poly.one(), Poly.zero(), Poly.zero())
    for F in (lifted, immediate):
        with pytest.raises(ValueError, match=f"weight must be at most {MAX_WEIGHT}$"):
            cm_certificate(F, MAX_WEIGHT + 1)
        with pytest.raises(ValueError, match="weight must be non-negative"):
            cm_certificate(F, -1)
    with pytest.raises(ValueError, match=f"weight must be at most {MAX_WEIGHT}$"):
        lift_at_origin(lifted, MAX_WEIGHT + 1)
    with pytest.raises(ValueError, match="weight must be non-negative"):
        lift_at_origin(lifted, -1)


def monomials(cap: int):
    return [(i, j, n - i - j) for n in range(cap + 1) for i in range(n + 1) for j in range(n - i + 1)]


def tampered(s: TruncatedSeries, skip=()):
    """s with one coefficient changed, for each monomial up to its cap."""
    for m in monomials(s.cap):
        if m not in skip:
            yield TruncatedSeries(s.poly + Poly.term(Fraction(1, 3), m), s.cap)


def test_verify_lift_detects_tampering():
    # every coefficient of b and every one of d but d_000 enters b * grad(d)
    # below the weight: b_m meets d_100 = 1, d_m meets b_000 = f(0) != 0
    T = qm_exact_triple(X / 2 - Y / 3 + Z / 5 + X * Z / 5 + Y**2 * Z, Fraction(3, 4) + X / 7 - Z)
    C = cycle_variables(T)
    for F in (T, C):
        assert F.f.constant_term() and F.g.constant_term()
        for w in range(5):
            result = lift_at_origin(F, w)
            assert verify_lift(result, F)
            for b in tampered(result.b):
                assert not verify_lift(LiftResult(b, result.d), F)
            for d in tampered(result.d, skip={(0, 0, 0)}):
                assert not verify_lift(LiftResult(result.b, d), F)


def test_lift_congruence_holds_for_scaled_gradient():
    # nonconstant multiplier, gradient with all three slots populated
    F = grad(X + Y + Z**2 / 2 + 1).scale(2 + X * Y)
    result = lift_at_origin(verify_triple(F), 4)
    assert verify_lift(result, F)


def test_immediate_certificate_g_slot():
    F = PolyVec(Poly.zero(), Z - 7, Poly.zero())
    cert = cm_certificate(F, 3)
    assert cert.cycles == 1
    assert cert.point == (0, 0, 0)
    assert verify_certificate(cert, F)


def test_immediate_certificate_h_slot():
    F = PolyVec(Poly.zero(), Poly.zero(), X**2 + 1)
    cert = cm_certificate(F, 4)
    assert cert.cycles == 2
    assert verify_certificate(cert, F)


def test_immediate_certificate_zero_triple():
    F = PolyVec(Poly.zero(), Poly.zero(), Poly.zero())
    cert = cm_certificate(F, 2)
    assert verify_certificate(cert, F)


def test_certificate_exact_triple():
    F = verify_triple(PolyVec(X, Y, Z))
    cert = cm_certificate(F, 4)
    assert cert.point == (-1, -1, -1)
    assert cert.cycles == 0
    assert cert.lift.weight == 4
    assert verify_certificate(cert, F)


def test_certificate_needs_candidate_point():
    with pytest.raises(PointSearchError):
        cm_certificate(PolyVec(X, Y, Z), 2, search_box=0)


def test_certificate_negative_search_box_is_a_value_error():
    # refused before any search, also where the origin would do
    for F in (PolyVec(Poly.one(), Poly.one(), Poly.zero()), PolyVec(X, Y, Z)):
        with pytest.raises(ValueError, match="search_box must be non-negative"):
            cm_certificate(F, 2, search_box=-3)


def test_certificate_half_integer_points():
    # f*g = (x^3-x)^2 vanishes at every integer in the box, so the
    # search must move to half-integer coordinates
    b = X**3 - X
    F = grad(X + Y).scale(b)
    cert = cm_certificate(F, 3, search_box=1)
    assert any(c.denominator == 2 for c in cert.point)
    assert verify_certificate(cert, F)


def test_certificate_is_deterministic():
    F = PolyVec(X, Y, Z)
    a = cm_certificate(F, 3)
    b = cm_certificate(F, 3)
    assert a.point == b.point
    assert a.cycles == b.cycles
    assert a.lift.b == b.lift.b
    assert a.lift.d == b.lift.d


def fraction_lift(T, weight: int) -> tuple[dict, dict]:
    """The lift recurrence summed term by term in Fraction: the reference
    the integer kernel of lift_at_origin must agree with."""
    zero, one = Fraction(0), Fraction(1)
    fc, gc, hc = (dict(c.items()) for c in T)
    f0 = fc[(0, 0, 0)]
    b = {(0, 0, 0): f0}
    d = {
        (0, 0, 0): zero,
        (1, 0, 0): one,
        (0, 1, 0): gc[(0, 0, 0)] / f0,
        (0, 0, 1): hc.get((0, 0, 0), zero) / f0,
    }
    for w in range(1, weight + 1):
        d[(w + 1, 0, 0)] = zero
        for i in range(w, -1, -1):
            rem = w - i
            for j in range(rem, -1, -1):
                k = rem - j
                acc = zero
                for r in range(1, i + 2):
                    for s in range(j + 1):
                        for t in range(k + 1):
                            if (r, s, t) != (1, 0, 0):
                                acc += r * b[(i - r + 1, j - s, k - t)] * d[(r, s, t)]
                b[(i, j, k)] = fc.get((i, j, k), zero) - acc
            j = rem
            acc = zero
            for r in range(i + 1):
                for s in range(1, j + 2):
                    if (r, s) != (i, j + 1):
                        acc += s * b[(i - r, j - s + 1, 0)] * d[(r, s, 0)]
            d[(i, j + 1, 0)] = (gc.get((i, j, 0), zero) - acc) / ((j + 1) * f0)
            for k in range(rem + 1):
                j = rem - k
                acc = zero
                for r in range(i + 1):
                    for s in range(j + 1):
                        for t in range(1, k + 2):
                            if (r, s, t) != (i, j, k + 1):
                                acc += t * b[(i - r, j - s, k - t + 1)] * d[(r, s, t)]
                d[(i, j, k + 1)] = (hc.get((i, j, k), zero) - acc) / ((k + 1) * f0)
    return {m: c for m, c in b.items() if c}, {m: c for m, c in d.items() if c}


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
units = small.filter(bool)
low_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def assert_matches_oracle(T, result, weight: int) -> None:
    """result is the oracle's lift of T, in canonical form."""
    b, d = fraction_lift(T, weight)
    assert dict(result.b.poly.items()) == b
    assert dict(result.d.poly.items()) == d
    assert result.b == TruncatedSeries(Poly(b), weight)
    assert result.d == TruncatedSeries(Poly(d), weight + 1)


@given(
    st.dictionaries(low_monos, small, max_size=4),
    units, units, units, small,
    st.integers(0, 6),
)
@settings(max_examples=40, deadline=None)
def test_lift_matches_fraction_recurrence(extra, sx, sy, t0, tz, weight):
    # s/t with t(0) != 0 is a power series that is not a polynomial, so b
    # and d come out dense; linear x and y terms in s give fractional
    # f(0) = t(0)*sx and g(0) = t(0)*sy
    s = Poly(extra) + sx * X + sy * Y - Poly.constant(Poly(extra).constant_term())
    t = Poly.constant(t0) + tz * Z
    try:
        T = qm_exact_triple(s, t)
    except ValueError:
        assume(False)
    assume(T.f.constant_term() and T.g.constant_term())
    result = lift_at_origin(T, weight)
    assert_matches_oracle(T, result, weight)
    assert verify_lift(result, T)


wide = st.fractions(min_value=-5, max_value=5, max_denominator=30)


@given(
    st.dictionaries(low_monos, small, max_size=4),
    wide.filter(bool), wide.filter(bool), st.just(Fraction(0)) | wide, small, small,
    st.integers(0, 6),
)
@settings(max_examples=40, deadline=None)
def test_lift_matches_fraction_recurrence_wide_base_values(extra, f0, g0, h0, tx, tz, weight):
    # s(0) = 0 and t(0) = 1 make F(0) = grad(s)(0) = (f0, g0, h0): signs
    # and denominators up to 30 reach the pivots, and h0 is often 0
    higher = Poly({m: c for m, c in extra.items() if sum(m) > 1})
    s = higher + f0 * X + g0 * Y + h0 * Z
    t = 1 + tx * X + tz * Z
    try:
        T = qm_exact_triple(s, t)
    except ValueError:
        assume(False)
    assert (T.f.constant_term(), T.g.constant_term(), T.h.constant_term()) == (f0, g0, h0)
    result = lift_at_origin(T, weight)
    assert_matches_oracle(T, result, weight)
    assert verify_lift(result, T)


def test_lift_matches_fraction_recurrence_at_weight_nine():
    s = X / 2 - Y / 3 + X * Z / 5 + Y**2 * Z
    t = Fraction(3, 4) + X / 7 - Z
    T = qm_exact_triple(s, t)
    assert_matches_oracle(T, lift_at_origin(T, 9), 9)


def test_lift_matches_fraction_recurrence_at_weight_fourteen():
    # f(0) = 2/21, g(0) = -5/27 and h(0) = 0
    s = -3 * X / 7 + 5 * Y / 6 + X * Z / 5 + Y**2 * Z - Z**3 / 2
    t = Fraction(-2, 9) + X / 3 - Z
    T = qm_exact_triple(s, t)
    assert (T.f.constant_term(), T.g.constant_term(), T.h.constant_term()) == (
        Fraction(2, 21), Fraction(-5, 27), 0)
    result = lift_at_origin(T, 14)
    assert_matches_oracle(T, result, 14)
    assert verify_lift(result, T)


def test_certificate_at_half_integer_point_matches_fraction_recurrence():
    # f*g = (x^3-x)^2 vanishes on the integer box, so the base point has a
    # half-integer coordinate and the translated triple has denominators
    F = grad(X + Y + Z**2 / 2).scale(X**3 - X)
    cert = cm_certificate(F, 6, search_box=1)
    assert cert.cycles == 0
    assert any(c.denominator == 2 for c in cert.point)
    moved = verify_triple(PolyVec(*(c.translate(cert.point) for c in F)))
    assert_matches_oracle(moved, cert.lift, 6)
    assert verify_certificate(cert, F)


@given(
    st.sampled_from(("origin", "shifted", "cycled")),
    st.dictionaries(low_monos, small, max_size=4),
    st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
    st.integers(0, 2), units,
    st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_certificate_matches_fraction_recurrence_on_lift_families(family, extra, sx, sy, v, c, weight):
    # s/t, t = 1 + c*v, in three families: linear x and y terms in s keep
    # the base point at the origin; no linear terms give F(0) = 0, so the
    # base point moves; s and t free of x give f = 0, so the lift cycles
    s = Poly({m: q for m, q in extra.items() if sum(m) > 1 and not (family == "cycled" and m[0])})
    if family == "origin":
        s += sx * X + sy * Y
    t = 1 + c * Poly.variable(1 + v % 2 if family == "cycled" else v)
    try:
        T = qm_exact_triple(s, t)
    except ValueError:
        assume(False)
    assume(sum(not p.is_zero() for p in T) >= 2)
    cert = cm_certificate(T, weight)
    if family == "origin":
        assert (cert.cycles, cert.point) == (0, (0, 0, 0))
    elif family == "shifted":
        assert cert.point != (0, 0, 0)
    else:
        assert T.f.is_zero() and cert.cycles == 1
    G = T
    for _ in range(cert.cycles):
        G = cycle_variables(G)
    moved = verify_triple(PolyVec(*(p.translate(cert.point) for p in G)))
    assert_matches_oracle(moved, cert.lift, weight)
    assert verify_certificate(cert, T)


def test_lift_kernel_makes_no_fraction(monkeypatch):
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            made.append(frame.f_code.co_name)

    monkeypatch.setattr(pba.lifting, "Fraction", counting_fraction)
    T = qm_exact_triple(X / 2 - Y / 3 + X * Z / 5 + Y**2 * Z, Fraction(3, 4) + X / 7 - Z)
    sys.setprofile(profile)
    try:
        result = lift_at_origin(T, 10)
    finally:
        sys.setprofile(None)
    assert made == []
    assert verify_lift(result, T)
    # the counter sees the Fractions the module makes elsewhere
    next(pba.lifting._base_points(0))
    assert made


def test_base_points_keep_their_order():
    # integer points by max-norm shell, then those over 2 with an odd
    # numerator; the counts and digests of boxes 0-3 pin the search order
    pts = [tuple(map(str, p)) for p in pba.lifting._base_points(1)]
    assert pts[:3] == [("0", "0", "0"), ("-1", "-1", "-1"), ("-1", "-1", "0")]
    assert pts[26:29] == [("1", "1", "1"), ("-1/2", "-1/2", "-1/2"), ("-1/2", "-1/2", "0")]
    assert pts[-1] == ("1", "1", "1/2")
    digests = {0: "8697390739fc8c1b", 1: "5b452bb1b9961807", 2: "7f0815541330dc3b", 3: "6d5464b6ffd893f5"}
    for box, digest in digests.items():
        points = list(pba.lifting._base_points(box))
        assert len(points) == (4 * box + 1) ** 3
        assert hashlib.sha256(repr(points).encode()).hexdigest()[:16] == digest


def test_ratio_is_reduced_over_a_positive_denominator():
    assert pba.lifting._ratio(3, -6) == (-1, 2)
    assert pba.lifting._ratio(-4, -6) == (2, 3)
    assert pba.lifting._ratio(0, -5) == (0, 1)


xy_monos = st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0))


@given(
    st.dictionaries(xy_monos, small, max_size=4), st.dictionaries(xy_monos, small, max_size=4),
    units, units, st.integers(0, 14),
)
@settings(max_examples=25, deadline=None)
def test_z_free_lift_matches_fraction_recurrence(fx, gx, f0, g0, weight):
    # h = 0 and f, g free of z: Poisson for any f and g, and the lift is
    # the one in x and y alone
    f = Poly(fx) - Poly(fx).constant_term() + f0
    g = Poly(gx) - Poly(gx).constant_term() + g0
    T = verify_triple(PolyVec(f, g, Poly.zero()))
    result = lift_at_origin(T, weight)
    assert_matches_oracle(T, result, weight)
    assert verify_lift(result, T)


@pytest.mark.parametrize("F", [
    PolyVec(1 + X + Z, 2 + 2 * X + 2 * Z, Poly.zero()),  # h = 0, z in f and g
    PolyVec(1 + Y, 1 + X, Poly.one()),  # f and g free of z, h != 0
    PolyVec(1 + Y, 1 + X, 1 + 2 * Z),  # the same, with d_002 = 1
])
def test_lift_near_the_z_free_case_keeps_its_z_terms(F):
    T = verify_triple(F)
    result = lift_at_origin(T, 6)
    assert_matches_oracle(T, result, 6)
    assert any(m[2] for s in (result.b, result.d) for m, _ in s.poly.items())


class CountingTerms(dict):
    """A term dict that counts the coefficients looked up in it."""

    looked_up = 0

    def get(self, key, default=None):
        self.looked_up += 1
        return super().get(key, default)


def test_z_free_lift_solves_only_its_x_y_coefficients():
    f = Poly._make(CountingTerms((1 + X * Y - Y**2)._num))
    h = Poly._make(CountingTerms())
    T = verify_triple(PolyVec(f, 1 + X, h))
    f._num.looked_up = 0
    result = lift_at_origin(T, 30)
    # each constant term, then the x-equation at the w + 1 monomials of
    # weight w free of z and no z-equation
    assert (f._num.looked_up, h._num.looked_up) == (1 + sum(w + 1 for w in range(1, 31)), 1)
    assert result == lift_at_origin(PolyVec(1 + X * Y - Y**2, 1 + X, Poly.zero()), 30)


def test_lift_skips_pivots_that_are_zero_by_their_inputs(monkeypatch):
    T = verify_triple(PolyVec(2 * Y - 1, Poly.one(), Poly.zero()))
    calls = []
    real = pba.lifting._ratio
    monkeypatch.setattr(pba.lifting, "_ratio", lambda n, d: calls.append(n) or real(n, d))
    result = lift_at_origin(T, 100)
    assert (len(result.b.poly), len(result.d.poly)) == (2, 102)
    # about one division per stored coefficient, not one per x-y monomial
    assert len(calls) <= 2 * 102
    assert_matches_oracle(T, lift_at_origin(T, 8), 8)


def product_check(result: LiftResult, F) -> bool:
    """The congruence by its definition: the capped products b * d_v
    against each component truncated at the weight."""
    b, d, w = result.b, result.d, result.weight
    return all(b * d.derivative(v) == truncate(c, w) for v, c in enumerate(F))


def replace_component(F, v: int, c: Poly) -> PolyVec:
    parts = list(F)
    parts[v] = c
    return PolyVec(*parts)


points = st.sampled_from([(0, 0, 0), (1, -1, 0), (Fraction(1, 2), 0, Fraction(-1, 3)), (-2, Fraction(3, 2), 1)])


@given(
    st.dictionaries(low_monos, small, max_size=4), units, small, st.integers(0, 2), units,
    st.integers(0, 2), points, st.integers(0, 8),
    st.sampled_from(("none", "b", "d", "f", "g", "h")), st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
@example({(1, 1, 0): Fraction(1, 5), (0, 2, 1): 1}, Fraction(1, 2), Fraction(-1, 3), 0, Fraction(1, 7),
         0, (0, 0, 0), 4, "h", 0)
def test_verify_lift_is_the_product_check(extra, sx, sy, v, c, cycles, point, weight, part, pick):
    # qm_exact triples of s/t, cycled and moved: their components have
    # different denominators and terms above the weight, which the check
    # ignores; one coefficient of b, d or a component, at most two weights
    # above the weight, is tampered with
    s = Poly({m: q for m, q in extra.items() if sum(m) > 1}) + sx * X + sy * Y
    try:
        T = qm_exact_triple(s, Fraction(3, 4) + c * Poly.variable(v))
    except ValueError:
        assume(False)
    G = T
    for _ in range(cycles):
        G = cycle_variables(G)
    G = translate_variables(G, point)
    assume(G.f.constant_term() and G.g.constant_term())
    result = lift_at_origin(G, weight)
    assert verify_lift(result, G) and product_check(result, G)
    if part == "b":
        m = monomials(weight)[pick % len(monomials(weight))]
        result = LiftResult(TruncatedSeries(result.b.poly + Poly.term(Fraction(1, 3), m), weight), result.d)
    elif part == "d":
        m = monomials(weight + 1)[pick % len(monomials(weight + 1))]
        result = LiftResult(result.b, TruncatedSeries(result.d.poly + Poly.term(Fraction(1, 3), m), weight + 1))
    elif part != "none":
        m = monomials(weight + 2)[pick % len(monomials(weight + 2))]
        k = "fgh".index(part)
        G = replace_component(G, k, list(G)[k] + Poly.term(Fraction(1, 3), m))
    assert verify_lift(result, G) == product_check(result, G)


def test_verify_lift_keeps_the_cap_contract():
    T = qm_exact_triple(X / 2 - Y / 3 + Z / 5 + X * Z / 5 + Y**2 * Z, Fraction(3, 4) + X / 7 - Z)
    b = lift_at_origin(T, 3).b
    # d's cap must be b's plus one, and the check says so before it reads
    # a term: a term of weight 5 would lie past the slices of weight 3
    for d, text in [
        (TruncatedSeries(X + Y**5, 5), "cap mismatch: 3 vs 4"),
        (TruncatedSeries(X + Y**3, 3), "cap mismatch: 3 vs 2"),
        (TruncatedSeries(Poly.zero(), 0), "cap mismatch: 3 vs 0"),
    ]:
        for check, F in [(verify_lift, T), (product_check, T), (verify_lift, None)]:
            with pytest.raises(ValueError) as info:
                check(LiftResult(b, d), F)
            assert str(info.value) == text
    # caps 0 and 0 keep the contract, since d's derivative is capped at 0
    result = LiftResult(truncate(T.f, 0), TruncatedSeries(Poly.one(), 0))
    for F, holds in [(T, False), (PolyVec(X, Y, Z), True)]:
        assert verify_lift(result, F) is product_check(result, F) is holds


def test_verify_lift_reads_each_coefficient_at_its_own_index():
    # the top slice holds the exponents w+1 at the edge of an index row:
    # a change to any coefficient at or just past the weight is seen where
    # the product check sees it, or ignored where it is ignored
    T = qm_exact_triple(X / 2 - Y / 3 + Z / 5 + X * Z / 5 + Y**2 * Z, Fraction(3, 4) + X / 7 - Z)
    for w in range(6):
        result = lift_at_origin(T, w)
        top = [m for m in monomials(w + 1) if sum(m) == w + 1]
        for m in top:
            tampered_d = LiftResult(result.b, TruncatedSeries(result.d.poly + Poly.term(1, m), w + 1))
            assert verify_lift(tampered_d, T) is product_check(tampered_d, T) is False
        for m in (m for m in monomials(w + 1) if sum(m) >= w):
            for k in range(3):
                F = replace_component(T, k, list(T)[k] + Poly.term(1, m))
                assert verify_lift(result, F) is product_check(result, F) is (sum(m) > w)
        for m in (m for m in monomials(w) if sum(m) == w):
            tampered_b = LiftResult(TruncatedSeries(result.b.poly + Poly.term(1, m), w), result.d)
            assert verify_lift(tampered_b, T) is product_check(tampered_b, T) is False


def test_dense_lift_passes_both_checks():
    # the lift of tests/golden/lift_dense_w20.txt: b and d have terms in
    # x, y and z at every weight
    F = verify_triple(PolyVec(-3 * X**2 * Y + 3 * X**2 + Y - 1, X**3 - 2 * Z**2 - X + 1, 4 * Y**2 * Z - 4 * Y * Z))
    cert = cm_certificate(F, 20)
    assert (cert.cycles, cert.point) == (0, (0, 0, 0))
    assert all(any(m[v] for m, _ in cert.lift.d.poly.items() if sum(m) == 21) for v in range(3))
    assert verify_lift(cert.lift, F) and product_check(cert.lift, F)
    assert verify_certificate(cert, F)
    wrong = LiftResult(cert.lift.b, TruncatedSeries(cert.lift.d.poly + Poly.term(1, (3, 9, 9)), 21))
    assert verify_lift(wrong, F) is product_check(wrong, F) is False
