"""Truncated power-series lifting of Poisson triples.

Any verified triple F = (f, g, h) with f and g nonzero at a point can be
written there as b * grad(d) for formal power series b, d. The lift is
computed coefficient by coefficient from the three component equations

    b * d_x = f,    b * d_y = g,    b * d_z = h,

sweeping total degree (weight) upward. The free choices are pinned to
d_000 = 0, d_100 = 1 and d_(w+1)00 = 0 at each weight, which makes the
output deterministic; they are recorded on the result. Triples vanishing
at every candidate point first get moved: cm_certificate cycles the
variables so two nonzero components occupy the f and g slots, hunts a
base point with f*g != 0, translates there, and lifts.

At weight w the equations give b's coefficients of weight w and d's of
weight w+1. Each coefficient equation holds a sum of products of one b
and one d coefficient. Apart from the term that holds the unknown, every
product but one pairs a finished weight of b with a finished weight of
d. lift_at_origin keeps each finished weight as integer numerators over
one denominator, the lcm of that weight's denominators. It rescales them
so that all the finished products at weight w lie over one denominator,
sums each coefficient's products as Python ints, and makes one Fraction
of the sum. The remaining product stays in Fraction: the d of weight w+1
against b_000 in the x-equation, and the b of weight w against d_010 or
d_001 in the y- and z-equations.

A TruncatedSeries is a Poly and a cap, and its product is the Poly
product kernel, poly.product_terms, given that cap. verify_lift checks a
lift with that generic product only, so the check shares no code with
the lift kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Iterator, Mapping, Union

from ._engine import integer_numerators
from .poly import Monomial, Poly, ScalarLike, product_terms
from .triples import PolyVec, PoissonTriple, _as_vec, cycle_variables, ensure_verified, verify_triple

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ORIGIN = (0, 0, 0)


class PointSearchError(RuntimeError):
    """No base point with f*g nonzero was found inside the search box."""


class TruncatedSeries:
    """Polynomial data truncated at a total-degree cap.

    Represents an element of the power-series completion at the origin
    modulo terms of degree > cap: a Poly with no term above the cap, and
    the cap. Binary operations insist on matching caps; products drop
    everything the cap cannot see.
    """

    __slots__ = ("_poly", "_cap")

    def __init__(self, terms: Mapping[Monomial, ScalarLike], cap: int):
        self._poly = truncate(Poly(terms), cap)._poly
        self._cap = cap

    @classmethod
    def _make(cls, poly: Poly, cap: int) -> "TruncatedSeries":
        s = cls.__new__(cls)
        s._poly = poly
        s._cap = cap
        return s

    @property
    def cap(self) -> int:
        return self._cap

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return self._poly.items()

    def coeff(self, mono: Monomial) -> Fraction:
        return self._poly.coeff(mono)

    def is_zero(self) -> bool:
        return self._poly.is_zero()

    def to_poly(self) -> Poly:
        return self._poly

    def _check_cap(self, other: "TruncatedSeries") -> None:
        if self._cap != other._cap:
            raise ValueError(f"cap mismatch: {self._cap} vs {other._cap}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_cap(other)
        return TruncatedSeries._make(self._poly + other._poly, self._cap)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_cap(other)
        return TruncatedSeries._make(self._poly - other._poly, self._cap)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._make(-self._poly, self._cap)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_cap(other)
        terms = product_terms(self._poly._terms, other._poly._terms, self._cap)
        return TruncatedSeries._make(Poly._make(terms), self._cap)

    def derivative(self, var: Union[str, int]) -> "TruncatedSeries":
        """Partial derivative; the cap drops by one because the top slice
        of the input says nothing about higher terms of the derivative."""
        return truncate(self._poly.derivative(var), max(self._cap - 1, 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._cap == other._cap and self._poly == other._poly

    def __hash__(self) -> int:
        return hash((self._cap, self._poly))

    def __str__(self) -> str:
        return str(self._poly)

    def __repr__(self) -> str:
        return f"TruncatedSeries({str(self._poly)!r}, cap={self._cap})"


def truncate(p: Poly, cap: int) -> TruncatedSeries:
    """View a polynomial in the completion, chopped at total degree cap."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    return TruncatedSeries._make(Poly._make({m: c for m, c in p.items() if sum(m) <= cap}), cap)


@dataclass(frozen=True)
class LiftResult:
    """A pair b, d with b * grad(d) congruent to the lifted triple through
    total degree `weight`; b is capped at weight, d at weight + 1.

    `conventions` records the free coefficient choices that make the lift
    unique: ((i,j,k), value) pairs for d_000, d_100 and each d_(w+1)00.
    """

    b: TruncatedSeries
    d: TruncatedSeries
    weight: int
    conventions: tuple[tuple[Monomial, Fraction], ...]


@dataclass(frozen=True)
class CmCertificate:
    """Witness that a triple is completion-exact: after `cycles` variable
    cycles and translation by `point`, the lift congruence holds."""

    point: tuple[Fraction, Fraction, Fraction]
    cycles: int
    lift: LiftResult


def _integer_slice(coeffs: Mapping[Monomial, Fraction], u: int) -> tuple[list[Monomial], list[int], int]:
    """The monomials of total degree u, their coefficients as integer
    numerators, and the lcm of the denominators. A monomial of the weight
    that is missing from coeffs raises KeyError."""
    mons = [(u - a, a - k, k) for a in range(u + 1) for k in range(a + 1)]
    den, nums = integer_numerators([coeffs[m] for m in mons])
    return mons, nums, den


_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


def lift_at_origin(F, weight: int) -> LiftResult:
    """Solve b*d_x = f, b*d_y = g, b*d_z = h coefficientwise through the
    given weight. Requires a verified triple with f(0) != 0 and g(0) != 0."""
    T = ensure_verified(F)
    if weight < 0:
        raise ValueError("weight must be non-negative")
    fc = dict(T.f.items())
    gc = dict(T.g.items())
    hc = dict(T.h.items())
    f0 = fc.get(_ORIGIN, _ZERO)
    g0 = gc.get(_ORIGIN, _ZERO)
    if not f0 or not g0:
        raise ValueError("lift needs nonzero constant terms in f and g")

    b: dict[Monomial, Fraction] = {_ORIGIN: f0}
    d: dict[Monomial, Fraction] = {
        _ORIGIN: _ZERO,
        (1, 0, 0): _ONE,
        (0, 1, 0): g0 / f0,
        (0, 0, 1): hc.get(_ORIGIN, _ZERO) / f0,
    }
    d010, d001 = d[(0, 1, 0)], d[(0, 0, 1)]
    conventions = [(_ORIGIN, _ZERO), ((1, 0, 0), _ONE)]

    # Finished weights as integers: bw[u] and dw[u] are _integer_slice of
    # weight u of b and of d.
    bw = [_integer_slice(b, 0)]
    dw = [_integer_slice(d, 0), _integer_slice(d, 1)]

    for w in range(1, weight + 1):
        d[(w + 1, 0, 0)] = _ZERO
        conventions.append(((w + 1, 0, 0), _ZERO))
        # Products of two finished weights pair d of weight u in 2..w with
        # b of weight w+1-u. They are laid out in dense arrays of P^3
        # slots, sized for this weight so that memory grows with the work
        # done: dgrad[v] holds e * (numerator of d_ijk) at slot
        # i + j*P + k*P^2, e being the exponent of variable v, and brefl
        # holds b_ijk at slot top - (i + j*P + k*P^2), each b weight
        # rescaled so that all these products lie over the one denominator
        # den. Other slots hold None, so a product that reads one raises
        # TypeError instead of reading 0.
        P = w + 2
        top = P**3 - 1
        strides = (1, P, P * P)
        den = lcm(*(bw[w + 1 - u][2] * dw[u][2] for u in range(2, w + 1)))
        brefl: list = [None] * P**3
        dgrad: tuple[list, list, list] = ([None] * P**3, [None] * P**3, [None] * P**3)
        for u in range(2, w + 1):
            bmons, bnums, bden = bw[w + 1 - u]
            dmons, dnums, dden = dw[u]
            scale = den // (bden * dden)
            for (i, j, k), n in zip(bmons, bnums):
                brefl[top - i - j * P - k * P * P] = scale * n
            for m, n in zip(dmons, dnums):
                at = m[0] + m[1] * P + m[2] * P * P
                for v in range(3):
                    dgrad[v][at] = m[v] * n

        def finished(M: Monomial, v: int) -> Fraction:
            """Sum of e * b_(M-m) * d_m over the exponents m of d with e,
            the v-th entry of m, at least 1 and total degree u in 2..w.
            The slot of b_(M-m) in brefl is that of d_m in dgrad[v] plus
            off, so the sum runs as strided slices along the longest axis
            of the box of such m."""
            lo = _UNIT[v]
            a = max((0, 1, 2), key=lambda x: M[x] - lo[x])
            p_ax, q_ax = _OTHER_AXES[a]
            sa, sp, sq = strides[a], strides[p_ax], strides[q_ax]
            off = top - M[0] - M[1] * P - M[2] * P * P
            dv = dgrad[v]
            total = 0
            for p in range(lo[p_ax], M[p_ax] + 1):
                for q in range(lo[q_ax], M[q_ax] + 1):
                    x0 = max(lo[a], 2 - p - q)
                    x1 = min(M[a], w - p - q)
                    if x0 <= x1:
                        d0 = p * sp + q * sq + x0 * sa
                        d1 = d0 + (x1 - x0) * sa + 1
                        total += sum(map(mul, brefl[off + d0:off + d1:sa], dv[d0:d1:sa]))
            return Fraction(total, den)

        for i in range(w, -1, -1):
            rem = w - i
            for j in range(rem, -1, -1):
                k = rem - j
                # b_ijk from the x-equation at (i,j,k); its own term has
                # factor d_100 = 1, and d_(i+1)jk is the one of weight w+1
                acc = finished((i + 1, j, k), 0) + (i + 1) * f0 * d[(i + 1, j, k)]
                b[(i, j, k)] = fc.get((i, j, k), _ZERO) - acc
            j = rem
            # d_i(j+1)0 from the y-equation at (i,j,0); pivot (j+1)*b_000
            acc = finished((i, j + 1, 0), 1) + b[(i, j, 0)] * d010
            d[(i, j + 1, 0)] = (gc.get((i, j, 0), _ZERO) - acc) / ((j + 1) * f0)
            for k in range(rem + 1):
                j = rem - k
                # d_ij(k+1) from the z-equation at (i,j,k); pivot (k+1)*b_000
                acc = finished((i, j, k + 1), 2) + b[(i, j, k)] * d001
                d[(i, j, k + 1)] = (hc.get((i, j, k), _ZERO) - acc) / ((k + 1) * f0)
        bw.append(_integer_slice(b, w))
        dw.append(_integer_slice(d, w + 1))

    bs = TruncatedSeries._make(Poly._make({m: c for m, c in b.items() if c}), weight)
    ds = TruncatedSeries._make(Poly._make({m: c for m, c in d.items() if c}), weight + 1)
    return LiftResult(b=bs, d=ds, weight=weight, conventions=tuple(conventions))


def verify_lift(result: LiftResult, F) -> bool:
    """Does b * grad(d) agree with F in every coefficient of total degree
    <= weight? This is the congruence the lift promises."""
    vec = _as_vec(F)
    w = result.weight
    for var, comp in zip((0, 1, 2), (vec.f, vec.g, vec.h)):
        lhs = result.b * result.d.derivative(var)
        if not (lhs - truncate(comp, w)).is_zero():
            return False
    return True


def _base_points(box: int) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Integer points by increasing max-norm, then half-integer points."""
    for n in range(box + 1):
        for p in product(range(-n, n + 1), repeat=3):
            if max(abs(c) for c in p) == n:
                yield tuple(Fraction(c) for c in p)
    for n in range(1, 2 * box + 1):
        for p in product(range(-n, n + 1), repeat=3):
            if max(abs(c) for c in p) == n and any(c % 2 for c in p):
                yield tuple(Fraction(c, 2) for c in p)


def cm_certificate(F, weight: int, search_box: int = 4) -> CmCertificate:
    """Exhibit F as completion-exact at some rational point.

    With at most one nonzero component the certificate is immediate:
    cycling moves that component into the f slot and (b, d) = (f, x)
    works exactly. Otherwise two nonzero components are cycled into the
    f and g slots, a base point with f*g != 0 is searched inside
    [-search_box, search_box]^3, and the translated triple is lifted.
    """
    T = ensure_verified(F)
    nonzero = [not c.is_zero() for c in T.vec]
    if sum(nonzero) <= 1:
        if nonzero[1]:
            cycles = 1
        elif nonzero[2]:
            cycles = 2
        else:
            cycles = 0
        G = T
        for _ in range(cycles):
            G = cycle_variables(G)
        conventions = [(_ORIGIN, _ZERO), ((1, 0, 0), _ONE)]
        conventions += [((w + 1, 0, 0), _ZERO) for w in range(1, weight + 1)]
        lift = LiftResult(
            b=truncate(G.f, weight),
            d=truncate(Poly.variable(0), weight + 1),
            weight=weight,
            conventions=tuple(conventions),
        )
        return CmCertificate(point=(_ZERO, _ZERO, _ZERO), cycles=cycles, lift=lift)

    if nonzero[0] and nonzero[1]:
        cycles = 0
    elif nonzero[1] and nonzero[2]:
        cycles = 1
    else:
        cycles = 2
    G = T
    for _ in range(cycles):
        G = cycle_variables(G)

    prod_fg = G.f * G.g
    for p in _base_points(search_box):
        if prod_fg.evaluate(p):
            point = p
            break
    else:
        raise PointSearchError(
            f"no point with f*g != 0 found in [-{search_box}, {search_box}]^3"
        )

    moved = verify_triple(PolyVec(*(c.translate(point) for c in G.vec)))
    lift = lift_at_origin(moved, weight)
    return CmCertificate(point=point, cycles=cycles, lift=lift)


def verify_certificate(cert: CmCertificate, F) -> bool:
    """Replay the certificate: cycle, translate, and check the congruence."""
    G = ensure_verified(F)
    for _ in range(cert.cycles):
        G = cycle_variables(G)
    moved = PolyVec(*(c.translate(cert.point) for c in G.vec))
    return verify_lift(cert.lift, moved)
