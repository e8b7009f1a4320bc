"""Truncated power-series lifting of Poisson triples.

A verified triple F = (f, g, h) with f and g nonzero at a point is
b * grad(d) there for formal power series b, d, found coefficient by
coefficient, by total degree (weight), from

    b * d_x = f,    b * d_y = g,    b * d_z = h.

The free choices d_000 = 0, d_100 = 1 and d_(w+1)00 = 0 make the output
deterministic. Weights above MAX_WEIGHT are refused before anything is
allocated. cm_certificate and verify_certificate move F to the point by
translate_variables, which keeps a PoissonTriple: Jacobi is checked on
F alone.

At weight w the equations give b's coefficients of weight w and d's of
weight w+1. Each coefficient equation is a sum of products of one b and
one d coefficient. All but two of them pair b of weight w+1-u with d of
weight u for some u in 2..w, weights finished before w starts. A slice
of known weight holds its nonzero (i, j, k) at index i*S + j, S = weight
+ 2; no exponent reaches S, so a product's index is the sum of its
factors'. lift_at_origin makes one pass over each such pair of slices
and adds m[v] * b * d_m into flat lists of sums for v = x, y, z. It runs
on ints: weights in progress are dicts of reduced numerator/denominator
pairs by index, finished ones integer numerators over one denominator,
and the sums and f, g, h lie over one denominator per weight. The other
two products, the unknown's term and the d of weight w+1 against b_000
(x-equation) or the b of weight w against d_010 or d_001 (y, z), fold
in with the pivot division and one gcd, skipped (the coefficient is 0,
not stored) when the numerator is zero by its inputs.

Each equation fixes its unknown from earlier coefficients, so the lift
is unique. When h = 0 and f, g are free of z, the lift in x and y with
the same conventions solves the z-equations too (d_z = 0 = h/b), so it
is the lift: only the x-equations free of z and the y-equations run.

verify_lift compares b * d_v, the capped product of TruncatedSeries
(poly.product_terms given the cap), with the component truncated at the
weight, for v = x, y, z; it shares no code with the kernel. The lift's
independent checks are the Fraction recurrence oracle of the tests, the
golden files and the sympy check of pbabench.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import Iterator, Union

from .poly import Monomial, Poly, product_terms
from .triples import cycle_variables, ensure_verified, translate_variables

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ORIGIN = (0, 0, 0)
_NIL = (0, 1)  # a coefficient the kernel does not store

# the lift's time and memory grow with it: at weight 100 a z-free lift
# takes 0.01 s, a dense one in x, y and z about 4 minutes
MAX_WEIGHT = 100


class PointSearchError(RuntimeError):
    """No base point with f*g nonzero was found inside the search box."""


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """An element of the power-series completion at the origin modulo
    terms of total degree > cap: a Poly with no term above the cap, and
    the cap. Read and build it through its fields; series compare by
    both. The product needs matching caps."""

    poly: Poly
    cap: int

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError("cap must be non-negative")
        if self.poly.total_degree() > self.cap:
            raise ValueError(f"term of degree {self.poly.total_degree()} above the cap {self.cap}")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.cap != other.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")
        a, b = self.poly, other.poly
        return TruncatedSeries(Poly._make(product_terms(a._num, b._num, self.cap), a._den * b._den), self.cap)

    def derivative(self, var: Union[str, int]) -> "TruncatedSeries":
        """Partial derivative; the cap drops by one because the top slice
        of the input says nothing about higher terms of the derivative."""
        return TruncatedSeries(self.poly.derivative(var), max(self.cap - 1, 0))

    def __str__(self) -> str:
        return str(self.poly)


def truncate(p: Poly, cap: int) -> TruncatedSeries:
    """View a polynomial in the completion, chopped at total degree cap."""
    return TruncatedSeries(Poly._make({m: n for m, n in p._num.items() if sum(m) <= cap}, p._den), cap)


@dataclass(frozen=True)
class LiftResult:
    """Series b, capped at weight, and d, capped at weight + 1, with
    b * grad(d) congruent to the lifted triple through total degree
    `weight` (b's cap); their coefficients are those of b.poly and d.poly.

    `conventions` lists the free coefficient choices that make the lift
    unique: ((i,j,k), value) pairs for d_000, d_100 and each d_(w+1)00.
    """

    b: TruncatedSeries
    d: TruncatedSeries

    @property
    def weight(self) -> int:
        return self.b.cap

    @property
    def conventions(self) -> tuple[tuple[Monomial, Fraction], ...]:
        return ((_ORIGIN, _ZERO), ((1, 0, 0), _ONE), *(((w + 1, 0, 0), _ZERO) for w in range(1, self.weight + 1)))


@dataclass(frozen=True)
class CmCertificate:
    """Witness that a triple is completion-exact: after `cycles` variable
    cycles and translation by `point`, the lift congruence holds."""

    point: tuple[Fraction, Fraction, Fraction]
    cycles: int
    lift: LiftResult


def _ratio(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator, for d != 0."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _slice(flat: dict, u: int, S: int) -> tuple[list, int]:
    """Weight u of flat, (numerator, denominator) pairs by index, as nonzero
    (index, i, j, k, numerator) over one lcm, and that lcm."""
    den = lcm(*[q for _, q in flat.values()])
    out = []
    for x, (n, q) in flat.items():
        if n:
            i, j = divmod(x, S)
            out.append((x, i, j, u - i - j, n * (den // q)))
    return out, den


def _from_slices(slices) -> Poly:
    den = lcm(*(sd for _, sd in slices))
    return Poly._make({(i, j, k): n * (den // sd) for terms, sd in slices for _, i, j, k, n in terms}, den)


def _check_weight(weight: int) -> None:
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight > MAX_WEIGHT:
        raise ValueError(f"weight must be at most {MAX_WEIGHT}")


def lift_at_origin(F, weight: int) -> LiftResult:
    """Solve b*d_x = f, b*d_y = g, b*d_z = h coefficientwise through the
    given weight. Requires a Poisson triple with f(0) != 0 and g(0) != 0."""
    _check_weight(weight)
    T = ensure_verified(F)
    fn, gn, hn = T.f._num, T.g._num, T.h._num
    fden, gden, hden = T.f._den, T.g._den, T.h._den
    if not fn.get(_ORIGIN) or not gn.get(_ORIGIN):
        raise ValueError("lift needs nonzero constant terms in f and g")

    S = weight + 2
    f0n, f0d = _ratio(fn[_ORIGIN], fden)
    yn, yd = _ratio(gn[_ORIGIN] * f0d, gden * f0n)
    zn, zd = _ratio(hn.get(_ORIGIN, 0) * f0d, hden * f0n)
    z_free = not hn and not any(m[2] for m in chain(fn, gn))

    # Finished weights: bw[u] and dw[u] are _slice of weight u of b and d.
    bw = [_slice({0: (f0n, f0d)}, 0, S)]
    dw = [_slice({}, 0, S), _slice({0: (zn, zd), 1: (yn, yd), S: (1, 1)}, 1, S)]

    for w in range(1, weight + 1):
        # b of weight w and d of weight w+1 by index; an index not stored is 0
        size = (w + 2) * S
        b, d = {}, {}
        # ax[M], M of weight w+1, is den times the sum of m[0] * b_(M-m) * d_m
        # over the m of weight u in 2..w; ay (M free of z), az: m[1], m[2]
        den = lcm(fden, gden, hden, *(bw[w + 1 - u][1] * dw[u][1] for u in range(2, w + 1)))
        fs, gs, hs = den // fden, den // gden, den // hden
        ax, ay, az = [0] * size, [0] * size, [0] * size
        for u in range(2, w + 1):
            bterms, bden = bw[w + 1 - u]
            dterms, dden = dw[u]
            scale = den // (bden * dden)
            dterms = [(y, i, j, k, n * scale) for y, i, j, k, n in dterms]
            for x, _, _, bk, bn in bterms:
                for y, i, j, k, dn in dterms:
                    M = x + y
                    p = bn * dn
                    if i:
                        ax[M] += i * p
                    if k:
                        az[M] += k * p
                    elif j and not bk:
                        ay[M] += j * p

        for i in range(w, -1, -1):
            rem = w - i
            for j in (rem,) if z_free else range(rem, -1, -1):
                x = i * S + j
                # b_ijk from the x-equation at (i,j,k); its own term has
                # factor d_100 = 1, and d_(i+1)jk is the one of weight w+1
                s = fn.get((i, j, rem - j), 0) * fs - ax[x + S]
                dn, dd = d.get(x + S, _NIL)
                if s or dn:
                    b[x] = _ratio(s * f0d * dd - (i + 1) * f0n * dn * den, den * f0d * dd)
            j = rem
            x = i * S + j
            # d_i(j+1)0 from the y-equation at (i,j,0); pivot (j+1)*f0
            s = gn.get((i, j, 0), 0) * gs - ay[x + 1]
            bn, bd = b.get(x, _NIL)
            if s or bn:
                d[x + 1] = _ratio((s * bd * yd - bn * yn * den) * f0d, den * bd * yd * (j + 1) * f0n)
            for k in () if z_free else range(rem + 1):
                j = rem - k
                x = i * S + j
                # d_ij(k+1) from the z-equation at (i,j,k); pivot (k+1)*f0
                s = hn.get((i, j, k), 0) * hs - az[x]
                bn, bd = b.get(x, _NIL)
                if s or bn and zn:
                    d[x] = _ratio((s * bd * zd - bn * zn * den) * f0d, den * bd * zd * (k + 1) * f0n)
        bw.append(_slice(b, w, S))
        dw.append(_slice(d, w + 1, S))

    return LiftResult(TruncatedSeries(_from_slices(bw), weight), TruncatedSeries(_from_slices(dw), weight + 1))


def verify_lift(result: LiftResult, F) -> bool:
    """Does b * grad(d) agree with F in every coefficient of total degree
    <= weight? This is the congruence the lift promises."""
    b, d, w = result.b, result.d, result.weight
    return all(b * d.derivative(v) == truncate(c, w) for v, c in enumerate(F))


def _base_points(box: int) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Integer points, then those over 2 with an odd numerator, each by
    increasing max-norm."""
    for q in (1, 2):
        for n in range(q * box + 1):
            for p in product(range(-n, n + 1), repeat=3):
                if max(map(abs, p)) == n and (q == 1 or any(c % 2 for c in p)):
                    yield tuple(Fraction(c, q) for c in p)


def cm_certificate(F, weight: int, search_box: int = 4) -> CmCertificate:
    """Exhibit F as completion-exact at some rational point.

    With at most one nonzero component the certificate is immediate:
    cycling moves that component into the f slot and (b, d) = (f, x)
    works exactly. Otherwise two nonzero components are cycled into the
    f and g slots, a base point with f*g != 0 is searched inside
    [-search_box, search_box]^3, and the triple moved there is lifted.
    """
    _check_weight(weight)
    G = ensure_verified(F)
    if search_box < 0:
        raise ValueError("search_box must be non-negative")
    nonzero = [not c.is_zero() for c in G]
    # c cycles move components c and c + 1 (mod 3) into the f and g slots
    pairs = [c for c in range(3) if nonzero[c] and nonzero[(c + 1) % 3]]
    cycles = (pairs or [c for c in range(3) if nonzero[c]] or [0])[0]
    for _ in range(cycles):
        G = cycle_variables(G)
    if sum(nonzero) <= 1:
        lift = LiftResult(truncate(G.f, weight), TruncatedSeries(Poly.variable(0), weight + 1))
        return CmCertificate((_ZERO, _ZERO, _ZERO), cycles, lift)

    point = next((p for p in _base_points(search_box) if G.f.evaluate(p) and G.g.evaluate(p)), None)
    if point is None:
        raise PointSearchError(f"no point with f*g != 0 found in [{-search_box}, {search_box}]^3")

    return CmCertificate(point, cycles, lift_at_origin(translate_variables(G, point), weight))


def verify_certificate(cert: CmCertificate, F) -> bool:
    """Replay the certificate: cycle, translate, and check the congruence."""
    G = ensure_verified(F)
    for _ in range(cert.cycles):
        G = cycle_variables(G)
    return verify_lift(cert.lift, translate_variables(G, cert.point))
