"""Poisson ideal classification for quasi-exact brackets.

For coprime s, t the Poisson prime spectrum of qm_exact(s, t) has three
strata: the zero ideal; primes containing the ideal of the bracket
components (the residually null stratum, whose maximal members are common
zeros of s, t and singular points of pencil members); and height-one
primes generated by irreducible factors of lambda*s - mu*t, Poisson
primitive exactly when of multiplicity one in the member. spectrum_report
bundles them, sampling the pencil at user-supplied parameters since the
projective family cannot be listed. primitive, principal and a report's
flags are read from the fields that determine them.

Validation happens once per call: the entries that need the bracket
build qm_exact_triple(s, t), which rejects a zero or non-coprime pair
(triples.require_coprime) and checks Jacobi; classify_point and
height_one_primes run require_coprime alone, since each factor of a
member generates a Poisson ideal by a theorem (_height_one).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .factor import factor_bounded
from .groebner import GroebnerBasis, buchberger, dimension, is_unit_ideal, rational_points
from .parser import rational_literal
from .poly import Point, Poly, ScalarLike, rat_text
from .triples import NotCoprimeError, ensure_verified, qm_exact_triple, require_coprime


@dataclass(frozen=True)
class PencilParameter:
    """Projective parameter (lam : mu), normalized so the first nonzero
    entry is 1; the member it selects is lam*s - mu*t."""

    lam: Fraction
    mu: Fraction

    def __init__(self, lam: ScalarLike, mu: ScalarLike):
        lam = Fraction(lam)
        mu = Fraction(mu)
        pivot = lam if lam else mu
        if not pivot:
            raise ValueError("parameter needs a nonzero entry")
        object.__setattr__(self, "lam", lam / pivot)
        object.__setattr__(self, "mu", mu / pivot)

    @classmethod
    def parse(cls, text: str) -> "PencilParameter":
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"expected 'lambda:mu', got {text!r}")
        try:
            return cls(rational_literal(head.strip()), rational_literal(tail.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad pencil parameter {text!r}: {exc}") from None

    def __str__(self) -> str:
        return f"{rat_text(self.lam)}:{rat_text(self.mu)}"


class PointKind(Enum):
    COMMON_ZERO = "common_zero"
    SINGULAR_POINT = "singular_point"
    NOT_POISSON = "not_poisson"


@dataclass(frozen=True)
class PointClass:
    """Classification of a rational point against the pencil: common zero
    of (s, t), singular point of the pencil member through it, or not on
    the Poisson maximal locus at all."""

    point: Point
    kind: PointKind
    parameter: PencilParameter | None = None


@dataclass(frozen=True)
class HeightOnePrime:
    """Principal Poisson prime from one irreducible factor of a pencil
    member; primitive exactly when the multiplicity is one."""

    generator: Poly
    multiplicity: int
    absolutely_irreducible_certified: bool

    @property
    def primitive(self) -> bool:
        return self.multiplicity == 1


@dataclass(frozen=True)
class ResiduallyNullStratum:
    """Primes containing the bracket-component ideal I = <f, g, h>. In
    dimension 0 the maximal members are listed as classified rational
    points (eliminants record branches with no rational root); otherwise
    only the basis and dimension are reported."""

    basis: GroebnerBasis
    dimension: int
    points: tuple[PointClass, ...]
    eliminants: tuple[Poly, ...]
    points_complete: bool


@dataclass(frozen=True)
class ReportFlags:
    factorization_complete: bool
    finitely_many_poisson_maximal: bool


@dataclass(frozen=True)
class SpectrumReport:
    """The classified strata: zero ideal (always Poisson prime), residually
    null primes, and height-one primes per sampled pencil parameter."""

    zero_ideal = True
    residually_null: ResiduallyNullStratum
    height_one: dict[PencilParameter, tuple[HeightOnePrime, ...]]
    factorization_complete: bool

    @property
    def flags(self) -> ReportFlags:
        return ReportFlags(self.factorization_complete, self.residually_null.dimension <= 0)


@dataclass(frozen=True)
class PoissonCore:
    """Largest Poisson ideal inside the maximal ideal at a point: the
    maximal ideal itself on the Poisson locus, a principal prime off it."""

    point: Point
    generators: tuple[Poly, ...]

    @property
    def principal(self) -> bool:
        return len(self.generators) == 1


def _as_point(p: Sequence[ScalarLike]) -> Point:
    a, b, c = (Fraction(v) for v in p)
    return (a, b, c)


def residually_null_ideal(F) -> GroebnerBasis:
    """Gröbner basis of the ideal generated by the bracket components;
    every bracket value {a, b} lies in it."""
    T = ensure_verified(F)
    return buchberger([T.f, T.g, T.h])


def pencil_member(s: Poly, t: Poly, param: PencilParameter) -> Poly:
    return s * param.lam - t * param.mu


def _nonunit_member(s: Poly, t: Poly, param: PencilParameter) -> Poly:
    member = pencil_member(s, t, param)
    if member.is_constant():
        raise ValueError(f"pencil member at ({param}) must be a nonzero nonunit")
    return member


def _classify(s: Poly, t: Poly, point: Point) -> PointClass:
    sv = s.evaluate(point)
    tv = t.evaluate(point)
    if not sv and not tv:
        return PointClass(point, PointKind.COMMON_ZERO)
    param = PencilParameter(tv, sv)
    member = pencil_member(s, t, param)
    vanishing = not member.evaluate(point) and all(
        not member.derivative(v).evaluate(point) for v in range(3)
    )
    if vanishing:
        return PointClass(point, PointKind.SINGULAR_POINT, param)
    return PointClass(point, PointKind.NOT_POISSON)


def classify_point(s: Poly, t: Poly, p: Sequence[ScalarLike]) -> PointClass:
    """Sort a rational point per the maximal-ideal criterion: common zero
    of s and t, else singular point of the member at (t(p) : s(p)), else
    not Poisson."""
    require_coprime(s, t)
    return _classify(s, t, _as_point(p))


def poisson_maximal_locus(s: Poly, t: Poly) -> ResiduallyNullStratum:
    """Residually null stratum of qm_exact(s, t): basis and dimension of
    I = <f, g, h>, with the maximal locus enumerated when it is finite."""
    G = residually_null_ideal(qm_exact_triple(s, t))
    dim = dimension(G)
    if dim != 0:
        return ResiduallyNullStratum(G, dim, (), (), points_complete=dim == -1)
    found = rational_points(G)
    classified = tuple(_classify(s, t, p) for p in found.points)
    return ResiduallyNullStratum(G, dim, classified, found.eliminants, found.complete)


def _height_one(s: Poly, t: Poly, param: PencilParameter, max_deg: int):
    """Factors of m = lam*s - mu*t, each generating a Poisson ideal: with
    F = qm_exact(s, t), mu*F = s*grad(m) - m*grad(s) (lam*F = t*grad(m) -
    m*grad(t) when mu = 0), and grad(m) x grad(q) lies in (q) for q | m."""
    factored = factor_bounded(_nonunit_member(s, t, param), max_deg)
    return tuple(HeightOnePrime(q.factor, q.multiplicity, q.absolutely_irreducible_certified)
                 for q in factored.parts), factored.complete


def height_one_primes(
    s: Poly, t: Poly, param: PencilParameter, max_deg: int
) -> tuple[HeightOnePrime, ...]:
    """Principal Poisson primes over one pencil member: its irreducible
    factors within the degree bound, with multiplicities and flags."""
    require_coprime(s, t)
    primes, _ = _height_one(s, t, param, max_deg)
    return primes


def poisson_core_of_point(s: Poly, t: Poly, p: Sequence[ScalarLike], max_deg: int) -> PoissonCore:
    """Core of the maximal ideal at p: the ideal itself when p lies on the
    Poisson maximal locus, otherwise the unique pencil factor through p."""
    cls = classify_point(s, t, p)
    point = cls.point
    if cls.kind is not PointKind.NOT_POISSON:
        gens = tuple(Poly.variable(v) - Poly.constant(point[v]) for v in range(3))
        return PoissonCore(point, gens)
    param = PencilParameter(t.evaluate(point), s.evaluate(point))
    member = pencil_member(s, t, param)
    factored = factor_bounded(member, max_deg)
    if not factored.complete:
        raise ValueError(
            f"factorization of the member at ({param}) is incomplete at degree bound {max_deg}"
        )
    through = [part for part in factored.parts if not part.factor.evaluate(point)]
    # a repeated or shared zero would make p singular, contradicting the class
    assert len(through) == 1 and through[0].multiplicity == 1
    return PoissonCore(point, (through[0].factor,))


def is_poisson_simple_quotient(
    s: Poly, t: Poly, param: PencilParameter, max_deg: int = 3
) -> bool:
    """Does the member's quotient algebra have no proper nonzero Poisson
    ideal? That is smoothness of its surface: the member and its partials
    generate the unit ideal. Requires a finite Poisson maximal locus and a
    member certified irreducible within the bound."""
    F = qm_exact_triple(s, t)
    member = _nonunit_member(s, t, param)
    if dimension(residually_null_ideal(F)) > 0:
        raise ValueError("simplicity criterion needs finitely many Poisson maximal ideals")
    factored = factor_bounded(member, max_deg)
    if not (factored.complete and len(factored.parts) == 1 and factored.parts[0].multiplicity == 1):
        raise ValueError(
            f"pencil member at ({param}) is not certified irreducible at degree bound {max_deg}"
        )
    J = buchberger([member] + [member.derivative(v) for v in range(3)])
    return is_unit_ideal(J)


def spectrum_report(
    s: Poly, t: Poly, params: Sequence[PencilParameter], max_deg: int
) -> SpectrumReport:
    """Assemble the full classification at the sampled parameters."""
    if max_deg < 0:
        raise ValueError("negative degree bound")
    stratum = poisson_maximal_locus(s, t)
    height_one: dict[PencilParameter, tuple[HeightOnePrime, ...]] = {}
    complete = True
    for param in params:
        if param in height_one:
            continue
        primes, member_complete = _height_one(s, t, param, max_deg)
        height_one[param] = primes
        complete = complete and member_complete
    return SpectrumReport(stratum, height_one, complete)
