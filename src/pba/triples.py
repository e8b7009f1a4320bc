"""Poisson structures on Q[x, y, z] through component triples.

A bracket on the polynomial algebra is determined by the triple
F = (f, g, h) = ({y,z}, {z,x}, {x,y}); the bracket of two elements is the
determinant with rows F, grad(b), grad(c). The triple defines a Poisson
(i.e. Jacobi-satisfying) bracket exactly when dot(F, curl F) = 0, and that
polynomial is returned as the witness when the check fails.

A PoissonTriple is a PolyVec that passed this check: only verify_triple,
the three constructors below and the automorphism moves cycle_variables
and translate_variables make one.

jacobi_witness and bracket refuse, with a ValueError, any product they
would form past the product bounds (poly.product_error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .poly import Poly, divides, gcd, product_error


@dataclass(frozen=True)
class PolyVec:
    """Triple of polynomials, used both for bracket data and vector fields."""

    f: Poly
    g: Poly
    h: Poly

    def __iter__(self) -> Iterator[Poly]:
        return iter((self.f, self.g, self.h))

    def __add__(self, other: "PolyVec") -> "PolyVec":
        return PolyVec(self.f + other.f, self.g + other.g, self.h + other.h)

    def __sub__(self, other: "PolyVec") -> "PolyVec":
        return PolyVec(self.f - other.f, self.g - other.g, self.h - other.h)

    def scale(self, c) -> "PolyVec":
        return PolyVec(self.f * c, self.g * c, self.h * c)

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero() and self.h.is_zero()


class NotPoissonError(ValueError):
    """Raised when a triple fails the Jacobi criterion; carries the witness."""

    def __init__(self, witness: Poly):
        self.witness = witness
        super().__init__(f"triple is not Poisson; dot(F, curl F) = {witness}")


class NotCoprimeError(ValueError):
    """Raised for quasi-exact constructors on non-coprime input."""

    def __init__(self, common_factor: Poly):
        self.common_factor = common_factor
        super().__init__(f"s and t share the non-constant factor {common_factor}")


def grad(p: Poly) -> PolyVec:
    return PolyVec(p.derivative(0), p.derivative(1), p.derivative(2))


def curl(v: PolyVec) -> PolyVec:
    f, g, h = v
    return PolyVec(
        h.derivative(1) - g.derivative(2),
        f.derivative(2) - h.derivative(0),
        g.derivative(0) - f.derivative(1),
    )


def cross(u: PolyVec, v: PolyVec) -> PolyVec:
    return PolyVec(
        u.g * v.h - u.h * v.g,
        u.h * v.f - u.f * v.h,
        u.f * v.g - u.g * v.f,
    )


def dot(u: PolyVec, v: PolyVec) -> Poly:
    return u.f * v.f + u.g * v.g + u.h * v.h


def jacobian_det(a: Poly, b: Poly, c: Poly) -> Poly:
    """Determinant of the Jacobian with rows grad(a), grad(b), grad(c)."""
    return dot(grad(a), cross(grad(b), grad(c)))


class PoissonTriple(PolyVec):
    """Bracket data (f, g, h) that satisfies the Jacobi identity."""


def _refuse_past_bounds(what: str, pairs) -> None:
    for a, b in pairs:
        note = product_error(a, b)
        if note:
            raise ValueError(f"{what}: {note}")


def jacobi_witness(F) -> Poly:
    """dot(F, curl F); zero exactly for Poisson triples."""
    c = curl(F)
    _refuse_past_bounds("dot(F, curl F)", zip(F, c))
    return dot(F, c)


def is_poisson_triple(F) -> bool:
    return jacobi_witness(F).is_zero()


def verify_triple(vec: PolyVec) -> PoissonTriple:
    """Check the Jacobi criterion; raises NotPoissonError with the witness."""
    w = jacobi_witness(vec)
    if not w.is_zero():
        raise NotPoissonError(w)
    return PoissonTriple(*vec)


def ensure_verified(F: PolyVec) -> PoissonTriple:
    """F itself if it is a PoissonTriple, else verify_triple(F)."""
    return F if isinstance(F, PoissonTriple) else verify_triple(F)


def bracket(F, b: Poly, c: Poly) -> Poly:
    """{b, c} under F: the determinant with rows F, grad(b), grad(c)."""
    gb, gc = grad(b), grad(c)
    _refuse_past_bounds("bracket", ((u, v) for i, u in enumerate(gb) for j, v in enumerate(gc) if i != j))
    x = cross(gb, gc)
    _refuse_past_bounds("bracket", zip(F, x))
    return dot(F, x)


def hamiltonian(F, b: Poly) -> PolyVec:
    """({b,x}, {b,y}, {b,z}) as a vector of polynomials."""
    return cross(F, grad(b))


def jacobiator(F, a: Poly, b: Poly, c: Poly) -> Poly:
    """{a,{b,c}} + {b,{c,a}} + {c,{a,b}}; vanishes for Poisson triples."""
    return (
        bracket(F, a, bracket(F, b, c))
        + bracket(F, b, bracket(F, c, a))
        + bracket(F, c, bracket(F, a, b))
    )


# -- constructors ----------------------------------------------------


def exact_triple(a: Poly) -> PoissonTriple:
    """The bracket with components grad(a); a is Poisson-central for it."""
    return PoissonTriple(*grad(a))


def m_exact_triple(b: Poly, a: Poly) -> PoissonTriple:
    """Multiple of an exact triple: components b * grad(a)."""
    vec = grad(a).scale(b)
    assert is_poisson_triple(vec)
    return PoissonTriple(*vec)


def require_coprime(s: Poly, t: Poly) -> None:
    """The pencil check: ValueError unless s and t are both nonzero,
    NotCoprimeError unless they share no non-constant factor."""
    if s.is_zero() or t.is_zero():
        raise ValueError("s and t must be nonzero")
    common = gcd(s, t)
    if not common.is_constant():
        raise NotCoprimeError(common)


def qm_exact_triple(s: Poly, t: Poly) -> PoissonTriple:
    """Quasi-multiple-exact bracket from coprime s, t: components
    t*grad(s) - s*grad(t); formally t^2 * grad(s/t).

    Swapping the arguments negates the triple. t = 1 recovers grad(s).
    Raises as require_coprime does; the result is Jacobi-verified.
    """
    require_coprime(s, t)
    vec = grad(s).scale(t) - grad(t).scale(s)
    assert is_poisson_triple(vec)
    return PoissonTriple(*vec)


# -- structure tests -------------------------------------------------


def compatible(F, G) -> bool:
    """True iff every pencil member lambda*F + mu*G is Poisson: both are
    Poisson and the mixed term dot(F, curl G) + dot(G, curl F) vanishes."""
    if not (is_poisson_triple(F) and is_poisson_triple(G)):
        return False
    mixed = dot(F, curl(G)) + dot(G, curl(F))
    return mixed.is_zero()


def compatible_m_exact(c: Poly, a: Poly, d: Poly, b: Poly) -> bool:
    """Compatibility of c*grad(a) with d*grad(b), fraction-free.

    Equivalent to the vanishing of |Jac(a, b, c/d)| cleared of its
    denominator: c * |Jac(a,b,d)| - d * |Jac(a,b,c)| = 0.
    """
    expr = c * jacobian_det(a, b, d) - d * jacobian_det(a, b, c)
    return expr.is_zero()


def is_poisson_central(F, p: Poly) -> bool:
    """True iff p brackets to zero with the generators (hence with all of A)."""
    return hamiltonian(F, p).is_zero()


def generates_poisson_ideal(F, p: Poly) -> bool:
    """True iff pA is a Poisson ideal: p divides each {p, generator}."""
    if p.is_zero():
        raise ValueError("p must be nonzero")
    return all(divides(p, comp) for comp in hamiltonian(F, p))


def cycle_variables(F: PolyVec) -> PolyVec:
    """Transport along the algebra automorphism x -> y -> z -> x.

    Components move as (f, g, h) -> (g', h', f') where ' substitutes via
    the inverse permutation (x -> z, y -> x, z -> y). The result has F's
    type: Poisson triples map to Poisson triples. Three applications give
    back the original.
    """
    # inverse substitution on exponents: x^i y^j z^k -> z^i x^j y^k
    perm = (1, 2, 0)
    f, g, h = F
    return type(F)(g.substitute_exponents(perm), h.substitute_exponents(perm), f.substitute_exponents(perm))


def translate_variables(F: PolyVec, point: tuple) -> PolyVec:
    """F under the shift (x, y, z) -> (x, y, z) + point. It commutes with
    d/dx, d/dy, d/dz, so the witness moves with F and F's type is kept."""
    return type(F)(*(c.translate(point) for c in F))
