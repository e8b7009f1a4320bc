"""Buchberger-based ideal computations in Q[x, y, z].

Variable precedence is fixed at x > y > z for both supported orders.
Bases are reduced and monic, so equal ideals yield equal bases and the
results are deterministic for fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import _engine
from .poly import Poly, Point


class TermOrder(Enum):
    GRLEX = "grlex"
    LEX = "lex"


_KEYS = {TermOrder.GRLEX: _engine.grlex_key, TermOrder.LEX: _engine.lex_key}


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Gröbner basis together with the generators it came from."""

    generators: tuple[Poly, ...]
    basis: tuple[Poly, ...]
    order: TermOrder


def buchberger(gens: Sequence[Poly], order: TermOrder = TermOrder.GRLEX) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal generated by gens."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("empty generator list")
    basis = _engine.buchberger([g._terms for g in gens], _KEYS[order])
    return GroebnerBasis(gens, tuple(Poly._make(b) for b in basis), order)


def normal_form(p: Poly, G: GroebnerBasis) -> Poly:
    """Unique remainder of p modulo the ideal; zero iff p is a member."""
    raw = _engine.normal_form(p._terms, [b._terms for b in G.basis], _KEYS[G.order])
    return Poly._make(raw)


def ideal_member(p: Poly, G: GroebnerBasis) -> bool:
    return normal_form(p, G).is_zero()


def is_unit_ideal(G: GroebnerBasis) -> bool:
    return len(G.basis) == 1 and G.basis[0] == Poly.one()


def dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the quotient; -1 encodes the unit ideal, 3 the
    zero ideal."""
    return _engine.dimension([b._terms for b in G.basis], 3, _KEYS[G.order])


def certify(G: GroebnerBasis) -> bool:
    """Check the Gröbner property directly: all S-polynomials of the basis
    and all original generators reduce to zero."""
    gens = [g._terms for g in G.generators]
    return _engine.certify(gens, [b._terms for b in G.basis], _KEYS[G.order])


@dataclass(frozen=True)
class RationalPoints:
    """Solution set of a zero-dimensional ideal over Q.

    complete is True when every branch eliminant split into rational
    linear factors; otherwise the non-split cofactors are reported in
    `eliminants` and non-rational solutions exist.
    """

    points: tuple[Point, ...]
    complete: bool
    eliminants: tuple[Poly, ...]


def rational_points(G: GroebnerBasis) -> RationalPoints:
    """All rational solutions, via pure lex elimination with rational root
    extraction and back-substitution."""
    if dimension(G) != 0:
        raise ValueError("ideal is not zero-dimensional")
    pts, complete, sink = _engine.solve_rational([g._terms for g in G.generators], 3)
    eliminants = []
    for var_index, coeffs in sink:
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                mono = [0, 0, 0]
                mono[var_index] = i
                terms[tuple(mono)] = c
        eliminants.append(Poly._make(terms))
    points = tuple((p[0], p[1], p[2]) for p in pts)
    return RationalPoints(points, complete, tuple(eliminants))
