"""Bounded factorization over Q by undetermined coefficients.

After monomial extraction and squarefree decomposition, each squarefree
part is searched degree by degree: a monic ansatz factor with one unknown
(ring variable) per coefficient divides the target in the engine's
reduction routine, and the remainder's vanishing is a system solved with
the Gröbner engine.

Degrees up to floor(deg/2) find a factor whenever one exists; the result
is complete only when the bound reaches ceil(deg/2) for every cofactor.
The same systems decide absolute irreducibility: a unit ideal at every
degree means no factor over any extension field; a proper ideal with no
rational point (e.g. x^2 - 2) leaves the factor irreducible over Q but
not certified absolutely irreducible. Most systems are the unit ideal,
which a graded-lex basis shows far sooner than a lex one, so lex, which
the rational solver needs, is computed only for a proper ideal.

Each ansatz keeps only the unknowns that Newton polytopes allow. By
Ostrowski's theorem Newt(u*v) = Newt(u) + Newt(v), so for a factor u with
grlex lead m the cofactor's lead lm(q) - m is in Newt(v), and each
monomial e of u has e + lm(q) - m in Newt(q). This holds over any field,
so the dropped coefficients vanish at every point of the full system and
neither the rational factors nor the proper-ideal flag change. Newt(q)
lies within its min/max slabs along the primitive directions in
{-2..2}^3, computed once per q.

Before any search, a member and then each part and cofactor is split as
q = a*v + b, v the first variable of degree 1 in q and a, b free of v.
_linear_content returns gcd(a, b), dividing before any gcd: a constant a
gives 1, an a dividing b gives a, and a linear a not dividing b gives 1.
Content 1 means q has no proper factor over any field: a factor free of v
would divide a and b, and one of v-degree 1 leaves a cofactor free of v.
Such a q is left whole with the result the search would give, whose
systems are all the unit ideal. A nonconstant content c makes q = c*(q/c)
reducible, so the first v decides. It also settles a member's squarefree
split: q/c is irreducible and prime to c, which is free of v, so the
parts of q are those of the smaller c, with q/c joined to multiplicity 1.
A member that is its own one part keeps the content already found for it.

Next, at a bound of 1 or more, _linear_factor finds the monic linear
factor the degree-1 search would split off, with no Gröbner system. For
each lead v dividing lm(q), in the search's order, q is restricted to the
line that holds the other variables at _BASE. If l = v + sum a_w*w + c
divides q = l*h, l meets the line at a rational root of that restriction,
and there grad q = h*grad l. At a simple root h = dq/dv is nonzero, so
a_w = (dq/dw)/(dq/dv): every factor led by v is a candidate, and exact
division keeps the true ones. The least coefficient tuple kept is the
least rational point of that lead's system, the one the search returns.
A zero line, a multiple root, or a root search or root past its bound
gives None, and the search then runs from degree 1 as before. It returns
the cofactor with the factor. The order is thus: linear content, linear
factor, search.

Otherwise certification comes from the flag that _ansatz_search returns: a
part left whole is certified when no degree searched met a proper ideal,
and a factor split off by running the same search on it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd as igcd, isqrt, prod
from operator import add, le, sub

from . import _engine
from .poly import (MAX_COEFF_BITS, MAX_TERM_PAIRS, Monomial, Poly, SquareFreePart, exact_quotient, gcd, grlex_key,
                   squarefree_decomposition)


@dataclass(frozen=True)
class FactorPart:
    factor: Poly
    multiplicity: int
    absolutely_irreducible_certified: bool


@dataclass(frozen=True)
class Factorization:
    """p = unit * product(factor^multiplicity); complete is False when the
    degree bound could not certify irreducibility of some part."""

    unit: Fraction
    parts: tuple[FactorPart, ...]
    complete: bool


def _monomials_upto(d: int) -> list[Monomial]:
    out = []
    for total in range(d + 1):
        for i in range(total, -1, -1):
            for j in range(total - i, -1, -1):
                out.append((i, j, total - i - j))
    return out


# primitive directions in {-2..2}^3, one of each +/- pair
_DIRECTIONS = [w for w in product(range(-2, 3), repeat=3)
               if w > (0, 0, 0) and igcd(*w) == 1]


def _newton_slabs(q: Poly) -> list[tuple[Monomial, int, int]]:
    """(w, min, max) of w . e over the monomials e of q, per direction w."""
    out = []
    for w in _DIRECTIONS:
        dots = [w[0] * e[0] + w[1] * e[1] + w[2] * e[2] for e in q._num]
        out.append((w, min(dots), max(dots)))
    return out


def _in_slabs(e: Monomial, slabs: list[tuple[Monomial, int, int]]) -> bool:
    return all(lo <= w[0] * e[0] + w[1] * e[1] + w[2] * e[2] <= hi for w, lo, hi in slabs)


# graded lex on x, y, z, then lex on the unknowns' slots
_DIVISION = _engine.order(0, 3)


def _division_system(q: Poly, lm3: Monomial, unknowns: list[Monomial]) -> list[dict[tuple, int]]:
    """Remainder of q under division by the symbolic monic factor
    lm3 + sum c_i * unknowns[i], grouped into one integer polynomial in the
    c's per leftover x,y,z monomial. _engine.normal_form divides, with one
    exponent slot per c_i after x,y,z, under graded lex on x,y,z with the
    c slots breaking ties. q enters as its integer numerators: a constant
    multiple, which leaves the solutions of the system as they are."""
    n = len(unknowns)
    pad = (0,) * n
    divisor = {lm3 + pad: 1, **{u + tuple(int(k == i) for k in range(n)): 1 for i, u in enumerate(unknowns)}}
    work = {m + pad: c for m, c in q._num.items()}
    rem, _ = _engine.normal_form(work, [divisor], _DIVISION)
    grouped: dict[Monomial, dict[tuple, int]] = {}
    for k, c in rem.items():
        grouped.setdefault(k[:3], {})[k[3:]] = c
    return list(grouped.values())


def _ansatz_search(q: Poly, d: int, slabs: list[tuple[Monomial, int, int]]) -> tuple[Poly | None, bool]:
    """Look for a monic degree-d factor of squarefree q, given its
    _newton_slabs. Returns (factor or None, proper_seen), proper_seen True
    when a candidate system had solutions over an extension field only."""
    proper_seen = False
    qlm = q.leading_monomial()
    candidates = [m for m in _monomials_upto(d) if sum(m) == d and all(map(le, m, qlm))]
    candidates.sort(key=grlex_key, reverse=True)
    for m in candidates:
        lv = tuple(map(sub, qlm, m))  # lead of the cofactor
        unknowns = [mm for mm in _monomials_upto(d) if grlex_key(mm) < grlex_key(m)
                    and _in_slabs(tuple(map(add, mm, lv)), slabs)]
        unknowns.sort(key=grlex_key, reverse=True)
        system = _division_system(q, m, unknowns)
        if not system:
            return Poly.term(1, m), proper_seen
        if _engine.is_unit(_engine.buchberger(system, _engine.grlex_key)):
            continue
        basis = _engine.buchberger(system, _engine.lex_key)
        points, _, _ = _engine.solve_rational(basis, len(unknowns))
        if points:
            return Poly([(m, 1), *zip(unknowns, points[0])]), proper_seen
        proper_seen = True
    return None, proper_seen


def _linear_content(q: Poly) -> Poly | None:
    """gcd(a, b), monic, for q = a*v + b with v the first variable in
    which q has degree 1 and a, b free of v; None when there is no such
    variable. Content 1 certifies q absolutely irreducible."""
    v = next((vi for vi in range(3) if q.degree_in(vi) == 1), None)
    if v is None:
        return None
    a = Poly._make({m[:v] + (0,) + m[v + 1:]: n for m, n in q._num.items() if m[v]})
    if a.is_constant():
        return Poly.one()
    b = Poly._make({m: n for m, n in q._num.items() if not m[v]})
    if exact_quotient(b, a) is not None:
        return a.monic()
    if a.total_degree() == 1:
        return Poly.one()  # irreducible and not dividing b
    return gcd(a, b)


def _squarefree_by_content(q: Poly, c: Poly) -> tuple[Fraction, tuple[SquareFreePart, ...]]:
    """squarefree_decomposition(q) for a nonconstant c = _linear_content(q):
    q/c is irreducible and prime to c, so it joins c's multiplicity-1 part."""
    unit = q.leading_coefficient()
    parts = squarefree_decomposition(c)[1] if c.total_degree() > 1 else ()
    if not parts or parts[0].factor == c:  # c is squarefree, and so is q
        return unit, (SquareFreePart(q.monic(), 1),)
    p = exact_quotient(q, c)
    assert p is not None
    if parts[0].multiplicity == 1:
        p, parts = parts[0].factor * p, parts[1:]
    return unit, (SquareFreePart(p.monic(), 1), *parts)


# the line of lead v holds each other variable k at _BASE[k]
_BASE = (1, 2, 3)
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _linear_factor(q: Poly) -> tuple[Poly, Poly] | None:
    """(u, q/u) for the monic linear factor u that _ansatz_search(q, 1, ...)
    returns, found from rational roots on a line and the tangent plane
    there; None when q has none or the line cannot tell."""
    deg = q.total_degree()
    if deg > isqrt(MAX_TERM_PAIRS):
        return None
    qlm = q.leading_monomial()
    powers = [[b**e for e in range(deg + 1)] for b in _BASE]
    for v in (vi for vi in range(3) if qlm[vi]):
        after = range(v + 1, 3)
        n = max(m[v] for m in q._num)
        # q and each dq/dw, w after v, by powers of v on the line
        lines = [[0] * (n + 1) for _ in range(3 - v)]
        i, j = (k for k in range(3) if k != v)
        for m, c in q._num.items():
            c *= powers[i][m[i]] * powers[j][m[j]]
            lines[0][m[v]] += c
            for w in after:
                lines[w - v][m[v]] += c * m[w] // _BASE[w]
        line = lines[0]
        support = [e for e, c in enumerate(line) if c]
        if not support:
            return None  # q vanishes on the line
        low, top = support[0], support[-1]
        if top >= 3 and abs(line[low] * line[top]) > MAX_TERM_PAIRS:
            return None  # bounds the trial division for roots
        kept = []
        for r in _engine.univariate_rational_roots(line)[0]:
            s, t = r.numerator, r.denominator
            if n * max(s.bit_length(), t.bit_length()) > MAX_COEFF_BITS:
                return None  # bounds the powers of r below
            # the lines at r, each times t^n
            hom = [s**e * t**(n - e) for e in range(n + 1)]
            g_v = sum(e * line[e] * hom[e - 1] for e in range(1, n + 1))
            if not g_v:
                return None  # a multiple root: the tangent plane need not be a factor's
            g = [sum(a * h for a, h in zip(lw, hom)) for lw in lines[1:]]
            # u = v + sum (g_w/g_v)*w + c, zero at the root, times g_v*t
            num = {_UNITS[v]: g_v * t, **{_UNITS[w]: g_w * t for w, g_w in zip(after, g) if g_w}}
            c = -s * g_v - t * sum(g_w * _BASE[w] for w, g_w in zip(after, g))
            if c:
                num[0, 0, 0] = c
            u = Poly._make(num, g_v * t)
            cof = exact_quotient(q, u)
            if cof is not None:
                kept.append((u, cof))
        if kept:
            return min(kept, key=lambda uc: [uc[0].coeff(m) for m in (*_UNITS[v + 1:], (0, 0, 0))])
    return None


def _whole(q: Poly, bound: int) -> tuple[list[tuple[Poly, bool]], bool]:
    """What the search returns for an absolutely irreducible q, whose
    ansatz systems are all the unit ideal."""
    deg = q.total_degree()
    done = deg == 1 or bound >= (deg + 1) // 2
    return [(q, done)], done


def _factor_part(q: Poly, bound: int) -> tuple[list[tuple[Poly, bool]], bool]:
    """_factor_squarefree of a monic squarefree q whose linear content is
    not yet known."""
    if q.total_degree() > 1 and _linear_content(q) == 1:
        return _whole(q, bound)
    return _factor_squarefree(q, bound)


def _factor_squarefree(q: Poly, bound: int) -> tuple[list[tuple[Poly, bool]], bool]:
    """Split monic squarefree q, whose linear content is not 1, into
    irreducibles over Q within the degree bound; returns (factors with
    absolute-irreducibility flags, complete)."""
    deg = q.total_degree()
    if deg == 1:
        return _whole(q, bound)
    seen_proper = False
    found = _linear_factor(q) if bound else None
    if found is None:
        slabs = _newton_slabs(q)
        for d in range(1, min(bound, deg // 2) + 1):
            u, proper = _ansatz_search(q, d, slabs)
            seen_proper = seen_proper or proper
            if u is not None:
                found = u, exact_quotient(q, u)
                break
    if found is not None:
        u, cof = found
        assert cof is not None
        # u is irreducible over Q and deg(u) <= bound, so this search
        # finds no factor and its flag is u's certificate
        head, _ = _factor_part(u, bound)
        tail, complete = _factor_part(cof.monic(), bound)
        return head + tail, complete
    if bound >= (deg + 1) // 2:
        # searched everything a factorization would need: irreducible over Q
        return [(q, not seen_proper)], True
    return [(q, False)], False


def factor_bounded(p: Poly, max_total_degree: int) -> Factorization:
    """Factor p into irreducibles over Q, searching factor degrees up to
    max_total_degree; monomial and squarefree structure is always exact.
    The one runtime check of a factorization: it asserts that
    unit * prod(factor^multiplicity) == p before returning."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if max_total_degree < 0:
        raise ValueError("negative degree bound")
    monomials = list(p._num)
    mins = [min(m[vi] for m in monomials) for vi in range(3)]
    parts: list[FactorPart] = []
    shifted = p
    if any(mins):
        shifted = Poly._make({(m[0] - mins[0], m[1] - mins[1], m[2] - mins[2]): c for m, c in p._num.items()}, p._den)
        for vi, a in enumerate(mins):
            if a:
                parts.append(FactorPart(Poly.variable(vi), a, True))
    content = _linear_content(shifted)
    if content == 1:  # irreducible, so squarefree
        unit = shifted.leading_coefficient()
        split = [(1, *_whole(shifted.monic(), max_total_degree))]
    else:
        unit, squarefree = (squarefree_decomposition(shifted) if content is None
                            else _squarefree_by_content(shifted, content))
        # a member that is its own one part has the content found above
        known = len(squarefree) == 1 and squarefree[0].multiplicity == 1
        split_one = _factor_squarefree if known else _factor_part
        split = [(sq.multiplicity, *split_one(sq.factor, max_total_degree)) for sq in squarefree]
    parts += [FactorPart(fac, mult, certified) for mult, pieces, _ in split for fac, certified in pieces]
    assert prod((q.factor**q.multiplicity for q in parts), start=Poly.constant(unit)) == p, f"not the factors of {p}"
    return Factorization(unit, tuple(parts), all(complete for _, _, complete in split))
