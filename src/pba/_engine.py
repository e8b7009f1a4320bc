"""Gröbner machinery over raw exponent-tuple polynomials.

An Epoly maps exponent tuples of any fixed width to nonzero ints, and
bases come back primitive with a positive lead. groebner.py wraps it for
three variables; the factor-search ansatz adds one tuple slot per unknown
coefficient, so nothing assumes width three.

Variable precedence follows tuple position (slot 0 highest). Buchberger
keeps each basis element primitive with its lead alongside and reduces
fraction-free. Pairs go smallest lcm first and are pruned by the
Gebauer-Moller update (J. Symb. Comp. 6, 1988); normal_form and certify
use the same reduction. One substitute (slot = a/b, times b^deg) serves
the solver, the gcd and Poly.evaluate; Poly.translate is a Taylor shift.

Inputs are read-only and every polynomial returned is a fresh dict, so
callers may pass the term dicts of immutable polynomials uncopied.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import gcd as igcd, isqrt, lcm
from operator import add, le, mul, sub

Mono = tuple[int, ...]
Epoly = dict[Mono, int]


def lex_key(m: Mono):
    return m


def grlex_key(m: Mono):
    """Sort key realizing graded lex order, slot 0 highest."""
    return (sum(m), m)


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_add(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_sub(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def substitute(p: Epoly, vi: int, a: int, b: int = 1) -> tuple[Epoly, int]:
    """(b^deg * p with slot vi set to a/b, deg), deg being the largest
    exponent of slot vi in p: an integer polynomial with slot vi zero."""
    deg = max((m[vi] for m in p), default=0)
    pa = list(accumulate(repeat(a, deg), mul, initial=1))
    pb = list(accumulate(repeat(b, deg), mul, initial=1))
    out: Epoly = {}
    for m, c in p.items():
        k = m[:vi] + (0,) + m[vi + 1:]
        out[k] = out.get(k, 0) + c * pa[m[vi]] * pb[deg - m[vi]]
    return {k: v for k, v in out.items() if v}, deg


Reducer = tuple[Mono, int, list[tuple[Mono, int]]]


def _reducer(p: Epoly, key) -> Reducer:
    """Nonzero p made primitive with a positive lead, as (lead monomial,
    its coefficient, other terms)."""
    lm = max(p, key=key)
    g = igcd(*p.values()) if p[lm] > 0 else -igcd(*p.values())
    return lm, p[lm] // g, [(m, c // g) for m, c in p.items() if m != lm]


def _reduce(p: Epoly, reducers: list[Reducer], key) -> tuple[Epoly, int]:
    """Full remainder of integer p under division by the reducers, scanning
    them in order, fraction-free: returns (r, s) with s > 0 such that r / s
    is the remainder over Q. Before a term c is cancelled against a leading
    coefficient lc, the running remainder is scaled by lc // gcd(c, lc).
    Terms leave in descending order; every term a step adds is smaller
    than the one it cancels, so a term that has left never comes back."""
    work = dict(p)
    todo = sorted(work, key=key)  # ascending, and may hold cancelled terms
    rem: Epoly = {}
    scale = 1
    while todo:
        m = todo.pop()
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc, tail in reducers:
            if mono_divides(lm, m):
                g = igcd(c, lc)
                if g != lc:
                    mult = lc // g
                    scale *= mult
                    for terms in (work, rem):
                        for k in terms:
                            terms[k] *= mult
                q = c // g
                shift = mono_sub(m, lm)
                for bm, bc in tail:
                    k = mono_add(bm, shift)
                    v = work.get(k)
                    if v is None:
                        work[k] = -q * bc
                        insort(todo, k, key=key)
                    elif v == q * bc:
                        del work[k]
                    else:
                        work[k] = v - q * bc
                break
        else:
            rem[m] = c
    return rem, scale


def _spoly(a: Reducer, b: Reducer, big: Mono) -> Epoly:
    """Integer S-polynomial of a and b over the lcm big of their leads, each
    side scaled by the other's lead coefficient over their gcd; the leads
    cancel, so only the tails are formed."""
    g = igcd(a[1], b[1])
    out: Epoly = {}
    for (lm, _, tail), f in ((a, b[1] // g), (b, -a[1] // g)):
        shift = mono_sub(big, lm)
        for m, c in tail:
            k = mono_add(m, shift)
            v = out.get(k, 0) + f * c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def normal_form(p: Epoly, basis: list[Epoly], key) -> tuple[Epoly, int]:
    """Full remainder of integer p under division by the basis, scanning
    divisors in basis order, as (r, s) for the remainder r / s; unique when
    the basis is a Gröbner basis."""
    return _reduce(p, [_reducer(b, key) for b in basis], key)


def buchberger(gens: list[Epoly], key) -> list[Epoly]:
    """Reduced Gröbner basis (primitive, positive lead term first, fully
    inter-reduced, sorted by descending leading monomial). Deterministic
    for fixed input."""
    polys: list[Reducer] = []
    live: list[int] = []  # indices of the elements new pairs are made with
    pending: list[tuple] = []  # heap of (key(lcm), i, j, lcm)

    def update(h: Reducer):
        # Gebauer-Moller: of h's new pairs, drop those whose lcm another's
        # divides (keeping one per lcm) and those with coprime leads; drop
        # old pairs whose lcm lh divides unless it is an lcm with h.
        lh = h[0]
        new = [(mono_lcm(polys[g][0], lh), g) for g in live]
        kept = []
        for n, (big, g) in enumerate(new):
            coprime = not any(map(min, polys[g][0], lh))
            if coprime or not any(mono_divides(o[0], big) for o in chain(new[n + 1:], kept)):
                kept.append((big, g, coprime))
        pending[:] = [
            p for p in pending
            if not mono_divides(lh, p[3])
            or p[3] in (mono_lcm(polys[p[1]][0], lh), mono_lcm(polys[p[2]][0], lh))
        ]
        heapq.heapify(pending)
        j = len(polys)
        for big, g, coprime in kept:
            if not coprime:
                heapq.heappush(pending, (key(big), g, j, big))
        live[:] = [g for g in live if not mono_divides(lh, polys[g][0])] + [j]
        polys.append(h)

    for g in gens:
        if g:
            update(_reducer(g, key))
    while pending:
        _, i, j, big = heapq.heappop(pending)
        r, _ = _reduce(_spoly(polys[i], polys[j], big), [polys[k] for k in live], key)
        if r:
            update(_reducer(r, key))
    # Live leads are distinct. Keep the minimal ones, then reduce each tail
    # by the elements with smaller leads, the only ones that divide its terms.
    leads = [polys[g][0] for g in live]
    minimal = [polys[g] for g in live
               if not any(o != polys[g][0] and mono_divides(o, polys[g][0]) for o in leads)]
    minimal.sort(key=lambda r: key(r[0]))
    done: list[Reducer] = []
    for lm, lc, tail in minimal:
        rem, scale = _reduce(dict(tail), done, key)
        done.append(_reducer({lm: lc * scale, **rem}, key))
    return [{lm: lc, **dict(tail)} for lm, lc, tail in reversed(done)]


def is_unit(basis: list[Epoly]) -> bool:
    return len(basis) == 1 and len(basis[0]) == 1 and not any(*basis[0])


def certify(gens: list[Epoly], basis: list[Epoly], key) -> bool:
    """Gröbner certificate: every input generator and every S-polynomial
    of the basis reduces to zero against the basis."""
    reducers = [_reducer(b, key) for b in basis]
    for g in gens:
        if g and _reduce(g, reducers, key)[0]:
            return False
    for j, b in enumerate(reducers):
        for a in reducers[:j]:
            if _reduce(_spoly(a, b, mono_lcm(a[0], b[0])), reducers, key)[0]:
                return False
    return True


def dimension(basis: list[Epoly], nvars: int, key) -> int:
    """Krull dimension of the quotient ring via maximal variable subsets
    independent of the leading-term ideal; -1 for the unit ideal."""
    if is_unit(basis):
        return -1
    lts = [max(b, key=key) for b in basis]
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lts]
    best = 0
    for mask in range(2 ** nvars):
        subset = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(subset) <= best:
            continue
        if all(not s <= subset for s in supports):
            best = len(subset)
    return best


# -- zero-dimensional rational solving --------------------------------


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d <= isqrt(n):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _deflate(ints: list[int], a: int, b: int) -> list[int] | None:
    """The quotient of sum(ints[i] * v^i) by b*v - a, or None at the first
    nonzero remainder. For b*v - a primitive it divides exactly over Z
    when it divides over Q (Gauss's lemma)."""
    quot = [0] * (len(ints) - 1)
    acc = 0
    for i in range(len(ints) - 1, 0, -1):
        acc, rem = divmod(ints[i] + a * acc, b)
        if rem:
            return None
        quot[i - 1] = acc
    return None if ints[0] + a * acc else quot


def univariate_rational_roots(coeffs: list[int | Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Distinct rational roots of sum(coeffs[i] * v^i), for int or Fraction
    coeffs, plus the monic residual cofactor left after dividing them out."""
    work = list(coeffs)
    while work and not work[-1]:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    den = lcm(*(c.denominator for c in work))
    ints = [c.numerator * (den // c.denominator) for c in work]
    roots: list[Fraction] = []
    while len(ints) > 1 and not ints[0]:
        roots.append(Fraction(0))
        ints = ints[1:]
    if len(ints) == 2:
        candidates = [Fraction(-ints[0], ints[1])]
    elif len(ints) == 3:
        # a*v^2 + b*v + c has rational roots iff b^2 - 4ac is a square
        c, b, a = ints
        disc = b * b - 4 * a * c
        r = isqrt(disc) if disc >= 0 else -1
        candidates = [Fraction(-b - r, 2 * a), Fraction(-b + r, 2 * a)] if r * r == disc else []
    elif len(ints) > 3:
        dens = _divisors(abs(ints[-1]))
        candidates = {s * Fraction(p, q) for p in _divisors(abs(ints[0])) for q in dens for s in (1, -1)}
    else:
        candidates = []
    for r in candidates:
        while len(ints) > 1 and (quot := _deflate(ints, r.numerator, r.denominator)) is not None:
            roots.append(r)
            ints = quot
    return sorted(set(roots)), [Fraction(c, ints[-1]) for c in ints]


def solve_rational(basis: list[Epoly], nvars: int) -> tuple[list[tuple[Fraction, ...]], bool, list[tuple[int, list[Fraction]]]]:
    """All rational points of a zero-dimensional ideal from its reduced lex
    basis: peel rational roots of the last-variable eliminant, substitute,
    and recurse, backtracking over every rational branch.

    Returns (points sorted, complete, eliminants). complete is False when
    some branch eliminant has a nonconstant cofactor with no rational
    roots; those cofactors are reported as (variable index, monic
    coefficient list) pairs.
    """
    sink: list[tuple[int, list[Fraction]]] = []
    points, complete = _solve_rec(basis, nvars - 1, sink)
    points.sort()
    return points, complete, sink


def _solve_rec(basis: list[Epoly], v: int, sink) -> tuple[list[tuple[Fraction, ...]], bool]:
    if not basis or any(any(m[:v]) for m in basis[-1]):
        return [], False  # no eliminant: not zero-dimensional
    e = basis[-1]  # its lead is a power of v; the slots past v are substituted, 0
    coeffs = [0] * (max(m[v] for m in e) + 1)
    for m, c in e.items():
        coeffs[m[v]] = c
    roots, residual = univariate_rational_roots(coeffs)
    complete = len(residual) == 1
    if not complete:
        sink.append((v, residual))
    if v == 0:  # a reduced basis in one variable is e alone
        return [(r,) for r in roots], complete
    points: list[tuple[Fraction, ...]] = []
    for r in roots:
        sub = buchberger([substitute(g, v, r.numerator, r.denominator)[0] for g in basis], lex_key)
        sub_points, sub_complete = _solve_rec(sub, v - 1, sink)
        complete = complete and sub_complete
        points.extend(pt + (r,) for pt in sub_points)
    return points, complete
