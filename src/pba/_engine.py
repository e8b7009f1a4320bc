"""Gröbner machinery over raw exponent-tuple polynomials.

Polynomials here are plain dicts mapping exponent tuples (any fixed width)
to Fractions. The public three-variable API wraps this module; the
factor-search ansatz reuses it with one tuple slot per unknown
coefficient, which is why nothing in this file assumes width three.

Conventions: variable precedence follows tuple position (slot 0 highest).
Buchberger uses normal (smallest-lcm-first) pair selection with both the
coprime-lead and chain criteria; intermediate remainders are cleared to
primitive integer form to keep coefficients small.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd as igcd, isqrt

Mono = tuple[int, ...]
Epoly = dict[Mono, Fraction]

_ZERO = Fraction(0)


def lex_key(m: Mono):
    return m


def grlex_key(m: Mono):
    return (sum(m), m)


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_add(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_sub(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def lead(p: Epoly, key) -> Mono:
    return max(p, key=key)


def clear_denominators(p: Epoly, key) -> Epoly:
    """Scale to a primitive integer polynomial with positive leading
    coefficient under the given order."""
    if not p:
        return p
    den = 1
    for c in p.values():
        den = den * c.denominator // igcd(den, c.denominator)
    num = 0
    for c in p.values():
        num = igcd(num, abs(c.numerator * (den // c.denominator)))
    scale = Fraction(den, num)
    if p[lead(p, key)] < 0:
        scale = -scale
    return {m: c * scale for m, c in p.items()}


def spoly(p: Epoly, q: Epoly, key) -> Epoly:
    lp, lq = lead(p, key), lead(q, key)
    big = mono_lcm(lp, lq)
    cp, cq = p[lp], q[lq]
    out: Epoly = {}
    sp = mono_sub(big, lp)
    for m, c in p.items():
        out[mono_add(m, sp)] = c / cp
    sq = mono_sub(big, lq)
    for m, c in q.items():
        k = mono_add(m, sq)
        v = out.get(k, _ZERO) - c / cq
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def normal_form(p: Epoly, basis: list[Epoly], key) -> Epoly:
    """Full remainder of p under division by the basis, scanning divisors
    in basis order; unique when the basis is a Gröbner basis."""
    pairs = [(lead(b, key), b) for b in basis]
    work = dict(p)
    rem: Epoly = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, b in pairs:
            if mono_divides(lm, m):
                coef = c / b[lm]
                shift = mono_sub(m, lm)
                for bm, bc in b.items():
                    if bm == lm:
                        continue
                    k = mono_add(bm, shift)
                    v = work.get(k, _ZERO) - coef * bc
                    if v:
                        work[k] = v
                    else:
                        work.pop(k, None)
                break
        else:
            rem[m] = c
    return rem


def buchberger(gens: list[Epoly], key) -> list[Epoly]:
    """Reduced Gröbner basis (monic, fully inter-reduced, sorted by
    descending leading monomial). Deterministic for fixed input."""
    basis = [clear_denominators(g, key) for g in gens if g]
    if not basis:
        return []
    pending: list[tuple] = []

    def push(i: int, j: int):
        big = mono_lcm(lead(basis[i], key), lead(basis[j], key))
        heapq.heappush(pending, (key(big), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    done: set[tuple[int, int]] = set()
    while pending:
        _, i, j = heapq.heappop(pending)
        done.add((i, j))
        li, lj = lead(basis[i], key), lead(basis[j], key)
        big = mono_lcm(li, lj)
        if big == mono_add(li, lj):
            continue  # coprime leads: S-poly reduces to zero
        chained = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(lead(basis[k], key), big):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    chained = True
                    break
        if chained:
            continue
        r = normal_form(spoly(basis[i], basis[j], key), basis, key)
        if r:
            basis.append(clear_denominators(r, key))
            for k in range(len(basis) - 1):
                push(k, len(basis) - 1)
    return _reduce_basis(basis, key)


def _reduce_basis(basis: list[Epoly], key) -> list[Epoly]:
    ordered = sorted(basis, key=lambda b: key(lead(b, key)))
    minimal: list[Epoly] = []
    for b in ordered:
        lm = lead(b, key)
        if not any(mono_divides(lead(m, key), lm) for m in minimal):
            minimal.append(b)
    reduced: list[Epoly] = list(minimal)
    for i in range(len(reduced)):
        others = reduced[:i] + reduced[i + 1:]
        r = normal_form(reduced[i], others, key)
        lc = r[lead(r, key)]
        reduced[i] = {m: c / lc for m, c in r.items()}
    reduced.sort(key=lambda b: key(lead(b, key)), reverse=True)
    return reduced


def is_unit(basis: list[Epoly], key) -> bool:
    return len(basis) == 1 and len(basis[0]) == 1 and sum(lead(basis[0], key)) == 0


def certify(gens: list[Epoly], basis: list[Epoly], key) -> bool:
    """Gröbner certificate: every input generator and every S-polynomial
    of the basis reduces to zero against the basis."""
    for g in gens:
        if g and normal_form(g, basis, key):
            return False
    for j in range(len(basis)):
        for i in range(j):
            if normal_form(spoly(basis[i], basis[j], key), basis, key):
                return False
    return True


def dimension(basis: list[Epoly], nvars: int, key) -> int:
    """Krull dimension of the quotient ring via maximal variable subsets
    independent of the leading-term ideal; -1 for the unit ideal."""
    if is_unit(basis, key):
        return -1
    lts = [lead(b, key) for b in basis]
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


def univariate_rational_roots(coeffs: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Distinct rational roots of sum(coeffs[i] * v^i), plus the residual
    cofactor (monic) left after dividing all rational roots out."""
    work = list(coeffs)
    while work and not work[-1]:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    den = 1
    for c in work:
        den = den * c.denominator // igcd(den, c.denominator)
    ints = [c * den for c in work]
    roots: list[Fraction] = []
    while len(ints) > 1 and not ints[0]:
        roots.append(Fraction(0))
        ints = ints[1:]
    if len(ints) == 2:
        roots.append(-ints[0] / ints[1])
        ints = ints[1:]
    elif len(ints) == 3:
        # a*v^2 + b*v + c has rational roots iff b^2 - 4ac is a square
        c, b, a = (int(x) for x in ints)
        disc = b * b - 4 * a * c
        r = isqrt(disc) if disc >= 0 else -1
        if r * r == disc:
            roots += [Fraction(-b - r, 2 * a), Fraction(-b + r, 2 * a)]
            ints = ints[2:]
    elif len(ints) > 3:
        a0 = abs(int(ints[0]))
        dens = _divisors(abs(int(ints[-1])))
        candidates = sorted(
            {s * Fraction(p, q) for p in _divisors(a0) for q in dens for s in (1, -1)}
        )
        for r in candidates:
            while len(ints) > 1:
                # synthetic division by (v - r); exact when r is a root
                quot = [_ZERO] * (len(ints) - 1)
                acc = _ZERO
                for i in range(len(ints) - 1, 0, -1):
                    acc = ints[i] + acc * r
                    quot[i - 1] = acc
                if ints[0] + acc * r:
                    break
                if r not in roots:
                    roots.append(r)
                ints = quot
    lc = ints[-1]
    residual = [c / lc for c in ints]
    return sorted(set(roots)), residual


def _subst_last(p: Epoly, value: Fraction) -> Epoly:
    out: Epoly = {}
    for m, c in p.items():
        k = m[:-1]
        v = out.get(k, _ZERO) + c * value ** m[-1]
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _univariate_in_last(p: Epoly) -> bool:
    return all(all(e == 0 for e in m[:-1]) for m in p)


def solve_rational(gens: list[Epoly], nvars: int) -> tuple[list[tuple[Fraction, ...]], bool, list[tuple[int, list[Fraction]]]]:
    """All rational points of a zero-dimensional system, by pure lex
    elimination: peel rational roots of the last-variable eliminant,
    substitute, and recurse, backtracking over every rational branch.

    Returns (points sorted, complete, eliminants). complete is False when
    some branch eliminant has a nonconstant cofactor with no rational
    roots; those cofactors are reported as (variable index, monic
    coefficient list) pairs.
    """
    sink: list[tuple[int, list[Fraction]]] = []
    points, complete = _solve_rec([dict(g) for g in gens if g], nvars, sink)
    points.sort()
    return points, complete, sink


def _solve_rec(gens: list[Epoly], n: int, sink) -> tuple[list[tuple[Fraction, ...]], bool]:
    gens = [g for g in gens if g]
    for g in gens:
        if all(all(e == 0 for e in m) for m in g):
            return [], True  # nonzero constant: inconsistent branch
    if n == 0:
        return [()], True
    if not gens:
        return [], False  # unconstrained variables: not zero-dimensional
    basis = buchberger(gens, lex_key)
    if is_unit(basis, lex_key):
        return [], True
    elim = [g for g in basis if _univariate_in_last(g)]
    if not elim:
        return [], False
    e = min(elim, key=lambda g: max(m[-1] for m in g))
    deg = max(m[-1] for m in e)
    coeffs = [_ZERO] * (deg + 1)
    for m, c in e.items():
        coeffs[m[-1]] = c
    roots, residual = univariate_rational_roots(coeffs)
    complete = len(residual) == 1
    if not complete:
        sink.append((n - 1, residual))
    points: list[tuple[Fraction, ...]] = []
    for r in roots:
        sub = [_subst_last(g, r) for g in basis]
        sub_points, sub_complete = _solve_rec(sub, n - 1, sink)
        complete = complete and sub_complete
        points.extend(pt + (r,) for pt in sub_points)
    return points, complete
