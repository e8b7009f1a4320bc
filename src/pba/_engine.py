"""Gröbner machinery over raw exponent-tuple polynomials.

An Epoly maps exponent tuples of any fixed width to nonzero ints: three
for groebner.py, and one more per unknown coefficient in the factor-search
ansatz. An order is a sort key with a block (lo, hi): lex, slot 0
highest, except that slots lo..hi-1 (hi None: the rest) compare by their
sum first; grlex_key has the block (0, None).

buchberger, normal_form and certify pack each monomial into one int
(Monagan & Pearce, CASC 2007): per slot a field of B value bits under a
guard bit, slot 0 highest, and the block's sum in a field above the
block. Int order is then the term order, products are +, and a divides
b iff ((b | G) - a) & G == G for the guard mask G. B fits the inputs'
degrees; a guard bit set in a term or an lcm (lex can raise exponents)
restarts the call at twice the width, so answers are exact at any
exponent.

Buchberger reduces fraction-free, takes pairs smallest lcm first and
prunes them by Gebauer-Moller (J. Symb. Comp. 6, 1988); bases come back
primitive with a positive lead. One substitute (slot = a/b, times b^deg)
serves the solver, the gcd and Poly.evaluate; Poly.translate is a Taylor
shift. Inputs are read-only and every polynomial returned is a fresh
dict, so callers may pass the term dicts of immutable polynomials
uncopied.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd as igcd, isqrt, lcm
from operator import itemgetter, mul

Mono = tuple[int, ...]
Epoly = dict[Mono, int]
Packed = dict[int, int]


def lex_key(m: Mono):
    return m


def grlex_key(m: Mono):
    """Sort key realizing graded lex order, slot 0 highest."""
    return (sum(m), m)


def order(lo: int, hi: int | None):
    """The order of block (lo, hi), as a sort key."""
    def key(m: Mono):
        return m[:lo], sum(m[lo:hi]), m[lo:]
    key.block = lo, hi
    return key


lex_key.block, grlex_key.block = (0, 0), (0, None)


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


_MIN_BITS = 15  # value bits of a field at the first try


class _Overflow(Exception):
    pass


class _Layout:
    """An order on n slots packed at B = bits value bits per field."""

    def __init__(self, order, n: int, bits: int):
        lo, hi = order.block
        hi, w = n if hi is None else hi, bits + 1
        graded = lo < hi
        top = n + graded - 1  # the top field's index; the sum's is above slot lo's
        self.bits, self.mod, self.sum_at = bits, (1 << w) - 1, (top - lo) * w
        self.guard = ((1 << (top + 1) * w) - 1) // self.mod << bits  # atop every field
        self.nosum = graded and ~(self.mod << self.sum_at)
        self.shifts, self.mults, self.block = [], [], 0
        for i in range(n):
            s, inside = (top - i - (graded and i >= lo)) * w, lo <= i < hi
            self.shifts.append(s)
            self.mults.append((1 << s) + (inside << self.sum_at))
            self.block |= inside * (self.mod >> 1) << s

    def unpack(self, terms) -> Epoly:
        """The Epoly of packed (monomial, coefficient) pairs."""
        shifts, mask = self.shifts, self.mod >> 1
        return {tuple([k >> s & mask for s in shifts]): c for k, c in terms}


_layout = lru_cache(maxsize=256)(_Layout)


def _widening(order, polys: list[Epoly], run):
    """run(layout, polys packed), widened until no guard bit is set; the
    first poly must be nonzero."""
    n = len(next(iter(polys[0])))
    bits = max(_MIN_BITS, max(map(sum, chain.from_iterable(polys))).bit_length())
    while True:
        layout = _layout(order, n, bits)
        mults = layout.mults
        try:
            return run(layout, [{sum(map(mul, m, mults)): c for m, c in p.items()} for p in polys])
        except _Overflow:
            bits = 2 * bits + 1


def _lcm(a: int, b: int, layout: _Layout) -> int:
    guard = layout.guard
    t = ((a | guard) - b) & guard  # the guard bits of the fields where a >= b
    keep = t - (t >> layout.bits)
    big = a & keep | b & ~keep
    if layout.block:  # the block's sum is its fields' sum mod 2^(B+1) - 1
        big = big & layout.nosum | (big & layout.block) % layout.mod << layout.sum_at
    if big & guard:
        raise _Overflow
    return big


Reducer = tuple[int, int, list[tuple[int, int]]]


def _reducer(p: Packed) -> Reducer:
    """Nonzero p made primitive with a positive lead, as (lead monomial,
    its coefficient, other terms)."""
    lm = max(p)
    g = igcd(*p.values()) if p[lm] > 0 else -igcd(*p.values())
    return lm, p[lm] // g, [(m, c // g) for m, c in p.items() if m != lm]


def _reduce(p: Packed, reducers: list[Reducer], guard: int) -> tuple[Packed, int]:
    """Full remainder of integer p under division by the reducers, scanning
    them in order, fraction-free: (r, s) with s > 0, r / s the remainder
    over Q. Cancelling a term c against a lead coefficient lc first scales
    the running remainder by lc // gcd(c, lc). Terms leave in descending
    order, and each step adds only terms below the one it cancels."""
    work = dict(p)
    todo = sorted(work)  # ascending, and may hold cancelled terms
    rem: Packed = {}
    scale = 1
    while todo:
        m = todo.pop()
        c = work.pop(m, 0)
        if not c:
            continue
        if m & guard:
            raise _Overflow
        mg = m | guard
        for lm, lc, tail in reducers:
            if (mg - lm) & guard == guard:
                g = igcd(c, lc)
                if g != lc:
                    mult = lc // g
                    scale *= mult
                    for terms in (work, rem):
                        for k in terms:
                            terms[k] *= mult
                q = c // g
                shift = m - lm
                for bm, bc in tail:
                    k = bm + shift
                    v = work.get(k)
                    if v is None:
                        work[k] = -q * bc
                        insort(todo, k)
                    elif v == q * bc:
                        del work[k]
                    else:
                        work[k] = v - q * bc
                break
        else:
            rem[m] = c
    return rem, scale


def _spoly(a: Reducer, b: Reducer, big: int) -> Packed:
    """Integer S-polynomial of a and b over the lcm big of their leads,
    each side scaled by the other's lead coefficient over their gcd; only
    the tails are formed, as the leads cancel."""
    g = igcd(a[1], b[1])
    out: Packed = {}
    for (lm, _, tail), f in ((a, b[1] // g), (b, -a[1] // g)):
        shift = big - lm
        for m, c in tail:
            k = m + shift
            v = out.get(k, 0) + f * c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def normal_form(p: Epoly, basis: list[Epoly], order) -> tuple[Epoly, int]:
    """Full remainder of integer p under division by the basis, scanning
    divisors in basis order, as (r, s) for the remainder r / s; unique when
    the basis is a Gröbner basis."""
    def run(layout, packed):
        rem, scale = _reduce(packed[0], [_reducer(b) for b in packed[1:]], layout.guard)
        return layout.unpack(rem.items()), scale

    return _widening(order, [p, *basis], run) if p else ({}, 1)


def buchberger(gens: list[Epoly], order) -> list[Epoly]:
    """Reduced Gröbner basis (primitive, positive lead term first, fully
    inter-reduced, sorted by descending leading monomial). Deterministic
    for fixed input."""
    gens = [g for g in gens if g]
    return _widening(order, gens, _buchberger) if gens else []


def _buchberger(layout: _Layout, gens: list[Packed]) -> list[Epoly]:
    guard = layout.guard
    polys: list[Reducer] = []
    live: list[int] = []  # indices of the elements new pairs are made with
    pending: list[tuple[int, int, int]] = []  # heap of (lcm, i, j)

    def update(h: Reducer):
        # Gebauer-Moller: of h's new pairs, drop those whose lcm another's
        # divides (keeping one per lcm) and those with coprime leads; drop
        # old pairs whose lcm lh divides unless it is an lcm with h.
        lh = h[0]
        new = [(_lcm(polys[g][0], lh, layout), g) for g in live]
        kept = []
        for n, (big, g) in enumerate(new):
            coprime = big == polys[g][0] + lh
            bg = big | guard
            if coprime or not any((bg - o[0]) & guard == guard for o in chain(new[n + 1:], kept)):
                kept.append((big, g, coprime))
        pending[:] = [
            p for p in pending
            if ((p[0] | guard) - lh) & guard != guard
            or p[0] in (_lcm(polys[p[1]][0], lh, layout), _lcm(polys[p[2]][0], lh, layout))
        ]
        heapq.heapify(pending)
        j = len(polys)
        for big, g, coprime in kept:
            if not coprime:
                heapq.heappush(pending, (big, g, j))
        live[:] = [g for g in live if ((polys[g][0] | guard) - lh) & guard != guard] + [j]
        polys.append(h)

    for g in gens:
        update(_reducer(g))
    while pending:
        big, i, j = heapq.heappop(pending)
        r, _ = _reduce(_spoly(polys[i], polys[j], big), [polys[k] for k in live], guard)
        if r:
            update(_reducer(r))
    # Live leads are distinct. Keep the minimal ones, then reduce each tail
    # by the elements with smaller leads, the only ones that divide its terms.
    leads = [polys[g][0] for g in live]
    minimal = [polys[g] for g in live
               if not any(o != polys[g][0] and ((polys[g][0] | guard) - o) & guard == guard for o in leads)]
    minimal.sort(key=itemgetter(0))
    done: list[Reducer] = []
    for lm, lc, tail in minimal:
        rem, scale = _reduce(dict(tail), done, guard)
        done.append(_reducer({lm: lc * scale, **rem}))
    return [layout.unpack([(lm, lc), *tail]) for lm, lc, tail in reversed(done)]


def is_unit(basis: list[Epoly]) -> bool:
    return len(basis) == 1 and len(basis[0]) == 1 and not any(*basis[0])


def certify(gens: list[Epoly], basis: list[Epoly], order) -> bool:
    """Gröbner certificate: every input generator and every S-polynomial
    of the basis reduces to zero against the basis."""
    def run(layout, packed):
        reducers = [_reducer(b) for b in packed[:len(basis)]]
        spolys = (_spoly(a, b, _lcm(a[0], b[0], layout)) for j, b in enumerate(reducers) for a in reducers[:j])
        return not any(_reduce(g, reducers, layout.guard)[0] for g in chain(packed[len(basis):], spolys))

    gens = [g for g in gens if g]
    return _widening(order, [*basis, *gens], run) if basis else not gens


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
