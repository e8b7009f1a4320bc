"""Sparse polynomials over Q in the three fixed variables x, y, z.

A polynomial is a dict from exponent triples to nonzero int numerators
over one positive int denominator, with gcd(den, *numerators) == 1: one
form per value, so equality is structural; zero is ({}, 1). Arithmetic,
exact division and the gcd run on ints; a Fraction is made only where a
coefficient leaves the class (items, coeff, leading_coefficient,
evaluate). Display and leads use graded lex with x > y > z.

A product convolves the numerators (product_terms) over the product of
the denominators; the capped series of `lifting` multiply by it too.
exact_quotient divides by the divisor's primitive part over Z and, by
Gauss's lemma, stops at the first lead coefficient that does not divide
(Geddes, Czapor & Labahn, "Algorithms for Computer Algebra", 1992).
gcd is the heuristic GCDHEU on the numerators; where it gives up, it is
p*q / lcm(p, q), the lcm from one elimination by the Groebner engine
(Cox, Little & O'Shea, "Ideals, Varieties, and Algorithms", Ch. 4 Sec. 3),
refused with a ValueError when p*q would pass the product bounds
(MAX_TERM_PAIRS, MAX_COEFF_BITS, MAX_PAIR_BITS), as the parser refuses
such a product in its input.
GCDHEU's images and evaluate use the one substitution, _engine.substitute;
translate is an integer Taylor shift (von zur Gathen & Gerhard, ISSAC 1997).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd as igcd, lcm, log2
from operator import mul
from typing import Iterable, Iterator, Union

from ._engine import buchberger, grlex_key, order, substitute

Monomial = tuple[int, int, int]
ScalarLike = Union[Fraction, int]
Point = tuple[Fraction, Fraction, Fraction]
Terms = dict[Monomial, int]

VARS = ("x", "y", "z")

_ORIGIN_MONO: Monomial = (0, 0, 0)
# the text of v^e and a '*' after it, by variable and exponent e < 32
_POWERS = tuple(("", f"{v}*", *(f"{v}^{e}*" for e in range(2, 32))) for v in VARS)


def int_text(n: int) -> str:
    """str(n) past the digit limit of str, by splitting at a power of 10."""
    if n.bit_length() <= 2000:  # under 640 digits, the lowest limit
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10**k)
    return int_text(hi) + int_text(lo).zfill(k)


def rat_text(q: Fraction) -> str:
    """str(q) at any size."""
    return int_text(q.numerator) + (f"/{int_text(q.denominator)}" if q.denominator != 1 else "")


def _point(point: Iterable[ScalarLike]) -> tuple[ScalarLike, ...]:
    """point as a tuple; a ValueError unless it has three coordinates."""
    point = tuple(point)
    if len(point) != 3:
        raise ValueError(f"a point has 3 coordinates, not {len(point)}")
    return point


def _var_index(var: Union[str, int]) -> int:
    if isinstance(var, str):
        if var not in VARS:
            raise ValueError(f"unknown variable {var!r}")
        return VARS.index(var)
    if var not in (0, 1, 2):
        raise ValueError(f"variable index out of range: {var}")
    return var


class Poly:
    """Immutable element of Q[x, y, z]."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Union[Mapping[Monomial, ScalarLike], Iterable[tuple[Monomial, ScalarLike]], None] = None):
        data: dict = {}
        if terms is not None:
            for mono, coeff in terms.items() if isinstance(terms, Mapping) else terms:
                i, j, k = int(mono[0]), int(mono[1]), int(mono[2])
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                data[i, j, k] = data.get((i, j, k), 0) + Fraction(coeff)
        data = {m: c for m, c in data.items() if c}
        # the lcm of reduced denominators is coprime to the numerators
        self._den = den = lcm(*(c.denominator for c in data.values()))
        self._num = {m: c.numerator * (den // c.denominator) for m, c in data.items()}

    @classmethod
    def _make(cls, num: Terms, den: int = 1) -> "Poly":
        # num / den in canonical form, for nonzero numerators and den != 0
        if den < 0:
            den = -den
            num = {m: -n for m, n in num.items()}
        if den != 1:
            g = igcd(den, *num.values())
            if g != 1:
                num = {m: n // g for m, n in num.items()}
                den //= g
        p = cls.__new__(cls)
        p._num = num
        p._den = den
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._make({_ORIGIN_MONO: 1})

    @classmethod
    def constant(cls, c: ScalarLike) -> "Poly":
        if not isinstance(c, int):
            c = Fraction(c)
        return cls._make({_ORIGIN_MONO: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, var: Union[str, int]) -> "Poly":
        mono = [0, 0, 0]
        mono[_var_index(var)] = 1
        return cls._make({tuple(mono): 1})

    @classmethod
    def term(cls, coeff: ScalarLike, mono: Monomial) -> "Poly":
        return cls({tuple(mono): coeff})

    # -- inspection --------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return ((m, Fraction(n, self._den)) for m, n in self._num.items())

    def coeff(self, mono: Monomial) -> Fraction:
        return Fraction(self._num.get(tuple(mono), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(m == _ORIGIN_MONO for m in self._num)

    def constant_term(self) -> Fraction:
        return self.coeff(_ORIGIN_MONO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m[0] + m[1] + m[2] for m in self._num), default=-1)

    def degree_in(self, var: Union[str, int]) -> int:
        vi = _var_index(var)
        return max((m[vi] for m in self._num), default=-1)

    def variables(self) -> tuple[int, ...]:
        """Indices of the variables that actually occur."""
        return tuple(vi for vi in range(3) if any(m[vi] for m in self._num))

    def leading_monomial(self) -> Monomial:
        if not self._num:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._num, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.coeff(self.leading_monomial())

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic --------------------------------------------------

    def _add(self, other, sign: int):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * den // other._den
        num = dict(self._num) if sa == 1 else {m: n * sa for m, n in self._num.items()}
        for m, n in other._num.items():
            v = num.get(m, 0) + n * sb
            if v:
                num[m] = v
            else:
                del num[m]
        return Poly._make(num, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._make(product_terms(self._num, other._num), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero()
            c = other.numerator
            return Poly._make({m: n * c for m, n in self._num.items()}, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __pow__(self, e: int):
        # repeated multiplication, cheaper than squaring on sparse input
        # (Fateman, Stud. Appl. Math. 53, 1974); one term is raised directly
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative exponent")
        if not self._num:
            return self if e else Poly.one()
        if len(self._num) == 1:
            ((i, j, k), n), = self._num.items()
            return Poly._make({(i * e, j * e, k * e): n**e}, self._den**e)
        result = Poly.one()
        for _ in range(e):
            result = result * self
        return result

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._num:
            return self
        lc = self._num[self.leading_monomial()]
        return self if lc == self._den else Poly._make(self._num, lc)

    # -- calculus and evaluation -------------------------------------

    def derivative(self, var: Union[str, int]) -> "Poly":
        """Partial derivative with respect to x, y, or z."""
        vi = _var_index(var)
        return Poly._make({m[:vi] + (m[vi] - 1,) + m[vi + 1:]: n * m[vi]
                           for m, n in self._num.items() if m[vi]}, self._den)

    def evaluate(self, point: Iterable[ScalarLike]) -> Fraction:
        num, den = self._num, self._den
        for vi, v in enumerate(_point(point)):
            num, deg = substitute(num, vi, v.numerator, v.denominator)
            den *= v.denominator**deg
        return Fraction(num.get(_ORIGIN_MONO, 0), den)

    def translate(self, point: Iterable[ScalarLike]) -> "Poly":
        """Shift of variables: self(x+a, y+b, z+c) for point (a, b, c). Per
        variable, with a = p/q and top its largest exponent, n*v^e becomes
        sum_r n*C(e, r)*p^(e-r)*q^(top-e+r)*v^r over q^top. A ValueError
        refuses a shift whose term pairs or bits pass bound_error."""
        num, den = self._num, self._den
        point = _point(point)
        moved = [(vi, a.numerator, a.denominator, max(m[vi] for m in num)) for vi, a in enumerate(point) if a and num]
        if moved:
            sx, sy, sz = map(bool, point)
            note = bound_error(sum((i * sx + 1) * (j * sy + 1) * (k * sz + 1) for i, j, k in num), _coeff_bits(self) + sum(
                log2(top + 1) + top * (1 + log2(max(abs(p), q) * q)) for _, p, q, top in moved))
            if note:
                raise ValueError(f"translate: {note}")
        for vi, p, q, top in moved:
            pp = list(accumulate(repeat(p, top), mul, initial=1))
            qp = list(accumulate(repeat(q, top), mul, initial=1))
            out: Terms = {}
            for m, n in num.items():
                e = m[vi]
                for r in range(e + 1):  # n is the term's n*C(e, r)
                    k = m[:vi] + (r,) + m[vi + 1:]
                    out[k] = out.get(k, 0) + n * pp[e - r] * qp[top - e + r]
                    n = n * (e - r) // (r + 1)
            num = {m: c for m, c in out.items() if c}
            den *= qp[top]
        return Poly._make(num, den)

    def substitute_exponents(self, perm: tuple[int, int, int]) -> "Poly":
        """Permute variables: exponent triple m maps to m reordered by perm.

        perm gives, for each output slot, the input slot it reads from.
        """
        return Poly._make({(m[perm[0]], m[perm[1]], m[perm[2]]): n for m, n in self._num.items()}, self._den)

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((frozenset(self._num.items()), self._den))

    def __repr__(self):
        return f"Poly({str(self)!r})"

    def __str__(self):
        # canonical text: graded-lex descending, reduced coefficients,
        # explicit '*', '^' only for exponents above 1
        num, den = self._num, self._den
        if not num:
            return "0"
        x, y, z = _POWERS
        parts: list[str] = []
        for _, i, j, k in sorted([(i + j + k, i, j, k) for i, j, k in num], reverse=True):
            n = num[i, j, k]
            g = igcd(n, den)
            a, d = abs(n) // g, den // g
            mag = int_text(a) if d == 1 else f"{int_text(a)}/{int_text(d)}"
            body = (x[i] if i < 32 else f"x^{int_text(i)}*") + (y[j] if j < 32 else f"y^{int_text(j)}*") + (
                z[k] if k < 32 else f"z^{int_text(k)}*")
            text = mag if not body else body[:-1] if mag == "1" else f"{mag}*{body[:-1]}"
            parts.append(f"+ {text}" if n > 0 else f"- {text}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]


def product_terms(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> Terms:
    """The nonzero terms of the product of the integer term maps a and b."""
    acc = {}
    for (a0, a1, a2), x in a.items():
        for (b0, b1, b2), y in b.items():
            m = (a0 + b0, a1 + b1, a2 + b2)
            acc[m] = acc.get(m, 0) + x * y
    return {m: n for m, n in acc.items() if n}


# -- bounds on products ------------------------------------------------
#
# The parser refuses input whose products pass these bounds, and the
# modules that form products from parsed input (the bracket, the Jacobi
# witness, the gcd's lcm fallback) refuse theirs before forming them.

# term pairs of one product, or of one power over all its steps
MAX_TERM_PAIRS = 10**6
# bits of the numerators and denominator a product or power may make
MAX_COEFF_BITS = 2**18
# term pairs times coefficient bits, which the cost of the arithmetic grows
# with: (2^250*x + 1)^999 holds each bound above but not this one
MAX_PAIR_BITS = 2**33


def _coeff_bits(p: Poly) -> float:
    """log2 of p's largest numerator plus log2 of its denominator. A
    coefficient of p*q, over n and m terms, has at most
    _coeff_bits(p) + _coeff_bits(q) + log2(min(n, m)) bits, and one of
    p^e at most e * (_coeff_bits(p) + log2(n))."""
    return log2(max(map(abs, p._num.values()))) + log2(p._den) if p else 0.0


def bound_error(pairs: int, bits: float = 0.0) -> str:
    """Which bound pairs term pairs with coefficients of bits bits pass,
    or ''."""
    if pairs > MAX_TERM_PAIRS:
        return f"expansion past {MAX_TERM_PAIRS} term pairs"
    if bits > MAX_COEFF_BITS:
        return f"coefficient past {MAX_COEFF_BITS} bits"
    if pairs * bits > MAX_PAIR_BITS:
        return f"term pairs times coefficient bits past {MAX_PAIR_BITS}"
    return ""


def product_error(p: Poly, q: Poly) -> str:
    """bound_error of the product p*q, checked before it is formed."""
    if not (p and q):
        return ""
    return bound_error(len(p) * len(q), _coeff_bits(p) + _coeff_bits(q) + log2(min(len(p), len(q))))


X = Poly.variable("x")
Y = Poly.variable("y")
Z = Poly.variable("z")


def _content(num: Terms) -> int:
    return igcd(*num.values())


def _divide(a: Terms, b: Terms) -> Union[Terms, None]:
    """Exact quotient over Z of integer term maps, or None. A constant
    divisor divides term by term; any other takes the leading remainder
    term from a heap."""
    if len(b) == 1 and _ORIGIN_MONO in b:
        c = b[_ORIGIN_MONO]
        quot = {}
        for m, n in a.items():
            q, r = divmod(n, c)
            if r:
                return None
            quot[m] = q
        return quot
    blm = max(b, key=grlex_key)
    blc = b[blm]
    tail = [(m, c) for m, c in b.items() if m != blm]
    rem = dict(a)
    # max-heap of the remainder's monomials in graded-lex order; each step
    # only adds monomials below the one it removes, so none comes back
    heap = [(-m[0] - m[1] - m[2], -m[0], -m[1], -m[2]) for m in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        _, i, j, k = heapq.heappop(heap)
        c = rem.pop((-i, -j, -k))
        if not c:
            continue
        d = (-i - blm[0], -j - blm[1], -k - blm[2])
        if d[0] < 0 or d[1] < 0 or d[2] < 0:
            return None
        q, r = divmod(c, blc)
        if r:
            return None
        quot[d] = q
        for (m0, m1, m2), bc in tail:
            key = (d[0] + m0, d[1] + m1, d[2] + m2)
            old = rem.get(key)
            if old is None:
                heapq.heappush(heap, (-key[0] - key[1] - key[2], -key[0], -key[1], -key[2]))
                rem[key] = -q * bc
            else:
                rem[key] = old - q * bc
    return quot


def exact_quotient(p: Poly, q: Poly) -> Union[Poly, None]:
    """Quotient p/q when q divides p exactly, else None."""
    if not q._num:
        raise ZeroDivisionError("division by zero polynomial")
    c = _content(q._num)
    quot = _divide(p._num, {m: n // c for m, n in q._num.items()} if c != 1 else q._num)
    if quot is None:
        return None
    return Poly._make({m: n * q._den for m, n in quot.items()}, p._den * c)


def divides(q: Poly, p: Poly) -> bool:
    """True iff q divides p in Q[x, y, z]."""
    return exact_quotient(p, q) is not None


# -- gcd: heuristic integer gcd (GCDHEU) with an lcm fallback -------
#
# A gcd over Q is fixed up to a unit, so the inputs are taken as their
# integer numerators. GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7,
# 1989) evaluates the last variable present at an integer xi >=
# 2*min(|a|, |b|) + 2, |.| the largest coefficient, takes the gcd of the
# images recursively down to an integer gcd, and rebuilds a candidate from
# its balanced base-xi digits. A primitive candidate that divides both
# inputs over Z is their gcd (Geddes, Czapor & Labahn, Thm 7.7). A failed
# test grows xi; after _HEU_TRIES failures, or once an image would pass
# _HEU_MAX_BITS, the gcd is p*q / lcm(p, q) instead, with the lcm read off
# a Groebner basis of <t*p, (1 - t)*q> that eliminates t: its t-free part
# is <p> meet <q> = <lcm(p, q)> (Cox, Little & O'Shea, "Ideals, Varieties,
# and Algorithms", Ch. 4 Sec. 3).

_HEU_TRIES = 6
# bounds bit length of xi times degree: the size of an evaluation's ints
_HEU_MAX_BITS = 16000


def _interpolate(g: Terms, vi: int, xi: int) -> Terms:
    # balanced base-xi digits of each coefficient of g become the
    # coefficients of the powers of variable vi
    half = xi // 2
    out = {}
    for m, c in g.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m[:vi] + (e,) + m[vi + 1:]] = d
            c = (c - d) // xi
            e += 1
    return out


def _gcd_heu(a: Terms, b: Terms) -> Union[Terms, None]:
    """gcd over Z of nonzero integer term maps, or None if it gives up."""
    ca, cb = _content(a), _content(b)
    c = igcd(ca, cb)
    if any(all(m == _ORIGIN_MONO for m in p) for p in (a, b)):
        return {_ORIGIN_MONO: c}
    a = {m: n // ca for m, n in a.items()}
    b = {m: n // cb for m, n in b.items()}
    vi = max(vi for p in (a, b) for m in p for vi in range(3) if m[vi])
    deg = max(m[vi] for p in (a, b) for m in p)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        ea, eb = substitute(a, vi, xi)[0], substitute(b, vi, xi)[0]
        g = _gcd_heu(ea, eb) if ea and eb else ea or eb
        if g is None:
            return None
        h = _interpolate(g, vi, xi)
        ch = _content(h)
        if ch != 1:
            h = {m: n // ch for m, n in h.items()}
        # h is primitive, so by Gauss's lemma it divides over Z exactly
        # when it divides over Q
        if _divide(a, h) is not None and _divide(b, h) is not None:
            return {m: n * c for m, n in h.items()}
        # the growth factor of Char, Geddes & Gonnet
        xi = xi * 73794 // 27011
    return None


# t (slot 0) first, then graded lex on x, y, z
_ELIMINATION = order(1, None)


def _gcd_by_lcm(p: Poly, q: Poly) -> Poly:
    """gcd up to a rational unit as p*q / lcm(p, q), the lcm being the one
    t-free element of a reduced basis of <t*p, (1 - t)*q> that eliminates t.
    Raises ValueError before the elimination when p*q would pass the
    product bounds."""
    if not p or not q:
        return p or q
    note = product_error(p, q)
    if note:
        raise ValueError(f"gcd: {note}")
    tp = {(1,) + m: n for m, n in p._num.items()}
    tq = {(0,) + m: n for m, n in q._num.items()}
    tq.update({(1,) + m: -n for m, n in q._num.items()})
    free = [b for b in buchberger([tp, tq], _ELIMINATION) if not any(m[0] for m in b)]
    if len(free) != 1:
        raise ArithmeticError(f"<{p}> meet <{q}> has {len(free)} generators")
    g = exact_quotient(p * q, Poly._make({m[1:]: n for m, n in free[0].items()}))
    if g is None:
        raise ArithmeticError(f"lcm of {p} and {q} does not divide their product")
    return g


def gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized so the graded-lex leading
    coefficient is 1; gcd(0, 0) = 0. Raises ValueError where GCDHEU
    gives up and p*q would pass the product bounds (product_error)."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    g = _gcd_heu(p._num, q._num)
    return (_gcd_by_lcm(p, q) if g is None else Poly._make(g)).monic()


def gcd_many(polys: Iterable[Poly]) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = gcd(g, p)
        if g == 1:
            break
    return g


@dataclass(frozen=True)
class SquareFreePart:
    factor: Poly
    multiplicity: int


def squarefree_decomposition(p: Poly) -> tuple[Fraction, tuple[SquareFreePart, ...]]:
    """Characteristic-zero squarefree decomposition.

    Returns (unit, parts) with p = unit * prod factor^multiplicity, the
    factors monic, squarefree, and pairwise coprime. Computed by iterating
    gcds with the partial derivatives: each pass strips one copy of every
    repeated factor, and quotients of consecutive passes isolate the part
    of each exact multiplicity.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    unit = p.leading_coefficient()
    layers = [p.monic()]
    while not layers[-1].is_constant():
        g = layers[-1]
        layers.append(gcd_many([g] + [g.derivative(vi) for vi in range(3)]))
    stripped = []
    for k in range(len(layers) - 1):
        q = exact_quotient(layers[k], layers[k + 1])
        assert q is not None
        stripped.append(q)
    parts = []
    for k, yk in enumerate(stripped):
        nxt = stripped[k + 1] if k + 1 < len(stripped) else Poly.one()
        f = exact_quotient(yk, nxt)
        assert f is not None
        if not f.is_constant():
            parts.append(SquareFreePart(f.monic(), k + 1))
    return unit, tuple(parts)
