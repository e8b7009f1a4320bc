"""Sparse polynomials over Q in the three fixed variables x, y, z.

Coefficients are exact rationals (fractions.Fraction), monomials are
exponent triples, and every polynomial is kept in canonical form: no zero
coefficients are stored, so structural equality is value equality.
Display and leading-term conventions use graded lexicographic order with
x > y > z throughout.

Products are summed as integers: each operand is brought to integer
numerators over the lcm of its denominators, the numerators are convolved
as Python ints, and each output coefficient becomes one Fraction over the
product of the two denominators. The same kernel, given a total-degree
cap, is the product of truncated power series in `lifting`.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd
from typing import Iterable, Iterator, Union

from ._engine import clear_denominators, grlex_key, integer_numerators

Monomial = tuple[int, int, int]
ScalarLike = Union[Fraction, int]
Point = tuple[Fraction, Fraction, Fraction]

VARS = ("x", "y", "z")

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ORIGIN_MONO: Monomial = (0, 0, 0)


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

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Monomial, ScalarLike], Iterable[tuple[Monomial, ScalarLike]], None] = None):
        data: dict[Monomial, Fraction] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                i, j, k = int(mono[0]), int(mono[1]), int(mono[2])
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                key = (i, j, k)
                c = data.get(key, _ZERO) + Fraction(coeff)
                if c:
                    data[key] = c
                else:
                    data.pop(key, None)
        self._terms = data

    @classmethod
    def _make(cls, data: dict[Monomial, Fraction]) -> "Poly":
        # trusted constructor: data is already canonical
        p = cls.__new__(cls)
        p._terms = data
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._make({_ORIGIN_MONO: _ONE})

    @classmethod
    def constant(cls, c: ScalarLike) -> "Poly":
        c = Fraction(c)
        return cls._make({_ORIGIN_MONO: c} if c else {})

    @classmethod
    def variable(cls, var: Union[str, int]) -> "Poly":
        mono = [0, 0, 0]
        mono[_var_index(var)] = 1
        return cls._make({tuple(mono): _ONE})

    @classmethod
    def term(cls, coeff: ScalarLike, mono: Monomial) -> "Poly":
        return cls({tuple(mono): coeff})

    # -- inspection --------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def coeff(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == _ORIGIN_MONO for m in self._terms)

    def constant_term(self) -> Fraction:
        return self._terms.get(_ORIGIN_MONO, _ZERO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m[0] + m[1] + m[2] for m in self._terms)

    def degree_in(self, var: Union[str, int]) -> int:
        vi = _var_index(var)
        if not self._terms:
            return -1
        return max(m[vi] for m in self._terms)

    def variables(self) -> tuple[int, ...]:
        """Indices of the variables that actually occur."""
        used = [vi for vi in range(3) if any(m[vi] for m in self._terms)]
        return tuple(used)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_monomial()]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for m, c in other._terms.items():
            nc = data.get(m, _ZERO) + c
            if nc:
                data[m] = nc
            else:
                data.pop(m, None)
        return Poly._make(data)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly.zero()
            return Poly._make({m: cc * c for m, cc in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        cap = self.total_degree() + other.total_degree()
        return Poly._make(product_terms(self._terms, other._terms, cap))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / c)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return self * (1 / lc)

    # -- calculus and evaluation -------------------------------------

    def derivative(self, var: Union[str, int]) -> "Poly":
        """Partial derivative with respect to x, y, or z."""
        vi = _var_index(var)
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            e = m[vi]
            if e:
                nm = list(m)
                nm[vi] = e - 1
                out[tuple(nm)] = c * e
        return Poly._make(out)

    def evaluate(self, point: Iterable[ScalarLike]) -> Fraction:
        a, b, c = (Fraction(v) for v in point)
        total = _ZERO
        for (i, j, k), coeff in self._terms.items():
            total += coeff * a**i * b**j * c**k
        return total

    def translate(self, point: Iterable[ScalarLike]) -> "Poly":
        """Shift of variables: returns p(x+a, y+b, z+c) for point (a, b, c)."""
        shift = [Fraction(v) for v in point]
        bases = [Poly.variable(vi) + Poly.constant(shift[vi]) for vi in range(3)]
        pows: list[dict[int, Poly]] = [{0: Poly.one()} for _ in range(3)]

        def power(vi: int, e: int) -> "Poly":
            cache = pows[vi]
            while e not in cache:
                n = max(cache)
                cache[n + 1] = cache[n] * bases[vi]
            return cache[e]

        total = Poly.zero()
        for (i, j, k), coeff in self._terms.items():
            total = total + power(0, i) * power(1, j) * power(2, k) * coeff
        return total

    def substitute_exponents(self, perm: tuple[int, int, int]) -> "Poly":
        """Permute variables: exponent triple m maps to m reordered by perm.

        perm gives, for each output slot, the input slot it reads from.
        """
        return Poly._make({(m[perm[0]], m[perm[1]], m[perm[2]]): c for m, c in self._terms.items()})

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"Poly({str(self)!r})"

    def __str__(self):
        # canonical text: graded-lex descending, reduced coefficients,
        # explicit '*', '^' only for exponents above 1
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono in sorted(self._terms, key=grlex_key, reverse=True):
            c = self._terms[mono]
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, mono) if e]
            body = "*".join(factors)
            mag = abs(c)
            if body and mag == 1:
                text = body
            elif body:
                text = f"{mag}*{body}"
            else:
                text = str(mag)
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts)


def product_terms(a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction], cap: int) -> dict[Monomial, Fraction]:
    """The nonzero terms of total degree <= cap of the product of the term
    maps a and b, summed on integer numerators and divided once per term."""
    da, na = integer_numerators(a.values())
    db, nb = integer_numerators(b.values())
    right = sorted(zip(map(sum, b), b, nb))
    acc: dict[Monomial, int] = {}
    for (a0, a1, a2), x in zip(a, na):
        room = cap - a0 - a1 - a2
        for e, (b0, b1, b2), y in right:
            if e > room:
                break
            m = (a0 + b0, a1 + b1, a2 + b2)
            acc[m] = acc.get(m, 0) + x * y
    den = da * db
    return {m: Fraction(n, den) for m, n in acc.items() if n}


X = Poly.variable("x")
Y = Poly.variable("y")
Z = Poly.variable("z")


def exact_quotient(p: Poly, q: Poly) -> Union[Poly, None]:
    """Quotient p/q when q divides p exactly, else None."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return Poly.zero()
    qlm = q.leading_monomial()
    qlc = q._terms[qlm]
    qterms = [(m, c) for m, c in q._terms.items() if m != qlm]
    rem = dict(p._terms)
    # max-heap of the remainder's monomials in graded-lex order; each step
    # only adds monomials below the one it removes, so none comes back
    heap = [(-m[0] - m[1] - m[2], -m[0], -m[1], -m[2]) for m in rem]
    heapq.heapify(heap)
    quot: dict[Monomial, Fraction] = {}
    while heap:
        _, i, j, k = heapq.heappop(heap)
        m = (-i, -j, -k)
        c = rem.pop(m)
        if not c:
            continue
        d = (m[0] - qlm[0], m[1] - qlm[1], m[2] - qlm[2])
        if d[0] < 0 or d[1] < 0 or d[2] < 0:
            return None
        coeff = c / qlc
        quot[d] = coeff
        for qm, qc in qterms:
            key = (d[0] + qm[0], d[1] + qm[1], d[2] + qm[2])
            old = rem.get(key)
            if old is None:
                heapq.heappush(heap, (-key[0] - key[1] - key[2], -key[0], -key[1], -key[2]))
                rem[key] = -coeff * qc
            else:
                rem[key] = old - coeff * qc
    return Poly._make(quot)


def divides(q: Poly, p: Poly) -> bool:
    """True iff q divides p in Q[x, y, z]."""
    return exact_quotient(p, q) is not None


# -- gcd: heuristic integer gcd (GCDHEU) with a PRS fallback ---------
#
# Over Q a gcd is fixed only up to a unit, so both inputs are first cleared
# to primitive integer polynomials. GCDHEU (Char, Geddes & Gonnet, "GCDHEU:
# heuristic polynomial GCD algorithm based on integer GCD computation",
# J. Symb. Comp. 7, 1989) evaluates the last variable present at an integer
# xi >= 2*min(|a|, |b|) + 2, where |.| is the largest coefficient, takes the
# gcd of the two images recursively down to an integer gcd, and rebuilds a
# candidate from the balanced base-xi digits of that gcd. A primitive
# candidate that divides both inputs exactly over Z is their gcd (Geddes,
# Czapor & Labahn, "Algorithms for Computer Algebra", 1992, Thm 7.7). A
# failed test grows xi; after _HEU_TRIES failures, or once an image would
# pass _HEU_MAX_BITS, the primitive polynomial remainder sequence (Brown,
# "On Euclid's algorithm and the computation of polynomial greatest common
# divisors", JACM 18, 1971) answers instead.

_HEU_TRIES = 6
# bit length of xi times the degree in the evaluated variable: a bound on
# the size of the integers an evaluation makes
_HEU_MAX_BITS = 16000


def _integer_content(p: Poly) -> int:
    # p has integer coefficients
    c = 0
    for v in p._terms.values():
        c = igcd(c, v.numerator)
        if c == 1:
            break
    return c


def _evaluate_at(p: Poly, vi: int, xi: int) -> Poly:
    # p, with integer coefficients, at variable vi = xi
    powers = [1]
    for _ in range(max(m[vi] for m in p._terms)):
        powers.append(powers[-1] * xi)
    out: dict[Monomial, int] = {}
    for m, c in p._terms.items():
        key = m[:vi] + (0,) + m[vi + 1:]
        out[key] = out.get(key, 0) + c.numerator * powers[m[vi]]
    return Poly._make({m: Fraction(c) for m, c in out.items() if c})


def _interpolate(g: Poly, vi: int, xi: int) -> Poly:
    # balanced base-xi digits of each integer coefficient of g become the
    # coefficients of the powers of variable vi
    half = xi // 2
    out: dict[Monomial, Fraction] = {}
    for m, c in g._terms.items():
        c = c.numerator
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                key = list(m)
                key[vi] = e
                out[tuple(key)] = Fraction(d)
            c = (c - d) // xi
            e += 1
    return Poly._make(out)


def _primitive_integer(p: Poly) -> Poly:
    return Poly._make(clear_denominators(p._terms, grlex_key))


def _gcd_heu(a: Poly, b: Poly) -> Union[Poly, None]:
    """gcd over Z of nonzero a and b with integer coefficients, or None
    when the heuristic gives up."""
    ca, cb = _integer_content(a), _integer_content(b)
    c = igcd(ca, cb)
    if a.is_constant() or b.is_constant():
        return Poly.constant(c)
    if ca != 1:
        a = a / ca
    if cb != 1:
        b = b / cb
    vi = max(set(a.variables()) | set(b.variables()))
    deg = max(a.degree_in(vi), b.degree_in(vi))
    norm = min(max(map(abs, a._terms.values())), max(map(abs, b._terms.values())))
    xi = 2 * int(norm) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        ea, eb = _evaluate_at(a, vi, xi), _evaluate_at(b, vi, xi)
        g = _gcd_heu(ea, eb) if ea and eb else ea or eb
        if g is None:
            return None
        h = _interpolate(g, vi, xi)
        ch = _integer_content(h)
        if ch != 1:
            h = h / ch
        # h is primitive, so by Gauss's lemma it divides over Z exactly
        # when it divides over Q
        if exact_quotient(a, h) is not None and exact_quotient(b, h) is not None:
            return h * c
        # the growth factor of Char, Geddes & Gonnet
        xi = xi * 73794 // 27011
    return None


def _as_univariate(p: Poly, vi: int) -> dict[int, Poly]:
    out: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in p.items():
        rest = list(m)
        rest[vi] = 0
        out.setdefault(m[vi], {})[tuple(rest)] = c
    return {d: Poly._make(terms) for d, terms in out.items()}


def _from_univariate(coeffs: dict[int, Poly], vi: int) -> Poly:
    data: dict[Monomial, Fraction] = {}
    for d, cp in coeffs.items():
        for m, c in cp.items():
            nm = list(m)
            nm[vi] = d
            data[tuple(nm)] = c
    return Poly._make(data)


def _first_variable(p: Poly, q: Poly) -> Union[int, None]:
    used = set(p.variables()) | set(q.variables())
    for vi in range(3):
        if vi in used:
            return vi
    return None


def _content_primitive(p: Poly, vi: int) -> tuple[Poly, Poly]:
    """Content in the later variables, the monic gcd of the coefficients
    in variable vi, and the primitive part in vi, cleared to coprime
    integer coefficients."""
    coeffs = _as_univariate(p, vi)
    content = gcd_many(coeffs[d] for d in sorted(coeffs))
    prim = exact_quotient(p, content)
    if prim is None:
        raise ArithmeticError(f"content {content} does not divide {p}")
    return content, Poly._make(clear_denominators(prim._terms, grlex_key))


def _prem(a: dict[int, Poly], b: dict[int, Poly], vi: int) -> dict[int, Poly]:
    # pseudo-remainder in variable vi; result is a poly-coefficient map
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new: dict[int, Poly] = {d: lb * c for d, c in r.items()}
        for d, c in b.items():
            nd = d + dr - db
            v = new.get(nd, Poly.zero()) - lr * c
            if v.is_zero():
                new.pop(nd, None)
            else:
                new[nd] = v
        r = new
    return r


def _primitive_part(r: dict[int, Poly], vi: int) -> Poly:
    p = _from_univariate(r, vi)
    if p.is_zero():
        return p
    _, prim = _content_primitive(p, vi)
    return prim


def _gcd_prs(p: Poly, q: Poly) -> Poly:
    """gcd up to a rational unit by a primitive remainder sequence in the
    first variable present; the contents, in fewer variables, go to gcd."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    vi = _first_variable(p, q)
    if vi is None:
        return Poly.one()
    cp, pp = _content_primitive(p, vi)
    cq, pq = _content_primitive(q, vi)
    cont = gcd(cp, cq)
    a, b = _as_univariate(pp, vi), _as_univariate(pq, vi)
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _prem(a, b, vi)
        rp = _primitive_part(r, vi)
        a, b = b, _as_univariate(rp, vi) if rp else {}
    return cont * _from_univariate(a, vi)


def gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized so the graded-lex leading
    coefficient is 1; gcd(0, 0) = 0."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    g = _gcd_heu(_primitive_integer(p), _primitive_integer(q))
    if g is None:
        return _gcd_prs(p, q).monic()
    return g.monic()


def gcd_many(polys: Iterable[Poly]) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = gcd(g, p)
        if g == Poly.one():
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
