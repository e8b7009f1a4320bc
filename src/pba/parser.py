"""Text format for polynomials.

Grammar (whitespace insignificant, '*' always explicit, '^' binds tighter
than '*'):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'y' | 'z' | rational | '(' expr ')'
    rational := uint ('/' uint)?
    uint     := ('0'..'9')+

A leading '-' is sugar for 0 - expr. '/' is only the rational-constant
separator; dividing non-constant terms is reported as a dedicated error.
Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent well inside the interpreter's recursion limit; no product or
power may multiply more than MAX_TERM_PAIRS term pairs, make
coefficients that could pass MAX_COEFF_BITS bits, or have term pairs
times coefficient bits past MAX_PAIR_BITS (poly.product_error, which
bounds the products other modules form too), nor any integer literal,
or numerator or denominator of a sum, have more than MAX_LITERAL_DIGITS
digits, those of 2^MAX_COEFF_BITS. Literals longer than int() takes are
converted by pieces, as int_text prints them. render() is the canonical
inverse: graded-lex descending term order, reduced coefficients,
explicit '*'. parse(render(p)) == p for every p that parse returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as igcd, log2, log10

from .poly import (
    MAX_COEFF_BITS,
    MAX_PAIR_BITS,
    MAX_TERM_PAIRS,
    Poly,
    _coeff_bits,
    bound_error,
    product_error,
)


class ParseError(ValueError):
    """Syntax or semantic error, carrying the byte offset and the tokens
    that would have been accepted there."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str, note: str = ""):
        self.offset = offset
        self.expected = expected
        self.found = found
        self.note = note
        want = ", ".join(expected)
        msg = note if note else f"expected {want}, found {found}"
        super().__init__(f"offset {offset}: {msg}")


MAX_NESTING = 100
# characters of a rational_literal
MAX_DIGITS = 4300
# digits of an integer literal: those of 2^MAX_COEFF_BITS, which holds the
# numerators a product or power may make
MAX_LITERAL_DIGITS = int(MAX_COEFF_BITS * log10(2)) + 1
# bit length of 10^MAX_LITERAL_DIGITS: a shorter int has at most
# MAX_LITERAL_DIGITS digits
_LITERAL_BITS = int(MAX_LITERAL_DIGITS * log2(10)) + 1


def rational_literal(value) -> Fraction:
    """Fraction(value) of text or an int, refusing text in exponent
    notation or longer than MAX_DIGITS characters, which Fraction would
    expand in full, and text outside ASCII or with '_', bools and floats,
    which Fraction would read as other numbers."""
    if isinstance(value, str):
        if len(value) > MAX_DIGITS or "e" in value or "E" in value:
            raise ValueError(f"rational literal needs no exponent and at most {MAX_DIGITS} characters: {value[:40]!r}")
        if not value.isascii():
            raise ValueError(f"rational literal needs ASCII digits: {value[:40]!r}")
        if "_" in value:
            raise ValueError(f"rational literal needs no '_': {value[:40]!r}")
    elif isinstance(value, (bool, float)):
        raise ValueError(f"rational literal needs text or an int: {value!r}")
    return Fraction(value)


def _power_cost(p: Poly, e: int) -> tuple[int, int]:
    """Bounds on the term pairs p**e multiplies, counted until past the
    limit, and on its terms: with n terms, degree d and v variables, p^k
    has at most min(C(k+n-1, k), C(kd+v, v)) terms."""
    n, d, v = len(p), p.total_degree(), len(p.variables())
    pairs, terms = 0, 1
    for k in range(1, e + 1):
        pairs += n * terms
        terms = min(comb(k + n - 1, k), comb(k * d + v, v))
        if pairs > MAX_TERM_PAIRS:
            break
    return pairs, terms


def _sum_error(before: Poly, term: Poly, total: Poly) -> str:
    """Whether the sum total of before and +-term has a coefficient whose
    reduced numerator or denominator is longer than a literal may be, or
    ''. While the denominator stays before's, only the numerators at
    term's monomials changed, and below _LITERAL_BITS bits none is long."""
    num, den = total._num, total._den
    changed = num if den != before._den else term._num
    if den.bit_length() < _LITERAL_BITS:
        for m in changed:
            if abs(num.get(m, 0)).bit_length() >= _LITERAL_BITS:
                break
        else:
            return ""
    limit = 10**MAX_LITERAL_DIGITS
    for n in num.values():
        g = igcd(n, den)
        if abs(n) // g >= limit or den // g >= limit:
            return f"sum with a numerator or denominator longer than {MAX_LITERAL_DIGITS} digits"
    return ""


def _literal_int(text: str) -> int:
    """int(text) past the digit limit of int, by splitting as int_text does."""
    if len(text) < 640:  # within the limit of int() at its lowest setting
        return int(text)
    k = len(text) // 2
    return _literal_int(text[:-k]) * 10**k + _literal_int(text[-k:])


_NUM = "NUM"
_VAR = "VAR"
_EOF = "EOF"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(i, (), "", f"integer literal longer than {MAX_LITERAL_DIGITS} digits")
            tokens.append((_NUM, text[i:j], i))
            i = j
            continue
        if ch in "xyz":
            tokens.append((_VAR, ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(i, ("'x'", "'y'", "'z'", "integer", "operator"), repr(ch))
    tokens.append((_EOF, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...], note: str = ""):
        kind, value, offset = self.peek()
        found = "end of input" if kind == _EOF else repr(value)
        raise ParseError(offset, expected, found, note)

    def refuse(self, offset: int, note: str) -> None:
        if note:
            raise ParseError(offset, (), "", note)

    def expr(self) -> Poly:
        kind, _, _ = self.peek()
        if kind == "-":
            self.take()
            total = -self.term()
        else:
            total = self.term()
        while True:
            kind, _, offset = self.peek()
            if kind not in ("+", "-"):
                return total
            self.take()
            right = self.term()
            summed = total + right if kind == "+" else total - right
            self.refuse(offset, _sum_error(total, right, summed))
            total = summed

    def term(self) -> Poly:
        total = self.factor()
        while True:
            kind, _, offset = self.peek()
            if kind == "*":
                self.take()
                right = self.factor(len(total))
                self.refuse(offset, product_error(total, right))
                total = total * right
            elif kind == "/":
                raise ParseError(offset, ("'+'", "'-'", "'*'"), "'/'",
                                 "division of non-constant terms (use rational coefficients like 1/2)")
            else:
                return total

    def factor(self, left: int = 1) -> Poly:
        # left: terms of the product this factor joins, bounded first
        base = self.base()
        kind, _, offset = self.peek()
        if kind != "^":
            self.refuse(offset, bound_error(left * len(base)))
            return base
        self.take()
        kind, value, offset = self.peek()
        if kind == "-":
            raise ParseError(offset, ("unsigned integer",), "'-'", "negative exponent")
        if kind != _NUM:
            self.fail(("unsigned integer exponent",))
        self.take()
        e = _literal_int(value)
        pairs, terms = _power_cost(base, e) if len(base) > 1 else (0, len(base))
        # step is 0 or at least 1, so capping e keeps e * step past the
        # bound exactly when it was, and e of any size out of the float
        step = _coeff_bits(base) + log2(len(base)) if base else 0.0
        self.refuse(offset, bound_error(max(pairs, left * terms), step * min(e, MAX_COEFF_BITS + 1)))
        return base**e

    def base(self) -> Poly:
        kind, value, offset = self.peek()
        if kind == _VAR:
            self.take()
            return Poly.variable(value)
        if kind == _NUM:
            self.take()
            num = _literal_int(value)
            kind, value, offset = self.peek()
            if kind == "/":
                self.take()
                kind, value, offset = self.peek()
                if kind != _NUM:
                    self.fail(("unsigned integer denominator",))
                self.take()
                den = _literal_int(value)
                if den == 0:
                    raise ParseError(offset, ("nonzero denominator",), value, "zero denominator")
                return Poly.constant(Fraction(num, den))
            return Poly.constant(num)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(offset, ("'x'", "'y'", "'z'", "integer"), "'('",
                                 f"parentheses nested more than {MAX_NESTING} deep")
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, _, _ = self.peek()
            if kind != ")":
                self.fail(("')'",))
            self.take()
            return inner
        expected = ("'x'", "'y'", "'z'", "integer", "'('")
        if self.pos == 0 or self.tokens[self.pos - 1][0] == "(":
            # only an expression may start with '-'
            expected += ("'-'",)
        self.fail(expected)


def parse(text: str) -> Poly:
    """Parse the expression grammar into a canonical Poly."""
    p = _Parser(text)
    result = p.expr()
    kind, _, _ = p.peek()
    if kind != _EOF:
        p.fail(("'+'", "'-'", "'*'", "end of input"))
    return result


def render(p: Poly) -> str:
    """Canonical text form; deterministic and injective on canonical polys."""
    return str(p)
