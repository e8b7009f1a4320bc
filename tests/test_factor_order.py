"""A seeded golden of factor_bounded's parts, in order, with their flags.

factor_order.json holds one row per (product, bound): the unit, each part's
text, multiplicity and absolute-irreducibility flag, in the order the search
returns them, and complete. The products are ORDER_PRODUCTS seeded draws of
_order_products and one known stall; the bounds are 0-3. A change to how the search decides a
part must keep every row, and a complete row must also be the factorization
that sympy finds. Regenerate (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_factor_order.py
"""

import json
import random
import signal
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
import sympy as sp

from pba.factor import factor_bounded
from pba.parser import parse
from pba.poly import Poly, rat_text

GOLDEN = Path(__file__).parent / "golden" / "factor_order.json"
ORDER_PRODUCTS = 400
BOUNDS = range(4)
SX, SY, SZ = sp.symbols("x y z")
# (product, bound) pairs that run past 5 s, left out of the golden. No draw
# of _order_products is one; this product, drawn by an earlier generator,
# is kept at its other bounds. Its degree-2 ansatz system led by x^2 stalls
# in the graded-lex basis of the unit test (three quadrics).
STALL = "(x - y^2)*(3*x^2 + 2*y)*(3*x^2 + 2*y^2 + 1)"
KNOWN_STALLS = {(STALL, 2), (STALL, 3)}


def _order_products(n: int = ORDER_PRODUCTS) -> list[str]:
    """n products of 2 or 3 factors, each of degree 1-3 with two or three
    terms and coefficients in +-{1, 2, 3}, of total degree <= 6."""
    rng = random.Random("factor-order")
    out = []
    while len(out) < n:
        degrees = [rng.randint(1, 3) for _ in range(rng.choice((2, 3)))]
        if sum(degrees) > 6:
            continue
        factors = []
        for d in degrees:
            monos = [(i, j, t - i - j) for t in range(d + 1) for i in range(t, -1, -1) for j in range(t - i, -1, -1)]
            top = rng.choice([m for m in monos if sum(m) == d])
            rest = rng.sample([m for m in monos if m != top], rng.choice((1, 2)))
            factors.append(Poly({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in (top, *rest)}))
        out.append("*".join(f"({f})" for f in factors))
    return out


def _row(text: str, bound: int) -> dict:
    r = factor_bounded(parse(text), bound)
    return {"p": text, "bound": bound, "unit": rat_text(r.unit),
            "parts": [[str(q.factor), q.multiplicity, q.absolutely_irreducible_certified] for q in r.parts],
            "complete": r.complete}


@cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@cache
def _sympy_parts(text: str) -> list[tuple[str, int]]:
    """sympy's factor_list of the product, each factor monic under graded
    lex and printed as pba prints it."""
    _, theirs = sp.factor_list(sp.sympify(text.replace("^", "**")), SX, SY, SZ)
    out = []
    for f, mult in theirs:
        terms = sp.Poly(f, SX, SY, SZ).terms()
        lc = max(terms, key=lambda t: (sum(t[0]), t[0]))[1]
        out.append((str(Poly({m: Fraction(str(c / lc)) for m, c in terms})), mult))
    return sorted(out)


def test_golden_holds_the_seeded_draws():
    pairs = [(row["p"], row["bound"]) for row in _golden()]
    expected = [(text, b) for text in (*_order_products(), STALL) for b in BOUNDS if (text, b) not in KNOWN_STALLS]
    assert pairs == expected


@pytest.mark.parametrize("bound", BOUNDS)
def test_parts_in_order(bound):
    for row in _golden():
        if row["bound"] == bound:
            assert _row(row["p"], bound) == row


def test_complete_rows_are_sympys_factorization():
    for row in _golden():
        if row["complete"]:
            assert sorted((text, m) for text, m, _ in row["parts"]) == _sympy_parts(row["p"]), row


def _write_golden() -> None:
    def expire(signum, frame):
        raise TimeoutError

    signal.signal(signal.SIGALRM, expire)
    rows, stalls = [], []
    for text in (*_order_products(), STALL):
        for bound in BOUNDS:
            signal.alarm(5)
            try:
                rows.append(_row(text, bound))
            except TimeoutError:
                stalls.append((text, bound))
            finally:
                signal.alarm(0)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8")
    print("stalls past 5 s:", stalls)


if __name__ == "__main__":
    _write_golden()
