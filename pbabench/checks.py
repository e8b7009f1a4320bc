"""Checks of `pba` output against computations made apart from `pba`.

Each check takes the meta recorded when an operation's input was built
and the text `pba` printed, and returns a list of
problems; an empty list accepts the output. sympy does the algebra. The
runner imports this module only after the timed loop and after reading
the peak memory, so sympy stays out of every figure.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import sympy

import minipoly

X, Y, Z = sympy.symbols("x y z")
GENS = (X, Y, Z)


def expr(text: str):
    """A `pba` expression as a sympy expression with exact rationals."""
    return sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "z": Z},
                         rational=True)


def poly(text_or_expr):
    e = expr(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    return sympy.Poly(e, *GENS, domain="QQ")


_TERM = re.compile(r"([+-]?) ?([0-9/]+)?\*?((?:[xyz](?:\^[0-9]+)?\*?)*)")


def terms(text: str) -> dict:
    """A sum of terms like '-3/4*x^2*z' as {(i, j, k): Fraction}, read term
    by term; sympify is far slower on the long series `pba lift` prints."""
    data: dict = {}
    for sign, coeff, mono in _TERM.findall(text.replace(" ", "")):
        if not coeff and not mono:
            continue
        exps = [0, 0, 0]
        for factor in filter(None, mono.split("*")):
            var, _, e = factor.partition("^")
            exps["xyz".index(var)] += int(e or 1)
        key = tuple(exps)
        data[key] = data.get(key, 0) + Fraction(coeff or 1) * (-1 if sign == "-" else 1)
    return {m: c for m, c in data.items() if c}


def _truncated_product(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for (i, j, k), ca in a.items():
        room = cap - i - j - k
        for (p, q, r), cb in b.items():
            if p + q + r <= room:
                m = (i + p, j + q, k + r)
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _monic_factors(p: sympy.Poly) -> dict:
    """{monic irreducible factor: multiplicity} from sympy's factor_list."""
    out: dict = {}
    for f, m in p.factor_list()[1]:
        key = f.monic().as_expr()
        out[key] = out.get(key, 0) + m
    return out


def _param(text: str) -> tuple:
    lam, mu = text.split(":")
    return sympy.Rational(lam), sympy.Rational(mu)


def _ratio(text: str) -> tuple:
    """A parameter λ:μ as a point of the projective line."""
    lam, mu = _param(text)
    return (1, mu / lam) if lam else (0, 1)


def check_spectrum(meta: dict, output: str) -> list[str]:
    problems = []
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if doc.get("schema") != "pba/1":
        problems.append(f"schema is {doc.get('schema')!r}")
    s = poly(meta["s"])
    t = poly(meta["t"])
    if poly(doc["s"]) != s or poly(doc["t"]) != t:
        problems.append("report names another pencil")
    # one entry per distinct parameter asked for; 1:2 twice is one parameter
    asked = meta["params"].split(",")
    reported = [_ratio(p) for p in doc["height_one"]]
    if len(reported) != len(set(reported)) or set(reported) != {_ratio(p) for p in asked}:
        problems.append(f"height-one primes for {sorted(doc['height_one'])}, "
                        f"asked for {asked}")

    built = None
    if meta.get("factors"):
        built = {}
        for text in meta["factors"]:
            for k, m in _monic_factors(poly(text)).items():
                built[k] = built.get(k, 0) + m

    for ptext, rows in doc["height_one"].items():
        lam, mu = _param(ptext)
        member = s * lam - t * mu
        product = poly("1")
        got: dict = {}
        for row in rows:
            g = poly(row["generator"])
            product *= g ** row["multiplicity"]
            key = g.monic().as_expr()
            got[key] = got.get(key, 0) + row["multiplicity"]
            if row["primitive"] != (row["multiplicity"] == 1):
                problems.append(f"({ptext}) {row['generator']}: primitive flag disagrees")
        quotient, rem = member.div(product)
        if not rem.is_zero or not quotient.is_ground or quotient.is_zero:
            problems.append(f"({ptext}): the generators do not multiply to the member")
        want = _monic_factors(member)
        if got != want:
            problems.append(f"({ptext}): factors {got} differ from sympy's {want}")
        if built is not None and lam == 1 and mu == 0 and got != built:
            problems.append(f"(1:0): factors {got} differ from the built ones {built}")

    F = [t * s.diff(v) - s * t.diff(v) for v in GENS]
    for pc in doc["residually_null"]["points"]:
        point = [sympy.Rational(c) for c in pc["point"]]
        at = dict(zip(GENS, point))
        if any(c.eval(at) != 0 for c in F):
            problems.append(f"point {pc['point']}: t grad s - s grad t does not vanish")
        if pc["kind"] == "common_zero":
            if s.eval(at) != 0 or t.eval(at) != 0:
                problems.append(f"point {pc['point']}: not a common zero")
        elif pc["kind"] == "singular_point":
            lam, mu = _param(pc["parameter"])
            member = s * lam - t * mu
            if member.eval(at) != 0 or any(member.diff(v).eval(at) != 0 for v in GENS):
                problems.append(f"point {pc['point']}: not singular on ({pc['parameter']})")
        else:
            problems.append(f"point {pc['point']}: kind {pc['kind']}")
    if meta.get("points"):
        # the input was built with these points as its only singular points
        stratum = doc["residually_null"]
        got = {tuple(Fraction(c) for c in pc["point"]) for pc in stratum["points"]}
        if got != set(meta["points"]) or not stratum["points_complete"]:
            problems.append(f"points {sorted(got)} (complete: {stratum['points_complete']}), "
                            f"expected exactly {sorted(meta['points'])}")
    return problems


def _lift_lines(output: str) -> dict:
    fields = {}
    for line in output.splitlines():
        head, _, rest = line.partition(": ")
        if head.startswith("b (") or head.startswith("d ("):
            fields[head[0]] = rest
        elif head in ("cycles", "point") or head.startswith("congruence"):
            fields[head.split()[0]] = rest
    return fields


def check_lift(meta: dict, output: str) -> list[str]:
    fields = _lift_lines(output)
    if set(fields) != {"cycles", "point", "b", "d", "congruence"}:
        return [f"unexpected lift output: {output[:200]!r}"]
    if fields["congruence"] != "verified":
        return [f"congruence line reads {fields['congruence']!r}"]
    weight = int(meta["weight"])
    point = [sympy.Rational(c) for c in fields["point"].strip("()").split(",")]
    comps = [expr(meta[k]) for k in ("f", "g", "h")]
    for _ in range(int(fields["cycles"])):
        # x -> y -> z -> x moves (f, g, h) to (g', h', f') with x->z, y->x, z->y
        sub = {X: Z, Y: X, Z: Y}
        comps = [c.xreplace(sub) for c in (comps[1], comps[2], comps[0])]
    shift = dict(zip(GENS, (X + point[0], Y + point[1], Z + point[2])))
    moved = [poly(sympy.expand(c.xreplace(shift))) for c in comps]
    b, d = terms(fields["b"]), terms(fields["d"])
    problems = []
    if max(map(sum, b), default=0) > weight or max(map(sum, d), default=0) > weight + 1:
        problems.append("b or d exceeds its stated degree")
    for v, target in enumerate(moved):
        want = {m: Fraction(int(c.p), int(c.q)) for m, c in target.as_dict().items()
                if sum(m) <= weight}
        got = _truncated_product(b, minipoly.derivative(d, v), weight)
        if got != want:
            wrong = sorted(set(got.items()) ^ set(want.items()))[:3]
            problems.append(f"b*d_{GENS[v]} differs from the target through weight "
                            f"{weight}, e.g. at {wrong}")
    return problems


def check_corpus(meta: dict, output: str) -> list[str]:
    """Every bundled entry passes, in name order, under its summary line."""
    n = len(meta["entries"])
    want = [f"PASS  {name}" for name in meta["entries"]] + [f"{n}/{n} passed"]
    lines = output.splitlines()
    if lines == want:
        return []
    return ([f"expected line missing: {ln!r}" for ln in want if ln not in lines]
            + [f"unexpected line: {ln!r}" for ln in lines if ln not in want]
            or ["lines out of order"])


CHECKS = {"spectrum": check_spectrum, "lift": check_lift, "corpus": check_corpus}
