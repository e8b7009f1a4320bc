"""Seeded operation lists for the three workloads.

Each workload is one round: a fixed list of `pba` command lines built from
the seed alone. A run repeats the round whole, so every run attempts the
same operations in the same proportions. The `meta` of an operation keeps
what the independent checks need to know about how its input was made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import minipoly as mp

# The pencil that sends `squarefree_decomposition` into an unnormalised
# pseudo-remainder sequence; it has no answer within any deadline used here.
STUCK_S = "(x^2*y+z-3)*(x*y+z)*(x+1)"
STUCK_PARAMS = "1:0"

NONZERO = (-3, -2, -1, 1, 2, 3)
ONE = {(0, 0, 0): 1}

# Spectrum round: (factor degrees, kind of t) per slot. Products of degree 4
# are left out (see CHANGES.md): some of them hang in the gcd on some seeds.
SPECTRUM_SLOTS = [
    ((1, 1), "one"), ((1, 2), "one"), ((1, 1), "linear"), ((1, 2), "linear"),
    ((1, 2), "one"), ((1, 1), "one"), ((1, 2), "linear"), "cubic",
] * 20

# Lift round: (weight, family) per slot. The weights lean low so that a run
# of twenty-five seconds holds a hundred operations, with one operation at
# weight 14. The median and the 90th percentile fall inside blocks of one
# weight (8 and 11), not on a step between weights. The cycled family
# varies least in cost from seed to seed, so it takes the heavy weights;
# the shifted family varies most, so it stays at the light ones.
LIFT_SLOTS = (
    [(6, f) for f in ("origin", "shifted", "cycled", "origin")]
    + [(7, f) for f in ("shifted", "origin", "cycled", "shifted")]
    + [(8, f) for f in ("cycled", "origin", "cycled") * 6]
    + [(9, f) for f in ("origin", "cycled", "origin")]
    + [(10, f) for f in ("origin", "cycled", "origin")]
    + [(11, "cycled")] * 7
    + [(14, "cycled")]
)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)


def _monomials(deg: int) -> list[tuple[int, int, int]]:
    return [
        (i, j, d - i - j)
        for d in range(deg + 1)
        for i in range(d, -1, -1)
        for j in range(d - i, -1, -1)
    ]


def _random_poly(rng: random.Random, deg: int, pool=None, n_top=None, n_low=None) -> dict:
    """n_top terms of degree deg and n_low lower terms (one or two each
    when not given), with coefficients in [-3, 3]; pool restricts the
    monomials used."""
    pool = pool or _monomials(deg)
    top = [m for m in pool if sum(m) == deg]
    low = [m for m in pool if sum(m) < deg]
    picks = rng.sample(top, min(n_top or rng.randint(1, 2), len(top)))
    picks += rng.sample(low, min(n_low or rng.randint(1, 2), len(low)))
    return {m: rng.choice(NONZERO) for m in picks}


def _vanishes_on_plane(s: dict, t: dict) -> bool:
    """Does the linear form t divide s? Substitute the solved-for variable
    of t into s and test the result for zero, exactly over the rationals."""
    v = next(i for i in range(3) if any(m[i] for m in t))
    pivot = Fraction(t[tuple(int(i == v) for i in range(3))])
    rest = {m: -Fraction(c) / pivot for m, c in t.items() if not m[v]}
    power = {(0, 0, 0): Fraction(1)}
    powers = [power]
    for _ in range(max(m[v] for m in s)):
        powers.append(mp.mul(powers[-1], rest))
    out: dict = {}
    for m, c in s.items():
        base = list(m)
        base[v] = 0
        for pm, pc in powers[m[v]].items():
            k = tuple(a + b for a, b in zip(base, pm))
            out[k] = out.get(k, 0) + c * pc
    return not any(out.values())


def spectrum_ops(seed: int) -> list[Op]:
    rng = random.Random(f"spectrum:{seed}")
    ops = []
    for slot in SPECTRUM_SLOTS:
        if slot == "cubic":
            # k^2 (a x + b y + c z) - a b c x y z: isolated singular points at
            # +-(k/a, k/b, k/c), so the residually null stratum has points
            k, a, b, c = (rng.randint(1, 3) for _ in range(4))
            s = {(1, 0, 0): k * k * a, (0, 1, 0): k * k * b, (0, 0, 1): k * k * c,
                 (1, 1, 1): -a * b * c}
            text = mp.render(s)
            params = f"1:0,1:{2 * k ** 3},1:{rng.choice(NONZERO)}"
            point = (Fraction(k, a), Fraction(k, b), Fraction(k, c))
            ops.append(Op(("spectrum", "--s", text, "--t", "1", "--params", params,
                           "--max-deg", "3", "--json"),
                          {"s": text, "t": "1", "params": params, "factors": None,
                           "points": (point, tuple(-v for v in point))}))
            continue
        (d1, d2), kind = slot
        # fixed term counts keep the cost of one slot from seed to seed
        f1, f2 = (_random_poly(rng, d, n_top=2, n_low=d) for d in (d1, d2))
        s = mp.mul(f1, f2)
        if kind == "one":
            t = ONE
            params = f"1:0,1:{rng.choice(NONZERO)}"
        else:
            t = _random_poly(rng, 1)
            while _vanishes_on_plane(s, t):
                t = _random_poly(rng, 1)
            params = f"1:0,0:1,1:{rng.choice(NONZERO)}"
        text = f"({mp.render(f1)})*({mp.render(f2)})"
        ops.append(Op(
            ("spectrum", "--s", text, "--t", mp.render(t), "--params", params,
             "--max-deg", "3", "--json"),
            {"s": text, "t": mp.render(t), "params": params,
             "factors": (mp.render(f1), mp.render(f2))},
        ))
    ops.append(Op(("spectrum", "--s", STUCK_S, "--params", STUCK_PARAMS, "--json"),
                  {"s": STUCK_S, "t": "1", "params": STUCK_PARAMS, "factors": None,
                   "stuck": True}))
    return ops


def _lift_pencil(rng: random.Random, family: str) -> tuple[dict, dict]:
    """s with no constant term and t = 1 + c*v, so s/t is a true power
    series: b and d come out dense. Units in t(0) and in the linear terms
    of s keep denominators, and so the cost, from varying much."""
    t = {(0, 0, 0): 1}
    if family == "cycled":
        # s and t free of x: the f slot is zero, so the lift cycles
        pool = [m for m in _monomials(3) if not m[0]]
        s = _random_poly(rng, rng.choice((2, 3)), pool)
        while not any(m[1] for m in s) or not any(m[2] for m in s):
            s = _random_poly(rng, rng.choice((2, 3)), pool)
        t[rng.choice([(0, 1, 0), (0, 0, 1)])] = rng.choice(NONZERO)
    else:
        s = _random_poly(rng, rng.choice((2, 3)) if family == "origin" else 2)
        for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            s.pop(m, None)
        if family == "origin":
            # linear x and y terms make f(0) g(0) != 0
            s[(1, 0, 0)] = rng.choice((-1, 1))
            s[(0, 1, 0)] = rng.choice((-1, 1))
        # shifted: no linear terms, so F(0) = 0 and the base point moves
        while sum(any(m[v] for m in s) for v in range(3)) < 2:
            s[rng.choice(_monomials(2)[4:])] = rng.choice(NONZERO)
        t[rng.choice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])] = rng.choice(NONZERO)
    s.pop((0, 0, 0), None)
    if _vanishes_on_plane(s, t):
        # s = t*u leaves t*grad(u) with one nonzero component: trivial lift
        return _lift_pencil(rng, family)
    return s, t


def lift_ops(seed: int) -> list[Op]:
    rng = random.Random(f"lift:{seed}")
    ops = []
    for weight, family in LIFT_SLOTS:
        s, t = _lift_pencil(rng, family)
        f, g, h = (mp.render(c) for c in mp.qm_exact(s, t))
        ops.append(Op(("lift", "--f", f, "--g", g, "--h", h, "--weight", str(weight)),
                      {"f": f, "g": g, "h": h, "weight": weight}))
    return ops


# Names of the entries of the bundled corpus, each of which must pass.
CORPUS_ENTRIES = (
    "coordinate-ratio", "equitable", "heisenberg", "linear", "monomial-x-y2",
    "monomial-x2-y", "monomial-xyz", "quantum-torus", "sl2", "solvable-invariants",
    "whitney",
)


def corpus_ops(seed: int) -> list[Op]:
    # the bundled corpus is fixed; the seed changes nothing here
    return [Op(("corpus", "run"), {"entries": CORPUS_ENTRIES})]


WORKLOADS = {"corpus": corpus_ops, "spectrum": spectrum_ops, "lift": lift_ops}
