"""Just enough integer polynomial arithmetic in x, y, z to build inputs.

The benchmark writes every `pba` input as text. Building those texts
(products, gradients, the triple t*grad(s) - s*grad(t)) needs a little
arithmetic, done here on plain dicts {(i, j, k): int} so that no input
depends on the program under test.
"""

from __future__ import annotations

VARS = ("x", "y", "z")


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j, k), c in a.items():
        for (p, q, r), d in b.items():
            m = (i + p, j + q, k + r)
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c}


def add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def derivative(a: dict, v: int) -> dict:
    out = {}
    for m, c in a.items():
        if m[v]:
            n = list(m)
            n[v] -= 1
            out[tuple(n)] = c * m[v]
    return out


def qm_exact(s: dict, t: dict) -> tuple[dict, dict, dict]:
    """Components of t*grad(s) - s*grad(t)."""
    return tuple(
        add(mul(t, derivative(s, v)), mul(s, derivative(t, v)), -1) for v in range(3)
    )


def render(a: dict) -> str:
    """Text the `pba` grammar accepts: terms joined by ' + ' or ' - '."""
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=lambda m: (sum(m), m), reverse=True):
        c = a[m]
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, m) if e)
        mag = abs(c)
        text = body if body and mag == 1 else f"{mag}*{body}" if body else str(mag)
        if parts:
            parts.append(("+ " if c > 0 else "- ") + text)
        else:
            parts.append(text if c > 0 else "-" + text)
    return " ".join(parts)
