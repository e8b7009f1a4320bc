"""Versioned JSON rendering of spectrum reports.

report_payload is the one rendering of a report, read by the JSON, the
text of pba spectrum and the corpus. Documents carry "schema": "pba/1".
Polynomials are canonical render strings and rationals exact strings
like "9/2", so a document parses back without loss while the integers in
its polynomials fit parser.MAX_LITERAL_DIGITS and its rationals
parser.MAX_DIGITS characters. dumps() fixes key
order and indentation and prints ints in full at any size, making
load-then-dump byte-identical for every document json.loads reads.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .poly import Poly, int_text, rat_text
from .spectrum import PointClass, SpectrumReport

SCHEMA = "pba/1"


def _point_class(pc: PointClass) -> dict:
    return {
        "point": [rat_text(c) for c in pc.point],
        "kind": pc.kind.value,
        "parameter": str(pc.parameter) if pc.parameter is not None else None,
    }


def report_payload(s: Poly, t: Poly, max_deg: int, report: SpectrumReport) -> dict:
    """Plain-data form of a report, ready for json.dumps."""
    stratum = report.residually_null
    return {
        "schema": SCHEMA,
        "s": str(s),
        "t": str(t),
        "max_deg": max_deg,
        "zero_ideal": report.zero_ideal,
        "residually_null": {
            "basis": [str(b) for b in stratum.basis.basis],
            "dimension": stratum.dimension,
            "points": [_point_class(pc) for pc in stratum.points],
            "eliminants": [str(e) for e in stratum.eliminants],
            "points_complete": stratum.points_complete,
        },
        "height_one": {
            str(param): [
                {
                    "generator": str(r.generator),
                    "multiplicity": r.multiplicity,
                    "primitive": r.primitive,
                    "absolutely_irreducible_certified": r.absolutely_irreducible_certified,
                }
                for r in primes
            ]
            for param, primes in report.height_one.items()
        },
        "flags": {
            "factorization_complete": report.flags.factorization_complete,
            "finitely_many_poisson_maximal": report.flags.finitely_many_poisson_maximal,
        },
    }


def _encode(o, pad: str) -> str:
    # json.dumps(o, indent=2, sort_keys=True) with ints in int_text, which
    # prints past the digit limit at which json's str() raises
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if type(o) is int:
        return int_text(o)
    inner = pad + "  "
    if isinstance(o, dict) and o:
        items = [f"{encode_basestring_ascii(k)}: {_encode(o[k], inner)}" for k in sorted(o)]
        brackets = "{}"
    elif isinstance(o, (list, tuple)) and o:
        items = [_encode(v, inner) for v in o]
        brackets = "[]"
    else:
        return json.dumps(o)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def dumps(payload: dict | list) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing
    newline, ints in full at any size. Loading and re-dumping a document
    reproduces it exactly."""
    return _encode(payload, "") + "\n"
