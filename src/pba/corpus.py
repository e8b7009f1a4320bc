"""Regression corpus: named spectra with expected classifications.

Each entry names a bracket (s, t), sampled pencil parameters, and the
expected residually-null dimension, maximal points, and per-parameter
factor data, kept in the strings of the pba/1 payload, the one rendering
of a report. run_corpus diffs each entry's payload against them, sorted
by name. A bundled corpus of the worked examples ships with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .parser import parse, rational_literal
from .poly import Poly, rat_text
from .serialize import report_payload
from .spectrum import PencilParameter, spectrum_report


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    s: Poly
    t: Poly
    params: tuple[PencilParameter, ...]
    max_deg: int
    expected: dict


@dataclass(frozen=True)
class CorpusResult:
    name: str
    passed: bool
    diffs: tuple[str, ...]


def bundled_corpus_text() -> str:
    return resources.files("pba").joinpath("data/corpus.json").read_text()


def _row(key: str, row: dict) -> tuple[str, int, bool]:
    generator, m = str(parse(row["generator"])), row["multiplicity"]
    if type(m) is not int or m < 1 or type(row["primitive"]) is not bool:
        raise ValueError(f"height_one[{key}]: needs int multiplicity >= 1, bool primitive")
    return generator, m, row["primitive"]


def load_corpus(text: str) -> list[CorpusEntry]:
    """Parse a corpus document; raises ValueError on malformed entries.
    height_one becomes (parameter, sorted rows) pairs in key order."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"corpus is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError("corpus must be a JSON array of entries")
    entries = []
    for item in raw:
        try:
            if type(item["name"]) is not str:
                raise ValueError("name: needs a string")
            s = parse(item["s"])
            t = parse(item["t"])
            expected = dict(item["expected"])
            if "maximal_points" in expected:
                rows = expected["maximal_points"]
                if type(rows) is not list or any(type(r) is not list or len(r) != 3 for r in rows):
                    raise ValueError("maximal_points: needs rows of 3 rationals")
                expected["maximal_points"] = {tuple(rat_text(rational_literal(c)) for c in r) for r in rows}
            if type(expected.get("residually_null_dimension", 0)) is not int:
                raise ValueError("residually_null_dimension: needs an int")
            max_deg = item.get("max_deg", 3)
            if type(max_deg) is not int:
                raise ValueError("max_deg: needs an int")
            expected["height_one"] = [
                (str(PencilParameter.parse(key)), sorted(_row(key, row) for row in rows))
                for key, rows in expected.get("height_one", {}).items()
            ]
            entries.append(
                CorpusEntry(
                    name=item["name"],
                    s=s,
                    t=t,
                    params=tuple(PencilParameter.parse(q) for q in item["params"]),
                    max_deg=max_deg,
                    expected=expected,
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
            name = item.get("name", "?") if isinstance(item, dict) else "?"
            why = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"bad corpus entry {name!r}: {why}") from None
    return entries


def _check_entry(entry: CorpusEntry) -> CorpusResult:
    try:
        report = spectrum_report(entry.s, entry.t, list(entry.params), entry.max_deg)
    except ValueError as exc:
        raise ValueError(f"bad corpus entry {entry.name!r}: {exc}") from None
    got = report_payload(entry.s, entry.t, entry.max_deg, report)
    stratum = got["residually_null"]
    diffs: list[str] = []

    want_dim = entry.expected.get("residually_null_dimension")
    if want_dim is not None and stratum["dimension"] != want_dim:
        diffs.append(f"residually_null_dimension: expected {want_dim}, got {stratum['dimension']}")

    want_points = entry.expected.get("maximal_points")
    got_points = {tuple(pc["point"]) for pc in stratum["points"]}
    if want_points is not None and want_points != got_points:
        diffs.append(f"maximal_points: expected {sorted(want_points)}, got {sorted(got_points)}")

    for param, want in entry.expected["height_one"]:
        if param not in got["height_one"]:
            diffs.append(f"height_one[{param}]: parameter missing from report")
            continue
        rows = sorted((r["generator"], r["multiplicity"], r["primitive"]) for r in got["height_one"][param])
        if want != rows:
            diffs.append(f"height_one[{param}]: expected {want}, got {rows}")

    return CorpusResult(entry.name, not diffs, tuple(diffs))


def run_corpus(entries: list[CorpusEntry]) -> list[CorpusResult]:
    """Evaluate all entries in turn; results sorted by entry name. Raises
    ValueError, naming the entry, when an entry has no report."""
    return sorted((_check_entry(e) for e in entries), key=lambda r: r.name)
