"""Regression corpus: named spectra with expected classifications.

Each entry names a bracket (s, t), sampled pencil parameters, and the
expected residually-null dimension, maximal points, and per-parameter
factor data. run_corpus computes fresh reports and diffs them against
the expectations, one entry after another, sorted by name. A bundled
corpus of the worked examples ships with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .parser import parse, rational_literal
from .spectrum import PencilParameter, spectrum_report


def _fmt_points(pts) -> list[tuple[str, ...]]:
    return sorted(tuple(str(c) for c in p) for p in pts)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    s: str
    t: str
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


def load_corpus(text: str) -> list[CorpusEntry]:
    """Parse a corpus document; raises ValueError on malformed entries."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corpus is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError("corpus must be a JSON array of entries")
    entries = []
    for item in raw:
        try:
            parse(item["s"])
            parse(item["t"])
            expected = dict(item["expected"])
            if "maximal_points" in expected:
                rows = expected["maximal_points"]
                if type(rows) is not list or any(type(r) is not list or len(r) != 3 for r in rows):
                    raise ValueError("maximal_points: needs rows of 3 rationals")
                expected["maximal_points"] = {tuple(map(rational_literal, r)) for r in rows}
            if type(expected.get("residually_null_dimension", 0)) is not int:
                raise ValueError("residually_null_dimension: needs an int")
            for key, rows in expected.get("height_one", {}).items():
                PencilParameter.parse(key)
                for row in rows:
                    parse(row["generator"])
                    m = row["multiplicity"]
                    if type(m) is not int or m < 1 or type(row["primitive"]) is not bool:
                        raise ValueError(f"height_one[{key}]: needs int multiplicity >= 1, bool primitive")
            entries.append(
                CorpusEntry(
                    name=item["name"],
                    s=item["s"],
                    t=item["t"],
                    params=tuple(PencilParameter.parse(q) for q in item["params"]),
                    max_deg=int(item.get("max_deg", 3)),
                    expected=expected,
                )
            )
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            name = item.get("name", "?") if isinstance(item, dict) else "?"
            why = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"bad corpus entry {name!r}: {why}") from None
    return entries


def _check_entry(entry: CorpusEntry) -> CorpusResult:
    diffs: list[str] = []
    s = parse(entry.s)
    t = parse(entry.t)
    try:
        report = spectrum_report(s, t, list(entry.params), entry.max_deg)
    except ValueError as exc:
        raise ValueError(f"bad corpus entry {entry.name!r}: {exc}") from None
    stratum = report.residually_null

    want_dim = entry.expected.get("residually_null_dimension")
    if want_dim is not None and stratum.dimension != want_dim:
        diffs.append(f"residually_null_dimension: expected {want_dim}, got {stratum.dimension}")

    want_points = entry.expected.get("maximal_points")
    if want_points is not None:
        got_pts = {pc.point for pc in stratum.points}
        if want_points != got_pts:
            diffs.append(
                f"maximal_points: expected {_fmt_points(want_points)}, got {_fmt_points(got_pts)}"
            )

    for param_text, want_rows in entry.expected.get("height_one", {}).items():
        param = PencilParameter.parse(param_text)
        got_rows = report.height_one.get(param)
        if got_rows is None:
            diffs.append(f"height_one[{param}]: parameter missing from report")
            continue
        want = sorted(
            (str(parse(r["generator"])), r["multiplicity"], r["primitive"])
            for r in want_rows
        )
        got = sorted((str(r.generator), r.multiplicity, r.primitive) for r in got_rows)
        if want != got:
            diffs.append(f"height_one[{param}]: expected {want}, got {got}")

    return CorpusResult(entry.name, not diffs, tuple(diffs))


def run_corpus(entries: list[CorpusEntry]) -> list[CorpusResult]:
    """Evaluate all entries in turn; results sorted by entry name. Raises
    ValueError, naming the entry, when an entry has no report."""
    return sorted((_check_entry(e) for e in entries), key=lambda r: r.name)
