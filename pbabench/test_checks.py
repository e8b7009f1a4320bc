"""Tests of the benchmark itself: each check rejects a corrupted output,
failures are counted, and the tracer wraps, counts and restores.

    python3 -m pytest pbabench
"""

from __future__ import annotations

import io
import json
import re
import signal
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import minipoly  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pba import cli  # noqa: E402


def pba_output(op) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(op.argv)) == 0
    return out.getvalue()


def first_op(ops, pred):
    return next(op for op in ops if pred(op))


# -- spectrum ---------------------------------------------------------------


@pytest.fixture(scope="module")
def product_op():
    # a product whose member at (1:0) has two factors
    return first_op(workloads.spectrum_ops(3), lambda op: op.meta.get("factors"))


@pytest.fixture(scope="module")
def cubic_op():
    ops = workloads.spectrum_ops(3)
    return first_op(ops, lambda op: op.meta.get("factors") is None and not op.meta.get("stuck"))


def test_spectrum_check_accepts_pba_output(product_op, cubic_op):
    for op in (product_op, cubic_op):
        assert checks.check_spectrum(op.meta, pba_output(op)) == []


def test_spectrum_check_rejects_dropped_factor(product_op):
    doc = json.loads(pba_output(product_op))
    rows = doc["height_one"]["1:0"]
    assert len(rows) >= 2
    rows.pop()
    problems = checks.check_spectrum(product_op.meta, json.dumps(doc))
    assert any("multiply to the member" in p for p in problems)


def test_spectrum_check_rejects_factor_unlike_sympy(product_op):
    doc = json.loads(pba_output(product_op))
    row = doc["height_one"]["1:0"][0]
    row["multiplicity"] += 1
    row["primitive"] = False
    assert checks.check_spectrum(product_op.meta, json.dumps(doc))


def test_spectrum_check_rejects_dropped_parameter(product_op):
    doc = json.loads(pba_output(product_op))
    assert len(doc["height_one"]) >= 2
    del doc["height_one"]["1:0"]
    problems = checks.check_spectrum(product_op.meta, json.dumps(doc))
    assert any("asked for" in p for p in problems)


@pytest.mark.parametrize("corrupt", ["no points", "one point", "incomplete"])
def test_spectrum_check_rejects_missing_points(cubic_op, corrupt):
    doc = json.loads(pba_output(cubic_op))
    stratum = doc["residually_null"]
    assert len(stratum["points"]) == 2 and stratum["points_complete"]
    if corrupt == "no points":
        stratum["points"] = []
    elif corrupt == "one point":
        stratum["points"].pop()
    else:
        stratum["points_complete"] = False
    problems = checks.check_spectrum(cubic_op.meta, json.dumps(doc))
    assert any("expected exactly" in p for p in problems)


def test_spectrum_check_rejects_wrong_point(cubic_op):
    doc = json.loads(pba_output(cubic_op))
    points = doc["residually_null"]["points"]
    assert points
    points[0]["point"][0] = str(Fraction(points[0]["point"][0]) + 1)
    problems = checks.check_spectrum(cubic_op.meta, json.dumps(doc))
    assert any("does not vanish" in p for p in problems)


# -- lift -------------------------------------------------------------------


@pytest.mark.parametrize("family", ["origin", "cycled", "shifted"])
def test_lift_check_accepts_pba_output(family):
    slots = [i for i, (_, f) in enumerate(workloads.LIFT_SLOTS) if f == family]
    op = workloads.lift_ops(5)[slots[0]]
    assert checks.check_lift(op.meta, pba_output(op)) == []


def test_lift_check_rejects_perturbed_coefficient():
    op = workloads.lift_ops(5)[0]
    text = pba_output(op)
    line = next(ln for ln in text.splitlines() if ln.startswith("d ("))
    head, _, series = line.partition(": ")
    terms = checks.terms(series)
    mono = max(terms, key=lambda m: (sum(m), m))
    terms[mono] += Fraction(1, 7)
    bad = text.replace(line, f"{head}: {minipoly.render(terms)}")
    assert bad != text
    problems = checks.check_lift(op.meta, bad)
    assert any("differs from the target" in p for p in problems)


def test_terms_reads_what_pba_prints():
    text = "-3/4*x^2*z + x*y^4 - y + 2"
    assert checks.terms(text) == {
        (2, 0, 1): Fraction(-3, 4), (1, 4, 0): 1, (0, 1, 0): -1, (0, 0, 0): 2}


# -- corpus -----------------------------------------------------------------


def test_corpus_check_rejects_failed_entry():
    op = workloads.corpus_ops(0)[0]
    text = pba_output(op)
    assert checks.check_corpus(op.meta, text) == []
    bad = re.sub(r"^PASS  equitable", "FAIL  equitable", text, flags=re.M)
    assert checks.check_corpus(op.meta, bad)


def test_corpus_check_rejects_dropped_entry():
    op = workloads.corpus_ops(0)[0]
    lines = pba_output(op).splitlines()
    assert lines[-1] == "11/11 passed"
    bad = "\n".join([ln for ln in lines[:-1] if not ln.endswith("  sl2")] + ["10/10 passed"])
    problems = checks.check_corpus(op.meta, bad + "\n")
    assert "expected line missing: 'PASS  sl2'" in problems


# -- failure accounting -----------------------------------------------------


class FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        return self.behaviour(self)


@pytest.fixture()
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _raise(exc):
    def behaviour(_):
        raise exc
    return behaviour


def _spin(_):
    while True:
        pass


@pytest.mark.parametrize("behaviour, status", [
    (lambda _: 0, "ok"),
    (lambda _: 1, "exit code 1"),
    (_raise(RecursionError()), "RecursionError"),
    (_raise(SystemExit(2)), "SystemExit(2)"),
    (_spin, "deadline"),
])
def test_execute_classifies_failures(alarm, behaviour, status):
    got, wall_ms, _ = run.execute(FakeCli(behaviour), ["x"], 0.2)
    assert got == status
    if status == "deadline":
        assert 150 < wall_ms < 2000


def test_changed_repeat_output_fails(alarm):
    def behaviour(fake):
        print(fake.calls)
        return 0
    loop = run.Loop(FakeCli(behaviour), [workloads.Op(("x",))], 1.0)
    loop.rounds(0, 2)
    assert [status for _, status, _, _ in loop.records] == [
        "ok", "output differs from its first run"]
    lat = loop.latencies(set())
    assert [ok for _, ok, _ in lat] == [True, False]
    assert lat[1][2] == 1000.0  # charged the deadline


# -- tracer -----------------------------------------------------------------


def test_tracer_counts_repeat_and_restore(alarm):
    import pba.poly

    original = pba.poly.Poly.__mul__
    op = workloads.spectrum_ops(3)[1]
    runs = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            assert pba.poly.Poly.__rmul__ is pba.poly.Poly.__mul__ is not original
            tr.begin_op(0)
            run.execute(cli, op.argv, 30.0)
            figures = tr.end_op()
        finally:
            tr.uninstall()
        assert tr.absent == []
        runs.append((dict(figures["calls"]), dict(figures["work"])))
    assert pba.poly.Poly.__mul__ is original
    assert runs[0] == runs[1]
    calls = runs[0][0]
    assert calls["cli.main"] == 1 and calls["spectrum.spectrum_report"] == 1
    assert calls["poly.gcd"] > 0 and calls["engine.buchberger"] > 0


def test_tracer_reports_absent_layer(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + [
        ("poly.renamed", "pba.poly", "no_such_function"),
        ("gone.module", "pba.no_such_module", "f"),
    ])
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["poly.renamed", "gone.module"]


def test_calibration_loop_is_fixed():
    # changing the loop changes every calibrated figure; this pins it
    assert run.clock.LOOP_N == 2000
    assert run.clock.loop() == 1296334
