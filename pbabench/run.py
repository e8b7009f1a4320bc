"""Benchmark of `pba`: a closed loop of `pba` command lines on seeded inputs.

    python3 pbabench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

One client in one thread runs whole rounds of a fixed operation list, each
operation being `pba.cli.main(argv)` with its output captured, until the
run has lasted --seconds and done at least MIN_OPS operations. Every time
is calibrated (see clock.py). With --trace 1 the run first measures some
rounds untraced, then wraps the `pba` layers (see tracer.py) and reports
per-layer figures per round instead of the end-to-end ones. The last line
of standard output is the result as one JSON object; the same result, with
the commit and the Python version, goes to pbabench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import clock
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Wall-clock deadline of one operation, per workload, far above the slowest
# passing operation seen on the reference host (0.25 s, 0.15 s and 1.14 s).
# A failed operation is charged its deadline in every time figure.
DEADLINE_S = {"corpus": 5.0, "spectrum": 1.0, "lift": 30.0}
SETUP_REPEATS = 21
MIN_OPS = 100
TRACE_UNTRACED_SHARE = 0.4
SPAN_CAP = 50_000


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an operation that ran past its deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline()


# -- set-up -------------------------------------------------------------


def _import_pba():
    for name in [n for n in sys.modules if n == "pba" or n.startswith("pba.")]:
        del sys.modules[name]
    return importlib.import_module("pba.cli")


def setup(workload: str, seed: int):
    """Import `pba` afresh and build the inputs, SETUP_REPEATS times; returns
    the median calibrated set-up time in s, the cli module and the ops.

    Every import compiles `pba` from source, whatever bytecode caches the
    checkout holds: bytecode is looked for only under an empty prefix
    directory, and none is written."""
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix = str(OUT / "no-pycache")
    sys.dont_write_bytecode = True
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            before = [clock.time_loop() for _ in range(3)]
            t0 = perf_counter_ns()
            cli = _import_pba()
            ops = workloads.WORKLOADS[workload](seed)
            wall_ms = (perf_counter_ns() - t0) / 1e6
            after = [clock.time_loop() for _ in range(3)]
            times.append(clock.calibrated_ms(wall_ms, statistics.median(before + after)) / 1000)
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    return statistics.median(times), cli, ops


# -- the closed loop ----------------------------------------------------


def execute(cli, argv, deadline_s: float) -> tuple[str, float, str]:
    """Run one command line; returns (status, wall ms, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    status, rc = "ok", None
    t0 = perf_counter_ns()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        status = "deadline"
    except SystemExit as exc:
        status = f"SystemExit({exc.code!r})"
    except Exception as exc:  # any exception is a failed operation, counted
        status = type(exc).__name__
    wall_ms = (perf_counter_ns() - t0) / 1e6
    if status == "ok" and rc != 0:
        status = f"exit code {rc}"
    return status, wall_ms, out.getvalue()


class Loop:
    """Attempts, loop timings and first outputs of one run."""

    def __init__(self, cli, ops, deadline_s: float):
        self.cli, self.ops, self.deadline_s = cli, ops, deadline_s
        self.records: list[tuple[int, str, float, object]] = []  # op, status, wall ms, trace
        self.cals = [clock.time_loop()]
        self.outputs: dict[int, str] = {}

    def rounds(self, until: float, min_ops: int, tracer=None) -> int:
        """Whole rounds until perf_counter() >= until and min_ops attempts."""
        start = len(self.records)
        n = 0
        while True:
            if tracer:
                tracer.recording = n == 0  # spans of the first traced round
            for i, op in enumerate(self.ops):
                if tracer:
                    tracer.begin_op(len(self.records))
                status, wall, out = execute(self.cli, op.argv, self.deadline_s)
                figures = tracer.end_op() if tracer else None
                self.cals.append(clock.time_loop())
                if status == "ok":
                    first = self.outputs.setdefault(i, out)
                    if first != out:
                        status = "output differs from its first run"
                self.records.append((i, status, wall, figures))
            n += 1
            if perf_counter() >= until and len(self.records) - start >= min_ops:
                return n

    def latencies(self, rejected: set) -> list[tuple[int, bool, float]]:
        """(op, passed, calibrated ms) per attempt; a failed attempt is
        charged the deadline."""
        out = []
        for j, (i, status, wall, _) in enumerate(self.records):
            if status == "ok" and i not in rejected:
                out.append((i, True, clock.calibrated_ms(wall, clock.local_loop_ms(self.cals, j))))
            else:
                out.append((i, False, self.deadline_s * 1000))
        return out


def end_to_end(lat, setup_s: float, peak_rss_mib: float) -> dict:
    ms = [m for _, _, m in lat]
    done = sum(ok for _, ok, _ in lat)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": done / (sum(ms) / 1000), "unit": "ops/s"},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10, method="inclusive")[8], "unit": "ms"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }


def per_layer(loop: Loop, lat_u, lat_t, rounds_u: int, rounds_t: int, tr) -> dict:
    """Per traced round: calls, self ms and work counts of each layer, with
    the tracing overhead measured against the untraced rounds."""
    base = len(lat_u)
    for j, (_, ok, _) in enumerate(lat_t):
        figures = loop.records[base + j][3]
        if ok:
            scale = clock.NOMINAL_LOOP_MS / clock.local_loop_ms(loop.cals, base + j) / 1e6
            tr.keep(figures, scale)
    metrics = {}
    for layer, _, _ in tracing.LAYERS:
        metrics[f"{layer}.calls"] = {"value": tr.kept["calls"][layer] / rounds_t, "unit": "count"}
        metrics[f"{layer}.self_ms"] = {"value": tr.kept["self_ns"][layer] / rounds_t, "unit": "ms"}
    for name in tracing.WORK:
        metrics[name] = {"value": tr.kept["work"][name] / rounds_t, "unit": "count"}
    metrics["corpus.run_corpus.total_ms"] = {
        "value": tr.kept["total_ns"]["corpus.run_corpus"] / rounds_t, "unit": "ms"}
    untraced = sum(m for _, ok, m in lat_u if ok) / rounds_u
    traced = sum(m for _, ok, m in lat_t if ok) / rounds_t
    metrics["trace.untraced_round_ms"] = {"value": untraced, "unit": "ms"}
    metrics["trace.overhead"] = {"value": traced / untraced, "unit": "ratio"}
    return metrics


# -- checks and provenance ------------------------------------------------


def check_outputs(workload: str, loop: Loop) -> dict[int, list[str]]:
    """Independent checks of each operation's first output, after timing."""
    import checks  # imports sympy; only now, after the figures are taken

    problems = {}
    for i, out in sorted(loop.outputs.items()):
        op = loop.ops[i]
        try:
            found = checks.CHECKS[workload](op.meta, out)
        except Exception as exc:  # output the check cannot even read is rejected
            found = [f"check raised {exc!r}"]
        if found:
            problems[i] = found
    return problems


def commit() -> str | None:
    """HEAD of the checkout, when the checkout is the top of a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pba" / "__init__.py").is_file():
        print(f"error: no pba sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_s, cli, ops = setup(args.workload, args.seed)
    pba_dir = Path(sys.modules["pba"].__file__).resolve().parent
    if pba_dir != (SRC / "pba").resolve():
        print(f"error: pba imported from {pba_dir}, not from {SRC / 'pba'}", file=sys.stderr)
        return 2

    loop = Loop(cli, ops, DEADLINE_S[args.workload])
    start = perf_counter()
    tr = None
    if args.trace:
        rounds_u = loop.rounds(start + TRACE_UNTRACED_SHARE * args.seconds, 0)
        n_untraced = len(loop.records)
        tr = tracing.Tracer(SPAN_CAP)
        tr.install()
        try:
            rounds_t = loop.rounds(start + args.seconds, max(0, MIN_OPS - n_untraced), tr)
        finally:
            tr.uninstall()
    else:
        rounds_u = loop.rounds(start + args.seconds, MIN_OPS)
        n_untraced = len(loop.records)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_outputs(args.workload, loop)
    lat = loop.latencies(set(problems))
    if args.trace:
        metrics = per_layer(loop, lat[:n_untraced], lat[n_untraced:], rounds_u, rounds_t, tr)
    else:
        metrics = end_to_end(lat, setup_s, peak_rss_mib)
    failures: dict[str, int] = {}
    for i, status, _, _ in loop.records:
        if status != "ok" or i in problems:
            key = f"op {i}: {status if status != 'ok' else 'rejected by its check'}"
            failures[key] = failures.get(key, 0) + 1
    result = {
        "correct": not problems,
        "attempted": len(lat),
        "failed": sum(not ok for _, ok, _ in lat),
        "metrics": metrics,
    }

    raw = sorted(w for _, status, w, _ in loop.records if status == "ok")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(),
        "python": platform.python_version(),
        "rounds": rounds_u + (rounds_t if args.trace else 0), "ops_per_round": len(ops),
        "deadline_s": loop.deadline_s, "failures": failures, "problems": problems,
        "loop_ms_median": statistics.median(loop.cals),
        "raw_wall_ms_p50": statistics.median(raw) if raw else None,
        "raw_wall_ms_p90": statistics.quantiles(raw, n=10, method="inclusive")[8]
        if len(raw) > 1 else None,
        "raw_wall_ms_max": raw[-1] if raw else None,
        "absent_layers": tr.absent if tr else [],
        "spans_dropped": tr.spans_dropped if tr else 0,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    if tr:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for span in tr.spans:
                fh.write(json.dumps(dict(zip(
                    ("attempt", "span", "parent", "layer", "thread", "start_ns", "end_ns"), span)))
                    + "\n")
    for key, count in sorted(failures.items()):
        print(f"failed {count}x {key}", file=sys.stderr)
    for i, found in problems.items():
        print(f"op {i} {ops[i].argv}: {found}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
