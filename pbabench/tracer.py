"""Outside-in tracer: wraps public functions of `pba` without editing it.

Each layer names a function by module and qualified name. Installing the
tracer replaces that function object wherever a `pba` module namespace or
a `pba` class binds it (so `Poly.__rmul__`, an alias of `Poly.__mul__`, is
wrapped too), and uninstalling puts the originals back. A name that no
longer resolves is reported as absent and otherwise ignored.

Per call the wrapper records one call and the self time: its duration
minus the durations of wrapped calls nested in it on the same thread.
Counts and times gather per operation; the runner `keep`s those of the
operations that passed, so an operation cut off at its deadline adds
nothing.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# (layer, module, qualified name)
LAYERS = [
    ("cli.main", "pba.cli", "main"),
    ("parser.parse", "pba.parser", "parse"),
    ("poly.mul", "pba.poly", "Poly.__mul__"),
    ("poly.gcd", "pba.poly", "gcd"),
    ("poly.squarefree_decomposition", "pba.poly", "squarefree_decomposition"),
    ("poly.exact_quotient", "pba.poly", "exact_quotient"),
    ("poly.translate", "pba.poly", "Poly.translate"),
    ("triples.qm_exact_triple", "pba.triples", "qm_exact_triple"),
    ("triples.jacobi_witness", "pba.triples", "jacobi_witness"),
    ("engine.buchberger", "pba._engine", "buchberger"),
    ("engine.normal_form", "pba._engine", "normal_form"),
    ("engine.solve_rational", "pba._engine", "solve_rational"),
    ("engine.univariate_rational_roots", "pba._engine", "univariate_rational_roots"),
    ("factor.factor_bounded", "pba.factor", "factor_bounded"),
    ("spectrum.spectrum_report", "pba.spectrum", "spectrum_report"),
    ("lifting.cm_certificate", "pba.lifting", "cm_certificate"),
    ("lifting.lift_at_origin", "pba.lifting", "lift_at_origin"),
    ("lifting.series_mul", "pba.lifting", "TruncatedSeries.__mul__"),
    ("lifting.verify_certificate", "pba.lifting", "verify_certificate"),
    ("corpus.run_corpus", "pba.corpus", "run_corpus"),
    ("serialize.report_payload", "pba.serialize", "report_payload"),
    ("serialize.dumps", "pba.serialize", "dumps"),
]

# Counts of work, besides calls, kept per layer.
WORK = [
    "poly.mul.term_pairs",  # len(a) * len(b) over products of two Polys
    "engine.buchberger.basis_polys",  # size of each returned basis
    "factor.ansatz_systems",  # buchberger calls made under factor_bounded
    "corpus.run_corpus.threads",  # max_workers of the thread pools it makes
]


def _resolve(module: str, qualname: str):
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj if callable(obj) else None


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (namespace owner, name) in pba modules and classes bound to fn."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pba" or name.startswith("pba.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == name]:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    out.append((owner, attr))
    return out


class Tracer:
    def __init__(self, span_cap: int = 0):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._op: dict = self._fresh()
        self.kept: dict = self._fresh()
        self.span_cap = span_cap
        self.recording = False
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._op_index = -1

    @staticmethod
    def _fresh() -> dict:
        return {"calls": defaultdict(int), "self_ns": defaultdict(int),
                "work": defaultdict(int), "total_ns": defaultdict(int)}

    # -- install -------------------------------------------------------

    def install(self) -> None:
        for layer, module, qualname in LAYERS:
            fn = _resolve(module, qualname)
            sites = _bindings(fn) if fn is not None else []
            if not sites:
                self.absent.append(layer)
                continue
            self._patch(sites, fn, self._wrap(layer, fn))
        pool = concurrent.futures.ThreadPoolExecutor
        self._patch(_bindings(pool), pool, self._counted_pool(pool))

    def _patch(self, sites, original, replacement) -> None:
        for owner, attr in sites:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- per operation -------------------------------------------------

    def begin_op(self, index: int) -> None:
        # a deadline can cut a wrapper off before it pops its frame
        self._tls.stack = []
        self._tls.active = defaultdict(int)
        self._op = self._fresh()
        self._op_index = index

    def end_op(self) -> dict:
        """The figures of the operation just run."""
        op = self._op
        self._op = self._fresh()
        return op

    def keep(self, figures: dict, scale: float) -> None:
        """Add one operation's figures to `kept`; times are multiplied by
        scale, which turns calibrated ns into ms."""
        for kind in ("calls", "work"):
            for k, v in figures[kind].items():
                self.kept[kind][k] += v
        for kind in ("self_ns", "total_ns"):
            for k, v in figures[kind].items():
                self.kept[kind][k] += v * scale

    # -- the wrapper ---------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tls = tracer._tls
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.active = defaultdict(int)
            span = next(tracer._ids)
            parent = stack[-1][1] if stack else 0
            frame = [0, span]
            stack.append(frame)
            tls.active[layer] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tls.active[layer] -= 1
                if stack:
                    stack[-1][0] += t1 - t0
                tracer._record(layer, frame[0], span, parent, t0, t1)
            tracer._count_work(layer, args, result, tls)
            return result

        return traced

    def _record(self, layer, child, span, parent, t0, t1) -> None:
        with self._lock:
            op = self._op
            op["calls"][layer] += 1
            op["self_ns"][layer] += t1 - t0 - child
            if layer == "corpus.run_corpus":
                op["total_ns"][layer] += t1 - t0
            if self.recording:
                if len(self.spans) < self.span_cap:
                    self.spans.append((self._op_index, span, parent, layer,
                                       threading.get_ident(), t0, t1))
                else:
                    self.spans_dropped += 1

    def _count_work(self, layer, args, result, tls) -> None:
        with self._lock:
            work = self._op["work"]
            if layer == "poly.mul" and len(args) == 2 and type(args[1]) is type(args[0]):
                work["poly.mul.term_pairs"] += len(args[0]) * len(args[1])
            elif layer == "engine.buchberger":
                work["engine.buchberger.basis_polys"] += len(result)
                if tls.active["factor.factor_bounded"]:
                    work["factor.ansatz_systems"] += 1

    def _counted_pool(self, pool):
        """A ThreadPoolExecutor that records how many threads it may use."""
        tracer = self

        class CountedPool(pool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                with tracer._lock:
                    work = tracer._op["work"]
                    key = "corpus.run_corpus.threads"
                    work[key] = max(work[key], self._max_workers)

        return CountedPool
