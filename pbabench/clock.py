"""Calibrated time: wall-clock time divided by the speed of a fixed loop.

The host this benchmark was built on drifts in speed by a third within
seconds. A loop of builtin operations, timed right next to each measured
operation in the same thread, drifts in step with it. Dividing by the
loop's local time and multiplying by its nominal time turns a wall-clock
time into milliseconds at the nominal loop speed. No change to `pba` can
make the loop faster: it uses only int, tuple and dict.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

LOOP_N = 2000
# Median time of loop() on the reference host (see README.md).
NOMINAL_LOOP_MS = 1.25
# Calibration samples on each side of an operation that set its local speed.
WINDOW = 5


def loop(n: int = LOOP_N) -> int:
    """The calibration loop. Fixed: changing it changes every reported time."""
    d: dict = {}
    acc = 0
    for i in range(n):
        k = (i % 61, i & 7)
        v = d.get(k, 0) + (i * 2654435761) % 1000003
        d[k] = v
        acc ^= v
    return acc


def time_loop() -> float:
    """Wall-clock milliseconds of one loop()."""
    t0 = perf_counter_ns()
    loop()
    return (perf_counter_ns() - t0) / 1e6


def local_loop_ms(cals: list[float], j: int) -> float:
    """Loop speed around the span between cals[j] and cals[j + 1]: the
    median of the WINDOW samples on either side."""
    lo = max(0, j + 1 - WINDOW)
    return statistics.median(cals[lo:j + 1 + WINDOW])


def calibrated_ms(wall_ms: float, loop_ms: float) -> float:
    return wall_ms * NOMINAL_LOOP_MS / loop_ms
