"""Run one workload on several seeds and print each end-to-end metric's
median and spread (distance between the first and third quartiles over
the median), plus the share of failed operations.

    python3 pbabench/steadiness.py --workload spectrum --seeds 1-10 --seconds 25

Runs one at a time, each in its own process, and waits for it to end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        figures = {k: v["value"] for k, v in result["metrics"].items()}
        print(seed, result["correct"], result["attempted"], result["failed"], f"{share:.6f}",
              json.dumps(figures), flush=True)
        for k, v in figures.items():
            values.setdefault(k, []).append(v)
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        print(f"{k}: median {med:.6g} spread {(q[2] - q[0]) / med if med else 0:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
