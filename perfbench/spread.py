"""Run a workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload fig13 --seeds 1 2 3 4 5 --seconds 40

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  A spread must stay below its bound for the benchmark
to tell a regression from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its result object."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {completed.returncode}\n"
                         f"{completed.stdout}{completed.stderr}")
    return json.loads(lines[-1])


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        result = run(args.workload, seed, args.seconds)
        elapsed = time.perf_counter() - started
        if not result["correct"]:
            print(f"seed {seed}: output check failed")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({elapsed:.1f} s): " + ", ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)
    for name, series in values.items():
        print(f"{name:16s} median {statistics.median(series):.5g}  "
              f"spread {spread(series):.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
