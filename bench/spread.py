#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --workloads nr-cube subgpt trit-scan \
        --seeds 0 1 2 3 4 5 6 7 8 9 [--trace 0|1]

For every workload and metric it prints the median of the per-seed values
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, the figure
BENCHMARK.json's bounds are checked against.  Runs are sequential, one at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}", flush=True)

    print(f"{'workload':<10} {'metric':<45} {'median':>12} {'spread':>8}")
    for workload in args.workloads:
        results = [r["result"] for r in runs if r["workload"] == workload]
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values) if len(values) > 1 else 0.0
            print(f"{workload:<10} {name:<45} {statistics.median(values):>12.6g} {s:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
