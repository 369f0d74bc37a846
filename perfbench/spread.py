#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1] [--trace 0|1]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of that median (the
steadiness check applied to BENCHMARK.json's bounds), and the share
each end-to-end metric's spread takes of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        share = f"  {spread / bounds[name]:5.2f} of bound" if name in bounds else ""
        print(f"{name:32} median {med:14.6f}  spread {spread:7.4f}{share}")
        print("    " + " ".join(f"{v:.6g}" for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
