#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [workload ...]

Runs perfbench/run.py once per seed on each workload (all workloads of
BENCHMARK.json by default) and prints, per metric, the median of the
runs and the distance between their first and third quartiles as a
share of the median, next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            result = json.loads(last)
            if out.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
        print(f"== {w} ({len(runs)} runs)")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:<28} median {med:>14.6f}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
