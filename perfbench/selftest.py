#!/usr/bin/env python3
"""Self-test of the benchmark at 1/100 of its sizes.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
`--size tiny`, untraced and traced, and checks that each run exits 0
with no failed path run, prints every metric below with its unit, and
ends with a result object whose metrics are exactly those BENCHMARK.json
lists. Also checks that an unknown workload is refused. Exits 1 on the
first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "setup_s": "s",
    "direct_s": "s",
    "spark_s": "s",
    "ispmc_s": "s",
    "direct_cpu_s": "s",
    "spark_cpu_s": "s",
    "ispmc_cpu_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "minihdfs.read_left_s": "s",
    "minihdfs.read_right_s": "s",
    "minihdfs.bytes_read": "B",
    "reader.parse_left_s": "s",
    "reader.parse_right_s": "s",
    "reader.records_parsed": "count",
    "reader.records_skipped": "count",
    "rtree.build_s": "s",
    "rtree.filter_s": "s",
    "rtree.candidates": "count",
    "rtree.node_visits": "count",
    "geom.prepare_s": "s",
    "geom.refine_prepared_s": "s",
    "geom.refine_flat_s": "s",
    "geom.refine_naive_s": "s",
    "geom.refine_accepts": "count",
    "geom.refine_precision": "ratio",
    "geom.edge_visits": "count",
    "parallel.probe_s": "s",
    "pool.busy_s": "s",
    "pool.wait_s": "s",
    "pool.imbalance": "ratio",
    "pool.overhead_s": "s",
    "pool.morsel_p50_ms": "ms",
    "pool.morsel_tail_ms": "ms",
    "pool.morsel_tail_pct": "%",
    "pool.morsels": "count",
    "sparklet.build_s": "s",
    "sparklet.parse_s": "s",
    "sparklet.probe_s": "s",
    "sparklet.tasks": "count",
    "sparklet.overhead_s": "s",
    "impalite.scan_s": "s",
    "impalite.build_s": "s",
    "impalite.probe_work_s": "s",
    "impalite.barrier_s": "s",
    "impalite.row_batches": "count",
    "impalite.barrier_eff": "ratio",
    "exchange.encode_s": "s",
    "exchange.decode_s": "s",
    "exchange.bytes": "B",
    "exchange.model_bytes": "B",
    "bench.trace_overhead_frac": "ratio",
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def printed(stdout):
    """`name value unit` lines of a run's output, as {name: (value, unit)}."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3:
            try:
                rows[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return rows


def check(workload, trace, listed):
    out = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return f"{where}: exit {out.returncode}\n{out.stderr}"
    rows = printed(out.stdout)
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        if name not in rows:
            return f"{where}: {name} not printed"
        if rows[name][1] != unit:
            return f"{where}: {name} printed in {rows[name][1]}, expected {unit}"
    if not trace and rows["failed_frac"][0] != 0:
        return f"{where}: failed_frac {rows['failed_frac'][0]}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"{where}: result {result['correct']} {result['attempted']} {result['failed']}"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != listed:
        return f"{where}: result metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(listed))}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, listed in ((0, e2e), (1, layers)):
            problem = check(w["name"], trace, listed)
            if problem:
                print(f"selftest: FAIL {problem}")
                return 1
            print(f"selftest: ok {w['name']} --trace {trace}")
    refused = run("no-such-workload", 0)
    if refused.returncode == 0:
        print("selftest: FAIL an unknown workload was accepted")
        return 1
    print("selftest: ok unknown workload refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
