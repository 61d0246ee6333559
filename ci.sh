#!/bin/sh
# Offline CI gate for the workspace. No network access is required at
# any step: all dependencies are in-tree path crates (enforced by the
# tidy `deps` check).
#
# Steps, in order (first failure stops the run):
#   1. cargo fmt --check          formatting drift
#   2. cargo run -p tidy          in-tree static analysis (6 checks)
#   3. cargo build --release      the tree compiles at opt level
#   4. cargo test -q              unit + integration + tier-1 suites,
#                                 then the cluster crate's tests again
#                                 in release, so the pool's scheduling
#                                 tests run at the optimisation level
#                                 the executors ship at
#   5. join front-door suites     parallel_join (morsel executor ≡
#                                 serial probe loop), join_request
#                                 (JoinRequest bit-identity and
#                                 accounting) and parallel_build (the
#                                 right side's per-block build ≡ the
#                                 serial build on all three paths, and
#                                 corrupt right-side blocks) and
#                                 cell_join (the cell-covering Within
#                                 join ≡ the STR probe loop), run
#                                 single-test-threaded so the executor's
#                                 own pools of up to 7 threads are the
#                                 only parallelism in the process
#   6. paper harness              the `paper` bin at tiny scale; asserts
#                                 results/BENCH_paper.json is well-formed
#                                 (4 experiments whose pairs agree, every
#                                 cell 5 runs with min <= median <= max,
#                                 Table 2 = the figures' 10-node points,
#                                 paper values on table cells), that the
#                                 shapes which hold at this scale hold,
#                                 and that results/BENCH_fig45_ablation.json
#                                 is produced and well-formed
#   7. obs stats artifact         same run's results/BENCH_obs_stats.json
#                                 carries coherent observability counters
#   8. chaos / fault tolerance    seeded chaos property suite, run
#                                 single-test-threaded (injected panics
#                                 + panic hooks are process-global),
#                                 then the live fault_tolerance sweep at
#                                 tiny scale; asserts
#                                 results/BENCH_fault_tolerance.json is
#                                 produced and well-formed, that it
#                                 holds exactly the two paper recovery
#                                 modes (spark-recompute and
#                                 impala-fail-fast), and that lineage
#                                 recompute completes at every fault
#                                 rate
#   9. benchmark self-test        perfbench/selftest.py: every workload
#                                 at tiny size, untraced and traced;
#                                 checks metric names, units and
#                                 failed_frac 0
#  10. cargo clippy               lints on every target (tests and
#                                 examples included), warnings denied
#  11. line count (non-gating)    prints the non-test, non-blank Rust
#                                 lines of crates/ + src/: each file's
#                                 lines before its first #[cfg(test)],
#                                 skipping */tests/*, so every change
#                                 reports its net lines the same way
#
# Exit codes:
#   0  everything passed
#   1  formatting drift (cargo fmt --check failed)
#   2  tidy findings or tidy usage error (see its own output)
#   3  release build failed
#   4  tests failed (debug, or the cluster crate in release)
#   5  parallel_join, join_request, parallel_build or cell_join suite
#      failed
#   6  paper harness failed, wrote a malformed paper or ablation
#      artifact, or a gated shape failed
#   7  obs stats artifact missing or malformed
#   8  chaos suite failed, or fault-tolerance artifact missing/malformed
#   9  benchmark self-test failed (or python3 missing)
#  10  clippy warnings
set -u

cd "$(dirname "$0")" || exit 2

echo "ci: cargo fmt --check"
cargo fmt --check || exit 1

echo "ci: cargo run -p tidy"
cargo run -q -p tidy || exit 2

echo "ci: cargo build --release"
cargo build --release || exit 3

echo "ci: cargo test -q"
cargo test -q || exit 4

echo "ci: cargo test -q --release -p cluster"
cargo test -q --release -p cluster || exit 4

echo "ci: join front-door suites (RUST_TEST_THREADS=1, executor threads up to 7)"
RUST_TEST_THREADS=1 cargo test -q --test parallel_join --test join_request \
    --test parallel_build --test cell_join || exit 5

echo "ci: paper harness (tiny scale)"
rm -f results/BENCH_paper.json results/BENCH_fig45_ablation.json results/BENCH_obs_stats.json
cargo run --release -q -p bench --bin paper -- \
    --scale 0.0005 --right-scale 0.05 --threads 4 || exit 6
[ -s results/BENCH_paper.json ] || {
    echo "ci: paper artifact missing or empty" >&2
    exit 6
}
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' || exit 6
import json
d = json.load(open("results/BENCH_paper.json"))
assert d["bench"] == "paper", d.get("bench")
assert len(d["experiments"]) == 4, "expected 4 experiments"
spreads = []
for e in d["experiments"]:
    assert e["pairs_agree"], e["experiment"]
    by = {(c["artifact"], c["system"], c["nodes"]): c for c in e["cells"]}
    for system, fig in (("spark", "fig4"), ("ispmc", "fig5")):
        t2, f10 = by[("table2", system, 10)], by[(fig, system, 10)]
        for k in ("median", "min", "max", "runs"):
            assert t2[k] == f10[k], (e["experiment"], system, k)
    for c in e["cells"]:
        assert "paper" in c, c
        if c["artifact"] in ("table1", "table2"):
            assert isinstance(c["paper"], (int, float)), c
    spreads += e["cells"]
assert len(d["refinement"]) == 2, "expected 2 refinement samples"
for r in d["refinement"]:
    assert isinstance(r["naive_over_flat"]["paper"], (int, float)), r
    spreads += [r["flat_s"], r["naive_s"], r["prepared_s"], r["naive_over_flat"]]
for c in spreads:
    assert c["runs"] == 5, c
    assert c["min"] <= c["median"] <= c["max"], c
# Gate only on the shapes that held in every one of repeated tiny-scale
# runs; CHANGES.md lists these and the ones that do not hold.
gated = {"t1_standalone_below_ispmc", "t1_spark_wins_refinement_heavy",
         "t1_ispmc_grows_with_radius", "t2_spark_wins", "refine_naive_slower"}
holds = {s["name"]: s["holds"] for s in d["shapes"]}
assert gated <= holds.keys(), gated - holds.keys()
failed = sorted(n for n in gated if not holds[n])
assert not failed, f"gated shapes failed: {failed}"
print("ci: paper artifact well-formed; gated shapes hold")
EOF
else
    grep -q '"bench": "paper"' results/BENCH_paper.json || exit 6
fi
[ -s results/BENCH_fig45_ablation.json ] || {
    echo "ci: ablation artifact missing or empty" >&2
    exit 6
}
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' || exit 6
import json
d = json.load(open("results/BENCH_fig45_ablation.json"))
assert d["bench"] == "fig45_schedule_ablation", d.get("bench")
assert len(d["experiments"]) == 4, "expected 4 experiments"
for e in d["experiments"]:
    assert e["identical_to_serial"], e["experiment"]
    assert len(e["cells"]) == 12, e["experiment"]
print("ci: ablation artifact well-formed")
EOF
else
    # No python3: fall back to a structural grep.
    grep -q '"bench": "fig45_schedule_ablation"' results/BENCH_fig45_ablation.json || exit 6
    grep -q '"scheduler": "StaticLocality"' results/BENCH_fig45_ablation.json || exit 6
fi

echo "ci: obs stats artifact (results/BENCH_obs_stats.json)"
[ -s results/BENCH_obs_stats.json ] || {
    echo "ci: obs stats artifact missing or empty" >&2
    exit 7
}
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' || exit 7
import json
d = json.load(open("results/BENCH_obs_stats.json"))
assert d["bench"] == "obs_stats", d.get("bench")
assert len(d["experiments"]) == 4, "expected 4 experiments"
for e in d["experiments"]:
    c = e["counters"]
    assert c["refine_calls"] >= e["result_pairs"], e["experiment"]
    assert c["filter_hits"] >= c["refine_accepts"], e["experiment"]
    assert c["records_parsed"] > 0, e["experiment"]
    assert c["morsels_executed"] == e["morsels"], e["experiment"]
    assert len(e["morsel_stats"]) == e["morsels"], e["experiment"]
print("ci: obs stats artifact well-formed")
EOF
else
    grep -q '"bench": "obs_stats"' results/BENCH_obs_stats.json || exit 7
    grep -q '"refine_calls"' results/BENCH_obs_stats.json || exit 7
fi

echo "ci: chaos property suite (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test -q -p spatialjoin --test chaos || exit 8

echo "ci: live fault-tolerance sweep (tiny scale)"
rm -f results/BENCH_fault_tolerance.json
cargo run --release -q -p bench --bin fault_tolerance -- \
    --scale 0.0002 --right-scale 0.01 --threads 4 || exit 8
[ -s results/BENCH_fault_tolerance.json ] || {
    echo "ci: fault-tolerance artifact missing or empty" >&2
    exit 8
}
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' || exit 8
import json
d = json.load(open("results/BENCH_fault_tolerance.json"))
assert d["bench"] == "fault_tolerance", d.get("bench")
assert len(d["rates"]) >= 3, "expected >= 3 fault rates"
modes = {r["mode"] for r in d["live"]}
assert modes == {"spark-recompute", "impala-fail-fast"}, modes
for r in d["live"]:
    # Every completed recovery must have been verified bit-identical.
    assert not r["completed"] or r["bit_identical"], r
    assert r["overhead"] > 0, r
    # Lineage recompute recovers at every rate; fault draws are a pure
    # function of (seed, site, index, attempt).
    if r["mode"] == "spark-recompute":
        assert r["completed"], r
for f in d["checksum_failover"]:
    assert f["read_ok"], f
    assert f["blocks_failed_over"] <= f["replicas_corrupted"], f
print("ci: fault-tolerance artifact well-formed")
EOF
else
    grep -q '"bench": "fault_tolerance"' results/BENCH_fault_tolerance.json || exit 8
    grep -q '"mode": "spark-recompute"' results/BENCH_fault_tolerance.json || exit 8
    grep -q '"checksum_failover"' results/BENCH_fault_tolerance.json || exit 8
fi

echo "ci: benchmark self-test (perfbench/selftest.py, tiny size)"
python3 perfbench/selftest.py || exit 9

echo "ci: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings || exit 10

echo "ci: non-test, non-blank Rust lines in crates/ + src/ (non-gating)"
find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' |
    sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && NF { n++ }
        END { print "ci: lines " n + 0 }'

echo "ci: ok"
exit 0
