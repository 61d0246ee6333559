//! Fault-tolerance sweep: **live** fault injection through the real
//! executors.
//!
//! §III notes that "Spark provides fault tolerance through re-computing
//! as RDDs keep track of data processing workflows", where Impala's
//! fixed plan must restart a failed query. This harness *runs* that
//! contrast: the chaos layer injects worker panics, stragglers and
//! transient read faults into the actual execution paths at a sweep of
//! fault rates, and each recovery mode pays its real cost —
//!
//! * `spark-recompute` — sparklet recomputes lost partitions from
//!   lineage mid-job on the surviving workers;
//! * `impala-fail-fast` — any fragment failure aborts the query; the
//!   harness restarts it from scratch (fresh fault draws) until it
//!   completes or the restart budget is spent.
//!
//! Every baseline and every (rate, mode) cell runs [`REPS`] times and
//! reports its median wall time with the min and max; fault draws are
//! seeded, so every repetition injects the same faults. Every recovered
//! run is checked bit-identical to its fault-free twin, and a separate
//! phase plants replica corruption on a replication-3 file to drive the
//! minihdfs checksum fail-over. Results land in
//! `results/BENCH_fault_tolerance.json`.
//!
//! Usage: `cargo run --release -p bench --bin fault_tolerance -- \
//!         [--scale f] [--threads n] [--right-scale f]`

use std::fmt::Write as _;
use std::time::Instant;

use bench::{
    build_workload, parse_bench_args, run_ispmc, run_spark, BenchError, Experiment, Spread,
    Workload, REPS,
};
use cluster::{Chaos, ChaosConfig};

const SEED: u64 = 42;
/// Nonzero per-site fault rates swept through every live recovery mode.
/// The lowest rate is small enough that a whole fail-fast query can
/// survive with no fired fault, so the restart mode has a completing
/// data point; at the higher rates it demonstrably cannot finish.
const RATES: [f64; 4] = [0.001, 0.05, 0.15, 0.3];
/// Restart budget for the fail-fast mode before the harness gives up.
const MAX_RESTARTS: u32 = 25;

/// Runs `f` [`REPS`] times, returning the wall-clock spread and every
/// repetition's result.
fn repeat<T>(mut f: impl FnMut() -> T) -> (Spread, Vec<T>) {
    let mut secs = Vec::with_capacity(REPS);
    let out = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let r = f();
            secs.push(t0.elapsed().as_secs_f64());
            r
        })
        .collect();
    (Spread::of(&secs), out)
}

/// What one live repetition of a recovery mode ended with.
struct Outcome {
    completed: bool,
    bit_identical: bool,
    restarts: u32,
}

/// One live (rate, mode) measurement over [`REPS`] repetitions.
struct LiveRow {
    rate: f64,
    mode: &'static str,
    /// True when every repetition completed.
    completed: bool,
    wall: Spread,
    /// Median wall time over the mode's median fault-free wall time.
    overhead: f64,
    /// True when every repetition's output matched the baseline.
    bit_identical: bool,
    /// Counts of the first repetition; seeded draws repeat them.
    faults_injected: u64,
    partitions_recomputed: u64,
    restarts: u32,
}

impl LiveRow {
    /// Times `run` [`REPS`] times against the fault-free `base`,
    /// keeping the first repetition's fault and recompute counts.
    fn measure(
        rate: f64,
        mode: &'static str,
        base: Spread,
        mut run: impl FnMut() -> Outcome,
    ) -> LiveRow {
        let (wall, reps) = repeat(|| {
            let before = obs::thread_snapshot();
            let outcome = run();
            (outcome, obs::thread_snapshot().minus(&before))
        });
        let (first, delta) = &reps[0];
        LiveRow {
            rate,
            mode,
            completed: reps.iter().all(|(o, _)| o.completed),
            wall,
            overhead: wall.median / base.median.max(f64::EPSILON),
            bit_identical: reps.iter().all(|(o, _)| o.bit_identical),
            faults_injected: delta.faults_injected,
            partitions_recomputed: delta.partitions_recomputed,
            restarts: first.restarts,
        }
    }
}

/// One checksum fail-over measurement on the replicated file.
struct FailoverRow {
    rate: f64,
    replicas_corrupted: usize,
    blocks_failed_over: u64,
    read_ok: bool,
}

fn main() -> Result<(), BenchError> {
    let args = parse_bench_args()?;
    let threads = args.threads;
    eprintln!("# generating workload at scale {} ...", args.replay.scale);
    let w = build_workload(args.replay.scale, args.right_scale, SEED)?;
    let exp = Experiment::TaxiNycb;

    // Injected panics are expected; keep them off stderr.
    std::panic::set_hook(Box::new(|_| {}));

    // --- Fault-free baselines: one warm-up run each (the reference
    // output), then REPS timed runs ---
    let spark_base = run_spark(&w, exp, threads, ChaosConfig::disabled())?;
    let (spark_secs, spark_runs) = repeat(|| run_spark(&w, exp, threads, ChaosConfig::disabled()));
    for run in spark_runs {
        if run?.pairs != spark_base.pairs {
            return Err(BenchError::Usage(
                "fault-free spark runs disagree; cannot baseline".into(),
            ));
        }
    }
    let ispmc_base = run_ispmc(&w, exp, threads, ChaosConfig::disabled())?;
    let (ispmc_secs, ispmc_runs) = repeat(|| run_ispmc(&w, exp, threads, ChaosConfig::disabled()));
    for run in ispmc_runs {
        run?;
    }
    eprintln!(
        "# baselines (median of {REPS}): spark {:.3}s, ispmc {:.3}s",
        spark_secs.median, ispmc_secs.median
    );

    // --- Live sweep: fault rates x recovery modes ---
    let mut rows: Vec<LiveRow> = Vec::new();
    for &rate in &RATES {
        rows.push(LiveRow::measure(
            rate,
            "spark-recompute",
            spark_secs,
            || spark_recompute(&w, exp, threads, rate, &spark_base.pairs),
        ));
        rows.push(LiveRow::measure(
            rate,
            "impala-fail-fast",
            ispmc_secs,
            || impala_failfast(&w, exp, threads, rate, ispmc_base.pairs()),
        ));
    }

    // --- Checksum fail-over on a replication-3 copy of the right side ---
    let failover = checksum_failover_rows(&w)?;

    print_tables(&rows, &failover);
    let path = write_json(
        &args.replay.scale,
        threads,
        spark_secs,
        ispmc_secs,
        &rows,
        &failover,
    )
    .map_err(|e| BenchError::Usage(format!("writing artifact: {e}")))?;
    eprintln!("# wrote {path}");
    Ok(())
}

/// Spark under chaos: lineage recompute recovers lost partitions live.
fn spark_recompute(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    rate: f64,
    base_pairs: &[(i64, i64)],
) -> Outcome {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_spark(w, exp, threads, ChaosConfig::uniform(SEED, rate))
    }));
    let (completed, bit_identical) = match &outcome {
        Ok(Ok(run)) => (true, run.pairs == base_pairs),
        _ => (false, false),
    };
    Outcome {
        completed,
        bit_identical,
        restarts: 0,
    }
}

/// Impala under chaos: any fragment failure aborts; the harness
/// restarts from scratch with fresh fault draws (a real redeploy would
/// not replay the identical faults) until success or budget exhaustion.
fn impala_failfast(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    rate: f64,
    base_pairs: &[(i64, i64)],
) -> Outcome {
    let mut restarts = 0u32;
    loop {
        let seed = SEED.wrapping_add(7919u64.wrapping_mul(u64::from(restarts)));
        match run_ispmc(w, exp, threads, ChaosConfig::uniform(seed, rate)) {
            Ok(run) => {
                return Outcome {
                    completed: true,
                    bit_identical: run.pairs() == base_pairs,
                    restarts,
                }
            }
            Err(_) => {
                restarts += 1;
                if restarts >= MAX_RESTARTS {
                    return Outcome {
                        completed: false,
                        bit_identical: false,
                        restarts,
                    };
                }
            }
        }
    }
}

/// Copies the (small) right side onto a replication-3 file, plants
/// chaos-drawn replica corruption — always leaving each block's last
/// replica clean — and proves checksum fail-over hides every planted
/// fault from the reader.
fn checksum_failover_rows(w: &Workload) -> Result<Vec<FailoverRow>, BenchError> {
    let lines = w.dfs.read_all_lines(Experiment::TaxiNycb.right_path())?;
    let mut out = Vec::new();
    for &rate in &RATES {
        let dfs = minihdfs::MiniDfs::with_replication(bench::DATANODES, 16 * 1024, 3)?;
        dfs.write_lines("/replicated", &lines)?;
        let chaos = Chaos::new(ChaosConfig::uniform(SEED, rate));
        let blocks = dfs.blocks("/replicated")?;
        let mut corrupted = 0usize;
        for (b, blk) in blocks.iter().enumerate() {
            // Never corrupt the last replica: the sweep demonstrates
            // fail-over, not data loss (total loss is proph-tested).
            for r in 0..blk.replicas.len().saturating_sub(1) {
                if chaos.replica_corrupt(b as u64, r as u64) {
                    dfs.corrupt_replica("/replicated", b, r)?;
                    chaos.note_corrupt_replica(b as u64, r as u64);
                    corrupted += 1;
                }
            }
        }
        let before = obs::thread_snapshot();
        let read = dfs.read_all_lines("/replicated");
        let delta = obs::thread_snapshot().minus(&before);
        let read_ok = matches!(&read, Ok(got) if *got == lines);
        out.push(FailoverRow {
            rate,
            replicas_corrupted: corrupted,
            blocks_failed_over: delta.blocks_failed_over,
            read_ok,
        });
    }
    Ok(out)
}

fn print_tables(rows: &[LiveRow], failover: &[FailoverRow]) {
    println!(
        "Live fault injection on taxi-nycb (recovered runs verified bit-identical; \
         wall is the median of {REPS} runs)"
    );
    println!(
        "{:<8}{:<20}{:>10}{:>18}{:>12}{:>7}{:>7}{:>8}{:>11}{:>10}",
        "rate",
        "mode",
        "wall (s)",
        "min..max (s)",
        "overhead",
        "ok",
        "ident",
        "faults",
        "recovered",
        "restarts"
    );
    for r in rows {
        println!(
            "{:<8}{:<20}{:>10.3}{:>18}{:>11.2}x{:>7}{:>7}{:>8}{:>11}{:>10}",
            format!("{:.2}", r.rate),
            r.mode,
            r.wall.median,
            format!("{:.3}..{:.3}", r.wall.min, r.wall.max),
            r.overhead,
            r.completed,
            r.bit_identical,
            r.faults_injected,
            r.partitions_recomputed,
            r.restarts
        );
    }
    println!();
    println!("Checksum fail-over (replication 3, last replica always clean)");
    for f in failover {
        println!(
            "  rate {:.2}: {} replicas corrupted, {} block reads failed over, read ok: {}",
            f.rate, f.replicas_corrupted, f.blocks_failed_over, f.read_ok
        );
    }
}

fn write_json(
    scale: &f64,
    threads: usize,
    spark: Spread,
    ispmc: Spread,
    rows: &[LiveRow],
    failover: &[FailoverRow],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fault_tolerance\",");
    let _ = writeln!(json, "  \"experiment\": \"taxi-nycb\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let mut rates = String::new();
    for (i, r) in RATES.iter().enumerate() {
        let _ = write!(rates, "{}{r}", if i == 0 { "" } else { ", " });
    }
    let _ = writeln!(json, "  \"rates\": [{rates}],");
    let _ = writeln!(
        json,
        "  \"note\": \"live chaos injection through the real executors; wall_secs is the median \
         of reps runs (min and max beside it); overhead is that median over the mode's median \
         fault-free wall time; every repetition draws the same seeded faults; impala restarts \
         use fresh fault draws\","
    );
    let _ = writeln!(
        json,
        "  \"fault_free\": {{\"spark_secs\": {:.6}, \"spark_min_secs\": {:.6}, \
         \"spark_max_secs\": {:.6}, \"ispmc_secs\": {:.6}, \"ispmc_min_secs\": {:.6}, \
         \"ispmc_max_secs\": {:.6}}},",
        spark.median, spark.min, spark.max, ispmc.median, ispmc.min, ispmc.max
    );
    let _ = writeln!(json, "  \"live\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"rate\": {}, \"mode\": \"{}\", \"completed\": {}, \
             \"wall_secs\": {:.6}, \"wall_min_secs\": {:.6}, \"wall_max_secs\": {:.6}, \
             \"overhead\": {:.4}, \"bit_identical\": {}, \"faults_injected\": {}, \
             \"partitions_recomputed\": {}, \"restarts\": {}}}{comma}",
            r.rate,
            r.mode,
            r.completed,
            r.wall.median,
            r.wall.min,
            r.wall.max,
            r.overhead,
            r.bit_identical,
            r.faults_injected,
            r.partitions_recomputed,
            r.restarts
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"checksum_failover\": [");
    for (i, f) in failover.iter().enumerate() {
        let comma = if i + 1 == failover.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"rate\": {}, \"replicas_corrupted\": {}, \"blocks_failed_over\": {}, \
             \"read_ok\": {}}}{comma}",
            f.rate, f.replicas_corrupted, f.blocks_failed_over, f.read_ok
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_fault_tolerance.json"
    );
    std::fs::write(path, &json)?;
    Ok(path)
}
