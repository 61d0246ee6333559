//! Fault-tolerance sweep: **live** fault injection through the real
//! executors, next to the original replay-model ablation.
//!
//! §III notes that "Spark provides fault tolerance through re-computing
//! as RDDs keep track of data processing workflows", where Impala's
//! fixed plan must restart a failed query. The original harness modelled
//! that contrast on measured task timings; this version also *runs* it:
//! the chaos layer injects worker panics, stragglers and transient read
//! faults into the actual execution paths at a sweep of fault rates,
//! and each recovery mode pays its real cost —
//!
//! * `spark-recompute` — sparklet recomputes lost partitions from
//!   lineage mid-job on the surviving workers;
//! * `impala-fail-fast` — any fragment failure aborts the query; the
//!   harness restarts it from scratch (fresh fault draws) until it
//!   completes or the restart budget is spent;
//! * `pool-retry` — the shared morsel pool retries panicking morsels in
//!   place, up to a bounded number of attempts each.
//!
//! Every recovered run is checked bit-identical to its fault-free
//! twin, and a separate phase plants replica corruption on a
//! replication-3 file to drive the minihdfs checksum fail-over.
//! Results land in `results/BENCH_fault_tolerance.json`.
//!
//! Usage: `cargo run --release -p bench --bin fault_tolerance -- \
//!         [--scale f] [--threads n] [--right-scale f]`

use std::fmt::Write as _;
use std::time::Instant;

use bench::{
    parse_bench_args, run_ispmc, run_spark, scale_spark_report, BenchError, Experiment, Workload,
};
use cluster::{
    simulate, simulate_with_recompute, simulate_with_restart, Chaos, ChaosConfig, ClusterSpec,
    Failure, Scheduler,
};
use spatialjoin::{MorselConfig, PreparedSet, RecordReader};

const SEED: u64 = 42;
/// Nonzero per-site fault rates swept through every live recovery mode.
/// The lowest rate is small enough that a whole fail-fast query can
/// survive with no fired fault, so the restart mode has a completing
/// data point; at the higher rates it demonstrably cannot finish.
const RATES: [f64; 4] = [0.001, 0.05, 0.15, 0.3];
/// Restart budget for the fail-fast mode before the harness gives up.
const MAX_RESTARTS: u32 = 25;
/// Attempts per morsel in the pool-retry mode.
const POOL_ATTEMPTS: u32 = 8;

/// One live (rate, mode) measurement.
struct LiveRow {
    rate: f64,
    mode: &'static str,
    completed: bool,
    wall_secs: f64,
    /// Wall time relative to the mode's fault-free baseline.
    overhead: f64,
    bit_identical: bool,
    faults_injected: u64,
    task_retries: u64,
    partitions_recomputed: u64,
    restarts: u32,
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
    let w = args.build_workload(SEED)?;
    let exp = Experiment::TaxiNycb;

    // Injected panics are expected; keep them off stderr.
    std::panic::set_hook(Box::new(|_| {}));

    // --- Fault-free baselines (live wall clock + reference output) ---
    let spark_base = run_spark(&w, exp, threads, ChaosConfig::disabled())?;
    let t0 = Instant::now();
    let spark_base2 = run_spark(&w, exp, threads, ChaosConfig::disabled())?;
    let spark_base_secs = t0.elapsed().as_secs_f64();
    let ispmc_base = run_ispmc(&w, exp, threads, ChaosConfig::disabled())?;
    let t0 = Instant::now();
    let _ = run_ispmc(&w, exp, threads, ChaosConfig::disabled())?;
    let ispmc_base_secs = t0.elapsed().as_secs_f64();
    if spark_base2.pairs != spark_base.pairs {
        return Err(BenchError::Usage(
            "fault-free spark runs disagree; cannot baseline".into(),
        ));
    }

    let reader = RecordReader::new(1);
    let (left, _) = reader.read_points(&w.dfs.read_all_lines(exp.left_path())?);
    let (right, _) = reader.read_geoms(&w.dfs.read_all_lines(exp.right_path())?);
    let engine = geom::engine::PreparedEngine;
    let set = PreparedSet::prepare(&right, exp.predicate(), &engine);
    let cfg = MorselConfig::new(threads);
    let t0 = Instant::now();
    let (pool_base, _, _) = set.par_probe_observed(&left, &engine, cfg);
    let pool_base_secs = t0.elapsed().as_secs_f64();

    eprintln!(
        "# baselines: spark {spark_base_secs:.3}s, ispmc {ispmc_base_secs:.3}s, \
         pool {pool_base_secs:.3}s ({} pairs)",
        pool_base.len()
    );

    // --- Live sweep: fault rates x recovery modes ---
    let mut rows: Vec<LiveRow> = Vec::new();
    for &rate in &RATES {
        rows.push(spark_recompute_row(
            &w,
            exp,
            threads,
            rate,
            &spark_base.pairs,
            spark_base_secs,
        ));
        rows.push(impala_failfast_row(
            &w,
            exp,
            threads,
            rate,
            ispmc_base.pairs(),
            ispmc_base_secs,
        ));
        rows.push(pool_retry_row(
            &set,
            &left,
            &engine,
            cfg,
            rate,
            &pool_base,
            pool_base_secs,
        ));
    }

    // --- Checksum fail-over on a replication-3 copy of the right side ---
    let failover = checksum_failover_rows(&w)?;

    // --- The original replay-model ablation, kept next to the live data ---
    let report = scale_spark_report(&spark_base.report, &args.replay);
    let probe = report
        .stages
        .iter()
        .find(|s| s.name.contains("probe"))
        .ok_or_else(|| BenchError::Usage("no probe stage in the spark report".into()))?;
    let spec = ClusterSpec::ec2_paper_cluster();
    let fault_free = simulate(&probe.tasks, &spec, Scheduler::Dynamic).makespan;
    let mut replay_rows = Vec::new();
    for frac in [0.25, 0.5, 0.75] {
        let failure = Failure {
            node: 3,
            at_time: fault_free * frac,
        };
        let recompute = simulate_with_recompute(&probe.tasks, &spec, failure).makespan;
        let restart =
            simulate_with_restart(&probe.tasks, &spec, Scheduler::StaticLocality, failure).makespan;
        replay_rows.push((frac, recompute, restart));
    }

    print_tables(&rows, &failover, fault_free, &replay_rows);
    let path = write_json(
        &args.replay.scale,
        threads,
        spark_base_secs,
        ispmc_base_secs,
        pool_base_secs,
        &rows,
        &failover,
        fault_free,
        &replay_rows,
    )
    .map_err(|e| BenchError::Usage(format!("writing artifact: {e}")))?;
    eprintln!("# wrote {path}");
    Ok(())
}

/// Spark under chaos: lineage recompute recovers lost partitions live.
fn spark_recompute_row(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    rate: f64,
    base_pairs: &[(i64, i64)],
    base_secs: f64,
) -> LiveRow {
    let before = obs::thread_snapshot();
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_spark(w, exp, threads, ChaosConfig::uniform(SEED, rate))
    }));
    let wall_secs = t0.elapsed().as_secs_f64();
    let delta = obs::thread_snapshot().minus(&before);
    let (completed, bit_identical) = match &outcome {
        Ok(Ok(run)) => (true, run.pairs == base_pairs),
        _ => (false, false),
    };
    LiveRow {
        rate,
        mode: "spark-recompute",
        completed,
        wall_secs,
        overhead: wall_secs / base_secs.max(f64::EPSILON),
        bit_identical,
        faults_injected: delta.faults_injected,
        task_retries: delta.task_retries,
        partitions_recomputed: delta.partitions_recomputed,
        restarts: 0,
    }
}

/// Impala under chaos: any fragment failure aborts; the harness
/// restarts from scratch with fresh fault draws (a real redeploy would
/// not replay the identical faults) until success or budget exhaustion.
fn impala_failfast_row(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    rate: f64,
    base_pairs: &[(i64, i64)],
    base_secs: f64,
) -> LiveRow {
    let before = obs::thread_snapshot();
    let t0 = Instant::now();
    let mut restarts = 0u32;
    let mut completed = false;
    let mut bit_identical = false;
    loop {
        let seed = SEED.wrapping_add(7919u64.wrapping_mul(u64::from(restarts)));
        match run_ispmc(w, exp, threads, ChaosConfig::uniform(seed, rate)) {
            Ok(run) => {
                completed = true;
                bit_identical = run.pairs() == base_pairs;
                break;
            }
            Err(_) => {
                restarts += 1;
                if restarts >= MAX_RESTARTS {
                    break;
                }
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let delta = obs::thread_snapshot().minus(&before);
    LiveRow {
        rate,
        mode: "impala-fail-fast",
        completed,
        wall_secs,
        overhead: wall_secs / base_secs.max(f64::EPSILON),
        bit_identical,
        faults_injected: delta.faults_injected,
        task_retries: delta.task_retries,
        partitions_recomputed: delta.partitions_recomputed,
        restarts,
    }
}

/// The shared morsel pool under chaos: panicking morsels retried in
/// place, bounded by [`POOL_ATTEMPTS`] total attempts each.
fn pool_retry_row(
    set: &PreparedSet<geom::engine::PreparedEngine>,
    left: &[(i64, geom::Point)],
    engine: &geom::engine::PreparedEngine,
    cfg: MorselConfig,
    rate: f64,
    base_pairs: &[(i64, i64)],
    base_secs: f64,
) -> LiveRow {
    let before = obs::thread_snapshot();
    let chaos = Chaos::new(ChaosConfig::uniform(SEED, rate));
    let t0 = Instant::now();
    let outcome = set.par_probe_faulted(left, engine, cfg, &chaos, POOL_ATTEMPTS);
    let wall_secs = t0.elapsed().as_secs_f64();
    let delta = obs::thread_snapshot().minus(&before);
    let (completed, bit_identical) = match &outcome {
        Ok((pairs, _)) => (true, pairs == base_pairs),
        Err(_) => (false, false),
    };
    LiveRow {
        rate,
        mode: "pool-retry",
        completed,
        wall_secs,
        overhead: wall_secs / base_secs.max(f64::EPSILON),
        bit_identical,
        faults_injected: delta.faults_injected,
        task_retries: delta.task_retries,
        partitions_recomputed: delta.partitions_recomputed,
        restarts: 0,
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

fn print_tables(
    rows: &[LiveRow],
    failover: &[FailoverRow],
    fault_free: f64,
    replay_rows: &[(f64, f64, f64)],
) {
    println!("Live fault injection on taxi-nycb (recovered runs verified bit-identical)");
    println!(
        "{:<8}{:<20}{:>10}{:>12}{:>10}{:>9}{:>9}{:>11}{:>10}",
        "rate", "mode", "wall (s)", "overhead", "ok", "ident", "faults", "recovered", "restarts"
    );
    for r in rows {
        println!(
            "{:<8}{:<20}{:>10.3}{:>11.2}x{:>10}{:>9}{:>9}{:>11}{:>10}",
            format!("{:.2}", r.rate),
            r.mode,
            r.wall_secs,
            r.overhead,
            r.completed,
            r.bit_identical,
            r.faults_injected,
            r.task_retries + r.partitions_recomputed,
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
    println!();
    println!(
        "Replay model on the probe stage (fault-free {fault_free:.0}s on 10 nodes, \
         one node lost mid-run)"
    );
    for &(frac, recompute, restart) in replay_rows {
        println!(
            "  failure at {:>3.0}%: recompute {recompute:.0}s, restart {restart:.0}s \
             ({:.2}x advantage)",
            frac * 100.0,
            restart / recompute
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    scale: &f64,
    threads: usize,
    spark_base_secs: f64,
    ispmc_base_secs: f64,
    pool_base_secs: f64,
    rows: &[LiveRow],
    failover: &[FailoverRow],
    fault_free: f64,
    replay_rows: &[(f64, f64, f64)],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fault_tolerance\",");
    let _ = writeln!(json, "  \"experiment\": \"taxi-nycb\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let mut rates = String::new();
    for (i, r) in RATES.iter().enumerate() {
        let _ = write!(rates, "{}{r}", if i == 0 { "" } else { ", " });
    }
    let _ = writeln!(json, "  \"rates\": [{rates}],");
    let _ = writeln!(
        json,
        "  \"note\": \"live chaos injection through the real executors; overhead is wall time \
         over the mode's fault-free baseline; impala restarts use fresh fault draws\","
    );
    let _ = writeln!(
        json,
        "  \"fault_free\": {{\"spark_secs\": {spark_base_secs:.6}, \
         \"ispmc_secs\": {ispmc_base_secs:.6}, \"pool_secs\": {pool_base_secs:.6}}},"
    );
    let _ = writeln!(json, "  \"live\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"rate\": {}, \"mode\": \"{}\", \"completed\": {}, \
             \"wall_secs\": {:.6}, \"overhead\": {:.4}, \"bit_identical\": {}, \
             \"faults_injected\": {}, \"task_retries\": {}, \
             \"partitions_recomputed\": {}, \"restarts\": {}}}{comma}",
            r.rate,
            r.mode,
            r.completed,
            r.wall_secs,
            r.overhead,
            r.bit_identical,
            r.faults_injected,
            r.task_retries,
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
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"replay_model\": {{\"fault_free_secs\": {fault_free:.6}, \"rows\": ["
    );
    for (i, &(frac, recompute, restart)) in replay_rows.iter().enumerate() {
        let comma = if i + 1 == replay_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"failure_frac\": {frac}, \"recompute_secs\": {recompute:.6}, \
             \"restart_secs\": {restart:.6}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ]}}");
    let _ = writeln!(json, "}}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_fault_tolerance.json"
    );
    std::fs::write(path, &json)?;
    Ok(path)
}
