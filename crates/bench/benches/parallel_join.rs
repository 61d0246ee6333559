//! Morsel-parallel broadcast join sweep: threads × schedule mode ×
//! morsel size on a taxi/nycb-style synthetic workload.
//!
//! Two numbers come out of every configuration:
//!
//! * **measured** wall-clock of `PreparedSet::par_probe_observed` on this
//!   machine (bounded by the physical core count), and
//! * **replay** speedup from feeding the measured per-morsel timings
//!   through the discrete-event simulator (`cluster::simulate`) on a
//!   single node with `threads` cores — the same measured-costs replay
//!   the figure benches use to report the paper's cluster sizes from
//!   one local run.
//!
//! Every parallel result is checked for exact equality with the serial
//! `JoinRequest` output before it is reported. The run writes
//! `results/BENCH_parallel_join.json` (hand-rolled JSON, no external
//! serializer) and also times the `geom_col == 1` record-parse fast
//! path against the general column scan.

use bench::timing::{BenchId, Harness};
use cluster::{ClusterSpec, ScheduleMode, Scheduler, TaskSpec};
use geom::engine::{PreparedEngine, SpatialPredicate};
use spatialjoin::parallel::{MorselConfig, PreparedSet};
use spatialjoin::{GeomRecord, JoinRequest, PointRecord, RecordReader};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const LEFT_POINTS: usize = 120_000;
const RIGHT_POLYGONS: usize = 2_500;
const REPETITIONS: usize = 3;

struct ConfigResult {
    threads: usize,
    mode: ScheduleMode,
    morsel_size: usize,
    measured_secs: f64,
    measured_speedup: f64,
    replay_makespan_secs: f64,
    replay_speedup: f64,
    identical_to_serial: bool,
}

fn workload() -> (Vec<PointRecord>, Vec<GeomRecord>) {
    let left: Vec<PointRecord> = datagen::taxi::points(LEFT_POINTS, 42)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as i64, p))
        .collect();
    let right: Vec<GeomRecord> = datagen::nycb::geometries(RIGHT_POLYGONS, 42)
        .into_iter()
        .enumerate()
        .map(|(i, g)| (i as i64, g))
        .collect();
    (left, right)
}

/// Best-of-N wall-clock plus one representative run's morsel timings
/// and output.
fn measure(
    set: &PreparedSet<PreparedEngine>,
    left: &[PointRecord],
    cfg: MorselConfig,
) -> (f64, Vec<(i64, i64)>, Vec<cluster::TaskTiming>) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..REPETITIONS {
        let start = Instant::now();
        let (pairs, timings, _) = set.par_probe_observed(left, &PreparedEngine, cfg);
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            kept = Some((pairs, timings));
        }
    }
    let (pairs, timings) = kept.expect("at least one repetition ran");
    (best, pairs, timings)
}

/// Replays measured per-morsel costs on one simulated node with
/// `threads` cores, under the simulator policy matching the pool's
/// schedule mode.
fn replay(timings: &[cluster::TaskTiming], threads: usize, mode: ScheduleMode) -> f64 {
    let mut tasks: Vec<TaskSpec> = timings.iter().map(|t| TaskSpec::of_cost(t.secs)).collect();
    // Replay wants input order so static chunking matches the pool's
    // assignment.
    let mut by_index: Vec<(usize, TaskSpec)> = timings
        .iter()
        .zip(tasks.iter())
        .map(|(t, s)| (t.index, *s))
        .collect();
    by_index.sort_unstable_by_key(|(i, _)| *i);
    tasks = by_index.into_iter().map(|(_, s)| s).collect();
    let spec = ClusterSpec {
        num_nodes: 1,
        cores_per_node: threads,
        mem_per_node: 16 * (1 << 30),
    };
    let scheduler = match mode {
        ScheduleMode::Dynamic => Scheduler::Dynamic,
        ScheduleMode::Static => Scheduler::StaticChunked,
    };
    cluster::simulate(&tasks, &spec, scheduler).makespan
}

fn mode_name(mode: ScheduleMode) -> &'static str {
    match mode {
        ScheduleMode::Dynamic => "dynamic",
        ScheduleMode::Static => "static",
    }
}

fn sweep() -> (f64, Vec<ConfigResult>, usize) {
    let (left, right) = workload();
    let engine = PreparedEngine;
    let serial_reference = JoinRequest::new(&left, &right, &engine).run().pairs;
    let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);

    // Serial baseline through the same morsel driver (threads = 1 runs
    // inline on the caller thread).
    let serial_cfg = MorselConfig {
        threads: 1,
        mode: ScheduleMode::Static,
        morsel_size: usize::MAX,
    };
    let (serial_secs, serial_pairs, _) = measure(&set, &left, serial_cfg);
    assert_eq!(
        serial_pairs, serial_reference,
        "morsel driver must reproduce the serial join exactly"
    );

    let mut results = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            for morsel_size in [512usize, 2048, 8192] {
                let cfg = MorselConfig {
                    threads,
                    mode,
                    morsel_size,
                };
                let (secs, pairs, timings) = measure(&set, &left, cfg);
                let identical = pairs == serial_reference;
                assert!(
                    identical,
                    "parallel output diverged: threads={threads} mode={mode:?} morsel={morsel_size}"
                );
                let total_work: f64 = timings.iter().map(|t| t.secs).sum();
                let makespan = replay(&timings, threads, mode);
                results.push(ConfigResult {
                    threads,
                    mode,
                    morsel_size,
                    measured_secs: secs,
                    measured_speedup: serial_secs / secs,
                    replay_makespan_secs: makespan,
                    replay_speedup: if makespan > 0.0 {
                        total_work / makespan
                    } else {
                        1.0
                    },
                    identical_to_serial: identical,
                });
                println!(
                    "threads={threads} mode={m:<7} morsel={morsel_size:<5} \
                     measured {secs:>8.4}s (x{ms:.2})  replay x{rs:.2}",
                    m = mode_name(mode),
                    ms = serial_secs / secs,
                    rs = results.last().map(|r| r.replay_speedup).unwrap_or(1.0),
                );
            }
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (serial_secs, results, cores)
}

fn write_json(serial_secs: f64, results: &[ConfigResult], cores: usize) {
    let speedup_at_4 = results
        .iter()
        .filter(|r| r.threads == 4)
        .map(|r| r.replay_speedup)
        .fold(0.0f64, f64::max);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"parallel_join\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"left_taxi_points\": {LEFT_POINTS}, \"right_nycb_polygons\": {RIGHT_POLYGONS}, \"predicate\": \"Within\"}},"
    );
    let _ = writeln!(json, "  \"machine_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"measured = wall-clock on this machine (bounded by machine_cores); replay = measured per-morsel costs through cluster::simulate on 1 node x N cores\","
    );
    let _ = writeln!(json, "  \"serial_secs\": {serial_secs:.6},");
    let _ = writeln!(json, "  \"speedup_at_4_threads\": {speedup_at_4:.3},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"mode\": \"{}\", \"morsel_size\": {}, \
             \"measured_secs\": {:.6}, \"measured_speedup\": {:.3}, \
             \"replay_makespan_secs\": {:.6}, \"replay_speedup\": {:.3}, \
             \"identical_to_serial\": {}}}{comma}",
            r.threads,
            mode_name(r.mode),
            r.morsel_size,
            r.measured_secs,
            r.measured_speedup,
            r.replay_makespan_secs,
            r.replay_speedup,
            r.identical_to_serial,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    assert!(
        speedup_at_4 >= 2.0,
        "replay speedup at 4 threads is {speedup_at_4:.3}, expected >= 2x"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_parallel_join.json"
    );
    std::fs::write(path, &json).expect("write BENCH_parallel_join.json");
    println!("\nwrote {path} (speedup_at_4_threads = x{speedup_at_4:.2})");
}

/// Satellite to the executor: the `geom_col == 1` record-parse fast
/// path (one split, no column scan) against a general column position.
fn bench_parse_records(c: &mut Harness) {
    let points = datagen::taxi::points(50_000, 7);
    let col1: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{i}\tPOINT ({} {})", p.x, p.y))
        .collect();
    let col3: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{i}\taux1\taux2\tPOINT ({} {})", p.x, p.y))
        .collect();
    let mut group = c.benchmark_group("parse-records/50k-points");
    group.sample_size(7);
    group.bench_function(BenchId::from_parameter("geom-col-1-fast-path"), |b| {
        b.iter(|| RecordReader::new(1).read_points(black_box(&col1)).0.len())
    });
    group.bench_function(BenchId::from_parameter("geom-col-3-column-scan"), |b| {
        b.iter(|| RecordReader::new(3).read_points(black_box(&col3)).0.len())
    });
    group.finish();
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let parse_only = args.iter().any(|a| a.as_str() == "parse");
    if !parse_only {
        let (serial_secs, results, cores) = sweep();
        write_json(serial_secs, &results, cores);
    }
    let mut harness = Harness::from_args();
    bench_parse_records(&mut harness);
}
