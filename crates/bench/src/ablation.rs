//! Schedule-mode ablation for Figs. 4/5: *measured* morsel timings
//! replayed under all three [`Scheduler`] policies.
//!
//! The paper's central systems contrast is Spark's dynamic task
//! scheduling against ISP-MC's static assignment; §V observes that
//! "some Impala instances take much longer to complete the spatial
//! joins than others". This module turns that observation into an
//! ablation: the broadcast probe runs for real through the morsel
//! executor, each morsel is tagged with its dominant grid partition
//! (standing in for the HDFS block holding those records), and the
//! measured per-morsel costs are replayed on the paper's 4/6/8/10-node
//! EC2 topology under dynamic, static-chunked and static-locality
//! scheduling.
//!
//! Before morselisation the left side is **spatially sorted** by grid
//! cell, mimicking the spatially ordered files the paper's datasets
//! ship as — that ordering is what makes hot regions contiguous in
//! task order, the precondition for static chunking's imbalance.
//! Expected shape, and what the JSON records: `StaticChunked` shows
//! the worst imbalance on skewed workloads, `StaticLocality` recovers
//! most of it (distinct partitions round-robin across nodes), and
//! `Dynamic` wins overall.

use crate::{BenchError, Experiment, Replay, Workload};
use cluster::{scan_range_assignment, simulate, ClusterSpec, ScheduleMode, Scheduler, TaskSpec};
use geom::engine::RefinementEngine;
use spatialjoin::parallel::{
    morsel_partitions, partition_blocks, spatial_sort_points, timings_to_taskspecs, MorselConfig,
    PreparedSet, DEFAULT_MORSEL_SIZE, LOCALITY_GRID_SIDE,
};
use spatialjoin::RecordReader;
use std::fmt::Write as _;

/// Node counts of the paper's Fig. 4/5 sweep.
pub const ABLATION_NODES: [usize; 4] = [4, 6, 8, 10];

/// The three policies under ablation, in report order.
pub const ABLATION_SCHEDULERS: [Scheduler; 3] = [
    Scheduler::Dynamic,
    Scheduler::StaticChunked,
    Scheduler::StaticLocality,
];

/// Stable label for a scheduler in tables and JSON.
pub fn scheduler_name(s: Scheduler) -> &'static str {
    match s {
        Scheduler::Dynamic => "Dynamic",
        Scheduler::StaticChunked => "StaticChunked",
        Scheduler::StaticLocality => "StaticLocality",
    }
}

/// One `(scheduler, nodes)` replay of an experiment's measured tasks.
#[derive(Debug, Clone, Copy)]
pub struct AblationCell {
    pub scheduler: Scheduler,
    pub nodes: usize,
    /// Simulated full-scale runtime (seconds).
    pub runtime_secs: f64,
    /// [`cluster::SimReport::imbalance`] — busiest node over average.
    pub imbalance: f64,
    pub utilisation: f64,
}

/// One measured morsel of the serial reference pass.
#[derive(Debug, Clone, Copy)]
pub struct MorselStat {
    /// Morsel index in left-input order.
    pub index: usize,
    /// Dominant grid partition (the morsel's simulated HDFS block).
    pub partition: usize,
    /// Intrinsic cost: the minimum over the measurement passes.
    pub secs: f64,
}

/// A full scheduler × node-count grid for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentAblation {
    pub experiment: &'static str,
    /// Number of measured morsel tasks replayed.
    pub morsels: usize,
    /// Result pairs found by the probe (sanity signal in the JSON).
    pub result_pairs: usize,
    /// Whether every schedule mode reproduced the serial output
    /// bit-identically (asserted, but recorded too).
    pub identical_to_serial: bool,
    /// Driver-visible obs counter delta over parsing plus one serial
    /// measurement pass (the reference execution the replay is built
    /// from).
    pub stats: obs::Counters,
    /// Per-morsel measurements, in morsel (input) order.
    pub morsel_stats: Vec<MorselStat>,
    pub cells: Vec<AblationCell>,
}

impl ExperimentAblation {
    /// The replay of `scheduler` at `nodes`, if present.
    pub fn cell(&self, scheduler: Scheduler, nodes: usize) -> Option<&AblationCell> {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && c.nodes == nodes)
    }
}

/// Runs one experiment's probe for real and replays its measured
/// morsel timings under every scheduler × node count.
///
/// `engine` selects the refinement path the figure's system uses
/// (JTS-like prepared geometries for Fig. 4's SpatialSpark, GEOS-like
/// naive refinement for Fig. 5's ISP-MC), so the measured skew is the
/// system's own.
///
/// # Errors
/// Propagates DFS read failures; a schedule mode diverging from the
/// serial output is a bug and panics.
pub fn ablate_experiment<E: RefinementEngine>(
    w: &Workload,
    exp: Experiment,
    engine: &E,
    threads: usize,
    replay: &Replay,
) -> Result<ExperimentAblation, BenchError> {
    // Counter window: parsing plus the first (reference) measurement
    // pass below, but not the build between them, whose pool units
    // would otherwise count as probe morsels. Both run inline on this
    // thread, so the snapshot deltas are exact.
    let before = obs::thread_snapshot();
    let left_lines = w.dfs.read_all_lines(exp.left_path())?;
    let right_lines = w.dfs.read_all_lines(exp.right_path())?;
    let reader = RecordReader::new(1);
    let mut left = reader.read_points(&left_lines).0;
    let right = reader.read_geoms(&right_lines).0;
    drop(left_lines);
    drop(right_lines);

    // The paper's files are spatially ordered; replaying an unsorted
    // synthetic file would hide exactly the contiguous hot runs the
    // ablation studies.
    spatial_sort_points(&mut left, LOCALITY_GRID_SIDE);

    // Aim for ~20 tasks per core at the largest node count (10 × 8)
    // so scheduling quality, not task granularity, dominates the
    // replay — without starving per-morsel measurement.
    let morsel_size = (left.len() / 1600).clamp(16, DEFAULT_MORSEL_SIZE);
    let predicate = exp.predicate();
    let parsed = obs::thread_snapshot().minus(&before);
    let set = PreparedSet::prepare(&right, predicate, engine);
    let before = obs::thread_snapshot();

    // Measure per-morsel costs on a single worker: a concurrent
    // measurement pass would fold scheduler preemption into each
    // morsel's wall-clock (on small machines threads can exceed
    // cores), and the replay needs the morsel's own cost, not its
    // queueing luck. The serial pass doubles as the reference output.
    let measure_cfg = MorselConfig {
        threads: 1,
        mode: ScheduleMode::Static,
        morsel_size,
    };
    let (pairs, mut timings, _) = set.par_probe_observed(&left, engine, measure_cfg);
    let stats = parsed.plus(&obs::thread_snapshot().minus(&before));
    let serial = &pairs;
    let partitions = morsel_partitions(&left, morsel_size, LOCALITY_GRID_SIDE);

    // Per-morsel minimum over three passes: at small scales a morsel
    // runs in microseconds, where one cache miss or timer hiccup can
    // double a reading — the min is the morsel's intrinsic cost.
    timings.sort_by_key(|t| t.index);
    for _ in 0..2 {
        let (_, mut again, _) = set.par_probe_observed(&left, engine, measure_cfg);
        again.sort_by_key(|t| t.index);
        for (t, a) in timings.iter_mut().zip(&again) {
            t.secs = t.secs.min(a.secs);
        }
    }

    // Check both modes reproduce the serial output exactly at the
    // requested thread count.
    let mut identical = true;
    for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
        let cfg = MorselConfig {
            threads,
            mode,
            morsel_size,
        };
        identical &= set.par_probe_observed(&left, engine, cfg).0 == *serial;
    }
    assert!(
        identical,
        "{}: a schedule mode diverged from the serial join output",
        exp.label()
    );

    // Per-morsel measurements in input order, for the obs artifact.
    let morsel_stats: Vec<MorselStat> = timings
        .iter()
        .map(|t| MorselStat {
            index: t.index,
            partition: partitions.get(t.index).copied().unwrap_or(0),
            secs: t.secs,
        })
        .collect();

    // Measured morsel costs -> simulator tasks at full scale, in
    // morsel (input) order, each tagged with its dominant partition.
    let tasks: Vec<TaskSpec> = timings_to_taskspecs(&timings, &partitions)
        .into_iter()
        .map(|t| TaskSpec {
            cost: t.cost * replay.cost_factor(),
            locality: t.locality,
        })
        .collect();

    // HDFS blocks have bounded size, so a hot grid cell spans many
    // independently placed blocks — cap each placement unit at ~1% of
    // the file so no single block can dominate a node by itself.
    let block_cap = (tasks.len() / 100).max(1);
    let blocks = partition_blocks(&partitions, block_cap);

    let mut cells = Vec::with_capacity(ABLATION_NODES.len() * ABLATION_SCHEDULERS.len());
    for &nodes in &ABLATION_NODES {
        let spec = ClusterSpec::ec2_with_nodes(nodes);
        // Block -> node placement for this node count: Impala's
        // scan-range assignment (whole blocks, balanced task counts).
        let placement = scan_range_assignment(&blocks, nodes);
        let placed: Vec<TaskSpec> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskSpec {
                cost: t.cost,
                locality: placement.get(i).copied(),
            })
            .collect();
        for &scheduler in &ABLATION_SCHEDULERS {
            let r = simulate(&placed, &spec, scheduler);
            cells.push(AblationCell {
                scheduler,
                nodes,
                runtime_secs: r.makespan,
                imbalance: r.imbalance(),
                utilisation: r.utilisation,
            });
        }
    }
    Ok(ExperimentAblation {
        experiment: exp.label(),
        morsels: tasks.len(),
        result_pairs: pairs.len(),
        identical_to_serial: identical,
        stats,
        morsel_stats,
        cells,
    })
}

/// Prints one experiment's grid: a runtime column per node count, one
/// row per scheduler, plus the 10-node imbalance that backs the
/// paper's "some instances take much longer" observation.
pub fn print_ablation(row: &ExperimentAblation) {
    println!(
        "{} ({} morsels, identical_to_serial={})",
        row.experiment, row.morsels, row.identical_to_serial
    );
    print!("  {:<16}", "scheduler");
    for n in ABLATION_NODES {
        print!("{n:>10}");
    }
    println!("{:>14}", "imbalance@10");
    for &scheduler in &ABLATION_SCHEDULERS {
        print!("  {:<16}", scheduler_name(scheduler));
        for n in ABLATION_NODES {
            let t = row
                .cell(scheduler, n)
                .map(|c| c.runtime_secs)
                .unwrap_or(0.0);
            print!("{t:>10.0}");
        }
        let imb = row
            .cell(scheduler, 10)
            .map(|c| c.imbalance)
            .unwrap_or(f64::NAN);
        println!("{imb:>14.3}");
    }
}

/// Serialises ablation rows as `results/BENCH_fig45_ablation.json`
/// (hand-rolled JSON, matching the other bench artifacts) and returns
/// the path written.
pub fn write_ablation_json(
    figure: &str,
    replay: &Replay,
    threads: usize,
    rows: &[ExperimentAblation],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig45_schedule_ablation\",");
    let _ = writeln!(json, "  \"figure\": \"{figure}\",");
    let _ = writeln!(json, "  \"scale\": {},", replay.scale);
    let _ = writeln!(json, "  \"calibration\": {},", replay.calibration);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"nodes\": [4, 6, 8, 10],");
    let _ = writeln!(
        json,
        "  \"schedulers\": [\"Dynamic\", \"StaticChunked\", \"StaticLocality\"],"
    );
    let _ = writeln!(
        json,
        "  \"note\": \"runtime = measured per-morsel probe costs (spatially sorted left side, \
         dominant-partition locality tags) replayed through cluster::simulate at full scale\","
    );
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"experiment\": \"{}\",", row.experiment);
        let _ = writeln!(json, "      \"morsels\": {},", row.morsels);
        let _ = writeln!(json, "      \"result_pairs\": {},", row.result_pairs);
        let _ = writeln!(
            json,
            "      \"identical_to_serial\": {},",
            row.identical_to_serial
        );
        let _ = writeln!(json, "      \"cells\": [");
        for (j, c) in row.cells.iter().enumerate() {
            let comma = if j + 1 == row.cells.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "        {{\"scheduler\": \"{}\", \"nodes\": {}, \"runtime_secs\": {:.6}, \
                 \"imbalance\": {:.6}, \"utilisation\": {:.6}}}{comma}",
                scheduler_name(c.scheduler),
                c.nodes,
                c.runtime_secs,
                c.imbalance,
                c.utilisation,
            );
        }
        let _ = writeln!(json, "      ]");
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_fig45_ablation.json"
    );
    std::fs::write(path, &json)?;
    Ok(path)
}

/// Serialises the observability side of the ablation rows as
/// `results/BENCH_obs_stats.json`: per experiment, the driver-visible
/// counter delta of the serial reference pass plus every measured
/// morsel (index, partition, seconds). Returns the path written.
pub fn write_obs_stats_json(
    figure: &str,
    replay: &Replay,
    threads: usize,
    rows: &[ExperimentAblation],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"obs_stats\",");
    let _ = writeln!(json, "  \"figure\": \"{figure}\",");
    let _ = writeln!(json, "  \"scale\": {},", replay.scale);
    let _ = writeln!(json, "  \"calibration\": {},", replay.calibration);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"note\": \"counters = obs thread-snapshot delta over parsing + one serial \
         reference pass; morsel_stats = measured per-morsel minimum costs in input order\","
    );
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"experiment\": \"{}\",", row.experiment);
        let _ = writeln!(json, "      \"morsels\": {},", row.morsels);
        let _ = writeln!(json, "      \"result_pairs\": {},", row.result_pairs);
        let _ = writeln!(json, "      \"counters\": {{");
        let fields = row.stats.fields();
        for (j, (name, value)) in fields.iter().enumerate() {
            let comma = if j + 1 == fields.len() { "" } else { "," };
            let _ = writeln!(json, "        \"{name}\": {value}{comma}");
        }
        let _ = writeln!(json, "      }},");
        let _ = writeln!(json, "      \"morsel_stats\": [");
        for (j, m) in row.morsel_stats.iter().enumerate() {
            let comma = if j + 1 == row.morsel_stats.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                json,
                "        {{\"index\": {}, \"partition\": {}, \"secs\": {:.9}}}{comma}",
                m.index, m.partition, m.secs
            );
        }
        let _ = writeln!(json, "      ]");
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_obs_stats.json"
    );
    std::fs::write(path, &json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_names_are_stable() {
        assert_eq!(scheduler_name(Scheduler::Dynamic), "Dynamic");
        assert_eq!(scheduler_name(Scheduler::StaticChunked), "StaticChunked");
        assert_eq!(scheduler_name(Scheduler::StaticLocality), "StaticLocality");
    }

    #[test]
    fn tiny_ablation_end_to_end() {
        let w = crate::build_small_workload(0.00005, 0.01, 7).expect("workload");
        let replay = Replay::new(0.00005);
        let row = ablate_experiment(
            &w,
            Experiment::TaxiNycb,
            &geom::engine::PreparedEngine,
            2,
            &replay,
        )
        .expect("ablation");
        assert!(row.identical_to_serial);
        assert_eq!(
            row.cells.len(),
            ABLATION_NODES.len() * ABLATION_SCHEDULERS.len()
        );
        // The reference pass's counter delta covers parsing and the
        // whole probe: every emitted pair passed refinement, every
        // morsel was executed and counted.
        assert!(row.stats.refine_calls >= row.result_pairs as u64);
        assert!(row.stats.records_parsed > 0);
        assert_eq!(row.stats.morsels_executed as usize, row.morsels);
        assert_eq!(row.morsel_stats.len(), row.morsels);
        assert!(row
            .morsel_stats
            .iter()
            .enumerate()
            .all(|(i, m)| m.index == i && m.secs >= 0.0));
        assert!(row.cells.iter().all(|c| c.runtime_secs.is_finite()));
        assert!(row
            .cells
            .iter()
            .all(|c| c.utilisation > 0.0 && c.utilisation <= 1.0 + 1e-9));
    }
}
