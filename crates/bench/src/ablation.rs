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

use crate::{BenchError, Experiment, Replay, Workload, NODES};
use cluster::{
    scan_range_assignment, simulate, ClusterSpec, ScheduleMode, Scheduler, TaskSpec, TaskTiming,
};
use geom::engine::NaiveEngine;
use geom::{Envelope, Point};
use spatialjoin::parallel::{MorselConfig, PreparedSet, DEFAULT_MORSEL_SIZE};
use spatialjoin::{PointRecord, RecordReader};
use std::fmt::Write as _;

/// Side of the uniform grid used to derive morsel locality: each morsel
/// is tagged with its dominant cell on a `SIDE × SIDE` grid over the
/// left extent. The cell id stands in for the HDFS block / scan-range
/// id Impala pins tasks to; 16×16 = 256 cells keeps many distinct
/// "blocks" per node at the paper's 4–10 node counts.
const LOCALITY_GRID_SIDE: usize = 16;

/// Cell of `p` on a `side × side` grid over `extent` (row-major).
/// Degenerate extents collapse to cell 0.
fn grid_cell(p: Point, extent: &Envelope, side: usize) -> usize {
    let w = extent.width();
    let h = extent.height();
    let col = if w > 0.0 {
        (((p.x - extent.min_x) / w * side as f64) as usize).min(side - 1)
    } else {
        0
    };
    let row = if h > 0.0 {
        (((p.y - extent.min_y) / h * side as f64) as usize).min(side - 1)
    } else {
        0
    };
    row * side + col
}

/// Envelope of the left points (the grid's frame).
fn points_extent(left: &[PointRecord]) -> Envelope {
    let mut extent = Envelope::EMPTY;
    for &(_, p) in left {
        extent.expand_to(p.x, p.y);
    }
    extent
}

/// Tags each morsel of `left` (chunks of `morsel_size`) with its
/// **dominant partition**: the grid cell holding the plurality of the
/// morsel's points, ties to the lower cell id. This is the
/// preferred-node hint the simulator's locality-aware replay consumes
/// — the grid partition standing in for HDFS block locality.
fn morsel_partitions(left: &[PointRecord], morsel_size: usize, side: usize) -> Vec<usize> {
    let side = side.max(1);
    let extent = points_extent(left);
    if extent.is_empty() {
        return Vec::new();
    }
    let mut counts = vec![0u32; side * side];
    let mut out = Vec::with_capacity(left.len().div_ceil(morsel_size.max(1)));
    for morsel in left.chunks(morsel_size.max(1)) {
        counts.iter_mut().for_each(|c| *c = 0);
        for &(_, p) in morsel {
            counts[grid_cell(p, &extent, side)] += 1;
        }
        let dominant = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(cell, _)| cell)
            .unwrap_or(0);
        out.push(dominant);
    }
    out
}

/// Splits per-morsel partition tags into bounded-size *block* ids.
///
/// HDFS blocks have a fixed byte size, so a dense grid cell spans many
/// blocks that a locality scheduler places independently — it never
/// pins an arbitrarily hot region to one node wholesale. This renames
/// each run of equal partition tags into fresh ids, starting a new id
/// whenever the run reaches `max_block_morsels`. Tags must be in file
/// (morsel) order; spatially sorted input keeps each block's morsels
/// within one grid cell, so the block is still a locality unit.
fn partition_blocks(partitions: &[usize], max_block_morsels: usize) -> Vec<usize> {
    let cap = max_block_morsels.max(1);
    let mut out = Vec::with_capacity(partitions.len());
    let mut block = 0usize;
    let mut run_len = 0usize;
    let mut prev: Option<usize> = None;
    for &tag in partitions {
        if prev.is_some_and(|p| p != tag) || run_len == cap {
            block += 1;
            run_len = 0;
        }
        prev = Some(tag);
        run_len += 1;
        out.push(block);
    }
    out
}

/// Sorts points by their grid cell (stable within a cell), mimicking
/// the spatially ordered HDFS files the paper's datasets ship as —
/// this is what makes hot regions *contiguous* in task order, the
/// precondition for the static-chunking imbalance of §V.
fn spatial_sort_points(left: &mut [PointRecord], side: usize) {
    let side = side.max(1);
    let extent = points_extent(left);
    if extent.is_empty() {
        return;
    }
    left.sort_by_key(|&(_, p)| grid_cell(p, &extent, side));
}

/// Converts measured per-morsel timings plus their dominant-partition
/// tags into simulator task specs: `cost` is the measured wall-clock,
/// `locality` the partition id (the simulator maps it onto a node with
/// `partition % num_nodes`). Timings are emitted in morsel (input)
/// order; a missing tag yields a task with no locality preference.
fn timings_to_taskspecs(timings: &[TaskTiming], partitions: &[usize]) -> Vec<TaskSpec> {
    let mut ordered: Vec<&TaskTiming> = timings.iter().collect();
    ordered.sort_by_key(|t| t.index);
    ordered
        .into_iter()
        .map(|t| TaskSpec {
            cost: t.secs,
            locality: partitions.get(t.index).copied(),
        })
        .collect()
}

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
/// The probe refines on the GEOS-like [`NaiveEngine`], ISP-MC's
/// engine: ISP-MC's static schedule is what §V.B blames for the
/// imbalance, so the measured skew is that system's own.
///
/// # Errors
/// Propagates DFS read failures; a schedule mode diverging from the
/// serial output is a bug and panics.
pub fn ablate_experiment(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    replay: &Replay,
) -> Result<ExperimentAblation, BenchError> {
    let engine = &NaiveEngine;
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

    let mut cells = Vec::with_capacity(NODES.len() * ABLATION_SCHEDULERS.len());
    for &nodes in &NODES {
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
    for n in NODES {
        print!("{n:>10}");
    }
    println!("{:>14}", "imbalance@10");
    for &scheduler in &ABLATION_SCHEDULERS {
        print!("  {:<16}", scheduler_name(scheduler));
        for n in NODES {
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
    replay: &Replay,
    threads: usize,
    rows: &[ExperimentAblation],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig45_schedule_ablation\",");
    let _ = writeln!(json, "  \"engine\": \"geos-like\",");
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
    replay: &Replay,
    threads: usize,
    rows: &[ExperimentAblation],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"obs_stats\",");
    let _ = writeln!(json, "  \"engine\": \"geos-like\",");
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
        let w = crate::build_workload(0.00005, 0.01, 7).expect("workload");
        let replay = Replay::new(0.00005);
        let row = ablate_experiment(&w, Experiment::TaxiNycb, 2, &replay).expect("ablation");
        assert!(row.identical_to_serial);
        assert_eq!(row.cells.len(), NODES.len() * ABLATION_SCHEDULERS.len());
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

    #[test]
    fn morsel_partitions_tag_dominant_cell() {
        // Two clusters far apart: morsels made purely of one cluster
        // must carry different tags.
        let mut left: Vec<PointRecord> = (0..64)
            .map(|i| (i, Point::new(0.1 + (i % 8) as f64 * 0.01, 0.1)))
            .collect();
        left.extend((64..128).map(|i| (i, Point::new(99.0 + (i % 8) as f64 * 0.01, 99.0))));
        let tags = morsel_partitions(&left, 64, LOCALITY_GRID_SIDE);
        assert_eq!(tags.len(), 2);
        assert_ne!(
            tags[0], tags[1],
            "distant clusters must map to distinct cells"
        );
        // Degenerate inputs.
        assert!(morsel_partitions(&[], 64, LOCALITY_GRID_SIDE).is_empty());
        let single = vec![(0i64, Point::new(3.0, 4.0))];
        assert_eq!(morsel_partitions(&single, 8, LOCALITY_GRID_SIDE), vec![0]);
    }

    #[test]
    fn partition_blocks_bound_runs_and_respect_cell_edges() {
        // A hot cell (six tags of 7) must split into blocks of <= 2;
        // cell boundaries always start a new block.
        let tags = [7, 7, 7, 7, 7, 7, 3, 3, 9];
        let blocks = partition_blocks(&tags, 2);
        assert_eq!(blocks, vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
        // Each block stays within one original partition.
        for b in 0..=4usize {
            let cells: Vec<usize> = tags
                .iter()
                .zip(&blocks)
                .filter(|&(_, &blk)| blk == b)
                .map(|(&t, _)| t)
                .collect();
            assert!(cells.windows(2).all(|w| w[0] == w[1]));
        }
        assert!(partition_blocks(&[], 4).is_empty());
        // cap 0 behaves as cap 1 rather than looping or panicking.
        assert_eq!(partition_blocks(&[5, 5, 5], 0), vec![0, 1, 2]);
    }

    #[test]
    fn spatial_sort_groups_cells_and_keeps_ids() {
        let mut pts: Vec<PointRecord> = (0..100)
            .map(|i| {
                let x = ((i * 37) % 100) as f64;
                let y = ((i * 53) % 100) as f64;
                (i as i64, Point::new(x, y))
            })
            .collect();
        let mut ids_before: Vec<i64> = pts.iter().map(|&(id, _)| id).collect();
        spatial_sort_points(&mut pts, 4);
        let mut ids_after: Vec<i64> = pts.iter().map(|&(id, _)| id).collect();
        ids_before.sort_unstable();
        ids_after.sort_unstable();
        assert_eq!(ids_before, ids_after, "sort must be a permutation");
        // Cells must appear in non-decreasing runs.
        let extent = points_extent(&pts);
        let cells: Vec<usize> = pts.iter().map(|&(_, p)| grid_cell(p, &extent, 4)).collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn timings_bridge_orders_by_index_and_carries_locality() {
        let timings = vec![
            cluster::TaskTiming {
                index: 2,
                worker: 0,
                secs: 0.3,
            },
            cluster::TaskTiming {
                index: 0,
                worker: 1,
                secs: 0.1,
            },
            cluster::TaskTiming {
                index: 1,
                worker: 0,
                secs: 0.2,
            },
        ];
        let partitions = vec![7usize, 9];
        let specs = timings_to_taskspecs(&timings, &partitions);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].cost, 0.1);
        assert_eq!(specs[0].locality, Some(7));
        assert_eq!(specs[1].locality, Some(9));
        // No tag for morsel 2: no locality preference.
        assert_eq!(specs[2].locality, None);
        assert_eq!(specs[2].cost, 0.3);
    }
}
