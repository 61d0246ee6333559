//! # bench — harness utilities for regenerating the paper's results
//!
//! The binaries in `src/bin/` regenerate every table and figure:
//!
//! | binary        | artifact                                        |
//! |---------------|-------------------------------------------------|
//! | `table1`      | Table 1 — single-node runtimes                  |
//! | `table2`      | Table 2 — 10-node runtimes                      |
//! | `fig4`        | Fig. 4 — SpatialSpark scalability (4–10 nodes)  |
//! | `fig5`        | Fig. 5 — ISP-MC scalability (4–10 nodes)        |
//! | `jts_vs_geos` | §V.B — standalone JTS vs GEOS refinement        |
//!
//! ## Scaling methodology
//!
//! The paper's point datasets (170 M taxi records, 10 M GBIF records)
//! are scaled down by `--scale` (default 1/100) so a run fits one
//! machine. To keep the simulated cluster replay comparable to the
//! paper two calibrations are applied, both documented in DESIGN.md:
//!
//! 1. the DFS block size shrinks with the scale factor, so the *number*
//!    of partitions/tasks stays in the paper's range;
//! 2. before replay, measured left-side task costs are multiplied by
//!    `1/scale` (each task processed `scale`× fewer records than its
//!    full-size counterpart); right-side (build/broadcast) costs are
//!    left untouched because the polygon/polyline sides are generated
//!    at full cardinality.

pub mod ablation;
pub mod timing;

use cluster::{ChaosConfig, TaskSpec};
use geom::engine::SpatialPredicate;
use impalite::{ImpaladConf, QueryMetrics};
use minihdfs::MiniDfs;
use sparklet::{JobReport, SparkConf, StageMetrics};
use spatialjoin::{IspMc, IspMcRun, SpatialSpark, SpatialSparkRun};

/// Paths of the generated datasets inside the workload DFS.
pub mod paths {
    pub const TAXI: &str = "/data/taxi";
    pub const NYCB: &str = "/data/nycb";
    pub const LION: &str = "/data/lion";
    pub const GBIF: &str = "/data/gbif";
    pub const WWF: &str = "/data/wwf";
}

/// Harness failure: dataset generation, a system run, or CLI usage.
///
/// The binaries return this from `main` instead of panicking, so a
/// missing path or a bad flag prints one diagnostic line and exits
/// non-zero rather than unwinding with a backtrace.
#[derive(Debug)]
pub enum BenchError {
    /// DFS or dataset-generation failure.
    Dfs(minihdfs::DfsError),
    /// A system-under-test run failed.
    Join(spatialjoin::SpatialJoinError),
    /// Bad command-line usage.
    Usage(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Dfs(e) => write!(f, "bench: dfs: {e}"),
            BenchError::Join(e) => write!(f, "bench: join: {e}"),
            BenchError::Usage(msg) => write!(f, "bench: usage: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<minihdfs::DfsError> for BenchError {
    fn from(e: minihdfs::DfsError) -> BenchError {
        BenchError::Dfs(e)
    }
}

impl From<spatialjoin::SpatialJoinError> for BenchError {
    fn from(e: spatialjoin::SpatialJoinError) -> BenchError {
        BenchError::Join(e)
    }
}

/// A generated benchmark workload.
pub struct Workload {
    pub dfs: MiniDfs,
    /// Fraction of the paper's point cardinalities generated.
    pub scale: f64,
}

/// Number of simulated datanodes backing every workload (matches the
/// paper's 10-node cluster so locality hints are meaningful).
pub const DATANODES: usize = 10;

/// Generates all five datasets at `scale` into a fresh DFS.
///
/// Left (point) sides are scaled; right sides are full cardinality.
/// Block size shrinks proportionally so partition counts match the
/// paper's deployment.
///
/// # Errors
/// Propagates DFS configuration and write failures.
pub fn build_workload(scale: f64, seed: u64) -> Result<Workload, BenchError> {
    let block_size = ((minihdfs::DEFAULT_BLOCK_SIZE as f64 * scale) as usize).max(16 * 1024);
    let dfs = MiniDfs::new(DATANODES, block_size)?;
    let s = datagen::Scale(scale);

    let taxi = datagen::taxi::geometries(s.apply(datagen::full_size::TAXI), seed);
    datagen::write_dataset(&dfs, paths::TAXI, &taxi)?;
    drop(taxi);
    let gbif = datagen::gbif::geometries(s.apply(datagen::full_size::G10M), seed);
    datagen::write_dataset(&dfs, paths::GBIF, &gbif)?;
    drop(gbif);

    let nycb = datagen::nycb::geometries(datagen::full_size::NYCB, seed);
    datagen::write_dataset(&dfs, paths::NYCB, &nycb)?;
    drop(nycb);
    let lion = datagen::lion::geometries(datagen::full_size::LION, seed);
    datagen::write_dataset(&dfs, paths::LION, &lion)?;
    drop(lion);
    let wwf = datagen::wwf::geometries(datagen::full_size::WWF, seed);
    datagen::write_dataset(&dfs, paths::WWF, &wwf)?;
    drop(wwf);

    Ok(Workload { dfs, scale })
}

/// Builds a workload with reduced right-side cardinalities too — used
/// by tests and quick runs where generating 14 K detailed ecoregions
/// would dwarf the join itself.
///
/// # Errors
/// Propagates DFS configuration and write failures.
pub fn build_small_workload(
    scale: f64,
    right_scale: f64,
    seed: u64,
) -> Result<Workload, BenchError> {
    let block_size = ((minihdfs::DEFAULT_BLOCK_SIZE as f64 * scale) as usize).max(4 * 1024);
    let dfs = MiniDfs::new(DATANODES, block_size)?;
    let s = datagen::Scale(scale);
    let r = datagen::Scale(right_scale);

    let taxi = datagen::taxi::geometries(s.apply(datagen::full_size::TAXI), seed);
    datagen::write_dataset(&dfs, paths::TAXI, &taxi)?;
    let gbif = datagen::gbif::geometries(s.apply(datagen::full_size::G10M), seed);
    datagen::write_dataset(&dfs, paths::GBIF, &gbif)?;
    let nycb = datagen::nycb::geometries(r.apply(datagen::full_size::NYCB), seed);
    datagen::write_dataset(&dfs, paths::NYCB, &nycb)?;
    let lion = datagen::lion::geometries(r.apply(datagen::full_size::LION), seed);
    datagen::write_dataset(&dfs, paths::LION, &lion)?;
    let wwf = datagen::wwf::geometries(r.apply(datagen::full_size::WWF), seed);
    datagen::write_dataset(&dfs, paths::WWF, &wwf)?;

    Ok(Workload { dfs, scale })
}

/// The four experiments of §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    TaxiNycb,
    TaxiLion100,
    TaxiLion500,
    G10mWwf,
}

impl Experiment {
    /// All four, in the paper's table order.
    pub fn all() -> [Experiment; 4] {
        [
            Experiment::TaxiNycb,
            Experiment::TaxiLion100,
            Experiment::TaxiLion500,
            Experiment::G10mWwf,
        ]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Experiment::TaxiNycb => "taxi-nycb",
            Experiment::TaxiLion100 => "taxi-lion-100",
            Experiment::TaxiLion500 => "taxi-lion-500",
            Experiment::G10mWwf => "G10M-wwf",
        }
    }

    /// Left (point) dataset path.
    pub fn left_path(&self) -> &'static str {
        match self {
            Experiment::G10mWwf => paths::GBIF,
            _ => paths::TAXI,
        }
    }

    /// Right dataset path.
    pub fn right_path(&self) -> &'static str {
        match self {
            Experiment::TaxiNycb => paths::NYCB,
            Experiment::TaxiLion100 | Experiment::TaxiLion500 => paths::LION,
            Experiment::G10mWwf => paths::WWF,
        }
    }

    /// Table names for the SQL (ISP-MC) path.
    pub fn table_names(&self) -> (&'static str, &'static str) {
        match self {
            Experiment::TaxiNycb => ("taxi", "nycb"),
            Experiment::TaxiLion100 | Experiment::TaxiLion500 => ("taxi", "lion"),
            Experiment::G10mWwf => ("gbif", "wwf"),
        }
    }

    /// The join predicate (distances are feet, the LION native unit).
    pub fn predicate(&self) -> SpatialPredicate {
        match self {
            Experiment::TaxiNycb | Experiment::G10mWwf => SpatialPredicate::Within,
            Experiment::TaxiLion100 => SpatialPredicate::NearestD(100.0),
            Experiment::TaxiLion500 => SpatialPredicate::NearestD(500.0),
        }
    }
}

/// Runs an experiment through SpatialSpark after one warm-up run (the
/// first touch of a dataset pays page-fault and allocator-growth costs
/// that are not part of the system under study).
///
/// # Errors
/// Propagates run failures (usually a missing dataset path).
pub fn run_spark_warm(
    w: &Workload,
    exp: Experiment,
    threads: usize,
) -> Result<SpatialSparkRun, BenchError> {
    let _ = run_spark(w, exp, threads, ChaosConfig::disabled())?;
    run_spark(w, exp, threads, ChaosConfig::disabled())
}

/// Runs an experiment through ISP-MC after one warm-up run.
///
/// # Errors
/// Propagates run failures (usually a missing dataset path).
pub fn run_ispmc_warm(
    w: &Workload,
    exp: Experiment,
    threads: usize,
) -> Result<IspMcRun, BenchError> {
    let _ = run_ispmc(w, exp, threads, ChaosConfig::disabled())?;
    run_ispmc(w, exp, threads, ChaosConfig::disabled())
}

/// Runs an experiment through SpatialSpark with `chaos` wired into
/// every stage: injected executor deaths are recovered live by lineage
/// recompute on the surviving workers.
///
/// # Errors
/// Propagates run failures (usually a missing dataset path);
/// unrecoverable chaos (a partition failing every recompute round)
/// panics by design and should be caught by the caller when sweeping
/// aggressive fault rates.
pub fn run_spark(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    chaos: ChaosConfig,
) -> Result<SpatialSparkRun, BenchError> {
    let conf = SparkConf {
        threads,
        chaos,
        ..SparkConf::default()
    };
    let sys = SpatialSpark::new(conf, w.dfs.clone());
    Ok(sys.broadcast_spatial_join(exp.left_path(), exp.right_path(), exp.predicate())?)
}

/// Runs an experiment through ISP-MC with `chaos`: any fragment
/// failure aborts the query with an `Err` (fail-fast, no partial
/// results) — the caller decides whether to restart.
///
/// # Errors
/// Propagates run failures, including injected fragment failures.
pub fn run_ispmc(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    chaos: ChaosConfig,
) -> Result<IspMcRun, BenchError> {
    let conf = ImpaladConf {
        threads,
        chaos,
        ..ImpaladConf::default()
    };
    let (lname, rname) = exp.table_names();
    let sys = IspMc::new(
        conf,
        w.dfs.clone(),
        (lname, exp.left_path()),
        (rname, exp.right_path()),
    );
    Ok(sys.spatial_join(lname, rname, exp.predicate())?)
}

/// How measured runs are replayed at paper scale.
///
/// `scale` is the fraction of the paper's point cardinality that was
/// generated; `calibration` is a single global CPU factor aligning this
/// substrate's per-record cost (modern Rust on modern hardware) with
/// the paper's 2014 testbed (JVM Spark + GEOS-backed Impala on
/// g2.2xlarge vCPUs). It is calibrated once against the SpatialSpark
/// taxi-nycb single-node cell of Table 1 and then held fixed for every
/// other cell, figure and system — so every other number is a
/// prediction, not a fit.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub scale: f64,
    pub calibration: f64,
}

impl Replay {
    /// Default calibration (see module docs / EXPERIMENTS.md).
    pub const DEFAULT_CALIBRATION: f64 = 70.0;

    pub fn new(scale: f64) -> Replay {
        Replay {
            scale,
            calibration: Self::DEFAULT_CALIBRATION,
        }
    }

    /// The factor applied to measured left-side task costs.
    pub fn cost_factor(&self) -> f64 {
        self.calibration / self.scale
    }

    /// Right-side (build) costs are full-size already; only the CPU
    /// calibration applies.
    pub fn right_side_factor(&self) -> f64 {
        self.calibration
    }
}

/// Multiplies a task list's costs by `factor`.
fn scale_tasks(tasks: &[TaskSpec], factor: f64) -> Vec<TaskSpec> {
    tasks
        .iter()
        .map(|t| TaskSpec {
            cost: t.cost * factor,
            locality: t.locality,
        })
        .collect()
}

/// Scales a SpatialSpark job report to full dataset size: left-side
/// stages (parse, probe) get the full cost factor;
/// the driver-side right-table build (already full cardinality) gets
/// only the CPU calibration; broadcast bytes are full-size as is.
pub fn scale_spark_report(report: &JobReport, replay: &Replay) -> JobReport {
    let stages = report
        .stages
        .iter()
        .map(|s| {
            let left_side = !s.name.starts_with("driver:") && !s.name.starts_with("broadcast:");
            let factor = if left_side {
                replay.cost_factor()
            } else {
                replay.right_side_factor()
            };
            StageMetrics {
                name: s.name.clone(),
                tasks: scale_tasks(&s.tasks, factor),
                broadcast_bytes: s.broadcast_bytes,
            }
        })
        .collect();
    JobReport { stages }
}

/// Scales ISP-MC query metrics to full dataset size: left-side scan and
/// probe chunks are multiplied; the per-instance R-tree build and the
/// right-table broadcast are not.
pub fn scale_ispmc_metrics(metrics: &QueryMetrics, replay: &Replay) -> QueryMetrics {
    let factor = replay.cost_factor();
    QueryMetrics {
        scan_tasks: scale_tasks(&metrics.scan_tasks, factor),
        build_secs: metrics.build_secs * replay.right_side_factor(),
        broadcast_bytes: metrics.broadcast_bytes,
        probe_batches: metrics
            .probe_batches
            .iter()
            .map(|b| impalite::exec::ProbeBatch {
                locality: b.locality,
                chunk_costs: b.chunk_costs.iter().map(|c| c * factor).collect(),
            })
            .collect(),
        chunks_per_batch: metrics.chunks_per_batch,
        result_rows: metrics.result_rows,
    }
}

/// Simulated SpatialSpark runtime at full scale on `nodes` EC2 nodes
/// (Table 2, Fig. 4).
pub fn spark_runtime_at_scale(run: &SpatialSparkRun, replay: &Replay, nodes: usize) -> f64 {
    let report = scale_spark_report(&run.report, replay);
    report.simulate_runtime(
        &cluster::ClusterSpec::ec2_with_nodes(nodes),
        &cluster::NetworkModel::ec2_spark(),
        cluster::Scheduler::Dynamic,
    )
}

/// Simulated SpatialSpark runtime at full scale on the paper's single
/// in-house 16-core machine (Table 1 — the EC2 cluster could not run
/// below 4 nodes for memory reasons, so single-node numbers are from
/// that machine).
pub fn spark_single_node_at_scale(run: &SpatialSparkRun, replay: &Replay) -> f64 {
    let report = scale_spark_report(&run.report, replay);
    report.simulate_runtime(
        &cluster::ClusterSpec::single_node_highend(),
        &cluster::NetworkModel::ec2_spark(),
        cluster::Scheduler::Dynamic,
    )
}

/// Simulated ISP-MC runtime at full scale on `nodes` EC2 nodes.
pub fn ispmc_runtime_at_scale(run: &IspMcRun, replay: &Replay, nodes: usize) -> f64 {
    let metrics = scale_ispmc_metrics(&run.result.metrics, replay);
    metrics.simulate_runtime(&ImpaladConf::default(), nodes)
}

/// Simulated ISP-MC runtime at full scale on the single 16-core machine
/// (Table 1).
pub fn ispmc_single_node_at_scale(run: &IspMcRun, replay: &Replay) -> f64 {
    let metrics = scale_ispmc_metrics(&run.result.metrics, replay);
    metrics.simulate_runtime_on(
        &ImpaladConf::default(),
        &cluster::ClusterSpec::single_node_highend(),
    )
}

/// Simulated ISP-MC-standalone runtime at full scale (single 16-core
/// machine).
pub fn ispmc_standalone_at_scale(run: &IspMcRun, replay: &Replay) -> f64 {
    let metrics = scale_ispmc_metrics(&run.result.metrics, replay);
    metrics.simulate_standalone_on(&cluster::ClusterSpec::single_node_highend())
}

/// Estimates the full-scale in-memory footprint of an experiment:
/// both sides resident (raw text plus ~2× object overhead for the
/// JVM/engine structures) plus working space. This is what limited the
/// paper to ≥4 EC2 nodes ("due to the memory limitation of the EC2
/// instances (15 GB per node)").
pub fn estimate_memory_footprint(
    w: &Workload,
    exp: Experiment,
    replay: &Replay,
) -> Result<u64, BenchError> {
    let left = w.dfs.stat(exp.left_path())?.total_bytes as f64 / replay.scale;
    let right = w.dfs.stat(exp.right_path())?.total_bytes as f64;
    Ok(((left + right) * 3.0) as u64)
}

/// Prints which node counts of a sweep are infeasible for memory, as
/// the paper's setup section reports.
///
/// # Errors
/// Propagates DFS stat failures.
pub fn report_memory_gate(
    w: &Workload,
    exp: Experiment,
    replay: &Replay,
) -> Result<(), BenchError> {
    let bytes = estimate_memory_footprint(w, exp, replay)?;
    for nodes in 1..=3usize {
        let spec = cluster::ClusterSpec::ec2_with_nodes(nodes);
        if !spec.fits_in_memory(bytes) {
            eprintln!(
                "#   {}: {} node(s) infeasible — needs ~{:.1} GB in memory, {} x 15 GB available",
                exp.label(),
                nodes,
                bytes as f64 / (1u64 << 30) as f64,
                nodes
            );
        }
    }
    Ok(())
}

/// Parsed CLI arguments for the figure/table binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    pub replay: Replay,
    pub threads: usize,
    /// Run the schedule-mode ablation instead of the plain figure
    /// (`fig4`/`fig5` only).
    pub ablate: bool,
    /// Right-side cardinality fraction (`--right-scale`, default 1.0).
    /// Below 1.0 the workload is built with
    /// [`build_small_workload`] — meant for CI-speed ablation runs.
    pub right_scale: f64,
}

impl BenchArgs {
    /// Builds the workload this argument set describes: the full
    /// right-side cardinalities unless `--right-scale` shrank them.
    ///
    /// # Errors
    /// Propagates DFS configuration and write failures.
    pub fn build_workload(&self, seed: u64) -> Result<Workload, BenchError> {
        if self.right_scale < 1.0 {
            build_small_workload(self.replay.scale, self.right_scale, seed)
        } else {
            build_workload(self.replay.scale, seed)
        }
    }
}

/// Parses `--scale <f>`, `--threads <n>`, `--calibration <f>`,
/// `--ablate` and `--right-scale <f>` CLI arguments with defaults.
///
/// # Errors
/// Returns [`BenchError::Usage`] for unknown flags or unparsable values.
pub fn parse_bench_args() -> Result<BenchArgs, BenchError> {
    let mut parsed = BenchArgs {
        replay: Replay::new(0.01),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        ablate: false,
        right_scale: 1.0,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                parsed.replay.scale = args[i + 1]
                    .parse()
                    .map_err(|_| BenchError::Usage("--scale takes a float".into()))?;
                i += 2;
            }
            "--calibration" if i + 1 < args.len() => {
                parsed.replay.calibration = args[i + 1]
                    .parse()
                    .map_err(|_| BenchError::Usage("--calibration takes a float".into()))?;
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                parsed.threads = args[i + 1]
                    .parse()
                    .map_err(|_| BenchError::Usage("--threads takes an integer".into()))?;
                i += 2;
            }
            "--right-scale" if i + 1 < args.len() => {
                parsed.right_scale = args[i + 1]
                    .parse()
                    .map_err(|_| BenchError::Usage("--right-scale takes a float".into()))?;
                i += 2;
            }
            "--ablate" => {
                parsed.ablate = true;
                i += 1;
            }
            other => {
                return Err(BenchError::Usage(format!(
                    "unknown argument {other}; use --scale <f> --threads <n> --calibration <f> \
                     [--ablate] [--right-scale <f>]"
                )));
            }
        }
    }
    Ok(parsed)
}

/// [`parse_bench_args`] restricted to the original
/// `--scale/--threads/--calibration` trio, for binaries without an
/// ablation mode.
///
/// # Errors
/// Returns [`BenchError::Usage`] for unknown flags or unparsable values.
pub fn parse_args() -> Result<(Replay, usize), BenchError> {
    let parsed = parse_bench_args()?;
    if parsed.ablate || parsed.right_scale != 1.0 {
        return Err(BenchError::Usage(
            "--ablate/--right-scale are only supported by fig4 and fig5".into(),
        ));
    }
    Ok((parsed.replay, parsed.threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_metadata_is_consistent() {
        for exp in Experiment::all() {
            assert!(!exp.label().is_empty());
            assert!(exp.left_path().starts_with("/data/"));
            assert!(exp.right_path().starts_with("/data/"));
        }
        assert_eq!(
            Experiment::TaxiLion500.predicate(),
            SpatialPredicate::NearestD(500.0)
        );
    }

    #[test]
    fn small_workload_builds_and_joins() {
        let w = build_small_workload(0.0001, 0.01, 7).expect("workload builds");
        for p in [
            paths::TAXI,
            paths::NYCB,
            paths::LION,
            paths::GBIF,
            paths::WWF,
        ] {
            assert!(w.dfs.exists(p), "{p} missing");
        }
        let spark =
            run_spark(&w, Experiment::TaxiNycb, 2, ChaosConfig::disabled()).expect("spark runs");
        let ispmc =
            run_ispmc(&w, Experiment::TaxiNycb, 2, ChaosConfig::disabled()).expect("ispmc runs");
        // Cross-system agreement on the same data.
        assert_eq!(
            spatialjoin::normalize_pairs(spark.pairs.clone()),
            spatialjoin::normalize_pairs(ispmc.result.pairs.clone())
        );
    }

    #[test]
    fn scaling_applies_per_stage_factors() {
        let w = build_small_workload(0.0001, 0.01, 8).expect("workload builds");
        let run =
            run_spark(&w, Experiment::TaxiNycb, 2, ChaosConfig::disabled()).expect("spark runs");
        let replay = Replay {
            scale: 0.1,
            calibration: 2.0,
        };
        let scaled = scale_spark_report(&run.report, &replay);
        for (orig, sc) in run.report.stages.iter().zip(&scaled.stages) {
            let factor = if orig.name.starts_with("driver:") || orig.name.starts_with("broadcast:")
            {
                replay.right_side_factor()
            } else {
                replay.cost_factor()
            };
            for (a, b) in orig.tasks.iter().zip(&sc.tasks) {
                assert!((b.cost - a.cost * factor).abs() < 1e-12);
            }
        }
    }
}
