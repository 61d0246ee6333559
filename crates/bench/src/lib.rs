//! # bench — harness utilities for regenerating the paper's results
//!
//! Two binaries in `src/bin/` run everything:
//!
//! * `paper` — Tables 1–2, Figs. 4–5, the §V.B refinement timing and
//!   the runs' observability counters, all from one set of runs over
//!   one workload ([`paper`], `results/BENCH_paper.json`);
//! * `fault_tolerance` — §III's two recovery modes under live fault
//!   injection (`results/BENCH_fault_tolerance.json`).
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

pub mod paper;

use cluster::{ChaosConfig, ClusterSpec, TaskSpec};
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

/// The artifact `results/<name>` of the workspace the binary runs in,
/// found at run time: the nearest ancestor of the current directory
/// whose `Cargo.toml` declares `[workspace]`. A path fixed at build time
/// would let a binary built in one checkout overwrite another's
/// artifact.
///
/// # Errors
/// `NotFound` when no ancestor of the current directory is a workspace
/// root.
pub fn results_path(name: &str) -> std::io::Result<std::path::PathBuf> {
    let cwd = std::env::current_dir()?;
    let is_root = |dir: &&std::path::Path| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    };
    let root = cwd.ancestors().find(is_root).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no Cargo workspace above {}", cwd.display()),
        )
    })?;
    Ok(root.join("results").join(name))
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
    /// Two systems or engines returned different results.
    Mismatch(String),
    /// Bad command-line usage.
    Usage(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Dfs(e) => write!(f, "bench: dfs: {e}"),
            BenchError::Join(e) => write!(f, "bench: join: {e}"),
            BenchError::Mismatch(msg) => write!(f, "bench: mismatch: {msg}"),
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

/// EC2 node counts of the Fig. 4/5 sweep; the last is Table 2's.
pub const NODES: [usize; 4] = [4, 6, 8, 10];

/// Number of simulated datanodes backing every workload (matches the
/// paper's 10-node cluster so locality hints are meaningful).
pub const DATANODES: usize = 10;

/// Generates all five datasets into a fresh DFS: the point sides at
/// `scale`, the polygon/polyline sides at `right_scale` (1.0 = the
/// paper's full cardinalities; below that for tests and CI-speed runs,
/// where generating 14 K detailed ecoregions would dwarf the join).
///
/// Block size shrinks with `scale` so partition counts match the
/// paper's deployment, down to a 4 KiB floor.
///
/// # Errors
/// Propagates DFS configuration and write failures.
pub fn build_workload(scale: f64, right_scale: f64, seed: u64) -> Result<Workload, BenchError> {
    let block_size = ((minihdfs::DEFAULT_BLOCK_SIZE as f64 * scale) as usize).max(4 * 1024);
    let dfs = MiniDfs::new(DATANODES, block_size)?;
    let s = datagen::Scale(scale);
    let r = datagen::Scale(right_scale);

    let taxi = datagen::taxi::geometries(s.apply(datagen::full_size::TAXI), seed);
    datagen::write_dataset(&dfs, paths::TAXI, &taxi)?;
    drop(taxi);
    let gbif = datagen::gbif::geometries(s.apply(datagen::full_size::G10M), seed);
    datagen::write_dataset(&dfs, paths::GBIF, &gbif)?;
    drop(gbif);

    let nycb = datagen::nycb::geometries(r.apply(datagen::full_size::NYCB), seed);
    datagen::write_dataset(&dfs, paths::NYCB, &nycb)?;
    drop(nycb);
    let lion = datagen::lion::geometries(r.apply(datagen::full_size::LION), seed);
    datagen::write_dataset(&dfs, paths::LION, &lion)?;
    drop(lion);
    let wwf = datagen::wwf::geometries(r.apply(datagen::full_size::WWF), seed);
    datagen::write_dataset(&dfs, paths::WWF, &wwf)?;
    drop(wwf);

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

/// Simulated SpatialSpark runtime at full scale on `spec`: the EC2
/// node sweep of Table 2 and Fig. 4, or the paper's single in-house
/// 16-core machine of Table 1 (the EC2 cluster could not run below 4
/// nodes for memory reasons).
pub fn spark_runtime(run: &SpatialSparkRun, replay: &Replay, spec: &ClusterSpec) -> f64 {
    scale_spark_report(&run.report, replay).simulate_runtime(
        spec,
        &cluster::NetworkModel::ec2_spark(),
        cluster::Scheduler::Dynamic,
    )
}

/// Simulated ISP-MC runtime at full scale on `spec`.
pub fn ispmc_runtime(run: &IspMcRun, replay: &Replay, spec: &ClusterSpec) -> f64 {
    scale_ispmc_metrics(&run.result.metrics, replay)
        .simulate_runtime_on(&ImpaladConf::default(), spec)
}

/// Timed repetitions behind every reported cell.
pub const REPS: usize = 5;

/// Median, min and max of a cell's samples, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub runs: usize,
}

impl Spread {
    /// The spread of `samples` (the upper median for an even count).
    ///
    /// # Panics
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread {
            median: sorted[sorted.len() / 2],
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            runs: sorted.len(),
        }
    }
}

/// Parsed CLI arguments for the bench binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    pub replay: Replay,
    pub threads: usize,
    /// Right-side cardinality fraction (`--right-scale`, default 1.0),
    /// passed to [`build_workload`].
    pub right_scale: f64,
}

/// Parses `--scale <f>`, `--threads <n>`, `--calibration <f>` and
/// `--right-scale <f>` CLI arguments with defaults.
///
/// # Errors
/// Returns [`BenchError::Usage`] for unknown flags or unparsable values.
pub fn parse_bench_args() -> Result<BenchArgs, BenchError> {
    let mut parsed = BenchArgs {
        replay: Replay::new(0.01),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
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
            other => {
                return Err(BenchError::Usage(format!(
                    "unknown argument {other}; use --scale <f> --threads <n> --calibration <f> \
                     [--right-scale <f>]"
                )));
            }
        }
    }
    Ok(parsed)
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
    fn results_path_is_under_the_running_workspace() {
        // Tests run in the crate's directory, two levels below the root.
        let path = results_path("BENCH_x.json").unwrap();
        assert!(path.ends_with("results/BENCH_x.json"), "{path:?}");
        let root = path.parent().and_then(std::path::Path::parent).unwrap();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
        assert!(std::env::current_dir().unwrap().starts_with(root));
    }

    #[test]
    fn small_workload_builds_and_joins() {
        let w = build_workload(0.0001, 0.01, 7).expect("workload builds");
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
        let w = build_workload(0.0001, 0.01, 8).expect("workload builds");
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
