//! The three query paths a user has, each timed from outside as one
//! call, and the correctness gate their outputs must pass.

use std::collections::HashSet;
use std::time::Instant;

use geom::engine::{NaiveEngine, PreparedEngine};
use impalite::ImpaladConf;
use minihdfs::MiniDfs;
use sparklet::SparkConf;
use spatialjoin::{
    normalize_pairs, GeomRecord, IspMc, IspMcRun, JoinPair, JoinRequest, PointRecord, RecordReader,
    SpatialSpark, SpatialSparkRun,
};

use crate::proc::cpu_secs;
use crate::workload::{Spec, LEFT_PATH, RIGHT_PATH};

/// Which query path ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// DFS read, record parse and a `JoinRequest` on `PreparedEngine`.
    Direct,
    /// `SpatialSpark::broadcast_spatial_join` (`FlatEngine`).
    Spark,
    /// `IspMc::spatial_join` through SQL (`NaiveEngine`).
    IspMc,
}

pub const PATHS: [Path; 3] = [Path::Direct, Path::Spark, Path::IspMc];

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::Direct => "direct",
            Path::Spark => "spark",
            Path::IspMc => "ispmc",
        }
    }

    /// Names of the path's wall-time and CPU-time metrics.
    pub fn metric_names(self) -> (&'static str, &'static str) {
        match self {
            Path::Direct => ("direct_s", "direct_cpu_s"),
            Path::Spark => ("spark_s", "spark_cpu_s"),
            Path::IspMc => ("ispmc_s", "ispmc_cpu_s"),
        }
    }
}

/// What one path run returned, with the system's own report where the
/// path has one.
pub enum Output {
    Direct(Vec<JoinPair>),
    Spark(SpatialSparkRun),
    IspMc(Box<IspMcRun>),
}

impl Output {
    pub fn pairs(&self) -> &[JoinPair] {
        match self {
            Output::Direct(p) => p,
            Output::Spark(run) => &run.pairs,
            Output::IspMc(run) => run.pairs(),
        }
    }
}

/// One timed path run: wall seconds, process CPU seconds, and the
/// output or the error the path returned.
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub output: Result<Output, String>,
}

impl Timed {
    /// Ok when the run returned the gate's pairs.
    pub fn check(&self, reference: Digest) -> Result<(), String> {
        let output = self.output.as_ref().map_err(Clone::clone)?;
        reference.check(output.pairs())
    }
}

/// Runs `path` once and times it.
pub fn run(path: Path, dfs: &MiniDfs, spec: &Spec, threads: usize) -> Timed {
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let output = match path {
        Path::Direct => direct(dfs, spec, threads).map(Output::Direct),
        Path::Spark => spark(dfs, spec, threads).map(Output::Spark),
        Path::IspMc => ispmc(dfs, spec, threads).map(|r| Output::IspMc(Box::new(r))),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Timed {
        wall_s,
        cpu_s: cpu_secs() - cpu0,
        output,
    }
}

fn direct(dfs: &MiniDfs, spec: &Spec, threads: usize) -> Result<Vec<JoinPair>, String> {
    let left_lines = dfs.read_all_lines(LEFT_PATH).map_err(|e| e.to_string())?;
    let right_lines = dfs.read_all_lines(RIGHT_PATH).map_err(|e| e.to_string())?;
    let reader = RecordReader::new(1);
    let (left, _) = reader.read_points(&left_lines);
    let (right, _) = reader.read_geoms(&right_lines);
    Ok(JoinRequest::new(&left, &right, &PreparedEngine)
        .predicate(spec.predicate)
        .threads(threads)
        .run()
        .pairs)
}

fn spark(dfs: &MiniDfs, spec: &Spec, threads: usize) -> Result<SpatialSparkRun, String> {
    let conf = SparkConf {
        app_name: format!("perfbench:{}", spec.name),
        threads,
        ..SparkConf::default()
    };
    SpatialSpark::new(conf, dfs.clone())
        .broadcast_spatial_join(LEFT_PATH, RIGHT_PATH, spec.predicate)
        .map_err(|e| e.to_string())
}

fn ispmc(dfs: &MiniDfs, spec: &Spec, threads: usize) -> Result<IspMcRun, String> {
    let conf = ImpaladConf {
        threads,
        ..ImpaladConf::default()
    };
    let (l, r) = (spec.left.table(), spec.right.table());
    IspMc::new(conf, dfs.clone(), (l, LEFT_PATH), (r, RIGHT_PATH))
        .spatial_join(l, r, spec.predicate)
        .map_err(|e| e.to_string())
}

/// Order-independent digest of a pair multiset: equal for outputs that
/// normalize to the same pairs without duplicates, so timed runs are
/// checked without sorting their output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: usize,
    sum: u64,
}

impl Digest {
    /// Ok when `pairs` is the multiset this digest was taken of.
    pub fn check(&self, pairs: &[JoinPair]) -> Result<(), String> {
        let d = digest(pairs);
        if d == *self {
            Ok(())
        } else {
            Err(format!(
                "{} pairs differ from the gate's {}",
                d.count, self.count
            ))
        }
    }
}

fn digest(pairs: &[JoinPair]) -> Digest {
    let sum = pairs.iter().fold(0u64, |acc, &(l, r)| {
        acc.wrapping_add(splitmix64((l as u64).rotate_left(32) ^ r as u64))
    });
    Digest {
        count: pairs.len(),
        sum,
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Left points the nested-loop oracle re-joins from scratch.
const ORACLE_SAMPLE: usize = 400;

/// The correctness gate, run once before timing: all three paths must
/// return the same normalized pairs without duplicates, a sample of left
/// points re-joined by the nested-loop strategy (no R-tree, GEOS-like
/// engine) must get exactly the pairs the paths returned for them, and
/// the count must equal the pinned count where the seed has one.
/// Returns the digest every later run must reproduce.
pub fn gate(dfs: &MiniDfs, spec: &Spec, seed: u64, threads: usize) -> Result<Digest, String> {
    let mut reference: Option<Vec<JoinPair>> = None;
    for path in PATHS {
        let out = run(path, dfs, spec, threads)
            .output
            .map_err(|e| format!("{} failed: {e}", path.name()))?;
        let raw = out.pairs().len();
        let pairs = normalize_pairs(out.pairs().to_vec());
        drop(out);
        if pairs.len() != raw {
            return Err(format!("{} emitted duplicate pairs", path.name()));
        }
        match &reference {
            None => reference = Some(pairs),
            Some(r) if *r == pairs => {}
            Some(r) => {
                return Err(format!(
                    "{} returned {} pairs, direct {}, and they differ",
                    path.name(),
                    pairs.len(),
                    r.len()
                ))
            }
        }
    }
    let pairs = reference.unwrap_or_default();
    check_oracle(dfs, spec, &pairs)?;
    if let Some(pinned) = spec.pinned_count(seed) {
        if pinned != pairs.len() {
            return Err(format!(
                "{} pairs, pinned count for seed {seed} is {pinned}",
                pairs.len()
            ));
        }
    }
    Ok(digest(&pairs))
}

/// Both sides read and parsed, outside any timed window.
pub fn read_sides(dfs: &MiniDfs) -> Result<(Vec<PointRecord>, Vec<GeomRecord>), String> {
    let reader = RecordReader::new(1);
    let left = dfs.read_all_lines(LEFT_PATH).map_err(|e| e.to_string())?;
    let right = dfs.read_all_lines(RIGHT_PATH).map_err(|e| e.to_string())?;
    Ok((reader.read_points(&left).0, reader.read_geoms(&right).0))
}

fn check_oracle(dfs: &MiniDfs, spec: &Spec, pairs: &[JoinPair]) -> Result<(), String> {
    let (left, right) = read_sides(dfs)?;
    let stride = (left.len() / ORACLE_SAMPLE).max(1);
    let sample: Vec<_> = left.iter().step_by(stride).copied().collect();
    let ids: HashSet<i64> = sample.iter().map(|&(id, _)| id).collect();
    let expected = normalize_pairs(
        JoinRequest::new(&sample, &right, &NaiveEngine)
            .predicate(spec.predicate)
            .nested_loop()
            .run()
            .pairs,
    );
    let got: Vec<JoinPair> = pairs
        .iter()
        .copied()
        .filter(|(l, _)| ids.contains(l))
        .collect();
    if expected != got {
        return Err(format!(
            "nested-loop oracle: {} pairs for {} sampled points, paths returned {}",
            expected.len(),
            sample.len(),
            got.len()
        ));
    }
    Ok(())
}
