//! Chaos properties: proph-driven checks that fault injection and
//! recovery preserve the executors' correctness contracts.
//!
//! Four properties, matching the recovery semantics of each layer:
//!
//! 1. chaos at rate zero (and delay-only chaos) is bit-identical to
//!    the fault-free run on SpatialSpark and ISP-MC at 1/2/7 threads;
//! 2. any sparklet run that *recovers* from injected panics by lineage
//!    recompute is bit-identical to fault-free;
//! 3. impalite is fail-fast: under fragment faults it either completes
//!    bit-identically or returns `Err`, and with certain faults it
//!    always errors — never partial rows;
//! 4. minihdfs checksums: every corruption pattern that leaves one
//!    clean replica per block round-trips exactly; losing every
//!    replica of a block surfaces `CorruptBlock`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use cluster::ChaosConfig;
use geom::{Envelope, Geometry, Point, Polygon};
use impalite::ImpaladConf;
use minihdfs::{DfsError, MiniDfs};
use proph::{check_with, f64_range, usize_range, vec_of, Config, GenExt};
use sparklet::SparkConf;
use spatialjoin::{
    GeomRecord, IspMc, JoinPair, PointRecord, SpatialJoinError, SpatialPredicate, SpatialSpark,
};

/// Restores the default panic hook when dropped. Injected worker
/// panics are expected output here; keep them off test stderr.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct QuietPanics {
    prev: Option<PanicHook>,
}

fn quiet_panics() -> QuietPanics {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    QuietPanics { prev: Some(prev) }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| std::panic::set_hook(prev)));
        }
    }
}

/// Four quadrant rectangles tiling `[0, 10)²`.
fn quadrant_polys() -> Vec<GeomRecord> {
    let q = |id, x0: f64, y0: f64| {
        (
            id,
            Geometry::Polygon(Polygon::rectangle(Envelope::new(
                x0,
                y0,
                x0 + 5.0,
                y0 + 5.0,
            ))),
        )
    };
    vec![
        q(0, 0.0, 0.0),
        q(1, 5.0, 0.0),
        q(2, 0.0, 5.0),
        q(3, 5.0, 5.0),
    ]
}

/// Generator of 8–40 random points in `[0, 10)²` with sequential ids.
fn points_gen() -> impl proph::Gen<Value = Vec<PointRecord>> {
    vec_of((f64_range(0.0, 10.0), f64_range(0.0, 10.0)), 8, 40).map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y))| (i as i64, Point::new(x, y)))
            .collect()
    })
}

/// Seeds as generated values so shrinking minimises them too.
fn seed_gen() -> impl proph::Gen<Value = u64> {
    usize_range(0, 1 << 20).map(|s| s as u64)
}

fn small_cases(cases: u32) -> Config {
    Config {
        cases,
        ..Config::default()
    }
}

/// Writes `points` as `id \t WKT` lines next to the quadrant polygons
/// on a fresh little DFS.
fn dfs_with(points: &[PointRecord]) -> MiniDfs {
    let dfs = MiniDfs::new(4, 256).unwrap();
    let pts: Vec<String> = points
        .iter()
        .map(|(id, p)| format!("{id}\tPOINT ({} {})", p.x, p.y))
        .collect();
    dfs.write_lines("/pnt", &pts).unwrap();
    let polys: Vec<String> = quadrant_polys()
        .iter()
        .map(|(id, g)| format!("{id}\t{}", geom::wkt::write(g)))
        .collect();
    dfs.write_lines("/poly", &polys).unwrap();
    dfs
}

// --- property 1: zero-rate and delay-only chaos change nothing ------

#[test]
fn zero_rate_chaos_is_bit_identical_at_every_thread_count() {
    let gen = (points_gen(), seed_gen());
    check_with(
        small_cases(24),
        "zero-rate chaos is bit-identical",
        &gen,
        |(points, seed)| {
            let dfs = dfs_with(&points);
            // Delay-only chaos fires straggler faults without any
            // destructive fault.
            let delay_only = ChaosConfig {
                seed,
                straggler_rate: 0.5,
                straggler_delay: Duration::from_micros(1),
                ..ChaosConfig::disabled()
            };
            for threads in [1, 2, 7] {
                let spark = |chaos| -> Vec<JoinPair> {
                    let conf = SparkConf {
                        threads,
                        chaos,
                        ..SparkConf::default()
                    };
                    SpatialSpark::new(conf, dfs.clone())
                        .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
                        .expect("no destructive fault configured")
                        .pairs
                };
                let ispmc = |chaos| -> Vec<JoinPair> {
                    let conf = ImpaladConf {
                        threads,
                        chaos,
                        ..ImpaladConf::default()
                    };
                    IspMc::new(conf, dfs.clone(), ("pnt", "/pnt"), ("poly", "/poly"))
                        .spatial_join("pnt", "poly", SpatialPredicate::Within)
                        .expect("no destructive fault configured")
                        .pairs()
                        .to_vec()
                };
                let (spark_plain, ispmc_plain) = (
                    spark(ChaosConfig::disabled()),
                    ispmc(ChaosConfig::disabled()),
                );
                for chaos in [ChaosConfig::uniform(seed, 0.0), delay_only] {
                    assert_eq!(spark(chaos), spark_plain, "spark threads={threads}");
                    assert_eq!(ispmc(chaos), ispmc_plain, "ispmc threads={threads}");
                }
            }
        },
    );
}

// --- property 2: recovery is bit-identical -------------------------

#[test]
fn recovered_pool_and_sparklet_runs_are_bit_identical() {
    let _quiet = quiet_panics();
    let gen = (points_gen(), seed_gen(), f64_range(0.0, 0.4));
    check_with(
        small_cases(16),
        "recovered chaos runs are bit-identical",
        &gen,
        |(points, seed, rate)| {
            // Sparklet's stages run on the shared pool, each unit once;
            // the driver recomputes lost partitions from lineage.
            let dfs = dfs_with(&points);
            let base = SpatialSpark::new(
                SparkConf {
                    threads: 4,
                    ..SparkConf::default()
                },
                dfs.clone(),
            )
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
            let sys = SpatialSpark::new(
                SparkConf {
                    threads: 4,
                    chaos: ChaosConfig::uniform(seed, rate),
                    ..SparkConf::default()
                },
                dfs,
            );
            let run = catch_unwind(AssertUnwindSafe(|| {
                sys.broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            }));
            // Exceeding the recompute budget may abort the job; any
            // *completed* run must match the fault-free pairs.
            if let Ok(Ok(run)) = run {
                assert_eq!(
                    run.pairs, base.pairs,
                    "sparklet recovery diverged (seed {seed})"
                );
            }
        },
    );
}

// --- property 3: impalite fails fast, never partial rows -----------

#[test]
fn impalite_under_fragment_faults_is_all_or_nothing() {
    let _quiet = quiet_panics();
    let gen = (points_gen(), seed_gen(), f64_range(0.3, 1.0));
    check_with(
        small_cases(16),
        "impalite is all-or-nothing under faults",
        &gen,
        |(points, seed, rate)| {
            let dfs = dfs_with(&points);
            let base = IspMc::new(
                ImpaladConf::default(),
                dfs.clone(),
                ("pnt", "/pnt"),
                ("poly", "/poly"),
            )
            .spatial_join("pnt", "poly", SpatialPredicate::Within)
            .unwrap();

            let panic_only = ChaosConfig {
                seed,
                panic_rate: rate,
                ..ChaosConfig::disabled()
            };
            let sys = IspMc::new(
                ImpaladConf {
                    chaos: panic_only,
                    ..ImpaladConf::default()
                },
                dfs.clone(),
                ("pnt", "/pnt"),
                ("poly", "/poly"),
            );
            match sys.spatial_join("pnt", "poly", SpatialPredicate::Within) {
                // No fault fired anywhere: output must be complete and
                // identical — fail-fast admits no partial success.
                Ok(run) => assert_eq!(run.pairs(), base.pairs(), "partial rows leaked"),
                // The wrapper stringifies `ImpalaError::FragmentFailed`;
                // its message names the dead fragment and the contract.
                Err(SpatialJoinError::Impala(msg)) => {
                    assert!(msg.contains("fragment failed"), "unexpected error: {msg}");
                    assert!(
                        msg.contains("no partial results"),
                        "unexpected error: {msg}"
                    );
                }
                Err(other) => panic!("expected a fragment failure, got {other}"),
            }

            // Certain faults always abort: rate 1.0 fires on the very
            // first fragment attempt.
            let certain = IspMc::new(
                ImpaladConf {
                    chaos: ChaosConfig {
                        seed,
                        panic_rate: 1.0,
                        ..ChaosConfig::disabled()
                    },
                    ..ImpaladConf::default()
                },
                dfs,
                ("pnt", "/pnt"),
                ("poly", "/poly"),
            );
            assert!(certain
                .spatial_join("pnt", "poly", SpatialPredicate::Within)
                .is_err());
        },
    );
}

// --- property 4: checksum fail-over round-trips --------------------

/// Deterministic per-block corruption mask in `[0, 2^replicas − 1)`
/// (all-ones excluded, so one clean replica always survives).
fn corruption_mask(seed: u64, block: u64, replicas: u32) -> u64 {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % ((1u64 << replicas) - 1)
}

#[test]
fn checksums_survive_every_non_total_corruption_pattern() {
    let gen = (vec_of(usize_range(0, 1 << 30), 1, 120), seed_gen());
    check_with(
        small_cases(24),
        "checksum fail-over round-trips",
        &gen,
        |(values, seed)| {
            let lines: Vec<String> = values
                .iter()
                .enumerate()
                .map(|(i, v)| format!("{i}\t{v}"))
                .collect();
            let dfs = MiniDfs::with_replication(4, 64, 3).unwrap();
            dfs.write_lines("/f", &lines).unwrap();
            let blocks = dfs.blocks("/f").unwrap();
            for (b, blk) in blocks.iter().enumerate() {
                let mask = corruption_mask(seed, b as u64, blk.replicas.len() as u32);
                for r in 0..blk.replicas.len() {
                    if mask & (1 << r) != 0 {
                        dfs.corrupt_replica("/f", b, r).unwrap();
                    }
                }
            }
            // One clean replica per block remains: the read must
            // transparently fail over and reconstruct every line.
            assert!(dfs.read_all_lines("/f").unwrap().iter().eq(&lines));

            // Now destroy every replica of one block: the reader must
            // surface CorruptBlock rather than fabricate data.
            let victim = (seed as usize) % blocks.len();
            dfs.corrupt_block("/f", victim).unwrap();
            match dfs.read_all_lines("/f") {
                Err(DfsError::CorruptBlock { block, .. }) => assert_eq!(block, victim),
                other => panic!("expected CorruptBlock, got {other:?}"),
            }

            // Healing restores the file end to end.
            dfs.heal("/f").unwrap();
            assert!(dfs.read_all_lines("/f").unwrap().iter().eq(&lines));
        },
    );
}
