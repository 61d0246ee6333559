//! The right side's parallel build, through all three query paths.
//!
//! Two contracts:
//!
//! * **Determinism** — over a right file of many small blocks with
//!   malformed lines, [`PreparedSet::from_blocks`] and
//!   [`PreparedSet::prepare_threads`] yield the ids, and the probe
//!   output, of the serial `prepare(read_geoms(read_all_lines))` at any
//!   thread count; SpatialSpark and ISP-MC return bit-identical pairs
//!   at any thread count; parsed/skipped record counts do not depend on
//!   the thread count.
//! * **Corrupt right-side blocks** — with one corrupt replica both
//!   systems fail over to a clean copy and return the clean pairs; with
//!   every replica of a block corrupt both fail with an error.

use geom::engine::{PreparedEngine, SpatialPredicate};
use impalite::ImpaladConf;
use minihdfs::MiniDfs;
use sparklet::SparkConf;
use spatialjoin::{
    normalize_pairs, IspMc, JoinPair, MorselConfig, PreparedSet, RecordReader, SpatialSpark,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];
const LEFT: &str = "/pnt";
const RIGHT: &str = "/nycb";
const RIGHT_POLYGONS: usize = 600;
/// Malformed right-side lines: a bad id, bad WKT, a missing column.
const BAD_LINES: [&str; 3] = [
    "x\tPOLYGON ((0 0, 1 0, 1 1, 0 0))",
    "900\tPOLYGON ((0 0, banana",
    "901",
];

/// Census-block polygons with [`BAD_LINES`] spread through the file, and
/// taxi points over the same extent, in 2 KiB blocks (the right file
/// spans dozens of blocks).
fn dfs(replication: usize) -> MiniDfs {
    let dfs = MiniDfs::with_replication(4, 2048, replication).unwrap();
    let points = datagen::taxi::geometries(3_000, 7);
    dfs.write_lines(LEFT, datagen::to_wkt_lines(&points))
        .unwrap();
    let mut right = datagen::to_wkt_lines(&datagen::nycb::geometries(RIGHT_POLYGONS, 7));
    for (k, bad) in BAD_LINES.iter().enumerate() {
        right.insert(37 + 250 * k, bad.to_string());
    }
    dfs.write_lines(RIGHT, right).unwrap();
    assert!(dfs.stat(RIGHT).unwrap().num_blocks >= 16);
    dfs
}

fn spark(dfs: &MiniDfs, threads: usize) -> Result<Vec<JoinPair>, spatialjoin::SpatialJoinError> {
    let conf = SparkConf {
        threads,
        ..SparkConf::default()
    };
    SpatialSpark::new(conf, dfs.clone())
        .broadcast_spatial_join(LEFT, RIGHT, SpatialPredicate::Within)
        .map(|run| run.pairs)
}

fn ispmc(dfs: &MiniDfs, threads: usize) -> Result<Vec<JoinPair>, spatialjoin::SpatialJoinError> {
    let conf = ImpaladConf {
        threads,
        ..ImpaladConf::default()
    };
    IspMc::new(conf, dfs.clone(), ("pnt", LEFT), ("nycb", RIGHT))
        .spatial_join("pnt", "nycb", SpatialPredicate::Within)
        .map(|run| run.pairs().to_vec())
}

/// `f`'s result plus the `(records_parsed, records_skipped)` it counted.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = obs::thread_snapshot();
    let r = f();
    let c = obs::thread_snapshot().minus(&before);
    (r, (c.records_parsed, c.records_skipped))
}

#[test]
fn block_build_matches_serial_prepare_at_any_thread_count() {
    let dfs = dfs(1);
    let reader = RecordReader::new(1);
    let (records, skipped) = reader.read_geoms(&dfs.read_all_lines(RIGHT).unwrap());
    assert_eq!((records.len(), skipped), (RIGHT_POLYGONS, BAD_LINES.len()));
    let left = reader.read_points(&dfs.read_all_lines(LEFT).unwrap()).0;
    let blocks = dfs.blocks(RIGHT).unwrap();
    let engine = PreparedEngine;
    let predicate = SpatialPredicate::Within;
    let serial = PreparedSet::prepare(&records, predicate, &engine);
    let probe = |set: &PreparedSet<PreparedEngine>| {
        set.par_probe_observed(&left, &engine, MorselConfig::serial())
            .0
    };
    let want = probe(&serial);
    assert!(!want.is_empty(), "fixture must match");
    for threads in THREAD_COUNTS {
        let (set, counts) = counted(|| {
            PreparedSet::from_blocks(&blocks, reader, predicate, &engine, threads)
                .expect("no build unit dies")
        });
        assert_eq!(
            set.ids(),
            serial.ids(),
            "from_blocks ids at {threads} threads"
        );
        assert_eq!(
            counts,
            (RIGHT_POLYGONS as u64, BAD_LINES.len() as u64),
            "from_blocks counts at {threads} threads"
        );
        assert_eq!(probe(&set), want, "from_blocks probe at {threads} threads");

        let set = PreparedSet::prepare_threads(&records, predicate, &engine, threads);
        assert_eq!(set.ids(), serial.ids(), "prepare ids at {threads} threads");
        assert_eq!(probe(&set), want, "prepare probe at {threads} threads");
    }
}

#[test]
fn systems_are_bit_identical_across_thread_counts() {
    let dfs = dfs(1);
    let reader = RecordReader::new(1);
    let left = reader.read_points(&dfs.read_all_lines(LEFT).unwrap()).0;
    // Every left row parses; the right side drops exactly the bad lines.
    let want_counts = ((left.len() + RIGHT_POLYGONS) as u64, BAD_LINES.len() as u64);
    let (spark_1, _) = counted(|| spark(&dfs, 1).unwrap());
    let (ispmc_1, _) = counted(|| ispmc(&dfs, 1).unwrap());
    assert!(!spark_1.is_empty());
    assert_eq!(
        normalize_pairs(spark_1.clone()),
        normalize_pairs(ispmc_1.clone())
    );
    for threads in THREAD_COUNTS {
        let (pairs, counts) = counted(|| spark(&dfs, threads).unwrap());
        assert_eq!(pairs, spark_1, "spark pairs at {threads} threads");
        assert_eq!(counts, want_counts, "spark records at {threads} threads");
        let (pairs, counts) = counted(|| ispmc(&dfs, threads).unwrap());
        assert_eq!(pairs, ispmc_1, "ispmc pairs at {threads} threads");
        assert_eq!(counts, want_counts, "ispmc records at {threads} threads");
    }
}

#[test]
fn corrupt_right_replica_fails_over_bit_identically() {
    let dfs = dfs(3);
    let clean_spark = spark(&dfs, 1).unwrap();
    let clean_ispmc = ispmc(&dfs, 1).unwrap();
    dfs.corrupt_replica(RIGHT, 5, 0).unwrap();
    for threads in [1, 4] {
        let before = obs::thread_snapshot();
        assert_eq!(
            spark(&dfs, threads).unwrap(),
            clean_spark,
            "spark at {threads}"
        );
        assert_eq!(
            ispmc(&dfs, threads).unwrap(),
            clean_ispmc,
            "ispmc at {threads}"
        );
        let failed_over = obs::thread_snapshot().minus(&before).blocks_failed_over;
        assert_eq!(failed_over, 2, "one fail-over per system at {threads}");
    }
}

#[test]
fn unrecoverable_right_block_fails_the_join() {
    let dfs = dfs(3);
    dfs.corrupt_block(RIGHT, 5).unwrap();
    for threads in [1, 4] {
        assert!(spark(&dfs, threads).is_err(), "spark at {threads}");
        assert!(ispmc(&dfs, threads).is_err(), "ispmc at {threads}");
    }
}
