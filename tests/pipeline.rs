//! End-to-end pipeline tests across crates: datagen → minihdfs →
//! engines → aggregation, plus the sparklet dataset API on its own.

use minihdfs::MiniDfs;
use sparklet::{SparkConf, SparkContext};
use spatialjoin::{SpatialPredicate, SpatialSpark};

#[test]
fn datasets_survive_dfs_round_trip_at_scale() {
    let dfs = MiniDfs::new(10, 8 * 1024).unwrap();
    let taxi = datagen::taxi::geometries(10_000, 77);
    let stat = datagen::write_dataset(&dfs, "/taxi", &taxi).unwrap();
    assert_eq!(stat.total_records, 10_000);
    assert!(stat.num_blocks > 10, "file must split into many blocks");

    // Every record parses back to its original geometry.
    let lines = dfs.read_all_lines("/taxi").unwrap();
    assert_eq!(lines.len(), 10_000);
    for (i, line) in lines.iter().enumerate().step_by(997) {
        let wkt = line.split('\t').nth(1).unwrap();
        assert_eq!(&geom::wkt::parse(wkt).unwrap(), &taxi[i]);
    }
}

#[test]
fn sparklet_pipeline_mirrors_fig2_structure() {
    // The Fig. 2 skeleton as raw dataset operations: textFile → map
    // (split) → zipWithIndex → parse → filter.
    let dfs = MiniDfs::new(4, 4 * 1024).unwrap();
    datagen::write_dataset(&dfs, "/pts", &datagen::taxi::geometries(2_000, 3)).unwrap();
    let sc = SparkContext::new(SparkConf::default(), dfs);

    let lines = sc.text_file("/pts").unwrap();
    let split = lines.map("split", |l: &String| {
        l.split('\t').map(str::to_string).collect::<Vec<_>>()
    });
    let indexed = split.zip_with_index();
    let parsed = indexed.map("parse", |(idx, cols): &(u64, Vec<String>)| {
        (*idx, geom::wkt::parse(&cols[1]))
    });
    let ok = parsed.filter("isSuccess", |(_, g)| g.is_ok());
    assert_eq!(ok.count(), 2_000);

    // The job report captured one stage per transformation.
    let names: Vec<String> = sc
        .job_report()
        .stages
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert_eq!(names, vec!["split", "zipWithIndex", "parse", "isSuccess"]);
}

#[test]
fn hotspot_aggregation_end_to_end() {
    let dfs = MiniDfs::new(4, 32 * 1024).unwrap();
    datagen::write_dataset(&dfs, "/taxi", &datagen::taxi::geometries(20_000, 13)).unwrap();
    datagen::write_dataset(&dfs, "/nycb", &datagen::nycb::geometries(1_000, 13)).unwrap();

    let spark = SpatialSpark::new(SparkConf::default(), dfs);
    let run = spark
        .broadcast_spatial_join("/taxi", "/nycb", SpatialPredicate::Within)
        .unwrap();

    // nycb tiles the full extent, so nearly every pickup matches
    // exactly one block.
    assert!(run.pair_count() > 19_000);
    let unique_left: std::collections::HashSet<i64> = run.pairs.iter().map(|&(l, _)| l).collect();
    // A point on a shared block boundary can match two blocks; pairs
    // may slightly exceed unique points but never the reverse.
    assert!(run.pair_count() >= unique_left.len());

    // Hotspot structure shows up in the aggregate.
    let mut per_block = std::collections::HashMap::new();
    for &(_, b) in &run.pairs {
        *per_block.entry(b).or_insert(0usize) += 1;
    }
    let max = per_block.values().max().copied().unwrap_or(0);
    let avg = run.pair_count() / per_block.len().max(1);
    assert!(
        max > avg * 3,
        "taxi pickups must be skewed: max {max} vs avg {avg}"
    );
}
