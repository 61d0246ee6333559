//! Cross-system agreement: SpatialSpark, ISP-MC and the serial
//! reference join must produce identical pairs on every experiment of
//! the paper, across all three refinement engines.

use geom::engine::RefinementEngine;
use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, SpatialPredicate};
use minihdfs::MiniDfs;
use spatialjoin::{
    normalize_pairs, GeomRecord, IspMc, JoinRequest, PointRecord, RecordReader, SpatialSpark,
};

struct Fixture {
    dfs: MiniDfs,
}

/// Small versions of the paper's datasets (points scaled way down,
/// right sides scaled down too so this stays a fast test).
fn fixture() -> Fixture {
    let dfs = MiniDfs::new(6, 32 * 1024).unwrap();
    let taxi = datagen::taxi::geometries(5_000, 99);
    let gbif = datagen::gbif::geometries(2_000, 99);
    let nycb = datagen::nycb::geometries(800, 99);
    let lion = datagen::lion::geometries(2_000, 99);
    let wwf = datagen::wwf::geometries(300, 99);
    datagen::write_dataset(&dfs, "/taxi", &taxi).unwrap();
    datagen::write_dataset(&dfs, "/gbif", &gbif).unwrap();
    datagen::write_dataset(&dfs, "/nycb", &nycb).unwrap();
    datagen::write_dataset(&dfs, "/lion", &lion).unwrap();
    datagen::write_dataset(&dfs, "/wwf", &wwf).unwrap();
    Fixture { dfs }
}

fn read(dfs: &MiniDfs, left: &str, right: &str) -> (Vec<PointRecord>, Vec<GeomRecord>) {
    let reader = RecordReader::new(1);
    (
        reader.read_points(&dfs.read_all_lines(left).unwrap()).0,
        reader.read_geoms(&dfs.read_all_lines(right).unwrap()).0,
    )
}

fn broadcast<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> Vec<(i64, i64)> {
    let join = JoinRequest::new(left, right, engine).predicate(predicate);
    normalize_pairs(join.run().pairs)
}

fn serial_reference(
    dfs: &MiniDfs,
    left: &str,
    right: &str,
    predicate: SpatialPredicate,
) -> Vec<(i64, i64)> {
    let (left_recs, right_recs) = read(dfs, left, right);
    broadcast(&left_recs, &right_recs, predicate, &PreparedEngine)
}

fn check_experiment(
    fx: &Fixture,
    left: (&'static str, &'static str),
    right: (&'static str, &'static str),
    predicate: SpatialPredicate,
) {
    let reference = serial_reference(&fx.dfs, left.1, right.1, predicate);
    assert!(
        !reference.is_empty(),
        "experiment {}-{} produced no pairs; fixture broken",
        left.0,
        right.0
    );

    let spark = SpatialSpark::new(sparklet::SparkConf::default(), fx.dfs.clone());
    let spark_run = spark
        .broadcast_spatial_join(left.1, right.1, predicate)
        .unwrap();
    assert_eq!(
        normalize_pairs(spark_run.pairs.clone()),
        reference,
        "SpatialSpark disagrees with serial reference on {}-{}",
        left.0,
        right.0
    );

    let ispmc = IspMc::new(
        impalite::ImpaladConf::default(),
        fx.dfs.clone(),
        left,
        right,
    );
    let ispmc_run = ispmc.spatial_join(left.0, right.0, predicate).unwrap();
    assert_eq!(
        normalize_pairs(ispmc_run.pairs().to_vec()),
        reference,
        "ISP-MC disagrees with serial reference on {}-{}",
        left.0,
        right.0
    );
}

#[test]
fn taxi_nycb_within_agrees() {
    let fx = fixture();
    check_experiment(
        &fx,
        ("taxi", "/taxi"),
        ("nycb", "/nycb"),
        SpatialPredicate::Within,
    );
}

#[test]
fn taxi_lion_100ft_agrees() {
    let fx = fixture();
    check_experiment(
        &fx,
        ("taxi", "/taxi"),
        ("lion", "/lion"),
        SpatialPredicate::NearestD(100.0),
    );
}

#[test]
fn taxi_lion_500ft_agrees() {
    let fx = fixture();
    check_experiment(
        &fx,
        ("taxi", "/taxi"),
        ("lion", "/lion"),
        SpatialPredicate::NearestD(500.0),
    );
}

#[test]
fn gbif_wwf_within_agrees() {
    let fx = fixture();
    check_experiment(
        &fx,
        ("gbif", "/gbif"),
        ("wwf", "/wwf"),
        SpatialPredicate::Within,
    );
}

#[test]
fn all_three_engines_agree_on_real_shaped_data() {
    let fx = fixture();
    let (left, right) = read(&fx.dfs, "/gbif", "/wwf");
    let within = SpatialPredicate::Within;
    let a = broadcast(&left, &right, within, &PreparedEngine);
    let b = broadcast(&left, &right, within, &FlatEngine);
    let c = broadcast(&left, &right, within, &NaiveEngine);
    assert_eq!(a, b, "prepared vs flat");
    assert_eq!(a, c, "prepared vs naive");
}

/// ISP-MC runs the direct path's join: at any thread count its pairs
/// are exactly the `JoinRequest` pairs on the same engine, order
/// included, not just the same set.
#[test]
fn ispmc_pairs_equal_join_request_pairs_in_order() {
    let fx = fixture();
    for (left, right, predicate) in [
        (
            ("taxi", "/taxi"),
            ("nycb", "/nycb"),
            SpatialPredicate::Within,
        ),
        (
            ("taxi", "/taxi"),
            ("lion", "/lion"),
            SpatialPredicate::NearestD(500.0),
        ),
    ] {
        let (l, r) = read(&fx.dfs, left.1, right.1);
        let want = JoinRequest::new(&l, &r, &NaiveEngine)
            .predicate(predicate)
            .run()
            .pairs;
        assert!(
            !want.is_empty(),
            "{}-{} fixture must match",
            left.0,
            right.0
        );
        for threads in [1, 2, 7] {
            let conf = impalite::ImpaladConf {
                threads,
                ..impalite::ImpaladConf::default()
            };
            let run = IspMc::new(conf, fx.dfs.clone(), left, right)
                .spatial_join(left.0, right.0, predicate)
                .unwrap();
            assert_eq!(
                run.pairs(),
                want.as_slice(),
                "{}-{} at {threads} threads",
                left.0,
                right.0
            );
        }
    }
}
