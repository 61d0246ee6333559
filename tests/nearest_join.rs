//! The nearest-one join extension (`ST_NEAREST`): at most one pair per
//! point, and it is the true nearest.

use geom::engine::RefinementEngine;
use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, SpatialPredicate};
use minihdfs::MiniDfs;
use spatialjoin::{GeomRecord, IspMc, JoinPair, JoinRequest, PointRecord, RecordReader};

type Records = (Vec<(i64, geom::Point)>, Vec<(i64, geom::Geometry)>);

/// The arg-min nearest join: one nearest right geometry within
/// `max_distance` per point.
fn nearest_one<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    max_distance: f64,
    engine: &E,
) -> Vec<JoinPair> {
    JoinRequest::new(left, right, engine)
        .predicate(SpatialPredicate::Nearest(max_distance))
        .run()
        .pairs
}

fn fixture() -> Records {
    let left: Vec<(i64, geom::Point)> = datagen::taxi::points(3_000, 31)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as i64, p))
        .collect();
    let right: Vec<(i64, geom::Geometry)> = datagen::lion::geometries(3_000, 31)
        .into_iter()
        .enumerate()
        .map(|(i, g)| (i as i64, g))
        .collect();
    (left, right)
}

#[test]
fn at_most_one_pair_per_point_and_it_is_the_nearest() {
    let (left, right) = fixture();
    let pairs = nearest_one(&left, &right, 500.0, &PreparedEngine);

    // Uniqueness per left id.
    let mut seen = std::collections::HashSet::new();
    for &(lid, _) in &pairs {
        assert!(seen.insert(lid), "point {lid} matched more than once");
    }

    // Correctness against brute force.
    let emitted: std::collections::HashMap<i64, i64> = pairs.iter().copied().collect();
    for &(lid, p) in &left {
        let mut best: Option<(f64, i64)> = None;
        for (rid, g) in &right {
            let d = g.distance_to_point(p);
            if d <= 500.0 {
                let better = match best {
                    None => true,
                    Some((bd, bid)) => d < bd || (d == bd && *rid < bid),
                };
                if better {
                    best = Some((d, *rid));
                }
            }
        }
        assert_eq!(
            emitted.get(&lid).copied(),
            best.map(|(_, rid)| rid),
            "wrong nearest for point {lid}"
        );
    }
}

#[test]
fn engines_agree_on_nearest() {
    let (left, right) = fixture();
    let a = spatialjoin::normalize_pairs(nearest_one(&left, &right, 300.0, &PreparedEngine));
    let b = spatialjoin::normalize_pairs(nearest_one(&left, &right, 300.0, &FlatEngine));
    let c = spatialjoin::normalize_pairs(nearest_one(&left, &right, 300.0, &NaiveEngine));
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn st_nearest_runs_through_sql() {
    let dfs = MiniDfs::new(4, 32 * 1024).unwrap();
    datagen::write_dataset(&dfs, "/pnt", &datagen::taxi::geometries(2_000, 31)).unwrap();
    datagen::write_dataset(&dfs, "/lion", &datagen::lion::geometries(2_000, 31)).unwrap();
    let sys = IspMc::new(
        impalite::ImpaladConf::default(),
        dfs.clone(),
        ("pnt", "/pnt"),
        ("lion", "/lion"),
    );
    let run = sys
        .execute_sql(
            "SELECT pnt.id, lion.id FROM pnt SPATIAL JOIN lion \
             WHERE ST_NEAREST (pnt.geom, lion.geom, 500)",
        )
        .unwrap();
    // Compare against the serial reference.
    let reader = RecordReader::new(1);
    let left = reader.read_points(&dfs.read_all_lines("/pnt").unwrap()).0;
    let right = reader.read_geoms(&dfs.read_all_lines("/lion").unwrap()).0;
    let reference =
        spatialjoin::normalize_pairs(nearest_one(&left, &right, 500.0, &PreparedEngine));
    assert_eq!(
        spatialjoin::normalize_pairs(run.pairs().to_vec()),
        reference
    );
    assert!(run.pair_count() <= left.len());
    assert!(run.pair_count() > 0);
}

#[test]
fn nearest_is_subset_of_nearestd() {
    let (left, right) = fixture();
    let nearest = nearest_one(&left, &right, 400.0, &PreparedEngine);
    let all_within: std::collections::HashSet<(i64, i64)> =
        JoinRequest::new(&left, &right, &PreparedEngine)
            .predicate(SpatialPredicate::NearestD(400.0))
            .run()
            .pairs
            .into_iter()
            .collect();
    for pair in &nearest {
        assert!(
            all_within.contains(pair),
            "nearest pair {pair:?} missing from within-D set"
        );
    }
    assert!(nearest.len() <= all_within.len());
}
