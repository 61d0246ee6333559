//! Fig. 1 of the paper: the two example SQL statements, verbatim
//! (modulo the table names), must parse, plan and execute.

use minihdfs::MiniDfs;
use spatialjoin::IspMc;

fn dfs_with_tables() -> MiniDfs {
    let dfs = MiniDfs::new(4, 32 * 1024).unwrap();
    datagen::write_dataset(&dfs, "/pnt", &datagen::taxi::geometries(2_000, 5)).unwrap();
    datagen::write_dataset(&dfs, "/poly", &datagen::nycb::geometries(500, 5)).unwrap();
    datagen::write_dataset(&dfs, "/lion", &datagen::lion::geometries(1_000, 5)).unwrap();
    dfs
}

#[test]
fn fig1_within_statement_runs() {
    let sys = IspMc::new(
        impalite::ImpaladConf::default(),
        dfs_with_tables(),
        ("pnt", "/pnt"),
        ("poly", "/poly"),
    );
    let run = sys
        .execute_sql(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
             WHERE ST_WITHIN (pnt.geom, poly.geom)",
        )
        .unwrap();
    assert!(run.pair_count() > 0);
    let explain = run.result.plan.explain();
    assert!(explain.contains("SPATIAL_JOIN Within"));
    assert!(explain.contains("EXCHANGE Broadcast"));
}

#[test]
fn fig1_nearestd_statement_runs() {
    let sys = IspMc::new(
        impalite::ImpaladConf::default(),
        dfs_with_tables(),
        ("pnt", "/pnt"),
        ("poly", "/lion"), // the lion table plays Fig 1's "poly"
    );
    let run = sys
        .execute_sql(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
             WHERE ST_NearestD (pnt.geom, poly.geom, 5000)",
        )
        .unwrap();
    assert!(run.pair_count() > 0);
    assert!(run
        .result
        .plan
        .explain()
        .contains("SPATIAL_JOIN NearestD(5000.0)"));
}

#[test]
fn fig1_results_match_distance_semantics() {
    // Every reported pair must actually satisfy the predicate; every
    // unreported near pair must not. Verified against brute force.
    let dfs = dfs_with_tables();
    let sys = IspMc::new(
        impalite::ImpaladConf::default(),
        dfs.clone(),
        ("pnt", "/pnt"),
        ("lion", "/lion"),
    );
    let run = sys
        .execute_sql(
            "SELECT pnt.id, lion.id FROM pnt SPATIAL JOIN lion \
             WHERE ST_NearestD (pnt.geom, lion.geom, 250)",
        )
        .unwrap();

    let reader = spatialjoin::RecordReader::new(1);
    let points = reader.read_points(&dfs.read_all_lines("/pnt").unwrap()).0;
    let lines = reader.read_geoms(&dfs.read_all_lines("/lion").unwrap()).0;
    let mut brute = Vec::new();
    for &(pid, p) in &points {
        for (lid, g) in &lines {
            if g.distance_to_point(p) <= 250.0 {
                brute.push((pid, *lid));
            }
        }
    }
    assert_eq!(
        spatialjoin::normalize_pairs(run.pairs().to_vec()),
        spatialjoin::normalize_pairs(brute)
    );
}
