//! Property-based tests for the extension modules: the STR partitioner,
//! simplification, binary codec and trajectories, running on the
//! in-tree `proph` harness.

use geom::algorithms::simplify::simplify_points;
use geom::{Envelope, LineString, Point, Trajectory};
use proph::{check_with, f64_range, vec_of, Config, Gen, GenExt};
use rtree::StrPartitioner;

/// 96 cases to match the original suite's budget.
fn check<G, P>(name: &str, gen: &G, prop: P)
where
    G: Gen,
    G::Value: std::fmt::Debug,
    P: Fn(G::Value),
{
    check_with(
        Config {
            cases: 96,
            ..Config::default()
        },
        name,
        gen,
        prop,
    );
}

fn coord() -> impl Gen<Value = f64> {
    f64_range(-100.0, 100.0)
}

fn points(n: usize) -> impl Gen<Value = Vec<Point>> {
    vec_of((coord(), coord()), 3, n - 1)
        .map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

// --- partitioner ---

#[test]
fn str_partitioner_owns_every_interior_point() {
    check(
        "str_partitioner_owns_every_interior_point",
        &(points(200), points(50)),
        |(sample, probes)| {
            let extent = Envelope::new(-100.0, -100.0, 100.0, 100.0);
            let p = StrPartitioner::build(extent, &sample, 16);
            for probe in probes {
                let cell = p.cell_of(probe).expect("interior point must be owned");
                assert!(p.cells()[cell].contains(probe.x, probe.y));
                // The owning cell is among the cells any envelope around the
                // point routes to — the partitioned-join invariant.
                let routed = p.cells_intersecting(&Envelope::of_point(probe).expanded_by(1.0));
                assert!(routed.contains(&cell));
            }
        },
    );
}

// --- simplification ---

#[test]
fn simplification_error_is_bounded() {
    check(
        "simplification_error_is_bounded",
        &(points(60), f64_range(0.01, 5.0)),
        |(pts, tol)| {
            let kept = simplify_points(&pts, tol);
            assert!(kept.len() >= 2);
            assert_eq!(kept[0], pts[0]);
            assert_eq!(*kept.last().unwrap(), *pts.last().unwrap());
            if kept.len() >= 2 {
                let chain = LineString::from_points(&kept).unwrap();
                for p in &pts {
                    assert!(chain.distance_to_point(*p) <= tol + 1e-9);
                }
            }
        },
    );
}

// --- trajectories ---

#[test]
fn trajectory_record_round_trip() {
    check(
        "trajectory_record_round_trip",
        &(
            points(20),
            f64_range(0.1, 100.0),
            proph::i64_range(0, 1_000_000),
        ),
        |(pts, dt, id)| {
            let coords: Vec<f64> = pts.iter().flat_map(|p| [p.x, p.y]).collect();
            let path = LineString::new(coords).unwrap();
            let times: Vec<f64> = (0..path.num_points()).map(|i| i as f64 * dt).collect();
            let t = Trajectory::new(path, times).unwrap();
            let (rid, back) = Trajectory::from_record(&t.to_record(id)).unwrap();
            assert_eq!(rid, id);
            assert_eq!(back, t);
        },
    );
}

#[test]
fn trajectory_position_interpolates_between_samples() {
    check(
        "trajectory_position_interpolates_between_samples",
        &(points(10), f64_range(1.0, 10.0)),
        |(pts, dt)| {
            let coords: Vec<f64> = pts.iter().flat_map(|p| [p.x, p.y]).collect();
            let path = LineString::new(coords).unwrap();
            let n = path.num_points();
            let times: Vec<f64> = (0..n).map(|i| i as f64 * dt).collect();
            let t = Trajectory::new(path.clone(), times).unwrap();
            // At sample instants, position equals the sample.
            for i in 0..n {
                let p = t.position_at(i as f64 * dt);
                assert!((p.x - path.point(i).x).abs() < 1e-9);
                assert!((p.y - path.point(i).y).abs() < 1e-9);
            }
            // Between samples, position lies on the segment.
            for i in 0..n - 1 {
                let mid = t.position_at((i as f64 + 0.5) * dt);
                let d = geom::algorithms::segment::point_segment_distance(
                    mid,
                    path.point(i),
                    path.point(i + 1),
                );
                assert!(d < 1e-9);
            }
        },
    );
}
