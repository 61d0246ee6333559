//! Equivalence of the morsel-parallel executor with the serial joins,
//! on the in-tree `proph` harness plus fixed adversarial cases.
//!
//! The contract under test (see `DESIGN.md`): a broadcast
//! `JoinRequest` is **bit-identical** to the serial loop of
//! `PreparedSet::probe_into` in input order — same pairs, same order —
//! at every thread count and morsel size, for every predicate, the
//! arg-min `Nearest` included.

use geom::engine::{PreparedEngine, SpatialPredicate};
use geom::{Envelope, Geometry, Point, Polygon};
use proph::{check_with, f64_range, usize_range, vec_of, Config, Gen, GenExt};
use spatialjoin::{GeomRecord, JoinPair, JoinRequest, MorselConfig, PointRecord, PreparedSet};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];
const PREDICATES: [SpatialPredicate; 3] = [
    SpatialPredicate::Within,
    SpatialPredicate::NearestD(3.0),
    SpatialPredicate::Nearest(3.0),
];

/// Generator: left points in a compact window so joins actually match.
fn left_points() -> impl Gen<Value = Vec<PointRecord>> {
    vec_of((f64_range(0.0, 40.0), f64_range(0.0, 40.0)), 0, 120).map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| (i as i64, Point::new(x, y)))
            .collect()
    })
}

/// Generator: axis-aligned rectangles as the right side.
fn right_rects() -> impl Gen<Value = Vec<GeomRecord>> {
    vec_of(
        (
            f64_range(0.0, 35.0),
            f64_range(0.0, 35.0),
            f64_range(0.5, 12.0),
            f64_range(0.5, 12.0),
        ),
        0,
        25,
    )
    .map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| {
                let env = Envelope::new(x, y, x + w, y + h);
                (i as i64, Geometry::Polygon(Polygon::rectangle(env)))
            })
            .collect()
    })
}

/// The serial reference loop: a one-thread build of the right side,
/// every left point probed in input order.
fn serial_join(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
) -> Vec<JoinPair> {
    let set = PreparedSet::prepare(right, predicate, &PreparedEngine);
    let mut out = Vec::new();
    for &(id, p) in left {
        set.probe_into(&PreparedEngine, id, p, &mut out);
    }
    out
}

fn broadcast_join(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    cfg: MorselConfig,
) -> Vec<JoinPair> {
    JoinRequest::new(left, right, &PreparedEngine)
        .predicate(predicate)
        .config(cfg)
        .run()
        .pairs
}

fn small_config() -> Config {
    // Each case sweeps 3 thread counts × 3 predicates, with
    // real thread spawns — keep the case budget modest.
    Config {
        cases: 24,
        ..Config::default()
    }
}

fn assert_broadcast_equivalence(left: &[PointRecord], right: &[GeomRecord], morsel_size: usize) {
    for predicate in PREDICATES {
        let serial = serial_join(left, right, predicate);
        for threads in THREAD_COUNTS {
            let cfg = MorselConfig {
                threads,
                morsel_size,
            };
            let par = broadcast_join(left, right, predicate, cfg);
            assert_eq!(
                par, serial,
                "broadcast: threads={threads} morsel={morsel_size} {predicate:?}"
            );
        }
    }
}

#[test]
fn prop_parallel_broadcast_is_bit_identical_to_serial() {
    check_with(
        small_config(),
        "parallel broadcast ≡ serial probe loop",
        &(left_points(), right_rects(), usize_range(1, 64)),
        |(left, right, morsel_size)| {
            assert_broadcast_equivalence(&left, &right, morsel_size);
        },
    );
}

// --- fixed adversarial cases ---

#[test]
fn empty_sides_are_equivalent() {
    let some_left = vec![(0i64, Point::new(1.0, 1.0))];
    let some_right: Vec<GeomRecord> = vec![(
        0,
        Geometry::Polygon(Polygon::rectangle(Envelope::new(0.0, 0.0, 2.0, 2.0))),
    )];
    assert_broadcast_equivalence(&[], &[], 7);
    assert_broadcast_equivalence(&some_left, &[], 7);
    assert_broadcast_equivalence(&[], &some_right, 7);
}

#[test]
fn all_points_in_one_cell_are_equivalent() {
    // Every left point lies in one tiny patch of space: the skewed
    // case where a few morsels carry all the work.
    let left: Vec<PointRecord> = (0..200)
        .map(|i| (i as i64, Point::new(5.0 + (i as f64) * 1e-3, 5.0)))
        .collect();
    let right: Vec<GeomRecord> = (0..4)
        .map(|i| {
            let x0 = (i as f64) * 2.0;
            (
                i as i64,
                Geometry::Polygon(Polygon::rectangle(Envelope::new(x0, 0.0, x0 + 3.0, 10.0))),
            )
        })
        .collect();
    assert_broadcast_equivalence(&left, &right, 16);
}

#[test]
fn nearest_ties_resolve_identically_in_parallel() {
    // Equidistant rectangles either side of each point: Nearest must
    // pick the smaller right id, and NearestD must emit both — in the
    // same order serially and in parallel.
    let left: Vec<PointRecord> = (0..64)
        .map(|i| (i as i64, Point::new(10.0 * i as f64 + 5.0, 5.0)))
        .collect();
    let mut right: Vec<GeomRecord> = Vec::new();
    for i in 0..64i64 {
        let x = 10.0 * i as f64;
        // Two 1×10 slabs exactly 4 units left and right of the point.
        right.push((
            2 * i + 1,
            Geometry::Polygon(Polygon::rectangle(Envelope::new(x, 0.0, x + 1.0, 10.0))),
        ));
        right.push((
            2 * i,
            Geometry::Polygon(Polygon::rectangle(Envelope::new(
                x + 9.0,
                0.0,
                x + 10.0,
                10.0,
            ))),
        ));
    }
    for predicate in [
        SpatialPredicate::Nearest(6.0),
        SpatialPredicate::NearestD(6.0),
    ] {
        let serial = serial_join(&left, &right, predicate);
        for threads in THREAD_COUNTS {
            let cfg = MorselConfig {
                threads,
                morsel_size: 5,
            };
            let par = broadcast_join(&left, &right, predicate, cfg);
            assert_eq!(par, serial, "ties: threads={threads} {predicate:?}");
        }
    }
}
