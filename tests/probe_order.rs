//! The broadcast tree probe visits the left side in Z-order and
//! scatters its pairs back to input order. This property suite pins
//! that down: `PreparedSet::par_probe_observed` returns exactly the
//! pairs, in exactly the order, of a serial input-order loop of
//! `PreparedSet::probe_into`, for every predicate, thread count and
//! morsel size, on left sides with duplicate ids, coincident points,
//! points outside every envelope and degenerate extents.

use geom::engine::{PreparedEngine, SpatialPredicate};
use geom::{Geometry, LineString, Point, Polygon};
use proph::{check_with, f64_range, i64_range, usize_range, vec_of, Config, Gen, GenExt};
use spatialjoin::parallel::{probe_order, MorselConfig, PreparedSet};
use spatialjoin::{GeomRecord, JoinPair, PointRecord};

/// A right record: a regular polygon, a zigzag polyline (short ones stay
/// in one segment block, long ones span several) or a lone segment.
fn right_record() -> impl Gen<Value = (usize, f64, f64, f64, usize)> {
    (
        usize_range(0, 3),
        f64_range(0.0, 100.0),
        f64_range(0.0, 100.0),
        f64_range(1.0, 30.0),
        usize_range(3, 24),
    )
}

fn right_geometry((kind, cx, cy, r, n): (usize, f64, f64, f64, usize)) -> Geometry {
    let ring = |k: usize| {
        let theta = std::f64::consts::TAU * k as f64 / n as f64;
        [cx + r * theta.cos(), cy + r * theta.sin()]
    };
    match kind {
        0 => {
            let mut coords: Vec<f64> = (0..n).flat_map(ring).collect();
            coords.extend(ring(0));
            Geometry::Polygon(Polygon::from_coords(coords, vec![]).expect("regular polygon"))
        }
        1 => {
            let coords = (0..n)
                .flat_map(|k| [cx + k as f64 * r / n as f64, cy + (k % 2) as f64 * r / 4.0])
                .collect();
            Geometry::LineString(LineString::new(coords).expect("two or more points"))
        }
        _ => Geometry::LineString(
            LineString::new(vec![cx, cy, cx + r, cy - r / 2.0]).expect("a segment"),
        ),
    }
}

/// Left points on a coarse grid reaching well past the right extent,
/// so equal draws give coincident points and the margins give points
/// outside every envelope. Ids repeat. Shape 1 keeps one point; shape
/// 2 puts every point on one vertical line.
fn left_side() -> impl Gen<Value = Vec<PointRecord>> {
    (
        usize_range(0, 3),
        vec_of(
            (i64_range(0, 20), usize_range(0, 30), usize_range(0, 30)),
            1,
            300,
        ),
    )
        .map(|(shape, draws)| {
            let mut left: Vec<PointRecord> = draws
                .into_iter()
                .map(|(id, gx, gy)| {
                    let x = if shape == 2 {
                        42.0
                    } else {
                        -150.0 + 14.0 * gx as f64
                    };
                    (id, Point::new(x, -150.0 + 14.0 * gy as f64))
                })
                .collect();
            if shape == 1 {
                left.truncate(1);
            }
            left
        })
}

/// The reference: one `probe_into` per point, in input order.
fn serial(set: &PreparedSet<PreparedEngine>, left: &[PointRecord]) -> Vec<JoinPair> {
    let mut out = Vec::new();
    for &(id, p) in left {
        set.probe_into(&PreparedEngine, id, p, &mut out);
    }
    out
}

#[test]
fn z_ordered_probe_equals_the_input_order_loop() {
    let cases = (
        vec_of(right_record(), 1, 12),
        left_side(),
        f64_range(0.5, 20.0),
    );
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    check_with(cfg, "z_ordered_probe", &cases, |(specs, left, d)| {
        let right: Vec<GeomRecord> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| ((i % 5) as i64, right_geometry(spec)))
            .collect();
        for predicate in [
            SpatialPredicate::Within,
            SpatialPredicate::NearestD(d),
            SpatialPredicate::Nearest(d),
        ] {
            let set = PreparedSet::prepare(&right, predicate, &PreparedEngine);
            let expected = serial(&set, &left);
            for threads in [1, 2, 3] {
                for morsel_size in [1, 7, 2048] {
                    let cfg = MorselConfig {
                        threads,
                        morsel_size,
                    };
                    let (pairs, timings, _) = set.par_probe_observed(&left, &PreparedEngine, cfg);
                    assert_eq!(
                        pairs, expected,
                        "{predicate:?} threads={threads} morsel={morsel_size}"
                    );
                    assert_eq!(timings.len(), left.len().div_ceil(morsel_size));
                }
            }
        }
    });
}

#[test]
fn probe_order_is_a_permutation_that_fixes_sorted_input() {
    check_with(
        Config {
            cases: 64,
            ..Config::default()
        },
        "probe_order_permutation",
        &left_side(),
        |left| {
            let order = probe_order(&left);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert!(seen.iter().enumerate().all(|(i, &k)| k as usize == i));
            let sorted: Vec<PointRecord> = order.iter().map(|&i| left[i as usize]).collect();
            let again = probe_order(&sorted);
            assert!(again.iter().enumerate().all(|(i, &k)| k as usize == i));
        },
    );
}

#[test]
fn probe_order_survives_non_finite_coordinates() {
    let left: Vec<PointRecord> = [
        (0.0, 0.0),
        (f64::NAN, 1.0),
        (f64::INFINITY, 2.0),
        (3.0, f64::NEG_INFINITY),
        (1.0, 1.0),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(x, y))| (i as i64, Point::new(x, y)))
    .collect();
    let mut order = probe_order(&left);
    order.sort_unstable();
    assert_eq!(order, vec![0, 1, 2, 3, 4]);
    assert!(probe_order(&[]).is_empty());
}
