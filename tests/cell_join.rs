//! Property tests for the cell-covering `Within` join, on the in-tree
//! `proph` harness.
//!
//! A broadcast `Within` request on `PreparedEngine` probes a cell
//! covering instead of the STR tree. The contract is bit-identity: its
//! pairs equal the hand-rolled one-thread `PreparedSet` probe loop
//! element for element, order included, at 1, 2 and 7 threads. The
//! inputs aim at the covering's weak spots: points on grid lines, on
//! polygon vertices and edges and a hair off them, shared edges of a
//! census-block tiling at NYC coordinate sizes, overlapping
//! multipolygon parts and holes, points outside the right extent,
//! zero-width and zero-height extents, a single right record and empty
//! sides.

use geom::engine::{PreparedEngine, SpatialPredicate};
use geom::{Envelope, Geometry, HasEnvelope, MultiPolygon, Point, Polygon};
use proph::{check_with, f64_range, usize_range, vec_of, Config, Gen, GenExt};
use spatialjoin::{CellCover, GeomRecord, JoinPair, JoinRequest, PointRecord, PreparedSet};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn cfg() -> Config {
    Config {
        cases: 48,
        ..Config::default()
    }
}

/// The STR reference loop, spelled out by hand.
fn reference(left: &[PointRecord], right: &[GeomRecord]) -> Vec<JoinPair> {
    let set = PreparedSet::prepare(right, SpatialPredicate::Within, &PreparedEngine);
    let mut out = Vec::new();
    for &(id, p) in left {
        set.probe_into(&PreparedEngine, id, p, &mut out);
    }
    out
}

/// Asserts the request took the cell path and matched the reference
/// at every thread count.
fn assert_cell_join_matches(left: &[PointRecord], right: &[GeomRecord]) {
    let expected = reference(left, right);
    for threads in THREAD_COUNTS {
        let outcome = JoinRequest::new(left, right, &PreparedEngine)
            .threads(threads)
            .run();
        assert!(outcome.stats.span("cover").is_some(), "no cell path");
        assert_eq!(outcome.stats.counters.node_visits, 0);
        assert_eq!(
            outcome.pairs, expected,
            "cell join diverged at {threads} threads"
        );
    }
}

/// The grid the request covers `right` on.
fn grid_of(right: &[GeomRecord]) -> geom::cells::CellGrid {
    let set = PreparedSet::prepare(right, SpatialPredicate::Within, &PreparedEngine);
    *CellCover::build(&set, &PreparedEngine, 1)
        .expect("PreparedEngine covers Within")
        .grid()
}

/// Points on every grid line: each line crossing, plus each line at
/// the given fractions of the extent along the other axis.
fn grid_line_points(right: &[GeomRecord], fractions: &[f64]) -> Vec<Point> {
    let grid = grid_of(right);
    let e = grid.extent();
    let side = grid.side();
    let line = |min: f64, len: f64, k: u32| min + len * f64::from(k) / f64::from(side);
    let mut out = Vec::new();
    for k in 0..=side {
        let x = line(e.min_x, e.width(), k);
        let y = line(e.min_y, e.height(), k);
        for j in 0..=side {
            out.push(Point::new(x, line(e.min_y, e.height(), j)));
        }
        for &f in fractions {
            out.push(Point::new(x, e.min_y + f * e.height()));
            out.push(Point::new(e.min_x + f * e.width(), y));
        }
    }
    out
}

/// Every vertex, a hair either side of it, and points a third and a
/// half along every edge.
fn boundary_points(right: &[GeomRecord]) -> Vec<Point> {
    let mut out = Vec::new();
    let mut ring = |coords: &[f64]| {
        for w in coords.chunks_exact(2).collect::<Vec<_>>().windows(2) {
            let (a, b) = (Point::new(w[0][0], w[0][1]), Point::new(w[1][0], w[1][1]));
            out.push(a);
            out.push(Point::new(a.x.next_up(), a.y.next_down()));
            out.push(Point::new(a.x.next_down(), a.y.next_up()));
            for t in [1.0 / 3.0, 0.5] {
                out.push(Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)));
            }
        }
    };
    for (_, g) in right {
        let polys: &[Polygon] = match g {
            Geometry::Polygon(p) => std::slice::from_ref(p),
            Geometry::MultiPolygon(mp) => &mp.polygons,
            _ => &[],
        };
        for p in polys {
            ring(p.exterior().coords());
            for h in p.holes() {
                ring(h.coords());
            }
        }
    }
    out
}

fn records(points: impl IntoIterator<Item = Point>) -> Vec<PointRecord> {
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as i64, p))
        .collect()
}

/// A star-shaped ring around `(cx, cy)`: vertex `k` at angle `2πk/n`
/// and radius `r · radii[k]`.
fn star(cx: f64, cy: f64, r: f64, radii: &[f64]) -> Vec<f64> {
    let n = radii.len() as f64;
    radii
        .iter()
        .enumerate()
        .flat_map(|(k, f)| {
            let a = std::f64::consts::TAU * k as f64 / n;
            [cx + r * f * a.cos(), cy + r * f * a.sin()]
        })
        .collect()
}

/// One right shape: a star, a star with a star hole inside its
/// smallest radius, or two overlapping stars (each with a hole) as one
/// multipolygon. Coordinates sit at NYC magnitudes.
fn shape() -> impl Gen<Value = Geometry> {
    (
        f64_range(0.0, 1.0),
        f64_range(0.0, 1.0),
        f64_range(0.03, 0.4),
        vec_of(f64_range(0.3, 1.0), 3, 12),
        usize_range(0, 3),
    )
        .map(|(cx, cy, r, radii, kind)| {
            const SCALE: f64 = 1.2e5;
            let (cx, cy, r) = (cx * SCALE, cy * SCALE, r * SCALE);
            let shell = |cx, cy| star(cx, cy, r, &radii);
            let hole = |cx, cy| star(cx, cy, 0.25 * r, &[1.0; 7]);
            let poly = |ext, holes| Polygon::from_coords(ext, holes).expect("valid ring");
            match kind {
                0 => Geometry::Polygon(poly(shell(cx, cy), vec![])),
                1 => Geometry::Polygon(poly(shell(cx, cy), vec![hole(cx, cy)])),
                _ => Geometry::MultiPolygon(MultiPolygon::new(vec![
                    poly(shell(cx, cy), vec![hole(cx, cy)]),
                    poly(
                        shell(cx + 0.3 * r, cy + 0.2 * r),
                        vec![hole(cx + 0.3 * r, cy + 0.2 * r)],
                    ),
                ])),
            }
        })
}

#[test]
fn cell_join_matches_str_probe_on_stars_holes_and_overlapping_parts() {
    check_with(
        cfg(),
        "cell_join_matches_str_probe_on_stars_holes_and_overlapping_parts",
        &(
            vec_of(shape(), 1, 8),
            vec_of((f64_range(-0.2, 1.2), f64_range(-0.2, 1.2)), 0, 60),
        ),
        |(shapes, loose)| {
            let right: Vec<GeomRecord> = shapes
                .into_iter()
                .enumerate()
                .map(|(i, g)| (i as i64 * 3 + 1, g))
                .collect();
            let extent = right
                .iter()
                .fold(Envelope::EMPTY, |e, (_, g)| e.union(&g.envelope()));
            let mut points = boundary_points(&right);
            points.extend(grid_line_points(&right, &[0.1, 0.37, 0.5, 0.81]));
            // Uniform points over a window wider than the right extent.
            points.extend(loose.into_iter().map(|(fx, fy)| {
                Point::new(
                    extent.min_x + fx * extent.width(),
                    extent.min_y + fy * extent.height(),
                )
            }));
            assert_cell_join_matches(&records(points), &right);
        },
    );
}

#[test]
fn cell_join_matches_str_probe_on_shared_edges_of_a_tiling() {
    check_with(
        Config {
            cases: 16,
            ..Config::default()
        },
        "cell_join_matches_str_probe_on_shared_edges_of_a_tiling",
        &(usize_range(1, 120), usize_range(0, 1 << 20)),
        |(n, seed)| {
            let right: Vec<GeomRecord> = datagen::nycb::geometries(n, seed as u64)
                .into_iter()
                .enumerate()
                .map(|(i, g)| (i as i64, g))
                .collect();
            let mut points = boundary_points(&right);
            points.extend(grid_line_points(&right, &[0.0, 0.25, 0.5, 1.0]));
            assert_cell_join_matches(&records(points), &right);
        },
    );
}

#[test]
fn cell_join_matches_str_probe_on_zero_width_and_zero_height_extents() {
    // Rings collapsed onto one vertical or one horizontal line: every
    // right envelope, and so the grid's extent, has no width (height).
    let flat = |coords: Vec<f64>| Geometry::Polygon(Polygon::from_coords(coords, vec![]).unwrap());
    let vertical: Vec<GeomRecord> = vec![
        (1, flat(vec![2.0, 0.0, 2.0, 3.0, 2.0, 1.0, 2.0, 0.0])),
        (2, flat(vec![2.0, 2.5, 2.0, 8.0, 2.0, 4.0, 2.0, 2.5])),
    ];
    let horizontal: Vec<GeomRecord> = vec![
        (1, flat(vec![0.0, -4.0, 6.0, -4.0, 3.0, -4.0, 0.0, -4.0])),
        (2, flat(vec![5.0, -4.0, 9.0, -4.0, 7.0, -4.0, 5.0, -4.0])),
    ];
    for right in [vertical, horizontal] {
        let mut points = boundary_points(&right);
        points.extend(grid_line_points(&right, &[0.0, 0.3, 0.5, 1.0]));
        points.extend([
            Point::new(2.0, -4.0),
            Point::new(2.1, 1.0),
            Point::new(5.5, -3.9),
        ]);
        assert_cell_join_matches(&records(points), &right);
    }
}

#[test]
fn cell_join_matches_str_probe_within_the_tolerance_of_grid_aligned_edges() {
    // One record gets a 4 × 4 grid over its envelope, so every edge of
    // this holed square lies on a grid line. A point one ulp inside the
    // hole is on the hole's edge by the `point_on_segment` tolerance,
    // though it lands in a cell the edge itself does not reach.
    let holed = Polygon::from_coords(
        vec![0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0, 0.0, 0.0],
        vec![vec![1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 1.0, 3.0, 1.0, 1.0]],
    )
    .unwrap();
    let right: Vec<GeomRecord> = vec![(5, Geometry::Polygon(holed))];
    assert_eq!(grid_of(&right).side(), 4);
    let mut points = boundary_points(&right);
    points.extend(grid_line_points(&right, &[0.3, 0.5, 0.6]));
    for y in [1.5, 2.5] {
        points.push(Point::new(3.0f64.next_down(), y));
        points.push(Point::new(1.0f64.next_up(), y));
        points.push(Point::new(y, 3.0f64.next_down()));
    }
    let left = records(points);
    assert_cell_join_matches(&left, &right);
}

#[test]
fn cell_join_handles_a_single_record_and_empty_sides() {
    let square = Geometry::Polygon(Polygon::rectangle(Envelope::new(1.0, 1.0, 3.0, 3.0)));
    let right: Vec<GeomRecord> = vec![(9, square)];
    let mut points = boundary_points(&right);
    points.extend(grid_line_points(&right, &[0.0, 0.5, 0.9]));
    points.push(Point::new(2.0, 2.0));
    points.push(Point::new(-1.0, 2.0));
    let left = records(points);
    assert_cell_join_matches(&left, &right);
    assert!(!reference(&left, &right).is_empty());
    assert_cell_join_matches(&[], &right);
    assert_cell_join_matches(&left, &[]);
    assert_cell_join_matches(&[], &[]);
}
