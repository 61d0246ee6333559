//! Property-based tests over the core data structures and invariants,
//! running on the in-tree `proph` harness.

use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, RefinementEngine, SpatialPredicate};
use geom::{Envelope, Geometry, HasEnvelope, LineString, Point, Polygon};
use proph::{check, f64_range, vec_of, Gen, GenExt};
use rtree::RTree;

/// Generator: a finite coordinate in a sane range.
fn coord() -> impl Gen<Value = f64> {
    f64_range(-1000.0, 1000.0)
}

/// Generator: an arbitrary envelope (possibly degenerate).
fn envelope() -> impl Gen<Value = Envelope> {
    (coord(), coord(), coord(), coord()).map(|(a, b, c, d)| Envelope::new(a, b, c, d))
}

/// Generator: a simple star-shaped polygon around a random centre —
/// guaranteed valid (non-self-intersecting) by the radial construction.
fn star_polygon() -> impl Gen<Value = Polygon> {
    (
        coord(),
        coord(),
        f64_range(1.0, 50.0),
        vec_of(f64_range(0.3, 1.0), 3, 39),
    )
        .map(|(cx, cy, radius, radii)| {
            let n = radii.len();
            let mut coords = Vec::with_capacity((n + 1) * 2);
            for (i, r) in radii.iter().enumerate() {
                let theta = std::f64::consts::TAU * i as f64 / n as f64;
                coords.push(cx + radius * r * theta.cos());
                coords.push(cy + radius * r * theta.sin());
            }
            coords.push(coords[0]);
            coords.push(coords[1]);
            Polygon::from_coords(coords, vec![]).expect("radial polygons are valid")
        })
}

/// Generator: a polyline with 2–19 vertices.
fn polyline() -> impl Gen<Value = LineString> {
    vec_of((coord(), coord()), 2, 19).map(|pts| {
        let coords = pts.iter().flat_map(|&(x, y)| [x, y]).collect();
        LineString::new(coords).expect("≥2 points")
    })
}

// --- envelope algebra ---

#[test]
fn envelope_union_contains_both() {
    check(
        "envelope_union_contains_both",
        &(envelope(), envelope()),
        |(a, b)| {
            let u = a.union(&b);
            assert!(u.contains_envelope(&a));
            assert!(u.contains_envelope(&b));
        },
    );
}

#[test]
fn envelope_intersection_symmetric_and_contained() {
    check(
        "envelope_intersection_symmetric_and_contained",
        &(envelope(), envelope()),
        |(a, b)| {
            let i1 = a.intersection(&b);
            let i2 = b.intersection(&a);
            assert_eq!(i1, i2);
            if !i1.is_empty() {
                assert!(a.contains_envelope(&i1));
                assert!(b.contains_envelope(&i1));
                assert!(a.intersects(&b));
            }
        },
    );
}

#[test]
fn envelope_expansion_monotone() {
    check(
        "envelope_expansion_monotone",
        &(envelope(), f64_range(0.0, 100.0), coord(), coord()),
        |(e, d, x, y)| {
            let big = e.expanded_by(d);
            if e.contains(x, y) {
                assert!(big.contains(x, y));
            }
            assert!(
                big.distance_to_point(Point::new(x, y)) <= e.distance_to_point(Point::new(x, y))
            );
        },
    );
}

// --- WKT and binary round trips ---

#[test]
fn wkt_round_trip_polygon() {
    check("wkt_round_trip_polygon", &star_polygon(), |poly| {
        let g = Geometry::Polygon(poly);
        let text = geom::wkt::write(&g);
        let back = geom::wkt::parse(&text).unwrap();
        assert_eq!(back, g);
    });
}

#[test]
fn wkt_round_trip_linestring() {
    check("wkt_round_trip_linestring", &polyline(), |ls| {
        let g = Geometry::LineString(ls);
        let back = geom::wkt::parse(&geom::wkt::write(&g)).unwrap();
        assert_eq!(back, g);
    });
}

#[test]
fn binary_round_trip() {
    check(
        "binary_round_trip",
        &(star_polygon(), polyline(), coord(), coord()),
        |(poly, ls, x, y)| {
            for g in [
                Geometry::Polygon(poly),
                Geometry::LineString(ls),
                Geometry::Point(Point::new(x, y)),
            ] {
                let bytes = geom::binary::encode(&g);
                let (back, used) = geom::binary::decode(&bytes).unwrap();
                assert_eq!(back, g);
                assert_eq!(used, bytes.len());
            }
        },
    );
}

// --- engine agreement ---

#[test]
fn engines_agree_on_within() {
    check(
        "engines_agree_on_within",
        &(star_polygon(), vec_of((coord(), coord()), 1, 49)),
        |(poly, pts)| {
            let g = Geometry::Polygon(poly);
            let fast = PreparedEngine.prepare(&g);
            let flat = FlatEngine.prepare(&g);
            let naive = NaiveEngine.prepare(&g);
            for (x, y) in pts {
                let p = Point::new(x, y);
                let a = PreparedEngine.within(p, &fast);
                let b = FlatEngine.within(p, &flat);
                let c = NaiveEngine.within(p, &naive);
                assert_eq!(a, b, "prepared vs flat at ({x}, {y})");
                assert_eq!(a, c, "prepared vs naive at ({x}, {y})");
            }
        },
    );
}

#[test]
fn engines_agree_on_distance() {
    check(
        "engines_agree_on_distance",
        &(
            polyline(),
            vec_of((coord(), coord()), 1, 29),
            f64_range(0.1, 200.0),
        ),
        |(ls, pts, d)| {
            let g = Geometry::LineString(ls);
            let fast = PreparedEngine.prepare(&g);
            let flat = FlatEngine.prepare(&g);
            let naive = NaiveEngine.prepare(&g);
            for (x, y) in pts {
                let p = Point::new(x, y);
                let a = PreparedEngine.within_distance(p, &fast, d);
                let b = FlatEngine.within_distance(p, &flat, d);
                let c = NaiveEngine.within_distance(p, &naive, d);
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
        },
    );
}

#[test]
fn polygon_containment_respects_envelope() {
    check(
        "polygon_containment_respects_envelope",
        &(star_polygon(), coord(), coord()),
        |(poly, x, y)| {
            let p = Point::new(x, y);
            if poly.contains_point(p) {
                assert!(poly.envelope().contains(p.x, p.y));
            }
        },
    );
}

// --- index agreement with linear scans ---

#[test]
fn rtree_query_equals_linear_scan() {
    // The point query every join probe makes: distance 0 from `p`.
    check(
        "rtree_query_equals_linear_scan",
        &(
            vec_of(
                (coord(), coord(), f64_range(0.0, 20.0), f64_range(0.0, 20.0)),
                1,
                299,
            ),
            (coord(), coord()),
        ),
        |(boxes, (x, y))| {
            let entries: Vec<(Envelope, usize)> = boxes
                .iter()
                .enumerate()
                .map(|(i, &(x, y, w, h))| (Envelope::new(x, y, x + w, y + h), i))
                .collect();
            let tree = RTree::bulk_load_entries(entries.clone());
            // A random point rarely hits a box; the corners and centres
            // of the first boxes always do, some on a boundary.
            let mut probes = vec![Point::new(x, y)];
            for (e, _) in entries.iter().take(8) {
                probes.push(Point::new(e.min_x, e.min_y));
                probes.push(e.center());
            }
            for p in probes {
                let mut expected: Vec<usize> = entries
                    .iter()
                    .filter(|(e, _)| e.contains(p.x, p.y))
                    .map(|&(_, i)| i)
                    .collect();
                let mut got = Vec::new();
                tree.for_each_within_distance(p, 0.0, |&i| got.push(i));
                expected.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expected, "{p:?}");
            }
        },
    );
}

// --- join-level invariants ---

#[test]
fn join_output_pairs_satisfy_predicate() {
    check(
        "join_output_pairs_satisfy_predicate",
        &(
            vec_of(star_polygon(), 1, 9),
            vec_of((coord(), coord()), 1, 99),
        ),
        |(polys, pts)| {
            let left: Vec<(i64, Point)> = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (i as i64, Point::new(x, y)))
                .collect();
            let right: Vec<(i64, Geometry)> = polys
                .iter()
                .enumerate()
                .map(|(i, p)| (i as i64, Geometry::Polygon(p.clone())))
                .collect();
            let pairs = spatialjoin::JoinRequest::new(&left, &right, &PreparedEngine)
                .predicate(SpatialPredicate::Within)
                .run()
                .pairs;
            // Soundness: every emitted pair satisfies Within.
            for &(lid, rid) in &pairs {
                let p = left[lid as usize].1;
                assert!(right[rid as usize].1.contains_point(p));
            }
            // Completeness: every satisfying pair is emitted.
            let emitted: std::collections::HashSet<(i64, i64)> = pairs.into_iter().collect();
            for &(lid, p) in &left {
                for (rid, g) in &right {
                    if g.contains_point(p) {
                        assert!(
                            emitted.contains(&(lid, *rid)),
                            "missing pair ({lid}, {rid})"
                        );
                    }
                }
            }
        },
    );
}
