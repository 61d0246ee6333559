//! The GEOS-like naive refinement path.
//!
//! §V.B of the paper explains why ISP-MC loses to SpatialSpark despite
//! being native C++: "GEOS frequently creates and destroys small objects
//! to minimize memory footprint … The operations are cache unfriendly
//! and are very expensive on modern CPUs." This module reproduces that
//! memory discipline: every predicate call copies the geometry's
//! coordinates into a fresh [`CoordinateSequence`] (GEOS's
//! `CoordinateArraySequence` temporaries), then walks the ring
//! allocating and destroying a boxed [`LineSegment`] object *per edge
//! visit* (the `Coordinate`/`LineSegment` temporaries of GEOS's
//! locate/relate machinery). The churn costs a near-constant factor per
//! vertex over the flat scan, matching the paper's standalone
//! measurement (3.3×–3.9× across small and large polygons).
//!
//! The *algorithms* are identical to the fast path — only the memory
//! behaviour differs — so all engines always agree on results (verified
//! by the cross-engine tests and proptests).

use std::hint::black_box;

use crate::algorithms::segment::{point_on_segment, point_segment_distance_sq};
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::HasEnvelope;

/// A coordinate object, mirroring GEOS's `Coordinate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Coordinate {
    pub x: f64,
    pub y: f64,
}

/// A freshly allocated copy of a geometry's coordinates, mirroring the
/// `CoordinateArraySequence` temporaries GEOS creates per operation.
#[derive(Debug)]
pub struct CoordinateSequence {
    coords: Vec<Coordinate>,
}

impl CoordinateSequence {
    /// Copies a flat coordinate slice into a fresh sequence.
    pub fn from_flat(flat: &[f64]) -> CoordinateSequence {
        let coords = flat
            .chunks_exact(2)
            .map(|c| Coordinate { x: c[0], y: c[1] })
            .collect();
        CoordinateSequence { coords }
    }

    pub fn len(&self) -> usize {
        self.coords.len()
    }

    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Coordinate access *by copy*, modelling GEOS's virtual
    /// `getAt(size_t, Coordinate&)` which cannot be inlined across the
    /// ABI boundary.
    #[inline(never)]
    pub fn get_at(&self, i: usize) -> Coordinate {
        self.coords[i].clone()
    }
}

/// The per-edge temporary object: GEOS's locate/relate loops construct
/// `LineSegment`/`Coordinate` helpers on the heap as they walk a ring.
#[derive(Debug)]
pub struct LineSegment {
    pub p0: Coordinate,
    pub p1: Coordinate,
}

/// Materialises the boxed per-edge temporary. `black_box` keeps the
/// optimiser from eliding the allocation — the allocation *is* the
/// behaviour being modelled.
#[inline]
fn edge_temp(seq: &CoordinateSequence, i: usize) -> Box<LineSegment> {
    black_box(Box::new(LineSegment {
        p0: seq.get_at(i),
        p1: seq.get_at(i + 1),
    }))
}

/// Ray-casting over a coordinate sequence — the same algorithm as
/// [`crate::algorithms::pip::point_in_ring`], but allocating and
/// destroying a segment object per edge, exactly the churn the paper
/// describes.
fn point_in_sequence(p: Point, seq: &CoordinateSequence) -> bool {
    let n = seq.len();
    let mut inside = false;
    for i in 0..n.saturating_sub(1) {
        let seg = edge_temp(seq, i);
        let pa = Point::new(seg.p0.x, seg.p0.y);
        let pb = Point::new(seg.p1.x, seg.p1.y);
        if point_on_segment(p, pa, pb) {
            return true;
        }
        if (pa.y > p.y) != (pb.y > p.y) {
            let x_int = pa.x + (p.y - pa.y) * (pb.x - pa.x) / (pb.y - pa.y);
            if p.x < x_int {
                inside = !inside;
            }
        }
        // seg dropped here: one allocation + one free per edge visit.
    }
    inside
}

fn point_on_sequence(p: Point, seq: &CoordinateSequence) -> bool {
    let n = seq.len();
    for i in 0..n.saturating_sub(1) {
        let seg = edge_temp(seq, i);
        if point_on_segment(
            p,
            Point::new(seg.p0.x, seg.p0.y),
            Point::new(seg.p1.x, seg.p1.y),
        ) {
            return true;
        }
    }
    false
}

/// Point-in-polygon through the naive object model. Per call: a fresh
/// coordinate-sequence copy per ring plus a boxed segment temporary per
/// edge, all freed on return.
pub fn contains_point(poly: &Polygon, p: Point) -> bool {
    if !poly.envelope().contains(p.x, p.y) {
        return false;
    }
    let shell = CoordinateSequence::from_flat(poly.exterior().coords());
    if !point_in_sequence(p, &shell) {
        return false;
    }
    for h in poly.holes() {
        let ring = CoordinateSequence::from_flat(h.coords());
        if point_in_sequence(p, &ring) && !point_on_sequence(p, &ring) {
            return false;
        }
    }
    true
}

/// Within-distance test through the naive object model. GEOS's
/// `DistanceOp` computes the full minimum distance and only then
/// compares — no envelope shortcut, no early exit — which is why the
/// paper's ISP-MC degrades so sharply as the search distance grows
/// (taxi-lion-500 vs taxi-lion-100 in Table 1).
pub fn within_distance_of_linestring(ls: &LineString, p: Point, distance: f64) -> bool {
    distance_to_linestring(ls, p) <= distance
}

/// Minimum distance from a point to a polyline through the naive model.
pub fn distance_to_linestring(ls: &LineString, p: Point) -> f64 {
    let seq = CoordinateSequence::from_flat(ls.coords());
    let mut best = f64::INFINITY;
    let n = seq.len();
    for i in 0..n.saturating_sub(1) {
        let seg = edge_temp(&seq, i);
        let a = Point::new(seg.p0.x, seg.p0.y);
        let b = Point::new(seg.p1.x, seg.p1.y);
        let d = point_segment_distance_sq(p, a, b);
        if d < best {
            best = d;
        }
    }
    best.sqrt()
}

/// `Within` for a point against any geometry, naive path.
pub fn geometry_contains_point(geom: &Geometry, p: Point) -> bool {
    match geom {
        Geometry::Polygon(poly) => contains_point(poly, p),
        Geometry::MultiPolygon(mp) => mp.polygons.iter().any(|poly| contains_point(poly, p)),
        _ => false,
    }
}

/// Exact distance for a point against any geometry, naive path:
/// line-ish targets go through the object-churn distance op; other
/// targets fall back to the shared algorithms (GEOS's point/polygon
/// distance paths are not the bottleneck the paper measures).
pub fn geometry_distance(geom: &Geometry, p: Point) -> f64 {
    match geom {
        Geometry::LineString(ls) => distance_to_linestring(ls, p),
        Geometry::MultiLineString(ml) => ml
            .lines
            .iter()
            .map(|ls| distance_to_linestring(ls, p))
            .fold(f64::INFINITY, f64::min),
        other => other.distance_to_point(p),
    }
}

/// `NearestD` for a point against any geometry, naive path.
pub fn geometry_within_distance(geom: &Geometry, p: Point, distance: f64) -> bool {
    match geom {
        Geometry::LineString(ls) => within_distance_of_linestring(ls, p, distance),
        Geometry::MultiLineString(ml) => ml
            .lines
            .iter()
            .any(|ls| within_distance_of_linestring(ls, p, distance)),
        Geometry::Point(q) => p.distance(*q) <= distance,
        other => geometry_distance(other, p) <= distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    #[test]
    fn naive_agrees_with_fast_pip() {
        let poly = Polygon::from_coords(
            vec![0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0],
            vec![vec![1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 1.0, 3.0]],
        )
        .unwrap();
        for &(x, y) in &[
            (0.5, 0.5),
            (2.0, 2.0),
            (5.0, 5.0),
            (0.0, 0.0),
            (1.0, 2.0),
            (3.5, 3.5),
        ] {
            let p = Point::new(x, y);
            assert_eq!(
                contains_point(&poly, p),
                poly.contains_point(p),
                "mismatch at ({x}, {y})"
            );
        }
    }

    #[test]
    fn naive_distance_agrees_with_fast() {
        let ls = LineString::new(vec![0.0, 0.0, 10.0, 0.0, 10.0, 10.0]).unwrap();
        for &(x, y) in &[(5.0, 3.0), (12.0, 5.0), (-1.0, -1.0), (10.0, 10.0)] {
            let p = Point::new(x, y);
            assert!((distance_to_linestring(&ls, p) - ls.distance_to_point(p)).abs() < 1e-12);
            let d = ls.distance_to_point(p);
            assert!(within_distance_of_linestring(&ls, p, d + 1e-9));
            if d > 0.0 {
                assert!(!within_distance_of_linestring(&ls, p, d - 1e-9));
            }
        }
    }

    #[test]
    fn geometry_dispatch() {
        let poly = Geometry::Polygon(Polygon::rectangle(Envelope::new(0.0, 0.0, 1.0, 1.0)));
        assert!(geometry_contains_point(&poly, Point::new(0.5, 0.5)));
        assert!(!geometry_contains_point(&poly, Point::new(2.0, 0.5)));
        let line = Geometry::LineString(LineString::new(vec![0.0, 0.0, 1.0, 0.0]).unwrap());
        assert!(geometry_within_distance(&line, Point::new(0.5, 0.3), 0.5));
        assert!(!geometry_within_distance(&line, Point::new(0.5, 0.6), 0.5));
        // Within is false for non-areal geometry; within-distance of an
        // areal one is its distance (0 inside) against the bound.
        assert!(!geometry_contains_point(&line, Point::new(0.5, 0.0)));
        assert!(geometry_within_distance(&poly, Point::new(0.5, 0.5), 0.0));
        assert!(!geometry_within_distance(&poly, Point::new(2.0, 0.5), 0.9));
    }

    #[test]
    fn coordinate_sequence_copies_vertices() {
        let seq = CoordinateSequence::from_flat(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(seq.len(), 2);
        assert!(!seq.is_empty());
        assert_eq!(seq.get_at(1), Coordinate { x: 3.0, y: 4.0 });
    }
}
