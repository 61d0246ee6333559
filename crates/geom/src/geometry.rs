//! The dynamic geometry type.

use crate::envelope::Envelope;
use crate::linestring::LineString;
use crate::multi::{MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::Polygon;
use crate::HasEnvelope;

/// Any geometry readable from WKT. Mirrors the subset of the OGC simple
/// features model the paper's workloads use.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    LineString(LineString),
    Polygon(Polygon),
    MultiPoint(MultiPoint),
    MultiLineString(MultiLineString),
    MultiPolygon(MultiPolygon),
}

impl Geometry {
    /// Total vertex count — the refinement-cost driver the paper reports
    /// per dataset.
    pub fn num_points(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.num_points(),
            Geometry::Polygon(p) => p.num_points(),
            Geometry::MultiPoint(m) => m.points.len(),
            Geometry::MultiLineString(m) => m.num_points(),
            Geometry::MultiPolygon(m) => m.num_points(),
        }
    }

    /// Downcast helpers used by the join layers.
    pub fn as_point(&self) -> Option<Point> {
        match self {
            Geometry::Point(p) => Some(*p),
            _ => None,
        }
    }

    /// `Within` semantics for a point against this geometry: polygons and
    /// multipolygons test containment; anything else is false (a point is
    /// never within a line in the paper's joins).
    pub fn contains_point(&self, p: Point) -> bool {
        match self {
            Geometry::Polygon(poly) => poly.contains_point(p),
            Geometry::MultiPolygon(mp) => mp.contains_point(p),
            _ => false,
        }
    }

    /// Minimum distance from a point to this geometry.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        match self {
            Geometry::Point(q) => p.distance(*q),
            Geometry::LineString(l) => l.distance_to_point(p),
            Geometry::Polygon(poly) => crate::algorithms::distance::point_to_polygon(p, poly),
            Geometry::MultiPoint(m) => m
                .points
                .iter()
                .map(|q| p.distance(*q))
                .fold(f64::INFINITY, f64::min),
            Geometry::MultiLineString(m) => m.distance_to_point(p),
            Geometry::MultiPolygon(m) => m
                .polygons
                .iter()
                .map(|poly| crate::algorithms::distance::point_to_polygon(p, poly))
                .fold(f64::INFINITY, f64::min),
        }
    }
}

impl HasEnvelope for Geometry {
    fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => p.envelope(),
            Geometry::LineString(l) => l.envelope(),
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPoint(m) => m.envelope(),
            Geometry::MultiLineString(m) => m.envelope(),
            Geometry::MultiPolygon(m) => m.envelope(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_point_dispatch() {
        let poly = Polygon::rectangle(Envelope::new(0.0, 0.0, 2.0, 2.0));
        let g = Geometry::Polygon(poly);
        assert!(g.contains_point(Point::new(1.0, 1.0)));
        assert!(!g.contains_point(Point::new(3.0, 1.0)));
        // A line never contains a point under Within-join semantics.
        let line = LineString::new(vec![0.0, 0.0, 2.0, 0.0]).unwrap();
        assert!(!Geometry::LineString(line).contains_point(Point::new(1.0, 0.0)));
    }

    #[test]
    fn distance_dispatch() {
        let line = LineString::new(vec![0.0, 0.0, 10.0, 0.0]).unwrap();
        assert_eq!(
            Geometry::LineString(line).distance_to_point(Point::new(5.0, 4.0)),
            4.0
        );
        assert_eq!(
            Geometry::Point(Point::new(3.0, 4.0)).distance_to_point(Point::new(0.0, 0.0)),
            5.0
        );
    }

    #[test]
    fn num_points_dispatch() {
        let poly = Polygon::rectangle(Envelope::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(Geometry::Polygon(poly.clone()).num_points(), 5);
        let mp = MultiPolygon::new(vec![poly.clone(), poly]);
        assert_eq!(Geometry::MultiPolygon(mp).num_points(), 10);
    }
}
