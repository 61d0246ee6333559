//! Polylines (LINESTRING in WKT).

use crate::envelope::Envelope;
use crate::error::GeomError;
use crate::point::Point;
use crate::HasEnvelope;

/// A polyline stored as a flat `[x0, y0, x1, y1, ...]` coordinate array.
///
/// The flat layout keeps all vertices of one geometry contiguous in
/// memory, which is the cache-friendly representation the paper's JTS-side
/// analysis favours (as opposed to GEOS's per-coordinate heap objects).
#[derive(Debug, Clone, PartialEq)]
pub struct LineString {
    coords: Vec<f64>,
    env: Envelope,
}

impl LineString {
    /// Builds a polyline from a flat coordinate array.
    ///
    /// # Errors
    /// Fails when the array has an odd length or fewer than two points.
    pub fn new(coords: Vec<f64>) -> Result<LineString, GeomError> {
        if !coords.len().is_multiple_of(2) {
            return Err(GeomError::Invalid(
                "coordinate array must have even length".into(),
            ));
        }
        if coords.len() < 4 {
            return Err(GeomError::Invalid(
                "a LineString needs at least two points".into(),
            ));
        }
        let env = Envelope::of_coords(&coords);
        Ok(LineString { coords, env })
    }

    /// Number of vertices.
    pub fn num_points(&self) -> usize {
        self.coords.len() / 2
    }

    /// Vertex `i` (panics when out of range).
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.coords[2 * i], self.coords[2 * i + 1])
    }

    /// The flat coordinate array.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Iterator over the segments `(start, end)` of the polyline.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        (0..self.num_points().saturating_sub(1)).map(move |i| (self.point(i), self.point(i + 1)))
    }

    /// Total length of the polyline.
    pub fn length(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(b)).sum()
    }

    /// Minimum distance from a point to this polyline.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        crate::algorithms::distance::point_to_linestring(p, self)
    }
}

impl HasEnvelope for LineString {
    fn envelope(&self) -> Envelope {
        self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_input() {
        assert!(LineString::new(vec![0.0, 0.0]).is_err());
        assert!(LineString::new(vec![0.0, 0.0, 1.0]).is_err());
        assert!(LineString::new(vec![0.0, 0.0, 1.0, 1.0]).is_ok());
    }

    #[test]
    fn length_sums_segments() {
        let ls = LineString::new(vec![0.0, 0.0, 3.0, 0.0, 3.0, 4.0]).unwrap();
        assert_eq!(ls.length(), 7.0);
        assert_eq!(ls.num_points(), 3);
        assert_eq!(ls.point(2), Point::new(3.0, 4.0));
    }

    #[test]
    fn envelope_covers_vertices() {
        let ls = LineString::new(vec![-1.0, 2.0, 5.0, -3.0]).unwrap();
        assert_eq!(ls.envelope(), Envelope::new(-1.0, -3.0, 5.0, 2.0));
    }

    #[test]
    fn segments_iterates_consecutive_pairs() {
        let ls = LineString::new(vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0]).unwrap();
        let segs: Vec<_> = ls.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (Point::new(0.0, 0.0), Point::new(1.0, 0.0)));
        assert_eq!(segs[1], (Point::new(1.0, 0.0), Point::new(2.0, 0.0)));
    }
}
