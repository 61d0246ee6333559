//! Point-in-polygon tests (the `Within` predicate of the paper).
//!
//! The core is the classic ray-casting (crossing-number) algorithm over a
//! closed ring stored as a flat coordinate array. Boundary points are
//! treated as *inside*. That is JTS/GEOS `coveredBy`, not `within`:
//! DE-9IM `within` excludes the boundary. Which rule the joins adopt
//! is ROADMAP item 1.

use crate::algorithms::segment::point_on_segment;
use crate::point::Point;

/// True when `p` is strictly inside or on the boundary of the closed ring
/// `coords` (`[x0, y0, ..., x0, y0]`, first point repeated at the end).
pub fn point_in_ring(p: Point, coords: &[f64]) -> bool {
    if point_on_ring(p, coords) {
        return true;
    }
    crossings_odd(p, coords)
}

/// True when `p` lies on one of the ring's segments.
pub fn point_on_ring(p: Point, coords: &[f64]) -> bool {
    let n = coords.len() / 2;
    for i in 0..n.saturating_sub(1) {
        let a = Point::new(coords[2 * i], coords[2 * i + 1]);
        let b = Point::new(coords[2 * i + 2], coords[2 * i + 3]);
        if point_on_segment(p, a, b) {
            return true;
        }
    }
    false
}

/// Raw crossing-number parity for a point not on the boundary: true when
/// the ray from `p` towards `+x` crosses the ring an odd number of times.
///
/// The half-open `(y1 > py) != (y2 > py)` rule makes vertices on the ray
/// count exactly once, so the parity is well defined everywhere except on
/// the boundary itself (handled separately by [`point_on_ring`]).
#[inline]
pub fn crossings_odd(p: Point, coords: &[f64]) -> bool {
    let n = coords.len() / 2;
    let (px, py) = (p.x, p.y);
    let mut inside = false;
    for i in 0..n.saturating_sub(1) {
        let (x1, y1) = (coords[2 * i], coords[2 * i + 1]);
        let (x2, y2) = (coords[2 * i + 2], coords[2 * i + 3]);
        if (y1 > py) != (y2 > py) {
            let x_int = x1 + (py - y1) * (x2 - x1) / (y2 - y1);
            if px < x_int {
                inside = !inside;
            }
        }
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Vec<f64> {
        vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0]
    }

    #[test]
    fn interior_and_exterior() {
        let ring = unit_square();
        assert!(point_in_ring(Point::new(0.5, 0.5), &ring));
        assert!(!point_in_ring(Point::new(1.5, 0.5), &ring));
        assert!(!point_in_ring(Point::new(0.5, -0.5), &ring));
    }

    #[test]
    fn boundary_counts_as_inside() {
        let ring = unit_square();
        assert!(point_in_ring(Point::new(0.0, 0.0), &ring)); // corner
        assert!(point_in_ring(Point::new(0.5, 0.0), &ring)); // edge
        assert!(point_in_ring(Point::new(1.0, 0.7), &ring)); // right edge
        assert!(point_on_ring(Point::new(1.0, 0.7), &ring));
        assert!(!point_on_ring(Point::new(0.5, 0.5), &ring));
    }

    #[test]
    fn ray_through_vertex_is_counted_once() {
        // Diamond whose left/right vertices are exactly at y = 0, the ray
        // height for the probe points — a classic ray-casting trap.
        let diamond = vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, -1.0, 1.0, 0.0];
        assert!(point_in_ring(Point::new(0.0, 0.0), &diamond));
        assert!(!point_in_ring(Point::new(-2.0, 0.0), &diamond));
        assert!(!point_in_ring(Point::new(2.0, 0.0), &diamond));
    }

    #[test]
    fn concave_ring() {
        // U-shape opening upward.
        let u = vec![
            0.0, 0.0, 3.0, 0.0, 3.0, 3.0, 2.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 3.0, 0.0, 3.0, 0.0,
            0.0,
        ];
        assert!(point_in_ring(Point::new(0.5, 2.0), &u)); // left arm
        assert!(point_in_ring(Point::new(2.5, 2.0), &u)); // right arm
        assert!(!point_in_ring(Point::new(1.5, 2.0), &u)); // the gap
        assert!(point_in_ring(Point::new(1.5, 0.5), &u)); // the base
    }
}
