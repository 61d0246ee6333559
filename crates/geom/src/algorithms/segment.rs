//! Segment-level primitives.

use crate::point::Point;

/// Tolerance for the collinearity test in [`point_on_segment`]: an
/// absolute bound on the cross product `(b - a) × (p - a)`, after a
/// bounding-box test widened by the same amount. The datasets' real
/// coordinate magnitudes are up to 180 (WWF/GBIF degrees) and up to
/// 1.2e5 (NYC feet, `NYC_EXTENT` is 90,000 × 120,000). At NYC
/// magnitudes one coordinate ulp is ~1.5e-11, so the cross product's
/// own rounding error exceeds this tolerance and points within ~1e-9
/// of an edge are not decided consistently. ROADMAP item 1 replaces
/// this test with an exact `orient2d`.
pub(crate) const ON_SEGMENT_EPS: f64 = 1e-12;

/// Sign of the cross product `(b - a) × (c - a)`:
/// `> 0` when `c` is left of `a→b`, `< 0` right, `0` collinear.
#[inline]
pub fn cross(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// True when `p` lies on the closed segment `a..b` (within a tiny
/// collinearity tolerance).
#[inline]
pub fn point_on_segment(p: Point, a: Point, b: Point) -> bool {
    if p.x < a.x.min(b.x) - ON_SEGMENT_EPS
        || p.x > a.x.max(b.x) + ON_SEGMENT_EPS
        || p.y < a.y.min(b.y) - ON_SEGMENT_EPS
        || p.y > a.y.max(b.y) + ON_SEGMENT_EPS
    {
        return false;
    }
    cross(a, b, p).abs() <= ON_SEGMENT_EPS
}

/// Squared distance from `p` to the closed segment `a..b`.
#[inline]
pub fn point_segment_distance_sq(p: Point, a: Point, b: Point) -> f64 {
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let len_sq = dx * dx + dy * dy;
    if len_sq == 0.0 {
        return p.distance_sq(a);
    }
    let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len_sq).clamp(0.0, 1.0);
    let proj = Point::new(a.x + t * dx, a.y + t * dy);
    p.distance_sq(proj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_sign_reflects_side() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert!(cross(a, b, Point::new(0.5, 1.0)) > 0.0);
        assert!(cross(a, b, Point::new(0.5, -1.0)) < 0.0);
        assert_eq!(cross(a, b, Point::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn on_segment_detects_endpoints_and_interior() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 2.0);
        assert!(point_on_segment(a, a, b));
        assert!(point_on_segment(b, a, b));
        assert!(point_on_segment(Point::new(1.0, 1.0), a, b));
        assert!(!point_on_segment(Point::new(3.0, 3.0), a, b)); // collinear, past end
        assert!(!point_on_segment(Point::new(1.0, 1.5), a, b));
    }

    #[test]
    fn segment_distance_projects_or_clamps() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        // Perpendicular projection onto the interior.
        assert_eq!(point_segment_distance_sq(Point::new(5.0, 3.0), a, b), 9.0);
        // Clamped to endpoint a.
        assert_eq!(point_segment_distance_sq(Point::new(-3.0, 4.0), a, b), 25.0);
        // Clamped to endpoint b.
        assert_eq!(point_segment_distance_sq(Point::new(13.0, 4.0), a, b), 25.0);
        // On the segment.
        assert_eq!(point_segment_distance_sq(Point::new(2.0, 0.0), a, b), 0.0);
    }

    #[test]
    fn degenerate_segment_is_a_point() {
        let a = Point::new(1.0, 1.0);
        assert_eq!(point_segment_distance_sq(Point::new(4.0, 5.0), a, a), 25.0);
    }
}
