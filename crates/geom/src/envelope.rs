//! Axis-aligned minimum bounding boxes.
//!
//! Envelopes drive the *spatial filtering* phase of the filter-refine
//! pipeline: pairing objects by MBB approximation before the expensive
//! refinement predicates run (Jacox & Samet 2007, cited as [1] in the
//! paper).

use crate::point::Point;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// The empty envelope is represented with `min > max` so that unioning
/// anything into it works without special cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Envelope {
    /// An empty envelope: the identity element for [`Envelope::union`].
    pub const EMPTY: Envelope = Envelope {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates an envelope from the two corner coordinates, normalising
    /// the argument order.
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Envelope {
        Envelope {
            min_x: x1.min(x2),
            min_y: y1.min(y2),
            max_x: x1.max(x2),
            max_y: y1.max(y2),
        }
    }

    /// The degenerate envelope covering a single point.
    pub fn of_point(p: Point) -> Envelope {
        Envelope {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// Builds the tight envelope of a flat `[x0, y0, x1, y1, ...]`
    /// coordinate slice. Returns [`Envelope::EMPTY`] for an empty slice.
    pub fn of_coords(coords: &[f64]) -> Envelope {
        let mut env = Envelope::EMPTY;
        for pair in coords.chunks_exact(2) {
            env.expand_to(pair[0], pair[1]);
        }
        env
    }

    /// True when no point is contained (`min > max` on either axis).
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Width of the envelope; zero when empty.
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height of the envelope; zero when empty.
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area; zero when empty or degenerate.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point. Meaningless for empty envelopes.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Grows this envelope in place to cover `(x, y)`.
    pub fn expand_to(&mut self, x: f64, y: f64) {
        self.min_x = self.min_x.min(x);
        self.min_y = self.min_y.min(y);
        self.max_x = self.max_x.max(x);
        self.max_y = self.max_y.max(y);
    }

    /// Returns this envelope buffered outward by `distance` on every side.
    ///
    /// This is the `expandBy(radius)` used by SpatialSpark's broadcast join
    /// (Fig. 2 of the paper) to turn a `NearestD` search into an envelope
    /// intersection query.
    pub fn expanded_by(&self, distance: f64) -> Envelope {
        if self.is_empty() {
            return *self;
        }
        Envelope {
            min_x: self.min_x - distance,
            min_y: self.min_y - distance,
            max_x: self.max_x + distance,
            max_y: self.max_y + distance,
        }
    }

    /// Smallest envelope covering both inputs.
    pub fn union(&self, other: &Envelope) -> Envelope {
        Envelope {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Intersection of the two envelopes; empty when they do not overlap.
    pub fn intersection(&self, other: &Envelope) -> Envelope {
        Envelope {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        }
    }

    /// True when the envelopes share at least one point (boundaries
    /// touching counts as intersecting).
    pub fn intersects(&self, other: &Envelope) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// True when `other` lies entirely inside (or on the boundary of)
    /// this envelope.
    pub fn contains_envelope(&self, other: &Envelope) -> bool {
        !other.is_empty()
            && self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    /// True when the point lies inside or on the boundary.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    /// Minimum distance from the point to this envelope; zero when the
    /// point is inside. Used for R-tree distance pruning.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.distance_sq_to_point(p).sqrt()
    }

    /// The square of [`Envelope::distance_to_point`], without the
    /// square root.
    #[inline]
    pub fn distance_sq_to_point(&self, p: Point) -> f64 {
        let dx = if p.x < self.min_x {
            self.min_x - p.x
        } else if p.x > self.max_x {
            p.x - self.max_x
        } else {
            0.0
        };
        let dy = if p.y < self.min_y {
            self.min_y - p.y
        } else if p.y > self.max_y {
            p.y - self.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_corner_order() {
        let e = Envelope::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!(e.min_x, 1.0);
        assert_eq!(e.max_x, 5.0);
        assert_eq!(e.min_y, 2.0);
        assert_eq!(e.max_y, 7.0);
    }

    #[test]
    fn empty_is_union_identity() {
        let e = Envelope::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(Envelope::EMPTY.union(&e), e);
        assert_eq!(e.union(&Envelope::EMPTY), e);
        assert!(Envelope::EMPTY.is_empty());
        assert_eq!(Envelope::EMPTY.area(), 0.0);
    }

    #[test]
    fn of_coords_covers_all_points() {
        let e = Envelope::of_coords(&[0.0, 0.0, 3.0, -1.0, 2.0, 5.0]);
        assert_eq!(e, Envelope::new(0.0, -1.0, 3.0, 5.0));
        assert!(Envelope::of_coords(&[]).is_empty());
    }

    #[test]
    fn intersects_is_symmetric_and_boundary_inclusive() {
        let a = Envelope::new(0.0, 0.0, 1.0, 1.0);
        let b = Envelope::new(1.0, 1.0, 2.0, 2.0); // touches at corner
        let c = Envelope::new(1.1, 1.1, 2.0, 2.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn containment() {
        let outer = Envelope::new(0.0, 0.0, 10.0, 10.0);
        let inner = Envelope::new(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_envelope(&inner));
        assert!(!inner.contains_envelope(&outer));
        assert!(outer.contains(0.0, 10.0));
        assert!(!outer.contains(-0.1, 5.0));
        assert!(!outer.contains_envelope(&Envelope::EMPTY));
    }

    #[test]
    fn expanded_by_buffers_each_side() {
        let e = Envelope::new(0.0, 0.0, 1.0, 1.0).expanded_by(0.5);
        assert_eq!(e, Envelope::new(-0.5, -0.5, 1.5, 1.5));
        assert!(Envelope::EMPTY.expanded_by(1.0).is_empty());
    }

    #[test]
    fn point_distance_inside_is_zero() {
        let e = Envelope::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(e.distance_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(e.distance_to_point(Point::new(5.0, 1.0)), 3.0);
        let d = e.distance_to_point(Point::new(5.0, 6.0));
        assert!((d - 5.0).abs() < 1e-12); // 3-4-5 triangle
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        let a = Envelope::new(0.0, 0.0, 1.0, 1.0);
        let b = Envelope::new(2.0, 2.0, 3.0, 3.0);
        assert!(a.intersection(&b).is_empty());
        let c = Envelope::new(0.5, 0.5, 3.0, 3.0);
        assert_eq!(a.intersection(&c), Envelope::new(0.5, 0.5, 1.0, 1.0));
    }
}
