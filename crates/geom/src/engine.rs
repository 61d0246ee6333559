//! Pluggable refinement engines.
//!
//! The paper's two systems differ in which geometry library performs
//! spatial refinement: SpatialSpark uses JTS, ISP-MC uses GEOS, and the
//! 3.3–3.9× gap between the two dominates end-to-end performance (§V.B).
//! This module captures that as a trait so the join layer can be generic
//! over the engine, with [`FlatEngine`] standing in for JTS,
//! [`NaiveEngine`] for GEOS, and [`PreparedEngine`] as the one
//! beyond-paper fast engine: banded edge indexes for refinement, and
//! the cell-covering engine for `Within`. Its
//! [`RefinementEngine::within_cover`] covers every polygon on one grid,
//! so a broadcast `Within` join probes one cell per point instead of an
//! R-tree and refines only the polygons listed for a boundary cell.
//! Flat and Naive have no covering: they model JTS and GEOS, which
//! filter through the R-tree.

use crate::cells::CellGrid;
use crate::geometry::Geometry;
use crate::naive;
use crate::point::Point;
use crate::prepared::{PreparedLineString, PreparedPolygon};
use crate::{Envelope, HasEnvelope};

/// The join predicates evaluated in the paper (§II, Fig. 1), plus the
/// nearest-one extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialPredicate {
    /// `ST_WITHIN(point, polygon)` — point-in-polygon test.
    Within,
    /// `ST_NearestD(point, polyline, d)` — point within distance `d` of
    /// the polyline. Emits *every* polyline within range (the semantics
    /// of the open-source SpatialSpark implementation).
    NearestD(f64),
    /// `ST_NEAREST(point, polyline, d)` — the *single* nearest polyline
    /// within distance `d` ("searching for nearest polyline within
    /// distance D", §II). Per-pair [`SpatialPredicate::eval`] behaves
    /// like `NearestD`; join layers apply the arg-min over candidates
    /// via [`RefinementEngine::distance`].
    Nearest(f64),
}

impl SpatialPredicate {
    /// How far right-side envelopes must be expanded during filtering
    /// so the envelope test never misses a refinement match.
    pub fn filter_radius(&self) -> f64 {
        match self {
            SpatialPredicate::Within => 0.0,
            SpatialPredicate::NearestD(d) | SpatialPredicate::Nearest(d) => *d,
        }
    }

    /// Evaluates the predicate through a refinement engine. For
    /// [`SpatialPredicate::Nearest`] this is the *range filter* only;
    /// the arg-min across candidates is the join layer's job.
    pub fn eval<E: RefinementEngine>(&self, engine: &E, p: Point, target: &E::Prepared) -> bool {
        match self {
            SpatialPredicate::Within => engine.within(p, target),
            SpatialPredicate::NearestD(d) | SpatialPredicate::Nearest(d) => {
                engine.within_distance(p, target, *d)
            }
        }
    }
}

/// Covers one prepared `Within` target on a grid, appending
/// `(cell, interior)` once per cell the target may touch. An interior
/// cell lies wholly inside the target; a point in a cell the covering
/// does not list satisfies `within` for no target.
pub type WithinCover<P> = fn(&P, &CellGrid, &mut Vec<(u32, bool)>);

/// A refinement engine evaluates the paper's two spatial predicates
/// against a pre-registered target geometry.
///
/// `prepare` is called once per right-side geometry when the broadcast
/// R-tree is built; `within` / `within_distance` run once per candidate
/// pair that survives filtering.
pub trait RefinementEngine: Send + Sync {
    /// Engine-specific prepared form of a target geometry.
    type Prepared: HasEnvelope + Send + Sync;

    /// Engine name for reports ("jts-like" / "geos-like").
    fn name(&self) -> &'static str;

    /// Converts a parsed geometry into the engine's working form.
    fn prepare(&self, geom: &Geometry) -> Self::Prepared;

    /// `ST_WITHIN(point, target)` — true when the point lies in the
    /// target polygon/multipolygon.
    fn within(&self, p: Point, target: &Self::Prepared) -> bool;

    /// `ST_NearestD(point, target, d)` — true when the point is within
    /// distance `d` of the target: exactly `distance(p, target) <= d`,
    /// so a point inside a polygon is within any `d`.
    fn within_distance(&self, p: Point, target: &Self::Prepared, d: f64) -> bool;

    /// Exact distance from the point to the target geometry (0 inside a
    /// polygon). Drives the arg-min of nearest-one joins.
    fn distance(&self, p: Point, target: &Self::Prepared) -> f64;

    /// The engine's cell covering for `Within` targets, if it has one.
    /// A broadcast `Within` join on an engine with a covering probes the
    /// cells instead of an R-tree. Default: no covering.
    fn within_cover(&self) -> Option<WithinCover<Self::Prepared>> {
        None
    }
}

/// Prepared form used by [`PreparedEngine`]: polygonal and linear targets
/// get dedicated index structures; anything else keeps the parsed
/// geometry.
pub enum FastPrepared {
    Polygon(PreparedPolygon),
    /// One prepared index per part: parts may overlap (scattered
    /// multipolygons), so even-odd over the union of their rings would
    /// be wrong — containment is the OR over parts.
    MultiPolygon(Vec<PreparedPolygon>),
    Line(PreparedLineString),
    Other(Geometry),
}

impl FastPrepared {
    /// [`PreparedEngine`]'s [`WithinCover`]. A multipolygon cell is
    /// interior when it is interior to any part. Lines and points never
    /// satisfy `within`, so they cover nothing.
    fn cover_within(&self, grid: &CellGrid, out: &mut Vec<(u32, bool)>) {
        match self {
            FastPrepared::Polygon(poly) => poly.cover(grid, |cell, interior| {
                out.push((cell, interior));
            }),
            FastPrepared::MultiPolygon(parts) => {
                let mut cells = Vec::new();
                for part in parts {
                    part.cover(grid, |cell, interior| cells.push((cell, interior)));
                }
                // Per cell, an interior mark sorts first and survives.
                cells.sort_unstable_by_key(|&(cell, interior)| (cell, !interior));
                cells.dedup_by_key(|&mut (cell, _)| cell);
                out.extend(cells);
            }
            FastPrepared::Line(_) | FastPrepared::Other(_) => {}
        }
    }
}

impl HasEnvelope for FastPrepared {
    fn envelope(&self) -> Envelope {
        match self {
            FastPrepared::Polygon(p) => p.envelope(),
            FastPrepared::MultiPolygon(parts) => parts
                .iter()
                .fold(Envelope::EMPTY, |e, p| e.union(&p.envelope())),
            FastPrepared::Line(l) => l.envelope(),
            FastPrepared::Other(g) => g.envelope(),
        }
    }
}

/// The JTS-like engine as the paper's SpatialSpark actually uses it:
/// geometry kept in flat coordinate arrays, predicates evaluated with a
/// full scan of the edges and **zero per-call allocation**. (Fig. 2
/// calls JTS's `geom.within(geom_)` directly, without prepared
/// geometries.)
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatEngine;

impl RefinementEngine for FlatEngine {
    type Prepared = Geometry;

    fn name(&self) -> &'static str {
        "jts-like"
    }

    fn prepare(&self, geom: &Geometry) -> Geometry {
        geom.clone()
    }

    // The predicate paths below run once per surviving candidate pair;
    // keeping them allocation-free is the whole point of the JTS-like
    // engine (vs the boxed temporaries of [`NaiveEngine`]). Each call
    // scans every edge of the target, so the edge-visit counter charges
    // the full vertex count.
    // tidy:alloc-free:start
    fn within(&self, p: Point, target: &Geometry) -> bool {
        obs::edge_visits(target.num_points() as u64);
        target.contains_point(p)
    }

    fn within_distance(&self, p: Point, target: &Geometry, d: f64) -> bool {
        use crate::algorithms::distance::point_within_distance_of_linestring;
        obs::edge_visits(target.num_points() as u64);
        match target {
            Geometry::LineString(ls) => point_within_distance_of_linestring(p, ls, d),
            Geometry::MultiLineString(ml) => ml
                .lines
                .iter()
                .any(|ls| point_within_distance_of_linestring(p, ls, d)),
            Geometry::Point(q) => p.distance(*q) <= d,
            // `self.distance` without charging the edges twice.
            _ => target.distance_to_point(p) <= d,
        }
    }

    fn distance(&self, p: Point, target: &Geometry) -> f64 {
        obs::edge_visits(target.num_points() as u64);
        target.distance_to_point(p)
    }
    // tidy:alloc-free:end
}

/// The prepared-geometry engine: one-time edge-index construction, then
/// banded point-in-polygon tests and block-pruned distance queries, and
/// the cell-covering engine for `Within` ([`PreparedPolygon::cover`]).
/// This goes beyond both libraries in the paper (JTS has the machinery
/// but Fig. 2 does not use it); `benches/refinement.rs` quantifies the
/// refinement gain over [`FlatEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PreparedEngine;

impl RefinementEngine for PreparedEngine {
    type Prepared = FastPrepared;

    fn name(&self) -> &'static str {
        "prepared"
    }

    fn prepare(&self, geom: &Geometry) -> FastPrepared {
        match geom {
            Geometry::Polygon(poly) => FastPrepared::Polygon(PreparedPolygon::new(poly)),
            Geometry::MultiPolygon(mp) => {
                FastPrepared::MultiPolygon(mp.polygons.iter().map(PreparedPolygon::new).collect())
            }
            _ => {
                if let Some(l) = PreparedLineString::from_geometry(geom) {
                    FastPrepared::Line(l)
                } else {
                    FastPrepared::Other(geom.clone())
                }
            }
        }
    }

    fn within(&self, p: Point, target: &FastPrepared) -> bool {
        match target {
            FastPrepared::Polygon(poly) => poly.contains_point(p),
            FastPrepared::MultiPolygon(parts) => parts.iter().any(|part| part.contains_point(p)),
            _ => false,
        }
    }

    fn within_distance(&self, p: Point, target: &FastPrepared, d: f64) -> bool {
        match target {
            FastPrepared::Line(line) => line.within_distance(p, d),
            FastPrepared::Other(Geometry::Point(q)) => p.distance(*q) <= d,
            _ => self.distance(p, target) <= d,
        }
    }

    fn within_cover(&self) -> Option<WithinCover<FastPrepared>> {
        Some(FastPrepared::cover_within)
    }

    fn distance(&self, p: Point, target: &FastPrepared) -> f64 {
        match target {
            FastPrepared::Line(line) => line.distance_to_point(p),
            FastPrepared::Polygon(poly) => poly.distance_to_point(p),
            FastPrepared::MultiPolygon(parts) => parts
                .iter()
                .map(|part| part.distance_to_point(p))
                .fold(f64::INFINITY, f64::min),
            FastPrepared::Other(g) => g.distance_to_point(p),
        }
    }
}

/// The GEOS-like engine: no preparation beyond keeping the parsed
/// geometry; every predicate call builds and destroys a boxed coordinate
/// graph (see [`crate::naive`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveEngine;

impl RefinementEngine for NaiveEngine {
    type Prepared = Geometry;

    fn name(&self) -> &'static str {
        "geos-like"
    }

    fn prepare(&self, geom: &Geometry) -> Geometry {
        geom.clone()
    }

    fn within(&self, p: Point, target: &Geometry) -> bool {
        obs::edge_visits(target.num_points() as u64);
        naive::geometry_contains_point(target, p)
    }

    fn within_distance(&self, p: Point, target: &Geometry, d: f64) -> bool {
        obs::edge_visits(target.num_points() as u64);
        naive::geometry_within_distance(target, p, d)
    }

    fn distance(&self, p: Point, target: &Geometry) -> f64 {
        obs::edge_visits(target.num_points() as u64);
        naive::geometry_distance(target, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt;

    #[test]
    fn engines_agree_on_within() {
        let geom =
            wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))").unwrap();
        let fast = PreparedEngine;
        let slow = NaiveEngine;
        let fp = fast.prepare(&geom);
        let sp = slow.prepare(&geom);
        let flat = FlatEngine;
        let flp = flat.prepare(&geom);
        for &(x, y) in &[(0.5, 0.5), (2.0, 2.0), (4.5, 4.5), (0.0, 2.0), (3.5, 0.5)] {
            let p = Point::new(x, y);
            assert_eq!(fast.within(p, &fp), slow.within(p, &sp), "at ({x}, {y})");
            assert_eq!(fast.within(p, &fp), flat.within(p, &flp), "at ({x}, {y})");
        }
        assert_eq!(fast.name(), "prepared");
        assert_eq!(flat.name(), "jts-like");
        assert_eq!(slow.name(), "geos-like");
    }

    #[test]
    fn only_prepared_engine_covers_and_multipolygon_cells_take_any_part_interior() {
        assert!(FlatEngine.within_cover().is_none());
        assert!(NaiveEngine.within_cover().is_none());
        let cover = PreparedEngine.within_cover().expect("prepared covers");
        let grid = CellGrid::new(Envelope::new(0.0, 0.0, 8.0, 8.0), 8);
        let marks = |wkt_str: &str| {
            let mut out = Vec::new();
            cover(
                &PreparedEngine.prepare(&wkt::parse(wkt_str).unwrap()),
                &grid,
                &mut out,
            );
            out
        };
        // Overlapping parts: cell (2, 2) is boundary for the first part
        // and interior to the second, so it is interior; cells appear
        // once each.
        let multi =
            marks("MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((1 1, 7 1, 7 7, 1 7, 1 1)))");
        assert!(multi.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(multi.contains(&(grid.id(2, 2), true)));
        assert!(multi.contains(&(grid.id(0, 0), false)));
        assert!(marks("LINESTRING (0 0, 8 8)").is_empty());
        assert!(marks("POINT (1 1)").is_empty());
    }

    #[test]
    fn flat_engine_distance_agrees() {
        let geom = wkt::parse("LINESTRING (0 0, 10 0, 10 10)").unwrap();
        let flat = FlatEngine;
        let fast = PreparedEngine;
        let flp = flat.prepare(&geom);
        let fp = fast.prepare(&geom);
        for &(x, y, d) in &[(5.0, 2.0, 2.0), (5.0, 2.0, 1.9), (12.0, 12.0, 3.0)] {
            let p = Point::new(x, y);
            assert_eq!(
                flat.within_distance(p, &flp, d),
                fast.within_distance(p, &fp, d)
            );
        }
    }

    #[test]
    fn engines_agree_on_within_distance() {
        let geom = wkt::parse("LINESTRING (0 0, 10 0, 10 10)").unwrap();
        let fast = PreparedEngine;
        let slow = NaiveEngine;
        let fp = fast.prepare(&geom);
        let sp = slow.prepare(&geom);
        for &(x, y, d) in &[
            (5.0, 2.0, 2.0),
            (5.0, 2.0, 1.9),
            (12.0, 12.0, 3.0),
            (12.0, 12.0, 2.0),
        ] {
            let p = Point::new(x, y);
            assert_eq!(
                fast.within_distance(p, &fp, d),
                slow.within_distance(p, &sp, d),
                "at ({x}, {y}) d={d}"
            );
        }
    }

    #[test]
    fn within_is_false_for_lines_and_distance_false_for_polygons() {
        let line = wkt::parse("LINESTRING (0 0, 1 0)").unwrap();
        let poly = wkt::parse("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))").unwrap();
        let fast = PreparedEngine;
        let p = Point::new(0.5, 0.0);
        assert!(!fast.within(p, &fast.prepare(&line)));
        // On polygons `within_distance` is `distance <= d`: true inside
        // or near the polygon, false beyond `d`, on every engine.
        let far = Point::new(0.5, 5.0);
        let inside = Point::new(0.5, 0.5);
        let cases = [
            (p, 10.0, true),
            (inside, 0.0, true),
            (far, 3.9, false),
            (far, 4.0, true),
        ];
        let fp = fast.prepare(&poly);
        for (q, d, expected) in cases {
            assert_eq!(fast.within_distance(q, &fp, d), expected, "{q:?} {d}");
            assert_eq!(fast.distance(q, &fp) <= d, expected, "{q:?} {d}");
            assert_eq!(FlatEngine.within_distance(q, &poly, d), expected);
            assert_eq!(NaiveEngine.within_distance(q, &poly, d), expected);
        }
    }

    #[test]
    fn point_target_distance() {
        let pt = wkt::parse("POINT (3 4)").unwrap();
        let fast = PreparedEngine;
        let slow = NaiveEngine;
        let origin = Point::new(0.0, 0.0);
        assert!(fast.within_distance(origin, &fast.prepare(&pt), 5.0));
        assert!(!fast.within_distance(origin, &fast.prepare(&pt), 4.9));
        assert!(slow.within_distance(origin, &slow.prepare(&pt), 5.0));
        assert!(!slow.within_distance(origin, &slow.prepare(&pt), 4.9));
    }
}
