//! Engine-generic filter-refine building blocks.
//!
//! The paper (§II) decomposes a spatial join into *spatial filtering*
//! (pairing objects by MBB approximation, usually through an index) and
//! *spatial refinement* (evaluating the exact predicate on each
//! candidate pair). Everything here is generic over the
//! [`RefinementEngine`], so the same algorithm runs with JTS-like or
//! GEOS-like refinement — the comparison at the heart of §V.B.
//!
//! Joins run through [`crate::JoinRequest`]; [`build_right_index`] and
//! [`probe`] are the serial reference loop its output is checked
//! against.

use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use rtree::RTree;

use crate::{GeomRecord, JoinPair};

/// Builds the broadcastable R-tree over the right side: geometries are
/// prepared once by the engine and indexed by their envelope expanded
/// by the predicate's filter radius (the `expandBy(radius)` of the
/// paper's Fig. 2).
pub fn build_right_index<E: RefinementEngine>(
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> RTree<(i64, E::Prepared)> {
    let radius = predicate.filter_radius();
    let entries: Vec<(Envelope, (i64, E::Prepared))> = right
        .iter()
        .map(|(id, g)| (g.envelope().expanded_by(radius), (*id, engine.prepare(g))))
        .collect();
    RTree::bulk_load_entries(entries)
}

/// Probes the index with one point, appending matches to `out`.
///
/// Entry envelopes were already expanded by the filter radius at build
/// time, so the query itself uses radius zero (expanding again would
/// double the candidate set). For [`SpatialPredicate::Nearest`] the
/// arg-min over candidates is applied here: at most one pair is emitted
/// per point (ties broken by the smaller right id).
#[inline]
pub fn probe<E: RefinementEngine>(
    tree: &RTree<(i64, E::Prepared)>,
    predicate: SpatialPredicate,
    engine: &E,
    left_id: i64,
    p: Point,
    out: &mut Vec<JoinPair>,
) {
    rtree::probe_with(
        tree,
        predicate,
        engine,
        left_id,
        p,
        |(rid, t)| (*rid, t),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinRequest, PointRecord, RecordReader};
    use geom::engine::{NaiveEngine, PreparedEngine};
    use geom::{Geometry, Polygon};

    fn broadcast<E: RefinementEngine>(
        left: &[PointRecord],
        right: &[GeomRecord],
        predicate: SpatialPredicate,
        engine: &E,
    ) -> Vec<JoinPair> {
        JoinRequest::new(left, right, engine)
            .predicate(predicate)
            .run()
            .pairs
    }

    fn grid_points(n: usize) -> Vec<PointRecord> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push((
                    (i * n + j) as i64,
                    Point::new(i as f64 + 0.5, j as f64 + 0.5),
                ));
            }
        }
        v
    }

    fn quadrant_polys(half: f64) -> Vec<GeomRecord> {
        let q = |id, x0: f64, y0: f64| {
            (
                id,
                Geometry::Polygon(Polygon::rectangle(Envelope::new(
                    x0,
                    y0,
                    x0 + half,
                    y0 + half,
                ))),
            )
        };
        vec![
            q(0, 0.0, 0.0),
            q(1, half, 0.0),
            q(2, 0.0, half),
            q(3, half, half),
        ]
    }

    #[test]
    fn indexed_join_matches_nested_loop() {
        let left = grid_points(10);
        let right = quadrant_polys(5.0);
        let engine = PreparedEngine;
        let tree = build_right_index(&right, SpatialPredicate::Within, &engine);
        let mut indexed = Vec::new();
        for &(id, p) in &left {
            probe(
                &tree,
                SpatialPredicate::Within,
                &engine,
                id,
                p,
                &mut indexed,
            );
        }
        let indexed = crate::normalize_pairs(indexed);
        let nested = JoinRequest::new(&left, &right, &engine)
            .nested_loop()
            .run()
            .pairs;
        let nested = crate::normalize_pairs(nested);
        assert_eq!(indexed, nested);
        assert_eq!(indexed.len(), 100);
    }

    #[test]
    fn engines_agree_on_join_output() {
        let left = grid_points(8);
        let right = quadrant_polys(4.0);
        let fast = crate::normalize_pairs(broadcast(
            &left,
            &right,
            SpatialPredicate::Within,
            &PreparedEngine,
        ));
        let slow = crate::normalize_pairs(broadcast(
            &left,
            &right,
            SpatialPredicate::Within,
            &NaiveEngine,
        ));
        assert_eq!(fast, slow);
    }

    #[test]
    fn nearestd_join_with_radius_expansion() {
        let left = vec![(0, Point::new(5.0, 1.0)), (1, Point::new(5.0, 3.0))];
        let right = vec![(10, geom::wkt::parse("LINESTRING (0 0, 10 0)").unwrap())];
        let engine = PreparedEngine;
        let pairs = broadcast(&left, &right, SpatialPredicate::NearestD(2.0), &engine);
        assert_eq!(pairs, vec![(0, 10)]);
    }

    #[test]
    fn record_parsing_drops_garbage() {
        let lines = vec![
            "0\tPOINT (1 2)".to_string(),
            "not-a-record".to_string(),
            "1\tPOLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))".to_string(), // not a point
            "2\tPOINT (3 4)".to_string(),
        ];
        let (pts, skipped) = RecordReader::new(1).read_points(&lines);
        assert_eq!(pts.len(), 2);
        assert_eq!(skipped, 2);
        assert_eq!(pts[1], (2, Point::new(3.0, 4.0)));
        let (geoms, _) = RecordReader::new(1).read_geoms(&lines);
        assert_eq!(geoms.len(), 3); // polygon parses as a geometry
    }

    #[test]
    fn record_parsing_honours_geom_column() {
        // geom_col beyond 1: wkt sits after a payload column.
        let lines = vec!["7\tpayload\tPOINT (1 2)".to_string()];
        let points = |geom_col| RecordReader::new(geom_col).read_points(&lines).0;
        assert_eq!(points(2), vec![(7, Point::new(1.0, 2.0))]);
        // Out-of-range column drops the row rather than panicking.
        assert!(points(9).is_empty());
        // geom_col == 0 is only satisfiable when id and wkt coincide,
        // which WKT never parses as an i64 — row dropped, not panicked.
        assert!(points(0).is_empty());
    }

    #[test]
    fn empty_inputs() {
        let engine = PreparedEngine;
        assert!(broadcast(&[], &[], SpatialPredicate::Within, &engine).is_empty());
        let left = grid_points(3);
        assert!(broadcast(&left, &[], SpatialPredicate::Within, &engine).is_empty());
    }
}
