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
//! against, and the one STR space partitioner splits space for its
//! partitioned strategy.

use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use rtree::{RTree, StrPartitioner};

use crate::{GeomRecord, JoinPair, PointRecord};

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

/// The one spatial partitioner of the partitioned strategy (the
/// SpatialHadoop-style strategy discussed in §II): a [`StrPartitioner`]
/// of `target_cells` cells over the extent of the left points and the
/// right envelopes (already expanded by the filter radius), built from
/// a stride sample of the left points (about 10k at most).
fn cells_over(
    left: &[PointRecord],
    right: impl Iterator<Item = Envelope>,
    target_cells: usize,
) -> StrPartitioner {
    let mut extent = Envelope::EMPTY;
    for &(_, p) in left {
        extent.expand_to(p.x, p.y);
    }
    for env in right {
        extent = extent.union(&env);
    }
    let stride = (left.len() / 10_000).max(1);
    let sample: Vec<Point> = left.iter().step_by(stride).map(|&(_, p)| p).collect();
    StrPartitioner::build(extent, &sample, target_cells)
}

/// One partition's join task: its points, and the positions of the
/// right entries whose expanded envelopes overlap its cell.
#[derive(Default)]
pub(crate) struct PartitionTask {
    pub left: Vec<PointRecord>,
    pub right: Vec<u32>,
}

/// Splits a join into partition tasks over a [`cells_over`]
/// partitioner of `ceil(|left| / target_points_per_partition)` cells:
/// points are routed to exactly one cell, right entries (their
/// already-expanded envelopes) to every cell they overlap, by position
/// in `right`. Cells left without points or without entries are
/// dropped, so every task has work.
pub(crate) fn partition_work<T>(
    left: &[PointRecord],
    right: &[(Envelope, T)],
    target_points_per_partition: usize,
) -> Vec<PartitionTask> {
    let target_cells = left.len().div_ceil(target_points_per_partition.max(1));
    let cells = cells_over(left, right.iter().map(|e| e.0), target_cells);
    let mut tasks: Vec<PartitionTask> = Vec::new();
    tasks.resize_with(cells.num_cells(), PartitionTask::default);
    for &(id, p) in left {
        if let Some(c) = cells.cell_of(p) {
            tasks[c].left.push((id, p));
        }
    }
    for (i, (env, _)) in right.iter().enumerate() {
        for c in cells.cells_intersecting(env) {
            tasks[c].right.push(i as u32);
        }
    }
    tasks.retain(|t| !t.left.is_empty() && !t.right.is_empty());
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinRequest, RecordReader};
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

    fn partitioned(
        left: &[PointRecord],
        right: &[GeomRecord],
        predicate: SpatialPredicate,
        target_points_per_partition: usize,
    ) -> Vec<JoinPair> {
        JoinRequest::new(left, right, &PreparedEngine)
            .predicate(predicate)
            .partitioned(target_points_per_partition)
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
    fn partitioned_join_matches_broadcast_join() {
        let left = grid_points(12);
        let right = quadrant_polys(6.0);
        let engine = PreparedEngine;
        let expected =
            crate::normalize_pairs(broadcast(&left, &right, SpatialPredicate::Within, &engine));
        // Small partitions force many cells and right-side replication.
        let parted = partitioned(&left, &right, SpatialPredicate::Within, 10);
        assert_eq!(parted, expected);
    }

    #[test]
    fn partitioned_nearestd_matches_broadcast() {
        let left = grid_points(10);
        let right = vec![
            (0, geom::wkt::parse("LINESTRING (0 5, 10 5)").unwrap()),
            (1, geom::wkt::parse("LINESTRING (5 0, 5 10)").unwrap()),
        ];
        let engine = PreparedEngine;
        let expected = crate::normalize_pairs(broadcast(
            &left,
            &right,
            SpatialPredicate::NearestD(1.0),
            &engine,
        ));
        let parted = partitioned(&left, &right, SpatialPredicate::NearestD(1.0), 8);
        assert_eq!(parted, expected);
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
        assert!(partitioned(&[], &[], SpatialPredicate::Within, 16).is_empty());
        let left = grid_points(3);
        assert!(broadcast(&left, &[], SpatialPredicate::Within, &engine).is_empty());
    }
}
