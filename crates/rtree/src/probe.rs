//! Engine-generic single-point probe against a broadcast R-tree.
//!
//! This is the one copy of the filter-refine inner loop shared by the
//! serial join driver (`core::join`) and the prepared set every query
//! path probes (`core::parallel`). Entry envelopes are expected to have
//! been expanded by the predicate's filter radius at build time, so the
//! query itself uses radius zero.

use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::Point;

use crate::RTree;

/// Probes the index with one point, appending `(left, right_id)`
/// matches to `out`. `left` is whatever key the caller collects pairs
/// under: a left record id, or the point's input position for a probe
/// that runs out of input order and scatters back afterwards.
///
/// `resolve` maps a stored tree payload to the right-side record id and
/// its prepared geometry — callers store either the pair inline
/// (`(i64, E::Prepared)`) or a `u32` position into another tree's
/// entries.
/// For [`SpatialPredicate::Nearest`] the arg-min over candidates is
/// applied here: at most one pair is emitted per point, ties broken by
/// the smaller right id.
#[inline]
pub fn probe_with<'t, T, E, R, L: Copy>(
    tree: &'t RTree<T>,
    predicate: SpatialPredicate,
    engine: &E,
    left: L,
    p: Point,
    resolve: R,
    out: &mut Vec<(L, i64)>,
) where
    E: RefinementEngine,
    E::Prepared: 't,
    R: Fn(&'t T) -> (i64, &'t E::Prepared),
{
    // The hot loop of every join in the workspace: one refinement call
    // per candidate surviving the envelope filter, zero allocation.
    // Node/candidate/accept counts accumulate in locals and flush
    // through a single thread-local access per probe.
    // tidy:alloc-free:start
    let mut candidates: u64 = 0;
    let mut accepts: u64 = 0;
    if let SpatialPredicate::Nearest(d) = predicate {
        let mut best: Option<(f64, i64)> = None;
        let nodes = tree.for_each_within_distance(p, 0.0, |payload| {
            let (rid, target) = resolve(payload);
            candidates += 1;
            let dist = engine.distance(p, target);
            if dist <= d {
                accepts += 1;
                let better = match best {
                    None => true,
                    Some((bd, bid)) => dist < bd || (dist == bd && rid < bid),
                };
                if better {
                    best = Some((dist, rid));
                }
            }
        });
        if let Some((_, rid)) = best {
            out.push((left, rid));
        }
        obs::probe_counts(nodes, candidates, accepts);
        return;
    }
    let nodes = tree.for_each_within_distance(p, 0.0, |payload| {
        let (rid, target) = resolve(payload);
        candidates += 1;
        if predicate.eval(engine, p, target) {
            accepts += 1;
            out.push((left, rid));
        }
    });
    obs::probe_counts(nodes, candidates, accepts);
    // tidy:alloc-free:end
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::engine::PreparedEngine;
    use geom::{Envelope, HasEnvelope};

    fn line_tree(
        engine: &PreparedEngine,
        radius: f64,
    ) -> RTree<(i64, <PreparedEngine as RefinementEngine>::Prepared)> {
        let lines = [
            (10i64, "LINESTRING (0 0, 10 0)"),
            (11i64, "LINESTRING (0 4, 10 4)"),
        ];
        let entries = lines
            .iter()
            .map(|&(id, wkt)| {
                let g = geom::wkt::parse(wkt).unwrap();
                (g.envelope().expanded_by(radius), (id, engine.prepare(&g)))
            })
            .collect();
        RTree::bulk_load_entries(entries)
    }

    #[test]
    fn nearest_emits_single_argmin_pair() {
        let engine = PreparedEngine;
        let tree = line_tree(&engine, 5.0);
        let mut out = Vec::new();
        // y=1 is nearer to the y=0 line.
        probe_with(
            &tree,
            SpatialPredicate::Nearest(5.0),
            &engine,
            7,
            Point::new(5.0, 1.0),
            |(rid, t)| (*rid, t),
            &mut out,
        );
        assert_eq!(out, vec![(7, 10)]);
    }

    #[test]
    fn nearest_tie_breaks_by_smaller_right_id() {
        let engine = PreparedEngine;
        let tree = line_tree(&engine, 5.0);
        let mut out = Vec::new();
        // y=2 is equidistant from both lines.
        probe_with(
            &tree,
            SpatialPredicate::Nearest(5.0),
            &engine,
            7,
            Point::new(5.0, 2.0),
            |(rid, t)| (*rid, t),
            &mut out,
        );
        assert_eq!(out, vec![(7, 10)]);
    }

    #[test]
    fn nearestd_emits_every_candidate_in_range() {
        let engine = PreparedEngine;
        let tree = line_tree(&engine, 3.0);
        let mut out = Vec::new();
        probe_with(
            &tree,
            SpatialPredicate::NearestD(3.0),
            &engine,
            7,
            Point::new(5.0, 2.0),
            |(rid, t)| (*rid, t),
            &mut out,
        );
        out.sort_unstable();
        assert_eq!(out, vec![(7, 10), (7, 11)]);
    }

    #[test]
    fn resolver_can_indirect_through_indices() {
        let engine = PreparedEngine;
        let g = geom::wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        let prepared = [engine.prepare(&g)];
        let ids = [42i64];
        let tree: RTree<u32> =
            RTree::bulk_load_entries(vec![(Envelope::new(0.0, 0.0, 4.0, 4.0), 0u32)]);
        let mut out = Vec::new();
        probe_with(
            &tree,
            SpatialPredicate::Within,
            &engine,
            1,
            Point::new(2.0, 2.0),
            |&i| (ids[i as usize], &prepared[i as usize]),
            &mut out,
        );
        assert_eq!(out, vec![(1, 42)]);
    }
}
