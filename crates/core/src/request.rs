//! The join front door.
//!
//! Every join in the workspace — serial or parallel, broadcast or
//! nested-loop, any predicate — is a [`JoinRequest`]: one builder
//! selects predicate, strategy and [`MorselConfig`], and
//! [`JoinRequest::run`] returns a [`JoinOutcome`] carrying both the
//! pairs and an [`obs::RunStats`] tree collected uniformly (counters
//! via thread-snapshot deltas, per-worker busy/wait from the pool's
//! [`obs::ExecStats`]).

use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::Envelope;

use crate::parallel::{CellCover, MorselConfig, PreparedSet};
use crate::{GeomRecord, JoinPair, PointRecord};

/// Which join algorithm executes the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Index the right side once, probe every left point (the paper's
    /// broadcast join; morsel-parallel under [`MorselConfig`]). A
    /// `Within` join on an engine with a
    /// [`RefinementEngine::within_cover`] probes a [`CellCover`] of the
    /// right side instead of its STR tree, with the same pairs in the
    /// same order.
    Broadcast,
    /// The O(|L|·|R|) cross-join-then-filter baseline of §II.
    NestedLoop,
}

/// A configured join, ready to run. Construct with
/// [`JoinRequest::new`], refine with the builder methods, execute with
/// [`JoinRequest::run`].
pub struct JoinRequest<'a, E: RefinementEngine> {
    left: &'a [PointRecord],
    right: &'a [GeomRecord],
    engine: &'a E,
    predicate: SpatialPredicate,
    strategy: JoinStrategy,
    cfg: MorselConfig,
}

/// What a join produced: the matched pairs plus the run's observability
/// tree.
pub struct JoinOutcome {
    /// Matched `(left id, right id)` pairs in probe order: left points
    /// in input order, each point's matches in the strategy's
    /// right-side order.
    pub pairs: Vec<JoinPair>,
    /// Counters, per-worker accounting and span timings for the run.
    pub stats: obs::RunStats,
}

impl<'a, E: RefinementEngine> JoinRequest<'a, E> {
    /// A broadcast `Within` join on one thread — override with the
    /// builder methods below.
    pub fn new(left: &'a [PointRecord], right: &'a [GeomRecord], engine: &'a E) -> Self {
        JoinRequest {
            left,
            right,
            engine,
            predicate: SpatialPredicate::Within,
            strategy: JoinStrategy::Broadcast,
            cfg: MorselConfig::serial(),
        }
    }

    /// Sets the join predicate.
    pub fn predicate(mut self, predicate: SpatialPredicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Switches to the nested-loop baseline strategy.
    pub fn nested_loop(mut self) -> Self {
        self.strategy = JoinStrategy::NestedLoop;
        self
    }

    /// Sets worker thread count (keeps the current mode/morsel size).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Replaces the whole parallelism configuration.
    pub fn config(mut self, cfg: MorselConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Executes the join. The broadcast strategy records `prepare`,
    /// `bulk_load` (the STR bulk load inside `prepare`; the rest of
    /// `prepare` is the build units), `cover` (cell path only) and
    /// `probe` spans.
    ///
    /// Counter collection: a thread-snapshot delta around the run
    /// captures everything counted on the calling thread (serial and
    /// inline paths), and the pool hands back scoped-worker counters,
    /// which are folded into the calling thread's cells before the
    /// final snapshot — so `stats.counters` is exact at any thread
    /// count, and an *outer* snapshot delta around this call still sees
    /// every count exactly once. A panicking unit is re-raised here.
    pub fn run(self) -> JoinOutcome {
        let before = obs::thread_snapshot();
        let run_timer = obs::SpanTimer::start("run");
        let mut stats = obs::RunStats::new(match self.strategy {
            JoinStrategy::Broadcast => "join:broadcast",
            JoinStrategy::NestedLoop => "join:nested-loop",
        });

        let pairs = match self.strategy {
            JoinStrategy::Broadcast => {
                let prepare_timer = obs::SpanTimer::start("prepare");
                let set = PreparedSet::prepare_threads(
                    self.right,
                    self.predicate,
                    self.engine,
                    self.cfg.threads,
                );
                stats.spans.push(prepare_timer.finish());
                stats.spans.push(obs::SpanStat::from_secs(
                    "bulk_load",
                    1,
                    set.bulk_load_secs(),
                ));
                let cover_timer = obs::SpanTimer::start("cover");
                let cells = CellCover::build(&set, self.engine, self.cfg.threads);
                if cells.is_some() {
                    stats.spans.push(cover_timer.finish());
                }
                let probe_timer = obs::SpanTimer::start("probe");
                let (pairs, exec) = match &cells {
                    Some(cells) => cells.par_probe(self.left, self.engine, self.cfg),
                    None => {
                        let (pairs, _, exec) =
                            set.par_probe_observed(self.left, self.engine, self.cfg);
                        (pairs, exec)
                    }
                };
                stats.spans.push(probe_timer.finish());
                obs::add_thread(&exec.worker_counters);
                stats.workers = exec.workers;
                pairs
            }
            JoinStrategy::NestedLoop => {
                nested_loop_pairs(self.left, self.right, self.predicate, self.engine)
            }
        };

        stats.spans.push(run_timer.finish());
        stats.counters = obs::thread_snapshot().minus(&before);
        JoinOutcome { pairs, stats }
    }
}

/// The nested-loop baseline, instrumented: every left×right pair whose
/// expanded envelope contains the point counts as a filter hit and a
/// refinement call; accepted pairs count as refine accepts. One obs
/// flush for the whole join.
///
/// For [`SpatialPredicate::Nearest`] it applies [`PreparedSet::probe_into`]'s
/// arg-min: among the candidates within D, the smallest distance wins,
/// ties go to the smaller right id, and each point emits at most one
/// pair.
fn nested_loop_pairs<E: RefinementEngine>(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    engine: &E,
) -> Vec<JoinPair> {
    use geom::HasEnvelope;
    let radius = predicate.filter_radius();
    let prepared: Vec<(i64, Envelope, E::Prepared)> = right
        .iter()
        .map(|(id, g)| (*id, g.envelope().expanded_by(radius), engine.prepare(g)))
        .collect();
    let mut out = Vec::new();
    let mut candidates: u64 = 0;
    let mut accepts: u64 = 0;
    for &(lid, p) in left {
        let mut best: Option<(f64, i64)> = None;
        for &(rid, env, ref target) in &prepared {
            if !env.contains(p.x, p.y) {
                continue;
            }
            candidates += 1;
            if let SpatialPredicate::Nearest(d) = predicate {
                let dist = engine.distance(p, target);
                if dist <= d {
                    accepts += 1;
                    if best.is_none_or(|b| (dist, rid) < b) {
                        best = Some((dist, rid));
                    }
                }
            } else if predicate.eval(engine, p, target) {
                accepts += 1;
                out.push((lid, rid));
            }
        }
        if let Some((_, rid)) = best {
            out.push((lid, rid));
        }
    }
    obs::filter_refine(candidates, accepts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::engine::PreparedEngine;
    use geom::{Geometry, Point, Polygon};

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
    fn outcome_carries_pairs_and_stats() {
        let left = grid_points(10);
        let right = quadrant_polys(5.0);
        let engine = PreparedEngine;
        let outcome = JoinRequest::new(&left, &right, &engine).threads(2).run();
        assert_eq!(outcome.pairs.len(), 100);
        assert_eq!(outcome.stats.name, "join:broadcast");
        // Within on the cell path: every pair is an interior item or an
        // accepted refinement of a boundary item, and every listed item
        // is a filter hit. No tree is walked.
        let c = &outcome.stats.counters;
        assert!(c.cells_interior > 0 && c.cells_boundary > 0);
        assert_eq!(c.refine_accepts + c.cells_interior, 100);
        assert_eq!(c.refine_calls, c.cells_boundary);
        assert_eq!(c.filter_hits, c.cells_interior + c.cells_boundary);
        assert_eq!(c.node_visits, 0);
        assert!(outcome.stats.span("run").is_some());
        let prepare = outcome.stats.span("prepare").expect("prepare span");
        let bulk_load = outcome.stats.span("bulk_load").expect("bulk_load span");
        assert_eq!(bulk_load.count, 1);
        assert!(bulk_load.total_ns <= prepare.total_ns);
        assert!(outcome.stats.span("cover").is_some());
        assert!(outcome.stats.span("probe").is_some());
        assert!(!outcome.stats.workers.is_empty());
        // Pool units: the right side's build chunks, the covering's
        // chunks of the same size, then the probe's morsels.
        assert_eq!(c.morsels_executed, {
            let build = right.len().div_ceil(crate::parallel::BUILD_CHUNK);
            let morsels = left.len().div_ceil(crate::parallel::DEFAULT_MORSEL_SIZE);
            (2 * build + morsels) as u64
        });
    }

    #[test]
    fn strategies_agree_and_report_their_names() {
        let left = grid_points(8);
        let right = quadrant_polys(4.0);
        let engine = PreparedEngine;
        let broadcast = JoinRequest::new(&left, &right, &engine).run();
        let nested = JoinRequest::new(&left, &right, &engine).nested_loop().run();
        assert_eq!(
            crate::normalize_pairs(broadcast.pairs),
            crate::normalize_pairs(nested.pairs)
        );
        assert_eq!(nested.stats.name, "join:nested-loop");
    }

    #[test]
    fn nested_loop_nearest_emits_the_single_argmin_pair() {
        let left = vec![(0, Point::new(5.0, 1.0))];
        let right: Vec<GeomRecord> = [
            (10, "LINESTRING (0 0, 10 0)"),
            (11, "LINESTRING (0 4, 10 4)"),
        ]
        .into_iter()
        .map(|(id, wkt)| (id, geom::wkt::parse(wkt).unwrap()))
        .collect();
        let engine = PreparedEngine;
        let predicate = SpatialPredicate::Nearest(5.0);
        let broadcast = JoinRequest::new(&left, &right, &engine)
            .predicate(predicate)
            .run();
        let nested = JoinRequest::new(&left, &right, &engine)
            .predicate(predicate)
            .nested_loop()
            .run();
        assert_eq!(broadcast.pairs, vec![(0, 10)]);
        assert_eq!(nested.pairs, broadcast.pairs);
        // Both lines are candidates within D; only the nearer is emitted.
        assert_eq!(nested.stats.counters.filter_hits, 2);
        assert_eq!(nested.stats.counters.refine_accepts, 2);
    }

    #[test]
    fn counts_flow_to_outer_snapshot_exactly_once() {
        let left = grid_points(10);
        let right = quadrant_polys(5.0);
        std::thread::spawn(move || {
            let engine = PreparedEngine;
            let before = obs::thread_snapshot();
            let outcome = JoinRequest::new(&left, &right, &engine).threads(3).run();
            let delta = obs::thread_snapshot().minus(&before);
            // The outer delta and the reported stats agree: worker
            // counts were folded in exactly once.
            assert_eq!(delta, outcome.stats.counters);
            assert_eq!(delta.refine_accepts + delta.cells_interior, 100);
        })
        .join()
        .unwrap();
    }
}
