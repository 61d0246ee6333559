//! Property tests over the unified [`spatialjoin::JoinRequest`] API,
//! on the in-tree `proph` harness.
//!
//! Three contracts:
//!
//! * **Bit-identity** — the broadcast strategy matches the hand-rolled
//!   one-thread `PreparedSet` probe loop, the nested-loop strategy
//!   matches an inline reference double loop (and the broadcast
//!   strategy on arg-min `Nearest`), and the output is identical across
//!   thread counts.
//! * **Accounting** — the [`obs::RunStats`] carried by every outcome
//!   obey the counter algebra: for `Within`, refinement accepts plus
//!   interior-cell pairs equal the pairs, filter hits equal refinement
//!   calls plus interior-cell pairs, per-worker busy time is bounded by
//!   the run wall time, and counters do not depend on the thread count
//!   at all.
//! * **Predicate agreement** — every `Nearest(d)` pair is a
//!   `NearestD(d)` pair on every engine, polygon targets included.

use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, RefinementEngine, SpatialPredicate};
use geom::{Envelope, Geometry, Point, Polygon};
use proph::{check_with, f64_range, vec_of, Config, Gen, GenExt};
use spatialjoin::{GeomRecord, JoinPair, JoinRequest, PointRecord, PreparedSet};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Generator: left points in a compact window so joins actually match.
fn left_points() -> impl Gen<Value = Vec<PointRecord>> {
    vec_of((f64_range(0.0, 40.0), f64_range(0.0, 40.0)), 0, 90).map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| (i as i64, Point::new(x, y)))
            .collect()
    })
}

/// Generator: axis-aligned rectangles as the right side.
fn right_rects() -> impl Gen<Value = Vec<GeomRecord>> {
    vec_of(
        (
            f64_range(0.0, 35.0),
            f64_range(0.0, 35.0),
            f64_range(0.5, 12.0),
            f64_range(0.5, 12.0),
        ),
        1,
        25,
    )
    .map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| {
                (
                    i as i64,
                    Geometry::Polygon(Polygon::rectangle(Envelope::new(x, y, x + w, y + h))),
                )
            })
            .collect()
    })
}

fn cfg() -> Config {
    Config {
        cases: 48,
        ..Config::default()
    }
}

#[test]
fn broadcast_request_is_bit_identical_to_manual_probe_loop() {
    check_with(
        cfg(),
        "broadcast_request_is_bit_identical_to_manual_probe_loop",
        &(left_points(), right_rects()),
        |(left, right)| {
            let engine = PreparedEngine;
            for predicate in [SpatialPredicate::Within, SpatialPredicate::NearestD(3.0)] {
                // The serial reference loop, spelled out by hand.
                let set = PreparedSet::prepare(&right, predicate, &engine);
                let mut reference = Vec::new();
                for &(id, p) in &left {
                    set.probe_into(&engine, id, p, &mut reference);
                }
                for threads in THREAD_COUNTS {
                    let outcome = JoinRequest::new(&left, &right, &engine)
                        .predicate(predicate)
                        .threads(threads)
                        .run();
                    assert_eq!(
                        outcome.pairs, reference,
                        "broadcast request diverged at {threads} threads ({predicate:?})"
                    );
                }
            }
        },
    );
}

#[test]
fn nested_loop_request_is_bit_identical_to_reference_loop() {
    check_with(
        cfg(),
        "nested_loop_request_is_bit_identical_to_reference_loop",
        &(left_points(), right_rects()),
        |(left, right)| {
            let engine = FlatEngine;
            let predicate = SpatialPredicate::Within;
            let radius = predicate.filter_radius();
            let prepared: Vec<(i64, Envelope, _)> = right
                .iter()
                .map(|(id, g)| {
                    (
                        *id,
                        geom::HasEnvelope::envelope(g).expanded_by(radius),
                        engine.prepare(g),
                    )
                })
                .collect();
            let mut reference = Vec::new();
            for &(lid, p) in &left {
                for (rid, env, t) in &prepared {
                    if env.contains(p.x, p.y) && predicate.eval(&engine, p, t) {
                        reference.push((lid, *rid));
                    }
                }
            }
            let outcome = JoinRequest::new(&left, &right, &engine).nested_loop().run();
            assert_eq!(outcome.pairs, reference);
        },
    );
}

#[test]
fn nested_loop_nearest_matches_broadcast() {
    check_with(
        cfg(),
        "nested_loop_nearest_matches_broadcast",
        &(left_points(), right_rects()),
        |(left, right)| {
            // Both strategies take the arg-min over the candidates within
            // D (ties to the smaller right id), so each emits at most one
            // pair per point, in left order.
            let predicate = SpatialPredicate::Nearest(3.0);
            let engine = PreparedEngine;
            let broadcast = JoinRequest::new(&left, &right, &engine)
                .predicate(predicate)
                .run();
            let nested = JoinRequest::new(&left, &right, &engine)
                .predicate(predicate)
                .nested_loop()
                .run();
            assert_eq!(nested.pairs, broadcast.pairs);
        },
    );
}

/// Every `Nearest(d)` pair of `engine` is also a `NearestD(d)` pair:
/// both predicates measure the same distance, 0 inside a polygon.
fn assert_nearest_within_nearestd<E: RefinementEngine>(
    engine: &E,
    left: &[PointRecord],
    right: &[GeomRecord],
) {
    let join = |predicate| {
        JoinRequest::new(left, right, engine)
            .predicate(predicate)
            .run()
            .pairs
    };
    let within_d: std::collections::HashSet<JoinPair> =
        join(SpatialPredicate::NearestD(3.0)).into_iter().collect();
    for pair in join(SpatialPredicate::Nearest(3.0)) {
        assert!(within_d.contains(&pair), "{}: {pair:?}", engine.name());
    }
}

#[test]
fn nearest_pairs_are_nearestd_pairs_on_polygons() {
    check_with(
        cfg(),
        "nearest_pairs_are_nearestd_pairs_on_polygons",
        &(left_points(), right_rects()),
        |(left, right)| {
            assert_nearest_within_nearestd(&PreparedEngine, &left, &right);
            assert_nearest_within_nearestd(&FlatEngine, &left, &right);
            assert_nearest_within_nearestd(&NaiveEngine, &left, &right);
        },
    );
}

/// The counter algebra of one broadcast `Within` run. `covered` says
/// whether the engine probes a cell covering (interior items are pairs
/// without refinement, boundary items are refined, no tree is walked)
/// or the STR tree (no cells; every candidate is refined).
fn assert_counter_algebra<E: RefinementEngine>(
    engine: &E,
    covered: bool,
    left: &[PointRecord],
    right: &[GeomRecord],
) {
    for threads in THREAD_COUNTS {
        let outcome = JoinRequest::new(left, right, engine).threads(threads).run();
        let c = &outcome.stats.counters;
        let pairs = outcome.pairs.len() as u64;
        // Every pair is an interior item or an accepted refinement,
        // and every filter hit is one or the other.
        assert_eq!(c.refine_accepts + c.cells_interior, pairs);
        assert_eq!(c.filter_hits, c.refine_calls + c.cells_interior);
        if covered {
            assert_eq!(c.refine_calls, c.cells_boundary);
            assert_eq!(c.node_visits, 0);
        } else {
            assert_eq!((c.cells_interior, c.cells_boundary), (0, 0));
        }
        // Workers only run inside the request's wall clock.
        let wall = outcome.stats.span("run").expect("run span").total_ns;
        let busy: u64 = outcome.stats.workers.iter().map(|w| w.busy_ns).sum();
        assert!(
            busy <= wall.saturating_mul(threads as u64),
            "Σ busy {busy} ns > wall {wall} ns × {threads}"
        );
    }
}

#[test]
fn run_stats_obey_counter_algebra() {
    check_with(
        cfg(),
        "run_stats_obey_counter_algebra",
        &(left_points(), right_rects()),
        |(left, right)| {
            assert_counter_algebra(&PreparedEngine, true, &left, &right);
            assert_counter_algebra(&FlatEngine, false, &left, &right);
        },
    );
}

#[test]
fn counters_do_not_depend_on_thread_count_or_schedule() {
    check_with(
        cfg(),
        "counters_do_not_depend_on_thread_count_or_schedule",
        &(left_points(), right_rects()),
        |(left, right)| {
            let engine = PreparedEngine;
            let baseline = JoinRequest::new(&left, &right, &engine).threads(1).run();
            for threads in THREAD_COUNTS {
                let outcome = JoinRequest::new(&left, &right, &engine)
                    .threads(threads)
                    .run();
                assert_eq!(outcome.pairs, baseline.pairs);
                // Every counter, the morsel count included, is
                // deterministic, whichever worker the dynamic schedule
                // hands each morsel to.
                let (a, b) = (baseline.stats.counters, outcome.stats.counters);
                assert_eq!(a, b, "counters diverged at {threads} threads");
            }
        },
    );
}
