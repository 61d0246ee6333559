//! Property-based tests for the STR space partitioner, running on the
//! in-tree `proph` harness.

use geom::{Envelope, Point};
use proph::{check_with, f64_range, vec_of, Config, Gen, GenExt};
use rtree::StrPartitioner;

/// 96 cases to match the original suite's budget.
fn check<G, P>(name: &str, gen: &G, prop: P)
where
    G: Gen,
    G::Value: std::fmt::Debug,
    P: Fn(G::Value),
{
    check_with(
        Config {
            cases: 96,
            ..Config::default()
        },
        name,
        gen,
        prop,
    );
}

fn coord() -> impl Gen<Value = f64> {
    f64_range(-100.0, 100.0)
}

fn points(n: usize) -> impl Gen<Value = Vec<Point>> {
    vec_of((coord(), coord()), 3, n - 1)
        .map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

// --- partitioner ---

#[test]
fn str_partitioner_owns_every_interior_point() {
    check(
        "str_partitioner_owns_every_interior_point",
        &(points(200), points(50)),
        |(sample, probes)| {
            let extent = Envelope::new(-100.0, -100.0, 100.0, 100.0);
            let p = StrPartitioner::build(extent, &sample, 16);
            for probe in probes {
                let cell = p.cell_of(probe).expect("interior point must be owned");
                assert!(p.cells()[cell].contains(probe.x, probe.y));
                // The owning cell is among the cells any envelope around the
                // point routes to — the partitioned-join invariant.
                let routed = p.cells_intersecting(&Envelope::of_point(probe).expanded_by(1.0));
                assert!(routed.contains(&cell));
            }
        },
    );
}
