//! Join-strategy ablation from §II: broadcast indexed join (what both
//! of the paper's systems implement) vs the spatially partitioned join
//! (what SpatialHadoop/HadoopGIS do). Broadcast wins while the right
//! side is small enough to replicate; partitioning amortises as it
//! grows.

use bench::timing::{BenchId, Harness};
use geom::engine::{PreparedEngine, SpatialPredicate};
use spatialjoin::JoinRequest;
use std::hint::black_box;

fn bench_strategies(c: &mut Harness) {
    let points: Vec<(i64, geom::Point)> = datagen::taxi::points(20_000, 42)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as i64, p))
        .collect();

    for right_n in [500usize, 5_000, 40_000] {
        let polys: Vec<(i64, geom::Geometry)> = datagen::nycb::geometries(right_n, 42)
            .into_iter()
            .enumerate()
            .map(|(i, g)| (i as i64, g))
            .collect();
        let mut group = c.benchmark_group(format!("join-strategy/right-{right_n}"));
        group.sample_size(10);
        group.bench_function(BenchId::from_parameter("broadcast"), |b| {
            b.iter(|| {
                JoinRequest::new(black_box(&points), black_box(&polys), &PreparedEngine)
                    .predicate(SpatialPredicate::Within)
                    .run()
                    .pairs
                    .len()
            })
        });
        group.bench_function(BenchId::from_parameter("partitioned"), |b| {
            b.iter(|| {
                JoinRequest::new(black_box(&points), black_box(&polys), &PreparedEngine)
                    .predicate(SpatialPredicate::Within)
                    .partitioned(2_000)
                    .run()
                    .pairs
                    .len()
            })
        });
        group.finish();
    }
}

fn main() {
    let mut harness = Harness::from_args();
    bench_strategies(&mut harness);
}
