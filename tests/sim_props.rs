//! Property tests for the cluster replay simulator, on the in-tree
//! `proph` harness.
//!
//! These pin the invariants the Fig. 4/5 replays lean on (SpatialSpark
//! replays under `Dynamic`; ISP-MC's replay uses `StaticLocality` for
//! its scan ranges and `StaticChunked` within a node): no scheduler
//! beats the work/cores lower bound, utilisation is a true fraction,
//! `StaticLocality` really honours its hints, and dynamic scheduling
//! never loses to static chunking on the hot-front task sets that
//! spatially sorted skewed data produces.

use cluster::{simulate, ClusterSpec, Scheduler, SimReport, TaskSpec};
use proph::{check_with, f64_range, usize_range, vec_of, Config, Gen, GenExt};

const ALL_SCHEDULERS: [Scheduler; 3] = [
    Scheduler::Dynamic,
    Scheduler::StaticChunked,
    Scheduler::StaticLocality,
];

fn spec(nodes: usize, cores: usize) -> ClusterSpec {
    ClusterSpec {
        num_nodes: nodes,
        cores_per_node: cores,
        mem_per_node: 1 << 30,
    }
}

/// Generator: positive task costs with a wide dynamic range.
fn costs() -> impl Gen<Value = Vec<f64>> {
    vec_of(f64_range(0.01, 5.0), 1, 200)
}

fn tasks_of(costs: &[f64]) -> Vec<TaskSpec> {
    costs.iter().map(|&c| TaskSpec::of_cost(c)).collect()
}

/// Generator: a hot contiguous prefix ahead of a cold tail — the shape
/// a spatially sorted file with one dense region hands the executor.
fn hot_front() -> impl Gen<Value = Vec<f64>> {
    (
        vec_of(f64_range(5.0, 10.0), 4, 40),
        vec_of(f64_range(0.01, 0.2), 20, 300),
    )
        .map(|(hot, cold)| {
            let mut all = hot;
            all.extend(cold);
            all
        })
}

#[test]
fn prop_makespan_at_least_work_over_cores() {
    check_with(
        Config {
            cases: 200,
            ..Config::default()
        },
        "makespan ≥ total_work / total_cores",
        &(costs(), usize_range(1, 10), usize_range(1, 8)),
        |(costs, nodes, cores)| {
            let tasks = tasks_of(&costs);
            let spec = spec(nodes, cores);
            let lower = costs.iter().sum::<f64>() / spec.total_cores() as f64;
            for sched in ALL_SCHEDULERS {
                let r = simulate(&tasks, &spec, sched);
                assert!(
                    r.makespan >= lower - 1e-9,
                    "{sched:?}: makespan {} below work/cores {lower}",
                    r.makespan
                );
            }
        },
    );
}

#[test]
fn prop_utilisation_is_a_fraction() {
    check_with(
        Config {
            cases: 200,
            ..Config::default()
        },
        "utilisation ∈ (0, 1]",
        &(costs(), usize_range(1, 10), usize_range(1, 8)),
        |(costs, nodes, cores)| {
            let tasks = tasks_of(&costs);
            let spec = spec(nodes, cores);
            for sched in ALL_SCHEDULERS {
                let r = simulate(&tasks, &spec, sched);
                assert!(
                    r.utilisation > 0.0 && r.utilisation <= 1.0 + 1e-9,
                    "{sched:?}: utilisation {}",
                    r.utilisation
                );
                assert!(r.imbalance() >= 1.0 - 1e-9, "imbalance {}", r.imbalance());
            }
        },
    );
}

#[test]
fn prop_static_locality_honours_hints() {
    check_with(
        Config {
            cases: 150,
            ..Config::default()
        },
        "StaticLocality runs every hinted task on its node",
        &(
            vec_of((f64_range(0.01, 2.0), usize_range(0, 9)), 1, 120),
            usize_range(1, 10),
        ),
        |(tagged, nodes)| {
            let spec = spec(nodes, 4);
            let tasks: Vec<TaskSpec> = tagged
                .iter()
                .map(|&(cost, tag)| TaskSpec {
                    cost,
                    locality: Some(tag),
                })
                .collect();
            let r: SimReport = simulate(&tasks, &spec, Scheduler::StaticLocality);
            let mut expected_tasks = vec![0usize; nodes];
            let mut expected_busy = vec![0.0f64; nodes];
            for &(cost, tag) in &tagged {
                expected_tasks[tag % nodes] += 1;
                expected_busy[tag % nodes] += cost;
            }
            assert_eq!(r.node_tasks, expected_tasks, "task placement");
            for (got, want) in r.node_busy.iter().zip(&expected_busy) {
                assert!((got - want).abs() < 1e-9, "busy {got} vs hinted {want}");
            }
        },
    );
}

#[test]
fn prop_dynamic_beats_static_chunking_on_hot_front() {
    check_with(
        Config {
            cases: 120,
            ..Config::default()
        },
        "Dynamic makespan ≤ StaticChunked on hot-front task sets",
        &(hot_front(), usize_range(2, 10)),
        |(costs, nodes)| {
            let tasks = tasks_of(&costs);
            let spec = spec(nodes, 4);
            let dynamic = simulate(&tasks, &spec, Scheduler::Dynamic);
            let chunked = simulate(&tasks, &spec, Scheduler::StaticChunked);
            assert!(
                dynamic.makespan <= chunked.makespan + 1e-9,
                "dynamic {} vs chunked {} ({} tasks, {nodes} nodes)",
                dynamic.makespan,
                chunked.makespan,
                tasks.len()
            );
        },
    );
}
