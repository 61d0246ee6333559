//! Integration tests of the cluster-replay layer: the qualitative
//! behaviours the paper's evaluation depends on must hold in the
//! simulator.

use cluster::{simulate, ClusterSpec, NetworkModel, Scheduler, TaskSpec};
use minihdfs::MiniDfs;
use spatialjoin::{IspMc, SpatialPredicate, SpatialSpark};

fn skewed_tasks(n: usize) -> Vec<TaskSpec> {
    // Heavy-tailed costs in *contiguous runs*, like a spatially ordered
    // file where hot regions are adjacent.
    (0..n)
        .map(|i| TaskSpec::of_cost(if (i / 16) % 8 == 0 { 2.0 } else { 0.05 }))
        .collect()
}

#[test]
fn dynamic_never_loses_to_static() {
    let tasks = skewed_tasks(512);
    for nodes in [2, 4, 8] {
        let spec = ClusterSpec::ec2_with_nodes(nodes);
        let dynamic = simulate(&tasks, &spec, Scheduler::Dynamic).makespan;
        let static_ = simulate(&tasks, &spec, Scheduler::StaticChunked).makespan;
        assert!(
            dynamic <= static_ + 1e-9,
            "dynamic {dynamic} must be <= static {static_} on {nodes} nodes"
        );
    }
}

#[test]
fn makespan_decreases_with_node_count_for_big_jobs() {
    let tasks: Vec<TaskSpec> = (0..4000).map(|_| TaskSpec::of_cost(0.5)).collect();
    let mut prev = f64::INFINITY;
    for nodes in [2, 4, 6, 8, 10] {
        let spec = ClusterSpec::ec2_with_nodes(nodes);
        let r = simulate(&tasks, &spec, Scheduler::Dynamic);
        assert!(r.makespan < prev, "makespan must shrink at {nodes} nodes");
        assert!(r.utilisation > 0.9, "uniform tasks should utilise well");
        prev = r.makespan;
    }
}

#[test]
fn static_scheduling_shows_imbalance_on_skew() {
    let tasks = skewed_tasks(512);
    let spec = ClusterSpec::ec2_with_nodes(8);
    let report = simulate(&tasks, &spec, Scheduler::StaticChunked);
    assert!(
        report.imbalance() > 1.2,
        "contiguous skew must show up as node imbalance, got {}",
        report.imbalance()
    );
}

#[test]
fn network_model_orders_systems_realistically() {
    let spark = NetworkModel::ec2_spark();
    let impala = NetworkModel::ec2_impala();
    // Spark pays more to start a job and coordinate stages.
    assert!(spark.job_startup_cost(10) > impala.job_startup_cost(10));
    assert!(spark.stage_coordination_cost(500) > impala.stage_coordination_cost(500));
    // But the wire itself is the same hardware.
    assert_eq!(spark.transfer_cost(1 << 20), impala.transfer_cost(1 << 20));
}

/// End-to-end: a real (small) join, replayed across the paper's node
/// sweep, behaves like Figs. 4-5 — runtimes do not explode with nodes,
/// and the ISP-MC standalone variant never costs more than the
/// engine-hosted run on the same machine.
#[test]
fn replayed_scalability_is_sane() {
    let dfs = MiniDfs::new(10, 16 * 1024).unwrap();
    datagen::write_dataset(&dfs, "/taxi", &datagen::taxi::geometries(20_000, 1)).unwrap();
    datagen::write_dataset(&dfs, "/nycb", &datagen::nycb::geometries(2_000, 1)).unwrap();

    let spark = SpatialSpark::new(sparklet::SparkConf::default(), dfs.clone());
    let srun = spark
        .broadcast_spatial_join("/taxi", "/nycb", SpatialPredicate::Within)
        .unwrap();
    let times: Vec<f64> = [4, 6, 8, 10]
        .iter()
        .map(|&n| srun.simulated_runtime(n))
        .collect();
    assert!(times.iter().all(|&t| t.is_finite() && t > 0.0));

    let ispmc = IspMc::new(
        impalite::ImpaladConf::default(),
        dfs,
        ("taxi", "/taxi"),
        ("nycb", "/nycb"),
    );
    let irun = ispmc
        .spatial_join("taxi", "nycb", SpatialPredicate::Within)
        .unwrap();
    let cluster = impalite::ImpaladConf::default().cluster;
    let standalone = irun.result.metrics.simulate_standalone_on(&cluster);
    assert!(standalone <= irun.simulated_runtime(1));
    for n in [4, 6, 8, 10] {
        assert!(irun.simulated_runtime(n).is_finite());
    }
}

#[test]
fn locality_scheduling_respects_block_placement() {
    // All tasks pinned to node 0 must leave other nodes idle.
    let tasks: Vec<TaskSpec> = (0..64)
        .map(|_| TaskSpec {
            cost: 1.0,
            locality: Some(0),
        })
        .collect();
    let spec = ClusterSpec::ec2_with_nodes(4);
    let r = simulate(&tasks, &spec, Scheduler::StaticLocality);
    assert_eq!(r.node_tasks[0], 64);
    assert_eq!(r.node_tasks[1..].iter().sum::<usize>(), 0);
    // Dynamic ignores locality and spreads the same work 4x faster.
    let d = simulate(&tasks, &spec, Scheduler::Dynamic);
    assert!(d.makespan < r.makespan / 2.0);
}
