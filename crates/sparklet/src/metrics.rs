//! Stage metrics and job-level replay.

use cluster::{simulate, ClusterSpec, NetworkModel, Scheduler, TaskSpec};

/// What one executed stage cost.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Human-readable stage name ("map:parse-wkt", …).
    pub name: String,
    /// Measured per-task (per-partition) costs.
    pub tasks: Vec<TaskSpec>,
    /// Bytes broadcast to every node before the stage ran.
    pub broadcast_bytes: u64,
}

impl StageMetrics {
    /// Total measured CPU seconds across the stage's tasks.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }
}

/// A summary of every stage a context has executed.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub stages: Vec<StageMetrics>,
}

impl JobReport {
    /// Total measured CPU seconds across all stages.
    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(StageMetrics::total_work).sum()
    }

    /// Total bytes broadcast across all stages.
    pub fn total_broadcast_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.broadcast_bytes).sum()
    }

    /// Rebases the report onto the workspace observability layer: one
    /// [`obs::RunStats`] child per stage, the stage's task costs
    /// aggregated into a `"tasks"` span and its broadcast bytes into
    /// `bytes_broadcast`. Root-level hot-path counters (filter/refine/edge
    /// visits) are *not* reconstructed here — they accumulate in the
    /// caller's thread cells while the job runs and belong to whatever
    /// snapshot delta the caller takes around it.
    pub fn to_run_stats(&self, name: &str) -> obs::RunStats {
        let mut root = obs::RunStats::new(name);
        for stage in &self.stages {
            let mut child = obs::RunStats::new(&stage.name);
            child.spans.push(obs::SpanStat::from_secs(
                "tasks",
                stage.tasks.len() as u64,
                stage.total_work(),
            ));
            child.counters.bytes_broadcast = stage.broadcast_bytes;
            root.children.push(child);
        }
        root
    }

    /// Replays the job on a simulated cluster: job startup (jar
    /// shipping), then per stage the coordination cost, the
    /// broadcast, and the task makespan under `scheduler`.
    pub fn simulate_runtime(
        &self,
        spec: &ClusterSpec,
        network: &NetworkModel,
        scheduler: Scheduler,
    ) -> f64 {
        let mut total = network.job_startup_cost(spec.num_nodes);
        for stage in &self.stages {
            total += network.stage_coordination_cost(stage.tasks.len());
            total += network.broadcast_cost(stage.broadcast_bytes, spec.num_nodes);
            total += simulate(&stage.tasks, spec, scheduler).makespan;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, costs: &[f64]) -> StageMetrics {
        StageMetrics {
            name: name.into(),
            tasks: costs.iter().map(|&c| TaskSpec::of_cost(c)).collect(),
            broadcast_bytes: 0,
        }
    }

    #[test]
    fn totals_add_up() {
        let report = JobReport {
            stages: vec![stage("a", &[1.0, 2.0]), stage("b", &[3.0])],
        };
        assert_eq!(report.total_work(), 6.0);
    }

    #[test]
    fn run_stats_mirror_stages() {
        let mut s = stage("map:parse", &[1.0, 2.0]);
        s.broadcast_bytes = 10;
        let report = JobReport {
            stages: vec![s, stage("probe", &[0.5])],
        };
        let stats = report.to_run_stats("job");
        assert_eq!(stats.name, "job");
        assert_eq!(stats.children.len(), 2);
        let parse = stats.child("map:parse").unwrap();
        assert_eq!(parse.counters.bytes_broadcast, 10);
        let tasks = parse.span("tasks").unwrap();
        assert_eq!(tasks.count, 2);
        assert_eq!(tasks.total_ns, 3_000_000_000);
        assert_eq!(stats.total_counters().bytes_broadcast, 10);
    }

    #[test]
    fn more_nodes_means_faster_until_overheads_dominate() {
        let tasks: Vec<f64> = vec![0.5; 320];
        let report = JobReport {
            stages: vec![stage("work", &tasks)],
        };
        let net = NetworkModel::ec2_spark();
        let t4 = report.simulate_runtime(&ClusterSpec::ec2_with_nodes(4), &net, Scheduler::Dynamic);
        let t10 =
            report.simulate_runtime(&ClusterSpec::ec2_with_nodes(10), &net, Scheduler::Dynamic);
        assert!(t10 < t4);
        // Parallel efficiency is below 1.0 because of fixed overheads.
        let eff = (t4 / t10) / 2.5;
        assert!(eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn broadcast_bytes_charged_once_per_stage() {
        let mut s = stage("b", &[0.1]);
        s.broadcast_bytes = 200_000_000;
        let report = JobReport { stages: vec![s] };
        let net = NetworkModel::ec2_spark();
        let one =
            report.simulate_runtime(&ClusterSpec::ec2_with_nodes(1), &net, Scheduler::Dynamic);
        let ten =
            report.simulate_runtime(&ClusterSpec::ec2_with_nodes(10), &net, Scheduler::Dynamic);
        // Broadcast is free on one node, costly on ten.
        assert!(ten > one + 1.0);
    }
}
