//! Discrete-event replay of a task set on a simulated cluster.
//!
//! Tasks carry *measured* CPU costs (from [`crate::pool`]); the
//! simulator replays them under a scheduling policy and reports the
//! makespan and per-node utilisation. This is how the workspace turns
//! one local run into the paper's 4/6/8/10-node scalability curves.

use crate::topology::ClusterSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One schedulable task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// CPU seconds the task takes on one core (measured, not guessed).
    pub cost: f64,
    /// Preferred node (HDFS block locality), if any.
    pub locality: Option<usize>,
}

impl TaskSpec {
    /// A task with no locality preference.
    pub fn of_cost(cost: f64) -> TaskSpec {
        TaskSpec {
            cost,
            locality: None,
        }
    }
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Spark-style dynamic scheduling: one global FIFO queue; any free
    /// core anywhere pulls the next task. Naturally load-balancing.
    Dynamic,
    /// Impala/OpenMP-style static scheduling: tasks are pre-assigned in
    /// contiguous chunks to nodes, and within a node in contiguous
    /// chunks to cores, before execution starts. No work ever moves,
    /// so skewed task costs translate directly into imbalance.
    StaticChunked,
    /// Static assignment by data locality: each task runs on the node
    /// holding its block (Impala's scan-range assignment); round-robin
    /// for tasks without a locality hint. Within a node, cores are
    /// filled with static chunking.
    StaticLocality,
}

/// Result of a simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock seconds until the last task finishes.
    pub makespan: f64,
    /// Busy seconds per node (sum over its cores).
    pub node_busy: Vec<f64>,
    /// Number of tasks each node executed.
    pub node_tasks: Vec<usize>,
    /// Total CPU seconds across all tasks.
    pub total_work: f64,
    /// `total_work / (makespan × total_cores)` — 1.0 is perfect.
    pub utilisation: f64,
}

impl SimReport {
    /// Ratio of the busiest node's work to the average — 1.0 is
    /// perfectly balanced. The paper observes "some Impala instances
    /// take much longer to complete the spatial joins than others".
    pub fn imbalance(&self) -> f64 {
        let max = self.node_busy.iter().cloned().fold(0.0, f64::max);
        let avg = self.node_busy.iter().sum::<f64>() / self.node_busy.len().max(1) as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

/// Replays `tasks` on `spec` under `scheduler`.
pub fn simulate(tasks: &[TaskSpec], spec: &ClusterSpec, scheduler: Scheduler) -> SimReport {
    // A zero-node or zero-core spec can run nothing: report the
    // degenerate shape instead of underflowing the static chunking
    // arithmetic (mirrors `simulate_dynamic`'s empty-heap `break`).
    if spec.num_nodes == 0 || spec.cores_per_node == 0 {
        return finish_report(
            tasks,
            spec,
            0.0,
            vec![0.0; spec.num_nodes],
            vec![0; spec.num_nodes],
        );
    }
    match scheduler {
        Scheduler::Dynamic => simulate_dynamic(tasks, spec),
        Scheduler::StaticChunked => {
            let assignment = chunked_assignment(tasks.len(), spec.num_nodes);
            simulate_static(tasks, spec, &assignment)
        }
        Scheduler::StaticLocality => {
            let assignment: Vec<usize> = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| t.locality.unwrap_or(i % spec.num_nodes) % spec.num_nodes)
                .collect();
            simulate_static(tasks, spec, &assignment)
        }
    }
}

/// Impala-style scan-range assignment: maps each task's partition /
/// block tag to a node, placing whole partitions (largest first) on
/// the node with the fewest assigned tasks — the simple-scheduler's
/// balance-bytes-per-node rule. Tasks sharing a tag always land on the
/// same node (that is the locality), but *which* node a partition gets
/// is chosen for load balance, unlike a bare `tag % num_nodes`.
///
/// Feed the result into [`TaskSpec::locality`] before a
/// [`Scheduler::StaticLocality`] replay. Returns an empty vec for a
/// zero-node spec.
pub fn scan_range_assignment(tags: &[usize], num_nodes: usize) -> Vec<usize> {
    if num_nodes == 0 {
        return Vec::new();
    }
    // Count tasks per distinct tag, keeping first-seen order stable.
    let mut order: Vec<usize> = Vec::new();
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for &t in tags {
        if *counts.entry(t).and_modify(|c| *c += 1).or_insert(1) == 1 {
            order.push(t);
        }
    }
    // Largest partitions first; ties by first-seen order (stable and
    // deterministic across runs).
    let mut ranked: Vec<usize> = order.clone();
    ranked.sort_by_key(|t| std::cmp::Reverse(counts[t]));
    let mut node_load = vec![0usize; num_nodes];
    let mut node_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for tag in ranked {
        let node = (0..num_nodes)
            .min_by_key(|&n| (node_load[n], n))
            .unwrap_or(0);
        node_load[node] += counts[&tag];
        node_of.insert(tag, node);
    }
    tags.iter().map(|t| node_of[t]).collect()
}

/// `tasks[i] → node assignment[i]`, contiguous chunks (OpenMP static).
/// With no nodes there is no assignment at all (the caller reports a
/// degenerate run rather than dividing by zero here).
fn chunked_assignment(num_tasks: usize, num_nodes: usize) -> Vec<usize> {
    if num_nodes == 0 {
        return Vec::new();
    }
    (0..num_tasks)
        .map(|i| (i * num_nodes) / num_tasks.max(1))
        .map(|n| n.min(num_nodes - 1))
        .collect()
}

fn simulate_dynamic(tasks: &[TaskSpec], spec: &ClusterSpec) -> SimReport {
    let cores = spec.total_cores();
    // Min-heap of (free_time, core_id).
    let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> =
        (0..cores).map(|c| Reverse((OrdF64(0.0), c))).collect();
    let mut node_busy = vec![0.0; spec.num_nodes];
    let mut node_tasks = vec![0usize; spec.num_nodes];
    let mut makespan = 0.0f64;
    for t in tasks {
        // A zero-core cluster spec can run nothing; report what we have.
        let Some(Reverse((OrdF64(free_at), core))) = heap.pop() else {
            break;
        };
        let done = free_at + t.cost;
        let node = core / spec.cores_per_node;
        node_busy[node] += t.cost;
        node_tasks[node] += 1;
        makespan = makespan.max(done);
        heap.push(Reverse((OrdF64(done), core)));
    }
    finish_report(tasks, spec, makespan, node_busy, node_tasks)
}

fn simulate_static(tasks: &[TaskSpec], spec: &ClusterSpec, assignment: &[usize]) -> SimReport {
    // Group task ids per node preserving order, then chunk statically
    // over the node's cores.
    let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); spec.num_nodes];
    for (i, &node) in assignment.iter().enumerate() {
        per_node[node].push(i);
    }
    let mut node_busy = vec![0.0; spec.num_nodes];
    let mut node_tasks = vec![0usize; spec.num_nodes];
    let mut makespan = 0.0f64;
    for (node, ids) in per_node.iter().enumerate() {
        node_tasks[node] = ids.len();
        let cores = spec.cores_per_node;
        let mut core_time = vec![0.0f64; cores];
        for (k, &tid) in ids.iter().enumerate() {
            // Static chunking: contiguous runs of tasks per core. The
            // saturating clamp keeps a (guarded-against) zero-core spec
            // from underflowing rather than panicking.
            let core = ((k * cores) / ids.len().max(1)).min(cores.saturating_sub(1));
            core_time[core] += tasks[tid].cost;
        }
        node_busy[node] = core_time.iter().sum();
        let node_makespan = core_time.iter().cloned().fold(0.0, f64::max);
        makespan = makespan.max(node_makespan);
    }
    finish_report(tasks, spec, makespan, node_busy, node_tasks)
}

fn finish_report(
    tasks: &[TaskSpec],
    spec: &ClusterSpec,
    makespan: f64,
    node_busy: Vec<f64>,
    node_tasks: Vec<usize>,
) -> SimReport {
    let total_work: f64 = tasks.iter().map(|t| t.cost).sum();
    let denom = makespan * spec.total_cores() as f64;
    SimReport {
        makespan,
        node_busy,
        node_tasks,
        total_work,
        utilisation: if denom > 0.0 { total_work / denom } else { 1.0 },
    }
}

/// `f64` wrapper with a total order for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, cost: f64) -> Vec<TaskSpec> {
        vec![TaskSpec::of_cost(cost); n]
    }

    fn two_node_two_core() -> ClusterSpec {
        ClusterSpec {
            num_nodes: 2,
            cores_per_node: 2,
            mem_per_node: 1 << 30,
        }
    }

    #[test]
    fn uniform_tasks_perfectly_parallel() {
        let spec = two_node_two_core();
        let tasks = uniform(8, 1.0);
        for sched in [
            Scheduler::Dynamic,
            Scheduler::StaticChunked,
            Scheduler::StaticLocality,
        ] {
            let r = simulate(&tasks, &spec, sched);
            assert!(
                (r.makespan - 2.0).abs() < 1e-9,
                "{sched:?}: 8 × 1 s on 4 cores = 2 s, got {}",
                r.makespan
            );
            assert!((r.utilisation - 1.0).abs() < 1e-9);
            assert!((r.imbalance() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn skew_hurts_static_more_than_dynamic() {
        let spec = two_node_two_core();
        // One giant task block at the front, like a dense spatial
        // partition: static chunking piles the expensive ones on node 0.
        let mut tasks = Vec::new();
        for i in 0..40 {
            tasks.push(TaskSpec::of_cost(if i < 10 { 4.0 } else { 0.1 }));
        }
        let dynamic = simulate(&tasks, &spec, Scheduler::Dynamic);
        let static_ = simulate(&tasks, &spec, Scheduler::StaticChunked);
        assert!(
            static_.makespan > dynamic.makespan * 1.4,
            "static {} vs dynamic {}",
            static_.makespan,
            dynamic.makespan
        );
        assert!(static_.imbalance() > dynamic.imbalance());
    }

    #[test]
    fn dynamic_scales_with_node_count() {
        let tasks = uniform(800, 0.5);
        let four = simulate(&tasks, &ClusterSpec::ec2_with_nodes(4), Scheduler::Dynamic);
        let ten = simulate(&tasks, &ClusterSpec::ec2_with_nodes(10), Scheduler::Dynamic);
        let speedup = four.makespan / ten.makespan;
        assert!(speedup > 2.0 && speedup <= 2.6, "speedup {speedup}");
    }

    #[test]
    fn locality_assignment_honoured() {
        let spec = two_node_two_core();
        let tasks = vec![
            TaskSpec {
                cost: 1.0,
                locality: Some(1),
            };
            4
        ];
        let r = simulate(&tasks, &spec, Scheduler::StaticLocality);
        assert_eq!(r.node_tasks, vec![0, 4]);
        assert_eq!(r.node_busy[0], 0.0);
        // All the work on one node halves effective parallelism.
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_task_list() {
        let spec = two_node_two_core();
        let r = simulate(&[], &spec, Scheduler::Dynamic);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.total_work, 0.0);
        let r2 = simulate(&[], &spec, Scheduler::StaticChunked);
        assert_eq!(r2.makespan, 0.0);
    }

    #[test]
    fn single_task_runs_on_one_core() {
        let spec = ClusterSpec::ec2_paper_cluster();
        let r = simulate(&[TaskSpec::of_cost(3.0)], &spec, Scheduler::Dynamic);
        assert!((r.makespan - 3.0).abs() < 1e-12);
        assert!((r.utilisation - 3.0 / (3.0 * 80.0)).abs() < 1e-9);
    }

    #[test]
    fn scan_range_assignment_balances_and_pins_partitions() {
        // Tags 0..4 with wildly different sizes: 8, 4, 2, 1 tasks.
        let mut tags = Vec::new();
        for (tag, n) in [(0usize, 8usize), (1, 4), (2, 2), (3, 1)] {
            tags.extend(std::iter::repeat_n(tag, n));
        }
        let assign = scan_range_assignment(&tags, 2);
        assert_eq!(assign.len(), tags.len());
        // Same tag -> same node (the locality invariant).
        for (i, &t) in tags.iter().enumerate() {
            let first = tags.iter().position(|&u| u == t).unwrap();
            assert_eq!(assign[i], assign[first]);
        }
        // Greedy largest-first: node loads are 8 vs 7, not 12 vs 3.
        let load0 = assign.iter().filter(|&&n| n == 0).count();
        let load1 = assign.iter().filter(|&&n| n == 1).count();
        assert_eq!(load0.max(load1), 8, "loads {load0}/{load1}");
        // Degenerate inputs.
        assert!(scan_range_assignment(&tags, 0).is_empty());
        assert!(scan_range_assignment(&[], 4).is_empty());
    }

    #[test]
    fn zero_node_and_zero_core_specs_do_not_panic() {
        let tasks = uniform(16, 1.0);
        let no_nodes = ClusterSpec {
            num_nodes: 0,
            cores_per_node: 8,
            mem_per_node: 1 << 30,
        };
        let no_cores = ClusterSpec {
            num_nodes: 4,
            cores_per_node: 0,
            mem_per_node: 1 << 30,
        };
        for spec in [no_nodes, no_cores] {
            for sched in [
                Scheduler::Dynamic,
                Scheduler::StaticChunked,
                Scheduler::StaticLocality,
            ] {
                let r = simulate(&tasks, &spec, sched);
                assert_eq!(r.makespan, 0.0, "{sched:?} on {spec:?}");
                assert_eq!(r.node_busy.len(), spec.num_nodes);
                assert_eq!(r.node_tasks.iter().sum::<usize>(), 0);
                assert!((r.utilisation - 1.0).abs() < 1e-12);
                assert!(r.imbalance().is_finite());
            }
        }
        assert!(chunked_assignment(5, 0).is_empty());
    }

    #[test]
    fn chunked_assignment_is_contiguous_and_balanced() {
        let a = chunked_assignment(10, 3);
        assert_eq!(a, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let b = chunked_assignment(2, 4);
        assert!(b.iter().all(|&n| n < 4));
    }
}
