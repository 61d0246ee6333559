//! The backend's model: its configuration, what one query execution
//! measured, and the replay of those measurements on a cluster under
//! static scheduling. The fragments themselves run in
//! `spatialjoin::IspMc`, which shares its R-tree build and probe with
//! the other query paths.

use cluster::{
    scan_range_assignment, simulate, ChaosConfig, ClusterSpec, NetworkModel, Scheduler, TaskSpec,
};

use crate::plan::PhysicalPlan;

/// Backend configuration.
#[derive(Debug, Clone)]
pub struct ImpaladConf {
    /// Local worker threads for real execution.
    pub threads: usize,
    /// Simulated cluster for replay.
    pub cluster: ClusterSpec,
    /// Network/coordination model (usually [`NetworkModel::ec2_impala`]).
    pub network: NetworkModel,
    /// Fault injection for the real execution paths. Disabled by
    /// default; when enabled, any fragment failure aborts the query
    /// (fail-fast — Impala has no lineage to recompute from).
    pub chaos: ChaosConfig,
}

impl Default for ImpaladConf {
    fn default() -> ImpaladConf {
        ImpaladConf {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cluster: ClusterSpec::ec2_paper_cluster(),
            network: NetworkModel::ec2_impala(),
            chaos: ChaosConfig::disabled(),
        }
    }
}

/// Multiplicative overhead of pushing rows through the engine's
/// exchange and row-batch machinery (buffering at sender and receiver,
/// pull-based operator dispatch) relative to a bare loop over the same
/// data. Calibrated to the 7–14 % infrastructure overhead the paper
/// measures between ISP-MC and its standalone twin (§V.B).
pub const ROW_BATCH_PIPELINE_TAX: f64 = 0.10;

/// One row batch's probe work: the measured cost of each static OpenMP
/// chunk, plus the scan range (source block) it came from.
///
/// The chunks of a batch run under a **barrier**: the batch is done when
/// its slowest chunk is done ("the workloads assigned to OpenMP threads
/// (within a row batch) can be unbalanced which hurts ISP-MC
/// performance quite a lot", §V.B). Batches stream through an instance
/// sequentially.
#[derive(Debug, Clone)]
pub struct ProbeBatch {
    /// Scan-range tag of the batch's source block; the replay places
    /// whole scan ranges on nodes.
    pub locality: Option<usize>,
    /// Measured seconds per static chunk (one chunk per core).
    pub chunk_costs: Vec<f64>,
}

impl ProbeBatch {
    /// The batch's barrier time: its slowest chunk.
    pub fn barrier_time(&self) -> f64 {
        self.chunk_costs.iter().cloned().fold(0.0, f64::max)
    }

    /// Total CPU seconds across chunks.
    pub fn total(&self) -> f64 {
        self.chunk_costs.iter().sum()
    }
}

/// Everything one query execution measured, for cluster replay. An
/// `EXPLAIN` plans without executing and measures nothing: the default.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Per-block cost of scanning/splitting the left table into rows,
    /// each tagged with its block's scan range.
    pub scan_tasks: Vec<TaskSpec>,
    /// Seconds to parse + prepare the right table and build the R-tree
    /// (paid by every instance after the broadcast). The build runs
    /// one block per pool unit, so this is the serial cost one instance
    /// pays — the summed per-unit work plus the bulk load — not the
    /// local parallel wall time.
    pub build_secs: f64,
    /// Bytes of the right table shipped to every instance.
    pub broadcast_bytes: u64,
    /// Per-batch probe work with intra-batch chunk structure.
    pub probe_batches: Vec<ProbeBatch>,
    /// Cores the chunks were produced for (OpenMP thread count).
    pub chunks_per_batch: usize,
    /// Join output cardinality.
    pub result_rows: usize,
}

impl QueryMetrics {
    /// The probe work flattened to independent tasks (used by the
    /// standalone replay, which has no row-batch barriers).
    pub fn probe_tasks(&self) -> Vec<TaskSpec> {
        self.probe_batches
            .iter()
            .flat_map(|b| {
                b.chunk_costs.iter().map(|&cost| TaskSpec {
                    cost,
                    locality: b.locality,
                })
            })
            .collect()
    }

    /// Replays the query on an explicit cluster: startup, right-side
    /// broadcast, per-instance R-tree build, statically-assigned scans,
    /// then the probe with **per-batch barriers** — each batch costs its
    /// slowest chunk, and an instance runs
    /// `cores / chunks_per_batch` batches concurrently.
    pub fn simulate_runtime_on(&self, conf: &ImpaladConf, spec: &ClusterSpec) -> f64 {
        let net = &conf.network;
        let num_nodes = spec.num_nodes;
        let mut total = net.job_startup_cost(num_nodes);
        total += net.broadcast_cost(self.broadcast_bytes, num_nodes);
        // Every instance builds its R-tree concurrently.
        total += self.build_secs;
        total += net.stage_coordination_cost(self.scan_tasks.len() + self.probe_batches.len());

        let nodes = self.placement(num_nodes);
        let (scan_nodes, batch_nodes) = nodes.split_at(self.scan_tasks.len());
        let scan_tasks: Vec<TaskSpec> = self
            .scan_tasks
            .iter()
            .zip(scan_nodes)
            .map(|(t, &node)| TaskSpec {
                cost: t.cost,
                locality: Some(node),
            })
            .collect();
        let scan = simulate(&scan_tasks, spec, Scheduler::StaticLocality).makespan;

        // Static inter-node assignment by locality, per-batch barriers
        // within a node.
        let concurrent_batches = (spec.cores_per_node / self.chunks_per_batch.max(1)).max(1) as f64;
        let mut node_time = vec![0.0f64; num_nodes];
        for (b, &node) in self.probe_batches.iter().zip(batch_nodes) {
            node_time[node] += b.barrier_time() / concurrent_batches;
        }
        let probe = node_time.iter().cloned().fold(0.0, f64::max);

        total += (scan + probe) * (1.0 + ROW_BATCH_PIPELINE_TAX);
        total
    }

    /// The node of every scan task, then of every probe batch, on
    /// `num_nodes` nodes. Tagged work is placed by Impala's scan-range
    /// assignment ([`scan_range_assignment`]) over the tags of both
    /// lists: whole tags, balancing the scans and batches each carries,
    /// so a tag's scans and batches share a node at any node count.
    /// Untagged work goes round-robin by its index in its list.
    fn placement(&self, num_nodes: usize) -> Vec<usize> {
        let tags: Vec<Option<usize>> = self
            .scan_tasks
            .iter()
            .map(|t| t.locality)
            .chain(self.probe_batches.iter().map(|b| b.locality))
            .collect();
        let tagged: Vec<usize> = tags.iter().flatten().copied().collect();
        let mut placed = scan_range_assignment(&tagged, num_nodes).into_iter();
        let scans = self.scan_tasks.len();
        tags.iter()
            .enumerate()
            .map(|(i, tag)| match tag {
                Some(_) => placed.next().unwrap_or(0),
                None => (if i < scans { i } else { i - scans }) % num_nodes,
            })
            .collect()
    }

    /// Replays the query on `num_nodes` nodes of the configured node
    /// type (the cloud deployment of Table 2 / Fig. 5).
    pub fn simulate_runtime(&self, conf: &ImpaladConf, num_nodes: usize) -> f64 {
        let spec = ClusterSpec {
            num_nodes,
            ..conf.cluster
        };
        self.simulate_runtime_on(conf, &spec)
    }

    /// Replays the same work as a standalone single-node program: no
    /// engine machinery, no exchange, no coordination, no row-batch
    /// barriers (one static OpenMP loop over everything) — the
    /// ISP-MC-standalone column of Table 1.
    pub fn simulate_standalone_on(&self, spec: &ClusterSpec) -> f64 {
        let single = ClusterSpec {
            num_nodes: 1,
            ..*spec
        };
        self.build_secs
            + simulate(&self.scan_tasks, &single, Scheduler::StaticChunked).makespan
            + simulate(&self.probe_tasks(), &single, Scheduler::StaticChunked).makespan
    }

    /// Number of row batches the left side produced.
    pub fn num_batches(&self) -> usize {
        self.probe_batches.len()
    }

    /// Rebases the measured metrics onto the workspace observability
    /// layer: one child per fragment (scan, build, probe) carrying its
    /// measured seconds as spans, with broadcast bytes and row-batch
    /// counts in the counters. Hot-path counters (filter/refine/node
    /// visits) are *not* reconstructed here — they accumulate in the
    /// caller's thread cells while the query runs and belong to the
    /// snapshot delta the caller takes around the query.
    pub fn to_run_stats(&self) -> obs::RunStats {
        let mut root = obs::RunStats::new("ispmc");
        root.counters.bytes_broadcast = self.broadcast_bytes;

        let mut scan = obs::RunStats::new("scan");
        scan.spans.push(obs::SpanStat::from_secs(
            "tasks",
            self.scan_tasks.len() as u64,
            self.scan_tasks.iter().map(|t| t.cost).sum(),
        ));
        root.children.push(scan);

        let mut build = obs::RunStats::new("build");
        build
            .spans
            .push(obs::SpanStat::from_secs("rtree", 1, self.build_secs));
        root.children.push(build);

        let mut probe = obs::RunStats::new("probe");
        probe.counters.row_batches = self.probe_batches.len() as u64;
        probe.spans.push(obs::SpanStat::from_secs(
            "chunks",
            self.probe_batches
                .iter()
                .map(|b| b.chunk_costs.len() as u64)
                .sum(),
            self.probe_batches.iter().map(ProbeBatch::total).sum(),
        ));
        root.children.push(probe);
        root
    }

    /// Total measured CPU seconds (scan + build + probe).
    pub fn total_work(&self) -> f64 {
        self.build_secs
            + self.scan_tasks.iter().map(|t| t.cost).sum::<f64>()
            + self
                .probe_batches
                .iter()
                .map(ProbeBatch::total)
                .sum::<f64>()
    }
}

/// A completed query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matched `(left id, right id)` pairs.
    pub pairs: Vec<(i64, i64)>,
    /// Measured execution metrics.
    pub metrics: QueryMetrics,
    /// The physical plan that ran.
    pub plan: PhysicalPlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_runtime_shape() {
        let conf = ImpaladConf::default();
        let metrics = QueryMetrics {
            scan_tasks: vec![TaskSpec::of_cost(0.01); 4],
            build_secs: 0.02,
            broadcast_bytes: 4096,
            probe_batches: vec![
                ProbeBatch {
                    locality: Some(0),
                    chunk_costs: vec![0.01, 0.03],
                };
                3
            ],
            chunks_per_batch: 2,
            result_rows: 100,
        };
        let standalone = metrics.simulate_standalone_on(&conf.cluster);
        let one_node = metrics.simulate_runtime(&conf, 1);
        assert!(
            one_node > standalone,
            "engine machinery must cost something: {one_node} vs {standalone}"
        );
    }

    #[test]
    fn replay_balances_scan_ranges_at_every_node_count() {
        // 120 equal scan ranges: the busiest node holds 30, 20, 15 and
        // 12 of them at 4, 6, 8 and 10 nodes, so every step is faster.
        let conf = ImpaladConf::default();
        let metrics = QueryMetrics {
            scan_tasks: (0..120)
                .map(|i| TaskSpec {
                    cost: 0.01,
                    locality: Some(i),
                })
                .collect(),
            build_secs: 0.0,
            broadcast_bytes: 0,
            probe_batches: (0..120)
                .map(|i| ProbeBatch {
                    locality: Some(i),
                    chunk_costs: vec![1.0, 1.0],
                })
                .collect(),
            chunks_per_batch: 2,
            result_rows: 0,
        };
        let t: Vec<f64> = [4, 6, 8, 10]
            .iter()
            .map(|&n| metrics.simulate_runtime(&conf, n))
            .collect();
        assert!(t.windows(2).all(|w| w[1] < w[0]), "{t:?}");
    }
}
