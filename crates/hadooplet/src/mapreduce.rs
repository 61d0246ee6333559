//! The generic MapReduce engine.

use std::collections::BTreeMap;

use cluster::{
    simulate, ClusterSpec, Dispatch, Dispatched, NetworkModel, ScheduleMode, Scheduler, TaskSpec,
};
use minihdfs::{DfsError, MiniDfs};

/// Disk throughput model for intermediate materialisation — the cost
/// Hadoop pays that the in-memory systems avoid. Defaults model the
/// paper-era magnetic disks on EC2.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
}

impl DiskModel {
    /// ~100 MB/s magnetic disk.
    pub fn ec2_magnetic() -> DiskModel {
        DiskModel {
            write_bw: 90.0e6,
            read_bw: 110.0e6,
        }
    }

    /// Seconds to spill and re-read `bytes` of intermediate data
    /// (written once by mappers, read once by reducers).
    pub fn round_trip_cost(&self, bytes: u64) -> f64 {
        bytes as f64 / self.write_bw + bytes as f64 / self.read_bw
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct HadoopConf {
    /// Local worker threads for real execution.
    pub threads: usize,
    /// Simulated cluster for replay.
    pub cluster: ClusterSpec,
    /// Network model (same wire as the other engines).
    pub network: NetworkModel,
    /// Disk model for intermediate spills.
    pub disk: DiskModel,
    /// Per-job JVM/container startup cost, seconds. Hadoop launches a
    /// JVM per task wave; modelled as a flat job cost plus a per-task
    /// cost folded into scheduling.
    pub job_startup: f64,
}

impl Default for HadoopConf {
    fn default() -> HadoopConf {
        HadoopConf {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cluster: ClusterSpec::ec2_paper_cluster(),
            network: NetworkModel::ec2_impala(), // plain wire, no Spark actor overheads
            disk: DiskModel::ec2_magnetic(),
            job_startup: 8.0, // JVM + job setup; Hadoop jobs start slowly
        }
    }
}

/// What one job measured, for cluster replay.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Measured per-map-task costs with block locality.
    pub map_tasks: Vec<TaskSpec>,
    /// Measured per-reduce-task costs.
    pub reduce_tasks: Vec<TaskSpec>,
    /// Bytes of intermediate `(key, value)` data spilled between the
    /// phases.
    pub intermediate_bytes: u64,
}

impl JobMetrics {
    /// Total measured CPU seconds.
    pub fn total_work(&self) -> f64 {
        self.map_tasks.iter().map(|t| t.cost).sum::<f64>()
            + self.reduce_tasks.iter().map(|t| t.cost).sum::<f64>()
    }

    /// Replays the job on `num_nodes` nodes: startup, the map wave
    /// (dynamic with locality preference, like Hadoop's scheduler), the
    /// disk + network cost of the shuffle barrier, then the reduce wave.
    pub fn simulate_runtime(&self, conf: &HadoopConf, num_nodes: usize) -> f64 {
        let spec = ClusterSpec {
            num_nodes,
            ..conf.cluster
        };
        let mut total = conf.job_startup;
        total += simulate(&self.map_tasks, &spec, Scheduler::Dynamic).makespan;
        // Intermediates are written by mappers, shuffled, read by
        // reducers. Disk bandwidth is per node; the cluster spills in
        // parallel.
        let per_node_bytes = self.intermediate_bytes / num_nodes.max(1) as u64;
        total += conf.disk.round_trip_cost(per_node_bytes);
        total += conf
            .network
            .shuffle_cost(self.intermediate_bytes, num_nodes);
        total += simulate(&self.reduce_tasks, &spec, Scheduler::Dynamic).makespan;
        total
    }

    /// Merges another job's metrics (for multi-job pipelines such as
    /// partition-then-join).
    pub fn merge(&mut self, other: &JobMetrics) {
        self.map_tasks.extend_from_slice(&other.map_tasks);
        self.reduce_tasks.extend_from_slice(&other.reduce_tasks);
        self.intermediate_bytes += other.intermediate_bytes;
    }
}

/// The result of one job.
pub struct JobResult<R> {
    /// Reduce outputs, in key order.
    pub output: Vec<R>,
    /// Measured metrics.
    pub metrics: JobMetrics,
}

/// The engine: runs map/reduce jobs over minihdfs files.
pub struct MapReduce {
    conf: HadoopConf,
    dfs: MiniDfs,
}

impl MapReduce {
    /// Creates an engine over a file system.
    pub fn new(conf: HadoopConf, dfs: MiniDfs) -> MapReduce {
        MapReduce { conf, dfs }
    }

    /// The configuration.
    pub fn conf(&self) -> &HadoopConf {
        &self.conf
    }

    /// The file system.
    pub fn dfs(&self) -> &MiniDfs {
        &self.dfs
    }

    /// Runs one MapReduce job.
    ///
    /// * `map` receives each input line and emits `(key, value)` pairs.
    /// * `value_bytes` estimates a value's serialized size (intermediate
    ///   accounting).
    /// * `reduce` receives each key with a slice of all its values,
    ///   grouped and sorted by key, and emits output records.
    ///
    /// A map-only job is expressed with a `reduce` that forwards values.
    ///
    /// # Errors
    /// Fails when an input path is missing.
    pub fn run_job<K, V, R, M, B, Red>(
        &self,
        inputs: &[&str],
        map: M,
        value_bytes: B,
        reduce: Red,
    ) -> Result<JobResult<R>, DfsError>
    where
        K: Ord + Clone + Send + Sync,
        V: Send + Sync,
        R: Send,
        M: Fn(&str, &mut Vec<(K, V)>) + Sync,
        B: Fn(&K, &V) -> u64,
        Red: Fn(&K, &[V]) -> Vec<R> + Sync,
    {
        // --- map phase: one task per block, locality preserved ---
        let mut blocks = Vec::new();
        for path in inputs {
            blocks.extend(self.dfs.blocks(path)?);
        }
        let localities: Vec<Option<usize>> = blocks.iter().map(|b| Some(b.primary_node)).collect();
        let map_run = self.run_phase(blocks.len(), |i, out| {
            for line in blocks[i].lines() {
                map(line, out);
            }
        });
        let map_tasks: Vec<TaskSpec> = map_run
            .timings
            .iter()
            .map(|t| TaskSpec {
                cost: t.secs,
                locality: localities[t.index].map(|n| n % self.conf.cluster.num_nodes),
            })
            .collect();

        // --- shuffle: group by key (the sort phase), count bytes ---
        let mut intermediate_bytes = 0u64;
        let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for (k, v) in map_run.out {
            intermediate_bytes += value_bytes(&k, &v) + 8;
            grouped.entry(k).or_default().push(v);
        }

        // --- reduce phase: one task per key group ---
        let groups: Vec<(K, Vec<V>)> = grouped.into_iter().collect();
        let reduce_run = self.run_phase(groups.len(), |i, out| {
            let (k, vs) = &groups[i];
            out.extend(reduce(k, vs));
        });
        let reduce_tasks: Vec<TaskSpec> = reduce_run
            .timings
            .iter()
            .map(|t| TaskSpec::of_cost(t.secs))
            .collect();

        Ok(JobResult {
            output: reduce_run.out,
            metrics: JobMetrics {
                map_tasks,
                reduce_tasks,
                intermediate_bytes,
            },
        })
    }

    /// Runs one phase's `n` tasks over the engine's threads under
    /// dynamic scheduling, `f(task, out)` appending each task's output
    /// in task order. Worker counters are folded into the calling
    /// thread. Task retry is not modelled: a panicking task is a bug in
    /// the job and is re-raised on the driver.
    fn run_phase<R, F>(&self, n: usize, f: F) -> Dispatched<R>
    where
        R: Send,
        F: Fn(usize, &mut Vec<R>) + Sync,
    {
        let d = Dispatch::new(self.conf.threads, ScheduleMode::Dynamic);
        let run = cluster::dispatch(n, &d, |i, _, out| f(i, out)).or_raise();
        obs::add_thread(&run.exec.worker_counters);
        run
    }

    /// Runs a **map-only** job whose task unit is a whole file — the
    /// shape of SpatialHadoop's spatial join, where a custom
    /// `FileInputFormat` hands one partition (pair) to one map task.
    /// No shuffle, no reduce, no intermediate spill.
    ///
    /// # Errors
    /// Fails when an input path is missing.
    pub fn run_file_job<R, F>(&self, inputs: &[&str], f: F) -> Result<JobResult<R>, DfsError>
    where
        R: Send,
        F: Fn(&str, &[String]) -> Vec<R> + Sync,
    {
        let mut files: Vec<(String, Vec<String>, Option<usize>)> = Vec::with_capacity(inputs.len());
        for path in inputs {
            let blocks = self.dfs.blocks(path)?;
            let locality = blocks.first().map(|b| b.primary_node);
            let lines = self.dfs.read_all_lines(path)?;
            files.push((path.to_string(), lines, locality));
        }
        let localities: Vec<Option<usize>> = files.iter().map(|(_, _, l)| *l).collect();
        let run = self.run_phase(files.len(), |i, out| {
            let (path, lines, _) = &files[i];
            out.extend(f(path, lines));
        });
        let map_tasks: Vec<TaskSpec> = run
            .timings
            .iter()
            .map(|t| TaskSpec {
                cost: t.secs,
                locality: localities[t.index].map(|n| n % self.conf.cluster.num_nodes),
            })
            .collect();
        Ok(JobResult {
            output: run.out,
            metrics: JobMetrics {
                map_tasks,
                reduce_tasks: Vec::new(),
                intermediate_bytes: 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_text(lines: &[&str]) -> MapReduce {
        let dfs = MiniDfs::new(4, 64).unwrap();
        dfs.write_lines("/in", lines).unwrap();
        MapReduce::new(HadoopConf::default(), dfs)
    }

    #[test]
    fn word_count_end_to_end() {
        let mr = engine_with_text(&["a b a", "b c", "a"]);
        let result = mr
            .run_job(
                &["/in"],
                |line, out| {
                    for w in line.split_whitespace() {
                        out.push((w.to_string(), 1u64));
                    }
                },
                |k, _| k.len() as u64 + 8,
                |k, vs| vec![(k.clone(), vs.iter().sum::<u64>())],
            )
            .unwrap();
        // BTreeMap grouping → output sorted by key.
        assert_eq!(
            result.output,
            vec![("a".into(), 3u64), ("b".into(), 2), ("c".into(), 1)]
        );
        assert!(result.metrics.intermediate_bytes > 0);
        assert!(!result.metrics.map_tasks.is_empty());
        assert_eq!(result.metrics.reduce_tasks.len(), 3);
    }

    #[test]
    fn missing_input_errors() {
        let mr = engine_with_text(&["x"]);
        assert!(mr
            .run_job(
                &["/nope"],
                |_, _: &mut Vec<(u8, u8)>| {},
                |_, _| 1,
                |_, _| Vec::<u8>::new(),
            )
            .is_err());
    }

    #[test]
    fn multiple_inputs_are_concatenated() {
        let dfs = MiniDfs::new(2, 64).unwrap();
        dfs.write_lines("/a", ["1", "2"]).unwrap();
        dfs.write_lines("/b", ["3"]).unwrap();
        let mr = MapReduce::new(HadoopConf::default(), dfs);
        let result = mr
            .run_job(
                &["/a", "/b"],
                |line, out| out.push(((), line.parse::<i64>().unwrap())),
                |_, _| 8,
                |_, vs| vec![vs.iter().sum::<i64>()],
            )
            .unwrap();
        assert_eq!(result.output, vec![6]);
    }

    #[test]
    fn simulated_runtime_includes_disk_and_startup() {
        let mr = engine_with_text(&["a"; 50]);
        let result = mr
            .run_job(
                &["/in"],
                |line, out| out.push((line.to_string(), 1u64)),
                |_, _| 1 << 20, // pretend values are 1 MiB to exercise disk cost
                |k, vs| vec![(k.clone(), vs.len())],
            )
            .unwrap();
        let t = result.metrics.simulate_runtime(&HadoopConf::default(), 10);
        // 50 MiB of intermediates through ~100 MB/s disks plus 8 s
        // startup dominates this tiny job.
        assert!(t > 8.0, "runtime {t} must include startup and spill");
        // More nodes split the spill.
        let t4 = result.metrics.simulate_runtime(&HadoopConf::default(), 4);
        assert!(t4 >= t);
    }

    #[test]
    fn metrics_merge_accumulates() {
        let mut a = JobMetrics {
            intermediate_bytes: 10,
            ..Default::default()
        };
        a.map_tasks.push(TaskSpec::of_cost(1.0));
        let mut b = JobMetrics {
            intermediate_bytes: 5,
            ..Default::default()
        };
        b.reduce_tasks.push(TaskSpec::of_cost(2.0));
        a.merge(&b);
        assert_eq!(a.intermediate_bytes, 15);
        assert_eq!(a.total_work(), 3.0);
    }

    #[test]
    fn disk_model_round_trip() {
        let d = DiskModel::ec2_magnetic();
        assert_eq!(d.round_trip_cost(0), 0.0);
        let one_gb = d.round_trip_cost(1 << 30);
        assert!(
            one_gb > 15.0,
            "1 GiB round trip {one_gb} takes tens of seconds"
        );
    }
}
