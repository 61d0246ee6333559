//! The driver context: configuration, metrics, dataset creation.

use std::sync::Arc;

use cluster::{Chaos, ChaosConfig, ChaosSite, ClusterSpec, NetworkModel, ScheduleMode, TaskSpec};
use minihdfs::{DfsError, MiniDfs};
use sync::Mutex;

use crate::broadcast::Broadcast;
use crate::dataset::{Dataset, Partition};
use crate::metrics::{JobReport, StageMetrics};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SparkConf {
    /// Application name, used in reports.
    pub app_name: String,
    /// Local worker threads used for real execution.
    pub threads: usize,
    /// Simulated cluster for replay.
    pub cluster: ClusterSpec,
    /// Network/coordination cost model for replay.
    pub network: NetworkModel,
    /// Deterministic fault injection applied to every stage (disabled
    /// by default). Lost partitions are recomputed from lineage rather
    /// than failing the job — the paper's §III Spark recovery model.
    pub chaos: ChaosConfig,
}

/// Bound on lineage-recompute rounds per stage before the job is
/// declared unrecoverable.
pub const MAX_RECOMPUTE_ROUNDS: u32 = 8;

impl Default for SparkConf {
    fn default() -> SparkConf {
        SparkConf {
            app_name: "sparklet".into(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cluster: ClusterSpec::ec2_paper_cluster(),
            network: NetworkModel::ec2_spark(),
            chaos: ChaosConfig::disabled(),
        }
    }
}

pub(crate) struct CtxInner {
    pub(crate) conf: SparkConf,
    pub(crate) dfs: MiniDfs,
    pub(crate) stages: Mutex<Vec<StageMetrics>>,
    pub(crate) chaos: Chaos,
}

/// The driver handle. Cheap to clone; all clones share metrics.
#[derive(Clone)]
pub struct SparkContext {
    pub(crate) inner: Arc<CtxInner>,
}

impl SparkContext {
    /// Creates a context over a file system.
    pub fn new(conf: SparkConf, dfs: MiniDfs) -> SparkContext {
        let chaos = Chaos::new(conf.chaos);
        SparkContext {
            inner: Arc::new(CtxInner {
                conf,
                dfs,
                stages: Mutex::new(Vec::new()),
                chaos,
            }),
        }
    }

    /// The context's fault injector (never fires unless the
    /// configuration enables it).
    pub fn chaos(&self) -> &Chaos {
        &self.inner.chaos
    }

    /// The configuration.
    pub fn conf(&self) -> &SparkConf {
        &self.inner.conf
    }

    /// The underlying file system.
    pub fn dfs(&self) -> &MiniDfs {
        &self.inner.dfs
    }

    /// Reads a text file as a dataset of lines, one partition per HDFS
    /// block, preserving block locality — Spark's `sc.textFile`.
    ///
    /// # Errors
    /// Fails when the path does not exist.
    pub fn text_file(&self, path: &str) -> Result<Dataset<String>, DfsError> {
        let blocks = self.inner.dfs.blocks(path)?;
        let partitions: Vec<Partition<String>> = blocks
            .iter()
            .map(|b| Partition {
                data: b.lines().map(str::to_string).collect(),
                locality: Some(b.primary_node),
            })
            .collect();
        Ok(Dataset::from_partitions(self.clone(), partitions))
    }

    /// Distributes a local collection over `num_partitions` partitions —
    /// Spark's `sc.parallelize`.
    pub fn parallelize<T: Send + Sync>(&self, data: Vec<T>, num_partitions: usize) -> Dataset<T> {
        let num_partitions = num_partitions.max(1);
        let n = data.len();
        let mut partitions: Vec<Partition<T>> = (0..num_partitions)
            .map(|_| Partition {
                data: Vec::with_capacity(n / num_partitions + 1),
                locality: None,
            })
            .collect();
        for (i, item) in data.into_iter().enumerate() {
            let p = (i * num_partitions).checked_div(n).unwrap_or(0);
            partitions[p.min(num_partitions - 1)].data.push(item);
        }
        Dataset::from_partitions(self.clone(), partitions)
    }

    /// Ships a read-only value to every executor — Spark's
    /// `sc.broadcast`. `approx_bytes` is the serialized size used for
    /// network accounting (the value itself is shared by `Arc` in this
    /// single-process reproduction).
    pub fn broadcast<T>(&self, value: T, approx_bytes: u64) -> Broadcast<T> {
        Broadcast::new(value, approx_bytes)
    }

    /// Records a completed stage (used by [`Dataset`] internally and by
    /// higher layers that run custom stages).
    pub fn record_stage(&self, stage: StageMetrics) {
        self.inner.stages.lock().push(stage);
    }

    /// Adds broadcast bytes to the job by pushing a marker stage with no
    /// tasks.
    pub fn record_movement(&self, name: &str, broadcast_bytes: u64) {
        self.inner.stages.lock().push(StageMetrics {
            name: name.into(),
            tasks: Vec::new(),
            broadcast_bytes,
        });
    }

    /// Snapshot of everything executed so far.
    pub fn job_report(&self) -> JobReport {
        JobReport {
            stages: self.inner.stages.lock().clone(),
        }
    }

    /// Clears recorded metrics (between experiments).
    pub fn reset_metrics(&self) {
        self.inner.stages.lock().clear();
    }

    /// The stage executor behind every transformation. Tasks run under
    /// panic capture; any partition lost to an injected executor death
    /// is recomputed from lineage in a follow-up round on the surviving
    /// workers — live, mid-job, without restarting the stage's
    /// completed tasks. Without chaos the first round completes every
    /// task and the output is the tasks' results in order.
    pub(crate) fn execute_stage<T, R, F>(
        &self,
        name: &str,
        items: Vec<T>,
        localities: Vec<Option<usize>>,
        f: F,
    ) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let threads = self.inner.conf.threads.max(1);
        let chaos = &self.inner.chaos;
        let n = items.len();
        // Stage ordinal keys the fault draws: unique per stage within a
        // job, deterministic across runs of the same job and seed.
        let stage_ord = self.inner.stages.lock().len() as u64;
        let stage_key = stage_ord << 32;
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut round: u32 = 0;
        loop {
            // Recompute rounds run on one fewer worker — the "executor"
            // that died is gone; its tasks re-run on the survivors.
            let alive = if round == 0 {
                threads
            } else {
                threads.saturating_sub(1).max(1)
            };
            let run = cluster::dispatch(pending.len(), alive, ScheduleMode::Dynamic, |k, out| {
                let i = pending[k];
                out.push(f(&items[i]));
                // Inject *after* the work: a lost executor has done
                // (and lost) its computation, so recovery pays the
                // full recompute cost.
                chaos.inject(ChaosSite::Task, stage_key | i as u64, round);
            });
            // Fold scoped-worker counters (fault injections, hot-path
            // counts) into the caller's cells.
            obs::add_thread(&run.exec.worker_counters);
            let tasks: Vec<TaskSpec> = run
                .timings
                .iter()
                .map(|t| TaskSpec {
                    cost: t.secs,
                    locality: localities.get(pending[t.index]).copied().flatten(),
                })
                .collect();
            let stage_name = if round == 0 {
                name.to_string()
            } else {
                format!("recompute:{name}")
            };
            self.record_stage(StageMetrics {
                name: stage_name,
                tasks,
                broadcast_bytes: 0,
            });
            if round == 0 && run.failures.is_empty() {
                return run.out;
            }
            // Each successful task pushed exactly one result, so results
            // and timings pair up in task order.
            for (t, r) in run.timings.iter().zip(run.out) {
                slots[pending[t.index]] = Some(r);
            }
            let failed: Vec<usize> = run.failures.iter().map(|fl| pending[fl.index]).collect();
            if failed.is_empty() {
                break;
            }
            round += 1;
            if round > MAX_RECOMPUTE_ROUNDS {
                let message = run.failures.first().map(|fl| fl.message.as_str());
                std::panic::panic_any(format!(
                    "stage '{name}': {} partition(s) unrecoverable after {round} rounds \
                     (last failure: {})",
                    failed.len(),
                    message.unwrap_or_default()
                ));
            }
            obs::partitions_recomputed(failed.len() as u64);
            pending = failed;
        }
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::default(), MiniDfs::new(4, 256).unwrap())
    }

    #[test]
    fn text_file_partitions_follow_blocks() {
        let c = ctx();
        let lines: Vec<String> = (0..200).map(|i| format!("line-{i:0>10}")).collect();
        c.dfs().write_lines("/t", &lines).unwrap();
        let ds = c.text_file("/t").unwrap();
        assert_eq!(ds.num_partitions(), c.dfs().blocks("/t").unwrap().len());
        assert_eq!(ds.count(), 200);
        assert!(c.text_file("/missing").is_err());
    }

    #[test]
    fn parallelize_balances_partitions() {
        let c = ctx();
        let ds = c.parallelize((0..100).collect::<Vec<i32>>(), 8);
        assert_eq!(ds.num_partitions(), 8);
        assert_eq!(ds.count(), 100);
        let sizes = ds.partition_sizes();
        assert!(sizes.iter().all(|&s| (12..=13).contains(&s)));
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let c = ctx();
        let ds = c.parallelize(vec![1, 2, 3], 2);
        let _ = ds.map("double", |x| x * 2);
        assert_eq!(c.job_report().stages.len(), 1);
        c.record_movement("broadcast", 1000);
        assert_eq!(c.job_report().stages.len(), 2);
        assert_eq!(c.job_report().total_broadcast_bytes(), 1000);
        c.reset_metrics();
        assert!(c.job_report().stages.is_empty());
    }

    #[test]
    fn simulate_runtime_is_positive_and_node_sensitive() {
        let c = ctx();
        let ds = c.parallelize((0..1000).collect::<Vec<u64>>(), 32);
        let _ = ds.map("spin", |&x| (0..5000u64).fold(x, |a, b| a.wrapping_add(b)));
        let conf = c.conf();
        let on = |num_nodes| {
            let spec = ClusterSpec {
                num_nodes,
                ..conf.cluster
            };
            c.job_report()
                .simulate_runtime(&spec, &conf.network, cluster::Scheduler::Dynamic)
        };
        let (t1, t10) = (on(1), on(10));
        assert!(t1 > 0.0 && t10 > 0.0);
        // Tiny job: 10 nodes pay more startup than they save.
        assert!(t10 > t1 * 0.5);
    }

    #[test]
    fn chaos_recompute_recovers_bit_identical_output() {
        let fault_free = {
            let c = ctx();
            c.parallelize((0..500i64).collect(), 25)
                .map("x2", |x| x * 2)
                .collect()
        };
        let conf = SparkConf {
            chaos: ChaosConfig::uniform(1234, 0.3),
            ..SparkConf::default()
        };
        let c = SparkContext::new(conf, MiniDfs::new(4, 256).unwrap());
        // Suppress the expected injected-panic spew from the default hook.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = c
            .parallelize((0..500i64).collect(), 25)
            .map("x2", |x| x * 2)
            .collect();
        std::panic::set_hook(hook);
        assert_eq!(out, fault_free, "recovered run must be bit-identical");
        assert!(
            c.chaos().fault_count() > 0,
            "rate 0.3 must inject something"
        );
        let report = c.job_report();
        assert!(
            report
                .stages
                .iter()
                .any(|s| s.name.starts_with("recompute:")),
            "lost partitions must surface as recompute stages"
        );
    }

    #[test]
    fn chaos_disabled_leaves_metrics_untouched() {
        let c = ctx();
        assert!(c.chaos().is_disabled());
        let _ = c.parallelize((0..10i32).collect(), 2).map("id", |&x| x);
        let report = c.job_report();
        assert_eq!(report.stages.len(), 1);
        assert!(!report.stages[0].name.starts_with("recompute:"));
        assert_eq!(c.chaos().fault_count(), 0);
    }

    #[test]
    fn empty_parallelize() {
        let c = ctx();
        let ds = c.parallelize(Vec::<u8>::new(), 4);
        assert_eq!(ds.count(), 0);
        assert_eq!(ds.num_partitions(), 4);
    }
}
