//! The backend: fragment execution, row batches, static scheduling.

use cluster::{
    simulate, Chaos, ChaosConfig, ChaosSite, ClusterSpec, Dispatch, NetworkModel, ScheduleMode,
    Scheduler, TaskFailure, TaskSpec, TaskTiming,
};
use geom::engine::{NaiveEngine, RefinementEngine};
use geom::{Geometry, HasEnvelope};
use minihdfs::MiniDfs;
use rtree::RTree;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::error::ImpalaError;
use crate::plan::{plan_query, PhysicalPlan};
use crate::row::{split_record, Row, RowBatch};
use crate::sql::parse_query;

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
/// chunk, plus the batch's block locality.
///
/// The chunks of a batch run under a **barrier**: the batch is done when
/// its slowest chunk is done ("the workloads assigned to OpenMP threads
/// (within a row batch) can be unbalanced which hurts ISP-MC
/// performance quite a lot", §V.B). Batches stream through an instance
/// sequentially.
#[derive(Debug, Clone)]
pub struct ProbeBatch {
    /// Node holding the batch's source block.
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

/// Everything one query execution measured, for cluster replay.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// Per-block cost of scanning/splitting the left table into rows.
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

        let scan = simulate(&self.scan_tasks, spec, Scheduler::StaticLocality).makespan;

        // Static inter-node assignment by locality, per-batch barriers
        // within a node.
        let concurrent_batches = (spec.cores_per_node / self.chunks_per_batch.max(1)).max(1) as f64;
        let mut node_time = vec![0.0f64; num_nodes];
        for (i, b) in self.probe_batches.iter().enumerate() {
            let node = b.locality.unwrap_or(i % num_nodes) % num_nodes;
            node_time[node] += b.barrier_time() / concurrent_batches;
        }
        let probe = node_time.iter().cloned().fold(0.0, f64::max);

        total += (scan + probe) * (1.0 + ROW_BATCH_PIPELINE_TAX);
        total
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

    /// Standalone replay on the configured node type.
    pub fn simulate_standalone(&self, conf: &ImpaladConf) -> f64 {
        self.simulate_standalone_on(&conf.cluster)
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
    /// snapshot delta the caller takes around [`Impalad::execute`].
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

/// Strips a leading `EXPLAIN` keyword, returning the remainder.
fn strip_explain(sql: &str) -> Option<&str> {
    let trimmed = sql.trim_start();
    // Compare bytes: slicing the str at 7 panics inside a multi-byte
    // character.
    let keyword = trimmed.as_bytes().get(..7)?;
    keyword
        .eq_ignore_ascii_case(b"EXPLAIN")
        .then(|| &trimmed[7..])
}

/// Total attempts for a DFS read hit by transient faults before the
/// query gives up and fails fast.
const MAX_READ_ATTEMPTS: u32 = 3;

/// The fail-fast translation: the first fragment failure becomes the
/// query's error, partial results are dropped on the floor.
fn fragment_failed(fragment: &str, failures: &[TaskFailure]) -> ImpalaError {
    ImpalaError::FragmentFailed {
        fragment: fragment.into(),
        message: failures
            .first()
            .map(|f| f.message.clone())
            .unwrap_or_else(|| "unknown fragment failure".into()),
    }
}

/// One Impala daemon standing in for the whole backend.
pub struct Impalad {
    conf: ImpaladConf,
    dfs: MiniDfs,
    catalog: Catalog,
    chaos: Chaos,
}

impl Impalad {
    /// Creates a daemon over a file system and catalog.
    pub fn new(conf: ImpaladConf, dfs: MiniDfs, catalog: Catalog) -> Impalad {
        let chaos = Chaos::new(conf.chaos);
        Impalad {
            conf,
            dfs,
            catalog,
            chaos,
        }
    }

    /// The configuration.
    pub fn conf(&self) -> &ImpaladConf {
        &self.conf
    }

    /// The daemon's fault injector (for inspecting injected events).
    pub fn chaos(&self) -> &Chaos {
        &self.chaos
    }

    /// Runs a DFS read, retrying attempts the chaos layer fails
    /// transiently. A fault that persists past [`MAX_READ_ATTEMPTS`]
    /// aborts the query like any other fragment failure.
    fn read_retrying<R>(
        &self,
        read_id: u64,
        mut read: impl FnMut() -> Result<R, minihdfs::DfsError>,
    ) -> Result<R, ImpalaError> {
        let mut attempt = 0u32;
        loop {
            if self.chaos.read_fault_fires(read_id, attempt) {
                self.chaos.note_read_fault(read_id, attempt);
                attempt += 1;
                if attempt >= MAX_READ_ATTEMPTS {
                    return Err(ImpalaError::FragmentFailed {
                        fragment: "read".into(),
                        message: format!(
                            "transient read fault persisted for {MAX_READ_ATTEMPTS} attempts"
                        ),
                    });
                }
                continue;
            }
            return read().map_err(ImpalaError::from);
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parses, plans and executes one spatial-join statement. An
    /// `EXPLAIN` prefix plans without executing (see
    /// [`Impalad::explain`]).
    ///
    /// # Errors
    /// Propagates SQL, catalog and storage errors.
    pub fn execute(&self, sql: &str) -> Result<QueryResult, ImpalaError> {
        let query = parse_query(strip_explain(sql).unwrap_or(sql))?;
        let plan = plan_query(&query, &self.catalog)?;
        if strip_explain(sql).is_some() {
            return Ok(QueryResult {
                pairs: Vec::new(),
                metrics: QueryMetrics {
                    scan_tasks: Vec::new(),
                    build_secs: 0.0,
                    broadcast_bytes: 0,
                    probe_batches: Vec::new(),
                    chunks_per_batch: 0,
                    result_rows: 0,
                },
                plan,
            });
        }
        self.run_plan(plan)
    }

    /// Plans a statement and returns its `EXPLAIN` rendering without
    /// executing it.
    ///
    /// # Errors
    /// Propagates SQL and catalog errors.
    pub fn explain(&self, sql: &str) -> Result<String, ImpalaError> {
        let query = parse_query(strip_explain(sql).unwrap_or(sql))?;
        Ok(plan_query(&query, &self.catalog)?.explain())
    }

    /// Runs one plan fragment's `n` units statically chunked over the
    /// daemon's threads, each unit's fault draw keyed by `key | unit`
    /// (no draws when `key` is `None`). Fail-fast: Impala fixes the
    /// plan before execution and cannot reschedule, so any unit dying —
    /// an injected fault or a bug in the unit — fails the query, and
    /// the surviving units' output is dropped: a failed query never
    /// surfaces partial rows.
    fn run_fragment<R: Send>(
        &self,
        fragment: &str,
        key: Option<u64>,
        n: usize,
        f: impl Fn(usize, &mut Vec<R>) + Sync,
    ) -> Result<(Vec<R>, Vec<TaskTiming>), ImpalaError> {
        let d = Dispatch::new(self.conf.threads, ScheduleMode::Static);
        let run = cluster::dispatch(n, &d, |i, attempt, out| {
            f(i, out);
            if let Some(key) = key {
                self.chaos
                    .inject(ChaosSite::Fragment, key | i as u64, attempt);
            }
        });
        obs::add_thread(&run.exec.worker_counters);
        if !run.failures.is_empty() {
            return Err(fragment_failed(fragment, &run.failures));
        }
        Ok((run.out, run.timings))
    }

    fn run_plan(&self, plan: PhysicalPlan) -> Result<QueryResult, ImpalaError> {
        let engine = NaiveEngine;
        let predicate = plan.predicate;
        let radius = predicate.filter_radius();

        // --- Fragment 0: scan right table, broadcast, build R-tree ---
        // In the real system every instance receives the broadcast WKT
        // row batches and parses + builds its own tree. Here one pool
        // unit parses and prepares one right-side block, and units are
        // stitched in block order, so the tree is the one a serial
        // build packs. The fragment draws no faults; a panicking unit
        // still fails the query. `build_secs` is the per-instance cost
        // one instance pays serially: summed unit work plus bulk load.
        let right_stat = self.dfs.stat(&plan.right_path)?;
        let right_blocks = self.read_retrying(0, || self.dfs.blocks(&plan.right_path))?;
        let right_col = plan.right_geom_col;
        let (entries, build_timings) =
            self.run_fragment("build", None, right_blocks.len(), |i, out| {
                let (mut parsed, mut skipped) = (0u64, 0u64);
                for line in right_blocks[i].lines() {
                    let record = split_record(line, right_col)
                        .and_then(|(id, wkt)| Some((id, geom::wkt::parse(wkt).ok()?)));
                    let Some((id, g)) = record else {
                        skipped += 1;
                        continue;
                    };
                    parsed += 1;
                    out.push((g.envelope().expanded_by(radius), (id, engine.prepare(&g))));
                }
                obs::records(parsed, skipped);
            })?;
        let t0 = Instant::now();
        let tree: RTree<(i64, Geometry)> = RTree::bulk_load_entries(entries);
        let build_secs =
            build_timings.iter().map(|t| t.secs).sum::<f64>() + t0.elapsed().as_secs_f64();

        // --- Fragment 1: scan left table into row batches ---
        let blocks = self.read_retrying(1, || self.dfs.blocks(&plan.left_path))?;
        let localities: Vec<Option<usize>> = blocks.iter().map(|b| Some(b.primary_node)).collect();
        let geom_col = plan.left_geom_col;
        // Rows with a bad id or no geometry column are dropped (and
        // counted) here; the rest are counted when the probe parses them.
        let scan_block = |block: &minihdfs::BlockRef| -> Vec<Row> {
            let mut rows = Vec::with_capacity(block.num_records);
            let mut skipped = 0u64;
            for line in block.lines() {
                match Row::from_line(line, geom_col) {
                    Some(row) => rows.push(row),
                    None => skipped += 1,
                }
            }
            obs::records(0, skipped);
            rows
        };
        let (block_rows, scan_timings) =
            self.run_fragment("scan", Some(0), blocks.len(), |i, out| {
                out.push(scan_block(&blocks[i]))
            })?;
        let scan_tasks: Vec<TaskSpec> = scan_timings
            .iter()
            .map(|t| TaskSpec {
                cost: t.secs,
                locality: localities[t.index].map(|n| n % self.conf.cluster.num_nodes),
            })
            .collect();

        // Batch rows per block, then statically chunk every batch over
        // the node's cores — the OpenMP `schedule(static)` the paper was
        // forced into by GEOS thread-safety.
        let cores = self.conf.cluster.cores_per_node.max(1);
        let mut chunks: Vec<(Vec<Row>, Option<usize>)> = Vec::new();
        let mut chunk_batch: Vec<usize> = Vec::new();
        let mut batch_localities: Vec<Option<usize>> = Vec::new();
        for (rows, locality) in block_rows.into_iter().zip(&localities) {
            for batch in RowBatch::batches_from(rows) {
                let batch_id = batch_localities.len();
                batch_localities.push(*locality);
                let n = batch.len();
                let mut iter = batch.rows.into_iter();
                for c in 0..cores {
                    let start = (c * n) / cores;
                    let end = ((c + 1) * n) / cores;
                    if end > start {
                        chunks.push((iter.by_ref().take(end - start).collect(), *locality));
                        chunk_batch.push(batch_id);
                    }
                }
            }
        }

        obs::row_batches(batch_localities.len() as u64);

        // --- Probe: static chunking, naive (GEOS-like) refinement.
        // Each chunk is one morsel handed to the shared morsel driver;
        // the WKT parse stays inside the probe so chunk costs keep the
        // parse-per-row semantics the cost model was calibrated on. ---
        let probe_chunk = |rows: &[Row], out: &mut Vec<(i64, i64)>| {
            let mut parsed = 0u64;
            for row in rows {
                let Some(p) = geom::wkt::parse(&row.wkt).ok().and_then(|g| g.as_point()) else {
                    continue;
                };
                parsed += 1;
                // Entry envelopes were expanded by the radius at
                // build time; query with radius zero.
                rtree::probe_with(
                    &tree,
                    predicate,
                    &engine,
                    row.id,
                    p,
                    |(rid, t)| (*rid, t),
                    out,
                );
            }
            obs::records(parsed, rows.len() as u64 - parsed);
        };
        // Offset the index space so probe chunks draw faults
        // independently of scan tasks under the same seed.
        let (pairs, probe_timings) =
            self.run_fragment("probe", Some(1u64 << 32), chunks.len(), |i, out| {
                probe_chunk(&chunks[i].0, out)
            })?;
        let mut probe_batches: Vec<ProbeBatch> = batch_localities
            .iter()
            .map(|&locality| ProbeBatch {
                locality: locality.map(|n| n % self.conf.cluster.num_nodes),
                chunk_costs: Vec::with_capacity(cores),
            })
            .collect();
        for t in &probe_timings {
            probe_batches[chunk_batch[t.index]].chunk_costs.push(t.secs);
        }

        let mut pairs: Vec<(i64, i64)> = pairs;
        if plan.group_count {
            // Hash aggregation at the coordinator: (right id, count).
            let mut counts: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
            for &(_, rid) in &pairs {
                *counts.entry(rid).or_insert(0) += 1;
            }
            pairs = counts.into_iter().collect();
            pairs.sort_unstable();
        }
        let result_rows = pairs.len();
        Ok(QueryResult {
            pairs,
            metrics: QueryMetrics {
                scan_tasks,
                build_secs,
                broadcast_bytes: right_stat.total_bytes as u64,
                probe_batches,
                chunks_per_batch: cores,
                result_rows,
            },
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;

    /// Points on a 10×10 integer grid; polygons = four 5×5 quadrant
    /// boxes, so every point matches exactly one polygon (boundary
    /// points may match more).
    fn fixture() -> (MiniDfs, Catalog) {
        let dfs = MiniDfs::new(4, 512).unwrap();
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(format!(
                    "{}\tPOINT ({} {})",
                    i * 10 + j,
                    i as f64 + 0.5,
                    j as f64 + 0.5
                ));
            }
        }
        dfs.write_lines("/pnt", &pts).unwrap();
        let polys = vec![
            "0\tPOLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))".to_string(),
            "1\tPOLYGON ((5 0, 10 0, 10 5, 5 5, 5 0))".to_string(),
            "2\tPOLYGON ((0 5, 5 5, 5 10, 0 10, 0 5))".to_string(),
            "3\tPOLYGON ((5 5, 10 5, 10 10, 5 10, 5 5))".to_string(),
        ];
        dfs.write_lines("/poly", &polys).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(TableDef::id_geom("pnt", "/pnt"));
        catalog.register(TableDef::id_geom("poly", "/poly"));
        (dfs, catalog)
    }

    fn daemon() -> Impalad {
        let (dfs, catalog) = fixture();
        Impalad::new(ImpaladConf::default(), dfs, catalog)
    }

    #[test]
    fn within_join_end_to_end() {
        let d = daemon();
        let result = d
            .execute(
                "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        // Interior points: each matches exactly one quadrant.
        assert_eq!(result.pairs.len(), 100);
        // Spot-check: point (0.5, 0.5), id 0, is in polygon 0.
        assert!(result.pairs.contains(&(0, 0)));
        // Point (5.5, 5.5) has id 55 and sits in polygon 3.
        assert!(result.pairs.contains(&(55, 3)));
        assert_eq!(result.metrics.result_rows, 100);
        assert!(result.metrics.build_secs > 0.0);
        assert!(result.metrics.broadcast_bytes > 0);
        assert!(!result.metrics.probe_batches.is_empty());
    }

    #[test]
    fn nearestd_join_end_to_end() {
        let (dfs, mut catalog) = fixture();
        dfs.write_lines(
            "/roads",
            ["0\tLINESTRING (0 0, 10 0)", "1\tLINESTRING (0 9, 10 9)"],
        )
        .unwrap();
        catalog.register(TableDef::id_geom("roads", "/roads"));
        let d = Impalad::new(ImpaladConf::default(), dfs, catalog);
        let result = d
            .execute(
                "SELECT pnt.id, roads.id FROM pnt SPATIAL JOIN roads \
                 WHERE ST_NearestD (pnt.geom, roads.geom, 0.6)",
            )
            .unwrap();
        // Points at y = 0.5 are 0.5 from road 0; y = 8.5 and 9.5 are
        // 0.5 from road 1. That's 10 + 20 = 30 matches.
        assert_eq!(result.pairs.len(), 30);
        assert!(result.pairs.iter().all(|&(_, rid)| rid == 0 || rid == 1));
    }

    #[test]
    fn non_ascii_sql_is_an_error_not_a_panic() {
        let d = daemon();
        // The 7th byte falls inside a two-byte character.
        assert!(d.execute("ééééé").is_err());
        assert!(d.explain("ééééé").is_err());
    }

    #[test]
    fn simulate_runtime_shape() {
        let d = daemon();
        let result = d
            .execute(
                "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        let standalone = result.metrics.simulate_standalone(d.conf());
        let one_node = result.metrics.simulate_runtime(d.conf(), 1);
        assert!(
            one_node > standalone,
            "engine machinery must cost something: {one_node} vs {standalone}"
        );
    }

    #[test]
    fn bad_rows_are_skipped_not_fatal() {
        let dfs = MiniDfs::new(2, 512).unwrap();
        dfs.write_lines(
            "/pnt",
            [
                "0\tPOINT (1 1)",
                "garbage line",
                "1\tNOT_WKT (2 2)",
                "2\tPOINT (3 3)",
            ],
        )
        .unwrap();
        dfs.write_lines(
            "/poly",
            [
                "0\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
                "1\tPOLYGON ((0 0, banana",
            ],
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register(TableDef::id_geom("pnt", "/pnt"));
        catalog.register(TableDef::id_geom("poly", "/poly"));
        let d = Impalad::new(ImpaladConf::default(), dfs, catalog);
        let before = obs::thread_snapshot();
        let result = d
            .execute(
                "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        assert_eq!(result.pairs, vec![(0, 0), (2, 0)]);
        // Every dropped row is counted once, on whichever side it fell.
        let delta = obs::thread_snapshot().minus(&before);
        let (left_parsed, left_skipped) = (2, 2); // bad id at scan, bad WKT at probe
        let (right_parsed, right_skipped) = (1, 1); // bad WKT at build
        assert_eq!(delta.records_parsed, left_parsed + right_parsed);
        assert_eq!(delta.records_skipped, left_skipped + right_skipped);
    }

    #[test]
    fn explain_plans_without_executing() {
        let d = daemon();
        let text = d
            .explain(
                "EXPLAIN SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        assert!(text.contains("SPATIAL_JOIN"));
        // execute() on an EXPLAIN statement returns no rows but a plan.
        let result = d
            .execute(
                "EXPLAIN SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        assert!(result.pairs.is_empty());
        assert!(result.plan.explain().contains("SPATIAL_JOIN"));
        assert!(d.explain("EXPLAIN SELECT broken").is_err());
    }

    #[test]
    fn count_group_by_aggregates() {
        let d = daemon();
        let result = d
            .execute(
                "SELECT poly.id, COUNT(*) FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom) GROUP BY poly.id",
            )
            .unwrap();
        // Four quadrants x 25 interior points each.
        assert_eq!(result.pairs, vec![(0, 25), (1, 25), (2, 25), (3, 25)]);
        assert!(result.plan.explain().contains("AGGREGATE"));
        // Malformed aggregates are rejected.
        assert!(
            d.execute(
                "SELECT poly.id, COUNT(*) FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)"
            )
            .is_err(),
            "missing GROUP BY"
        );
        assert!(
            d.execute(
                "SELECT pnt.id, COUNT(*) FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom) GROUP BY pnt.id"
            )
            .is_err(),
            "grouping by the probe side is unsupported"
        );
    }

    #[test]
    fn run_stats_carry_fragment_structure() {
        let d = daemon();
        let before = obs::thread_snapshot();
        let result = d
            .execute(
                "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        // The hot-path counters land in this thread's cells (each
        // fragment folds its worker counts back into the caller).
        let delta = obs::thread_snapshot().minus(&before);
        assert!(delta.row_batches >= 1);
        assert!(delta.refine_calls >= result.pairs.len() as u64);
        let stats = result.metrics.to_run_stats();
        assert_eq!(stats.name, "ispmc");
        assert!(stats.child("probe").unwrap().counters.row_batches >= 1);
        assert!(stats.child("build").unwrap().span("rtree").is_some());
        assert!(stats.total_counters().bytes_broadcast > 0);
    }

    /// Suppresses panic-hook output while injected panics fly.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    fn daemon_with_chaos(chaos: ChaosConfig) -> Impalad {
        let (dfs, catalog) = fixture();
        let conf = ImpaladConf {
            chaos,
            ..ImpaladConf::default()
        };
        Impalad::new(conf, dfs, catalog)
    }

    const JOIN_SQL: &str = "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
         WHERE ST_WITHIN (pnt.geom, poly.geom)";

    #[test]
    fn chaos_at_rate_zero_is_bit_identical() {
        let baseline = daemon().execute(JOIN_SQL).unwrap();
        // A seeded but all-zero-rate config must not change the run:
        // same pairs in the same order, no faults recorded.
        let d = daemon_with_chaos(ChaosConfig {
            seed: 99,
            ..ChaosConfig::disabled()
        });
        let result = d.execute(JOIN_SQL).unwrap();
        assert_eq!(result.pairs, baseline.pairs);
        assert_eq!(d.chaos().fault_count(), 0);
    }

    #[test]
    fn fragment_failure_fails_fast_with_no_partial_rows() {
        let d = daemon_with_chaos(ChaosConfig {
            panic_rate: 1.0,
            ..ChaosConfig::uniform(7, 0.0)
        });
        let err = quiet_panics(|| d.execute(JOIN_SQL)).unwrap_err();
        // Every fragment attempt dies; the query aborts cleanly with a
        // typed error and surfaces zero result rows anywhere.
        match err {
            ImpalaError::FragmentFailed { fragment, .. } => {
                assert_eq!(fragment, "scan", "first fragment to die is the scan");
            }
            other => panic!("expected FragmentFailed, got {other:?}"),
        }
        assert!(d.chaos().fault_count() > 0);
    }

    #[test]
    fn panicking_probe_chunk_without_chaos_fails_the_query() {
        let d = daemon();
        assert!(d.chaos().is_disabled());
        // A probe chunk that dies after emitting rows — a bug, not an
        // injected fault — fails its fragment like any other death
        // instead of unwinding the driver.
        let result = quiet_panics(|| {
            d.run_fragment(
                "probe",
                Some(1u64 << 32),
                8,
                |i, out: &mut Vec<(i64, i64)>| {
                    out.push((i as i64, 0));
                    if i == 3 {
                        panic!("probe chunk 3 lost");
                    }
                },
            )
        });
        match result {
            Err(ImpalaError::FragmentFailed { fragment, message }) => {
                assert_eq!(fragment, "probe");
                assert_eq!(message, "probe chunk 3 lost");
            }
            other => panic!("expected FragmentFailed, got {other:?}"),
        }
        assert_eq!(d.chaos().fault_count(), 0);
    }

    #[test]
    fn persistent_transient_read_faults_abort_the_query() {
        let d = daemon_with_chaos(ChaosConfig {
            transient_read_rate: 1.0,
            ..ChaosConfig::uniform(3, 0.0)
        });
        let err = d.execute(JOIN_SQL).unwrap_err();
        assert!(matches!(
            err,
            ImpalaError::FragmentFailed { ref fragment, .. } if fragment == "read"
        ));
    }

    #[test]
    fn recovered_transient_read_is_bit_identical() {
        let baseline = daemon().execute(JOIN_SQL).unwrap();
        // Find a seed whose read faults all clear within the retry
        // budget (and fire at least once), then prove the retried run
        // returns the exact same pairs.
        let rate = 0.6;
        let seed = (0..10_000u64)
            .find(|&s| {
                let probe = Chaos::new(ChaosConfig {
                    transient_read_rate: rate,
                    ..ChaosConfig::uniform(s, 0.0)
                });
                let fired = (0..2).any(|id| probe.read_fault_fires(id, 0));
                let recovers =
                    (0..2).all(|id| (0..MAX_READ_ATTEMPTS).any(|a| !probe.read_fault_fires(id, a)));
                fired && recovers
            })
            .expect("some seed recovers");
        let d = daemon_with_chaos(ChaosConfig {
            transient_read_rate: rate,
            ..ChaosConfig::uniform(seed, 0.0)
        });
        let result = d.execute(JOIN_SQL).unwrap();
        assert_eq!(result.pairs, baseline.pairs);
        assert!(d.chaos().fault_count() > 0, "a read fault must have fired");
    }

    #[test]
    fn plan_is_attached_to_result() {
        let d = daemon();
        let result = d
            .execute(
                "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom)",
            )
            .unwrap();
        assert!(result.plan.explain().contains("SPATIAL_JOIN"));
    }
}
