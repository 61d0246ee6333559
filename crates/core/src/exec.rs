//! ISP-MC's backend: the plan fragments an [`IspMc`] runs.
//!
//! The frontend in impalite parses and plans the statement; here the
//! plan executes. Fragment 0 builds the broadcast right side into the
//! [`PreparedSet`] every query path probes, fragment 1 scans the left
//! side into row batches, and every batch is probed in static chunks
//! (the OpenMP `schedule(static)` of §V) with GEOS-like naive
//! refinement. Any fragment dying fails the query: Impala has no
//! lineage to recompute from.

use cluster::{ChaosSite, ScheduleMode, TaskFailure, TaskSpec, TaskTiming};
use geom::engine::NaiveEngine;
use impalite::exec::ProbeBatch;
use impalite::plan::plan_query;
use impalite::row::{Row, RowBatch};
use impalite::{parse_query, ImpalaError, PhysicalPlan, QueryMetrics, QueryResult};

use crate::ispmc::IspMc;
use crate::parallel::PreparedSet;
use crate::reader::RecordReader;

/// Strips a leading `EXPLAIN` keyword, returning the remainder. The
/// keyword must end at whitespace or the end of the statement.
fn strip_explain(sql: &str) -> Option<&str> {
    let trimmed = sql.trim_start();
    // `get` is `None` inside a multi-byte character, where slicing
    // would panic.
    let rest = trimmed.get(7..)?;
    (trimmed[..7].eq_ignore_ascii_case("EXPLAIN")
        && rest.chars().next().is_none_or(char::is_whitespace))
    .then_some(rest)
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

impl IspMc {
    /// Parses, plans and executes one statement; an `EXPLAIN` prefix
    /// plans without executing.
    pub(crate) fn execute(&self, sql: &str) -> Result<QueryResult, ImpalaError> {
        let explain = strip_explain(sql);
        let plan = plan_query(&parse_query(explain.unwrap_or(sql))?, &self.catalog)?;
        if explain.is_some() {
            return Ok(QueryResult {
                pairs: Vec::new(),
                metrics: QueryMetrics::default(),
                plan,
            });
        }
        self.run_plan(plan)
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

    /// Runs one plan fragment's `n` units statically chunked over the
    /// daemon's threads, each unit's fault draw keyed by `key | unit`
    /// at attempt 0: a unit runs once.
    /// Fail-fast: Impala fixes the plan before execution and cannot
    /// reschedule, so any unit dying — an injected fault or a bug in
    /// the unit — fails the query, and the surviving units' output is
    /// dropped: a failed query never surfaces partial rows.
    fn run_fragment<R: Send>(
        &self,
        fragment: &str,
        key: u64,
        n: usize,
        f: impl Fn(usize, &mut Vec<R>) + Sync,
    ) -> Result<(Vec<R>, Vec<TaskTiming>), ImpalaError> {
        let run = cluster::dispatch(n, self.conf.threads, ScheduleMode::Static, |i, out| {
            f(i, out);
            self.chaos.inject(ChaosSite::Fragment, key | i as u64, 0);
        });
        obs::add_thread(&run.exec.worker_counters);
        if !run.failures.is_empty() {
            return Err(fragment_failed(fragment, &run.failures));
        }
        Ok((run.out, run.timings))
    }

    fn run_plan(&self, plan: PhysicalPlan) -> Result<QueryResult, ImpalaError> {
        let engine = NaiveEngine;

        // --- Fragment 0: scan right table, broadcast, build R-tree ---
        // In the real system every instance receives the broadcast WKT
        // row batches and parses + builds its own tree. Here the shared
        // per-block build of every query path does it once; it draws no
        // faults, but a dying unit still fails the query. `build_secs`
        // is the cost one instance pays serially.
        let right_stat = self.dfs.stat(&plan.right_path)?;
        let right_blocks = self.read_retrying(0, || self.dfs.blocks(&plan.right_path))?;
        let set = PreparedSet::from_blocks(
            &right_blocks,
            RecordReader::new(plan.right_geom_col),
            plan.predicate,
            &engine,
            self.conf.threads,
        )
        .map_err(|failures| fragment_failed("build", &failures))?;

        // --- Fragment 1: scan left table into row batches ---
        // Rows with a bad id or no geometry column are dropped (and
        // counted) here; the rest are counted when the probe parses them.
        let blocks = self.read_retrying(1, || self.dfs.blocks(&plan.left_path))?;
        let reader = RecordReader::new(plan.left_geom_col);
        let (block_rows, scan_timings) = self.run_fragment("scan", 0, blocks.len(), |i, out| {
            let mut rows = Vec::with_capacity(blocks[i].num_records);
            let mut skipped = 0u64;
            for line in blocks[i].lines() {
                match reader.split(line) {
                    Ok((id, wkt)) => rows.push(Row {
                        id,
                        wkt: wkt.to_string(),
                    }),
                    Err(_) => skipped += 1,
                }
            }
            obs::records(0, skipped);
            out.push(rows);
        })?;
        // Scan tasks and probe batches carry their block's index in the
        // file as a scan-range tag. The replay places whole scan ranges
        // on the nodes it simulates, balanced for that node count: a
        // cluster of N nodes stores its blocks on N datanodes, so a tag
        // naming one of this DFS's datanodes would quantise the work
        // into that many shares whatever N is.
        let scan_tasks: Vec<TaskSpec> = scan_timings
            .iter()
            .map(|t| TaskSpec {
                cost: t.secs,
                locality: Some(t.index),
            })
            .collect();

        // Batch rows per block, then statically chunk every batch over
        // the node's cores — the OpenMP `schedule(static)` the paper was
        // forced into by GEOS thread-safety.
        let cores = self.conf.cluster.cores_per_node.max(1);
        let mut chunks: Vec<Vec<Row>> = Vec::new();
        let mut chunk_batch: Vec<usize> = Vec::new();
        let mut probe_batches: Vec<ProbeBatch> = Vec::new();
        for (block_index, rows) in block_rows.into_iter().enumerate() {
            for batch in RowBatch::batches_from(rows) {
                let batch_id = probe_batches.len();
                probe_batches.push(ProbeBatch {
                    locality: Some(block_index),
                    chunk_costs: Vec::with_capacity(cores),
                });
                let n = batch.len();
                let mut iter = batch.rows.into_iter();
                for c in 0..cores {
                    let start = (c * n) / cores;
                    let end = ((c + 1) * n) / cores;
                    if end > start {
                        chunks.push(iter.by_ref().take(end - start).collect());
                        chunk_batch.push(batch_id);
                    }
                }
            }
        }
        obs::row_batches(probe_batches.len() as u64);

        // --- Probe: static chunking, naive (GEOS-like) refinement.
        // The WKT parse stays inside the probe so chunk costs keep the
        // parse-per-row semantics the cost model was calibrated on.
        // Offset the key space so probe chunks draw faults
        // independently of scan tasks under the same seed. ---
        let (pairs, probe_timings) =
            self.run_fragment("probe", 1u64 << 32, chunks.len(), |i, out| {
                let rows = &chunks[i];
                let mut parsed = 0u64;
                for row in rows {
                    let Some(p) = geom::wkt::parse(&row.wkt).ok().and_then(|g| g.as_point()) else {
                        continue;
                    };
                    parsed += 1;
                    set.probe_into(&engine, row.id, p, out);
                }
                obs::records(parsed, rows.len() as u64 - parsed);
            })?;
        for t in &probe_timings {
            probe_batches[chunk_batch[t.index]].chunk_costs.push(t.secs);
        }

        let result_rows = pairs.len();
        Ok(QueryResult {
            pairs,
            metrics: QueryMetrics {
                scan_tasks,
                build_secs: set.build_work(),
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
    use crate::JoinPair;
    use cluster::{Chaos, ChaosConfig};
    use impalite::ImpaladConf;
    use minihdfs::MiniDfs;

    /// Points on a 10×10 integer grid; polygons = four 5×5 quadrant
    /// boxes, so every point matches exactly one polygon (boundary
    /// points may match more); two roads along y = 0 and y = 9.
    fn fixture() -> MiniDfs {
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
        dfs.write_lines(
            "/poly",
            [
                "0\tPOLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))",
                "1\tPOLYGON ((5 0, 10 0, 10 5, 5 5, 5 0))",
                "2\tPOLYGON ((0 5, 5 5, 5 10, 0 10, 0 5))",
                "3\tPOLYGON ((5 5, 10 5, 10 10, 5 10, 5 5))",
            ],
        )
        .unwrap();
        dfs.write_lines(
            "/roads",
            ["0\tLINESTRING (0 0, 10 0)", "1\tLINESTRING (0 9, 10 9)"],
        )
        .unwrap();
        dfs
    }

    fn system_with(conf: ImpaladConf) -> IspMc {
        IspMc::new(conf, fixture(), ("pnt", "/pnt"), ("poly", "/poly"))
    }

    fn system() -> IspMc {
        system_with(ImpaladConf::default())
    }

    fn system_with_chaos(chaos: ChaosConfig) -> IspMc {
        system_with(ImpaladConf {
            chaos,
            ..ImpaladConf::default()
        })
    }

    const JOIN_SQL: &str = "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
         WHERE ST_WITHIN (pnt.geom, poly.geom)";

    /// Suppresses panic-hook output while injected panics fly.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn within_join_end_to_end() {
        let result = system().execute(JOIN_SQL).unwrap();
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
        let sys = IspMc::new(
            ImpaladConf::default(),
            fixture(),
            ("pnt", "/pnt"),
            ("roads", "/roads"),
        );
        let result = sys
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
        let sys = system();
        // The 7th byte falls inside a two-byte character.
        assert!(sys.execute("ééééé").is_err());
        assert!(sys.execute("EXPLAIé SELECT").is_err());
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
        let sys = IspMc::new(
            ImpaladConf::default(),
            dfs,
            ("pnt", "/pnt"),
            ("poly", "/poly"),
        );
        let before = obs::thread_snapshot();
        let result = sys.execute(JOIN_SQL).unwrap();
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
        let sys = system();
        // An EXPLAIN statement returns no rows but a plan.
        let result = sys.execute(&format!("EXPLAIN {JOIN_SQL}")).unwrap();
        assert!(result.pairs.is_empty());
        assert!(result.plan.explain().contains("SPATIAL_JOIN"));
        assert!(sys.execute("EXPLAIN SELECT broken").is_err());
    }

    #[test]
    fn explain_needs_a_word_boundary() {
        let sys = system();
        // Glued to the statement, the keyword is not EXPLAIN: the text
        // is bad SQL, not a plan with no rows.
        assert!(sys.execute_sql(&format!("EXPLAIN{JOIN_SQL}")).is_err());
        let run = sys.execute_sql(&format!("EXPLAIN\t{JOIN_SQL}")).unwrap();
        assert_eq!(run.pair_count(), 0);
        assert!(run.result.plan.explain().contains("SPATIAL_JOIN"));
    }

    #[test]
    fn run_stats_carry_fragment_structure() {
        let sys = system();
        let before = obs::thread_snapshot();
        let result = sys.execute(JOIN_SQL).unwrap();
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

    #[test]
    fn chaos_at_rate_zero_is_bit_identical() {
        let baseline = system().execute(JOIN_SQL).unwrap();
        // A seeded but all-zero-rate config must not change the run:
        // same pairs in the same order, no faults recorded.
        let sys = system_with_chaos(ChaosConfig {
            seed: 99,
            ..ChaosConfig::disabled()
        });
        let result = sys.execute(JOIN_SQL).unwrap();
        assert_eq!(result.pairs, baseline.pairs);
        assert_eq!(sys.chaos.fault_count(), 0);
    }

    #[test]
    fn fragment_failure_fails_fast_with_no_partial_rows() {
        let sys = system_with_chaos(ChaosConfig {
            panic_rate: 1.0,
            ..ChaosConfig::uniform(7, 0.0)
        });
        let err = quiet_panics(|| sys.execute(JOIN_SQL)).unwrap_err();
        // Every fragment attempt dies; the query aborts cleanly with a
        // typed error and surfaces zero result rows anywhere.
        match err {
            ImpalaError::FragmentFailed { fragment, .. } => {
                assert_eq!(fragment, "scan", "first fragment to die is the scan");
            }
            other => panic!("expected FragmentFailed, got {other:?}"),
        }
        assert!(sys.chaos.fault_count() > 0);
    }

    #[test]
    fn panicking_probe_chunk_without_chaos_fails_the_query() {
        let sys = system();
        assert!(sys.chaos.is_disabled());
        // A probe chunk that dies after emitting rows — a bug, not an
        // injected fault — fails its fragment like any other death
        // instead of unwinding the driver.
        let result = quiet_panics(|| {
            sys.run_fragment("probe", 1u64 << 32, 8, |i, out: &mut Vec<JoinPair>| {
                out.push((i as i64, 0));
                if i == 3 {
                    panic!("probe chunk 3 lost");
                }
            })
        });
        match result {
            Err(ImpalaError::FragmentFailed { fragment, message }) => {
                assert_eq!(fragment, "probe");
                assert_eq!(message, "probe chunk 3 lost");
            }
            other => panic!("expected FragmentFailed, got {other:?}"),
        }
        assert_eq!(sys.chaos.fault_count(), 0);
    }

    #[test]
    fn persistent_transient_read_faults_abort_the_query() {
        let sys = system_with_chaos(ChaosConfig {
            transient_read_rate: 1.0,
            ..ChaosConfig::uniform(3, 0.0)
        });
        let err = sys.execute(JOIN_SQL).unwrap_err();
        assert!(matches!(
            err,
            ImpalaError::FragmentFailed { ref fragment, .. } if fragment == "read"
        ));
    }

    #[test]
    fn recovered_transient_read_is_bit_identical() {
        let baseline = system().execute(JOIN_SQL).unwrap();
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
        let sys = system_with_chaos(ChaosConfig {
            transient_read_rate: rate,
            ..ChaosConfig::uniform(seed, 0.0)
        });
        let result = sys.execute(JOIN_SQL).unwrap();
        assert_eq!(result.pairs, baseline.pairs);
        assert!(sys.chaos.fault_count() > 0, "a read fault must have fired");
    }

    #[test]
    fn plan_is_attached_to_result() {
        let result = system().execute(JOIN_SQL).unwrap();
        assert!(result.plan.explain().contains("SPATIAL_JOIN"));
    }
}
