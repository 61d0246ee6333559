//! ISP-MC: the spatial join through the impalite SQL engine.
//!
//! Where SpatialSpark is "API-driven", ISP-MC "takes spatially extended
//! SQL statements" (§VI). [`IspMc`] registers the two sides as catalog
//! tables, renders the paper's Fig. 1 SQL for the requested predicate,
//! plans it with the impalite frontend and runs the plan's fragments
//! ([`crate::exec`]): the broadcast R-tree build and probe every query
//! path shares, statically-chunked row batches and GEOS-like naive
//! refinement.

use cluster::Chaos;
use geom::engine::SpatialPredicate;
use impalite::{Catalog, ImpaladConf, QueryResult, TableDef};
use minihdfs::MiniDfs;

use crate::error::SpatialJoinError;
use crate::JoinPair;

/// The ISP-MC system: one Impala daemon standing in for the whole
/// backend, over a file system and a two-table catalog.
pub struct IspMc {
    pub(crate) conf: ImpaladConf,
    pub(crate) dfs: MiniDfs,
    pub(crate) catalog: Catalog,
    pub(crate) chaos: Chaos,
}

/// One completed ISP-MC join.
pub struct IspMcRun {
    /// The engine-level result (pairs, metrics, plan).
    pub result: QueryResult,
    conf: ImpaladConf,
    /// The SQL statement that ran.
    pub sql: String,
}

impl IspMcRun {
    /// Matched pairs.
    pub fn pairs(&self) -> &[JoinPair] {
        &self.result.pairs
    }

    /// Number of result pairs.
    pub fn pair_count(&self) -> usize {
        self.result.pairs.len()
    }

    /// Simulated runtime on `num_nodes` under Impala's static
    /// scheduling (the ISP-MC columns of Tables 1 and 2).
    pub fn simulated_runtime(&self, num_nodes: usize) -> f64 {
        self.result.metrics.simulate_runtime(&self.conf, num_nodes)
    }

    /// Total measured CPU seconds.
    pub fn total_work(&self) -> f64 {
        self.result.metrics.total_work()
    }

    /// The run's measured fragments as an [`obs::RunStats`] tree
    /// (scan/build/probe children with their seconds and byte counts).
    pub fn run_stats(&self) -> obs::RunStats {
        self.result.metrics.to_run_stats()
    }
}

impl IspMc {
    /// Creates the system with `left`/`right` registered as `(name,
    /// path)` tables.
    pub fn new(conf: ImpaladConf, dfs: MiniDfs, left: (&str, &str), right: (&str, &str)) -> IspMc {
        let mut catalog = Catalog::new();
        catalog.register(TableDef::id_geom(left.0, left.1));
        catalog.register(TableDef::id_geom(right.0, right.1));
        let chaos = Chaos::new(conf.chaos);
        IspMc {
            conf,
            dfs,
            catalog,
            chaos,
        }
    }

    /// Renders the Fig. 1 SQL for a predicate over tables `l` and `r`.
    pub fn render_sql(left: &str, right: &str, predicate: SpatialPredicate) -> String {
        match predicate {
            SpatialPredicate::Within => format!(
                "SELECT {left}.id, {right}.id FROM {left} SPATIAL JOIN {right} \
                 WHERE ST_WITHIN ({left}.geom, {right}.geom)"
            ),
            SpatialPredicate::NearestD(d) => format!(
                "SELECT {left}.id, {right}.id FROM {left} SPATIAL JOIN {right} \
                 WHERE ST_NearestD ({left}.geom, {right}.geom, {d})"
            ),
            SpatialPredicate::Nearest(d) => format!(
                "SELECT {left}.id, {right}.id FROM {left} SPATIAL JOIN {right} \
                 WHERE ST_NEAREST ({left}.geom, {right}.geom, {d})"
            ),
        }
    }

    /// Runs the join for `predicate` between the two registered tables.
    ///
    /// # Errors
    /// Propagates SQL/planning/storage errors from the engine.
    pub fn spatial_join(
        &self,
        left: &str,
        right: &str,
        predicate: SpatialPredicate,
    ) -> Result<IspMcRun, SpatialJoinError> {
        self.execute_sql(&Self::render_sql(left, right, predicate))
    }

    /// Parses, plans and executes one spatial-join statement. An
    /// `EXPLAIN` prefix plans without executing: the run has the plan,
    /// no rows and empty metrics.
    ///
    /// # Errors
    /// Propagates SQL/planning/storage errors from the engine, and a
    /// fragment failure as the query's error.
    pub fn execute_sql(&self, sql: &str) -> Result<IspMcRun, SpatialJoinError> {
        Ok(IspMcRun {
            result: self.execute(sql)?,
            conf: self.conf.clone(),
            sql: sql.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        dfs
    }

    #[test]
    fn sql_rendering_matches_fig1() {
        let sql = IspMc::render_sql("pnt", "poly", SpatialPredicate::Within);
        assert!(sql.contains("SPATIAL JOIN"));
        assert!(sql.contains("ST_WITHIN (pnt.geom, poly.geom)"));
        let sql2 = IspMc::render_sql("pnt", "lion", SpatialPredicate::NearestD(5000.0));
        assert!(sql2.contains("ST_NearestD (pnt.geom, lion.geom, 5000)"));
    }

    #[test]
    fn join_end_to_end_matches_expected_count() {
        let sys = IspMc::new(
            ImpaladConf::default(),
            fixture(),
            ("pnt", "/pnt"),
            ("poly", "/poly"),
        );
        let run = sys
            .spatial_join("pnt", "poly", SpatialPredicate::Within)
            .unwrap();
        assert_eq!(run.pair_count(), 100);
        let cluster = ImpaladConf::default().cluster;
        let standalone = run.result.metrics.simulate_standalone_on(&cluster);
        assert!(standalone <= run.simulated_runtime(1));
        assert!(run.sql.contains("ST_WITHIN"));
        let stats = run.run_stats();
        assert_eq!(stats.name, "ispmc");
        assert!(stats.total_counters().row_batches >= 1);
    }

    #[test]
    fn execute_sql_direct() {
        let sys = IspMc::new(
            ImpaladConf::default(),
            fixture(),
            ("pnt", "/pnt"),
            ("poly", "/poly"),
        );
        let run = sys
            .execute_sql(
                "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
                 WHERE ST_WITHIN (pnt.geom, poly.geom);",
            )
            .unwrap();
        assert_eq!(run.pair_count(), 100);
        assert!(sys.execute_sql("SELECT broken").is_err());
    }
}
