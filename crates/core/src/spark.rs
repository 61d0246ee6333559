//! SpatialSpark: the broadcast spatial join as dataset transformations.
//!
//! A faithful port of the paper's Fig. 2 skeleton onto sparklet:
//!
//! 1. `textFile` the left side (one partition per HDFS block),
//! 2. `map` each line through the WKT reader, dropping failures,
//! 3. collect the (small) right side on the driver, build an STR-tree
//!    of *prepared* (JTS-like) geometries with envelopes expanded by
//!    the query radius, and broadcast it. The driver parses and
//!    prepares one HDFS block per pool unit on the context's threads
//!    and stitches the units in block order, so the tree is the one a
//!    serial build packs,
//! 4. `flatMap` every left point through an R-tree probe plus
//!    refinement.
//!
//! Dynamic task scheduling and the JTS-like refinement engine are what
//! distinguish this system from ISP-MC in the paper's results.

use cluster::{ClusterSpec, NetworkModel, Scheduler, TaskSpec};
use geom::engine::{FlatEngine, SpatialPredicate};
use minihdfs::MiniDfs;
use sparklet::{JobReport, SparkConf, SparkContext, StageMetrics};

use crate::error::SpatialJoinError;
use crate::parallel::PreparedSet;
use crate::reader::RecordReader;
use crate::JoinPair;

/// The SpatialSpark system: a spark context plus the join driver.
pub struct SpatialSpark {
    sc: SparkContext,
}

/// One completed SpatialSpark join.
pub struct SpatialSparkRun {
    /// Matched `(left id, right id)` pairs.
    pub pairs: Vec<JoinPair>,
    /// Recorded stage metrics for replay.
    pub report: JobReport,
    cluster: ClusterSpec,
    network: NetworkModel,
}

impl SpatialSparkRun {
    /// Simulated wall-clock runtime on `num_nodes` nodes of the
    /// configured node type, under Spark's dynamic scheduling.
    pub fn simulated_runtime(&self, num_nodes: usize) -> f64 {
        let spec = ClusterSpec {
            num_nodes,
            ..self.cluster
        };
        self.report
            .simulate_runtime(&spec, &self.network, Scheduler::Dynamic)
    }

    /// Number of result pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Total measured CPU seconds across stages.
    pub fn total_work(&self) -> f64 {
        self.report.total_work()
    }

    /// The run's stage metrics rebased onto the workspace observability
    /// layer: one `RunStats` child per recorded stage.
    pub fn run_stats(&self) -> obs::RunStats {
        self.report.to_run_stats("spatialspark")
    }
}

impl SpatialSpark {
    /// Creates the system over a file system.
    pub fn new(conf: SparkConf, dfs: MiniDfs) -> SpatialSpark {
        SpatialSpark {
            sc: SparkContext::new(conf, dfs),
        }
    }

    /// Runs the broadcast indexed spatial join between two WKT text
    /// files (`id \t wkt` records).
    ///
    /// Resets the context's metrics: the returned report covers exactly
    /// this job, mirroring a fresh `spark-submit` per experiment.
    ///
    /// # Errors
    /// Fails when either path is missing.
    pub fn broadcast_spatial_join(
        &self,
        left_path: &str,
        right_path: &str,
        predicate: SpatialPredicate,
    ) -> Result<SpatialSparkRun, SpatialJoinError> {
        self.sc.reset_metrics();
        let engine = FlatEngine;
        let reader = RecordReader::new(1);

        // --- driver side: collect right, prepare once, broadcast ---
        // The build runs per DFS block on the context's threads; the
        // stage is charged the summed per-block work plus the bulk load
        // (the serial cost one driver pays), not the parallel wall time,
        // so the replay model's inputs do not depend on local threads.
        let right_stat = self.sc.dfs().stat(right_path)?;
        let right_blocks = self.sc.dfs().blocks(right_path)?;
        // A dying build unit is a bug on this path, not an injected
        // fault: it is re-raised on the driver.
        let set = PreparedSet::from_blocks(
            &right_blocks,
            reader,
            predicate,
            &engine,
            self.sc.conf().threads,
        )
        .unwrap_or_else(|failures| std::panic::panic_any(failures[0].message.clone()));
        self.sc.record_stage(StageMetrics {
            name: "driver:collect+build-strtree".into(),
            tasks: vec![TaskSpec::of_cost(set.build_work())],
            broadcast_bytes: 0,
        });
        let broadcast = self.sc.broadcast(set, right_stat.total_bytes as u64);
        self.sc
            .record_movement("broadcast:strtree", broadcast.approx_bytes());

        // --- executors: parse left, probe the shared prepared set ---
        let left = self.sc.text_file(left_path)?;
        let parsed = left.map("map:parse-wkt", move |line: &String| {
            reader.read_point(line).ok()
        });
        let set_ref = broadcast.clone();
        let pairs_ds = parsed.flat_map_with("flatMap:rtree-probe+refine", move |rec, out| {
            if let Some((id, p)) = rec {
                set_ref.value().probe_into(&engine, *id, *p, out);
            }
        });
        let pairs = pairs_ds.collect();

        Ok(SpatialSparkRun {
            pairs,
            report: self.sc.job_report(),
            cluster: self.sc.conf().cluster,
            network: self.sc.conf().network,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system_with_grid() -> SpatialSpark {
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
        SpatialSpark::new(SparkConf::default(), dfs)
    }

    #[test]
    fn within_join_end_to_end() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
        assert_eq!(run.pair_count(), 100);
        assert!(run.pairs.contains(&(0, 0)));
        assert!(run.pairs.contains(&(55, 3)));
        // The Fig. 2 pipeline runs as distinct stages.
        let names: Vec<&str> = run.report.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("build-strtree")));
        assert!(names.iter().any(|n| n.contains("broadcast")));
        assert!(names.iter().any(|n| n.contains("parse-wkt")));
        assert!(names.iter().any(|n| n.contains("probe")));
    }

    #[test]
    fn nearestd_join_end_to_end() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/roads", SpatialPredicate::NearestD(0.6))
            .unwrap();
        assert_eq!(run.pair_count(), 30);
    }

    #[test]
    fn simulated_runtime_is_monotone_enough() {
        let sys = system_with_grid();
        let run = sys
            .broadcast_spatial_join("/pnt", "/poly", SpatialPredicate::Within)
            .unwrap();
        let t1 = run.simulated_runtime(1);
        let t10 = run.simulated_runtime(10);
        assert!(t1 > 0.0 && t10 > 0.0);
        // A job this tiny is dominated by startup: more nodes cost more.
        assert!(t10 > t1);
    }

    #[test]
    fn missing_file_errors() {
        let sys = system_with_grid();
        assert!(sys
            .broadcast_spatial_join("/missing", "/poly", SpatialPredicate::Within)
            .is_err());
        assert!(sys
            .broadcast_spatial_join("/pnt", "/missing", SpatialPredicate::Within)
            .is_err());
    }
}
