//! The two §II Hadoop-based spatial-join strategies, as baselines.
//!
//! Both share the workspace's one sampled STR partitioner
//! (SpatialHadoop's default, `spatialjoin::join::partitioner`) and one
//! map-side router. They differ exactly where the paper says they
//! differ:
//!
//! * **SpatialHadoop**: "both sides in a spatial join are partitioned
//!   and spatial join is implemented as a map-only job" — a separate
//!   partitioning job spills both datasets to per-cell files, then the
//!   join job pairs up co-located cell files and joins each pair in one
//!   map task. Refinement uses the JTS-like [`FlatEngine`] (it is a
//!   Java system).
//! * **HadoopGIS**: a reduce-side join using "the Hadoop streaming
//!   technique which requires all intermediate results to be
//!   represented as text" — map emits `(cell, text record)` for both
//!   sides, every reducer re-parses the WKT of its cell and joins.
//!   Refinement uses the GEOS-like [`NaiveEngine`] (HadoopGIS wraps
//!   GEOS).

use geom::engine::{FlatEngine, NaiveEngine, RefinementEngine, SpatialPredicate};
use geom::HasEnvelope;
use minihdfs::DfsError;
use rtree::StrPartitioner;
use spatialjoin::{join, JoinPair, JoinRequest, RecordReader};

use crate::mapreduce::{HadoopConf, JobMetrics, MapReduce};

/// A completed Hadoop-based join.
pub struct HadoopJoinRun {
    /// Matched `(left id, right id)` pairs.
    pub pairs: Vec<JoinPair>,
    /// Metrics of the join job itself.
    pub metrics: JobMetrics,
    /// Metrics of the one-time partitioning job, when the strategy has
    /// one (SpatialHadoop amortises this across queries).
    pub preprocessing: Option<JobMetrics>,
    conf: HadoopConf,
    /// Human-readable strategy name.
    pub strategy: &'static str,
}

impl HadoopJoinRun {
    /// Simulated runtime of the join job on `num_nodes` nodes.
    pub fn simulated_runtime(&self, num_nodes: usize) -> f64 {
        self.metrics.simulate_runtime(&self.conf, num_nodes)
    }

    /// Simulated runtime including any one-time partitioning job.
    pub fn simulated_runtime_with_preprocessing(&self, num_nodes: usize) -> f64 {
        let mut t = self.simulated_runtime(num_nodes);
        if let Some(pre) = &self.preprocessing {
            t += pre.simulate_runtime(&self.conf, num_nodes);
        }
        t
    }

    /// Number of result pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }
}

/// Builds the shared STR partitioner: each side is parsed once and
/// handed to [`join::partitioner`], which owns the extent and sample
/// rule.
fn build_partitioner(
    mr: &MapReduce,
    left_path: &str,
    right_path: &str,
    predicate: SpatialPredicate,
    target_cells: usize,
) -> Result<StrPartitioner, DfsError> {
    let reader = RecordReader::new(1);
    let (left, _) = reader.read_points(&mr.dfs().read_all_lines(left_path)?);
    let (right, _) = reader.read_geoms(&mr.dfs().read_all_lines(right_path)?);
    Ok(join::partitioner(&left, &right, predicate, target_cells))
}

/// The map side of both strategies: tags one `id \t wkt` record with
/// its cell(s) as text. Sides are told apart by geometry type (points
/// probe, everything else builds), which is the shape of every join in
/// the paper: a point goes to the one cell owning it, any other
/// geometry to every cell its expanded envelope overlaps. Malformed
/// records are dropped here, counted by the record reader.
fn route_record(
    partitioner: &StrPartitioner,
    radius: f64,
    line: &str,
    out: &mut Vec<(usize, String)>,
) {
    let Ok((_, g)) = RecordReader::new(1).read_geom(line) else {
        return;
    };
    if let Some(p) = g.as_point() {
        if let Some(cell) = partitioner.cell_of(p) {
            out.push((cell, format!("L\t{line}")));
        }
    } else {
        let env = g.envelope().expanded_by(radius);
        for cell in partitioner.cells_intersecting(&env) {
            out.push((cell, format!("R\t{line}")));
        }
    }
}

/// Joins one cell's tagged text records (`L\t` left points, `R\t`
/// right geometries), re-parsing every record from text.
fn join_cell<E: RefinementEngine>(
    records: &[String],
    predicate: SpatialPredicate,
    engine: &E,
) -> Vec<JoinPair> {
    let reader = RecordReader::new(1);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for r in records {
        if let Some(rest) = r.strip_prefix("L\t") {
            left.extend(reader.read_point(rest).ok());
        } else if let Some(rest) = r.strip_prefix("R\t") {
            right.extend(reader.read_geom(rest).ok());
        }
    }
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    JoinRequest::new(&left, &right, engine)
        .predicate(predicate)
        .run()
        .pairs
}

/// The HadoopGIS-style reduce-side join.
///
/// # Errors
/// Fails when an input path is missing.
pub fn hadoopgis_join(
    mr: &MapReduce,
    left_path: &str,
    right_path: &str,
    predicate: SpatialPredicate,
    target_cells: usize,
) -> Result<HadoopJoinRun, DfsError> {
    let radius = predicate.filter_radius();
    let partitioner = build_partitioner(mr, left_path, right_path, predicate, target_cells)?;
    let engine = NaiveEngine;

    // One job: map tags records with their cell(s) as *text* values;
    // reduce re-parses and joins per cell.
    let result = mr.run_job(
        &[left_path, right_path],
        |line, out| route_record(&partitioner, radius, line, out),
        // Hadoop-streaming text intermediates: full record length.
        |_, v| v.len() as u64,
        |_, records| {
            // Re-parse everything from text — the HadoopGIS overhead
            // the paper calls out ("data movement and parsing text are
            // expensive on modern hardware").
            join_cell(records, predicate, &engine)
        },
    )?;

    Ok(HadoopJoinRun {
        pairs: result.output,
        metrics: result.metrics,
        preprocessing: None,
        conf: mr.conf().clone(),
        strategy: "hadoopgis-reduce-side",
    })
}

/// The SpatialHadoop-style join: a partitioning job writes both sides
/// to per-cell files, then a map-only job joins each cell pair.
///
/// # Errors
/// Fails when an input path is missing.
pub fn spatialhadoop_join(
    mr: &MapReduce,
    left_path: &str,
    right_path: &str,
    predicate: SpatialPredicate,
    target_cells: usize,
) -> Result<HadoopJoinRun, DfsError> {
    let radius = predicate.filter_radius();
    let partitioner = build_partitioner(mr, left_path, right_path, predicate, target_cells)?;
    let engine = FlatEngine;

    // --- Job 1: partition both datasets into per-cell files ---
    let partition_job = mr.run_job(
        &[left_path, right_path],
        |line, out| route_record(&partitioner, radius, line, out),
        |_, v| v.len() as u64,
        |cell, records| vec![(*cell, records.to_vec())],
    )?;
    let preprocessing = partition_job.metrics.clone();

    // Materialise the cell files (SpatialHadoop's partitioned layout).
    // A unique run id keeps repeated joins on one DFS from colliding.
    let run_id = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let mut cell_paths = Vec::new();
    for (cell, lines) in &partition_job.output {
        let path = format!("/tmp/shjoin-{run_id}/cell-{cell}");
        mr.dfs().write_lines(&path, lines)?;
        cell_paths.push(path);
    }

    // --- Job 2: map-only join over the cell files ---
    let input_refs: Vec<&str> = cell_paths.iter().map(String::as_str).collect();
    let join_job = mr.run_file_job(&input_refs, |_, lines| join_cell(lines, predicate, &engine))?;
    // Clean the partitioned layout back up.
    for path in &cell_paths {
        let _ = mr.dfs().delete(path);
    }

    Ok(HadoopJoinRun {
        pairs: join_job.output,
        metrics: join_job.metrics,
        preprocessing: Some(preprocessing),
        conf: mr.conf().clone(),
        strategy: "spatialhadoop-map-only",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::engine::PreparedEngine;
    use minihdfs::MiniDfs;

    fn fixture() -> MapReduce {
        let dfs = MiniDfs::new(4, 16 * 1024).unwrap();
        datagen::write_dataset(&dfs, "/taxi", &datagen::taxi::geometries(3_000, 51)).unwrap();
        datagen::write_dataset(&dfs, "/nycb", &datagen::nycb::geometries(500, 51)).unwrap();
        datagen::write_dataset(&dfs, "/lion", &datagen::lion::geometries(1_500, 51)).unwrap();
        MapReduce::new(HadoopConf::default(), dfs)
    }

    fn reference(mr: &MapReduce, left: &str, right: &str, pred: SpatialPredicate) -> Vec<JoinPair> {
        let reader = RecordReader::new(1);
        let l = reader
            .read_points(&mr.dfs().read_all_lines(left).unwrap())
            .0;
        let r = reader
            .read_geoms(&mr.dfs().read_all_lines(right).unwrap())
            .0;
        let join = JoinRequest::new(&l, &r, &PreparedEngine).predicate(pred);
        spatialjoin::normalize_pairs(join.run().pairs)
    }

    #[test]
    fn hadoopgis_matches_reference_within() {
        let mr = fixture();
        let run = hadoopgis_join(&mr, "/taxi", "/nycb", SpatialPredicate::Within, 16).unwrap();
        assert_eq!(
            spatialjoin::normalize_pairs(run.pairs.clone()),
            reference(&mr, "/taxi", "/nycb", SpatialPredicate::Within)
        );
        assert!(
            run.metrics.intermediate_bytes > 0,
            "text shuffle must be charged"
        );
        assert_eq!(run.strategy, "hadoopgis-reduce-side");
    }

    #[test]
    fn spatialhadoop_matches_reference_within() {
        let mr = fixture();
        let run = spatialhadoop_join(&mr, "/taxi", "/nycb", SpatialPredicate::Within, 16).unwrap();
        assert_eq!(
            spatialjoin::normalize_pairs(run.pairs.clone()),
            reference(&mr, "/taxi", "/nycb", SpatialPredicate::Within)
        );
        // The temporary cell files were cleaned up.
        assert!(mr.dfs().list().iter().all(|p| !p.contains("shjoin")));
        assert_eq!(run.strategy, "spatialhadoop-map-only");
    }

    #[test]
    fn both_strategies_match_on_nearestd() {
        let mr = fixture();
        let pred = SpatialPredicate::NearestD(400.0);
        let expected = reference(&mr, "/taxi", "/lion", pred);
        let gis = hadoopgis_join(&mr, "/taxi", "/lion", pred, 9).unwrap();
        let sh = spatialhadoop_join(&mr, "/taxi", "/lion", pred, 9).unwrap();
        assert_eq!(spatialjoin::normalize_pairs(gis.pairs.clone()), expected);
        assert_eq!(spatialjoin::normalize_pairs(sh.pairs.clone()), expected);
    }

    #[test]
    fn map_side_drops_and_counts_malformed_records() {
        std::thread::spawn(|| {
            let extent = geom::Envelope::new(0.0, 0.0, 10.0, 10.0);
            let partitioner = StrPartitioner::build(extent, &[], 1);
            let before = obs::thread_snapshot();
            let mut out = Vec::new();
            // A non-integer id is dropped at the map, not shipped
            // through the shuffle to be dropped by the reducer.
            route_record(&partitioner, 0.0, "x\tPOINT (1 2)", &mut out);
            assert!(out.is_empty());
            route_record(&partitioner, 0.0, "7\tPOINT (1 2)", &mut out);
            assert_eq!(out, vec![(0, "L\t7\tPOINT (1 2)".to_string())]);
            let delta = obs::thread_snapshot().minus(&before);
            assert_eq!((delta.records_parsed, delta.records_skipped), (1, 1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn hadoop_runtime_includes_disk_penalty() {
        let mr = fixture();
        let run = hadoopgis_join(&mr, "/taxi", "/nycb", SpatialPredicate::Within, 16).unwrap();
        let t10 = run.simulated_runtime(10);
        // Startup alone is 8 s; disk and shuffle add more.
        assert!(t10 > 8.0, "Hadoop runtime {t10} must carry its overheads");
    }
}
