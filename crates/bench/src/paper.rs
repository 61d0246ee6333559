//! The paper harness behind the `paper` binary: every number of §V
//! from one set of runs over one workload.
//!
//! Per experiment, SpatialSpark and ISP-MC each run once to warm up and
//! then [`REPS`] times, and every run must return the same normalized
//! pairs. Each run is replayed on every topology the paper reports:
//! the in-house 16-core machine (Table 1, with ISP-MC-standalone) and
//! 4/6/8/10 EC2 nodes (Figs. 4–5). Table 2's cells *are* the 10-node
//! points of Figs. 4–5. The §V.B refinement timing runs the three
//! engines over the workload's own taxi/nycb and gbif/wwf data.
//!
//! Every cell reports the median, min and max of its runs beside the
//! paper's value, and each shape the paper's numbers imply is one
//! pass/fail [`Shape`] on the medians, quoting those numbers.

use crate::{
    ispmc_runtime, run_ispmc, run_spark, scale_ispmc_metrics, spark_runtime, BenchError,
    Experiment, Replay, Spread, Workload, NODES, REPS,
};
use cluster::{ChaosConfig, ClusterSpec};
use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use rtree::RTree;
use spatialjoin::{normalize_pairs, RecordReader};
use std::fmt::Write as _;
use std::time::Instant;

/// Points per refinement sample (the paper's `taxi10k`/`gbif10k`).
pub const REFINE_SAMPLE: usize = 10_000;

/// One system's replayed runtimes (seconds, full scale).
#[derive(Debug, Clone, Copy)]
pub struct SystemRuns {
    /// The in-house 16-core machine (Table 1).
    pub single: Spread,
    /// EC2 clusters of [`NODES`] nodes (Figs. 4–5).
    pub nodes: [Spread; 4],
}

/// One experiment's runs, replayed on every topology.
#[derive(Debug, Clone)]
pub struct ExperimentRuns {
    pub experiment: Experiment,
    /// Result pairs of the reference (warm-up SpatialSpark) run.
    pub pairs: usize,
    /// Whether every run of both systems returned the reference pairs.
    pub pairs_agree: bool,
    pub spark: SystemRuns,
    pub ispmc: SystemRuns,
    /// ISP-MC-standalone on the 16-core machine (Table 1, column 3).
    pub standalone: Spread,
}

/// One reported number: ours beside the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// `table1`, `table2`, `fig4` or `fig5`.
    pub artifact: &'static str,
    /// `spark`, `ispmc` or `standalone`.
    pub system: &'static str,
    /// 1 for Table 1's single machine, else the EC2 node count.
    pub nodes: usize,
    pub ours: Spread,
    /// `None` where the paper plots the point without printing it.
    pub paper: Option<f64>,
}

/// The paper's printed values for one experiment.
struct PaperRow {
    /// SpatialSpark / ISP-MC / standalone on one node.
    table1: [f64; 3],
    /// SpatialSpark / ISP-MC on 10 nodes.
    table2: [f64; 2],
    /// ISP-MC at [`NODES`], where the text prints it.
    fig5: [Option<f64>; 4],
}

fn paper_row(exp: Experiment) -> PaperRow {
    let (table1, table2) = match exp {
        Experiment::TaxiNycb => ([682.0, 588.0, 507.0], [110.0, 758.0]),
        Experiment::TaxiLion100 => ([696.0, 1061.0, 983.0], [65.0, 307.0]),
        Experiment::TaxiLion500 => ([825.0, 5720.0, 4922.0], [249.0, 1785.0]),
        Experiment::G10mWwf => ([2445.0, 12736.0, 11634.0], [735.0, 7728.0]),
    };
    let fig5 = match exp {
        Experiment::G10mWwf => [None, None, Some(6357.0), Some(6257.0)],
        _ => [None; 4],
    };
    PaperRow {
        table1,
        table2,
        fig5,
    }
}

impl ExperimentRuns {
    /// Every cell of Tables 1–2 and Figs. 4–5 for this experiment.
    /// Table 2's cells are taken from the same 10-node runs as the
    /// figures' last points.
    pub fn cells(&self) -> Vec<Cell> {
        let p = paper_row(self.experiment);
        let cell = |artifact, system, nodes, ours, paper| Cell {
            artifact,
            system,
            nodes,
            ours,
            paper,
        };
        let mut cells = Vec::new();
        let table1 = [
            ("spark", self.spark.single),
            ("ispmc", self.ispmc.single),
            ("standalone", self.standalone),
        ];
        for ((system, ours), paper) in table1.into_iter().zip(p.table1) {
            cells.push(cell("table1", system, 1, ours, Some(paper)));
        }
        let table2 = [
            ("spark", self.spark.nodes[3]),
            ("ispmc", self.ispmc.nodes[3]),
        ];
        for ((system, ours), paper) in table2.into_iter().zip(p.table2) {
            cells.push(cell("table2", system, 10, ours, Some(paper)));
        }
        for (k, &n) in NODES.iter().enumerate() {
            cells.push(cell("fig4", "spark", n, self.spark.nodes[k], None));
            cells.push(cell("fig5", "ispmc", n, self.ispmc.nodes[k], p.fig5[k]));
        }
        cells
    }
}

/// Runs one experiment through both systems (one warm-up run each,
/// then [`REPS`] interleaved runs) and replays every run on the
/// 16-core machine and on each of [`NODES`] EC2 nodes.
///
/// # Errors
/// Propagates run failures (usually a missing dataset path).
pub fn run_experiment(
    w: &Workload,
    exp: Experiment,
    threads: usize,
    replay: &Replay,
) -> Result<ExperimentRuns, BenchError> {
    let single = ClusterSpec::single_node_highend();
    let ec2 = NODES.map(ClusterSpec::ec2_with_nodes);
    let chaos = ChaosConfig::disabled;

    // The warm-up runs pay first-touch page faults and allocator growth;
    // the SpatialSpark one is the reference output.
    let reference = normalize_pairs(run_spark(w, exp, threads, chaos())?.pairs);
    let mut agree = normalize_pairs(run_ispmc(w, exp, threads, chaos())?.result.pairs) == reference;

    // Per run: spark single + nodes, ispmc single + nodes, standalone.
    let mut samples: Vec<[f64; 11]> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut row = [0.0; 11];
        let spark = run_spark(w, exp, threads, chaos())?;
        row[0] = spark_runtime(&spark, replay, &single);
        for (k, spec) in ec2.iter().enumerate() {
            row[1 + k] = spark_runtime(&spark, replay, spec);
        }
        agree &= normalize_pairs(spark.pairs) == reference;

        let ispmc = run_ispmc(w, exp, threads, chaos())?;
        row[5] = ispmc_runtime(&ispmc, replay, &single);
        for (k, spec) in ec2.iter().enumerate() {
            row[6 + k] = ispmc_runtime(&ispmc, replay, spec);
        }
        row[10] =
            scale_ispmc_metrics(&ispmc.result.metrics, replay).simulate_standalone_on(&single);
        agree &= normalize_pairs(ispmc.result.pairs) == reference;
        samples.push(row);
    }
    let col = |c: usize| Spread::of(&samples.iter().map(|r| r[c]).collect::<Vec<_>>());
    Ok(ExperimentRuns {
        experiment: exp,
        pairs: reference.len(),
        pairs_agree: agree,
        spark: SystemRuns {
            single: col(0),
            nodes: [col(1), col(2), col(3), col(4)],
        },
        ispmc: SystemRuns {
            single: col(5),
            nodes: [col(6), col(7), col(8), col(9)],
        },
        standalone: col(10),
    })
}

/// The §V.B standalone refinement timing on one experiment's data.
#[derive(Debug, Clone)]
pub struct RefinementRow {
    pub experiment: Experiment,
    /// Left points in the sample (at most [`REFINE_SAMPLE`]).
    pub points: usize,
    /// Candidate pairs after envelope filtering.
    pub candidates: usize,
    /// Candidates every engine accepts.
    pub matches: usize,
    /// Seconds per pass over the candidates: JTS-like, GEOS-like and
    /// this reproduction's prepared engine (beyond the paper).
    pub flat: Spread,
    pub naive: Spread,
    pub prepared: Spread,
    /// Per-run naive over flat seconds.
    pub naive_over_flat: Spread,
}

impl RefinementRow {
    /// The paper's JTS-vs-GEOS factor for this sample.
    pub fn paper_ratio(&self) -> f64 {
        match self.experiment {
            Experiment::G10mWwf => 3.9,
            _ => 3.3,
        }
    }
}

/// One timed pass of `engine`'s `Within` over `cands`: (seconds, matches).
fn refine_pass<E: RefinementEngine>(
    engine: &E,
    prepared: &[E::Prepared],
    cands: &[(Point, u32)],
) -> (f64, usize) {
    let t0 = Instant::now();
    let matches = cands
        .iter()
        .filter(|&&(p, ri)| SpatialPredicate::Within.eval(engine, p, &prepared[ri as usize]))
        .count();
    (t0.elapsed().as_secs_f64(), matches)
}

/// Times `Within` refinement on the first [`REFINE_SAMPLE`] left points
/// of a `Within` experiment against its whole right side. One envelope
/// filter fixes the candidate stream; each engine prepares the right
/// side outside the timer (the paper times the operation, not library
/// setup), makes one warm-up pass, then [`REPS`] interleaved passes.
///
/// # Errors
/// Propagates DFS read failures; [`BenchError::Mismatch`] if the engines
/// disagree on a candidate.
pub fn time_refinement(w: &Workload, exp: Experiment) -> Result<RefinementRow, BenchError> {
    let reader = RecordReader::new(1);
    let mut left = Vec::with_capacity(REFINE_SAMPLE);
    'blocks: for block in w.dfs.blocks(exp.left_path())? {
        for line in block.lines() {
            if left.len() == REFINE_SAMPLE {
                break 'blocks;
            }
            if let Ok((_, p)) = reader.read_point(line) {
                left.push(p);
            }
        }
    }
    let right: Vec<geom::Geometry> = reader
        .read_geoms(&w.dfs.read_all_lines(exp.right_path())?)
        .0
        .into_iter()
        .map(|(_, g)| g)
        .collect();

    let entries: Vec<(Envelope, u32)> = right
        .iter()
        .enumerate()
        .map(|(i, g)| (g.envelope(), i as u32))
        .collect();
    let tree = RTree::bulk_load_entries(entries);
    let mut cands = Vec::new();
    for &p in &left {
        tree.for_each_within_distance(p, 0.0, |&ri| cands.push((p, ri)));
    }

    let flat: Vec<_> = right.iter().map(|g| FlatEngine.prepare(g)).collect();
    let naive: Vec<_> = right.iter().map(|g| NaiveEngine.prepare(g)).collect();
    let prepared: Vec<_> = right.iter().map(|g| PreparedEngine.prepare(g)).collect();
    let mut secs = [Vec::new(), Vec::new(), Vec::new()];
    let mut matches = None;
    for rep in 0..=REPS {
        let passes = [
            refine_pass(&FlatEngine, &flat, &cands),
            refine_pass(&NaiveEngine, &naive, &cands),
            refine_pass(&PreparedEngine, &prepared, &cands),
        ];
        for (k, &(s, m)) in passes.iter().enumerate() {
            if *matches.get_or_insert(m) != m {
                return Err(BenchError::Mismatch(format!(
                    "{}: refinement engines disagree ({m} vs {matches:?} matches)",
                    exp.label()
                )));
            }
            if rep > 0 {
                secs[k].push(s);
            }
        }
    }
    let ratios: Vec<f64> = secs[1].iter().zip(&secs[0]).map(|(n, f)| n / f).collect();
    Ok(RefinementRow {
        experiment: exp,
        points: left.len(),
        candidates: cands.len(),
        matches: matches.unwrap_or(0),
        flat: Spread::of(&secs[0]),
        naive: Spread::of(&secs[1]),
        prepared: Spread::of(&secs[2]),
        naive_over_flat: Spread::of(&ratios),
    })
}

/// One shape the paper's numbers imply, checked on our medians.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub name: &'static str,
    pub claim: &'static str,
    /// The paper's numbers the claim comes from.
    pub paper: &'static str,
    pub holds: bool,
}

/// Evaluates every shape predicate on the medians of `exps` (one per
/// experiment, in [`Experiment::all`] order) and `refine` (the taxi-nycb
/// and G10M-wwf samples, in that order). Empty for any other shape of
/// input.
pub fn shapes(exps: &[ExperimentRuns], refine: &[RefinementRow]) -> Vec<Shape> {
    let ([nycb, l100, l500, wwf], [r_nycb, r_wwf]) = (exps, refine) else {
        return Vec::new();
    };
    let all = [nycb, l100, l500, wwf];
    let spark1 = |e: &ExperimentRuns| e.spark.single.median;
    let ispmc1 = |e: &ExperimentRuns| e.ispmc.single.median;
    let gap1 = |e| ispmc1(e) / spark1(e);
    // t(8 nodes) / t(10 nodes) on an ISP-MC curve: 1 is flat.
    let step_8_10 = |e: &ExperimentRuns| e.ispmc.nodes[2].median / e.ispmc.nodes[3].median;
    let ratio = |r: &RefinementRow| r.naive_over_flat.median;
    vec![
        Shape {
            name: "t1_standalone_below_ispmc",
            claim: "Table 1: ISP-MC-standalone < ISP-MC on all four joins",
            paper: "507 < 588, 983 < 1061, 4922 < 5720, 11634 < 12736",
            holds: all.iter().all(|e| e.standalone.median < ispmc1(e)),
        },
        Shape {
            name: "t1_infra_overhead_7_14pct",
            claim: "Table 1: ISP-MC's engine overhead (ISP-MC - standalone) / ISP-MC is \
                    7-14% on all four joins",
            paper: "(588-507)/588 = 13.8%, 7.4%, 14.0%, 8.7%",
            holds: all.iter().all(|e| {
                let o = (ispmc1(e) - e.standalone.median) / ispmc1(e);
                (0.07..=0.14).contains(&o)
            }),
        },
        Shape {
            name: "t1_ispmc_wins_nycb",
            claim: "Table 1: ISP-MC < SpatialSpark on taxi-nycb",
            paper: "588 < 682",
            holds: ispmc1(nycb) < spark1(nycb),
        },
        Shape {
            name: "t1_spark_wins_refinement_heavy",
            claim: "Table 1: SpatialSpark < ISP-MC on taxi-lion-100, taxi-lion-500 and G10M-wwf",
            paper: "696 < 1061, 825 < 5720, 2445 < 12736",
            holds: [l100, l500, wwf].iter().all(|e| spark1(e) < ispmc1(e)),
        },
        Shape {
            name: "t1_gap_largest_lion500_wwf",
            claim: "Table 1: ISP-MC / SpatialSpark is larger on taxi-lion-500 and G10M-wwf \
                    than on taxi-nycb and taxi-lion-100",
            paper: "6.9x and 5.2x vs 0.86x and 1.52x",
            holds: gap1(l500).min(gap1(wwf)) > gap1(nycb).max(gap1(l100)),
        },
        Shape {
            name: "t1_ispmc_grows_with_radius",
            claim: "Table 1: from D = 100 ft to 500 ft, ISP-MC grows by a larger factor \
                    than SpatialSpark",
            paper: "ISP-MC 1061 -> 5720 (5.4x), SpatialSpark 696 -> 825 (1.19x)",
            holds: ispmc1(l500) / ispmc1(l100) > spark1(l500) / spark1(l100),
        },
        Shape {
            name: "t2_spark_wins",
            claim: "Table 2: SpatialSpark < ISP-MC on all four joins at 10 nodes",
            paper: "110 < 758, 65 < 307, 249 < 1785, 735 < 7728",
            holds: all
                .iter()
                .all(|e| e.spark.nodes[3].median < e.ispmc.nodes[3].median),
        },
        Shape {
            name: "fig4_sublinear_speedup",
            claim: "Fig. 4: SpatialSpark's 4 -> 10 node speedup is above 1 and below the \
                    linear 2.5 on all four joins",
            paper: "speedups 1.97x-2.06x for 2.5x the nodes",
            holds: all.iter().all(|e| {
                let s = e.spark.nodes[0].median / e.spark.nodes[3].median;
                s > 1.0 && s < 2.5
            }),
        },
        Shape {
            name: "fig5_wwf_flattest_8_10",
            claim: "Fig. 5: G10M-wwf's 8 -> 10 node step is the flattest of the four \
                    ISP-MC curves",
            paper: "G10M-wwf 6357 -> 6257 s",
            holds: [nycb, l100, l500]
                .iter()
                .all(|e| step_8_10(wwf) < step_8_10(e)),
        },
        Shape {
            name: "refine_naive_slower",
            claim: "§V.B: GEOS-like / JTS-like refinement time > 1 on both samples, and \
                    G10M-wwf's >= taxi-nycb's",
            paper: "3.3x (taxi10k-nycb), 3.9x (gbif10k-wwf)",
            holds: ratio(r_nycb) > 1.0 && ratio(r_wwf) >= ratio(r_nycb),
        },
    ]
}

fn spread_json(s: &Spread) -> String {
    format!(
        "\"median\": {:.6}, \"min\": {:.6}, \"max\": {:.6}, \"runs\": {}",
        s.median, s.min, s.max, s.runs
    )
}

fn paper_json(paper: Option<f64>) -> String {
    paper.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Serialises the harness results as `results/BENCH_paper.json`
/// (hand-rolled JSON, matching the other bench artifacts) and returns
/// the path written.
pub fn write_paper_json(
    replay: &Replay,
    threads: usize,
    exps: &[ExperimentRuns],
    refine: &[RefinementRow],
    shapes: &[Shape],
) -> std::io::Result<&'static str> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"paper\",");
    let _ = writeln!(json, "  \"scale\": {},", replay.scale);
    let _ = writeln!(json, "  \"calibration\": {},", replay.calibration);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"note\": \"cells: replayed full-scale seconds (a model, not a measurement) over \
         {REPS} runs after one warm-up; table2 cells are the fig4/fig5 10-node points; paper is \
         null where the paper plots a point without printing it; shapes are checked on medians\","
    );
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, e) in exps.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"experiment\": \"{}\",", e.experiment.label());
        let _ = writeln!(json, "      \"pairs\": {},", e.pairs);
        let _ = writeln!(json, "      \"pairs_agree\": {},", e.pairs_agree);
        let _ = writeln!(json, "      \"cells\": [");
        let cells = e.cells();
        for (j, c) in cells.iter().enumerate() {
            let comma = if j + 1 == cells.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "        {{\"artifact\": \"{}\", \"system\": \"{}\", \"nodes\": {}, {}, \
                 \"paper\": {}}}{comma}",
                c.artifact,
                c.system,
                c.nodes,
                spread_json(&c.ours),
                paper_json(c.paper),
            );
        }
        let _ = writeln!(json, "      ]");
        let comma = if i + 1 == exps.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"refinement\": [");
    for (i, r) in refine.iter().enumerate() {
        let comma = if i + 1 == refine.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"experiment\": \"{}\", \"points\": {}, \"candidates\": {}, \"matches\": {}, \
             \"flat_s\": {{{}}}, \"naive_s\": {{{}}}, \"prepared_s\": {{{}}}, \
             \"naive_over_flat\": {{{}, \"paper\": {}}}}}{comma}",
            r.experiment.label(),
            r.points,
            r.candidates,
            r.matches,
            spread_json(&r.flat),
            spread_json(&r.naive),
            spread_json(&r.prepared),
            spread_json(&r.naive_over_flat),
            r.paper_ratio(),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"shapes\": [");
    for (i, s) in shapes.iter().enumerate() {
        let comma = if i + 1 == shapes.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"claim\": \"{}\", \"paper\": \"{}\", \"holds\": {}}}{comma}",
            s.name, s.claim, s.paper, s.holds
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_paper.json"
    );
    std::fs::write(path, &json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_spread(v: f64) -> Spread {
        Spread::of(&[v; REPS])
    }

    /// Runs whose medians are the paper's printed values, with figure
    /// curves shaped as the paper describes them.
    fn paper_like() -> (Vec<ExperimentRuns>, Vec<RefinementRow>) {
        let exps = Experiment::all()
            .into_iter()
            .map(|e| {
                let p = paper_row(e);
                let spark = [2.0, 1.5, 1.2, 1.0].map(|f| flat_spread(p.table2[0] * f));
                let ispmc = match e {
                    Experiment::G10mWwf => [9000.0, 7000.0, 6357.0, 6257.0].map(flat_spread),
                    _ => [2.5, 1.7, 1.25, 1.0].map(|f| flat_spread(p.table2[1] * f)),
                };
                ExperimentRuns {
                    experiment: e,
                    pairs: 1,
                    pairs_agree: true,
                    spark: SystemRuns {
                        single: flat_spread(p.table1[0]),
                        nodes: spark,
                    },
                    ispmc: SystemRuns {
                        single: flat_spread(p.table1[1]),
                        nodes: ispmc,
                    },
                    standalone: flat_spread(p.table1[2]),
                }
            })
            .collect();
        let refine = [(Experiment::TaxiNycb, 3.3), (Experiment::G10mWwf, 3.9)]
            .map(|(e, r)| RefinementRow {
                experiment: e,
                points: 1,
                candidates: 1,
                matches: 1,
                flat: flat_spread(1.0),
                naive: flat_spread(r),
                prepared: flat_spread(0.5),
                naive_over_flat: flat_spread(r),
            })
            .to_vec();
        (exps, refine)
    }

    fn holds(exps: &[ExperimentRuns], refine: &[RefinementRow], name: &str) -> bool {
        shapes(exps, refine)
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no shape {name}"))
            .holds
    }

    #[test]
    fn spread_is_median_min_max_of_five_runs() {
        let s = Spread::of(&[3.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!(
            s,
            Spread {
                median: 3.0,
                min: 1.0,
                max: 5.0,
                runs: 5
            }
        );
        let one = Spread::of(&[7.5]);
        assert_eq!((one.median, one.min, one.max, one.runs), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn every_shape_holds_on_the_papers_numbers_and_fails_when_broken() {
        let (exps, refine) = paper_like();
        for s in shapes(&exps, &refine) {
            assert!(s.holds, "{} fails on the paper's own numbers", s.name);
        }
        // Indices follow `Experiment::all()`: nycb, lion-100, lion-500, wwf.
        type Break = fn(&mut [ExperimentRuns], &mut [RefinementRow]);
        let breaks: [(&str, Break); 10] = [
            ("t1_standalone_below_ispmc", |x, _| {
                x[3].standalone = flat_spread(13000.0)
            }),
            ("t1_infra_overhead_7_14pct", |x, _| {
                x[0].standalone = flat_spread(400.0)
            }),
            ("t1_ispmc_wins_nycb", |x, _| {
                x[0].ispmc.single = flat_spread(700.0)
            }),
            ("t1_spark_wins_refinement_heavy", |x, _| {
                x[1].spark.single = flat_spread(1100.0)
            }),
            ("t1_gap_largest_lion500_wwf", |x, _| {
                x[3].spark.single = flat_spread(10000.0)
            }),
            ("t1_ispmc_grows_with_radius", |x, _| {
                x[2].spark.single = flat_spread(5000.0)
            }),
            ("t2_spark_wins", |x, _| {
                x[1].spark.nodes[3] = flat_spread(400.0)
            }),
            ("fig4_sublinear_speedup", |x, _| {
                x[0].spark.nodes[0] = flat_spread(300.0)
            }),
            ("fig5_wwf_flattest_8_10", |x, _| {
                x[3].ispmc.nodes[2] = flat_spread(9000.0)
            }),
            ("refine_naive_slower", |_, r| {
                r[1].naive_over_flat = flat_spread(2.0)
            }),
        ];
        assert_eq!(breaks.len(), shapes(&exps, &refine).len());
        for (name, break_it) in breaks {
            let (mut x, mut r) = paper_like();
            break_it(&mut x, &mut r);
            assert!(!holds(&x, &r, name), "{name} still holds after breaking it");
        }
    }

    #[test]
    fn tiny_paper_experiment_end_to_end() {
        let w = crate::build_workload(0.00005, 0.01, 7).expect("workload");
        let replay = Replay::new(0.00005);
        let runs = run_experiment(&w, Experiment::TaxiNycb, 2, &replay).expect("runs");
        assert!(runs.pairs_agree, "SpatialSpark and ISP-MC disagree");
        assert!(runs.pairs > 0);
        let cells = runs.cells();
        let find = |artifact: &str, system: &str, nodes: usize| {
            cells
                .iter()
                .find(|c| c.artifact == artifact && c.system == system && c.nodes == nodes)
                .unwrap_or_else(|| panic!("no {artifact}/{system}/{nodes} cell"))
                .ours
        };
        assert_eq!(find("table2", "spark", 10), find("fig4", "spark", 10));
        assert_eq!(find("table2", "ispmc", 10), find("fig5", "ispmc", 10));
        for c in &cells {
            assert_eq!(c.ours.runs, REPS, "{c:?}");
            assert!(
                c.ours.min <= c.ours.median && c.ours.median <= c.ours.max,
                "{c:?}"
            );
            assert!(c.ours.min > 0.0, "{c:?}");
        }
        assert!(cells
            .iter()
            .filter(|c| c.artifact.starts_with("table"))
            .all(|c| c.paper.is_some()));
    }

    #[test]
    fn tiny_refinement_timing_agrees_across_engines() {
        let w = crate::build_workload(0.00005, 0.01, 7).expect("workload");
        let row = time_refinement(&w, Experiment::G10mWwf).expect("timing");
        assert!(row.points > 0 && row.points <= REFINE_SAMPLE);
        assert!(row.candidates >= row.matches);
        assert_eq!(row.naive_over_flat.runs, REPS);
        assert_eq!(row.flat.runs, REPS);
    }
}
