//! The paper's evaluation (§V) from one run: Tables 1–2, Figs. 4–5 and
//! the §V.B JTS-vs-GEOS refinement timing.
//!
//! The workload is built once. Per experiment, SpatialSpark and ISP-MC
//! run once to warm up and then five times each, must agree on their
//! pairs, and every run is replayed on the 16-core machine (Table 1)
//! and on 4/6/8/10 EC2 nodes (Figs. 4–5; the 10-node points are Table
//! 2). Writes `results/BENCH_paper.json`: cells with spread beside the
//! paper's values, pass/fail shape predicates, and each system's
//! warm-up run as an observability tree.
//!
//! Usage: `cargo run --release -p bench --bin paper -- [--scale f]
//! [--threads n] [--calibration f] [--right-scale f]`

use bench::paper::{
    run_experiment, shapes, time_refinement, write_paper_json, ExperimentRuns, REFINE_SAMPLE,
};
use bench::{build_workload, parse_bench_args, BenchError, Experiment, Spread, NODES, REPS};
use std::time::Instant;

/// `median [min-max]`, rounded to whole seconds.
fn secs(s: &Spread) -> String {
    format!("{:.0} [{:.0}-{:.0}]", s.median, s.min, s.max)
}

fn print_tables(exps: &[ExperimentRuns]) {
    println!("Table 1: single node (16 cores), s: median [min-max] of {REPS} runs");
    println!(
        "{:<15}{:>22}{:>22}{:>22}",
        "", "SpatialSpark", "ISP-MC", "Standalone ISP-MC"
    );
    for e in exps {
        println!(
            "{:<15}{:>22}{:>22}{:>22}",
            e.experiment.label(),
            secs(&e.spark.single),
            secs(&e.ispmc.single),
            secs(&e.standalone)
        );
    }
    println!("(paper: taxi-nycb 682/588/507, taxi-lion-100 696/1061/983,");
    println!("        taxi-lion-500 825/5720/4922, G10M-wwf 2445/12736/11634)");

    println!("\nTable 2: 10 EC2 nodes (the 10-node points of Figs. 4-5), s");
    println!("{:<15}{:>22}{:>22}", "", "SpatialSpark", "ISP-MC");
    for e in exps {
        println!(
            "{:<15}{:>22}{:>22}",
            e.experiment.label(),
            secs(&e.spark.nodes[3]),
            secs(&e.ispmc.nodes[3])
        );
    }
    println!("(paper: taxi-nycb 110/758, taxi-lion-100 65/307,");
    println!("        taxi-lion-500 249/1785, G10M-wwf 735/7728)");

    for (title, spark) in [("Fig 4: SpatialSpark", true), ("Fig 5: ISP-MC", false)] {
        println!("\n{title}, median runtime (s) vs # of EC2 nodes");
        print!("{:<15}", "");
        for n in NODES {
            print!("{n:>8}");
        }
        println!("{:>10}{:>8}", "4->10", "8->10");
        for e in exps {
            let curve = if spark { &e.spark } else { &e.ispmc };
            print!("{:<15}", e.experiment.label());
            for p in &curve.nodes {
                print!("{:>8.0}", p.median);
            }
            let t = curve.nodes.map(|p| p.median);
            println!("{:>9.2}x{:>7.2}x", t[0] / t[3], t[2] / t[3]);
        }
    }
    println!("(paper: Fig. 4 speedups 1.97x-2.06x for 4->10 nodes;");
    println!("        Fig. 5 G10M-wwf 6357 -> 6257 s for 8->10 nodes)");
}

fn main() -> Result<(), BenchError> {
    let t0 = Instant::now();
    let args = parse_bench_args()?;
    let (replay, threads) = (args.replay, args.threads);
    eprintln!(
        "# generating workload at scale {} (right side {}) ...",
        replay.scale, args.right_scale
    );
    let w = build_workload(replay.scale, args.right_scale, 42)?;

    let mut exps = Vec::new();
    for exp in Experiment::all() {
        eprintln!("# running {} ...", exp.label());
        exps.push(run_experiment(&w, exp, threads, &replay)?);
    }
    let mut refine = Vec::new();
    for exp in [Experiment::TaxiNycb, Experiment::G10mWwf] {
        eprintln!("# timing refinement on {} ...", exp.label());
        refine.push(time_refinement(&w, exp)?);
    }

    print_tables(&exps);
    println!("\n§V.B standalone Within refinement, first {REFINE_SAMPLE} points, s per pass");
    println!(
        "{:<15}{:>10}{:>12}{:>12}{:>12}{:>18}",
        "sample", "cands", "jts-like", "geos-like", "prepared", "geos/jts"
    );
    for r in &refine {
        println!(
            "{:<15}{:>10}{:>12.4}{:>12.4}{:>12.4}{:>8.2}x [{:.2}-{:.2}]",
            r.experiment.label(),
            r.candidates,
            r.flat.median,
            r.naive.median,
            r.prepared.median,
            r.naive_over_flat.median,
            r.naive_over_flat.min,
            r.naive_over_flat.max
        );
    }
    println!("(paper: JTS 3.3x faster on taxi10k-nycb, 3.9x on gbif10k-wwf)");

    let shapes = shapes(&exps, &refine);
    println!("\nShapes the paper's numbers imply (on medians):");
    for s in &shapes {
        let verdict = if s.holds { "PASS" } else { "FAIL" };
        println!(
            "  {verdict} {:<32} {} (paper: {})",
            s.name, s.claim, s.paper
        );
    }

    let io = |what: &'static str| {
        move |e: std::io::Error| BenchError::Usage(format!("writing {what}: {e}"))
    };
    let path = write_paper_json(&replay, threads, &exps, &refine, &shapes).map_err(io("paper"))?;
    println!("wrote {}", path.display());
    eprintln!("# wall time {:.1} s", t0.elapsed().as_secs_f64());

    match exps.iter().find(|e| !e.pairs_agree) {
        Some(e) => Err(BenchError::Mismatch(format!(
            "{}: SpatialSpark and ISP-MC returned different pairs",
            e.experiment.label()
        ))),
        None => Ok(()),
    }
}
