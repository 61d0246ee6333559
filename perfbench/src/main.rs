//! perfbench — the repository's end-to-end spatial-join benchmark.
//!
//! One workload (two generated datasets in a fresh `MiniDfs`) runs
//! through the three query paths a user has: `direct` (DFS read, parse
//! and a `JoinRequest` on `PreparedEngine`), `spark` (SpatialSpark,
//! `FlatEngine`) and `ispmc` (ISP-MC through SQL, `NaiveEngine`). A
//! correctness gate runs first; then the paths run round-robin for
//! `--seconds`; each time reports its median over the rounds, except
//! per-query CPU, which reports its mean.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it times each layer from outside instead (see `trace.rs`). The last
//! line of standard output is the result object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--size bench|tiny] [--git-sha <sha>]`

mod paths;
mod proc;
mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use minihdfs::MiniDfs;

use crate::paths::PATHS;
use crate::report::{Samples, Tally};
use crate::workload::{Size, Spec};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds every run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    git_sha: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        size: Size::Bench,
        git_sha: "unknown".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => args.size = Size::parse(value).ok_or_else(bad)?,
            "--git-sha" => args.git_sha = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "context {{\"workload\": \"{}\", \"size\": \"{}\", \"seed\": {}, \"git_sha\": \"{}\", \
         \"machine_cores\": {threads}, \"threads\": {threads}, \"left_rows\": {}, \
         \"right_rows\": {}, \"predicate\": \"{:?}\", \"trace\": {}}}",
        spec.name,
        spec.size.name(),
        args.seed,
        args.git_sha,
        spec.left_rows,
        spec.right_rows,
        spec.predicate,
        args.trace
    );

    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut dfs: Option<MiniDfs> = None;
    for _ in 0..reps {
        drop(dfs.take());
        let t0 = Instant::now();
        match spec.setup(args.seed) {
            Ok(d) => dfs = Some(d),
            Err(e) => {
                eprintln!("perfbench: setup: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !args.trace {
            samples.push("setup_s", "s", t0.elapsed().as_secs_f64());
        }
    }
    let Some(dfs) = dfs else {
        return ExitCode::FAILURE;
    };

    let gate = paths::gate(&dfs, &spec, args.seed, threads);
    let reference = match gate {
        Ok(d) => d,
        Err(e) => {
            tally.record("correctness gate", Err(e));
            report::print(&[], &tally);
            return ExitCode::FAILURE;
        }
    };
    tally.record("correctness gate", Ok(()));
    println!("gate: three paths agree on {} pairs", reference.count);

    // Per-query CPU is averaged rather than a median: the /proc tick
    // counter's 10 ms resolution is too coarse for a per-query median.
    let mut cpu_total = [0.0f64; PATHS.len()];
    let mut cpu_runs = [0u32; PATHS.len()];
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        if args.trace {
            if let Err(e) = trace::round(&dfs, &spec, threads, reference, &mut samples, &mut tally)
            {
                tally.record("traced round", Err(e));
                break;
            }
            continue;
        }
        for (i, path) in PATHS.into_iter().enumerate() {
            let t = paths::run(path, &dfs, &spec, threads);
            if tally.record(path.name(), t.check(reference)) {
                samples.push(path.metric_names().0, "s", t.wall_s);
                cpu_total[i] += t.cpu_s;
                cpu_runs[i] += 1;
            }
        }
    }

    let mut metrics = samples.medians();
    if args.trace {
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
        let (traced, untraced) = (get("bench.direct_traced_s"), get("bench.direct_untraced_s"));
        let overhead = (traced - untraced) / untraced.max(f64::MIN_POSITIVE);
        metrics.push(("bench.trace_overhead_frac", "ratio", overhead));
        metrics.push(("bench.rounds", "count", rounds as f64));
    } else {
        for (i, path) in PATHS.into_iter().enumerate() {
            if cpu_runs[i] > 0 {
                let mean = cpu_total[i] / f64::from(cpu_runs[i]);
                metrics.push((path.metric_names().1, "s", mean));
            }
        }
        metrics.push(("peak_rss_mb", "MiB", proc::peak_rss_mib()));
        let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        // A failure rate is 0 on every good run, so it is printed here
        // and carried by `attempted`/`failed`, not as a metric.
        println!("{:<28} {failed_frac:>16.6} ratio", "failed_frac");
    }
    println!("rounds: {rounds}, median over them");
    report::print(&metrics, &tally);
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
