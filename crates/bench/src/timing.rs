//! In-tree wall-clock timing harness — the `[[bench]]` targets run on
//! this instead of an external benchmark framework, so `cargo bench`
//! works offline.
//!
//! The measurement loop is the standard calibrate-then-sample design:
//! each benchmark first doubles its iteration count until one batch
//! takes at least [`CALIBRATION_FLOOR`], scales that count to the
//! [`TARGET_SAMPLE`] batch duration, then times [`SAMPLES`] batches
//! and reports the minimum, median and mean per-iteration time. The
//! minimum is the headline number: wall-clock noise is strictly
//! additive, so the fastest batch is the best estimate of the true
//! cost.
//!
//! Benchmarks accept a single positional CLI argument as a substring
//! filter (`cargo bench --bench refinement -- prepared`); flag arguments the
//! harness does not know (e.g. the `--bench` cargo passes) are
//! ignored.

use std::time::{Duration, Instant};

/// One batch must take at least this long before calibration trusts it.
const CALIBRATION_FLOOR: Duration = Duration::from_millis(5);
/// Target duration of a single measured batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(40);
/// Batches measured per benchmark.
const SAMPLES: usize = 7;

/// Top-level driver owning the CLI filter; create one in `main` and
/// pass it to every bench function.
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Builds a harness from the process arguments: the first
    /// non-flag argument becomes a substring filter on benchmark
    /// names.
    pub fn from_args() -> Harness {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness { filter }
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n{name}");
        Group {
            harness: self,
            name,
        }
    }

    fn matches(&self, full_name: &str) -> bool {
        match &self.filter {
            Some(f) => full_name.contains(f.as_str()),
            None => true,
        }
    }
}

/// A group of benchmarks sharing a name prefix, mirroring the
/// group-oriented layout the bench files were written in.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
}

impl Group<'_> {
    /// Measures one closure. The closure receives a [`Bencher`] and
    /// must call [`Bencher::iter`] exactly once per invocation.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{id}", self.name);
        if !self.harness.matches(&full) {
            return;
        }
        let stats = drive(SAMPLES, &mut f);
        println!("  {id:<28} {stats}");
    }

    /// Ends the group (printing is incremental, so this is a no-op
    /// kept for call-site symmetry).
    pub fn finish(self) {}
}

/// A benchmark's name within its group: `BenchId::from_parameter("wkt")`
/// renders as `wkt`, and the group prefixes it (`group/wkt`).
pub struct BenchId(String);

impl BenchId {
    pub fn from_parameter(param: impl std::fmt::Display) -> BenchId {
        BenchId(param.to_string())
    }
}

impl std::fmt::Display for BenchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so `{id:<28}` column alignment works.
        f.pad(&self.0)
    }
}

/// Runs one timed batch per call to [`Bencher::iter`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`, black-boxing each result so the
    /// optimiser cannot delete the work.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Per-benchmark result over all measured batches.
struct Stats {
    iters: u64,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:>10}  median {:>10}  mean {:>10}  ({} iters/batch)",
            fmt_ns(self.min_ns),
            fmt_ns(self.median_ns),
            fmt_ns(self.mean_ns),
            self.iters,
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Calibrates the per-batch iteration count, then measures `samples`
/// batches of `f`.
fn drive<F: FnMut(&mut Bencher)>(samples: usize, f: &mut F) -> Stats {
    // Calibration: double until a batch crosses the floor.
    let mut iters = 1u64;
    let per_iter_ns = loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= CALIBRATION_FLOOR {
            break b.elapsed.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(2);
    };
    let iters = ((TARGET_SAMPLE.as_nanos() as f64 / per_iter_ns).round() as u64).max(1);

    let mut per_iter: Vec<f64> = (0..samples.max(2))
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    Stats {
        iters,
        min_ns: per_iter[0],
        median_ns: per_iter[per_iter.len() / 2],
        mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_id_renders_like_paths() {
        assert_eq!(BenchId::from_parameter("grid").to_string(), "grid");
    }

    #[test]
    fn drive_produces_ordered_stats() {
        let mut work = |b: &mut Bencher| {
            b.iter(|| (0..100u64).sum::<u64>());
        };
        let stats = drive(3, &mut work);
        assert!(stats.iters >= 1);
        assert!(stats.min_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns);
    }

    #[test]
    fn formatting_scales_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with(" s"));
    }

    #[test]
    fn filter_matches_substrings() {
        let all = Harness { filter: None };
        assert!(all.matches("group/anything"));
        let some = Harness {
            filter: Some("grid".to_string()),
        };
        assert!(some.matches("index-query/grid"));
        assert!(!some.matches("index-query/str"));
    }
}
