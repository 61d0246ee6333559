//! Sample collection, medians and the printed result.

/// Named samples in first-seen order; each metric keeps its unit.
#[derive(Default)]
pub struct Samples {
    rows: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => row.2.push(value),
            None => self.rows.push((name, unit, vec![value])),
        }
    }

    /// Every metric's median over its samples.
    pub fn medians(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.rows
            .iter()
            .map(|(name, unit, v)| (*name, *unit, median(v)))
            .collect()
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Pass/fail counts of the path runs and cross-checks of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what}: {e}");
                false
            }
        }
    }
}

/// Prints each metric on its own line, then the result object as the
/// last line of standard output.
pub fn print(metrics: &[(&str, &str, f64)], tally: &Tally) {
    for (name, unit, value) in metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
