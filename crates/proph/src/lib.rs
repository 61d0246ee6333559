//! # proph — a small property-testing harness
//!
//! An in-tree replacement for the subset of `proptest` this workspace
//! used: random generation of structured values, a fixed case budget
//! per property, and shrink-on-failure.
//!
//! The design is choice-stream based (the approach of Hypothesis):
//! every generator draws `u64`s from a [`Data`] source. During normal
//! generation the draws come from a seeded PRNG and are *recorded*;
//! when a property fails, the recorded stream is mutated — values
//! zeroed, halved, decremented, the tail truncated — and replayed
//! through the same generator. Any mutated stream still decodes to a
//! *valid* value of the right type (draws past the end read as zero),
//! so shrinking needs no type-specific code and works through
//! [`GenExt::map`], [`vec_of`] and tuple composition automatically.
//! Zero is always the "smallest" choice, so generators are written so
//! that small draws decode to simple values (short vectors, range
//! minimums).
//!
//! ```
//! use proph::{check, f64_range, vec_of, GenExt};
//!
//! let small = vec_of(f64_range(0.0, 10.0), 0, 8);
//! check("sums are bounded", &small, |v| {
//!     assert!(v.iter().sum::<f64>() <= 10.0 * v.len() as f64);
//! });
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------
// choice stream
// ---------------------------------------------------------------------

/// The source of randomness generators draw from: either a live PRNG
/// (recording every draw) or a replayed, possibly mutated stream.
pub struct Data {
    /// Replay buffer; draws beyond its end read as 0.
    stream: Vec<u64>,
    pos: usize,
    /// Live PRNG state; `None` when replaying a shrunk candidate.
    rng: Option<SplitMix>,
}

struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Data {
    fn fresh(seed: u64) -> Data {
        Data {
            stream: Vec::new(),
            pos: 0,
            rng: Some(SplitMix { state: seed }),
        }
    }

    fn replay(stream: Vec<u64>) -> Data {
        Data {
            stream,
            pos: 0,
            rng: None,
        }
    }

    /// Draws the next choice.
    pub fn draw_u64(&mut self) -> u64 {
        if self.pos < self.stream.len() {
            let v = self.stream[self.pos];
            self.pos += 1;
            return v;
        }
        match &mut self.rng {
            Some(rng) => {
                let v = rng.next();
                self.stream.push(v);
                self.pos += 1;
                v
            }
            // Replaying past the end of a truncated stream: the
            // smallest choice.
            None => 0,
        }
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn draw_unit_f64(&mut self) -> f64 {
        (self.draw_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a `u64` in `[0, bound)`; `bound` 0 gives 0.
    pub fn draw_bounded(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.draw_u64() % bound
    }
}

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

/// A generator of values of one type from a choice stream.
pub trait Gen {
    type Value;

    fn generate(&self, d: &mut Data) -> Self::Value;
}

/// Combinators available on every generator.
pub trait GenExt: Gen + Sized {
    /// Applies a pure function to generated values. Shrinking happens
    /// on the underlying choices, so mapped values shrink too.
    fn map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }
}

impl<G: Gen + Sized> GenExt for G {}

/// See [`GenExt::map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, T, F: Fn(G::Value) -> T> Gen for Map<G, F> {
    type Value = T;

    fn generate(&self, d: &mut Data) -> T {
        (self.f)(self.inner.generate(d))
    }
}

/// Uniform `f64` in `[lo, hi)`. The zero choice decodes to `lo`.
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    F64Range { lo, hi }
}

pub struct F64Range {
    lo: f64,
    hi: f64,
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, d: &mut Data) -> f64 {
        let v = self.lo + d.draw_unit_f64() * (self.hi - self.lo);
        v.min(self.hi - (self.hi - self.lo) * f64::EPSILON)
    }
}

/// Uniform `usize` in `[lo, hi)` (half-open, like `lo..hi`).
pub fn usize_range(lo: usize, hi: usize) -> UsizeRange {
    UsizeRange { lo, hi }
}

pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

impl Gen for UsizeRange {
    type Value = usize;

    fn generate(&self, d: &mut Data) -> usize {
        if self.hi <= self.lo {
            return self.lo;
        }
        self.lo + d.draw_bounded((self.hi - self.lo) as u64) as usize
    }
}

/// Uniform `i64` in `[lo, hi)`.
pub fn i64_range(lo: i64, hi: i64) -> I64Range {
    I64Range { lo, hi }
}

pub struct I64Range {
    lo: i64,
    hi: i64,
}

impl Gen for I64Range {
    type Value = i64;

    fn generate(&self, d: &mut Data) -> i64 {
        if self.hi <= self.lo {
            return self.lo;
        }
        self.lo + d.draw_bounded((self.hi - self.lo) as u64) as i64
    }
}

/// A vector of `min..=max` values from `inner`. Short vectors decode
/// from small choices, so shrinking shortens the vector first.
pub fn vec_of<G: Gen>(inner: G, min: usize, max: usize) -> VecOf<G> {
    VecOf { inner, min, max }
}

pub struct VecOf<G> {
    inner: G,
    min: usize,
    max: usize,
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, d: &mut Data) -> Vec<G::Value> {
        let span = (self.max - self.min) as u64 + 1;
        let len = self.min + d.draw_bounded(span) as usize;
        (0..len).map(|_| self.inner.generate(d)).collect()
    }
}

macro_rules! impl_gen_tuple {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, d: &mut Data) -> Self::Value {
                ($(self.$idx.generate(d),)+)
            }
        }
    };
}

impl_gen_tuple!(A: 0, B: 1);
impl_gen_tuple!(A: 0, B: 1, C: 2);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// ---------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases per property.
    pub cases: u32,
    /// Base seed; case `i` runs with `seed + i`.
    pub seed: u64,
    /// Maximum shrink candidates tried after a failure.
    pub max_shrink: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: 128,
            seed: 0x5EED_CAFE,
            max_shrink: 400,
        }
    }
}

/// Runs `prop` against `cases` random values from `gen` with the
/// default configuration, shrinking on failure. The property signals
/// failure by panicking (use `assert!`).
///
/// # Panics
/// Panics with the minimal failing value when the property fails.
pub fn check<G, P>(name: &str, gen: &G, prop: P)
where
    G: Gen,
    G::Value: std::fmt::Debug,
    P: Fn(G::Value),
{
    check_with(Config::default(), name, gen, prop);
}

/// [`check`] with an explicit configuration.
pub fn check_with<G, P>(cfg: Config, name: &str, gen: &G, prop: P)
where
    G: Gen,
    G::Value: std::fmt::Debug,
    P: Fn(G::Value),
{
    for case in 0..cfg.cases {
        let mut data = Data::fresh(cfg.seed.wrapping_add(case as u64));
        let value = gen.generate(&mut data);
        let stream = std::mem::take(&mut data.stream);
        if run_one(gen, &prop, &stream).is_ok() {
            continue;
        }
        // Failure: shrink the recorded choice stream.
        let (minimal, attempts) = shrink(gen, &prop, stream, cfg.max_shrink);
        let shrunk = replay_value(gen, &minimal);
        std::panic::panic_any(format!(
            "property '{name}' failed (case {case}/{}, seed {:#x}).\n\
             original input: {value:?}\n\
             after {attempts} shrink attempts, minimal failing input: {shrunk:?}",
            cfg.cases, cfg.seed,
        ));
    }
}

fn replay_value<G: Gen>(gen: &G, stream: &[u64]) -> G::Value {
    gen.generate(&mut Data::replay(stream.to_vec()))
}

/// Runs the property on the value decoded from `stream`. `Err` means
/// the property panicked.
fn run_one<G, P>(gen: &G, prop: &P, stream: &[u64]) -> Result<(), ()>
where
    G: Gen,
    P: Fn(G::Value),
{
    let value = replay_value(gen, stream);
    catch_unwind(AssertUnwindSafe(|| prop(value))).map_err(|_| ())
}

/// Greedy stream shrinking: repeatedly tries simpler mutations of the
/// failing stream, keeping any candidate that still fails, until no
/// mutation helps or the attempt budget is spent.
fn shrink<G, P>(gen: &G, prop: &P, mut stream: Vec<u64>, budget: u32) -> (Vec<u64>, u32)
where
    G: Gen,
    P: Fn(G::Value),
{
    let mut attempts = 0u32;
    let mut improved = true;
    while improved && attempts < budget {
        improved = false;

        // 1. Truncate the tail (drops whole trailing structure).
        let mut cut = stream.len() / 2;
        while cut > 0 && attempts < budget {
            let candidate: Vec<u64> = stream[..stream.len() - cut].to_vec();
            attempts += 1;
            if run_one(gen, prop, &candidate).is_err() {
                stream = candidate;
                // The shorter stream may no longer fit the same cut.
                cut = cut.min(stream.len());
                improved = true;
            } else {
                cut /= 2;
            }
        }

        // 2. Zero, halve, then decrement each choice.
        for i in 0..stream.len() {
            if stream[i] == 0 {
                continue;
            }
            for replacement in [0, stream[i] / 2, stream[i] - 1] {
                if replacement == stream[i] || attempts >= budget {
                    continue;
                }
                let mut candidate = stream.clone();
                candidate[i] = replacement;
                attempts += 1;
                if run_one(gen, prop, &candidate).is_err() {
                    stream = candidate;
                    improved = true;
                    break;
                }
            }
        }
    }
    (stream, attempts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        // Counts cases via a cell to prove the budget is honoured.
        let counter = std::cell::Cell::new(0u32);
        check("bounds hold", &f64_range(-5.0, 5.0), |v| {
            counter.set(counter.get() + 1);
            assert!((-5.0..5.0).contains(&v));
        });
        assert_eq!(counter.get(), Config::default().cases);
    }

    #[test]
    fn tuples_and_vecs_compose() {
        let gen = (
            usize_range(1, 10),
            vec_of(f64_range(0.0, 1.0), 0, 16),
            i64_range(-3, 3),
        );
        check("composite shapes", &gen, |(n, v, i)| {
            assert!((1..10).contains(&n));
            assert!(v.len() <= 16);
            assert!((-3..3).contains(&i));
        });
    }

    #[test]
    fn map_transforms_values() {
        let gen = vec_of(f64_range(1.0, 2.0), 2, 8).map(|v| v.into_iter().sum::<f64>());
        check("sum of 2..8 values in [1,2) is ≥ 2", &gen, |s| {
            assert!(s >= 2.0);
        });
    }

    #[test]
    fn failing_property_shrinks_to_minimal_vector() {
        // Property: vectors never contain a value ≥ 50. It fails;
        // shrinking should find a failing vector of length 1 (and
        // a value close to the threshold).
        let gen = vec_of(f64_range(0.0, 100.0), 0, 20);
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("no large elements", &gen, |v| {
                assert!(v.iter().all(|&x| x < 50.0));
            });
        }));
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        assert!(msg.contains("minimal failing input"), "message: {msg}");
        // The minimal counterexample is a single-element vector.
        let start = msg
            .find("minimal failing input: ")
            .map(|i| i + "minimal failing input: ".len());
        let tail = start.map(|i| &msg[i..]).unwrap_or_default();
        assert!(
            tail.starts_with('[') && tail.matches(',').count() == 0,
            "expected single-element vec, got: {tail}"
        );
    }

    #[test]
    fn always_failing_property_shrinks_to_the_empty_stream() {
        // Every truncation keeps failing, so step 1 cuts the stream
        // down to nothing without running past its end.
        let gen = vec_of(usize_range(0, 100), 4, 20);
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("always fails", &gen, |_| panic!("always"));
        }));
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        assert!(
            msg.contains("minimal failing input: [0, 0, 0, 0]"),
            "message: {msg}"
        );
    }

    #[test]
    fn replay_of_truncated_stream_is_valid() {
        let gen = vec_of(f64_range(-1.0, 1.0), 1, 8);
        let v = replay_value(&gen, &[]);
        // All-zero choices: minimum length, minimum values.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], -1.0);
    }
}
