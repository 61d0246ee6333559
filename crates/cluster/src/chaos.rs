//! Deterministic fault injection for the live executors.
//!
//! The paper's §III contrast between Spark's lineage recompute and
//! Impala's fail-fast fragment plan is only meaningful if the real
//! execution paths can actually experience faults. This module is the
//! single source of those faults: a [`Chaos`] handle, seeded through
//! `datagen::rng` so every run is replayable, decides purely as a
//! function of `(seed, site, index, attempt)` whether a fault fires.
//! Decisions are independent of thread interleaving — the same seed
//! injects the same faults at any thread count, which is what lets the
//! property tests demand bit-identical recovered output.
//!
//! Four fault kinds are modelled, mirroring the failure modes a
//! Hadoop/Spark/Impala deployment sees:
//!
//! * **worker panic mid-task** — the task closure panics *after*
//!   appending its output, so the pool must roll back a complete
//!   segment (the worst case for the order-preserving stitch);
//! * **corrupted DFS block replica** — decided per `(block, replica)`
//!   so `minihdfs` checksum fail-over can be driven deterministically;
//! * **transient read error** — fails an early read attempt, succeeds
//!   on retry;
//! * **straggler delay** — a bounded sleep before the work, slowing a
//!   task without failing it.
//!
//! Every injected fault is recorded in an event log (guarded by the
//! `events` lock declared in `crates/tidy/lock_order.toml`) and bumped
//! onto the `obs::faults_injected` counter, so benches can report
//! exactly what a run survived.

use std::sync::Mutex;
use std::time::Duration;

use datagen::rng::StdRng;

/// Where in the execution stack a fault decision is being made. The
/// discriminant feeds the hash, so the same index at different sites
/// draws independent faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// A sparklet stage task: a [`crate::dispatch`] unit that yields
    /// one partition.
    Task,
    /// A DFS block read (transient errors) or `(block, replica)`
    /// corruption decision.
    BlockRead,
    /// An impalite plan fragment.
    Fragment,
}

impl ChaosSite {
    fn salt(self) -> u64 {
        match self {
            ChaosSite::Task => 0x7461_736b,
            ChaosSite::BlockRead => 0x626c_6f63,
            ChaosSite::Fragment => 0x6672_6167,
        }
    }
}

/// What kind of fault an event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    WorkerPanic,
    CorruptReplica,
    TransientRead,
    StragglerDelay,
}

/// One injected fault, for post-run reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    pub site: ChaosSite,
    pub kind: FaultKind,
    /// Task / block / fragment index at the site.
    pub index: u64,
    /// Zero-based attempt the fault hit.
    pub attempt: u32,
}

/// Fault rates and the seed that makes them replayable. All rates are
/// probabilities in `[0, 1]` evaluated independently per attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the per-decision hash; same seed ⇒ same faults.
    pub seed: u64,
    /// Probability a task/fragment attempt panics.
    pub panic_rate: f64,
    /// Probability a `(block, replica)` pair is corrupted on disk.
    pub corrupt_rate: f64,
    /// Probability a block-read attempt fails transiently.
    pub transient_read_rate: f64,
    /// Probability an attempt is delayed by `straggler_delay`.
    pub straggler_rate: f64,
    /// How long a straggler sleeps.
    pub straggler_delay: Duration,
}

impl ChaosConfig {
    /// No faults at all — the identity configuration.
    pub fn disabled() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            panic_rate: 0.0,
            corrupt_rate: 0.0,
            transient_read_rate: 0.0,
            straggler_rate: 0.0,
            straggler_delay: Duration::ZERO,
        }
    }

    /// Every fault site firing at `rate`, with a token straggler delay.
    pub fn uniform(seed: u64, rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_rate: rate,
            corrupt_rate: rate,
            transient_read_rate: rate,
            straggler_rate: rate,
            straggler_delay: Duration::from_micros(200),
        }
    }

    /// True when no site can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.panic_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.transient_read_rate <= 0.0
            && self.straggler_rate <= 0.0
    }
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig::disabled()
    }
}

/// A shareable fault injector. Cheap to construct; decisions are pure
/// hashes of the configuration seed, so a `Chaos` can be consulted from
/// any worker thread without coordination. Only the event log takes a
/// lock, and only when a fault actually fires.
#[derive(Debug)]
pub struct Chaos {
    cfg: ChaosConfig,
    events: Mutex<Vec<ChaosEvent>>,
}

impl Chaos {
    pub fn new(cfg: ChaosConfig) -> Chaos {
        Chaos {
            cfg,
            events: Mutex::new(Vec::new()),
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> Chaos {
        Chaos::new(ChaosConfig::disabled())
    }

    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    pub fn is_disabled(&self) -> bool {
        self.cfg.is_disabled()
    }

    /// Snapshot of every fault injected so far.
    pub fn events(&self) -> Vec<ChaosEvent> {
        match self.events.lock() {
            Ok(g) => g.as_slice().into(),
            Err(poisoned) => poisoned.into_inner().as_slice().into(),
        }
    }

    /// Number of faults injected so far.
    pub fn fault_count(&self) -> usize {
        match self.events.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    fn record(&self, event: ChaosEvent) {
        obs::faults_injected(1);
        match self.events.lock() {
            Ok(mut g) => g.push(event),
            Err(poisoned) => poisoned.into_inner().push(event),
        }
    }

    /// The deterministic uniform draw behind every decision.
    fn roll(&self, site: ChaosSite, kind_salt: u64, index: u64, attempt: u32) -> f64 {
        let mixed = self.cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ site.salt().wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ kind_salt.wrapping_mul(0x94d0_49bb_1331_11eb)
            ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93)
            ^ u64::from(attempt).wrapping_mul(0xff51_afd7_ed55_8ccd);
        StdRng::seed_from_u64(mixed).next_f64()
    }

    /// Pure query: would a panic fire at this site/index/attempt?
    /// No event is recorded — use [`Chaos::inject`] for that.
    pub fn panic_fires(&self, site: ChaosSite, index: u64, attempt: u32) -> bool {
        self.cfg.panic_rate > 0.0 && self.roll(site, 1, index, attempt) < self.cfg.panic_rate
    }

    /// Pure query: does this block-read attempt fail transiently?
    pub fn read_fault_fires(&self, index: u64, attempt: u32) -> bool {
        self.cfg.transient_read_rate > 0.0
            && self.roll(ChaosSite::BlockRead, 2, index, attempt) < self.cfg.transient_read_rate
    }

    /// Pure query: is this `(block, replica)` pair corrupted?
    pub fn replica_corrupt(&self, block: u64, replica: u64) -> bool {
        self.cfg.corrupt_rate > 0.0
            && self.roll(ChaosSite::BlockRead, 3, block ^ (replica << 48), 0)
                < self.cfg.corrupt_rate
    }

    /// Records a transient read fault at `index`/`attempt`; the caller
    /// has already decided (via [`Chaos::read_fault_fires`]) to fail
    /// the read.
    pub fn note_read_fault(&self, index: u64, attempt: u32) {
        self.record(ChaosEvent {
            site: ChaosSite::BlockRead,
            kind: FaultKind::TransientRead,
            index,
            attempt,
        });
    }

    /// Records that a corrupted replica was planted for `block`.
    pub fn note_corrupt_replica(&self, block: u64, replica: u64) {
        self.record(ChaosEvent {
            site: ChaosSite::BlockRead,
            kind: FaultKind::CorruptReplica,
            index: block ^ (replica << 48),
            attempt: 0,
        });
    }

    /// The injection hook the executors wrap around task closures.
    /// Applies a straggler delay (if drawn) and then, if the panic draw
    /// fires, records the event and panics — simulating a worker dying
    /// at this site. Call it *after* the task's output is produced so a
    /// recovered run proves partial output is rolled back.
    ///
    /// # Panics
    /// Deliberately, when the seeded panic draw fires.
    pub fn inject(&self, site: ChaosSite, index: u64, attempt: u32) {
        if self.cfg.straggler_rate > 0.0
            && self.roll(site, 4, index, attempt) < self.cfg.straggler_rate
        {
            self.record(ChaosEvent {
                site,
                kind: FaultKind::StragglerDelay,
                index,
                attempt,
            });
            if !self.cfg.straggler_delay.is_zero() {
                std::thread::sleep(self.cfg.straggler_delay);
            }
        }
        if self.panic_fires(site, index, attempt) {
            self.record(ChaosEvent {
                site,
                kind: FaultKind::WorkerPanic,
                index,
                attempt,
            });
            std::panic::panic_any(format!(
                "chaos: injected worker panic at {site:?}[{index}] attempt {attempt}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_chaos_never_fires() {
        let c = Chaos::disabled();
        for i in 0..200 {
            assert!(!c.panic_fires(ChaosSite::Task, i, 0));
            assert!(!c.read_fault_fires(i, 0));
            assert!(!c.replica_corrupt(i, 0));
            c.inject(ChaosSite::Task, i, 0); // must not panic
        }
        assert_eq!(c.fault_count(), 0);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = Chaos::new(ChaosConfig::uniform(42, 0.3));
        let b = Chaos::new(ChaosConfig::uniform(42, 0.3));
        let c = Chaos::new(ChaosConfig::uniform(43, 0.3));
        let draws = |ch: &Chaos| -> Vec<bool> {
            (0..256)
                .map(|i| ch.panic_fires(ChaosSite::Task, i, 0))
                .collect()
        };
        assert_eq!(draws(&a), draws(&b), "same seed, same faults");
        assert_ne!(draws(&a), draws(&c), "different seed, different faults");
        // Attempts draw independently: a fault at attempt 0 does not
        // imply one at attempt 1 (rate 0.3 ⇒ some index recovers).
        let recovers = (0..256)
            .any(|i| a.panic_fires(ChaosSite::Task, i, 0) && !a.panic_fires(ChaosSite::Task, i, 1));
        assert!(recovers, "expected at least one index to recover on retry");
    }

    #[test]
    fn rate_roughly_respected() {
        let c = Chaos::new(ChaosConfig::uniform(7, 0.25));
        let fired = (0..4000)
            .filter(|&i| c.panic_fires(ChaosSite::Task, i, 0))
            .count();
        let frac = fired as f64 / 4000.0;
        assert!((0.15..0.35).contains(&frac), "rate off: {frac}");
    }

    #[test]
    fn injected_panic_is_recorded_and_replayable() {
        let cfg = ChaosConfig {
            panic_rate: 1.0,
            ..ChaosConfig::uniform(9, 0.0)
        };
        let c = Chaos::new(cfg);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.inject(ChaosSite::Fragment, 5, 0);
        }));
        assert!(caught.is_err());
        let events = c.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FaultKind::WorkerPanic);
        assert_eq!(events[0].site, ChaosSite::Fragment);
        assert_eq!(events[0].index, 5);
    }

    #[test]
    fn sites_draw_independently() {
        let c = Chaos::new(ChaosConfig::uniform(11, 0.5));
        let task: Vec<bool> = (0..128)
            .map(|i| c.panic_fires(ChaosSite::Task, i, 0))
            .collect();
        let fragment: Vec<bool> = (0..128)
            .map(|i| c.panic_fires(ChaosSite::Fragment, i, 0))
            .collect();
        assert_ne!(task, fragment);
    }
}
