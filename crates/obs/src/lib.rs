//! # obs — workspace-wide observability
//!
//! The paper's whole evaluation is built from per-stage cost breakdowns
//! (parse vs. index vs. probe vs. refine, Figs. 2–5), and follow-up
//! systems like LocationSpark drive their schedulers from collected
//! runtime/selectivity statistics. This crate is the substrate both
//! need: a zero-dependency, allocation-free-in-hot-path counter and
//! span layer that every other crate in the workspace feeds.
//!
//! ## Design
//!
//! * **Hot path = thread-local [`Cell`]s.** Counter bumps go to a
//!   const-initialised thread-local [`Counters`] block — no atomics, no
//!   locks, no allocation, and therefore legal inside `tidy:alloc-free`
//!   regions. Instrumented loops accumulate into plain `u64` locals and
//!   flush **once** per probe/morsel via the free functions below
//!   ([`filter_refine`], [`node_visits`], [`edge_visits`], …), keeping
//!   the overhead under the ≤2 % budget on the parallel-join bench.
//! * **Collection = snapshot deltas.** There is deliberately *no*
//!   global sink. A collector records [`thread_snapshot`] before the
//!   work, again after, and subtracts; work done on scoped worker
//!   threads is returned explicitly as an [`ExecStats`] by the
//!   `cluster` pool's `*_observed` entry points (fresh threads start
//!   with zeroed cells, so worker counts are exact). The sum
//!   `driver delta + worker counters` is identical at any thread
//!   count, which is what makes the cross-thread-count invariants
//!   testable.
//! * **Reporting = [`RunStats`] trees.** Counters, per-worker
//!   busy/wait nanoseconds and span timings aggregate into a named
//!   tree that serialises to JSON inside the `results/BENCH_*.json`
//!   artifacts (hand-rolled writer, no serde).

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------

/// Declares every counter once, in report order, and generates from
/// that one list the [`Counters`] struct, its arithmetic and
/// [`Counters::fields`], the thread-local cells behind the free
/// functions, and the snapshot, drain and fold of those cells. Adding
/// or removing a counter is one edit here.
macro_rules! counters {
    ($($(#[$doc:meta])* $f:ident,)*) => {
        /// One full set of event counters. Plain data: snapshot, add and
        /// subtract freely.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $f: u64,)*
        }

        impl Counters {
            /// `self + other`, saturating.
            #[must_use]
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($f: self.$f.saturating_add(other.$f),)* }
            }

            /// `self - other`, saturating (deltas against an earlier
            /// snapshot).
            #[must_use]
            pub fn minus(&self, other: &Counters) -> Counters {
                Counters { $($f: self.$f.saturating_sub(other.$f),)* }
            }

            /// `(name, value)` pairs in declaration order, for reports.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($f)),*].len()] {
                [$((stringify!($f), self.$f)),*]
            }
        }

        /// The thread-local cells behind the free functions.
        /// Const-initialised so first access never allocates.
        struct CounterCells {
            $($f: Cell<u64>,)*
        }

        thread_local! {
            static CELLS: CounterCells = const {
                CounterCells { $($f: Cell::new(0),)* }
            };
        }

        /// Reads the calling thread's counters **without** resetting
        /// them. Collectors take a snapshot before and after a region of
        /// work and subtract.
        pub fn thread_snapshot() -> Counters {
            CELLS.with(|c| Counters { $($f: c.$f.get(),)* })
        }

        /// Drains the calling thread's counters, returning them and
        /// resetting every cell to zero. Worker threads call this once
        /// before exiting so their counts travel back to the driver in an
        /// [`ExecStats`].
        pub fn take_thread() -> Counters {
            CELLS.with(|c| Counters { $($f: c.$f.replace(0),)* })
        }

        /// Adds `counters` into the calling thread's cells. The pool's
        /// plain (non-observed) entry points use this to fold worker
        /// counts into the driver thread, so an outer snapshot-delta
        /// still sees them.
        pub fn add_thread(counters: &Counters) {
            CELLS.with(|c| {
                $(bump(&c.$f, counters.$f);)*
            });
        }
    };
}

counters! {
    /// Candidates surviving the filter: R-tree envelope hits, or the
    /// items listed in a cell-covering probe's cell.
    filter_hits,
    /// Refinement evaluations (predicate or distance calls).
    refine_calls,
    /// Refinement evaluations that accepted the candidate.
    refine_accepts,
    /// Geometry edges scanned by flat/naive refinement engines.
    edge_visits,
    /// R-tree nodes popped during index traversals.
    node_visits,
    /// Pairs a cell-covering probe emitted from an interior cell,
    /// without refinement.
    cells_interior,
    /// Boundary-cell items a cell-covering probe refined.
    cells_boundary,
    /// Morsels/tasks executed by the parallel pool.
    morsels_executed,
    /// Input lines parsed into records.
    records_parsed,
    /// Input lines skipped as malformed.
    records_skipped,
    /// Row batches produced by the SQL engine.
    row_batches,
    /// Bytes broadcast to every node.
    bytes_broadcast,
    /// Faults injected by the chaos layer (panics, corruptions,
    /// transient errors, straggler delays).
    faults_injected,
    /// Block reads served by a non-primary replica after a checksum
    /// failure on an earlier replica.
    blocks_failed_over,
    /// Partitions recomputed from lineage after an executor loss.
    partitions_recomputed,
}

impl Counters {
    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

#[inline]
fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get().saturating_add(by));
}

/// Records one probe's filter/refine outcome: `candidates` envelopes
/// survived the filter (each costing one refinement call), `accepts` of
/// them passed refinement. One thread-local access per probe.
#[inline]
pub fn filter_refine(candidates: u64, accepts: u64) {
    CELLS.with(|c| {
        bump(&c.filter_hits, candidates);
        bump(&c.refine_calls, candidates);
        bump(&c.refine_accepts, accepts);
    });
}

/// Records `n` R-tree nodes visited by one traversal.
#[inline]
pub fn node_visits(n: u64) {
    CELLS.with(|c| bump(&c.node_visits, n));
}

/// Records one full index probe — the `nodes` popped by the tree
/// traversal plus its filter/refine outcome — in a **single**
/// thread-local access. The R-tree probe loop uses this instead of
/// separate [`node_visits`] + [`filter_refine`] calls so each left
/// point pays for exactly one TLS access.
#[inline]
pub fn probe_counts(nodes: u64, candidates: u64, accepts: u64) {
    CELLS.with(|c| {
        bump(&c.node_visits, nodes);
        bump(&c.filter_hits, candidates);
        bump(&c.refine_calls, candidates);
        bump(&c.refine_accepts, accepts);
    });
}

/// Records one cell-covering probe of a morsel in a single
/// thread-local access: `interior` pairs emitted without refinement and
/// `boundary` items refined, of which `accepts` passed. Every item is a
/// filter hit; only the boundary items are refinement calls.
#[inline]
pub fn cell_counts(interior: u64, boundary: u64, accepts: u64) {
    CELLS.with(|c| {
        bump(&c.cells_interior, interior);
        bump(&c.cells_boundary, boundary);
        bump(&c.filter_hits, interior.saturating_add(boundary));
        bump(&c.refine_calls, boundary);
        bump(&c.refine_accepts, accepts);
    });
}

/// Records `n` geometry edges scanned by one refinement call.
#[inline]
pub fn edge_visits(n: u64) {
    CELLS.with(|c| bump(&c.edge_visits, n));
}

/// Records one morsel/task executed by the pool.
#[inline]
pub fn morsel() {
    CELLS.with(|c| bump(&c.morsels_executed, 1));
}

/// Records a batch of record-parse outcomes.
#[inline]
pub fn records(parsed: u64, skipped: u64) {
    CELLS.with(|c| {
        bump(&c.records_parsed, parsed);
        bump(&c.records_skipped, skipped);
    });
}

/// Records `n` row batches produced by the SQL engine.
#[inline]
pub fn row_batches(n: u64) {
    CELLS.with(|c| bump(&c.row_batches, n));
}

/// Records `n` faults injected by the chaos layer.
#[inline]
pub fn faults_injected(n: u64) {
    CELLS.with(|c| bump(&c.faults_injected, n));
}

/// Records one block read that failed over to a surviving replica.
#[inline]
pub fn block_failed_over() {
    CELLS.with(|c| bump(&c.blocks_failed_over, 1));
}

/// Records `n` partitions recomputed from lineage.
#[inline]
pub fn partitions_recomputed(n: u64) {
    CELLS.with(|c| bump(&c.partitions_recomputed, n));
}

// ---------------------------------------------------------------------
// per-worker execution stats
// ---------------------------------------------------------------------

/// What one pool worker did during a parallel region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Items (tasks or morsels) the worker ran.
    pub items: u64,
    /// Nanoseconds spent inside item closures.
    pub busy_ns: u64,
    /// Nanoseconds the worker existed but was not inside an item —
    /// queue wait, scheduling gaps, stitch barriers.
    pub wait_ns: u64,
}

/// Everything a parallel region observed: the sum of its scoped
/// workers' counters (zero when the region ran inline on the calling
/// thread) plus per-worker busy/wait accounting.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Counters accumulated on scoped worker threads. Inline
    /// (single-thread) execution leaves this zero — those counts land
    /// in the calling thread's cells and surface through the caller's
    /// snapshot delta instead.
    pub worker_counters: Counters,
    /// One entry per worker that ran (inline execution reports itself
    /// as worker 0).
    pub workers: Vec<WorkerStats>,
}

// ---------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------

/// One named timed region, possibly aggregated over `count` executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    pub name: String,
    /// Executions aggregated into `total_ns`.
    pub count: u64,
    pub total_ns: u64,
}

impl SpanStat {
    /// A span aggregated from `count` executions totalling `secs`.
    pub fn from_secs(name: &str, count: u64, secs: f64) -> SpanStat {
        SpanStat {
            name: name.to_string(),
            count,
            total_ns: secs_to_ns(secs),
        }
    }
}

/// Converts seconds to nanoseconds, saturating on overflow/negatives.
pub fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e9).min(u64::MAX as f64) as u64
    }
}

/// A lightweight started timer; [`SpanTimer::finish`] yields the
/// [`SpanStat`]. There is no global registry — the caller owns the
/// result and pushes it wherever it belongs.
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    started: Instant,
}

impl SpanTimer {
    /// Starts timing `name` now.
    pub fn start(name: &'static str) -> SpanTimer {
        SpanTimer {
            name,
            started: Instant::now(),
        }
    }

    /// Stops the timer, producing a single-execution span.
    pub fn finish(self) -> SpanStat {
        SpanStat {
            name: self.name.to_string(),
            count: 1,
            total_ns: self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        }
    }
}

// ---------------------------------------------------------------------
// RunStats tree + JSON
// ---------------------------------------------------------------------

/// A named aggregation node: counters, worker accounting and spans for
/// one run (or one stage of a run), with nested children for
/// sub-stages. Serialises to the same hand-rolled JSON dialect the
/// bench artifacts use.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub name: String,
    pub counters: Counters,
    pub workers: Vec<WorkerStats>,
    pub spans: Vec<SpanStat>,
    pub children: Vec<RunStats>,
}

impl RunStats {
    /// An empty node named `name`.
    pub fn new(name: &str) -> RunStats {
        RunStats {
            name: name.to_string(),
            ..RunStats::default()
        }
    }

    /// This node's counters plus every descendant's.
    pub fn total_counters(&self) -> Counters {
        self.children
            .iter()
            .fold(self.counters, |acc, c| acc.plus(&c.total_counters()))
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&RunStats> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Finds a span on this node by name.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Serialises the tree as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json_into(&mut out, 0);
        out
    }

    fn write_json_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{{");
        let _ = writeln!(out, "{pad}  \"name\": \"{}\",", escape(&self.name));
        let _ = write!(out, "{pad}  \"counters\": {{");
        let fields = self.counters.fields();
        for (i, (name, value)) in fields.iter().enumerate() {
            let comma = if i + 1 == fields.len() { "" } else { ", " };
            let _ = write!(out, "\"{name}\": {value}{comma}");
        }
        let _ = writeln!(out, "}},");
        let _ = write!(out, "{pad}  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            let comma = if i + 1 == self.workers.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(
                out,
                "{{\"worker\": {}, \"items\": {}, \"busy_ns\": {}, \"wait_ns\": {}}}{comma}",
                w.worker, w.items, w.busy_ns, w.wait_ns
            );
        }
        let _ = writeln!(out, "],");
        let _ = write!(out, "{pad}  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { ", " };
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}{comma}",
                escape(&s.name),
                s.count,
                s.total_ns
            );
        }
        let _ = writeln!(out, "],");
        if self.children.is_empty() {
            let _ = writeln!(out, "{pad}  \"children\": []");
        } else {
            let _ = writeln!(out, "{pad}  \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                c.write_json_into(out, depth + 2);
                // write_json_into ends without a newline terminator on
                // the closing brace line; add the separator here.
                let comma = if i + 1 == self.children.len() {
                    ""
                } else {
                    ","
                };
                let _ = writeln!(out, "{comma}");
            }
            let _ = writeln!(out, "{pad}  ]");
        }
        let _ = write!(out, "{pad}}}");
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_sub_roundtrip() {
        let a = Counters {
            filter_hits: 10,
            refine_calls: 10,
            refine_accepts: 7,
            ..Counters::default()
        };
        let b = Counters {
            filter_hits: 3,
            refine_calls: 3,
            ..Counters::default()
        };
        let sum = a.plus(&b);
        assert_eq!(sum.filter_hits, 13);
        assert_eq!(sum.minus(&b), a);
        // Saturating subtraction never wraps.
        assert_eq!(b.minus(&a).filter_hits, 0);
        assert!(Counters::default().is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn thread_cells_accumulate_and_drain() {
        // Run on a dedicated thread so parallel tests can't interleave
        // counts into our cells.
        std::thread::spawn(|| {
            assert!(thread_snapshot().is_zero());
            filter_refine(5, 2);
            node_visits(11);
            edge_visits(40);
            morsel();
            morsel();
            records(9, 1);
            row_batches(3);
            faults_injected(4);
            block_failed_over();
            partitions_recomputed(2);
            cell_counts(6, 4, 3);
            let snap = thread_snapshot();
            assert_eq!(snap.filter_hits, 5 + 10);
            assert_eq!(snap.refine_calls, 5 + 4);
            assert_eq!(snap.refine_accepts, 2 + 3);
            assert_eq!(snap.cells_interior, 6);
            assert_eq!(snap.cells_boundary, 4);
            assert_eq!(snap.node_visits, 11);
            assert_eq!(snap.edge_visits, 40);
            assert_eq!(snap.morsels_executed, 2);
            assert_eq!(snap.records_parsed, 9);
            assert_eq!(snap.records_skipped, 1);
            assert_eq!(snap.row_batches, 3);
            assert_eq!(snap.faults_injected, 4);
            assert_eq!(snap.blocks_failed_over, 1);
            assert_eq!(snap.partitions_recomputed, 2);
            // Snapshot does not reset; take does.
            assert_eq!(thread_snapshot(), snap);
            assert_eq!(take_thread(), snap);
            assert!(thread_snapshot().is_zero());
            // add_thread folds counts back in.
            add_thread(&snap);
            assert_eq!(take_thread(), snap);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn fresh_threads_start_zeroed() {
        filter_refine(100, 100);
        let worker = std::thread::spawn(|| {
            assert!(thread_snapshot().is_zero());
            edge_visits(7);
            take_thread()
        })
        .join()
        .unwrap();
        assert_eq!(worker.edge_visits, 7);
        assert_eq!(worker.filter_hits, 0);
    }

    #[test]
    fn span_timer_measures_something() {
        let t = SpanTimer::start("probe");
        std::hint::black_box(0u64);
        let span = t.finish();
        assert_eq!(span.name, "probe");
        assert_eq!(span.count, 1);
        let agg = SpanStat::from_secs("scan", 4, 2.5);
        assert_eq!(agg.total_ns, 2_500_000_000);
        assert_eq!(secs_to_ns(-1.0), 0);
    }

    #[test]
    fn runstats_tree_json_shape() {
        let mut root = RunStats::new("join");
        root.counters.refine_calls = 42;
        root.spans.push(SpanStat::from_secs("run", 1, 0.001));
        root.workers.push(WorkerStats {
            worker: 0,
            items: 2,
            busy_ns: 900,
            wait_ns: 100,
        });
        let mut child = RunStats::new("probe");
        child.counters.refine_calls = 40;
        root.children.push(child);
        let json = root.to_json();
        assert!(json.contains("\"name\": \"join\""));
        assert!(json.contains("\"refine_calls\": 42"));
        assert!(json.contains("\"name\": \"probe\""));
        assert!(json.contains("\"busy_ns\": 900"));
        // Total rolls children up.
        assert_eq!(root.total_counters().refine_calls, 82);
        assert_eq!(root.child("probe").unwrap().counters.refine_calls, 40);
        assert!(root.child("missing").is_none());
        assert_eq!(root.span("run").unwrap().count, 1);
        // Braces balance (a cheap structural sanity check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_quotes() {
        let s = RunStats::new("a\"b\\c");
        let json = s.to_json();
        assert!(json.contains("a\\\"b\\\\c"));
    }
}
