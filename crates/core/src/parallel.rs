//! Morsel-driven parallel join executor with prepare-once geometry
//! sharing.
//!
//! The paper's systems get their speed from running the broadcast
//! R-tree probe in parallel — dynamic task scheduling on Spark, static
//! OpenMP-style chunking in Impala (§IV–V). This module is the single
//! executor behind both: the right side is prepared **once** into a
//! shared [`PreparedSet`] (an STR tree whose entries hold each record's
//! id and engine-prepared geometry inline under its expanded envelope),
//! and the left side is probed in fixed-size morsels handed to
//! [`cluster::dispatch`] under any [`ScheduleMode`]. ISP-MC's fragments
//! reuse the same set. A broadcast `Within` request on an engine with a
//! cell covering builds a [`CellCover`] over the set and probes its
//! cells instead of the tree.
//!
//! The build is parallel too, on the same dispatch core: one unit per
//! DFS block ([`PreparedSet::from_blocks`], parse then prepare) or per
//! [`BUILD_CHUNK`] in-memory records ([`PreparedSet::prepare_threads`]),
//! stitched in unit order. One thread is the serial case of the same
//! loop.
//!
//! # Determinism contract
//!
//! Output is **bit-identical to the serial path at any thread count**:
//! the build stitches its units in file order, so the shared tree is
//! bulk-loaded from the same envelope sequence as the serial
//! [`crate::join::build_right_index`] (STR packing is a
//! stable sort over envelopes, so the entry permutation and hence
//! traversal order are identical), and per-morsel output segments are
//! stitched back in input order by the driver. Scheduling only decides
//! *who* runs a morsel, never what it appends.

use cluster::{dispatch, Dispatched, ScheduleMode, TaskFailure, TaskTiming};
use geom::cells::CellGrid;
use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use minihdfs::BlockRef;
use rtree::{probe_with, RTree};
use std::time::Instant;

use crate::reader::RecordReader;
use crate::{GeomRecord, JoinPair, PointRecord};

/// Default morsel size: small enough for dynamic scheduling to balance
/// skewed probe costs, large enough to amortise dispatch overhead.
pub const DEFAULT_MORSEL_SIZE: usize = 2048;

/// Parallelism settings for the morsel executor.
#[derive(Debug, Clone, Copy)]
pub struct MorselConfig {
    /// Worker threads (1 = serial inline execution).
    pub threads: usize,
    /// How morsels are handed to workers.
    pub mode: ScheduleMode,
    /// Left points per morsel.
    pub morsel_size: usize,
}

impl MorselConfig {
    /// `threads` workers, dynamic scheduling, default morsel size.
    pub fn new(threads: usize) -> MorselConfig {
        MorselConfig {
            threads: threads.max(1),
            mode: ScheduleMode::Dynamic,
            morsel_size: DEFAULT_MORSEL_SIZE,
        }
    }

    /// Single-threaded configuration (the serial reference path).
    pub fn serial() -> MorselConfig {
        MorselConfig::new(1)
    }
}

impl Default for MorselConfig {
    fn default() -> MorselConfig {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MorselConfig::new(threads)
    }
}

/// Right-side records per unit of an in-memory build
/// ([`PreparedSet::prepare_threads`]). Fixed, so the unit count — and
/// with it every counter — does not depend on the thread count.
pub const BUILD_CHUNK: usize = 256;

/// One build unit's output row, which is the tree entry itself: the
/// envelope expanded by the filter radius, then the record's id and
/// prepared geometry.
type Entry<P> = (Envelope, (i64, P));

/// The right side of a join, prepared exactly once and shared by
/// reference across every morsel and system layer.
pub struct PreparedSet<E: RefinementEngine> {
    /// Filter tree over `(id, prepared geometry)` entries stored inline
    /// in leaf order, their envelopes already expanded by the
    /// predicate's filter radius.
    tree: RTree<(i64, E::Prepared)>,
    predicate: SpatialPredicate,
    /// Serial-equivalent build seconds: summed per-unit work plus the
    /// bulk load.
    build_work: f64,
}

impl<E: RefinementEngine> PreparedSet<E> {
    /// [`PreparedSet::prepare_threads`] on the calling thread.
    pub fn prepare(
        right: &[GeomRecord],
        predicate: SpatialPredicate,
        engine: &E,
    ) -> PreparedSet<E> {
        Self::prepare_threads(right, predicate, engine, 1)
    }

    /// Prepares in-memory `right` for `predicate` on `threads` workers:
    /// one dispatch unit per [`BUILD_CHUNK`] records, each pushing the
    /// record's envelope expanded by the filter radius, its id and one
    /// `engine.prepare` result. Units are stitched in record order, so
    /// the STR tree sees the same envelope sequence as the serial
    /// [`crate::join::build_right_index`] (hence the same packing) at
    /// any thread count. A panicking unit is re-raised.
    pub fn prepare_threads(
        right: &[GeomRecord],
        predicate: SpatialPredicate,
        engine: &E,
        threads: usize,
    ) -> PreparedSet<E> {
        let radius = predicate.filter_radius();
        let units = right.len().div_ceil(BUILD_CHUNK);
        let run = Self::build(threads, units, |i, out| {
            let chunk = &right[i * BUILD_CHUNK..((i + 1) * BUILD_CHUNK).min(right.len())];
            for (id, g) in chunk {
                out.push((g.envelope().expanded_by(radius), (*id, engine.prepare(g))));
            }
        });
        Self::assemble(predicate, run.or_raise())
    }

    /// Parses and prepares the right side straight from its DFS blocks
    /// on `threads` workers: one dispatch unit per block, running
    /// [`RecordReader::read_geom`] on every line (malformed lines are
    /// counted and dropped) and preparing each survivor. Units are
    /// stitched in block order, so the tree is exactly that of
    /// `prepare(read_geoms(lines))` over the whole file.
    ///
    /// A unit that dies is reported, not re-raised: the failures come
    /// back for the caller to translate.
    pub fn from_blocks(
        blocks: &[BlockRef],
        reader: RecordReader,
        predicate: SpatialPredicate,
        engine: &E,
        threads: usize,
    ) -> Result<PreparedSet<E>, Vec<TaskFailure>> {
        let radius = predicate.filter_radius();
        let run = Self::build(threads, blocks.len(), |i, out| {
            for line in blocks[i].lines() {
                if let Ok((id, g)) = reader.read_geom(line) {
                    out.push((g.envelope().expanded_by(radius), (id, engine.prepare(&g))));
                }
            }
        });
        if run.failures.is_empty() {
            Ok(Self::assemble(predicate, run))
        } else {
            Err(run.failures)
        }
    }

    /// Runs `unit(i, out)` for every build unit on the dispatch pool,
    /// folding worker counters into the calling thread.
    fn build(
        threads: usize,
        units: usize,
        unit: impl Fn(usize, &mut Vec<Entry<E::Prepared>>) + Sync,
    ) -> Dispatched<Entry<E::Prepared>> {
        let run = dispatch(units, threads, ScheduleMode::Dynamic, unit);
        obs::add_thread(&run.exec.worker_counters);
        run
    }

    /// Bulk-loads the filter tree over a build's stitched entries.
    fn assemble(
        predicate: SpatialPredicate,
        run: Dispatched<Entry<E::Prepared>>,
    ) -> PreparedSet<E> {
        let t0 = Instant::now();
        let tree = RTree::bulk_load_entries(run.out);
        let unit_work: f64 = run.timings.iter().map(|t| t.secs).sum();
        PreparedSet {
            tree,
            predicate,
            build_work: unit_work + t0.elapsed().as_secs_f64(),
        }
    }

    /// Serial-equivalent seconds the build took: the summed per-unit
    /// work plus the assemble and bulk-load step — what one thread
    /// would have spent, not the parallel wall time. The replay models
    /// charge this as the per-instance build cost.
    pub fn build_work(&self) -> f64 {
        self.build_work
    }

    /// Number of prepared right-side records.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when the right side is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Right-side ids in the tree's leaf order, which depends only on
    /// the input records, never on the build's thread count.
    pub fn ids(&self) -> Vec<i64> {
        self.tree.entries().iter().map(|(_, (id, _))| *id).collect()
    }

    /// The tree's entries in leaf order.
    pub(crate) fn entries(&self) -> &[Entry<E::Prepared>] {
        self.tree.entries()
    }

    /// The predicate the set was prepared for.
    pub fn predicate(&self) -> SpatialPredicate {
        self.predicate
    }

    /// Probes the shared tree with one point, appending matches.
    #[inline]
    pub fn probe_into(&self, engine: &E, left_id: i64, p: Point, out: &mut Vec<JoinPair>) {
        probe_with(
            &self.tree,
            self.predicate,
            engine,
            left_id,
            p,
            |(id, prepared)| (*id, prepared),
            out,
        );
    }

    /// Probes one morsel of left points — the body every worker thread
    /// runs.
    pub fn probe_slice(&self, engine: &E, morsel: &[PointRecord], out: &mut Vec<JoinPair>) {
        // tidy:alloc-free:start
        for &(id, p) in morsel {
            self.probe_into(engine, id, p, out);
        }
        // tidy:alloc-free:end
    }

    /// Probes `left` in parallel morsels, returning pairs in the same
    /// order the serial loop would emit them, per-morsel wall-clock
    /// timings (indexed by morsel position, for replay through the
    /// cluster simulator) and the pool's [`obs::ExecStats`].
    ///
    /// Scoped-worker counters are returned, **not** folded into the
    /// calling thread: [`crate::JoinRequest`] and traced runs add
    /// `exec.worker_counters` to their own snapshot deltas. A panicking
    /// morsel is re-raised on the calling thread.
    pub fn par_probe_observed(
        &self,
        left: &[PointRecord],
        engine: &E,
        cfg: MorselConfig,
    ) -> (Vec<JoinPair>, Vec<TaskTiming>, obs::ExecStats) {
        let run = dispatch_morsels(left, cfg, |morsel, out| {
            self.probe_slice(engine, morsel, out);
        })
        .or_raise();
        (run.out, run.timings, run.exec)
    }
}

/// Runs `body(morsel, out)` over `left` in morsels of
/// `cfg.morsel_size` on the dispatch pool.
fn dispatch_morsels(
    left: &[PointRecord],
    cfg: MorselConfig,
    body: impl Fn(&[PointRecord], &mut Vec<JoinPair>) + Sync,
) -> Dispatched<JoinPair> {
    let size = cfg.morsel_size.max(1);
    dispatch(
        left.len().div_ceil(size),
        cfg.threads,
        cfg.mode,
        |i, out| {
            body(&left[i * size..((i + 1) * size).min(left.len())], out);
        },
    )
}

/// Grid cells per axis for a covering of `n` right-side records:
/// `ceil(GRID_CELLS_PER_SQRT_RECORD · √n)`, clamped to
/// `[1, MAX_GRID_SIDE]`. A right side that tiles its extent then gets
/// about `GRID_CELLS_PER_SQRT_RECORD²` cells per record, whatever the
/// workload.
fn grid_side(n: usize) -> u32 {
    let side = (GRID_CELLS_PER_SQRT_RECORD * (n as f64).sqrt()).ceil();
    side.clamp(1.0, MAX_GRID_SIDE as f64) as u32
}

/// See [`grid_side`]; chosen by a resolution sweep on the benchmark
/// workloads.
const GRID_CELLS_PER_SQRT_RECORD: f64 = 4.0;

/// Cap on [`grid_side`]: at most 1024² cells, a 4 MiB offset array.
const MAX_GRID_SIDE: u32 = 1024;

/// Tag bit of a [`CellCover`] item: set when the item's cell lies
/// wholly inside the item's geometry.
const INTERIOR: u32 = 1;

/// The cell-covering index for a broadcast `Within` join on an engine
/// with a [`RefinementEngine::within_cover`].
///
/// One [`CellGrid`] spans the union of the right envelopes, and every
/// right record is covered on it. The cells are stored as one CSR: the
/// items of cell `c` are `items[offsets[c]..offsets[c + 1]]`, each an
/// entry position in the [`PreparedSet`] shifted left by one, tagged
/// with [`INTERIOR`]. A probe computes one cell and walks its list:
/// interior items are pairs without refinement, boundary items call
/// [`RefinementEngine::within`].
///
/// Each cell lists its items in the STR tree's visit order, so every
/// point emits its right ids exactly as the tree probe would: the
/// covering lists every record whose `within` can hold in the cell,
/// and `within` implies the envelope filter.
pub struct CellCover<'s, E: RefinementEngine> {
    set: &'s PreparedSet<E>,
    grid: CellGrid,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl<'s, E: RefinementEngine> CellCover<'s, E> {
    /// Covers `set` on `threads` workers, or `None` when the engine has
    /// no covering or the set was not prepared for `Within`. One
    /// dispatch unit per [`BUILD_CHUNK`] records in the tree's visit
    /// order, so the unit count does not depend on the thread count;
    /// the units' `(cell, item)` rows are stitched in unit order and
    /// counting-sorted by cell, which keeps visit order within a cell.
    pub fn build(set: &'s PreparedSet<E>, engine: &E, threads: usize) -> Option<Self> {
        let cover = engine.within_cover()?;
        if set.predicate != SpatialPredicate::Within {
            return None;
        }
        let entries = set.entries();
        let extent = entries
            .iter()
            .fold(Envelope::EMPTY, |e, (env, _)| e.union(env));
        let grid = CellGrid::new(extent, grid_side(entries.len()));
        let order = set.tree.visit_order();
        let units = order.len().div_ceil(BUILD_CHUNK);
        let run = dispatch(
            units,
            threads,
            ScheduleMode::Dynamic,
            |i, out: &mut Vec<(u32, u32)>| {
                let mut cells = Vec::new();
                for &pos in &order[i * BUILD_CHUNK..((i + 1) * BUILD_CHUNK).min(order.len())] {
                    cells.clear();
                    cover(&entries[pos as usize].1 .1, &grid, &mut cells);
                    out.extend(
                        cells
                            .iter()
                            .map(|&(cell, interior)| (cell, pos << 1 | u32::from(interior))),
                    );
                }
            },
        )
        .or_raise();
        obs::add_thread(&run.exec.worker_counters);

        let mut offsets = vec![0u32; grid.cells() + 1];
        for &(cell, _) in &run.out {
            offsets[cell as usize + 1] += 1;
        }
        for c in 0..grid.cells() {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut items = vec![0u32; run.out.len()];
        for &(cell, item) in &run.out {
            items[cursor[cell as usize] as usize] = item;
            cursor[cell as usize] += 1;
        }
        Some(CellCover {
            set,
            grid,
            offsets,
            items,
        })
    }

    /// The grid the covering uses.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Heap bytes of the offsets and items arrays.
    pub fn bytes(&self) -> usize {
        4 * (self.offsets.len() + self.items.len())
    }

    /// Probes one morsel of left points through the cells, flushing
    /// its counts once.
    fn probe_slice(&self, engine: &E, morsel: &[PointRecord], out: &mut Vec<JoinPair>) {
        let entries = self.set.entries();
        let (mut interior, mut boundary, mut accepts) = (0u64, 0u64, 0u64);
        // tidy:alloc-free:start
        for &(left_id, p) in morsel {
            let Some(cell) = self.grid.cell_of(p) else {
                continue;
            };
            let c = cell as usize;
            for &item in &self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize] {
                let (right_id, target) = &entries[(item >> 1) as usize].1;
                if item & INTERIOR != 0 {
                    interior += 1;
                    out.push((left_id, *right_id));
                } else {
                    boundary += 1;
                    if engine.within(p, target) {
                        accepts += 1;
                        out.push((left_id, *right_id));
                    }
                }
            }
        }
        // tidy:alloc-free:end
        obs::cell_counts(interior, boundary, accepts);
    }

    /// Probes `left` in parallel morsels, returning pairs in input
    /// order and the pool's [`obs::ExecStats`]. Like
    /// [`PreparedSet::par_probe_observed`], worker counters are
    /// returned, not folded into the calling thread; a panicking morsel
    /// is re-raised.
    pub(crate) fn par_probe(
        &self,
        left: &[PointRecord],
        engine: &E,
        cfg: MorselConfig,
    ) -> (Vec<JoinPair>, obs::ExecStats) {
        let run = dispatch_morsels(left, cfg, |morsel, out| {
            self.probe_slice(engine, morsel, out);
        })
        .or_raise();
        (run.out, run.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{build_right_index, probe};
    use crate::JoinRequest;
    use geom::engine::PreparedEngine;
    use geom::{Geometry, Polygon};

    /// The serial reference: one R-tree, one probe loop.
    fn serial_join(left: &[PointRecord], right: &[GeomRecord]) -> Vec<JoinPair> {
        let tree = build_right_index(right, SpatialPredicate::Within, &PreparedEngine);
        let mut out = Vec::new();
        for &(id, p) in left {
            probe(
                &tree,
                SpatialPredicate::Within,
                &PreparedEngine,
                id,
                p,
                &mut out,
            );
        }
        out
    }

    fn grid_points(n: usize) -> Vec<PointRecord> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push((
                    (i * n + j) as i64,
                    Point::new(i as f64 + 0.5, j as f64 + 0.5),
                ));
            }
        }
        v
    }

    fn quadrant_polys(half: f64) -> Vec<GeomRecord> {
        let q = |id, x0: f64, y0: f64| {
            (
                id,
                Geometry::Polygon(Polygon::rectangle(Envelope::new(
                    x0,
                    y0,
                    x0 + half,
                    y0 + half,
                ))),
            )
        };
        vec![
            q(0, 0.0, 0.0),
            q(1, half, 0.0),
            q(2, 0.0, half),
            q(3, half, half),
        ]
    }

    #[test]
    fn parallel_broadcast_is_bit_identical_to_serial() {
        let left = grid_points(20);
        let right = quadrant_polys(10.0);
        let engine = PreparedEngine;
        let serial = serial_join(&left, &right);
        for threads in [1, 2, 4, 7] {
            for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
                for morsel_size in [3, 64, 100_000] {
                    let cfg = MorselConfig {
                        threads,
                        mode,
                        morsel_size,
                    };
                    let par = JoinRequest::new(&left, &right, &engine)
                        .config(cfg)
                        .run()
                        .pairs;
                    assert_eq!(
                        par, serial,
                        "threads={threads} mode={mode:?} morsel={morsel_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_set_reports_size_and_predicate() {
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&quadrant_polys(2.0), SpatialPredicate::Within, &engine);
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!(set.predicate(), SpatialPredicate::Within);
        let empty = PreparedSet::prepare(&[], SpatialPredicate::Within, &engine);
        assert!(empty.is_empty());
    }

    #[test]
    fn cell_cover_needs_a_covering_engine_and_within() {
        let right = quadrant_polys(5.0);
        let within = PreparedSet::prepare(&right, SpatialPredicate::Within, &PreparedEngine);
        let cells = CellCover::build(&within, &PreparedEngine, 2).expect("covered");
        // Four records: a ceil(4 · 2) = 8-cell side over the 10 × 10
        // extent; every record lists at least one cell.
        assert_eq!(cells.grid().side(), 8);
        assert!(cells.bytes() > 4 * (64 + 1 + 4));
        let nearest =
            PreparedSet::prepare(&right, SpatialPredicate::NearestD(1.0), &PreparedEngine);
        assert!(CellCover::build(&nearest, &PreparedEngine, 2).is_none());
        let flat =
            PreparedSet::prepare(&right, SpatialPredicate::Within, &geom::engine::FlatEngine);
        assert!(CellCover::build(&flat, &geom::engine::FlatEngine, 2).is_none());
    }

    #[test]
    fn tagged_probe_matches_untimed_probe() {
        let left = grid_points(12);
        let right = quadrant_polys(6.0);
        let engine = PreparedEngine;
        let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);
        let serial = serial_join(&left, &right);
        for mode in [ScheduleMode::Dynamic, ScheduleMode::Static] {
            let cfg = MorselConfig {
                threads: 4,
                mode,
                morsel_size: 10,
            };
            let (pairs, timings, _) = set.par_probe_observed(&left, &engine, cfg);
            assert_eq!(pairs, serial, "{mode:?}");
            assert_eq!(
                timings.len(),
                left.len().div_ceil(cfg.morsel_size),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn empty_sides_yield_empty_output() {
        let engine = PreparedEngine;
        let left = grid_points(3);
        let join = |left, right| JoinRequest::new(left, right, &engine).threads(4);
        assert!(join(&[], &[]).run().pairs.is_empty());
        assert!(join(&left, &[]).run().pairs.is_empty());
    }
}
