//! Morsel-driven parallel join executor with prepare-once geometry
//! sharing.
//!
//! The paper's systems get their speed from running the broadcast
//! R-tree probe in parallel — dynamic task scheduling on Spark, static
//! OpenMP-style chunking in Impala (§IV–V). This module is the single
//! executor behind both: the right side is prepared **once** into a
//! shared [`PreparedSet`] (an STR tree over each record's id and
//! engine-prepared geometry under its expanded envelope; the tree keeps
//! the envelopes apart from these payloads, both in leaf order, so the
//! filter streams envelopes only), and the left side is probed in
//! fixed-size morsels of its [`probe_order`] (Z-order) handed to
//! [`cluster::dispatch`]. ISP-MC's fragments reuse the same set. A
//! broadcast `Within` request on an engine with a cell covering builds
//! a [`CellCover`] over the set and probes its cells instead of the
//! tree.
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
//! bulk-loaded from the same envelope sequence as a one-thread
//! [`PreparedSet::prepare`] (STR packing is a stable sort over envelope
//! centres, so the entry permutation and hence traversal order are
//! identical). The probe's visit order depends on the left side alone;
//! each point is probed by one morsel, which appends its
//! matches contiguously in the tree's visit order; the pool stitches
//! morsel buffers in morsel order; and a stable counting scatter by
//! input position puts every point's matches back at its input
//! position. Scheduling only decides *who* runs a morsel, never what it
//! appends.

use cluster::{dispatch, Dispatched, ScheduleMode, TaskFailure, TaskTiming};
use geom::cells::CellGrid;
use geom::engine::{RefinementEngine, SpatialPredicate};
use geom::{Envelope, HasEnvelope, Point};
use minihdfs::BlockRef;
use rtree::RTree;
use std::time::Instant;

use crate::reader::RecordReader;
use crate::{GeomRecord, JoinPair, PointRecord};

/// Default morsel size: small enough for dynamic scheduling to balance
/// skewed probe costs, large enough to amortise dispatch overhead.
pub const DEFAULT_MORSEL_SIZE: usize = 2048;

/// Parallelism settings for the morsel executor.
#[derive(Debug, Clone, Copy)]
pub struct MorselConfig {
    /// Worker threads (1 = serial inline execution); morsels are
    /// handed to them dynamically.
    pub threads: usize,
    /// Left points per morsel.
    pub morsel_size: usize,
}

impl MorselConfig {
    /// `threads` workers, dynamic scheduling, default morsel size.
    pub fn new(threads: usize) -> MorselConfig {
        MorselConfig {
            threads: threads.max(1),
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
    /// Filter tree over `(id, prepared geometry)` items in leaf order,
    /// their envelopes already expanded by the predicate's filter
    /// radius.
    tree: RTree<(i64, E::Prepared)>,
    predicate: SpatialPredicate,
    /// Serial-equivalent build seconds: summed per-unit work plus the
    /// bulk load.
    build_work: f64,
    /// Seconds of the STR bulk load alone.
    bulk_load: f64,
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
    /// the STR tree sees the same envelope sequence (hence the same
    /// packing) at any thread count. A panicking unit is re-raised.
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
        let bulk_load = t0.elapsed().as_secs_f64();
        let unit_work: f64 = run.timings.iter().map(|t| t.secs).sum();
        PreparedSet {
            tree,
            predicate,
            build_work: unit_work + bulk_load,
            bulk_load,
        }
    }

    /// Serial-equivalent seconds the build took: the summed per-unit
    /// work plus the assemble and bulk-load step — what one thread
    /// would have spent, not the parallel wall time. The replay models
    /// charge this as the per-instance build cost.
    pub fn build_work(&self) -> f64 {
        self.build_work
    }

    /// Wall seconds of the build's serial STR bulk load, the part of
    /// [`PreparedSet::build_work`] that no unit runs.
    pub fn bulk_load_secs(&self) -> f64 {
        self.bulk_load
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
        self.tree.items().iter().map(|(id, _)| *id).collect()
    }

    /// The predicate the set was prepared for.
    pub fn predicate(&self) -> SpatialPredicate {
        self.predicate
    }

    /// Probes the shared tree with one point, appending
    /// `(left, right id)` matches: `left` is the left record's id, or
    /// any other key the caller collects pairs under, such as the
    /// point's input position for a probe that runs out of input order
    /// and scatters back afterwards.
    ///
    /// Entry envelopes were expanded by the filter radius at build
    /// time, so the query itself uses radius zero. For
    /// [`SpatialPredicate::Nearest`] the arg-min over candidates is
    /// applied here: at most one pair is emitted per point, ties broken
    /// by the smaller right id.
    #[inline]
    pub fn probe_into<L: Copy>(&self, engine: &E, left: L, p: Point, out: &mut Vec<(L, i64)>) {
        let (tree, predicate) = (&self.tree, self.predicate);
        // The hot loop of every join in the workspace: one refinement
        // call per candidate surviving the envelope filter, zero
        // allocation. Node/candidate/accept counts accumulate in locals
        // and flush through a single thread-local access per probe.
        // tidy:alloc-free:start
        let mut candidates: u64 = 0;
        let mut accepts: u64 = 0;
        if let SpatialPredicate::Nearest(d) = predicate {
            let mut best: Option<(f64, i64)> = None;
            let nodes = tree.for_each_within_distance(p, 0.0, |(rid, target)| {
                candidates += 1;
                let dist = engine.distance(p, target);
                if dist <= d {
                    accepts += 1;
                    let better = match best {
                        None => true,
                        Some((bd, bid)) => dist < bd || (dist == bd && *rid < bid),
                    };
                    if better {
                        best = Some((dist, *rid));
                    }
                }
            });
            if let Some((_, rid)) = best {
                out.push((left, rid));
            }
            obs::probe_counts(nodes, candidates, accepts);
            return;
        }
        let nodes = tree.for_each_within_distance(p, 0.0, |(rid, target)| {
            candidates += 1;
            if predicate.eval(engine, p, target) {
                accepts += 1;
                out.push((left, *rid));
            }
        });
        obs::probe_counts(nodes, candidates, accepts);
        // tidy:alloc-free:end
    }

    /// Probes `left` in parallel morsels, returning pairs in the same
    /// order the serial loop of [`PreparedSet::probe_into`] would emit
    /// them, per-morsel wall-clock timings (indexed by morsel position,
    /// for replay through the cluster simulator) and the pool's
    /// [`obs::ExecStats`].
    ///
    /// The points are visited in [`probe_order`], so consecutive probes
    /// walk nearby tree paths; morsels are chunks of that order. Each
    /// unit emits `(input position, right id)` and a stable counting
    /// scatter writes the pairs back in input order, keeping each
    /// point's matches in the tree's visit order.
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
        let order = probe_order(left);
        let size = cfg.morsel_size.max(1);
        let run = dispatch(
            order.len().div_ceil(size),
            cfg.threads,
            ScheduleMode::Dynamic,
            |i, out: &mut Vec<(u32, i64)>| {
                // tidy:alloc-free:start
                for &pos in &order[i * size..((i + 1) * size).min(order.len())] {
                    self.probe_into(engine, pos, left[pos as usize].1, out);
                }
                // tidy:alloc-free:end
            },
        )
        .or_raise();
        (scatter(left, &run.out), run.timings, run.exec)
    }
}

/// The order the tree probe visits `left` in: input positions sorted by
/// the Morton (Z-order) key of each point on a 2¹⁶ × 2¹⁶ grid over the
/// points' extent, ties by position. It depends only on `left`.
/// Non-finite coordinates get some cell (the casts saturate) and never
/// panic. A side already in this order maps to the identity.
pub fn probe_order(left: &[PointRecord]) -> Vec<u32> {
    let mut extent = Envelope::EMPTY;
    for &(_, p) in left {
        extent.expand_to(p.x, p.y);
    }
    let cell = |v: f64, lo: f64, span: f64| -> u64 {
        if span > 0.0 {
            // `as` saturates: NaN goes to 0, overflow to the last cell.
            (((v - lo) / span * 65536.0) as u64).min(65535)
        } else {
            0
        }
    };
    let (w, h) = (extent.width(), extent.height());
    let mut keys: Vec<u64> = left
        .iter()
        .enumerate()
        .map(|(i, &(_, p))| {
            let z = spread_bits(cell(p.x, extent.min_x, w))
                | spread_bits(cell(p.y, extent.min_y, h)) << 1;
            z << 32 | i as u64
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

/// Spreads the low 16 bits of `v` to the even bit positions.
fn spread_bits(v: u64) -> u64 {
    let mut v = v & 0xFFFF;
    v = (v | v << 8) & 0x00FF_00FF;
    v = (v | v << 4) & 0x0F0F_0F0F;
    v = (v | v << 2) & 0x3333_3333;
    (v | v << 1) & 0x5555_5555
}

/// Writes `(position, right id)` hits back as `(left id, right id)`
/// pairs in input-position order: a stable counting sort by position,
/// so one position's hits keep their relative order.
fn scatter(left: &[PointRecord], hits: &[(u32, i64)]) -> Vec<JoinPair> {
    let mut next = vec![0usize; left.len() + 1];
    for &(pos, _) in hits {
        next[pos as usize + 1] += 1;
    }
    for i in 0..left.len() {
        next[i + 1] += next[i];
    }
    let mut out = vec![(0, 0); hits.len()];
    // tidy:alloc-free:start
    for &(pos, right_id) in hits {
        let slot = &mut next[pos as usize];
        out[*slot] = (left[pos as usize].0, right_id);
        *slot += 1;
    }
    // tidy:alloc-free:end
    out
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
        let items = set.tree.items();
        let extent = set
            .tree
            .envelopes()
            .iter()
            .fold(Envelope::EMPTY, |e, env| e.union(env));
        let grid = CellGrid::new(extent, grid_side(items.len()));
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
                    cover(&items[pos as usize].1, &grid, &mut cells);
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
        let items = self.set.tree.items();
        let (mut interior, mut boundary, mut accepts) = (0u64, 0u64, 0u64);
        // tidy:alloc-free:start
        for &(left_id, p) in morsel {
            let Some(cell) = self.grid.cell_of(p) else {
                continue;
            };
            let c = cell as usize;
            for &item in &self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize] {
                let (right_id, target) = &items[(item >> 1) as usize];
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

    /// Probes `left` in parallel morsels of input order (a cell probe
    /// touches one cell list, so visiting the points in Z-order costs
    /// about what it saves), returning pairs in input order and the
    /// pool's [`obs::ExecStats`]. Like
    /// [`PreparedSet::par_probe_observed`], worker counters are
    /// returned, not folded into the calling thread; a panicking morsel
    /// is re-raised.
    pub(crate) fn par_probe(
        &self,
        left: &[PointRecord],
        engine: &E,
        cfg: MorselConfig,
    ) -> (Vec<JoinPair>, obs::ExecStats) {
        let size = cfg.morsel_size.max(1);
        let run = dispatch(
            left.len().div_ceil(size),
            cfg.threads,
            ScheduleMode::Dynamic,
            |i, out| {
                self.probe_slice(
                    engine,
                    &left[i * size..((i + 1) * size).min(left.len())],
                    out,
                );
            },
        )
        .or_raise();
        (run.out, run.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JoinRequest;
    use geom::engine::PreparedEngine;
    use geom::{Geometry, Polygon};

    /// The serial reference: a one-thread build, then the probe loop in
    /// input order.
    fn serial_join(left: &[PointRecord], right: &[GeomRecord]) -> Vec<JoinPair> {
        let set = PreparedSet::prepare(right, SpatialPredicate::Within, &PreparedEngine);
        let mut out = Vec::new();
        for &(id, p) in left {
            set.probe_into(&PreparedEngine, id, p, &mut out);
        }
        out
    }

    /// Pairs one point emits against two horizontal lines at y = 0
    /// (id 10) and y = 4 (id 11).
    fn probe_lines(predicate: SpatialPredicate, p: Point) -> Vec<(i64, i64)> {
        let right: Vec<GeomRecord> = [
            (10, "LINESTRING (0 0, 10 0)"),
            (11, "LINESTRING (0 4, 10 4)"),
        ]
        .into_iter()
        .map(|(id, wkt)| (id, geom::wkt::parse(wkt).unwrap()))
        .collect();
        let set = PreparedSet::prepare(&right, predicate, &PreparedEngine);
        let mut out = Vec::new();
        set.probe_into(&PreparedEngine, 7, p, &mut out);
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
            for morsel_size in [3, 64, 100_000] {
                let cfg = MorselConfig {
                    threads,
                    morsel_size,
                };
                let par = JoinRequest::new(&left, &right, &engine)
                    .config(cfg)
                    .run()
                    .pairs;
                assert_eq!(par, serial, "threads={threads} morsel={morsel_size}");
            }
        }
    }

    #[test]
    fn indexed_join_matches_nested_loop() {
        let left = grid_points(10);
        let right = quadrant_polys(5.0);
        let indexed = crate::normalize_pairs(serial_join(&left, &right));
        let nested = JoinRequest::new(&left, &right, &PreparedEngine)
            .nested_loop()
            .run()
            .pairs;
        assert_eq!(indexed, crate::normalize_pairs(nested));
        assert_eq!(indexed.len(), 100);
    }

    #[test]
    fn nearest_emits_single_argmin_pair() {
        // y = 1 is nearer to the y = 0 line.
        let out = probe_lines(SpatialPredicate::Nearest(5.0), Point::new(5.0, 1.0));
        assert_eq!(out, vec![(7, 10)]);
    }

    #[test]
    fn nearest_tie_breaks_by_smaller_right_id() {
        // y = 2 is equidistant from both lines.
        let out = probe_lines(SpatialPredicate::Nearest(5.0), Point::new(5.0, 2.0));
        assert_eq!(out, vec![(7, 10)]);
    }

    #[test]
    fn nearestd_emits_every_candidate_in_range() {
        let mut out = probe_lines(SpatialPredicate::NearestD(3.0), Point::new(5.0, 2.0));
        out.sort_unstable();
        assert_eq!(out, vec![(7, 10), (7, 11)]);
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
        let cfg = MorselConfig {
            threads: 4,
            morsel_size: 10,
        };
        let (pairs, timings, _) = set.par_probe_observed(&left, &engine, cfg);
        assert_eq!(pairs, serial_join(&left, &right));
        assert_eq!(timings.len(), left.len().div_ceil(cfg.morsel_size));
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
