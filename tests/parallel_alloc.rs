//! Allocation accounting for the morsel-parallel executor: a counting
//! global allocator proves the probe phase performs **zero per-morsel
//! geometry clones**.
//!
//! The right side is built from high-vertex polygons so that even a
//! single accidental geometry copy would dwarf the legitimate probe
//! allocations (worker output buffers, morsel bookkeeping, the
//! stitched result vector). The whole file is one `#[test]` because
//! the counters are process-global.

#![allow(unsafe_code)]

use geom::engine::{PreparedEngine, SpatialPredicate};
use geom::{Point, Polygon};
use spatialjoin::parallel::{MorselConfig, PreparedSet};
use spatialjoin::{GeomRecord, PointRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are side-effect-only and never influence the returned
// pointers or layouts.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: trait method; forwards to `System.alloc` under the
    // caller's own layout obligations.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: trait method; forwards to `System.dealloc` under the
    // caller's own pointer/layout obligations.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A star polygon with `vertices` exterior points around (cx, cy).
fn heavy_polygon(cx: f64, cy: f64, radius: f64, vertices: usize) -> Polygon {
    let mut coords = Vec::with_capacity((vertices + 1) * 2);
    for i in 0..vertices {
        let theta = std::f64::consts::TAU * i as f64 / vertices as f64;
        coords.push(cx + radius * theta.cos());
        coords.push(cy + radius * theta.sin());
    }
    coords.push(coords[0]);
    coords.push(coords[1]);
    Polygon::from_coords(coords, vec![]).expect("radial polygons are valid")
}

#[test]
fn par_probe_allocates_far_less_than_one_geometry_copy() {
    const VERTICES: usize = 400;
    const POLYGONS: usize = 200;

    // 200 polygons × ~400 vertices × 2 coords × 8 bytes ≈ 1.3 MB of
    // coordinate data. One hidden clone per morsel (32 morsels below)
    // would show up as ~41 MB.
    let right: Vec<GeomRecord> = (0..POLYGONS)
        .map(|i| {
            let cx = (i % 20) as f64 * 10.0 + 5.0;
            let cy = (i / 20) as f64 * 10.0 + 5.0;
            (
                i as i64,
                geom::Geometry::Polygon(heavy_polygon(cx, cy, 4.0, VERTICES)),
            )
        })
        .collect();
    let coord_bytes = POLYGONS * (VERTICES + 1) * 2 * std::mem::size_of::<f64>();

    let left: Vec<PointRecord> = (0..2_000)
        .map(|i| {
            let x = (i % 200) as f64;
            let y = (i / 200) as f64 * 10.0 + 5.0;
            (i as i64, Point::new(x, y))
        })
        .collect();

    let engine = PreparedEngine;
    let set = PreparedSet::prepare(&right, SpatialPredicate::Within, &engine);
    let cfg = MorselConfig {
        threads: 4,
        morsel_size: 64,
    };

    // Warm-up run: pays one-off costs (thread bookkeeping, lazily
    // initialised runtime state) outside the measured window.
    let (warm, _, _) = set.par_probe_observed(&left, &engine, cfg);

    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let (pairs, _, _) = set.par_probe_observed(&left, &engine, cfg);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls_before;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;

    assert_eq!(pairs, warm, "probe must be deterministic across runs");
    assert!(!pairs.is_empty(), "workload must produce matches");

    // Legitimate allocations: per-worker output buffers and timing
    // segments, the stitch order, the final result vector, and
    // per-thread spawn bookkeeping. All of it is
    // far below one copy of the right-side coordinate data.
    assert!(
        bytes < coord_bytes / 2,
        "probe allocated {bytes} bytes; one geometry copy is {coord_bytes} — \
         a per-morsel clone would exceed this many times over"
    );
    // Allocation *count* stays bounded by morsels + threads work, not
    // by candidate pairs: the inner probe loop is alloc-free.
    let morsels = left.len().div_ceil(cfg.morsel_size);
    assert!(
        calls < 40 * (morsels + cfg.threads) + 200,
        "probe made {calls} allocator calls across {morsels} morsels"
    );
}
