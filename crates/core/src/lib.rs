//! # spatialjoin — large-scale spatial join query processing
//!
//! The paper's primary contribution, rebuilt on the workspace's
//! substrates: indexed spatial joins with two predicates —
//! point-in-polygon (**Within**) and nearest-polyline-within-distance
//! (**NearestD**) — implemented as two complete systems plus the serial
//! building blocks they share:
//!
//! * [`request`] — the one join front door, [`JoinRequest`]: broadcast
//!   R-tree indexed (cell-covered for `Within` on `PreparedEngine`) and
//!   nested-loop joins, serial or parallel, each returning its pairs
//!   plus an `obs::RunStats`.
//! * [`join`] — the serial building blocks: the right-side R-tree and
//!   per-point probe, the serial reference loop.
//! * [`parallel`] — the morsel-driven parallel executor behind both
//!   systems: the right side prepared once into a shared
//!   [`PreparedSet`], the left side probed in fixed-size morsels with
//!   deterministic, serial-identical output.
//! * [`reader`] — the one record reader, [`RecordReader`], with a typed
//!   error per malformed line.
//! * [`spark`] — **SpatialSpark**: the join expressed as sparklet
//!   dataset transformations (the paper's Fig. 2 skeleton), JTS-like
//!   prepared-geometry refinement, dynamic scheduling.
//! * [`ispmc`] — **ISP-MC**: the join pushed into the impalite SQL
//!   engine via the `SPATIAL JOIN` keyword, GEOS-like naive refinement,
//!   static scheduling — plus the standalone variant of Table 1; its
//!   plan fragments run in [`exec`] on the same [`PreparedSet`].
//!
//! Both systems execute the real join locally and expose
//! simulated-cluster runtimes for any node count, which is how the
//! benches regenerate the paper's tables and figures.

pub mod error;
pub mod exec;
pub mod ispmc;
pub mod join;
pub mod parallel;
pub mod reader;
pub mod request;
pub mod spark;

pub use error::SpatialJoinError;
pub use geom::engine::SpatialPredicate;
pub use ispmc::{IspMc, IspMcRun};
pub use parallel::{CellCover, MorselConfig, PreparedSet};
pub use reader::{RecordError, RecordReader};
pub use request::{JoinOutcome, JoinRequest, JoinStrategy};
pub use spark::{SpatialSpark, SpatialSparkRun};

/// A record ready for joining: id plus parsed geometry.
pub type GeomRecord = (i64, geom::Geometry);

/// A point-side record.
pub type PointRecord = (i64, geom::Point);

/// A matched output pair `(left id, right id)`.
pub type JoinPair = (i64, i64);

/// Canonical ordering for comparing join outputs across systems.
pub fn normalize_pairs(mut pairs: Vec<JoinPair>) -> Vec<JoinPair> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}
