//! Workspace umbrella crate.
//!
//! Re-exports every crate in the workspace so the integration tests in
//! `tests/` and the examples in `examples/` can reach the whole system
//! through a single dependency.

pub use cluster;
pub use datagen;
pub use geom;
pub use impalite;
pub use minihdfs;
pub use rtree;
pub use sparklet;
pub use spatialjoin;
