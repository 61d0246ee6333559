//! # rtree — spatial indexing
//!
//! Index structures for the *spatial filtering* phase of the joins:
//!
//! * [`RTree`] — an STR (Sort-Tile-Recursive) bulk-loaded R-tree, the
//!   analogue of JTS's `STRtree` that SpatialSpark broadcasts (Fig. 2 of
//!   the paper) and of the in-memory R-tree ISP-MC builds from the
//!   broadcast right-side table (§IV).

pub mod str_tree;

pub use str_tree::RTree;
