//! Low-level computational-geometry routines shared by both refinement
//! engines.
//!
//! The paper calls this layer *spatial refinement*: "evaluating the
//! spatial relationships between the paired spatial objects", which
//! "relies on efficient computational geometry algorithms" (§II).

pub mod distance;
pub mod pip;
pub mod segment;
