//! # geom — computational geometry kernel
//!
//! A from-scratch geometry library providing everything the spatial join
//! systems in this workspace need:
//!
//! * a geometry model ([`Point`], [`LineString`], [`Polygon`],
//!   [`MultiPolygon`], [`MultiLineString`], [`Geometry`]) backed by flat
//!   `f64` coordinate arrays,
//! * axis-aligned bounding boxes ([`Envelope`]) with the usual algebra,
//! * a Well-Known Text reader and writer ([`wkt`]),
//! * the computational-geometry predicates used by the paper's two join
//!   types: point-in-polygon tests (`Within`) and point-to-polyline
//!   distance (`NearestD`),
//! * three interchangeable *refinement engines* (see [`engine`]):
//!   [`engine::FlatEngine`] models JTS as the paper's Fig. 2 calls it
//!   (flat arrays, full edge scans, no per-call allocation),
//!   [`engine::NaiveEngine`] models GEOS as characterised by the paper —
//!   it "frequently creates and destroys small objects", which is
//!   exactly what makes it slow — and [`engine::PreparedEngine`], the
//!   one fast engine beyond both libraries: a banded edge index for
//!   refinement, and the cell-covering engine for `Within`, which covers
//!   every polygon on one fixed-precision [`cells::CellGrid`] so that a
//!   point in an interior cell is a hit without refinement.
//!
//! All engines produce bit-identical predicate results; they differ only
//! in memory discipline and indexing, and therefore speed. The paper
//! attributes most of SpatialSpark's advantage over ISP-MC to the
//! JTS/GEOS difference (§V.B).

pub mod algorithms;
pub mod binary;
pub mod cells;
mod decimal;
pub mod engine;
pub mod envelope;
pub mod error;
pub mod geometry;
pub mod linestring;
pub mod multi;
pub mod naive;
pub mod point;
pub mod polygon;
pub mod prepared;
pub mod wkt;

pub use envelope::Envelope;
pub use error::GeomError;
pub use geometry::Geometry;
pub use linestring::LineString;
pub use multi::{MultiLineString, MultiPoint, MultiPolygon};
pub use point::Point;
pub use polygon::Polygon;
pub use prepared::{PreparedLineString, PreparedPolygon};

/// Anything with a minimum bounding box.
///
/// Spatial filtering (the first phase of the filter-refine pipeline) works
/// purely on envelopes, so every indexable type implements this.
pub trait HasEnvelope {
    /// The minimum bounding box of the object.
    fn envelope(&self) -> Envelope;
}

impl HasEnvelope for Envelope {
    fn envelope(&self) -> Envelope {
        *self
    }
}
