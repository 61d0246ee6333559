//! # datagen — deterministic synthetic datasets
//!
//! The paper's experiments use five real datasets that we cannot ship:
//!
//! | name  | contents                              | size        |
//! |-------|---------------------------------------|-------------|
//! | taxi  | NYC taxi pickup points                | ~170 M pts  |
//! | nycb  | NYC census-block polygons             | ~40 K polys, ~9 vertices avg |
//! | lion  | NYC street-network polylines          | ~200 K lines |
//! | G10M  | GBIF species-occurrence points        | ~10 M pts   |
//! | wwf   | WWF terrestrial ecoregion polygons    | 14,458 polys, 4,028,622 vertices (279 avg) |
//!
//! Each generator below reproduces the statistics the paper's results
//! depend on — cardinality, geometry type, vertex-count distribution,
//! extent and spatial skew — from a seed, so every run is reproducible.
//! NYC datasets use a planar foot coordinate system (the LION data's
//! native NY state-plane feet), which makes the paper's `NearestD`
//! distances of 100 ft and 500 ft directly meaningful; the global
//! datasets use degrees.
//!
//! Record format matches the paper's HDFS layout: one record per line,
//! tab-separated columns, geometry as WKT.

pub mod gbif;
pub mod lion;
pub mod nycb;
pub mod rng;
pub mod taxi;
pub mod wwf;

use geom::{Envelope, Geometry};
use minihdfs::{DfsError, FileStat, MiniDfs};

/// Full-size cardinalities reported in the paper (§V.A).
pub mod full_size {
    /// NYC taxi pickup points.
    pub const TAXI: usize = 170_000_000;
    /// NYC census blocks.
    pub const NYCB: usize = 40_000;
    /// LION street segments.
    pub const LION: usize = 200_000;
    /// GBIF occurrence sample.
    pub const G10M: usize = 10_000_000;
    /// WWF ecoregions.
    pub const WWF: usize = 14_458;
    /// Average vertices per wwf polygon.
    pub const WWF_AVG_VERTICES: usize = 279;
    /// Average vertices per nycb polygon.
    pub const NYCB_AVG_VERTICES: usize = 9;
}

/// NYC extent in a planar foot coordinate system (about 17 × 23 miles,
/// the bounding box of the five boroughs).
pub const NYC_EXTENT: Envelope = Envelope {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 90_000.0,
    max_y: 120_000.0,
};

/// Global extent in degrees for the GBIF/WWF datasets.
pub const WORLD_EXTENT: Envelope = Envelope {
    min_x: -180.0,
    min_y: -90.0,
    max_x: 180.0,
    max_y: 90.0,
};

/// Scale factor applied to the *point* (left) sides of the joins so the
/// reproduction runs on one machine; the polygon/polyline (right) sides
/// are generated at full cardinality because they are small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Applies the scale to a full-size cardinality (at least 1).
    pub fn apply(&self, full: usize) -> usize {
        ((full as f64 * self.0).round() as usize).max(1)
    }
}

/// Serialises `(id, geometry)` records to the paper's tab-separated WKT
/// line format.
pub fn to_wkt_lines<'a, I>(geoms: I) -> Vec<String>
where
    I: IntoIterator<Item = &'a Geometry>,
{
    geoms
        .into_iter()
        .enumerate()
        .map(|(id, g)| {
            let mut line = format!("{id}\t");
            geom::wkt::write_into(g, &mut line);
            line
        })
        .collect()
}

/// Writes `(id, wkt)` records for `geoms` to a DFS file.
///
/// # Errors
/// Propagates [`DfsError`] from the underlying file system.
pub fn write_dataset(dfs: &MiniDfs, path: &str, geoms: &[Geometry]) -> Result<FileStat, DfsError> {
    dfs.write_lines(path, to_wkt_lines(geoms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    #[test]
    fn scale_applies_with_floor_of_one() {
        assert_eq!(Scale(0.001).apply(170_000_000), 170_000);
        assert_eq!(Scale(1e-12).apply(100), 1);
        assert_eq!(Scale(1.0).apply(42), 42);
    }

    #[test]
    fn wkt_lines_are_tab_separated_with_ids() {
        let geoms = vec![
            Geometry::Point(Point::new(1.0, 2.0)),
            Geometry::Point(Point::new(3.0, 4.0)),
        ];
        let lines = to_wkt_lines(&geoms);
        assert_eq!(lines[0], "0\tPOINT (1 2)");
        assert_eq!(lines[1], "1\tPOINT (3 4)");
    }

    #[test]
    fn write_dataset_round_trips_through_dfs() {
        let dfs = MiniDfs::new(2, 1024).unwrap();
        let geoms = vec![Geometry::Point(Point::new(5.0, 6.0))];
        let stat = write_dataset(&dfs, "/pts", &geoms).unwrap();
        assert_eq!(stat.total_records, 1);
        let lines = dfs.read_all_lines("/pts").unwrap();
        let wkt_col = lines.iter().next().unwrap().split('\t').nth(1).unwrap();
        assert_eq!(
            geom::wkt::parse(wkt_col).unwrap().as_point(),
            Some(Point::new(5.0, 6.0))
        );
    }
}
