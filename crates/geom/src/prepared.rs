//! Prepared geometries — the JTS-like fast refinement path.
//!
//! Preparation pays a one-time cost to build a small edge index per
//! geometry, after which every predicate evaluation runs allocation-free
//! over flat arrays. This models what JTS's `PreparedGeometry` /
//! `IndexedPointInAreaLocator` do, and is the representation used by the
//! SpatialSpark side of the reproduction.

use crate::algorithms::segment::{point_on_segment, point_segment_distance_sq};
use crate::cells::CellGrid;
use crate::envelope::Envelope;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::HasEnvelope;

/// Upper bound on the number of horizontal bands in the edge index.
const MAX_BANDS: usize = 512;

/// A polygon preprocessed for fast point-in-polygon tests.
///
/// All edges (exterior and holes) are bucketed into horizontal bands by
/// their y-interval; a query only scans the edges of the band containing
/// the query point. For the paper's wwf ecoregions (279 vertices on
/// average, some with thousands) this turns an O(n) scan into a handful
/// of edge tests.
#[derive(Debug, Clone)]
pub struct PreparedPolygon {
    env: Envelope,
    /// Edge coordinates, flattened: `[x1, y1, x2, y2]` per edge.
    edges: Vec<f64>,
    /// CSR layout of the band index: edges of band `b` are
    /// `band_edges[band_offsets[b]..band_offsets[b + 1]]`. Small
    /// polygons use a single band (the index would cost more than the
    /// scan it saves).
    band_offsets: Vec<u32>,
    band_edges: Vec<u32>,
    band_height: f64,
    num_points: usize,
}

impl PreparedPolygon {
    /// Prepares a polygon (exterior ring plus holes).
    pub fn new(poly: &Polygon) -> PreparedPolygon {
        let mut edges = Vec::with_capacity(poly.num_points() * 4);
        push_ring_edges(poly.exterior().coords(), &mut edges);
        for h in poly.holes() {
            push_ring_edges(h.coords(), &mut edges);
        }
        Self::from_edges(poly.envelope(), edges, poly.num_points())
    }

    fn from_edges(env: Envelope, edges: Vec<f64>, num_points: usize) -> PreparedPolygon {
        let num_edges = edges.len() / 4;
        // Below ~32 edges a full scan beats any index; use one band.
        let num_bands = if num_edges <= 32 {
            1
        } else {
            (num_edges / 4).clamp(2, MAX_BANDS)
        };
        let height = env.height();
        let band_height = if height > 0.0 && num_bands > 1 {
            height / num_bands as f64
        } else {
            f64::INFINITY
        };

        // Two-pass CSR construction: count entries per band, prefix-sum
        // into offsets, then fill — three allocations total regardless
        // of polygon size.
        let mut counts = vec![0u32; num_bands];
        let band_span = |e: usize| {
            let y1 = edges[4 * e + 1];
            let y2 = edges[4 * e + 3];
            let lo = band_of(y1.min(y2), env.min_y, band_height, num_bands);
            let hi = band_of(y1.max(y2), env.min_y, band_height, num_bands);
            (lo, hi)
        };
        for e in 0..num_edges {
            let (lo, hi) = band_span(e);
            for c in counts.iter_mut().take(hi + 1).skip(lo) {
                *c += 1;
            }
        }
        let mut band_offsets = Vec::with_capacity(num_bands + 1);
        let mut acc = 0u32;
        band_offsets.push(0);
        for c in &counts {
            acc += c;
            band_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = band_offsets[..num_bands].to_vec();
        let mut band_edges = vec![0u32; acc as usize];
        for e in 0..num_edges {
            let (lo, hi) = band_span(e);
            for b in lo..=hi {
                band_edges[cursor[b] as usize] = e as u32;
                cursor[b] += 1;
            }
        }

        PreparedPolygon {
            env,
            edges,
            band_offsets,
            band_edges,
            band_height,
            num_points,
        }
    }

    /// The polygon's envelope.
    pub fn envelope(&self) -> Envelope {
        self.env
    }

    /// Total vertex count of the source polygon(s).
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Minimum distance from the point to the polygon: 0 inside,
    /// otherwise distance to the nearest stored edge.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        if self.contains_point(p) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for e in self.edges.chunks_exact(4) {
            let d = point_segment_distance_sq(p, Point::new(e[0], e[1]), Point::new(e[2], e[3]));
            if d < best {
                best = d;
            }
        }
        best.sqrt()
    }

    /// Point-in-polygon test (boundary counts as inside). Allocation-free.
    pub fn contains_point(&self, p: Point) -> bool {
        if !self.env.contains(p.x, p.y) {
            return false;
        }
        let num_bands = self.band_offsets.len() - 1;
        let band = band_of(p.y, self.env.min_y, self.band_height, num_bands);
        let start = self.band_offsets[band] as usize;
        let end = self.band_offsets[band + 1] as usize;
        let mut inside = false;
        for &e in &self.band_edges[start..end] {
            let i = 4 * e as usize;
            let (x1, y1) = (self.edges[i], self.edges[i + 1]);
            let (x2, y2) = (self.edges[i + 2], self.edges[i + 3]);
            if point_on_segment(p, Point::new(x1, y1), Point::new(x2, y2)) {
                return true;
            }
            if (y1 > p.y) != (y2 > p.y) {
                let x_int = x1 + (p.y - y1) * (x2 - x1) / (y2 - y1);
                if p.x < x_int {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Covers the polygon on `grid`, calling `mark(cell, interior)` once
    /// per cell the polygon may touch, in ascending cell order.
    ///
    /// A cell is *boundary* when the bounding box of some edge, widened
    /// by the grid margin, touches it. The remaining cells of each row
    /// form runs that no edge comes near, so the crossing parity — and
    /// with it [`PreparedPolygon::contains_point`] — is exact and
    /// constant across a run: the run is *interior* when the centre of
    /// its first cell is contained, and is left out otherwise. A hole
    /// reaching outside the exterior's envelope breaks the envelope
    /// test's constancy, so such a polygon covers its whole window as
    /// boundary.
    pub fn cover(&self, grid: &CellGrid, mut mark: impl FnMut(u32, bool)) {
        let (cols, rows) = grid.span(&self.env);
        let width = cols.len();
        let at =
            |col: u32, row: u32| (row - rows.start) as usize * width + (col - cols.start) as usize;
        let mut boundary = vec![false; width * rows.len()];
        for e in self.edges.chunks_exact(4) {
            let edge = Envelope::of_coords(e);
            if !self.env.contains_envelope(&edge) {
                boundary.fill(true);
                break;
            }
            let (ec, er) = grid.span(&edge);
            for row in er {
                for col in ec.clone() {
                    boundary[at(col, row)] = true;
                }
            }
        }
        for row in rows.clone() {
            let mut col = cols.start;
            while col < cols.end {
                if boundary[at(col, row)] {
                    mark(grid.id(col, row), false);
                    col += 1;
                    continue;
                }
                let run = col;
                while col < cols.end && !boundary[at(col, row)] {
                    col += 1;
                }
                if self.contains_point(grid.centre(run, row)) {
                    for c in run..col {
                        mark(grid.id(c, row), true);
                    }
                }
            }
        }
    }
}

impl HasEnvelope for PreparedPolygon {
    fn envelope(&self) -> Envelope {
        self.env
    }
}

fn push_ring_edges(coords: &[f64], edges: &mut Vec<f64>) {
    let n = coords.len() / 2;
    for i in 0..n.saturating_sub(1) {
        edges.push(coords[2 * i]);
        edges.push(coords[2 * i + 1]);
        edges.push(coords[2 * i + 2]);
        edges.push(coords[2 * i + 3]);
    }
}

#[inline]
fn band_of(y: f64, min_y: f64, band_height: f64, num_bands: usize) -> usize {
    let idx = ((y - min_y) / band_height) as isize;
    idx.clamp(0, num_bands as isize - 1) as usize
}

/// A polyline preprocessed for fast within-distance queries.
///
/// Segments are grouped into fixed-size blocks with precomputed block
/// envelopes so a query can skip whole blocks whose envelope is farther
/// than the search distance. A line of at most [`SEGS_PER_BLOCK`]
/// segments is one block whose envelope is the line's own, so it stores
/// no block envelopes: its segments are its only allocation.
#[derive(Debug, Clone)]
pub struct PreparedLineString {
    env: Envelope,
    /// `[x1, y1, x2, y2]` per segment, in input order.
    segments: Vec<f64>,
    /// One envelope per block of [`SEGS_PER_BLOCK`] segments; empty for
    /// a one-block line.
    block_envs: Vec<Envelope>,
    num_points: usize,
}

const SEGS_PER_BLOCK: usize = 8;

impl PreparedLineString {
    /// Prepares a polyline.
    pub fn new(ls: &LineString) -> PreparedLineString {
        Self::from_parts(std::slice::from_ref(ls))
    }

    /// Prepares several polylines (a MULTILINESTRING) into one structure.
    pub fn from_parts(parts: &[LineString]) -> PreparedLineString {
        let num_segs: usize = parts.iter().map(|ls| ls.num_points() - 1).sum();
        let mut segments = Vec::with_capacity(4 * num_segs);
        let mut env = Envelope::EMPTY;
        let mut num_points = 0;
        for ls in parts {
            for (a, b) in ls.segments() {
                segments.extend_from_slice(&[a.x, a.y, b.x, b.y]);
            }
            env = env.union(&ls.envelope());
            num_points += ls.num_points();
        }
        let block_envs = if num_segs <= SEGS_PER_BLOCK {
            Vec::new()
        } else {
            segments
                .chunks(SEGS_PER_BLOCK * 4)
                .map(Envelope::of_coords)
                .collect()
        };
        PreparedLineString {
            env,
            segments,
            block_envs,
            num_points,
        }
    }

    /// Prepares any line-ish [`Geometry`]; returns `None` otherwise.
    pub fn from_geometry(geom: &Geometry) -> Option<PreparedLineString> {
        match geom {
            Geometry::LineString(l) => Some(PreparedLineString::new(l)),
            Geometry::MultiLineString(ml) => Some(PreparedLineString::from_parts(&ml.lines)),
            _ => None,
        }
    }

    /// The polyline's envelope.
    pub fn envelope(&self) -> Envelope {
        self.env
    }

    /// Total vertex count of the source polyline(s).
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// `(envelope, segment coordinates)` per block; a one-block line is
    /// its own block, under its own envelope.
    fn blocks(&self) -> impl Iterator<Item = (&Envelope, &[f64])> {
        let whole = self
            .block_envs
            .is_empty()
            .then_some((&self.env, &self.segments[..]));
        whole.into_iter().chain(
            self.block_envs
                .iter()
                .zip(self.segments.chunks(SEGS_PER_BLOCK * 4)),
        )
    }

    /// True when `p` is within `distance` of the polyline. Every block
    /// envelope lies inside the line's, so a point far from the line is
    /// far from each block and needs no separate whole-line test.
    pub fn within_distance(&self, p: Point, distance: f64) -> bool {
        let d_sq = distance * distance;
        self.blocks().any(|(benv, block)| {
            benv.distance_to_point(p) <= distance && any_segment_within(block, p, d_sq)
        })
    }

    /// Minimum distance from `p` to the polyline.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let mut best = f64::INFINITY;
        for (benv, block) in self.blocks() {
            let lower = benv.distance_to_point(p);
            if lower * lower < best {
                best = nearest_segment_sq(block, p, best);
            }
        }
        best.sqrt()
    }
}

// The short-line kernels: one pass over flat `[x1, y1, x2, y2]` rows.
// tidy:alloc-free:start

/// True when some segment of `segments` lies within `sqrt(d_sq)` of `p`.
#[inline]
fn any_segment_within(segments: &[f64], p: Point, d_sq: f64) -> bool {
    segments.chunks_exact(4).any(|s| {
        point_segment_distance_sq(p, Point::new(s[0], s[1]), Point::new(s[2], s[3])) <= d_sq
    })
}

/// The smaller of `best` and the least squared distance from `p` to a
/// segment of `segments`.
#[inline]
fn nearest_segment_sq(segments: &[f64], p: Point, mut best: f64) -> f64 {
    for s in segments.chunks_exact(4) {
        let d = point_segment_distance_sq(p, Point::new(s[0], s[1]), Point::new(s[2], s[3]));
        if d < best {
            best = d;
        }
    }
    best
}
// tidy:alloc-free:end

impl HasEnvelope for PreparedLineString {
    fn envelope(&self) -> Envelope {
        self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt;

    #[test]
    fn prepared_matches_plain_polygon() {
        let wkt_str = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))";
        let geom = wkt::parse(wkt_str).unwrap();
        let Geometry::Polygon(poly) = &geom else {
            panic!("expected a polygon, got {geom:?}");
        };
        let prep = PreparedPolygon::new(poly);
        for &(x, y) in &[
            (0.5, 0.5),
            (2.0, 2.0),
            (5.0, 5.0),
            (0.0, 0.0),
            (1.0, 2.0),
            (3.999, 3.999),
            (-0.001, 2.0),
        ] {
            let p = Point::new(x, y);
            assert_eq!(
                prep.contains_point(p),
                poly.contains_point(p),
                "mismatch at ({x}, {y})"
            );
        }
        assert_eq!(prep.num_points(), poly.num_points());
    }

    #[test]
    fn prepared_linestring_distance_matches_plain() {
        let ls = LineString::new(vec![0.0, 0.0, 3.0, 0.0, 3.0, 4.0, 10.0, 4.0]).unwrap();
        let prep = PreparedLineString::new(&ls);
        for &(x, y) in &[(1.0, 1.0), (3.0, 2.0), (12.0, 4.0), (-1.0, -1.0)] {
            let p = Point::new(x, y);
            let plain = ls.distance_to_point(p);
            let fast = prep.distance_to_point(p);
            assert!((plain - fast).abs() < 1e-12, "mismatch at ({x}, {y})");
            assert!(
                prep.within_distance(p, plain + 1e-9),
                "should be within its own distance"
            );
            if plain > 0.0 {
                assert!(!prep.within_distance(p, plain - 1e-9));
            }
        }
    }

    /// `(cell, interior)` marks of a polygon's covering.
    fn cover_of(poly: &Polygon, grid: &CellGrid) -> Vec<(u32, bool)> {
        let mut marks = Vec::new();
        PreparedPolygon::new(poly).cover(grid, |cell, interior| marks.push((cell, interior)));
        marks
    }

    #[test]
    fn cover_marks_edge_cells_and_fills_interior_runs() {
        // A 0..8 square with a 2..6 hole on a half-unit grid: edges on
        // grid lines also reach the cell below or left of the line.
        let poly = Polygon::from_coords(
            vec![0.0, 0.0, 8.0, 0.0, 8.0, 8.0, 0.0, 8.0, 0.0, 0.0],
            vec![vec![2.0, 2.0, 6.0, 2.0, 6.0, 6.0, 2.0, 6.0, 2.0, 2.0]],
        )
        .unwrap();
        let grid = CellGrid::new(Envelope::new(0.0, 0.0, 8.0, 8.0), 16);
        let marks = cover_of(&poly, &grid);
        assert!(
            marks.windows(2).all(|w| w[0].0 < w[1].0),
            "ascending, once each"
        );
        let kind = |col, row| marks.iter().find(|m| m.0 == grid.id(col, row)).map(|m| m.1);
        assert_eq!(kind(0, 0), Some(false));
        assert_eq!(kind(3, 8), Some(false)); // left of the hole's x = 2 edge
        assert_eq!(kind(4, 8), Some(false));
        assert_eq!(kind(8, 8), None); // inside the hole
        assert_eq!(kind(11, 8), Some(false));
        assert_eq!(kind(12, 8), Some(false));
        assert_eq!(kind(1, 1), Some(true)); // no edge near
        assert_eq!(kind(14, 14), Some(true));
        // The centre of every interior cell is contained.
        let prep = PreparedPolygon::new(&poly);
        for &(cell, interior) in &marks {
            assert!(!interior || prep.contains_point(grid.centre(cell % 16, cell / 16)));
        }
    }

    #[test]
    fn cover_of_a_hole_outside_its_shell_envelope_is_all_boundary() {
        let poly = Polygon::from_coords(
            vec![0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0, 0.0, 0.0],
            vec![vec![3.0, 1.0, 6.0, 1.0, 6.0, 3.0, 3.0, 3.0, 3.0, 1.0]],
        )
        .unwrap();
        let grid = CellGrid::new(Envelope::new(0.0, 0.0, 8.0, 8.0), 8);
        let marks = cover_of(&poly, &grid);
        // The window is the shell envelope widened by the margin.
        assert_eq!(marks.len(), 5 * 5);
        assert!(marks.iter().all(|&(_, interior)| !interior));
    }

    #[test]
    fn degenerate_flat_polygon_does_not_panic() {
        // Zero-height envelope exercises the band_height fallback.
        let poly =
            Polygon::from_coords(vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0], vec![]).unwrap();
        let prep = PreparedPolygon::new(&poly);
        assert!(prep.contains_point(Point::new(1.0, 0.0)));
        assert!(!prep.contains_point(Point::new(1.0, 1.0)));
    }
}
