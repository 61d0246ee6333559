//! A fixed-precision cell grid for covering `Within` targets.
//!
//! A covering lists, for every grid cell, the targets a point in that
//! cell may lie in: *interior* cells lie wholly inside the target, so a
//! point there is a true hit, and *boundary* cells need refinement (see
//! [`crate::PreparedPolygon::cover`] and
//! [`crate::engine::RefinementEngine::within_cover`]).
//!
//! Cell assignment truncates `(x - min_x) · cells_per_unit`, which is
//! monotone in `x` under floating-point rounding. So when an envelope is
//! widened by the grid's margin before its `CellGrid::span` is
//! taken, every point within the margin of the envelope lands in a cell
//! of that span, however the rounding falls.

use std::ops::Range;

use crate::algorithms::segment::ON_SEGMENT_EPS;
use crate::{Envelope, Point};

/// Margin per unit of coordinate magnitude. It dwarfs the few ulps of
/// rounding in cell assignment and in the crossing test's intersection
/// abscissa, and stays far below any cell size the joins use.
const MARGIN_PER_MAGNITUDE: f64 = 1e-9;

/// A `side × side` grid of equal cells over an extent, with row-major
/// cell ids.
#[derive(Debug, Clone, Copy)]
pub struct CellGrid {
    extent: Envelope,
    side: u32,
    /// Cells per unit length along x and y; 0 on a zero-width
    /// (zero-height) extent, which puts every point in one column (row).
    per_x: f64,
    per_y: f64,
    /// How far [`CellGrid::span`] widens an envelope: enough to cover
    /// rounding in cell assignment and the `point_on_segment`
    /// tolerance.
    margin: f64,
}

impl CellGrid {
    /// A grid of `side × side` cells over `extent`, with `side` clamped
    /// to `[1, 2^15]` so every cell id fits a `u32`.
    pub fn new(extent: Envelope, side: u32) -> CellGrid {
        let side = side.clamp(1, 1 << 15);
        let per = |len: f64| if len > 0.0 { side as f64 / len } else { 0.0 };
        let magnitude = [extent.min_x, extent.max_x, extent.min_y, extent.max_y]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        CellGrid {
            extent,
            side,
            per_x: per(extent.width()),
            per_y: per(extent.height()),
            margin: magnitude * MARGIN_PER_MAGNITUDE + 2.0 * ON_SEGMENT_EPS,
        }
    }

    /// The extent the cells divide.
    pub fn extent(&self) -> Envelope {
        self.extent
    }

    /// Cells per axis.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total cell count, `side²`.
    pub fn cells(&self) -> usize {
        self.side as usize * self.side as usize
    }

    #[inline]
    fn index(&self, v: f64, min: f64, per: f64) -> u32 {
        (((v - min) * per) as i64).clamp(0, i64::from(self.side) - 1) as u32
    }

    /// The cell holding `p`, or `None` when `p` lies outside the extent.
    #[inline]
    pub fn cell_of(&self, p: Point) -> Option<u32> {
        if !self.extent.contains(p.x, p.y) {
            return None;
        }
        let col = self.index(p.x, self.extent.min_x, self.per_x);
        let row = self.index(p.y, self.extent.min_y, self.per_y);
        Some(row * self.side + col)
    }

    /// Column and row ranges of the cells that `env`, widened by the
    /// margin, touches (clamped to the grid).
    pub(crate) fn span(&self, env: &Envelope) -> (Range<u32>, Range<u32>) {
        let m = self.margin;
        let (x, y) = (&self.extent.min_x, &self.extent.min_y);
        let cols = self.index(env.min_x - m, *x, self.per_x)
            ..self.index(env.max_x + m, *x, self.per_x) + 1;
        let rows = self.index(env.min_y - m, *y, self.per_y)
            ..self.index(env.max_y + m, *y, self.per_y) + 1;
        (cols, rows)
    }

    /// Id of the cell at `col`, `row`.
    pub(crate) fn id(&self, col: u32, row: u32) -> u32 {
        row * self.side + col
    }

    /// Centre of the cell at `col`, `row`.
    pub(crate) fn centre(&self, col: u32, row: u32) -> Point {
        let side = self.side as f64;
        Point::new(
            self.extent.min_x + (col as f64 + 0.5) * self.extent.width() / side,
            self.extent.min_y + (row as f64 + 0.5) * self.extent.height() / side,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_map_to_row_major_cells_and_outside_is_none() {
        let grid = CellGrid::new(Envelope::new(0.0, 0.0, 4.0, 4.0), 4);
        assert_eq!(grid.cells(), 16);
        assert_eq!(grid.cell_of(Point::new(0.0, 0.0)), Some(0));
        assert_eq!(grid.cell_of(Point::new(1.5, 2.5)), Some(9));
        // The far edges belong to the last column and row.
        assert_eq!(grid.cell_of(Point::new(4.0, 4.0)), Some(15));
        assert_eq!(grid.cell_of(Point::new(4.0 + 1e-9, 1.0)), None);
        assert_eq!(grid.cell_of(Point::new(f64::NAN, 1.0)), None);
        assert_eq!(grid.centre(1, 2), Point::new(1.5, 2.5));
    }

    #[test]
    fn span_widens_by_the_margin() {
        let grid = CellGrid::new(Envelope::new(0.0, 0.0, 4.0, 4.0), 4);
        // An envelope ending exactly on a grid line reaches the next cell.
        let (cols, rows) = grid.span(&Envelope::new(1.2, 1.2, 2.0, 1.8));
        assert_eq!((cols, rows), (1..3, 1..2));
        let (cols, rows) = grid.span(&Envelope::new(-10.0, -10.0, 10.0, 10.0));
        assert_eq!((cols, rows), (0..4, 0..4));
        assert!(grid.margin > ON_SEGMENT_EPS);
    }

    #[test]
    fn degenerate_extent_is_one_column() {
        let grid = CellGrid::new(Envelope::new(2.0, 0.0, 2.0, 8.0), 4);
        assert_eq!(grid.cell_of(Point::new(2.0, 7.0)), Some(12));
        assert_eq!(grid.span(&Envelope::new(2.0, 0.0, 2.0, 1.0)).0, 0..1);
    }
}
