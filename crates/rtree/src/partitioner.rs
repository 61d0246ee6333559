//! The spatial partitioner of the partitioned-join systems the paper
//! discusses in §II (SpatialHadoop partitions both sides; HadoopGIS
//! reorders by partition key).
//!
//! Its cells **tile** their extent: every point belongs to exactly one
//! cell, so a point within distance `r` of a geometry always lives in a
//! cell intersecting that geometry's `r`-expanded envelope — the
//! invariant the partitioned joins rely on.

use geom::{Envelope, Point};

/// Sort-Tile-Recursive partitioner — SpatialHadoop's default strategy:
/// a sample is sorted by x into vertical slices; each slice is sorted
/// by y and cut into cells of roughly equal point counts. Slice and
/// cell boundaries are placed at sample midpoints and stretched to the
/// extent, so the cells tile space while adapting to skew.
#[derive(Debug, Clone)]
pub struct StrPartitioner {
    /// x-boundaries of the vertical slices (`num_slices + 1` entries).
    x_bounds: Vec<f64>,
    /// Per slice: its y-boundaries (`cells_in_slice + 1` entries).
    y_bounds: Vec<Vec<f64>>,
    /// Flattened cells, row-major within slices.
    cells: Vec<Envelope>,
    /// Start index of each slice's cells within `cells`.
    slice_offsets: Vec<usize>,
    extent: Envelope,
}

impl StrPartitioner {
    /// Builds an STR partitioner targeting `target_cells` cells from a
    /// point sample. Falls back to a single cell for tiny samples.
    pub fn build(extent: Envelope, sample: &[Point], target_cells: usize) -> StrPartitioner {
        let target_cells = target_cells.max(1);
        let num_slices = (target_cells as f64).sqrt().ceil() as usize;
        let cells_per_slice = target_cells.div_ceil(num_slices);

        let mut xs: Vec<Point> = sample.to_vec();
        xs.sort_by(|a, b| a.x.total_cmp(&b.x));

        let mut x_bounds = Vec::with_capacity(num_slices + 1);
        x_bounds.push(extent.min_x);
        let per_slice = xs.len().div_ceil(num_slices).max(1);
        for s in 1..num_slices {
            let i = s * per_slice;
            if i >= xs.len() {
                break;
            }
            // Midpoint between neighbouring sample points keeps every
            // sample strictly inside one slice.
            let b = (xs[i - 1].x + xs[i].x) * 0.5;
            let last = x_bounds.last().copied().unwrap_or(extent.min_x);
            x_bounds.push(b.max(last)); // monotone even with duplicates
        }
        x_bounds.push(extent.max_x);

        let actual_slices = x_bounds.len() - 1;
        let mut y_bounds = Vec::with_capacity(actual_slices);
        let mut cells = Vec::new();
        let mut slice_offsets = Vec::with_capacity(actual_slices);
        for s in 0..actual_slices {
            let (x0, x1) = (x_bounds[s], x_bounds[s + 1]);
            let mut ys: Vec<f64> = xs
                .iter()
                .filter(|p| p.x >= x0 && (p.x < x1 || s == actual_slices - 1))
                .map(|p| p.y)
                .collect();
            ys.sort_by(f64::total_cmp);
            let mut yb = Vec::with_capacity(cells_per_slice + 1);
            yb.push(extent.min_y);
            let per_cell = ys.len().div_ceil(cells_per_slice).max(1);
            for k in 1..cells_per_slice {
                let i = k * per_cell;
                if i >= ys.len() {
                    break;
                }
                let b = (ys[i - 1] + ys[i]) * 0.5;
                let last = yb.last().copied().unwrap_or(extent.min_y);
                yb.push(b.max(last));
            }
            yb.push(extent.max_y);

            slice_offsets.push(cells.len());
            for k in 0..yb.len() - 1 {
                cells.push(Envelope::new(x0, yb[k], x1, yb[k + 1]));
            }
            y_bounds.push(yb);
        }

        StrPartitioner {
            x_bounds,
            y_bounds,
            cells,
            slice_offsets,
            extent,
        }
    }

    fn slice_of(&self, x: f64) -> usize {
        // Binary search over monotone boundaries; boundary points go to
        // the right slice of the boundary, except the extent max.
        let n = self.x_bounds.len() - 1;
        let mut lo = 0usize;
        let mut hi = n - 1;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if x >= self.x_bounds[mid] {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// The cell rectangles.
    pub fn cells(&self) -> &[Envelope] {
        &self.cells
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell owning a point, if the point is inside the extent.
    pub fn cell_of(&self, p: Point) -> Option<usize> {
        if !self.extent.contains(p.x, p.y) {
            return None;
        }
        let s = self.slice_of(p.x);
        let yb = &self.y_bounds[s];
        let mut lo = 0usize;
        let mut hi = yb.len() - 2;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if p.y >= yb[mid] {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(self.slice_offsets[s] + lo)
    }

    /// All cells whose rectangle intersects the envelope (routing for
    /// replicated right-side geometries).
    pub fn cells_intersecting(&self, env: &Envelope) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.intersects(env))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Point> {
        // Skewed: dense cluster + sparse background.
        let mut pts = Vec::new();
        for i in 0..300 {
            pts.push(Point::new(
                10.0 + (i % 17) as f64 * 0.1,
                10.0 + (i % 23) as f64 * 0.1,
            ));
        }
        for i in 0..100 {
            pts.push(Point::new((i * 97 % 100) as f64, (i * 31 % 100) as f64));
        }
        pts
    }

    fn check_tiling(p: &StrPartitioner, extent: Envelope) {
        // Cells tile the extent: areas sum and every probe point has
        // exactly one owner whose cell contains it.
        let total: f64 = p.cells().iter().map(Envelope::area).sum();
        assert!(
            (total - extent.area()).abs() < 1e-6 * extent.area().max(1.0),
            "cells must tile the extent: {total} vs {}",
            extent.area()
        );
        for i in 0..40 {
            for j in 0..40 {
                let pt = Point::new(
                    extent.min_x + extent.width() * (i as f64 + 0.5) / 40.0,
                    extent.min_y + extent.height() * (j as f64 + 0.5) / 40.0,
                );
                let owner = p.cell_of(pt).expect("interior point must have an owner");
                assert!(
                    p.cells()[owner].contains(pt.x, pt.y),
                    "owner cell must contain the point"
                );
            }
        }
    }

    #[test]
    fn str_partitioner_tiles_and_adapts_to_skew() {
        let extent = Envelope::new(0.0, 0.0, 100.0, 100.0);
        let s = StrPartitioner::build(extent, &sample(), 16);
        assert!(s.num_cells() >= 8, "got {} cells", s.num_cells());
        check_tiling(&s, extent);
        assert_eq!(s.cell_of(Point::new(-1.0, 0.0)), None);
        // An envelope spanning the extent routes to every cell.
        assert_eq!(s.cells_intersecting(&extent).len(), s.num_cells());
        // Skew adaptation: the cell containing the dense cluster centre
        // is much smaller than the average cell.
        let dense = s.cell_of(Point::new(10.5, 10.5)).unwrap();
        let avg_area = extent.area() / s.num_cells() as f64;
        assert!(
            s.cells()[dense].area() < avg_area,
            "dense cell {} should be below average {}",
            s.cells()[dense].area(),
            avg_area
        );
    }

    #[test]
    fn str_handles_degenerate_samples() {
        let extent = Envelope::new(0.0, 0.0, 1.0, 1.0);
        // Empty sample → one cell covering the extent.
        let s = StrPartitioner::build(extent, &[], 8);
        check_tiling(&s, extent);
        assert!(s.cell_of(Point::new(0.5, 0.5)).is_some());
        // All-identical sample must not produce empty or inverted cells.
        let same = vec![Point::new(0.3, 0.3); 50];
        let s2 = StrPartitioner::build(extent, &same, 9);
        check_tiling(&s2, extent);
    }

    #[test]
    fn every_sample_point_is_owned_by_its_containing_cell() {
        let extent = Envelope::new(0.0, 0.0, 100.0, 100.0);
        let pts = sample();
        let s = StrPartitioner::build(extent, &pts, 25);
        for p in &pts {
            let owner = s.cell_of(*p).unwrap();
            assert!(s.cells()[owner].contains(p.x, p.y));
        }
    }
}
