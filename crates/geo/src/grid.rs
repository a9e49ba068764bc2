//! A uniform spatial grid index over a bounding box.
//!
//! The online dispatcher repeatedly asks "which drivers are within reach of
//! this pickup point?". A linear scan is `O(N)` per query; the grid cuts this
//! to the drivers in nearby cells. The surge-pricing engine reuses the same
//! cells as its supply/demand aggregation regions ("a given geographic
//! area", §III-A).

use crate::{BoundingBox, GeoPoint};

/// Identifier of a grid cell: `(row, col)` indices.
///
/// # Examples
///
/// ```
/// use rideshare_geo::CellId;
/// let c = CellId::new(2, 3);
/// assert_eq!((c.row(), c.col()), (2, 3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId {
    row: u16,
    col: u16,
}

impl CellId {
    /// Creates a cell id from row (latitude axis) and column (longitude
    /// axis) indices.
    #[must_use]
    pub const fn new(row: u16, col: u16) -> Self {
        Self { row, col }
    }

    /// Row index (south → north).
    #[must_use]
    pub const fn row(self) -> u16 {
        self.row
    }

    /// Column index (west → east).
    #[must_use]
    pub const fn col(self) -> u16 {
        self.col
    }
}

/// A uniform grid over a [`BoundingBox`] storing ids of type `T` per cell.
///
/// `T` is any small copyable id (driver index, task index). Out-of-box points
/// are clamped to the nearest boundary cell, so every point maps to a valid
/// cell.
///
/// # Examples
///
/// ```
/// use rideshare_geo::{BoundingBox, GeoPoint, GridIndex};
/// let bbox = BoundingBox::new(41.0, 41.3, -8.8, -8.4);
/// let mut grid: GridIndex<u32> = GridIndex::new(bbox, 8, 8);
/// let p = GeoPoint::new(41.15, -8.6);
/// grid.insert(p, 7);
/// let near: Vec<u32> = grid.query_radius(p, 1.0).collect();
/// assert_eq!(near, vec![7]);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex<T> {
    bbox: BoundingBox,
    rows: u16,
    cols: u16,
    cells: Vec<Vec<(GeoPoint, T)>>,
    len: usize,
}

impl<T: Copy + PartialEq> GridIndex<T> {
    /// Creates an empty grid with `rows × cols` cells over `bbox`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn new(bbox: BoundingBox, rows: u16, cols: u16) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have at least one cell");
        Self {
            bbox,
            rows,
            cols,
            cells: vec![Vec::new(); rows as usize * cols as usize],
            len: 0,
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the grid stores no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bounding box this grid covers.
    #[must_use]
    pub fn bounding_box(&self) -> BoundingBox {
        self.bbox
    }

    /// Number of rows (latitude axis).
    #[must_use]
    pub const fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of columns (longitude axis).
    #[must_use]
    pub const fn cols(&self) -> u16 {
        self.cols
    }

    /// Maps a point to its cell id (out-of-box points clamp to the border).
    #[must_use]
    pub fn cell_of(&self, point: GeoPoint) -> CellId {
        let u = (point.lat() - self.bbox.min_lat())
            / (self.bbox.max_lat() - self.bbox.min_lat()).max(f64::MIN_POSITIVE);
        let v = (point.lon() - self.bbox.min_lon())
            / (self.bbox.max_lon() - self.bbox.min_lon()).max(f64::MIN_POSITIVE);
        let row = ((u * f64::from(self.rows)).floor() as i64).clamp(0, i64::from(self.rows) - 1);
        let col = ((v * f64::from(self.cols)).floor() as i64).clamp(0, i64::from(self.cols) - 1);
        CellId::new(row as u16, col as u16)
    }

    fn cell_index(&self, cell: CellId) -> usize {
        cell.row() as usize * self.cols as usize + cell.col() as usize
    }

    /// Inserts an entry at `point`.
    pub fn insert(&mut self, point: GeoPoint, id: T) {
        let idx = self.cell_index(self.cell_of(point));
        self.cells[idx].push((point, id));
        self.len += 1;
    }

    /// Removes the entry with the given id at (or near) `point`.
    ///
    /// Returns `true` if an entry was removed. The point must map to the
    /// same cell it was inserted into.
    pub fn remove(&mut self, point: GeoPoint, id: T) -> bool {
        let idx = self.cell_index(self.cell_of(point));
        let cell = &mut self.cells[idx];
        if let Some(pos) = cell.iter().position(|(_, e)| *e == id) {
            cell.swap_remove(pos);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Moves an entry from `old_point` to `new_point`.
    ///
    /// Returns `true` if the entry was found and moved.
    pub fn relocate(&mut self, old_point: GeoPoint, new_point: GeoPoint, id: T) -> bool {
        if self.remove(old_point, id) {
            self.insert(new_point, id);
            true
        } else {
            false
        }
    }

    /// All `(point, id)` entries in the cells intersecting the `radius_km`
    /// box around `center`.
    fn entries_near(
        &self,
        center: GeoPoint,
        radius_km: f64,
    ) -> impl Iterator<Item = &(GeoPoint, T)> + '_ {
        self.cells_near(center, radius_km)
            .flat_map(|(_, entries)| entries.iter())
    }

    /// The cells intersecting the `radius_km` box around `center`, as
    /// `(slot, entries)` pairs, where `slot` is the cell's dense linear
    /// index (`row * cols + col`, the same for the life of the grid).
    ///
    /// This is the cell-granular face of [`GridIndex::query_radius_coarse`]:
    /// callers that keep per-cell side tables (e.g. an availability floor
    /// per cell, letting a dispatcher skip a whole cell with one compare)
    /// index them by `slot` and decide per cell whether to scan `entries`.
    pub fn cells_near(
        &self,
        center: GeoPoint,
        radius_km: f64,
    ) -> impl Iterator<Item = (usize, &[(GeoPoint, T)])> + '_ {
        let cell_h_km = self.bbox.height_km() / f64::from(self.rows);
        let cell_w_km = self.bbox.width_km() / f64::from(self.cols);
        let row_span = if cell_h_km > 0.0 {
            (radius_km / cell_h_km).ceil() as i64 + 1
        } else {
            i64::from(self.rows)
        };
        let col_span = if cell_w_km > 0.0 {
            (radius_km / cell_w_km).ceil() as i64 + 1
        } else {
            i64::from(self.cols)
        };
        let c = self.cell_of(center);
        let row_lo = (i64::from(c.row()) - row_span).max(0) as u16;
        let row_hi = (i64::from(c.row()) + row_span).min(i64::from(self.rows) - 1) as u16;
        let col_lo = (i64::from(c.col()) - col_span).max(0) as u16;
        let col_hi = (i64::from(c.col()) + col_span).min(i64::from(self.cols) - 1) as u16;

        (row_lo..=row_hi)
            .flat_map(move |r| (col_lo..=col_hi).map(move |col| CellId::new(r, col)))
            .map(move |cell| {
                let slot = self.cell_index(cell);
                (slot, self.cells[slot].as_slice())
            })
    }

    /// Total number of cell slots (`rows * cols`); the exclusive upper
    /// bound of every `slot` yielded by [`GridIndex::cells_near`].
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// The dense slot of the cell containing `point` (out-of-box points
    /// clamp to the border, as in [`GridIndex::cell_of`]).
    #[must_use]
    pub fn slot_of(&self, point: GeoPoint) -> usize {
        self.cell_index(self.cell_of(point))
    }

    /// The entries currently stored in cell `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slot_count()`.
    #[must_use]
    pub fn slot_entries(&self, slot: usize) -> &[(GeoPoint, T)] {
        self.cells[slot].as_slice()
    }

    /// Iterates over all ids whose stored point lies within `radius_km`
    /// (haversine) of `center`.
    ///
    /// Only the cells overlapping the radius are scanned.
    pub fn query_radius(&self, center: GeoPoint, radius_km: f64) -> impl Iterator<Item = T> + '_ {
        self.entries_near(center, radius_km)
            .filter(move |(p, _)| p.haversine_km(center) <= radius_km)
            .map(|(_, id)| *id)
    }

    /// Iterates over all ids stored in cells that intersect the
    /// `radius_km` box around `center` — a cheap **superset** of
    /// [`GridIndex::query_radius`]: no per-entry distance filter is
    /// applied, so entries up to a cell-diagonal beyond the radius may be
    /// yielded.
    ///
    /// Use this when the caller re-checks candidates exactly anyway (the
    /// online dispatcher's feasibility predicate does): skipping the
    /// haversine filter here avoids computing every distance twice.
    pub fn query_radius_coarse(
        &self,
        center: GeoPoint,
        radius_km: f64,
    ) -> impl Iterator<Item = T> + '_ {
        self.entries_near(center, radius_km).map(|(_, id)| *id)
    }

    /// Iterates over every stored `(point, id)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (GeoPoint, T)> + '_ {
        self.cells.iter().flatten().map(|(p, id)| (*p, *id))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            cell.clear();
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_grid() -> GridIndex<u32> {
        GridIndex::new(BoundingBox::new(41.0, 41.3, -8.8, -8.4), 10, 10)
    }

    #[test]
    fn insert_query_remove() {
        let mut g = test_grid();
        let p = GeoPoint::new(41.15, -8.6);
        g.insert(p, 1);
        g.insert(GeoPoint::new(41.16, -8.61), 2);
        g.insert(GeoPoint::new(41.29, -8.41), 3); // far away
        assert_eq!(g.len(), 3);

        let mut near: Vec<u32> = g.query_radius(p, 2.0).collect();
        near.sort_unstable();
        assert_eq!(near, vec![1, 2]);

        assert!(g.remove(p, 1));
        assert!(!g.remove(p, 1));
        assert_eq!(g.len(), 2);
        let near: Vec<u32> = g.query_radius(p, 2.0).collect();
        assert_eq!(near, vec![2]);
    }

    #[test]
    fn radius_zero_matches_exact_point_only() {
        let mut g = test_grid();
        let p = GeoPoint::new(41.2, -8.5);
        g.insert(p, 9);
        let hits: Vec<u32> = g.query_radius(p, 0.0).collect();
        assert_eq!(hits, vec![9]);
        let none: Vec<u32> = g.query_radius(GeoPoint::new(41.21, -8.5), 0.5).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn out_of_box_points_clamp() {
        let mut g = test_grid();
        let outside = GeoPoint::new(40.0, -9.5);
        g.insert(outside, 4);
        assert_eq!(g.cell_of(outside), CellId::new(0, 0));
        assert_eq!(g.len(), 1);
        // Removal uses the same clamped cell.
        assert!(g.remove(outside, 4));
    }

    #[test]
    fn relocate_moves_entry() {
        let mut g = test_grid();
        let a = GeoPoint::new(41.05, -8.75);
        let b = GeoPoint::new(41.28, -8.42);
        g.insert(a, 5);
        assert!(g.relocate(a, b, 5));
        assert!(g.query_radius(a, 1.0).next().is_none());
        let hits: Vec<u32> = g.query_radius(b, 1.0).collect();
        assert_eq!(hits, vec![5]);
        assert!(!g.relocate(a, b, 99));
    }

    #[test]
    fn query_equals_linear_scan() {
        // The grid query must agree with a brute-force filter.
        let mut g = test_grid();
        let mut points = Vec::new();
        // Deterministic pseudo-random scatter.
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..200u32 {
            let p = GeoPoint::new(41.0 + 0.3 * next(), -8.8 + 0.4 * next());
            points.push((p, i));
            g.insert(p, i);
        }
        let center = GeoPoint::new(41.15, -8.6);
        for radius in [0.5, 1.0, 3.0, 10.0, 50.0] {
            let mut got: Vec<u32> = g.query_radius(center, radius).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = points
                .iter()
                .filter(|(p, _)| p.haversine_km(center) <= radius)
                .map(|(_, i)| *i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn coarse_query_is_a_superset() {
        let mut g = test_grid();
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..200u32 {
            g.insert(GeoPoint::new(41.0 + 0.3 * next(), -8.8 + 0.4 * next()), i);
        }
        let center = GeoPoint::new(41.15, -8.6);
        for radius in [0.5, 1.0, 3.0, 10.0, 50.0] {
            let coarse: Vec<u32> = g.query_radius_coarse(center, radius).collect();
            for id in g.query_radius(center, radius) {
                assert!(coarse.contains(&id), "radius {radius}: {id} missing");
            }
        }
    }

    #[test]
    fn clear_and_iter() {
        let mut g = test_grid();
        g.insert(GeoPoint::new(41.1, -8.6), 1);
        g.insert(GeoPoint::new(41.2, -8.5), 2);
        assert_eq!(g.iter().count(), 2);
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _: GridIndex<u32> = GridIndex::new(BoundingBox::new(0.0, 1.0, 0.0, 1.0), 0, 4);
    }
}
