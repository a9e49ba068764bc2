//! A uniform grid over a bounding box: which cell a point falls in, and
//! which cells a disc can reach.
//!
//! The online dispatcher repeatedly asks "which drivers are within reach of
//! this pickup point?". A linear scan is `O(N)` per query; the grid cuts this
//! to the drivers in the cells [`GridIndex::cover`] names (the dispatcher
//! keeps the per-cell tables itself). The surge-pricing engine reuses the
//! same cells as its supply/demand aggregation regions ("a given geographic
//! area", §III-A).

use core::ops::RangeInclusive;

use rideshare_types::TimeDelta;

use crate::point::EARTH_RADIUS_KM;
use crate::{BoundingBox, GeoPoint, SpeedModel};

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

/// What [`GridIndex::cover`] adds to a disc before mapping it to cells,
/// relatively and in degrees: far more than the handful of roundings
/// between [`GeoPoint::equirectangular_km`]'s arithmetic and the cover's,
/// far less than a cell.
const COVER_SLACK: f64 = 1e-9;

/// The geometry of a uniform `rows × cols` grid over a [`BoundingBox`].
///
/// Out-of-box points are clamped to the nearest boundary cell, so every
/// point maps to a valid cell. The grid stores nothing: callers keep their
/// own per-cell tables, indexed by cell id or by dense slot.
///
/// # Examples
///
/// ```
/// use rideshare_geo::{BoundingBox, CellId, GeoPoint, GridIndex};
/// let grid = GridIndex::new(BoundingBox::new(41.0, 41.3, -8.8, -8.4), 8, 8);
/// let p = GeoPoint::new(41.15, -8.6);
/// assert_eq!(grid.cell_of(p), CellId::new(4, 4));
/// assert_eq!(grid.slot_of(p), 4 * 8 + 4);
/// // A 1 km disc around `p` cannot leave these cells.
/// assert_eq!(grid.cover(p, 1.0), (3..=4, 3..=4));
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    bbox: BoundingBox,
    rows: u16,
    cols: u16,
    /// The box's height and width in degrees, floored away from zero so a
    /// degenerate box still maps every point to a cell.
    lat_span: f64,
    lon_span: f64,
}

/// The cell a coordinate falls in along one axis of `cells` cells starting
/// at `min`. Every step is monotone in `value`, which is what lets
/// [`GridIndex::cover`] map an interval to a cell range by its two ends.
fn axis_cell(value: f64, min: f64, span: f64, cells: u16) -> u16 {
    let u = (value - min) / span;
    ((u * f64::from(cells)).floor() as i64).clamp(0, i64::from(cells) - 1) as u16
}

impl GridIndex {
    /// Creates the grid with `rows × cols` cells over `bbox`.
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
            lat_span: (bbox.max_lat() - bbox.min_lat()).max(f64::MIN_POSITIVE),
            lon_span: (bbox.max_lon() - bbox.min_lon()).max(f64::MIN_POSITIVE),
        }
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

    fn row_of(&self, lat: f64) -> u16 {
        axis_cell(lat, self.bbox.min_lat(), self.lat_span, self.rows)
    }

    fn col_of(&self, lon: f64) -> u16 {
        axis_cell(lon, self.bbox.min_lon(), self.lon_span, self.cols)
    }

    /// Maps a point to its cell id (out-of-box points clamp to the border).
    #[must_use]
    pub fn cell_of(&self, point: GeoPoint) -> CellId {
        CellId::new(self.row_of(point.lat()), self.col_of(point.lon()))
    }

    /// Total number of cell slots (`rows * cols`).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// The dense slot (`row * cols + col`) of the cell containing `point`
    /// (out-of-box points clamp to the border, as in
    /// [`GridIndex::cell_of`]).
    #[must_use]
    pub fn slot_of(&self, point: GeoPoint) -> usize {
        let cell = self.cell_of(point);
        cell.row() as usize * self.cols as usize + cell.col() as usize
    }

    /// The inclusive `(rows, cols)` ranges of cells that hold every point
    /// `p` with `center.equirectangular_km(p) <= radius_km` — a lossless
    /// cover of the disc under the distance the speed model drives by.
    ///
    /// Derived from that distance itself: `R·√(Δx² + Δlat²) ≤ r` with
    /// `Δx = Δlon · cos(mean latitude)` forces `|Δlat| ≤ r/R`, and
    /// `|Δlon| ≤ r / (R · cos)` for the smallest cosine the latitude band
    /// `center ± r/R` reaches (the cosine is concave between the poles, so
    /// that is at one end of the band — the end farther from the equator,
    /// the cosine being even; a band that reaches a pole bounds no
    /// longitude and covers every column). Longitudes are taken raw, as
    /// the distance takes them — no wrap at ±180°. Both intervals map to
    /// cells through the clamped, monotone map [`GridIndex::cell_of`] uses,
    /// so centres and points outside the box stay covered, and a larger
    /// radius never covers less.
    #[must_use]
    pub fn cover(
        &self,
        center: GeoPoint,
        radius_km: f64,
    ) -> (RangeInclusive<u16>, RangeInclusive<u16>) {
        let reach = radius_km / EARTH_RADIUS_KM * (1.0 + COVER_SLACK);
        let dlat = reach.to_degrees() + COVER_SLACK;
        let (south, north) = (center.lat() - dlat, center.lat() + dlat);
        let rows = self.row_of(south)..=self.row_of(north);
        let cols = if south > -90.0 && north < 90.0 {
            let cos = south.abs().max(north.abs()).to_radians().cos();
            let dlon = (reach / cos).to_degrees() + COVER_SLACK;
            self.col_of(center.lon() - dlon)..=self.col_of(center.lon() + dlon)
        } else {
            0..=self.cols - 1
        };
        (rows, cols)
    }
}

/// [`GridIndex::cover`]'s argument applied to one point at a time, and
/// asked in time: a test that proves a point lies farther from `center`
/// than a [`SpeedModel`] covers within a budget, without the cosine and
/// the square root of [`GeoPoint::equirectangular_km`], and without a
/// division.
///
/// Built once per centre and speed model for the largest budget it will
/// be asked about, `max`. Below, `r` is what the speed model covers within
/// a budget ([`SpeedModel::reachable_km`]) and `r_max` what it covers
/// within `max`. Every point `p` with `center.equirectangular_km(p) ≤ r ≤
/// r_max` has `|Δlat| ≤ r/R`, so its mean latitude with the centre lies
/// in the band `center.lat ± r_max/(2R)`. The cosine falls with the
/// distance from the equator, so over that band it is smallest at the
/// edge farther from it: that cosine, `cos_min`, is the one `cos` the
/// bound costs (a band that reaches a pole has `cos_min = 0`, a
/// latitude-only bound). Then `Δx = Δlon · cos(mean latitude)` has `|Δx|
/// ≥ |Δlon| · cos_min`, and `R·√(Δx² + Δlat²) ≤ r` forces `(Δlon ·
/// cos_min)² + Δlat² ≤ (r/R)²`.
///
/// [`DiscBound::beyond`] tests the converse in radians with nothing left
/// to divide: the bound keeps `cos_min · π/180` — the radians of easting a
/// degree of longitude spans at the least — and the radians of arc one
/// second of budget covers, so a budget costs one multiply. The cover's
/// slack on the radius and on the band absorbs the roundings between
/// these products and the distance's own arithmetic. Longitudes are taken
/// raw, as the distance takes them — no wrap at ±180°. The distance is
/// symmetric bit for bit, so the bound holds for
/// `p.equirectangular_km(center)` too.
///
/// # Examples
///
/// ```
/// use rideshare_geo::{DiscBound, GeoPoint, SpeedModel};
/// use rideshare_types::TimeDelta;
/// // 36 km/h in a straight line: 3 km in five minutes.
/// let speed = SpeedModel::new(36.0, 1.0, 0.1);
/// let pickup = GeoPoint::new(41.15, -8.61);
/// let bound = DiscBound::new(pickup, speed, TimeDelta::from_mins(10));
/// let five = TimeDelta::from_mins(5);
/// assert!(bound.beyond(pickup.offset_km(0.0, 3.1), five));
/// assert!(!bound.beyond(pickup.offset_km(2.0, 2.0), five)); // 2.83 km away
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DiscBound {
    center: GeoPoint,
    /// `cos_min · π/180`, where `cos_min` is the smallest cosine of a mean
    /// latitude any point within reach of the centre can have with it.
    lon_rad: f64,
    /// Radians of arc one second of budget covers, the slack included.
    rad_per_sec: f64,
    max: TimeDelta,
}

impl DiscBound {
    /// The bound around `center` for budgets up to `max` under `speed`.
    #[must_use]
    pub fn new(center: GeoPoint, speed: SpeedModel, max: TimeDelta) -> Self {
        debug_assert!(max.is_non_negative(), "negative budget {max}");
        let second = speed.reachable_km(TimeDelta::from_secs(1));
        let rad_per_sec = second / EARTH_RADIUS_KM * (1.0 + COVER_SLACK);
        let reach = max.as_secs() as f64 * rad_per_sec;
        let edge = center.lat().abs() + reach.to_degrees() / 2.0 + COVER_SLACK;
        let cos_min = if edge < 90.0 {
            edge.to_radians().cos()
        } else {
            0.0
        };
        Self {
            center,
            lon_rad: cos_min.to_radians(),
            rad_per_sec,
            max,
        }
    }

    /// `true` only if `center.equirectangular_km(point)` exceeds what the
    /// speed model covers within `budget`; `false` leaves the question
    /// open. Requires `0 ≤ budget ≤ max`.
    #[inline]
    #[must_use]
    pub fn beyond(&self, point: GeoPoint, budget: TimeDelta) -> bool {
        debug_assert!(
            budget.is_non_negative() && budget <= self.max,
            "budget {budget} outside the bound's 0..={}",
            self.max
        );
        let reach = budget.as_secs() as f64 * self.rad_per_sec;
        let dx = (point.lon() - self.center.lon()) * self.lon_rad;
        let dy = (point.lat() - self.center.lat()).to_radians();
        dx * dx + dy * dy > reach * reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_grid() -> GridIndex {
        GridIndex::new(BoundingBox::new(41.0, 41.3, -8.8, -8.4), 10, 10)
    }

    #[test]
    fn out_of_box_points_clamp() {
        let g = test_grid();
        assert_eq!(g.cell_of(GeoPoint::new(40.0, -9.5)), CellId::new(0, 0));
        assert_eq!(g.cell_of(GeoPoint::new(42.0, -8.0)), CellId::new(9, 9));
        assert_eq!(g.slot_of(GeoPoint::new(42.0, -9.5)), 90);
        assert_eq!(g.slot_count(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = GridIndex::new(BoundingBox::new(0.0, 1.0, 0.0, 1.0), 0, 4);
    }

    #[test]
    fn cover_is_as_tight_as_the_cells_allow() {
        // 3.34 km cells either way; a 3.5 km disc centred mid-cell reaches
        // one cell out and no farther, and a zero radius stays home.
        let g = test_grid();
        let center = GeoPoint::new(41.165, -8.58);
        assert_eq!(g.cell_of(center), CellId::new(5, 5));
        assert_eq!(g.cover(center, 0.0), (5..=5, 5..=5));
        assert_eq!(g.cover(center, 3.5), (4..=6, 4..=6));
        assert_eq!(g.cover(center, 1e5), (0..=9, 0..=9));
        // From outside the box the cover still starts at the border cell.
        assert_eq!(g.cover(GeoPoint::new(40.9, -9.0), 1.0), (0..=0, 0..=0));
    }

    type Case = (GridIndex, GeoPoint, f64, GeoPoint);

    /// A centre, a radius from zero to past any box, a box (possibly of
    /// zero height or width) whose cells are a twentieth of the radius to
    /// three radii a side and which holds the centre or lies well off it,
    /// and a point: at a polar offset from the centre in radii — half the
    /// draws just inside the rim, where a cover that is short shows — or
    /// anywhere on the globe.
    fn arb_case() -> impl Strategy<Value = Case> {
        let lat = || prop_oneof![30.0f64..50.0, -89.9f64..89.9];
        let lon = || prop_oneof![-20.0f64..0.0, -179.9f64..179.9];
        let radius = prop_oneof![Just(0.0f64), 0.0f64..30.0, 0.0f64..3e3, 0.0f64..25e3];
        let cell = || prop_oneof![1 => Just(0.0f64), 4 => 0.05f64..3.0];
        let grid = (cell(), cell(), 1u16..40, 1u16..40);
        let corner = (-1.5f64..0.5, -1.5f64..0.5);
        let polar = (prop_oneof![0.0f64..1.5, 0.97f64..1.0], 0.0f64..360.0);
        let anywhere = prop_oneof![4 => Just(false), 1 => Just(true)];
        (
            (lat(), lon(), radius),
            grid,
            corner,
            polar,
            (anywhere, lat(), lon()),
        )
            .prop_map(|(disc, grid, corner, polar, far)| case(disc, grid, corner, polar, far))
    }

    fn case(
        (lat, lon, r): (f64, f64, f64),
        (cell_h, cell_w, rows, cols): (f64, f64, u16, u16),
        (south, west): (f64, f64),
        (rho, theta): (f64, f64),
        (far, far_lat, far_lon): (bool, f64, f64),
    ) -> Case {
        let deg = (r / EARTH_RADIUS_KM).to_degrees();
        let h = cell_h * (deg + 0.01) * f64::from(rows);
        let w = cell_w * (deg + 0.01) * f64::from(cols);
        let (min_lat, min_lon) = (lat + south * h, lon + west * w);
        let bbox = BoundingBox::new(min_lat, min_lat + h, min_lon, min_lon + w);
        let (sin, cos) = theta.to_radians().sin_cos();
        let north = rho * deg * sin;
        let stretch = (lat + north / 2.0).to_radians().cos().max(0.01);
        let point = if far {
            GeoPoint::new(far_lat, far_lon)
        } else {
            GeoPoint::new(lat + north, lon + rho * deg * cos / stretch)
        };
        (
            GridIndex::new(bbox, rows, cols),
            GeoPoint::new(lat, lon),
            r,
            point,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn cover_holds_every_point_of_the_disc((g, center, r, p) in arb_case()) {
            let (rows, cols) = g.cover(center, r);
            let home = g.cell_of(center);
            prop_assert!(rows.contains(&home.row()) && cols.contains(&home.col()));
            if center.equirectangular_km(p) <= r {
                let cell = g.cell_of(p);
                prop_assert!(
                    rows.contains(&cell.row()) && cols.contains(&cell.col()),
                    "{p} within {r} km of {center} is in {cell:?}, outside {rows:?} x {cols:?}"
                );
            }
        }

        #[test]
        fn cover_is_monotone_in_the_radius((g, center, r, _p) in arb_case(), shrink in 0.0f64..1.0) {
            let (rows, cols) = g.cover(center, r);
            let (inner_rows, inner_cols) = g.cover(center, r * shrink);
            prop_assert!(rows.start() <= inner_rows.start() && inner_rows.end() <= rows.end());
            prop_assert!(cols.start() <= inner_cols.start() && inner_cols.end() <= cols.end());
        }

        #[test]
        fn disc_bound_rejects_only_points_out_of_reach(
            (center, speed, max, share, bearing) in arb_disc(),
        ) {
            let budget = TimeDelta::from_secs((max.as_secs() as f64 * share) as i64);
            let r = speed.reachable_km(budget);
            let bound = DiscBound::new(center, speed, max);
            let inside = rim_points(center, r, bearing);
            prop_assert!(!inside.is_empty());
            for p in inside {
                let km = center.equirectangular_km(p);
                prop_assert_eq!(km.to_bits(), p.equirectangular_km(center).to_bits());
                prop_assert!(
                    !bound.beyond(p, budget),
                    "{p} is {km} km from {center}, within {r} ({budget} of {max}), yet beyond"
                );
            }
        }
    }

    /// A centre at any latitude — the polar caps, their ±89.9° edges and
    /// bands that reach a pole included — and any longitude, the
    /// antimeridian's neighbourhood included; a speed model; a largest
    /// budget from zero to one that reaches past a quarter of the globe, a
    /// share of it, and a bearing.
    fn arb_disc() -> impl Strategy<Value = (GeoPoint, SpeedModel, TimeDelta, f64, f64)> {
        let lat = prop_oneof![
            30.0f64..50.0,
            -90.0f64..=90.0,
            89.0f64..=90.0,
            -90.0f64..-89.0,
            Just(89.9f64),
            Just(-89.9f64),
        ];
        let lon = prop_oneof![
            -20.0f64..0.0,
            -180.0f64..=180.0,
            179.0f64..=180.0,
            -180.0f64..-179.0,
        ];
        let speed = (1.0f64..120.0, 1.0f64..2.0)
            .prop_map(|(kmh, detour)| SpeedModel::new(kmh, detour, 0.1));
        let max = prop_oneof![
            1 => Just(0i64),
            4 => 0i64..1800,
            2 => 0i64..36_000,
            1 => 0i64..1_000_000,
        ]
        .prop_map(TimeDelta::from_secs);
        let share = prop_oneof![1 => Just(1.0f64), 4 => 0.0f64..=1.0];
        let center = (lat, lon).prop_map(|(lat, lon)| GeoPoint::new(lat, lon));
        (center, speed, max, share, 0.0f64..360.0)
    }

    /// Points within `r` of `center` along one bearing, ending on the rim:
    /// a bisection between the centre and a point past `r` (its longitude
    /// raw, so it may wrap past ±180°, where the distance jumps) keeps
    /// every midpoint that is inside, down to the last bit of the step —
    /// within an ulp or so of `r` wherever the distance is continuous. A
    /// bearing that never leaves the disc yields its farthest point.
    fn rim_points(center: GeoPoint, r: f64, bearing: f64) -> Vec<GeoPoint> {
        let (sin, cos) = bearing.to_radians().sin_cos();
        let stretch = center.lat().to_radians().cos().max(0.01);
        let along =
            |deg: f64| GeoPoint::new(center.lat() + deg * sin, center.lon() + deg * cos / stretch);
        let within = |deg: f64| center.equirectangular_km(along(deg)) <= r;
        let mut hi = 2.0 * (r / EARTH_RADIUS_KM).to_degrees() + 1e-9;
        while within(hi) && hi < 720.0 {
            hi *= 2.0;
        }
        if within(hi) {
            return vec![along(hi)];
        }
        let (mut lo, mut inside) = (0.0f64, vec![center]);
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                return inside;
            }
            if within(mid) {
                lo = mid;
                inside.push(along(mid));
            } else {
                hi = mid;
            }
        }
    }

    #[test]
    fn a_zero_budget_disc_is_its_centre() {
        let speed = SpeedModel::urban();
        for (lat, lon) in [(41.15, -8.61), (0.0, 180.0), (-89.9, -179.9), (90.0, 0.0)] {
            let center = GeoPoint::new(lat, lon);
            let bound = DiscBound::new(center, speed, TimeDelta::ZERO);
            assert!(!bound.beyond(center, TimeDelta::ZERO), "{center}");
            assert!(
                bound.beyond(GeoPoint::new(lat - 1e-7, lon), TimeDelta::ZERO),
                "{center}"
            );
        }
    }

    #[test]
    fn disc_bound_is_close_to_the_disc_at_city_scale() {
        // Over the band a 50 km disc at Porto's latitude spans, the
        // smallest cosine is within 0.35% of the centre's: a point 0.5%
        // past the rim due east is rejected, and so is any point past it
        // due north. At 36 km/h in a straight line, 50 s cover 0.5 km.
        let speed = SpeedModel::new(36.0, 1.0, 0.1);
        let pickup = GeoPoint::new(41.15, -8.61);
        let bound = DiscBound::new(pickup, speed, TimeDelta::from_secs(5000));
        for secs in [50, 500, 5000] {
            let budget = TimeDelta::from_secs(secs);
            let r = speed.reachable_km(budget);
            assert!(bound.beyond(pickup.offset_km(0.0, r * 1.005), budget));
            assert!(bound.beyond(pickup.offset_km(-r * 1.000_001, 0.0), budget));
            assert!(!bound.beyond(pickup.offset_km(0.0, r * 0.999), budget));
        }
        // A band that reaches the pole bounds latitude only.
        let polar = DiscBound::new(GeoPoint::new(89.99, 0.0), speed, TimeDelta::from_secs(500));
        let one_km = TimeDelta::from_secs(100);
        assert!(!polar.beyond(GeoPoint::new(89.99, 170.0), one_km));
        assert!(polar.beyond(GeoPoint::new(89.97, 0.0), one_km));
    }
}
