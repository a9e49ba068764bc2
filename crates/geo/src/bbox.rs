//! Rectangular geographic regions.

use crate::GeoPoint;

/// An axis-aligned latitude/longitude bounding box.
///
/// Used to describe the service area of a city (the paper partitions the
/// market "in city's scale", §I) and to sample uniform random locations for
/// the Monte-Carlo driver generation of §VI-A.
///
/// # Examples
///
/// ```
/// use rideshare_geo::{BoundingBox, GeoPoint};
/// let porto = rideshare_geo::porto::bounding_box();
/// assert!(porto.contains(GeoPoint::new(41.15, -8.61)));
/// assert!(!porto.contains(GeoPoint::new(38.72, -9.14))); // Lisbon
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// Creates a bounding box from corner coordinates.
    ///
    /// Coordinates are reordered if given in the wrong order, so the result
    /// always satisfies `min ≤ max` on both axes.
    #[must_use]
    pub fn new(lat_a: f64, lat_b: f64, lon_a: f64, lon_b: f64) -> Self {
        Self {
            min_lat: lat_a.min(lat_b),
            max_lat: lat_a.max(lat_b),
            min_lon: lon_a.min(lon_b),
            max_lon: lon_a.max(lon_b),
        }
    }

    /// The smallest box covering every one of `points`, widened by
    /// `margin_deg` degrees on each side; `None` when there are none.
    #[must_use]
    pub fn covering(points: impl IntoIterator<Item = GeoPoint>, margin_deg: f64) -> Option<Self> {
        let mut points = points.into_iter();
        let first = points.next()?;
        let mut tight = Self::new(first.lat(), first.lat(), first.lon(), first.lon());
        for p in points {
            tight.min_lat = tight.min_lat.min(p.lat());
            tight.max_lat = tight.max_lat.max(p.lat());
            tight.min_lon = tight.min_lon.min(p.lon());
            tight.max_lon = tight.max_lon.max(p.lon());
        }
        Some(Self::new(
            tight.min_lat - margin_deg,
            tight.max_lat + margin_deg,
            tight.min_lon - margin_deg,
            tight.max_lon + margin_deg,
        ))
    }

    /// Southern latitude bound in degrees.
    #[must_use]
    pub const fn min_lat(&self) -> f64 {
        self.min_lat
    }

    /// Northern latitude bound in degrees.
    #[must_use]
    pub const fn max_lat(&self) -> f64 {
        self.max_lat
    }

    /// Western longitude bound in degrees.
    #[must_use]
    pub const fn min_lon(&self) -> f64 {
        self.min_lon
    }

    /// Eastern longitude bound in degrees.
    #[must_use]
    pub const fn max_lon(&self) -> f64 {
        self.max_lon
    }

    /// Returns `true` if `point` lies inside the box (inclusive bounds).
    #[must_use]
    pub fn contains(&self, point: GeoPoint) -> bool {
        (self.min_lat..=self.max_lat).contains(&point.lat())
            && (self.min_lon..=self.max_lon).contains(&point.lon())
    }

    /// The geometric centre of the box.
    #[must_use]
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }

    /// Interpolates a point inside the box from unit-square coordinates.
    ///
    /// `(0, 0)` maps to the south-west corner, `(1, 1)` to the north-east
    /// corner. Inputs are clamped to `[0, 1]`, so any `f64` pair yields an
    /// in-box point; combined with an external RNG this provides the uniform
    /// Monte-Carlo location sampling of §VI-A without this crate depending
    /// on a specific RNG.
    #[must_use]
    pub fn lerp(&self, u: f64, v: f64) -> GeoPoint {
        let u = u.clamp(0.0, 1.0);
        let v = v.clamp(0.0, 1.0);
        GeoPoint::new(
            self.min_lat + u * (self.max_lat - self.min_lat),
            self.min_lon + v * (self.max_lon - self.min_lon),
        )
    }

    /// Width of the box in kilometres, measured along its central latitude.
    #[must_use]
    pub fn width_km(&self) -> f64 {
        let c = self.center();
        GeoPoint::new(c.lat(), self.min_lon).haversine_km(GeoPoint::new(c.lat(), self.max_lon))
    }

    /// Height of the box in kilometres, measured along its central longitude.
    #[must_use]
    pub fn height_km(&self) -> f64 {
        let c = self.center();
        GeoPoint::new(self.min_lat, c.lon()).haversine_km(GeoPoint::new(self.max_lat, c.lon()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> BoundingBox {
        BoundingBox::new(41.0, 41.3, -8.8, -8.4)
    }

    #[test]
    fn corner_reordering() {
        let b = BoundingBox::new(41.3, 41.0, -8.4, -8.8);
        assert_eq!(b.min_lat(), 41.0);
        assert_eq!(b.max_lat(), 41.3);
        assert_eq!(b.min_lon(), -8.8);
        assert_eq!(b.max_lon(), -8.4);
    }

    #[test]
    fn covering_spans_the_points_plus_the_margin() {
        assert_eq!(BoundingBox::covering([], 0.5), None);
        // Binary fractions, so the expected corners are exact.
        let p = GeoPoint::new(41.5, -8.5);
        assert_eq!(
            BoundingBox::covering([p], 0.0),
            Some(BoundingBox::new(41.5, 41.5, -8.5, -8.5))
        );
        let q = GeoPoint::new(41.0, -8.25);
        let b = BoundingBox::covering([p, q, p], 0.25).unwrap();
        assert_eq!(b, BoundingBox::new(40.75, 41.75, -8.75, -8.0));
        assert!(b.contains(p) && b.contains(q));
    }

    #[test]
    fn containment_inclusive() {
        let b = unit_box();
        assert!(b.contains(GeoPoint::new(41.0, -8.8)));
        assert!(b.contains(GeoPoint::new(41.3, -8.4)));
        assert!(b.contains(b.center()));
        assert!(!b.contains(GeoPoint::new(40.99, -8.6)));
        assert!(!b.contains(GeoPoint::new(41.1, -8.39)));
    }

    #[test]
    fn lerp_corners_and_clamping() {
        let b = unit_box();
        assert_eq!(b.lerp(0.0, 0.0), GeoPoint::new(41.0, -8.8));
        assert_eq!(b.lerp(1.0, 1.0), GeoPoint::new(41.3, -8.4));
        assert_eq!(b.lerp(-3.0, 9.0), GeoPoint::new(41.0, -8.4));
        assert!(b.contains(b.lerp(0.37, 0.92)));
    }

    #[test]
    fn dimensions_positive_and_consistent() {
        let b = unit_box();
        assert!(b.width_km() > 0.0);
        assert!(b.height_km() > 0.0);
    }
}
