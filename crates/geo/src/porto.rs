//! City model of Porto, Portugal — the city of the ECML/PKDD-15 taxi trace
//! used in the paper's evaluation (§VI-A).
//!
//! The constants here describe the metropolitan service area of the 442
//! Porto taxis in the original dataset. They calibrate the synthetic trace
//! generator (`rideshare-trace`) so that trip lengths, durations, and the
//! spatial density of demand reproduce the trace's published marginals.

use crate::{BoundingBox, GeoPoint};

/// Bounding box of the Porto metropolitan service area.
///
/// Spans roughly 33 km west–east and 33 km south–north, covering Porto, Vila
/// Nova de Gaia, Matosinhos, and the airport corridor.
#[must_use]
pub fn bounding_box() -> BoundingBox {
    BoundingBox::new(41.05, 41.35, -8.80, -8.40)
}

/// City centre (Avenida dos Aliados).
#[must_use]
pub fn center() -> GeoPoint {
    GeoPoint::new(41.1496, -8.6109)
}

/// Francisco Sá Carneiro Airport — a persistent demand hotspot.
#[must_use]
pub fn airport() -> GeoPoint {
    GeoPoint::new(41.2481, -8.6814)
}

/// Campanhã railway station — the trace's single busiest pickup stand.
#[must_use]
pub fn campanha_station() -> GeoPoint {
    GeoPoint::new(41.1496, -8.5856)
}

/// Demand hotspots with relative weights, used by the trace generator's
/// spatial mixture model: most pickups cluster downtown, with secondary
/// mass at the station and the airport.
#[must_use]
pub fn demand_hotspots() -> Vec<(GeoPoint, f64)> {
    vec![
        (center(), 0.45),
        (campanha_station(), 0.20),
        (airport(), 0.10),
        (GeoPoint::new(41.1621, -8.6220), 0.15), // Boavista
        (GeoPoint::new(41.1230, -8.6120), 0.10), // Gaia riverside
    ]
}

/// Typical hotspot dispersion (standard deviation of the Gaussian cloud
/// around each hotspot), in kilometres.
pub const HOTSPOT_SIGMA_KM: f64 = 1.8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landmarks_inside_bounding_box() {
        let bbox = bounding_box();
        assert!(bbox.contains(center()));
        assert!(bbox.contains(airport()));
        assert!(bbox.contains(campanha_station()));
    }

    #[test]
    fn bounding_box_is_city_scale() {
        let bbox = bounding_box();
        assert!(
            (25.0..45.0).contains(&bbox.width_km()),
            "{}",
            bbox.width_km()
        );
        assert!(
            (25.0..45.0).contains(&bbox.height_km()),
            "{}",
            bbox.height_km()
        );
    }

    #[test]
    fn hotspot_weights_sum_to_one() {
        let total: f64 = demand_hotspots().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (p, w) in demand_hotspots() {
            assert!(bounding_box().contains(p));
            assert!(w > 0.0);
        }
    }

    #[test]
    fn airport_is_not_downtown() {
        assert!(center().haversine_km(airport()) > 8.0);
    }
}
