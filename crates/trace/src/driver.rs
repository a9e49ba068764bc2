//! The driver record and the paper's two working models.

use rideshare_geo::GeoPoint;
use rideshare_types::{DriverId, MarketError, Result, TimeDelta, Timestamp};

/// The two driver working models of §VI-A.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DriverModel {
    /// "A driver leaves from a fixed place (may be her home) and returns
    /// after her daily work" — source equals destination. The working model
    /// of full-time Uber drivers.
    HomeWorkHome,
    /// The driver has distinct source and destination (she was travelling
    /// anyway) — the working model of part-time drivers on Google's Waze
    /// Rider.
    Hitchhiking,
}

impl DriverModel {
    /// Human-readable label used in experiment output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DriverModel::HomeWorkHome => "home-work-home",
            DriverModel::Hitchhiking => "hitchhiking",
        }
    }
}

impl core::fmt::Display for DriverModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A driver `n ∈ [N]` and her daily travel plan, the paper's
/// `(sₙ, dₙ, t⁻ₙ, t⁺ₙ)` (§III-A) — the one driver record: what the
/// generator emits, the wire formats carry, a market holds and the
/// dispatch engine is announced.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Driver {
    /// Driver identifier, dense within a trace (and, on a stream, in
    /// announcement order).
    pub id: DriverId,
    /// Where the driver starts her day (`sₙ`).
    pub source: GeoPoint,
    /// Where she must end it (`dₙ`; equals `source` for home-work-home
    /// drivers).
    pub destination: GeoPoint,
    /// Start of availability (`t⁻ₙ`).
    pub shift_start: Timestamp,
    /// End of availability (`t⁺ₙ`).
    pub shift_end: Timestamp,
    /// Which working model the driver follows.
    pub model: DriverModel,
}

// ROADMAP item 3(a)'s to delete: `benchmark/` still writes
// `Driver::from(shift)` from when a trace shift and a market driver were
// two types.
impl From<&Driver> for Driver {
    fn from(d: &Driver) -> Self {
        *d
    }
}

impl Driver {
    /// Validates `t⁻ₙ < t⁺ₙ` and, for home-work-home shifts, that source
    /// and destination coincide.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidTimeWindow`] on violation.
    pub fn validate(&self) -> Result<()> {
        if self.shift_start >= self.shift_end {
            return Err(MarketError::InvalidTimeWindow {
                entity: format!("{}", self.id),
            });
        }
        if self.model == DriverModel::HomeWorkHome && self.source != self.destination {
            return Err(MarketError::InvalidTimeWindow {
                entity: format!("{} (home-work-home with source != destination)", self.id),
            });
        }
        Ok(())
    }

    /// Length of the driver's working window.
    #[must_use]
    pub fn shift_length(&self) -> TimeDelta {
        self.shift_end - self.shift_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift() -> Driver {
        Driver {
            id: DriverId::new(0),
            source: GeoPoint::new(41.15, -8.61),
            destination: GeoPoint::new(41.15, -8.61),
            shift_start: Timestamp::from_hours(8),
            shift_end: Timestamp::from_hours(12),
            model: DriverModel::HomeWorkHome,
        }
    }

    #[test]
    fn valid_shift() {
        assert!(shift().validate().is_ok());
        assert_eq!(shift().shift_length(), TimeDelta::from_hours(4));
    }

    #[test]
    fn inverted_window_rejected() {
        let mut s = shift();
        s.shift_end = Timestamp::from_hours(7);
        assert!(s.validate().is_err());
    }

    #[test]
    fn home_work_home_requires_loop() {
        let mut s = shift();
        s.destination = GeoPoint::new(41.2, -8.5);
        assert!(s.validate().is_err());
        s.model = DriverModel::Hitchhiking;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn model_labels() {
        assert_eq!(DriverModel::HomeWorkHome.to_string(), "home-work-home");
        assert_eq!(DriverModel::Hitchhiking.to_string(), "hitchhiking");
    }
}
