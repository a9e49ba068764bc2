//! Trip (task) records.

use rideshare_geo::GeoPoint;
use rideshare_types::{MarketError, Result, TaskId, TimeDelta, Timestamp};

/// One customer order, the paper's task `m`.
///
/// Field correspondence to §III-A:
///
/// | Paper | Field |
/// |---|---|
/// | `t̄ₘ` (publish time) | `publish_time` |
/// | `s̄ₘ`, `t̄⁻ₘ` | `origin`, `pickup_deadline` |
/// | `d̄ₘ`, `t̄⁺ₘ` | `destination`, `completion_deadline` |
///
/// `distance_km` is the driven (road) distance from origin to destination
/// and `duration` the in-service travel time `l̂`, both carried explicitly
/// so replays do not depend on which speed model regenerated them.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TripRecord {
    /// Task identifier, dense within a trace.
    pub id: TaskId,
    /// When the customer submitted the order (`t̄ₘ`).
    pub publish_time: Timestamp,
    /// Pickup location (`s̄ₘ`).
    pub origin: GeoPoint,
    /// Drop-off location (`d̄ₘ`).
    pub destination: GeoPoint,
    /// Deadline for the pickup (`t̄⁻ₘ`).
    pub pickup_deadline: Timestamp,
    /// Deadline for the drop-off (`t̄⁺ₘ`).
    pub completion_deadline: Timestamp,
    /// Driven origin→destination distance in kilometres.
    pub distance_km: f64,
    /// In-service travel time (`l̂` for the serving driver).
    pub duration: TimeDelta,
}

impl TripRecord {
    /// Validates the paper's ordering invariant `t̄ₘ < t̄⁻ₘ < t̄⁺ₘ` plus
    /// positivity of distance and duration.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::PublishAfterStart`] or
    /// [`MarketError::InvalidTimeWindow`] on violation.
    pub fn validate(&self) -> Result<()> {
        if self.publish_time >= self.pickup_deadline {
            return Err(MarketError::PublishAfterStart(self.id));
        }
        if self.pickup_deadline >= self.completion_deadline {
            return Err(MarketError::InvalidTimeWindow {
                entity: format!("{}", self.id),
            });
        }
        if self.distance_km < 0.0 || self.duration.is_negative() {
            return Err(MarketError::InvalidTimeWindow {
                entity: format!("{} (negative distance or duration)", self.id),
            });
        }
        Ok(())
    }

    /// The slack between the trip's own duration and its time window; a trip
    /// is internally consistent when this is non-negative.
    #[must_use]
    pub fn window_slack(&self) -> TimeDelta {
        (self.completion_deadline - self.pickup_deadline) - self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip() -> TripRecord {
        TripRecord {
            id: TaskId::new(0),
            publish_time: Timestamp::from_secs(0),
            origin: GeoPoint::new(41.15, -8.61),
            destination: GeoPoint::new(41.16, -8.60),
            pickup_deadline: Timestamp::from_secs(300),
            completion_deadline: Timestamp::from_secs(900),
            distance_km: 2.0,
            duration: TimeDelta::from_secs(480),
        }
    }

    #[test]
    fn valid_trip_passes() {
        assert!(trip().validate().is_ok());
        assert_eq!(trip().window_slack(), TimeDelta::from_secs(120));
    }

    #[test]
    fn publish_after_pickup_rejected() {
        let mut t = trip();
        t.publish_time = Timestamp::from_secs(300);
        assert!(matches!(
            t.validate(),
            Err(MarketError::PublishAfterStart(_))
        ));
    }

    #[test]
    fn inverted_window_rejected() {
        let mut t = trip();
        t.completion_deadline = Timestamp::from_secs(200);
        assert!(matches!(
            t.validate(),
            Err(MarketError::InvalidTimeWindow { .. })
        ));
    }

    #[test]
    fn negative_duration_rejected() {
        let mut t = trip();
        t.duration = TimeDelta::from_secs(-1);
        assert!(matches!(
            t.validate(),
            Err(MarketError::InvalidTimeWindow { .. })
        ));
    }
}
