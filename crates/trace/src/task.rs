//! The priced task record.

use rideshare_geo::GeoPoint;
use rideshare_types::{Money, TaskId, TimeDelta, Timestamp};

/// A task (customer order) `m ∈ [M]`, priced: the paper's
/// `(s̄ₘ, d̄ₘ, t̄ₘ, t̄⁻ₘ, t̄⁺ₘ, pₘ, bₘ)` (§III-A) — the one task record:
/// what the pricer makes of a [`crate::TripRecord`], the wire formats
/// carry, a market holds and the dispatch engine decides.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Task {
    /// Dense identifier (monotone in publish order on a stream).
    pub id: TaskId,
    /// When the order was submitted (`t̄ₘ`).
    pub publish_time: Timestamp,
    /// Pickup location (`s̄ₘ`).
    pub origin: GeoPoint,
    /// Drop-off location (`d̄ₘ`).
    pub destination: GeoPoint,
    /// Pickup deadline (`t̄⁻ₘ`).
    pub pickup_deadline: Timestamp,
    /// Completion deadline (`t̄⁺ₘ`).
    pub completion_deadline: Timestamp,
    /// In-service travel time (`l̂ₙ,ₘ`, driver-independent here).
    pub duration: TimeDelta,
    /// Payoff to the serving driver (`pₘ`), surge included.
    pub price: Money,
    /// Customer's willingness to pay (`bₘ ≥ pₘ`).
    pub valuation: Money,
    /// Driver's cost to serve origin→destination (`ĉₙ,ₘ`).
    pub service_cost: Money,
}

impl Task {
    /// Whether the task's own window can fit its service time — the paper's
    /// `ĥₙ,ₘ` precondition (Eq. 1).
    #[must_use]
    pub fn window_feasible(&self) -> bool {
        self.duration <= self.completion_deadline - self.pickup_deadline
    }
}
