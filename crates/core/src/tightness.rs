//! The Fig. 2 adversarial family: GA's `1/(D+1)` ratio is *tight*.
//!
//! Lemma 3 of the paper constructs, for any diameter `D` and any `ε > 0`,
//! an instance where the greedy algorithm earns `1` while the optimum earns
//! `(D+1)(1−ε)`. This module realises that construction **geometrically**
//! (actual coordinates, time windows, and travel costs — not abstract path
//! values), so the very same `Market` runs through GA, the exact ILP, and
//! the LP bound:
//!
//! - `D` chain tasks at a single point `P`, with consecutive disjoint time
//!   windows, each priced `1`;
//! - driver 1 lives at `H`, `(D−1)/2` km from `P` (at 1 cost unit per km):
//!   serving the whole chain costs `D−1` in excess travel, netting exactly
//!   `1` — her per-task marginal is the paper's `1/D`;
//! - one decoy task at `Q`, `ε/2` km from `H`, whose window overlaps the
//!   whole day (it can never be chained): driver 1 would net `1 − ε` on it;
//! - drivers `2..D+1` each live `ε/2` km from `P` with a shift exactly
//!   bracketing one chain task: each nets `1 − ε` on it and can serve
//!   nothing else.
//!
//! Greedy commits driver 1 to the chain (profit `1 > 1 − ε`), destroying
//! every other driver's only option; the optimum instead spreads the work:
//! `(D+1)(1−ε)`.

use rideshare_geo::{GeoPoint, SpeedModel};
use rideshare_trace::DriverModel;
use rideshare_types::{DriverId, Money, TaskId, TimeDelta, Timestamp};

use crate::market::Market;
use crate::{Driver, Task};

/// A generated tightness instance with its analytically known optima.
#[derive(Clone, Debug)]
pub struct TightnessInstance {
    /// The geometric market realising Fig. 2.
    pub market: Market,
    /// The diameter parameter `D ≥ 1` (chain length).
    pub d: usize,
    /// The profit wedge `ε ∈ (0, 1)`.
    pub epsilon: f64,
}

impl TightnessInstance {
    /// The profit GA is guaranteed to achieve on this instance: exactly 1
    /// (driver 1's chain).
    #[must_use]
    pub fn expected_greedy(&self) -> f64 {
        1.0
    }

    /// The integral optimum: `(D+1)(1−ε)`.
    #[must_use]
    pub fn expected_opt(&self) -> f64 {
        (self.d as f64 + 1.0) * (1.0 - self.epsilon)
    }
}

/// Builds the Fig. 2 instance for diameter `d` and wedge `epsilon`.
///
/// # Panics
///
/// Panics unless `d ≥ 1` and `0 < epsilon < 1`.
///
/// # Examples
///
/// ```
/// use rideshare_core::tightness::fig2_instance;
/// use rideshare_core::{solve_greedy, Objective};
///
/// let inst = fig2_instance(3, 0.05);
/// let ga = solve_greedy(&inst.market, Objective::Profit);
/// let profit = ga.assignment.objective_value(&inst.market, Objective::Profit);
/// assert!((profit.as_f64() - 1.0).abs() < 1e-3);
/// ```
#[must_use]
pub fn fig2_instance(d: usize, epsilon: f64) -> TightnessInstance {
    assert!(d >= 1, "diameter must be at least 1");
    assert!(
        (0.0..1.0).contains(&epsilon) && epsilon > 0.0,
        "epsilon in (0,1)"
    );

    // 60 km/h, no detour, 1 cost unit per km → 1 km = 1 minute = 1 cost.
    let speed = SpeedModel::new(60.0, 1.0, 1.0);
    let p = GeoPoint::new(41.15, -8.61); // the chain point P
    let h = p.offset_km(0.0, (d as f64 - 1.0) / 2.0); // driver 1's home H
    let q = h.offset_km(epsilon / 2.0, 0.0); // the decoy point Q

    // Chain task i (0-based) has window [W·(i+1), W·(i+1) + 600].
    const W: i64 = 3600;
    let day_end: i64 = W * (d as i64 + 2);

    let mut tasks: Vec<Task> = Vec::with_capacity(d + 1);
    for i in 0..d {
        let start = W * (i as i64 + 1);
        tasks.push(Task {
            id: TaskId::new(i as u32),
            publish_time: Timestamp::from_secs(start - 300),
            origin: p,
            destination: p,
            pickup_deadline: Timestamp::from_secs(start),
            completion_deadline: Timestamp::from_secs(start + 600),
            duration: TimeDelta::from_secs(0),
            price: Money::new(1.0),
            valuation: Money::new(1.0),
            service_cost: Money::ZERO,
        });
    }
    // The decoy: window spans the entire horizon so it chains with nothing.
    tasks.push(Task {
        id: TaskId::new(d as u32),
        publish_time: Timestamp::from_secs(-600),
        origin: q,
        destination: q,
        pickup_deadline: Timestamp::from_secs(0),
        completion_deadline: Timestamp::from_secs(day_end),
        duration: TimeDelta::from_secs(0),
        price: Money::new(1.0),
        valuation: Money::new(1.0),
        service_cost: Money::ZERO,
    });

    let mut drivers: Vec<Driver> = Vec::with_capacity(d + 1);
    // Driver 1: home-work-home at H, shift covering everything.
    drivers.push(Driver {
        id: DriverId::new(0),
        source: h,
        destination: h,
        shift_start: Timestamp::from_secs(-2 * W),
        shift_end: Timestamp::from_secs(day_end + 2 * W),
        model: DriverModel::HomeWorkHome,
    });
    // Drivers 2..D+1: each brackets exactly one chain task.
    for i in 0..d {
        let g = p.offset_km(0.0, -(epsilon / 2.0)); // ε/2 km west of P
        let travel = speed.travel_time(g, p);
        let start = Timestamp::from_secs(W * (i as i64 + 1));
        let end = Timestamp::from_secs(W * (i as i64 + 1) + 600);
        drivers.push(Driver {
            id: DriverId::new(i as u32 + 1),
            source: g,
            destination: g,
            shift_start: start - travel,
            shift_end: end + travel,
            model: DriverModel::HomeWorkHome,
        });
    }

    TightnessInstance {
        market: Market::new(drivers, tasks, speed, None),
        d,
        epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::upper_bound::{lp_upper_bound, UpperBoundOptions};
    use crate::{solve_greedy, Objective};

    #[test]
    fn greedy_earns_exactly_one() {
        for d in 1..=5 {
            let inst = fig2_instance(d, 0.05);
            let ga = solve_greedy(&inst.market, Objective::Profit);
            ga.assignment.validate(&inst.market).unwrap();
            let profit = ga
                .assignment
                .objective_value(&inst.market, Objective::Profit)
                .as_f64();
            assert!((profit - 1.0).abs() < 1e-3, "D={d}: greedy profit {profit}");
            // Driver 1 took the whole chain.
            assert_eq!(ga.assignment.routes()[0].tasks.len(), d);
        }
    }

    #[test]
    fn optimum_is_d_plus_one_times_wedge() {
        for d in 1..=3 {
            let inst = fig2_instance(d, 0.05);
            let exact = solve_exact(&inst.market, Objective::Profit).unwrap();
            assert!(exact.proven_optimal);
            assert!(
                (exact.objective_value - inst.expected_opt()).abs() < 1e-3,
                "D={d}: OPT {} expected {}",
                exact.objective_value,
                inst.expected_opt()
            );
        }
    }

    #[test]
    fn ratio_approaches_one_over_d_plus_one() {
        let inst = fig2_instance(4, 0.01);
        let ga = solve_greedy(&inst.market, Objective::Profit);
        let achieved = ga
            .assignment
            .objective_value(&inst.market, Objective::Profit)
            .as_f64();
        let ratio = achieved / inst.expected_opt();
        let bound = 1.0 / (inst.d as f64 + 1.0);
        assert!(
            (ratio - bound).abs() < 0.01,
            "ratio {ratio} vs 1/(D+1) = {bound}"
        );
    }

    #[test]
    fn lp_bound_dominates_opt() {
        let inst = fig2_instance(3, 0.05);
        let ub = lp_upper_bound(
            &inst.market,
            Objective::Profit,
            UpperBoundOptions::default(),
        )
        .unwrap();
        assert!(ub.bound + 1e-6 >= inst.expected_opt());
    }

    #[test]
    fn chain_diameter_matches_d() {
        for d in 1..=5 {
            let inst = fig2_instance(d, 0.05);
            assert_eq!(inst.market.chain_diameter(), d.max(1));
        }
    }

    #[test]
    #[should_panic(expected = "diameter")]
    fn rejects_zero_diameter() {
        let _ = fig2_instance(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = fig2_instance(2, 1.5);
    }
}
