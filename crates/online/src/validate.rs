//! Feasibility validation under actual (simulated) timing.
//!
//! The offline task map chains tasks using the *estimated* completion
//! deadline `t̄⁺ₘ`; online, a driver who finishes early may legally take a
//! follow-up task the offline map has no arc for ("when the task m finishes
//! before t̄⁺ₘ, we use the real finish time", §III-B). This validator
//! replays each route with real timing, which is the correct feasibility
//! notion for online results.

use rideshare_core::{Assignment, Market};
use rideshare_types::{MarketError, Result};

use crate::market_replay::{DispatchEvent, SimulationResult};

/// Validates an online assignment by replaying every driver's route with
/// actual arrival/finish times.
///
/// Checks, per driver:
///
/// - the route departs no earlier than the shift start and each pickup is
///   reached by its deadline (with service starting on arrival),
/// - consecutive tasks are reachable from the *real* finish times,
/// - the driver reaches her own destination (conservatively from each
///   task's completion deadline) before her shift ends,
/// - no task is served twice across drivers (5a).
///
/// # Errors
///
/// Returns [`MarketError::InfeasibleAssignment`] describing the first
/// violated condition.
pub fn validate_online(market: &Market, assignment: &Assignment) -> Result<()> {
    if assignment.routes().len() != market.num_drivers() {
        return Err(MarketError::InfeasibleAssignment {
            reason: format!(
                "{} routes for {} drivers",
                assignment.routes().len(),
                market.num_drivers()
            ),
        });
    }
    let speed = market.speed();
    let mut seen = vec![false; market.num_tasks()];
    for (n, route) in assignment.routes().iter().enumerate() {
        let driver = &market.drivers()[n];
        let mut loc = driver.source;
        let mut free_at = driver.shift_start;
        for t in &route.tasks {
            let m = t.index();
            if m >= market.num_tasks() {
                return Err(MarketError::UnknownTask(*t));
            }
            if seen[m] {
                return Err(MarketError::InfeasibleAssignment {
                    reason: format!("(5a) {t} served twice"),
                });
            }
            seen[m] = true;
            let task = &market.tasks()[m];
            let depart = free_at.max(task.publish_time);
            let arrival = depart + speed.travel_time(loc, task.origin);
            if arrival > task.pickup_deadline {
                return Err(MarketError::InfeasibleAssignment {
                    reason: format!(
                        "driver#{n} reaches {t} at {arrival}, after deadline {}",
                        task.pickup_deadline
                    ),
                });
            }
            free_at = arrival + task.duration;
            loc = task.destination;
            // The platform promised the customer completion by t̄⁺ₘ and the
            // driver return-feasibility is judged against that promise.
            let back = speed.travel_time(task.destination, driver.destination);
            if task.completion_deadline + back > driver.shift_end {
                return Err(MarketError::InfeasibleAssignment {
                    reason: format!("driver#{n} cannot reach home after {t}"),
                });
            }
        }
        // Final leg home from the actual finish time.
        let home = free_at + speed.travel_time(loc, driver.destination);
        if home > driver.shift_end {
            return Err(MarketError::InfeasibleAssignment {
                reason: format!("driver#{n} arrives home at {home}, after shift end"),
            });
        }
    }
    Ok(())
}

/// Validates a full [`SimulationResult`]: route feasibility (as
/// [`validate_online`]) **plus dispatch causality** — no served task may
/// have a departure earlier than the instant its dispatch decision could
/// have been made.
///
/// The causality checks, per dispatched event:
///
/// - the recorded decision time is no earlier than the task's publication
///   (a decision cannot precede the order it decides),
/// - replaying the driver's route with decision-time-correct departures
///   (`depart = max(free, decision_time)`) reproduces the recorded arrival
///   exactly — a recorded arrival earlier than that replay means the
///   driver "departed" before the decision existed (the clairvoyance bug
///   this validator was built to catch),
/// - the recorded wait is consistent (`arrival − publish`) and the arrival
///   meets the pickup deadline,
/// - served/rejected/dispatch/event accounting all agree.
///
/// # Errors
///
/// Returns [`MarketError::InfeasibleAssignment`] describing the first
/// violated condition.
pub fn validate_online_result(market: &Market, result: &SimulationResult) -> Result<()> {
    validate_online(market, &result.assignment)?;
    let infeasible = |reason: String| MarketError::InfeasibleAssignment { reason };

    if result.served + result.rejected != market.num_tasks() {
        return Err(infeasible(format!(
            "{} served + {} rejected != {} tasks",
            result.served,
            result.rejected,
            market.num_tasks()
        )));
    }
    if result.events.len() != result.served {
        return Err(infeasible(format!(
            "{} events for {} served tasks",
            result.events.len(),
            result.served
        )));
    }
    let dispatched = result.dispatch.iter().filter(|d| d.is_some()).count();
    if dispatched != result.served {
        return Err(infeasible(format!(
            "{dispatched} dispatch entries for {} served tasks",
            result.served
        )));
    }

    // Index events by task; each served task carries exactly one event that
    // agrees with the dispatch vector.
    let mut by_task: Vec<Option<&DispatchEvent>> = vec![None; market.num_tasks()];
    for e in &result.events {
        let m = e.task.index();
        if m >= market.num_tasks() {
            return Err(MarketError::UnknownTask(e.task));
        }
        if by_task[m].is_some() {
            return Err(infeasible(format!("duplicate event for {}", e.task)));
        }
        if result.dispatch[m] != Some(e.driver) {
            return Err(infeasible(format!(
                "event for {} names {}, dispatch vector disagrees",
                e.task, e.driver
            )));
        }
        by_task[m] = Some(e);
    }

    let speed = market.speed();
    for (n, route) in result.assignment.routes().iter().enumerate() {
        let driver = &market.drivers()[n];
        let mut loc = driver.source;
        let mut free_at = driver.shift_start;
        for t in &route.tasks {
            let m = t.index();
            let task = &market.tasks()[m];
            let Some(e) = by_task[m] else {
                return Err(infeasible(format!("served task {t} has no event")));
            };
            if e.driver.index() != n {
                return Err(infeasible(format!(
                    "{t} sits on driver#{n}'s route but its event names {}",
                    e.driver
                )));
            }
            if e.decision_time < task.publish_time {
                return Err(infeasible(format!(
                    "{t} decided at {}, before it was published at {}",
                    e.decision_time, task.publish_time
                )));
            }
            // Causality: the driver departs no earlier than the decision.
            let depart = free_at.max(e.decision_time);
            let arrival = depart + speed.travel_time(loc, task.origin);
            if e.arrival != arrival {
                return Err(infeasible(format!(
                    "driver#{n} records arrival {} at {t}, but departing no \
                     earlier than the decision at {} she arrives at {arrival} \
                     (clairvoyant dispatch?)",
                    e.arrival, e.decision_time
                )));
            }
            if arrival > task.pickup_deadline {
                return Err(infeasible(format!(
                    "{t} reached at {arrival}, after deadline {}",
                    task.pickup_deadline
                )));
            }
            if e.wait != arrival - task.publish_time {
                return Err(infeasible(format!(
                    "{t} wait {} inconsistent with arrival {arrival}",
                    e.wait
                )));
            }
            free_at = arrival + task.duration;
            loc = task.destination;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::{Driver, Market, Task};
    use rideshare_geo::{GeoPoint, SpeedModel};
    use rideshare_trace::DriverModel;
    use rideshare_types::{DriverId, Money, TaskId, TimeDelta, Timestamp};

    fn pt(km_east: f64) -> GeoPoint {
        GeoPoint::new(41.15, -8.61).offset_km(0.0, km_east)
    }

    fn task(id: u32, at: f64, publish: i64, pickup: i64, completion: i64, dur: i64) -> Task {
        Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(publish),
            origin: pt(at),
            destination: pt(at),
            pickup_deadline: Timestamp::from_secs(pickup),
            completion_deadline: Timestamp::from_secs(completion),
            duration: TimeDelta::from_secs(dur),
            price: Money::new(5.0),
            valuation: Money::new(6.0),
            service_cost: Money::ZERO,
        }
    }

    fn driver(start: i64, end: i64) -> Driver {
        Driver {
            id: DriverId::new(0),
            source: pt(0.0),
            destination: pt(0.0),
            shift_start: Timestamp::from_secs(start),
            shift_end: Timestamp::from_secs(end),
            model: DriverModel::HomeWorkHome,
        }
    }

    fn speed() -> SpeedModel {
        SpeedModel::new(60.0, 1.0, 0.1)
    }

    #[test]
    fn early_finish_chain_valid_online_but_not_offline() {
        // Task 0: long estimated window (t̄⁺ = 4000) but short actual
        // duration (600 s). Task 1 starts at 2000: offline arc 0→1 needs
        // t̄⁻₁ ≥ t̄⁺₀ — absent; online the driver finishes at ~1600 and
        // makes it easily.
        let t0 = task(0, 1.0, 0, 1000, 4000, 600);
        let t1 = task(1, 1.0, 900, 2000, 2600, 300);
        let market = Market::new(vec![driver(0, 10_000)], vec![t0, t1], speed(), None);
        assert!(
            !market.has_chain_edge(0, 1),
            "offline map must lack the arc"
        );
        let mut a = rideshare_core::Assignment::empty(1);
        a.set_route(DriverId::new(0), vec![TaskId::new(0), TaskId::new(1)]);
        assert!(a.validate(&market).is_err(), "offline validation rejects");
        validate_online(&market, &a).expect("online validation accepts");
    }

    #[test]
    fn missed_pickup_rejected() {
        // Pickup 10 km away with a 5-minute budget at 60 km/h.
        let t0 = task(0, 10.0, 0, 300, 1200, 60);
        let market = Market::new(vec![driver(0, 10_000)], vec![t0], speed(), None);
        let mut a = rideshare_core::Assignment::empty(1);
        a.set_route(DriverId::new(0), vec![TaskId::new(0)]);
        let err = validate_online(&market, &a).unwrap_err();
        assert!(err.to_string().contains("after deadline"), "{err}");
    }

    #[test]
    fn shift_end_violation_rejected() {
        let t0 = task(0, 1.0, 0, 500, 9_500, 60);
        // Shift ends before the completion deadline + return.
        let market = Market::new(vec![driver(0, 5_000)], vec![t0], speed(), None);
        let mut a = rideshare_core::Assignment::empty(1);
        a.set_route(DriverId::new(0), vec![TaskId::new(0)]);
        assert!(validate_online(&market, &a).is_err());
    }

    #[test]
    fn duplicate_task_rejected() {
        let t0 = task(0, 1.0, 0, 500, 1500, 60);
        let d0 = driver(0, 10_000);
        let d1 = Driver {
            id: DriverId::new(1),
            ..d0
        };
        let market = Market::new(vec![d0, d1], vec![t0], speed(), None);
        let mut a = rideshare_core::Assignment::empty(2);
        a.push_task(DriverId::new(0), TaskId::new(0));
        a.push_task(DriverId::new(1), TaskId::new(0));
        let err = validate_online(&market, &a).unwrap_err();
        assert!(err.to_string().contains("(5a)"), "{err}");
    }

    #[test]
    fn empty_assignment_always_valid() {
        let market = Market::new(vec![driver(0, 100)], vec![], speed(), None);
        validate_online(&market, &rideshare_core::Assignment::empty(1)).unwrap();
    }

    /// One driver 1 km west of a single task (60 s of travel), plus a
    /// hand-rolled result claiming the given decision/arrival times.
    fn one_task_result(decision: i64, arrival: i64) -> (Market, SimulationResult) {
        let t0 = Task {
            origin: pt(1.0),
            destination: pt(1.0),
            ..task(0, 1.0, 0, 400, 2000, 60)
        };
        let market = Market::new(vec![driver(0, 10_000)], vec![t0], speed(), None);
        let mut assignment = rideshare_core::Assignment::empty(1);
        assignment.push_task(DriverId::new(0), TaskId::new(0));
        let arrival = Timestamp::from_secs(arrival);
        let result = SimulationResult {
            assignment,
            served: 1,
            rejected: 0,
            dispatch: vec![Some(DriverId::new(0))],
            events: vec![DispatchEvent {
                task: TaskId::new(0),
                driver: DriverId::new(0),
                arrival,
                decision_time: Timestamp::from_secs(decision),
                wait: arrival - Timestamp::from_secs(0),
                deadhead_km: 1.0,
                candidates: 1,
                margin: 0.0,
            }],
        };
        (market, result)
    }

    #[test]
    fn result_validator_accepts_honest_timing() {
        // Decision at 300, 60 s of travel → arrival 360.
        let (market, result) = one_task_result(300, 360);
        validate_online_result(&market, &result).unwrap();
    }

    #[test]
    fn result_validator_rejects_clairvoyant_departure() {
        // Claimed arrival 60 means the driver departed at 0, before the
        // decision at 300 existed — the old batch engine's bug.
        let (market, result) = one_task_result(300, 60);
        let err = validate_online_result(&market, &result).unwrap_err();
        assert!(err.to_string().contains("clairvoyant"), "{err}");
    }

    #[test]
    fn result_validator_rejects_decision_before_publish() {
        let (market, result) = one_task_result(-10, 50);
        let err = validate_online_result(&market, &result).unwrap_err();
        assert!(err.to_string().contains("before it was published"), "{err}");
    }

    #[test]
    fn result_validator_rejects_route_event_driver_mismatch() {
        // The route puts task 0 on driver 0, but the event and dispatch
        // vector both claim driver 1 — three representations of "who
        // served it" must agree.
        let (market, mut result) = one_task_result(300, 360);
        result.dispatch[0] = Some(DriverId::new(1));
        result.events[0].driver = DriverId::new(1);
        let err = validate_online_result(&market, &result).unwrap_err();
        assert!(err.to_string().contains("its event names"), "{err}");
    }

    #[test]
    fn result_validator_rejects_bad_accounting() {
        let (market, mut result) = one_task_result(300, 360);
        result.rejected = 5;
        let err = validate_online_result(&market, &result).unwrap_err();
        assert!(err.to_string().contains("rejected"), "{err}");
    }
}
