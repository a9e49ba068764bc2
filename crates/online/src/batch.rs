//! Batched dispatch — a non-myopic online mode with honest timing.
//!
//! The paper's concluding remarks name "solv[ing] the online problem with
//! non-heuristic algorithms" as future work. The standard practical step in
//! that direction (and what production dispatch systems actually do) is
//! **batching**: instead of dispatching each order the instant it arrives,
//! the platform holds orders for a short window `W` and solves a small
//! assignment problem over the batch. Per-order latency rises by at most
//! `W`; decision quality approaches the offline optimum as `W` grows.
//!
//! # The decision-time model
//!
//! Under [`crate::StreamPolicy::Batched`] the [`crate::StreamEngine`]
//! opens a window at the first pending order's publish time; every order
//! published within `W` of it joins the batch. The
//! decisions are *decision-time-correct*: a driver cannot depart for a
//! pickup before the dispatch decision that sends her exists, so every
//! departure satisfies `depart ≥ decision_time` (and every
//! [`crate::DispatchEvent`] records the decision instant —
//! [`crate::validate_online_result`] enforces the causality law). Batching
//! therefore pays its real latency cost: profit with `W > 0` can only be
//! won back through better matching, never through time travel.
//!
//! Orders are still honoured within their own deadlines via **early
//! flush**: a task is held only while a feasible dispatch remains
//! possible. If waiting for the window end would strand it — no driver
//! could reach the pickup by `t̄⁻ₘ` departing that late — the task is
//! decided at the *latest still-feasible instant*,
//! `max over drivers of (t̄⁻ₘ − travel)`, clamped to its publication and
//! the window end (computed against the driver positions known when the
//! window opens). Because of that clamp the search for the epoch stops at
//! the first driver who can still arrive departing at the window end —
//! most orders end there — and an order published at the window end
//! (every order when `W = 0`) needs no search. Tasks sharing a flush
//! epoch are decided jointly; a task unmatched at its epoch is rejected
//! (waiting longer only moves departures later, so feasibility cannot
//! return).
//!
//! # Matchers
//!
//! Each decision epoch solves a small matching problem over the batch's
//! per-task candidate sets (the same grid-prunable Eq. 14 candidates
//! instant dispatch chooses from). The matcher is pluggable via
//! [`BatchMatcher`]:
//!
//! - [`GreedyPairMatcher`] commits the single *(driver, task)* pair with
//!   the maximum marginal value per round, re-projecting the driver between
//!   rounds — the batch analogue of maxMargin. With `W = 0` and distinct
//!   publish times it degenerates to instant maxMargin dispatch
//!   *exactly* (a property the facade's `batch_properties` suite pins).
//! - [`OptimalAssignmentMatcher`] solves each round's one-shot assignment
//!   LP (total marginal value, ≤ 1 task per driver per round) with
//!   `rideshare-lp`'s simplex; the bipartite constraint matrix is totally
//!   unimodular, so the LP vertex is integral. Profit-maximizing: it
//!   declines negative-margin dispatches that the greedy matcher would
//!   serve.
//!
//! This module holds the matchers; a whole `Market` runs under one
//! through [`crate::replay_market`] with a [`crate::StreamPolicy::Batched`]
//! (or [`crate::ShardPolicySpec::Batched`]'s holder, which picks the
//! matcher by [`MatcherKind`]).

use rideshare_lp::{Cmp, LinearProgram};

use crate::policy::Candidate;

/// Which per-batch matcher a batched run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatcherKind {
    /// Repeated best-pair picking ([`GreedyPairMatcher`]).
    Greedy,
    /// Per-round optimal assignment ([`OptimalAssignmentMatcher`]).
    Optimal,
}

/// One matching round of one decision epoch, as presented to a
/// [`BatchMatcher`]: the still-unmatched task indices and, aligned by
/// slot, each task's feasible candidate drivers (sorted by announced driver
/// id, marginal values per Eq. 14) under the epoch's decision time and the
/// drivers' current projected states.
#[derive(Debug)]
pub struct BatchRound<'a> {
    /// Market task indices still unmatched in this epoch, ascending.
    pub tasks: &'a [usize],
    /// `candidates[slot]` are the feasible candidates of `tasks[slot]`.
    pub candidates: &'a [Vec<Candidate>],
}

/// A pluggable per-batch matching rule.
///
/// The engine calls [`BatchMatcher::match_round`] repeatedly within
/// one decision epoch: after each non-empty answer it commits the chosen
/// pairs (which moves the chosen drivers) and regenerates the remaining
/// tasks' candidate sets for the next round. An empty answer ends the
/// epoch; tasks still unmatched are rejected.
pub trait BatchMatcher {
    /// Picks driver-disjoint, task-disjoint `(slot, candidate_index)`
    /// pairs to commit this round, or an empty vector to end the epoch.
    /// Pairs violating disjointness are skipped deterministically (first
    /// slot wins).
    fn match_round(&mut self, round: &BatchRound<'_>) -> Vec<(usize, usize)>;
}

/// The batch analogue of maxMargin: per round, commit the single feasible
/// *(driver, task)* pair with the maximum marginal value. Ties break to the
/// lower task index, then the lower driver id, so runs are deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyPairMatcher;

impl BatchMatcher for GreedyPairMatcher {
    fn match_round(&mut self, round: &BatchRound<'_>) -> Vec<(usize, usize)> {
        let mut best: Option<(f64, usize, usize, usize)> = None; // (δ, task, slot, cand)
        for (slot, &t) in round.tasks.iter().enumerate() {
            for (ci, c) in round.candidates[slot].iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((bv, bt, bslot, bci)) => {
                        let bd = round.candidates[bslot][bci].driver;
                        c.marginal_value > bv
                            || (c.marginal_value == bv && (t, c.driver) < (bt, bd))
                    }
                };
                if better {
                    best = Some((c.marginal_value, t, slot, ci));
                }
            }
        }
        best.map(|(_, _, slot, ci)| vec![(slot, ci)])
            .unwrap_or_default()
    }
}

/// Per-round optimal assignment: maximize the round's total marginal value
/// subject to ≤ 1 task per driver and ≤ 1 driver per task, solved as an LP
/// (integral by total unimodularity of the bipartite constraint matrix).
///
/// Profit-maximizing: pairs with negative marginal value are never part of
/// an optimum, so tasks whose every candidate loses money are declined —
/// unlike [`GreedyPairMatcher`], which serves any feasible task.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimalAssignmentMatcher;

impl BatchMatcher for OptimalAssignmentMatcher {
    fn match_round(&mut self, round: &BatchRound<'_>) -> Vec<(usize, usize)> {
        // Variables: one per feasible (slot, candidate) pair.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (slot, cands) in round.candidates.iter().enumerate() {
            for ci in 0..cands.len() {
                pairs.push((slot, ci));
            }
        }
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut lp = LinearProgram::maximize();
        let vars: Vec<usize> = pairs
            .iter()
            .map(|&(slot, ci)| lp.add_var(round.candidates[slot][ci].marginal_value))
            .collect();
        // ≤ 1 driver per task.
        for slot in 0..round.tasks.len() {
            let row: Vec<(usize, f64)> = pairs
                .iter()
                .zip(&vars)
                .filter(|(&(s, _), _)| s == slot)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            if !row.is_empty() {
                lp.add_constraint(row, Cmp::Le, 1.0);
            }
        }
        // ≤ 1 task per driver (per round).
        let mut drivers: Vec<_> = pairs
            .iter()
            .map(|&(slot, ci)| round.candidates[slot][ci].driver)
            .collect();
        drivers.sort_unstable();
        drivers.dedup();
        for d in drivers {
            let row: Vec<(usize, f64)> = pairs
                .iter()
                .zip(&vars)
                .filter(|(&(slot, ci), _)| round.candidates[slot][ci].driver == d)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            if row.len() > 1 {
                lp.add_constraint(row, Cmp::Le, 1.0);
            }
        }
        let sol = lp.solve().expect("round assignment LP is feasible (x = 0)");
        pairs
            .into_iter()
            .zip(&vars)
            .filter(|(_, &v)| sol.values[v] > 0.5)
            .map(|(p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MaxMargin;
    use crate::shard::ShardPolicySpec;
    use crate::simulator::{replay_market, SimulationResult};
    use crate::stream::StreamPolicy;
    use crate::validate::validate_online_result;
    use rideshare_core::{Market, MarketBuildOptions, Objective};
    use rideshare_trace::{DriverModel, TraceConfig};
    use rideshare_types::{DriverId, TimeDelta, Timestamp};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    /// `market` held for `window` and closed by `matcher`.
    fn batched(market: &Market, window: TimeDelta, matcher: MatcherKind) -> SimulationResult {
        let spec = ShardPolicySpec::Batched { window, matcher };
        replay_market(market, &mut spec.holder().as_policy())
    }

    #[test]
    fn batched_results_are_feasible_and_causal() {
        let m = market(61, 120, 20);
        for mins in [0i64, 1, 5, 30] {
            for matcher in [MatcherKind::Greedy, MatcherKind::Optimal] {
                let r = batched(&m, TimeDelta::from_mins(mins), matcher);
                validate_online_result(&m, &r).unwrap();
                assert_eq!(r.served + r.rejected, m.num_tasks());
                assert_eq!(r.served, r.assignment.served_count());
            }
        }
    }

    #[test]
    fn departures_respect_the_decision_time() {
        // The old engine's clairvoyance bug: drivers departed at publish
        // time for decisions made up to W later. Now every event's arrival
        // is at least decision_time + (the driver's travel), so in
        // particular arrival ≥ decision_time and the recorded decision is
        // inside the task's window.
        let m = market(67, 150, 25);
        let w = TimeDelta::from_mins(10);
        let r = batched(&m, w, MatcherKind::Greedy);
        assert!(r.served > 0, "market too sparse for the assertion");
        for e in &r.events {
            let task = &m.tasks()[e.task.index()];
            assert!(e.decision_time >= task.publish_time);
            assert!(e.decision_time <= task.publish_time + w);
            assert!(e.arrival >= e.decision_time, "departure predates decision");
        }
    }

    #[test]
    fn zero_window_degenerates_to_max_margin() {
        // Distinct publish times make W = 0 per-task; greedy matching on a
        // singleton batch is exactly maxMargin.
        let m = market(63, 150, 25);
        let mut publishes: Vec<_> = m.tasks().iter().map(|t| t.publish_time).collect();
        publishes.sort();
        assert!(
            publishes.windows(2).all(|w| w[0] != w[1]),
            "seed must give distinct publish times"
        );
        let instant = replay_market(&m, &mut StreamPolicy::Instant(&mut MaxMargin::new()));
        let zero = batched(&m, TimeDelta::ZERO, MatcherKind::Greedy);
        assert_eq!(zero.dispatch, instant.dispatch);
        assert_eq!(zero.served, instant.served);
        assert!(zero.total_profit(&m).approx_eq(instant.total_profit(&m)));
    }

    #[test]
    fn batched_profit_below_offline_greedy() {
        for seed in [62u64, 64, 68] {
            let m = market(seed, 150, 25);
            let offline = rideshare_core::solve_greedy(&m, Objective::Profit)
                .assignment
                .objective_value(&m, Objective::Profit)
                .as_f64();
            for mins in [1i64, 3, 10] {
                for matcher in [MatcherKind::Greedy, MatcherKind::Optimal] {
                    let profit = batched(&m, TimeDelta::from_mins(mins), matcher)
                        .total_profit(&m)
                        .as_f64();
                    assert!(
                        profit <= offline + 1e-6,
                        "seed {seed} W={mins}m {matcher:?}: batched {profit} beats offline \
                         greedy {offline}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimal_matcher_beats_greedy_within_one_epoch() {
        // Classic greedy trap. Both tasks share the decision epoch t = 60
        // (W = 1 min, deadlines past the window end). Driver 0 sits on task
        // 0's pickup and is the only driver who can reach task 1 in time —
        // but not after serving task 0 first. Greedy commits the best pair
        // (driver 0, task 0) and forfeits task 1; the optimal assignment
        // sends driver 1 to task 0 and driver 0 to task 1, serving both.
        use rideshare_geo::{GeoPoint, SpeedModel};
        use rideshare_types::{Money, TaskId};

        let base = GeoPoint::new(41.15, -8.61);
        let pt = |km: f64| base.offset_km(0.0, km);
        // 60 km/h, so 1 km of pickup distance costs 60 s of arrival time.
        let speed = SpeedModel::new(60.0, 1.0, 0.1);
        let task = |id: u32, at: f64, price: f64, pickup: i64| rideshare_core::Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(0),
            origin: pt(at),
            destination: pt(at),
            pickup_deadline: Timestamp::from_secs(pickup),
            completion_deadline: Timestamp::from_secs(pickup + 600),
            duration: TimeDelta::from_secs(60),
            price: Money::new(price),
            valuation: Money::new(price),
            service_cost: Money::ZERO,
        };
        let driver = |id: u32, at: f64| rideshare_core::Driver {
            id: DriverId::new(id),
            source: pt(at),
            destination: pt(at),
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(100_000),
            model: DriverModel::HomeWorkHome,
        };
        // Arrivals at the epoch: d0→t0 instant, d1→t0 at 360, d0→t1 at 420
        // (feasible, deadline 430), d1→t1 at 720 (infeasible). After d0
        // serves t0 it reaches t1 at 480 > 430 — greedy cannot recover.
        let market = Market::new(
            vec![driver(0, 0.0), driver(1, 5.0)],
            vec![task(0, 0.0, 10.0, 1200), task(1, -6.0, 9.0, 430)],
            speed,
            None,
        );
        let w = TimeDelta::from_mins(1);
        let greedy = batched(&market, w, MatcherKind::Greedy);
        let optimal = batched(&market, w, MatcherKind::Optimal);
        assert_eq!(greedy.served, 1, "greedy falls into the trap");
        assert_eq!(optimal.served, 2, "optimal serves both");
        assert!(
            optimal.total_profit(&market).as_f64() > greedy.total_profit(&market).as_f64(),
            "optimal {} vs greedy {}",
            optimal.total_profit(&market),
            greedy.total_profit(&market)
        );
        validate_online_result(&market, &greedy).unwrap();
        validate_online_result(&market, &optimal).unwrap();
    }

    #[test]
    fn early_flush_saves_short_deadline_tasks() {
        // A long window with a task whose pickup deadline falls inside it:
        // without early flush the task would expire at the window end.
        use rideshare_geo::{GeoPoint, SpeedModel};
        use rideshare_types::{Money, TaskId};

        let at = GeoPoint::new(41.15, -8.61);
        let speed = SpeedModel::new(60.0, 1.0, 0.1);
        let task = rideshare_core::Task {
            id: TaskId::new(0),
            publish_time: Timestamp::from_secs(0),
            origin: at,
            destination: at,
            // Expires at t = 120, well before the 10-minute window ends.
            pickup_deadline: Timestamp::from_secs(120),
            completion_deadline: Timestamp::from_secs(1000),
            duration: TimeDelta::from_secs(60),
            price: Money::new(5.0),
            valuation: Money::new(5.0),
            service_cost: Money::ZERO,
        };
        let driver = rideshare_core::Driver {
            id: DriverId::new(0),
            source: at,
            destination: at,
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(100_000),
            model: DriverModel::HomeWorkHome,
        };
        let market = Market::new(vec![driver], vec![task], speed, None);
        let r = batched(&market, TimeDelta::from_mins(10), MatcherKind::Greedy);
        assert_eq!(r.served, 1, "early flush must rescue the task");
        let e = &r.events[0];
        assert_eq!(e.decision_time, Timestamp::from_secs(120), "flushed at t̄⁻");
        assert_eq!(e.arrival, Timestamp::from_secs(120));
        validate_online_result(&market, &r).unwrap();
    }

    #[test]
    fn early_flush_accounts_for_travel_time() {
        // The driver is 1 km (60 s) from the pickup and the deadline is
        // t = 120, inside a 10-minute window. Flushing at the deadline
        // itself would still strand the task (depart 120, arrive 180); the
        // engine must flush at the last feasible instant, t = 60.
        use rideshare_geo::{GeoPoint, SpeedModel};
        use rideshare_types::{Money, TaskId};

        let origin = GeoPoint::new(41.15, -8.61);
        let task = rideshare_core::Task {
            id: TaskId::new(0),
            publish_time: Timestamp::from_secs(0),
            origin,
            destination: origin,
            pickup_deadline: Timestamp::from_secs(120),
            completion_deadline: Timestamp::from_secs(1000),
            duration: TimeDelta::from_secs(60),
            price: Money::new(5.0),
            valuation: Money::new(5.0),
            service_cost: Money::ZERO,
        };
        let away = origin.offset_km(0.0, 1.0);
        let driver = rideshare_core::Driver {
            id: DriverId::new(0),
            source: away,
            destination: away,
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(100_000),
            model: DriverModel::HomeWorkHome,
        };
        let market = Market::new(
            vec![driver],
            vec![task],
            SpeedModel::new(60.0, 1.0, 0.1),
            None,
        );
        let r = batched(&market, TimeDelta::from_mins(10), MatcherKind::Greedy);
        assert_eq!(r.served, 1, "flush must leave room for the travel");
        let e = &r.events[0];
        assert_eq!(e.decision_time, Timestamp::from_secs(60));
        assert_eq!(e.arrival, Timestamp::from_secs(120));
        validate_online_result(&market, &r).unwrap();
    }

    #[test]
    fn empty_market_ok() {
        let m = market(65, 0, 5);
        let r = batched(&m, TimeDelta::from_mins(5), MatcherKind::Greedy);
        assert_eq!(r.served, 0);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_window_rejected() {
        // An empty market never hands the stream an order to check the
        // window on, so only the front-end's up-front assert refuses it.
        let empty = market(66, 0, 2);
        let negative = TimeDelta::from_secs(-1);
        let refused = std::panic::catch_unwind(|| batched(&empty, negative, MatcherKind::Greedy));
        assert!(refused.is_err(), "empty market ran with a negative window");
        let m = market(66, 10, 2);
        let _ = batched(&m, negative, MatcherKind::Greedy);
    }
}
