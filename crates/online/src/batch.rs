//! Batched dispatch — a non-myopic online mode with honest timing.
//!
//! The paper's concluding remarks name "solv\[ing\] the online problem with
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
//! instant dispatch chooses from). A batched run names its matcher by
//! [`MatcherKind`], and the engine closes an epoch the way that kind
//! says:
//!
//! - [`MatcherKind::Greedy`] commits the single *(driver, task)* pair
//!   with the maximum marginal value per round, re-projecting the driver
//!   between rounds — the batch analogue of maxMargin. With `W = 0` and
//!   distinct publish times it degenerates to instant maxMargin dispatch
//!   *exactly* (a property the facade's `batch_properties` suite pins).
//!   Its epochs close **from a pair heap**: the engine scans each order
//!   once, pushes every pair, and pops the best one still live (its order
//!   unmatched, its driver not moved since the push). After a commit it
//!   evaluates the driver again only for the unmatched orders whose
//!   pickup deadline she can still meet by availability, and pushes what
//!   it finds. The commits, their order and each dispatch's candidate
//!   count are those of the rule run round by round (the tests' oracle);
//!   the cost follows the commits, not rounds × held orders.
//! - [`MatcherKind::Optimal`] closes **in rounds**: the engine offers
//!   every unmatched order's candidates to [`optimal_round`], commits the
//!   pairs it answers, refreshes the committed drivers' entries and asks
//!   again, until an answer is empty. Each round solves the one-shot
//!   assignment LP (total marginal value, ≤ 1 task per driver per round)
//!   as a packing LP on [`rideshare_lp::PackingLp`], the simplex of the
//!   `Z_f*` master. The bipartite constraint matrix is totally
//!   unimodular, so a basis has an integral inverse with entries in
//!   {−1, 0, 1}; under the LP's RHS perturbation of at most rows × 1e-7,
//!   every value is that close to an integer, and reading a pair as
//!   chosen above 0.5 is safe. Profit-maximizing: it declines
//!   negative-margin dispatches that the greedy matcher would serve.
//!
//! This module holds the matchers; a whole `Market` runs under one
//! through [`crate::replay_market`] with a [`crate::StreamPolicy::Batched`]
//! (or [`crate::ShardPolicySpec::Batched`]'s holder).

use std::cmp::Reverse;

use rideshare_lp::PackingLp;

use crate::policy::Candidate;

/// Which per-batch matcher a batched run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatcherKind {
    /// Repeated best-pair picking, closed from a pair heap.
    Greedy,
    /// Per-round optimal assignment on the packing LP.
    Optimal,
}

/// One matching round of one decision epoch: the still-unmatched task
/// indices and, aligned by slot, each task's feasible candidate drivers
/// (sorted by announced driver id, marginal values per Eq. 14) under the
/// epoch's decision time and the drivers' current projected states.
#[derive(Debug)]
pub(crate) struct BatchRound<'a> {
    /// Market task indices still unmatched in this epoch, ascending.
    pub(crate) tasks: &'a [usize],
    /// `candidates[slot]` are the feasible candidates of `tasks[slot]`.
    pub(crate) candidates: &'a [Vec<Candidate>],
}

/// A per-round matching rule: the driver-disjoint, task-disjoint
/// `(slot, candidate_index)` pairs to commit this round, or an empty
/// vector to end the epoch. The engine skips a pair that breaks
/// disjointness (first slot wins).
pub(crate) type RoundRule = fn(&BatchRound<'_>) -> Vec<(usize, usize)>;

/// A candidate of one epoch's order, ranked as the greedy rule ranks
/// pairs: the larger margin first (`-0.0` folded to `0.0`, equal as `>`
/// has them), then the lower task id, then the lower driver id, then the
/// earlier slot (the round loop's first-found, for orders that share an
/// id). Margins are taken to be finite, as `EventGuard` keeps a feed's
/// prices and costs. `version` is the driver's commit count when the pair
/// was evaluated: the engine's pair heap drops a pair whose driver has
/// committed since.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RankedPair {
    margin: f64,
    /// The order's task id.
    pub(crate) task: u32,
    /// The order's slot in its epoch.
    pub(crate) slot: u32,
    /// The driver's commit count when `candidate` was evaluated.
    pub(crate) version: u32,
    /// The pair as evaluated.
    pub(crate) candidate: Candidate,
}

impl RankedPair {
    pub(crate) fn new(candidate: Candidate, task: u32, slot: u32, version: u32) -> Self {
        Self {
            margin: candidate.marginal_value + 0.0,
            task,
            slot,
            version,
            candidate,
        }
    }
}

impl Ord for RankedPair {
    /// Greater is better: a max-heap pops the pair the round would pick.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |p: &Self| {
            (
                Reverse(p.task),
                Reverse(p.candidate.driver),
                Reverse(p.slot),
            )
        };
        self.margin
            .total_cmp(&other.margin)
            .then_with(|| key(self).cmp(&key(other)))
    }
}

impl PartialOrd for RankedPair {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankedPair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RankedPair {}

/// The [`MatcherKind::Optimal`] round rule: maximize the round's total
/// marginal value subject to ≤ 1 task per driver and ≤ 1 driver per task,
/// solved as a packing LP on [`PackingLp`].
///
/// - **Rows:** one per task slot, plus one per driver offered in more than
///   one slot. A driver with a single pair is already capped by that
///   pair's task row.
/// - **Columns:** one per pair with margin ≥ 0, its support {task row,
///   driver row}, every coefficient 1. A negative-margin column is zero at
///   every optimum of a packing LP (lowering it keeps every row feasible
///   and raises the objective), so it is never offered, and tasks whose
///   every candidate loses money are declined — unlike the greedy
///   matcher, which serves any feasible task.
/// - **Result:** the pairs whose basic columns are valued above 0.5. The
///   bipartite matrix is totally unimodular, so every basis has an
///   integral inverse with entries in {−1, 0, 1}. `PackingLp` lifts row
///   `i`'s capacity by `(i + 1)·1e-7` against degeneracy, so each value
///   sits within rows × 1e-7 of an integer, far inside 0.5.
///
/// Among equal-value optima a round resolves to the vertex `PackingLp`
/// reaches. That is deterministic, and shard-stable because candidates
/// are ordered by announced driver id.
pub(crate) fn optimal_round(round: &BatchRound<'_>) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (slot, cands) in round.candidates.iter().enumerate() {
        for (ci, c) in cands.iter().enumerate() {
            if c.marginal_value >= 0.0 {
                pairs.push((slot, ci));
            }
        }
    }
    if pairs.is_empty() {
        return Vec::new();
    }
    // A driver is a candidate at most once per slot, so a driver with
    // more than one pair is offered in more than one slot.
    let mut by_driver: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(j, &(slot, ci))| (round.candidates[slot][ci].driver, j))
        .collect();
    by_driver.sort_unstable();
    let mut driver_row = vec![None; pairs.len()];
    let mut rows = round.tasks.len();
    for group in by_driver.chunk_by(|a, b| a.0 == b.0) {
        if group.len() > 1 {
            for &(_, j) in group {
                driver_row[j] = Some(rows);
            }
            rows += 1;
        }
    }
    let mut lp = PackingLp::new(rows);
    for (&(slot, ci), row) in pairs.iter().zip(&driver_row) {
        let margin = round.candidates[slot][ci].marginal_value;
        match *row {
            Some(row) => lp.add_column(margin, &[slot, row]),
            None => lp.add_column(margin, &[slot]),
        };
    }
    lp.optimize()
        .expect("round assignment LP ran out of its pivot limit");
    let mut chosen: Vec<usize> = lp
        .basic_columns()
        .filter(|&(_, f)| f > 0.5)
        .map(|(j, _)| j)
        .collect();
    chosen.sort_unstable();
    chosen.into_iter().map(|j| pairs[j]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market_replay::{replay_market, SimulationResult};
    use crate::policy::InstantRule;
    use crate::shard::ShardPolicySpec;
    use crate::stream::{
        market_events, replay_stream, CollectingSink, StreamOptions, StreamPolicy,
    };
    use crate::validate::validate_online_result;
    use rideshare_core::{Market, MarketBuildOptions, Objective};
    use rideshare_trace::{DriverModel, TraceConfig};
    use rideshare_types::{DriverId, TimeDelta, Timestamp};
    use std::cell::{Cell, RefCell};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        market_of(seed, tasks, drivers, DriverModel::Hitchhiking)
    }

    fn market_of(seed: u64, tasks: usize, drivers: usize, model: DriverModel) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, model)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    /// `market` held for `window` and closed by `matcher`.
    fn batched(market: &Market, window: TimeDelta, matcher: MatcherKind) -> SimulationResult {
        let spec = ShardPolicySpec::Batched { window, matcher };
        replay_market(market, spec.holder())
    }

    /// `market` held for `window`, every epoch closed in rounds of `rule`
    /// in place of the matcher's own close.
    fn in_rounds(market: &Market, window: TimeDelta, rule: RoundRule) -> SimulationResult {
        let mut options = StreamOptions::default();
        options.rounds = Some(rule);
        let matcher = MatcherKind::Greedy;
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            market.speed(),
            market_events(market),
            StreamPolicy::Batched { window, matcher },
            options,
            &mut sink,
        );
        sink.into_result()
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
        let instant = replay_market(&m, StreamPolicy::Instant(InstantRule::MaxMargin));
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

    /// Classic greedy trap. Both tasks share the decision epoch t = 60
    /// (W = 1 min, deadlines past the window end). Driver 0 sits on task
    /// 0's pickup and is the only driver who can reach task 1 in time —
    /// but not after serving task 0 first. Greedy commits the best pair
    /// (driver 0, task 0) and forfeits task 1; the optimal assignment
    /// sends driver 1 to task 0 and driver 0 to task 1, serving both.
    fn greedy_trap() -> Market {
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
        Market::new(
            vec![driver(0, 0.0), driver(1, 5.0)],
            vec![task(0, 0.0, 10.0, 1200), task(1, -6.0, 9.0, 430)],
            speed,
            None,
        )
    }

    #[test]
    fn optimal_matcher_beats_greedy_within_one_epoch() {
        let market = greedy_trap();
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

    /// The round LP on the dense simplex, every pair a variable (negative
    /// margins included): the oracle of [`optimal_round`].
    fn dense_round(round: &BatchRound<'_>) -> Vec<(usize, usize)> {
        use rideshare_lp::{Cmp, LinearProgram};
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

    thread_local! {
        /// The rounds [`pinned_round`] solved, and those of them that
        /// committed more than one pair.
        static PINNED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// A round rule that solves every round both ways, insists on the
    /// same pairs, and commits them.
    fn pinned_round(round: &BatchRound<'_>) -> Vec<(usize, usize)> {
        let dense = dense_round(round);
        let packing = optimal_round(round);
        let (rounds, joint) = PINNED.get();
        assert_eq!(
            packing, dense,
            "round {rounds} over tasks {:?}",
            round.tasks
        );
        PINNED.set((rounds + 1, joint + usize::from(packing.len() > 1)));
        packing
    }

    #[test]
    fn packing_round_lp_matches_the_dense_oracle_on_market_rounds() {
        PINNED.set((0, 0));
        let trap = greedy_trap();
        let mut runs = vec![(trap, vec![60])];
        for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
            for seed in [71u64, 72, 73] {
                let m = market_of(seed, 2000, 200, model);
                runs.push((m, vec![90, 60, 180, 300, 600]));
            }
        }
        for (m, windows) in &runs {
            for &secs in windows {
                let r = in_rounds(m, TimeDelta::from_secs(secs), pinned_round);
                validate_online_result(m, &r).unwrap();
            }
        }
        let (rounds, joint) = PINNED.get();
        assert!(
            joint >= 1_000,
            "{joint} of {rounds} rounds committed more than one pair"
        );
    }

    #[test]
    fn tie_rounds_resolve_to_an_optimum_of_equal_value() {
        // Integer margins from five levels (zero and negative included),
        // each driver a candidate of several tasks: rounds full of
        // equal-value optima. The two LPs may settle on different ones.
        let mut state = 0x7135_u64;
        let mut below = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        let value = |round: &BatchRound<'_>, pairs: &[(usize, usize)]| -> f64 {
            let margin = |&(slot, ci): &(usize, usize)| round.candidates[slot][ci].marginal_value;
            pairs.iter().map(margin).sum()
        };
        for r in 0..5_000 {
            let tasks: Vec<usize> = (0..1 + below(8)).collect();
            let drivers = 1 + below(8);
            let mut candidates: Vec<Vec<Candidate>> = vec![Vec::new(); tasks.len()];
            for list in &mut candidates {
                for d in 0..drivers as u32 {
                    if below(3) > 0 {
                        list.push(Candidate {
                            driver: DriverId::new(d),
                            slot: d,
                            arrival: Timestamp::from_secs(0),
                            marginal_value: below(5) as f64 - 1.0,
                        });
                    }
                }
            }
            let round = BatchRound {
                tasks: &tasks,
                candidates: &candidates,
            };
            let packing = optimal_round(&round);
            let dense = dense_round(&round);
            for pairs in [&packing, &dense] {
                let mut slots: Vec<usize> = pairs.iter().map(|p| p.0).collect();
                let mut ids: Vec<DriverId> = pairs
                    .iter()
                    .map(|&(s, c)| candidates[s][c].driver)
                    .collect();
                slots.dedup();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(
                    slots.len(),
                    pairs.len(),
                    "round {r}: a task twice in {pairs:?}"
                );
                assert_eq!(
                    ids.len(),
                    pairs.len(),
                    "round {r}: a driver twice in {pairs:?}"
                );
            }
            let (p, d) = (value(&round, &packing), value(&round, &dense));
            assert!((p - d).abs() < 1e-9, "round {r}: packing {p} vs dense {d}");
        }
    }

    /// The greedy rule, one round of it: commit the single feasible
    /// *(driver, task)* pair with the maximum marginal value. Ties break to
    /// the lower task index, then the lower driver id, then the earlier
    /// slot. The definition the pair-heap close is tested against.
    fn greedy_round(round: &BatchRound<'_>) -> Vec<(usize, usize)> {
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

    /// The greedy rule run in rounds ([`round_loop`]), with counts of what
    /// the heap close has to get right.
    #[derive(Default)]
    struct RoundLoop {
        /// The last round's orders and the driver it committed.
        last: Option<(Vec<usize>, Option<DriverId>)>,
        /// Commits so far in the running epoch.
        commits: usize,
        /// Epochs that committed two pairs or more.
        multi_commit_epochs: usize,
        /// Rounds that found the driver the round before committed still
        /// a candidate: re-evaluations that hit.
        hits: usize,
    }

    impl RoundLoop {
        fn round(&mut self, round: &BatchRound<'_>) -> Vec<(usize, usize)> {
            // Task ids are unique, so a round shares an order with the
            // round before only inside one epoch.
            match self.last.take() {
                Some((tasks, moved)) if tasks.contains(&round.tasks[0]) => {
                    let mut offered = round.candidates.iter().flatten();
                    self.hits += usize::from(offered.any(|c| Some(c.driver) == moved));
                }
                _ => self.commits = 0,
            }
            let picks = greedy_round(round);
            let moved = picks
                .first()
                .map(|&(slot, ci)| round.candidates[slot][ci].driver);
            if moved.is_some() {
                self.commits += 1;
                self.multi_commit_epochs += usize::from(self.commits == 2);
            }
            self.last = Some((round.tasks.to_vec(), moved));
            picks
        }
    }

    thread_local! {
        static ROUND_LOOP: RefCell<RoundLoop> = RefCell::default();
    }

    /// [`greedy_round`] as a round rule, counted in [`ROUND_LOOP`]: the
    /// oracle of the pair-heap close.
    fn round_loop(round: &BatchRound<'_>) -> Vec<(usize, usize)> {
        ROUND_LOOP.with_borrow_mut(|oracle| oracle.round(round))
    }

    /// Every pair of a co-located market: `drivers` drivers and one order
    /// per price in `prices`, all at one point and published together,
    /// with service cost 3. Travel takes no time and an order one minute,
    /// so a driver serves one order a minute, up to pickup deadlines of 2,
    /// 3, 4 and 5 minutes in turn: her next availability meets some
    /// deadlines exactly. Margins are `price − 3`, equal across drivers.
    fn co_located(drivers: u32, prices: &[f64]) -> Market {
        use rideshare_geo::{GeoPoint, SpeedModel};
        use rideshare_types::{Money, TaskId};

        let at = GeoPoint::new(41.15, -8.61);
        let tasks = (0..).zip(prices).map(|(id, &price)| rideshare_core::Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(0),
            origin: at,
            destination: at,
            pickup_deadline: Timestamp::from_secs(120 + 60 * i64::from(id % 4)),
            completion_deadline: Timestamp::from_secs(3600),
            duration: TimeDelta::from_secs(60),
            price: Money::new(price),
            valuation: Money::new(price),
            service_cost: Money::new(3.0),
        });
        let drivers = (0..drivers).map(|id| rideshare_core::Driver {
            id: DriverId::new(id),
            source: at,
            destination: at,
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(100_000),
            model: DriverModel::HomeWorkHome,
        });
        let speed = SpeedModel::new(60.0, 1.0, 0.1);
        Market::new(drivers.collect(), tasks.collect(), speed, None)
    }

    #[test]
    fn heap_close_matches_the_round_loop_oracle() {
        ROUND_LOOP.take();
        let mut runs = Vec::new();
        for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
            for seed in [74u64, 75] {
                runs.push((market_of(seed, 1500, 150, model), vec![0, 1, 3, 10, 30]));
            }
        }
        // Equal margins on every driver, positive, zero (`3.0 − 3.0` is
        // `+0.0`) and negative ones. No order of Eq. 14's terms yields
        // `-0.0` (the last adds a return cost of at least `+0.0`), so the
        // fold of `-0.0` is checked on the ranking itself, below.
        let prices = [5.0, 3.0, 5.0, 1.0, 3.0, 5.0, 2.0, 3.0, 5.0];
        runs.push((co_located(3, &prices), vec![0, 1, 10]));
        runs.push((co_located(12, &prices), vec![1]));
        for (m, windows) in &runs {
            for &mins in windows {
                let window = TimeDelta::from_mins(mins);
                let heap = batched(m, window, MatcherKind::Greedy);
                let rounds = in_rounds(m, window, round_loop);
                let at = format!("W={mins}m over {} tasks", m.num_tasks());
                assert_eq!(heap.events, rounds.events, "{at}");
                assert_eq!(heap.dispatch, rounds.dispatch, "{at}");
                assert_eq!(
                    (heap.served, heap.rejected),
                    (rounds.served, rounds.rejected)
                );
                assert_eq!(heap.assignment.routes(), rounds.assignment.routes());
                validate_online_result(m, &heap).unwrap();
            }
        }
        let oracle = ROUND_LOOP.take();
        assert!(oracle.hits > 0, "no re-evaluation found a candidate");
        assert!(
            oracle.multi_commit_epochs >= 100,
            "{} epochs committed more than one pair",
            oracle.multi_commit_epochs
        );
    }

    #[test]
    fn ranked_pairs_order_as_the_greedy_round_picks() {
        let pair = |margin: f64, task: u32, driver: u32, slot: u32| {
            let candidate = Candidate {
                driver: DriverId::new(driver),
                slot: 0,
                arrival: Timestamp::from_secs(0),
                marginal_value: margin,
            };
            RankedPair::new(candidate, task, slot, 0)
        };
        // Best first: margin, then the lower task id, driver id and slot.
        let mut ranked = [
            pair(1.0, 9, 9, 9),
            pair(0.0, 4, 1, 0),
            pair(-0.0, 3, 2, 0),
            pair(0.0, 3, 1, 1),
            pair(-0.0, 3, 1, 0),
            pair(-2.5, 0, 0, 0),
        ];
        ranked.sort_by(|a, b| b.cmp(a));
        let order: Vec<(u32, u32, u32)> = ranked
            .iter()
            .map(|p| (p.task, p.candidate.driver.raw(), p.slot))
            .collect();
        assert_eq!(
            order,
            [
                (9, 9, 9),
                (3, 1, 0),
                (3, 1, 1),
                (3, 2, 0),
                (4, 1, 0),
                (0, 0, 0)
            ]
        );
        // `-0.0` ties `0.0` as `>` has it, and keeps its sign for the event.
        assert_eq!(pair(-0.0, 1, 1, 1), pair(0.0, 1, 1, 1));
        assert!(pair(-0.0, 1, 1, 1)
            .candidate
            .marginal_value
            .is_sign_negative());
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
