//! The materialized front-end: a whole [`Market`] replayed through the
//! [`StreamEngine`] (the `while task m arrives` loop of Algorithms 3–4)
//! and collected into one [`SimulationResult`].

use rideshare_core::{Assignment, Market, Objective, Task};
use rideshare_types::{DriverId, Money, TaskId, Timestamp};

use crate::candidates::market_bbox;
use crate::policy::DispatchPolicy;
use crate::stream::{
    market_events, CollectingSink, StreamEngine, StreamEvent, StreamOptions, StreamPolicy,
};

/// Options controlling a simulation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulationOptions {
    /// Process tasks in descending price order instead of publish order —
    /// the *offline* variant of maxMargin from §V-B ("it will be more
    /// efficient to deal with the tasks which have higher values firstly"),
    /// only meaningful when the full day is known in advance.
    pub value_sorted: bool,
    /// Use a spatial grid index for candidate generation instead of a
    /// linear scan over all drivers (identical results, different cost —
    /// kept switchable for the ablation bench).
    pub use_grid: bool,
}

/// One dispatched task's operational record.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DispatchEvent {
    /// The served task.
    pub task: TaskId,
    /// The dispatched driver.
    pub driver: DriverId,
    /// When the driver reached the pickup.
    pub arrival: Timestamp,
    /// When the dispatch decision was made: the task's publish time under
    /// instant dispatch, the batch decision epoch under a batched policy
    /// ([`crate::run_batched_with`]). The driver's departure never precedes this
    /// instant — the causality law [`crate::validate_online_result`]
    /// enforces.
    pub decision_time: Timestamp,
    /// Rider wait from order publication to pickup arrival.
    pub wait: rideshare_types::TimeDelta,
    /// Empty kilometres driven to reach the pickup (deadhead).
    pub deadhead_km: f64,
    /// Candidate-set size the policy chose from.
    pub candidates: usize,
    /// The dispatched candidate's Eq. 14 marginal value `δₙ,ₘ`. Margins
    /// telescope: summing them over a whole run reproduces the run's total
    /// profit (Eq. 4) without a market in hand, which is how the streaming
    /// accumulators (`rideshare-metrics`'s `StreamMetrics`) report profit
    /// off an unbounded stream.
    pub margin: f64,
}

/// Outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimulationResult {
    /// The resulting task lists (validate with
    /// [`crate::validate_online`], *not* the offline
    /// [`Assignment::validate`] — early finishes legitimately create chains
    /// the offline deadline-based task map does not contain).
    pub assignment: Assignment,
    /// Tasks dispatched to a driver.
    pub served: usize,
    /// Tasks rejected (empty candidate set or policy refusal).
    pub rejected: usize,
    /// For each task, the driver it was dispatched to (by task index).
    pub dispatch: Vec<Option<DriverId>>,
    /// Operational record of every dispatched task, in dispatch order.
    pub events: Vec<DispatchEvent>,
}

impl SimulationResult {
    /// Fraction of tasks served — Fig. 7's metric.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        let total = self.served + self.rejected;
        if total == 0 {
            return 0.0;
        }
        self.served as f64 / total as f64
    }

    /// Drivers' total profit of the dispatched routes (Eq. 4).
    #[must_use]
    pub fn total_profit(&self, market: &Market) -> Money {
        self.assignment.objective_value(market, Objective::Profit)
    }

    /// Mean rider wait (publish → pickup arrival) over served tasks, in
    /// minutes; `None` when nothing was served.
    #[must_use]
    pub fn mean_wait_mins(&self) -> Option<f64> {
        if self.events.is_empty() {
            return None;
        }
        Some(
            self.events
                .iter()
                .map(|e| e.wait.as_mins_f64())
                .sum::<f64>()
                / self.events.len() as f64,
        )
    }

    /// Total empty (deadhead) kilometres driven to reach pickups.
    #[must_use]
    pub fn total_deadhead_km(&self) -> f64 {
        self.events.iter().map(|e| e.deadhead_km).sum()
    }

    /// Mean candidate-set size the policy chose from — a direct measure of
    /// market thickness (singleton sets mean the criterion is irrelevant).
    #[must_use]
    pub fn mean_candidates(&self) -> Option<f64> {
        if self.events.is_empty() {
            return None;
        }
        Some(
            self.events.iter().map(|e| e.candidates as f64).sum::<f64>() / self.events.len() as f64,
        )
    }
}

/// The online market simulator: instant dispatch (Algs. 3–4) over a
/// materialized market.
///
/// Holds a reference to the market; each [`Simulator::run`] replays the
/// order stream from scratch, so one simulator can evaluate many policies
/// on identical conditions.
#[derive(Clone, Debug)]
pub struct Simulator<'m> {
    market: &'m Market,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator over `market`.
    #[must_use]
    pub fn new(market: &'m Market) -> Self {
        Self { market }
    }

    /// Replays every task through `policy` under `options`.
    #[must_use]
    pub fn run(
        &self,
        policy: &mut dyn DispatchPolicy,
        options: SimulationOptions,
    ) -> SimulationResult {
        replay_market(self.market, &mut StreamPolicy::Instant(policy), options)
    }
}

/// Replays a materialized market through the [`StreamEngine`] and collects
/// the whole outcome — the front-end behind [`Simulator::run`] and
/// [`crate::run_batched_with`], taking the policy in the form every other
/// surface hands the engine.
///
/// Every driver is announced up front and re-labelled by market position,
/// as are the tasks (hand-built markets may carry ids that disagree with
/// their position), so `dispatch` has exactly one entry per market task.
/// Tasks arrive in publish order, or — `options.value_sorted`, §V-B — in
/// descending price order, each still decided at its own publish instant.
///
/// # Panics
///
/// Panics if a batched `policy` has a negative window or is combined with
/// `options.value_sorted` (a hold window has no meaning out of publish
/// order).
#[must_use]
pub fn replay_market(
    market: &Market,
    policy: &mut StreamPolicy<'_>,
    options: SimulationOptions,
) -> SimulationResult {
    if let StreamPolicy::Batched { window, .. } = policy {
        // A bare stream only notices on its first order.
        assert!(
            window.is_non_negative(),
            "batch window must be non-negative"
        );
    }
    let stream_options = StreamOptions {
        grid_bbox: options.use_grid.then(|| market_bbox(market)),
        ..StreamOptions::default()
    };
    let mut engine = StreamEngine::new(market.speed(), stream_options);
    let mut sink = CollectingSink::new();
    let mut by_value: Vec<Task> = Vec::new();
    for event in market_events(market) {
        match event {
            StreamEvent::TaskPublished(task) if options.value_sorted => by_value.push(task),
            event => engine.push(event, policy, &mut sink),
        }
    }
    if options.value_sorted {
        let StreamPolicy::Instant(choose) = &mut *policy else {
            panic!("value_sorted needs an instant policy");
        };
        by_value.sort_by(|a, b| {
            let by_price = b.price.partial_cmp(&a.price).expect("finite price");
            by_price.then(a.id.cmp(&b.id))
        });
        engine.decide_each(&by_value, &mut **choose, &mut sink);
    }
    let _ = engine.finish(policy, &mut sink);
    let mut result = sink.into_result();
    result.dispatch.resize(market.num_tasks(), None);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MaxMargin, NearestDriver, RandomDispatch};
    use crate::validate_online;
    use rideshare_core::MarketBuildOptions;
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    #[test]
    fn all_tasks_accounted_for() {
        let m = market(41, 120, 15);
        let sim = Simulator::new(&m);
        for policy in [
            &mut NearestDriver::new() as &mut dyn DispatchPolicy,
            &mut MaxMargin::new(),
            &mut RandomDispatch::with_seed(1),
        ] {
            let r = sim.run(policy, SimulationOptions::default());
            assert_eq!(r.served + r.rejected, m.num_tasks());
            assert_eq!(r.served, r.assignment.served_count());
            assert_eq!(r.dispatch.iter().filter(|d| d.is_some()).count(), r.served);
            validate_online(&m, &r.assignment).unwrap();
        }
    }

    #[test]
    fn grid_and_linear_scan_agree() {
        let m = market(42, 150, 20);
        let sim = Simulator::new(&m);
        let linear = sim.run(&mut MaxMargin::new(), SimulationOptions::default());
        let grid = sim.run(
            &mut MaxMargin::new(),
            SimulationOptions {
                use_grid: true,
                ..Default::default()
            },
        );
        assert_eq!(linear.dispatch, grid.dispatch);
        assert_eq!(linear.served, grid.served);
    }

    #[test]
    fn deterministic_replay() {
        let m = market(43, 100, 10);
        let sim = Simulator::new(&m);
        let a = sim.run(
            &mut NearestDriver::with_seed(5),
            SimulationOptions::default(),
        );
        let b = sim.run(
            &mut NearestDriver::with_seed(5),
            SimulationOptions::default(),
        );
        assert_eq!(a.dispatch, b.dispatch);
    }

    #[test]
    fn served_profit_non_negative_margins() {
        // maxMargin never dispatches a negative-margin candidate when a
        // positive one exists — total profit should be positive on a
        // healthy market.
        let m = market(44, 150, 60);
        let sim = Simulator::new(&m);
        let r = sim.run(&mut MaxMargin::new(), SimulationOptions::default());
        assert!(r.total_profit(&m).is_strictly_positive());
        // Hitchhiking shifts are short commuter windows, so coverage of a
        // full day is sparse; with 60 drivers a healthy slice gets served.
        assert!(r.service_rate() > 0.05, "rate {}", r.service_rate());
    }

    #[test]
    fn value_sorted_processes_high_prices_first() {
        let m = market(45, 100, 3);
        let sim = Simulator::new(&m);
        let online = sim.run(&mut MaxMargin::new(), SimulationOptions::default());
        let sorted = sim.run(
            &mut MaxMargin::new(),
            SimulationOptions {
                value_sorted: true,
                ..Default::default()
            },
        );
        // With scarce supply, prioritising valuable tasks should not lose
        // revenue relative to arrival order.
        let rev_online = online.assignment.total_revenue(&m);
        let rev_sorted = sorted.assignment.total_revenue(&m);
        assert!(
            rev_sorted.as_f64() >= rev_online.as_f64() * 0.9,
            "sorted {rev_sorted} online {rev_online}"
        );
    }

    #[test]
    #[should_panic(expected = "value_sorted needs an instant policy")]
    fn value_sorted_refuses_a_hold_window() {
        let m = market(45, 10, 3);
        let options = SimulationOptions {
            value_sorted: true,
            ..Default::default()
        };
        let policy = &mut StreamPolicy::Batched {
            window: rideshare_types::TimeDelta::from_mins(3),
            matcher: &mut crate::GreedyPairMatcher,
        };
        let _ = replay_market(&m, policy, options);
    }

    #[test]
    fn empty_market_zero_everything() {
        let m = market(46, 0, 5);
        let sim = Simulator::new(&m);
        let r = sim.run(&mut MaxMargin::new(), SimulationOptions::default());
        assert_eq!(r.served, 0);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.service_rate(), 0.0);
    }

    #[test]
    fn no_drivers_rejects_everything() {
        let m = market(47, 50, 0);
        let sim = Simulator::new(&m);
        let r = sim.run(&mut NearestDriver::new(), SimulationOptions::default());
        assert_eq!(r.served, 0);
        assert_eq!(r.rejected, 50);
    }

    #[test]
    fn events_are_consistent_with_dispatch() {
        let m = market(49, 150, 30);
        let sim = Simulator::new(&m);
        let r = sim.run(&mut MaxMargin::new(), SimulationOptions::default());
        assert_eq!(r.events.len(), r.served);
        for e in &r.events {
            assert_eq!(r.dispatch[e.task.index()], Some(e.driver));
            let task = &m.tasks()[e.task.index()];
            assert!(e.arrival <= task.pickup_deadline, "late arrival logged");
            assert_eq!(
                e.decision_time, task.publish_time,
                "instant dispatch decides at publish"
            );
            assert!(e.wait.is_non_negative(), "negative wait");
            assert!(e.deadhead_km >= 0.0);
            assert!(e.candidates >= 1);
        }
        if r.served > 0 {
            assert!(r.mean_wait_mins().unwrap() >= 0.0);
            assert!(r.total_deadhead_km() >= 0.0);
            assert!(r.mean_candidates().unwrap() >= 1.0);
        }
    }

    #[test]
    fn empty_run_has_no_event_stats() {
        let m = market(50, 0, 3);
        let r = Simulator::new(&m).run(&mut MaxMargin::new(), SimulationOptions::default());
        assert!(r.mean_wait_mins().is_none());
        assert!(r.mean_candidates().is_none());
        assert_eq!(r.total_deadhead_km(), 0.0);
    }

    #[test]
    fn more_drivers_serve_more() {
        let small = market(48, 200, 5);
        let big = market(48, 200, 60);
        let r_small =
            Simulator::new(&small).run(&mut MaxMargin::new(), SimulationOptions::default());
        let r_big = Simulator::new(&big).run(&mut MaxMargin::new(), SimulationOptions::default());
        assert!(
            r_big.served > r_small.served,
            "big {} vs small {}",
            r_big.served,
            r_small.served
        );
    }
}
