//! Per-driver task-map views and the max-profit-path oracle.

use rideshare_types::Money;

use crate::market::{Market, Objective};

/// The per-driver part of the task map of §III-B: which tasks driver `n`
/// can serve at all (Eq. 2's reach and return conjuncts plus Eq. 1), the
/// source/sink arc costs, and the baseline commute refund.
///
/// Combined with the market's shared chain arcs this is exactly the
/// driver's task-map DAG, kept *factored*: `O(M)` to build, which is all
/// that validation, summaries, the partitioner and the exact solver pay.
/// The longest-path DP (the primitive both Alg. 1 and the pricing oracle
/// use) runs over the compacted form `task_map` derives from it; Alg. 1
/// and the column generation share one compaction per driver, kept on
/// the [`Market`], and query many times; [`DriverView::best_path`]
/// compacts per call.
#[derive(Clone, Debug)]
pub struct DriverView {
    driver: usize,
    /// `allowed[m]`: task m is a node of this driver's task map.
    allowed: Vec<bool>,
    /// Cost of the source arc `0 → m` (`cₙ,₀,ₘ`), valid where `allowed`.
    source_cost: Vec<f64>,
    /// Cost of the sink arc `m → −1` (`cₙ,ₘ,₋₁`), valid where `allowed`.
    sink_cost: Vec<f64>,
    /// Baseline commute cost `cₙ,₀,₋₁`, refunded in the objective.
    direct_cost: f64,
    feasible_count: usize,
}

/// A maximum-profit source→sink path for one driver.
#[derive(Clone, PartialEq, Debug)]
pub struct BestPath {
    /// Task indices in service order (empty = the driver serves no one).
    pub tasks: Vec<u32>,
    /// The path profit `r_π` (0 for the empty path).
    pub profit: f64,
}

/// The value [`TaskMap::best_path`] reads as "this task is gone": a path
/// through it is worth `−∞`, which beats neither another path nor the
/// empty one.
pub(crate) const REMOVED: f64 = f64::NEG_INFINITY;

/// Every task's margin under `objective`, indexed by task — the node
/// values of the path oracle before duals or removals.
pub(crate) fn task_margins(market: &Market, objective: Objective) -> Vec<f64> {
    let tasks = market.tasks().iter();
    tasks.map(|t| objective.margin(t).as_f64()).collect()
}

/// One driver's task map compacted for the path oracle
/// ([`DriverView::task_map`]): only the tasks the driver can serve, as
/// nodes numbered in [`Market::topo_order`], and only the chain arcs
/// between two of them, in CSR layout and [`Market::chain_edges`] order.
///
/// The factored form (shared chain graph + a per-driver mask) makes every
/// query walk all `M` tasks and test every chain arc against the mask; a
/// driver typically reaches a few percent of the tasks, so the compact
/// form's DP does a few percent of that work. Nodes and arcs keep the
/// factored form's relative order, so relaxations happen in the same
/// sequence and every tie breaks the same way.
#[derive(Clone, Debug)]
pub(crate) struct TaskMap {
    direct_cost: f64,
    /// Node → task index.
    task: Vec<u32>,
    /// Per node, the source arc cost `cₙ,₀,ₘ` and sink arc cost `cₙ,ₘ,₋₁`.
    source_cost: Vec<f64>,
    sink_cost: Vec<f64>,
    /// Node `k`'s out-arcs are `arcs[first_arc[k]..first_arc[k + 1]]`.
    first_arc: Vec<usize>,
    /// `(head node, empty-driving cost)`.
    arcs: Vec<(u32, f64)>,
}

/// Buffers of [`TaskMap::best_path`], owned by the caller so that a loop
/// over drivers and rounds allocates them once.
#[derive(Default)]
pub(crate) struct PathScratch {
    /// Node values gathered from the per-task vector.
    value: Vec<f64>,
    /// `dp[k]`: best value of a source path ending at node `k`, its value
    /// included, before the sink arc.
    dp: Vec<f64>,
    pred: Vec<u32>,
}

impl TaskMap {
    /// The longest-path DP: the maximum over source→sink paths of `direct
    /// cost − arc costs + Σ value[task] − driver_dual`, against the empty
    /// path's `−driver_dual`. `value` is indexed by task: the margin, less
    /// the task's dual when pricing, or [`REMOVED`].
    ///
    /// Among equally good paths the one kept is the one the first strict
    /// improvement found, and among equally good end tasks the lowest
    /// task index — Alg. 1's tie-breaking, which the goldens pin.
    pub(crate) fn best_path(
        &self,
        value: &[f64],
        driver_dual: f64,
        scratch: &mut PathScratch,
    ) -> BestPath {
        const NONE: u32 = u32::MAX;
        let PathScratch {
            value: node_value,
            dp,
            pred,
        } = scratch;
        node_value.clear();
        node_value.extend(self.task.iter().map(|&t| value[t as usize]));
        dp.clear();
        dp.resize(self.task.len(), f64::NEG_INFINITY);
        pred.clear();
        pred.resize(self.task.len(), NONE);

        let mut best = 0.0 - driver_dual; // empty path: profit 0, pays λ
        let mut best_end = NONE;
        for i in 0..self.task.len() {
            let via_source = self.direct_cost - self.source_cost[i] + node_value[i];
            if via_source > dp[i] {
                dp[i] = via_source;
                pred[i] = NONE;
            }
            let dpi = dp[i];
            if dpi == f64::NEG_INFINITY {
                continue;
            }
            // Nodes come in topological order, so `dp[i]` is final here.
            for &(j, cost) in &self.arcs[self.first_arc[i]..self.first_arc[i + 1]] {
                let cand = dpi - cost + node_value[j as usize];
                if cand > dp[j as usize] {
                    dp[j as usize] = cand;
                    pred[j as usize] = i as u32;
                }
            }
            let total = dpi - self.sink_cost[i] - driver_dual;
            let wins_tie = || best_end != NONE && self.task[i] < self.task[best_end as usize];
            if total > best || (total == best && wins_tie()) {
                best = total;
                best_end = i as u32;
            }
        }

        let mut tasks = Vec::new();
        let mut cur = best_end;
        while cur != NONE {
            tasks.push(self.task[cur as usize]);
            cur = pred[cur as usize];
        }
        tasks.reverse();
        BestPath {
            tasks,
            profit: best,
        }
    }
}

impl DriverView {
    /// Builds the view for `driver` (an index into [`Market::drivers`]).
    ///
    /// Cost: `O(M)` distance evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `driver` is out of range.
    #[must_use]
    pub fn new(market: &Market, driver: usize) -> Self {
        let d = &market.drivers()[driver];
        let speed = market.speed();
        let m = market.num_tasks();
        let mut allowed = vec![false; m];
        let mut source_cost = vec![0.0; m];
        let mut sink_cost = vec![0.0; m];
        let mut feasible_count = 0;
        for (i, t) in market.tasks().iter().enumerate() {
            if !t.window_feasible() {
                continue;
            }
            // Eq. 2: reach the pickup before its deadline…
            let reach = speed.travel_time(d.source, t.origin);
            if reach > t.pickup_deadline - d.shift_start {
                continue;
            }
            // …and still make it home after the drop-off deadline.
            let back = speed.travel_time(t.destination, d.destination);
            if back > d.shift_end - t.completion_deadline {
                continue;
            }
            allowed[i] = true;
            feasible_count += 1;
            source_cost[i] = speed.travel_cost(d.source, t.origin).as_f64();
            sink_cost[i] = speed.travel_cost(t.destination, d.destination).as_f64();
        }
        Self {
            driver,
            allowed,
            source_cost,
            sink_cost,
            direct_cost: market.direct_cost(driver).as_f64(),
            feasible_count,
        }
    }

    /// The driver index this view belongs to.
    #[must_use]
    pub fn driver(&self) -> usize {
        self.driver
    }

    /// Whether task `m` is a node of this driver's task map (`ĥₙ,ₘ` and the
    /// reach/return conjuncts of Eq. 2).
    #[must_use]
    pub fn is_allowed(&self, m: usize) -> bool {
        self.allowed[m]
    }

    /// Number of tasks in this driver's task map.
    #[must_use]
    pub fn feasible_task_count(&self) -> usize {
        self.feasible_count
    }

    /// The baseline commute cost `cₙ,₀,₋₁`.
    #[must_use]
    pub fn direct_cost(&self) -> Money {
        Money::new(self.direct_cost)
    }

    /// Maximum-profit path under `objective`, skipping tasks where
    /// `removed[m]` is true.
    ///
    /// Returns the empty path (profit 0) when no task path beats doing
    /// nothing.
    #[must_use]
    pub fn best_path(&self, market: &Market, objective: Objective, removed: &[bool]) -> BestPath {
        self.best_path_priced(market, objective, removed, |_| 0.0, 0.0)
    }

    /// Maximum-profit path with per-task dual prices subtracted — the
    /// column-generation pricing oracle. The returned `profit` is the
    /// *reduced* value `r_π − Σ_{m∈π} task_dual(m) − driver_dual`; the true
    /// `r_π` is [`crate::Assignment::route_profit`]'s.
    ///
    /// One-shot form of the oracle: it compacts the task map, runs the DP
    /// once and drops both, `O(M + |chain arcs|)` in all. Alg. 1 and the
    /// column generation, which query one driver many times, compact once
    /// and keep the map.
    #[must_use]
    pub fn best_path_priced(
        &self,
        market: &Market,
        objective: Objective,
        removed: &[bool],
        task_dual: impl Fn(usize) -> f64,
        driver_dual: f64,
    ) -> BestPath {
        debug_assert_eq!(removed.len(), market.num_tasks());
        let mut value = task_margins(market, objective);
        for (t, v) in value.iter_mut().enumerate() {
            *v = if removed[t] {
                REMOVED
            } else {
                *v - task_dual(t)
            };
        }
        self.task_map(market)
            .best_path(&value, driver_dual, &mut PathScratch::default())
    }

    /// Compacts this driver's task map for repeated path queries: `O(M +
    /// |chain arcs|)`, the cost of one DP over the factored form.
    ///
    /// Not part of [`DriverView::new`]: validation, summaries, the
    /// partitioner and the exact solver build views and never ask for a
    /// path.
    pub(crate) fn task_map(&self, market: &Market) -> TaskMap {
        let mut node_of = vec![u32::MAX; market.num_tasks()];
        let mut task = Vec::with_capacity(self.feasible_count);
        for &t in market.topo_order() {
            if self.allowed[t as usize] {
                node_of[t as usize] = task.len() as u32;
                task.push(t);
            }
        }
        let mut first_arc = Vec::with_capacity(task.len() + 1);
        let mut arcs = Vec::new();
        for &t in &task {
            first_arc.push(arcs.len());
            arcs.extend(
                market
                    .chain_edges(t as usize)
                    .iter()
                    .filter(|e| self.allowed[e.to as usize])
                    .map(|e| (node_of[e.to as usize], e.cost)),
            );
        }
        first_arc.push(arcs.len());
        TaskMap {
            direct_cost: self.direct_cost,
            source_cost: task.iter().map(|&t| self.source_cost[t as usize]).collect(),
            sink_cost: task.iter().map(|&t| self.sink_cost[t as usize]).collect(),
            task,
            first_arc,
            arcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, Task};
    use rideshare_geo::{GeoPoint, SpeedModel};
    use rideshare_trace::DriverModel;
    use rideshare_types::{DriverId, TaskId, TimeDelta, Timestamp};

    fn pt(km_east: f64) -> GeoPoint {
        GeoPoint::new(41.15, -8.61).offset_km(0.0, km_east)
    }

    fn task(id: u32, at: f64, start: i64, end: i64, price: f64) -> Task {
        Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(start - 60),
            origin: pt(at),
            destination: pt(at),
            pickup_deadline: Timestamp::from_secs(start),
            completion_deadline: Timestamp::from_secs(end),
            duration: TimeDelta::from_secs(0),
            price: Money::new(price),
            valuation: Money::new(price + 1.0),
            service_cost: Money::ZERO,
        }
    }

    fn driver(at: f64, dest: f64, start: i64, end: i64) -> Driver {
        Driver {
            id: DriverId::new(0),
            source: pt(at),
            destination: pt(dest),
            shift_start: Timestamp::from_secs(start),
            shift_end: Timestamp::from_secs(end),
            model: DriverModel::Hitchhiking,
        }
    }

    /// 60 km/h, no detour, 0.1/km → 1 km = 1 min = 0.1 cost.
    fn speed() -> SpeedModel {
        SpeedModel::new(60.0, 1.0, 0.1)
    }

    #[test]
    fn reach_and_return_feasibility() {
        // Driver at km 0, shift [0, 3600], destination km 0.
        // Task A at km 10 starting t=1200 (20 min to drive 10 km → ok).
        // Task B at km 10 starting t=300 (can't reach in 5 min).
        // Task C at km 10 ending t=3300 (10 min back → misses shift end).
        let d = driver(0.0, 0.0, 0, 3600);
        let a = task(0, 10.0, 1200, 1800, 5.0);
        let b = task(1, 10.0, 300, 900, 5.0);
        let c = task(2, 10.0, 2700, 3300, 5.0);
        let market = Market::new(vec![d], vec![a, b, c], speed(), None);
        let view = DriverView::new(&market, 0);
        assert!(view.is_allowed(0));
        assert!(!view.is_allowed(1), "cannot reach pickup in time");
        assert!(!view.is_allowed(2), "cannot return home in time");
        assert_eq!(view.feasible_task_count(), 1);
    }

    #[test]
    fn best_path_chains_profitable_tasks() {
        // Two tasks along the driver's 30 km commute, in sequence.
        let d = driver(0.0, 30.0, 0, 7200);
        let t1 = task(0, 10.0, 900, 1500, 3.0);
        let t2 = task(1, 20.0, 2400, 3000, 3.0);
        let market = Market::new(vec![d], vec![t1, t2], speed(), None);
        let view = DriverView::new(&market, 0);
        let best = view.best_path(&market, Objective::Profit, &[false, false]);
        assert_eq!(best.tasks, vec![0, 1]);
        // Costs: direct refund 3.0; path drives 0→10→20→30 = 30 km = 3.0.
        // Profit = 3+3 (margins) − 3.0 + 3.0 = 6.0.
        assert!((best.profit - 6.0).abs() < 1e-6, "profit {}", best.profit);
        let route = best.tasks.iter().map(|&t| t as usize);
        let recomputed = crate::assignment::path_profit(&market, Objective::Profit, 0, route);
        assert!(recomputed.approx_eq(Money::new(best.profit)));
    }

    #[test]
    fn removal_masks_tasks() {
        let d = driver(0.0, 30.0, 0, 7200);
        let t1 = task(0, 10.0, 900, 1500, 3.0);
        let t2 = task(1, 20.0, 2400, 3000, 3.0);
        let market = Market::new(vec![d], vec![t1, t2], speed(), None);
        let view = DriverView::new(&market, 0);
        let best = view.best_path(&market, Objective::Profit, &[true, false]);
        assert_eq!(best.tasks, vec![1]);
        let none = view.best_path(&market, Objective::Profit, &[true, true]);
        assert!(none.tasks.is_empty());
        assert_eq!(none.profit, 0.0);
    }

    #[test]
    fn unprofitable_detour_left_unserved() {
        // Task 40 km off the driver's doorstep-to-doorstep commute, paying
        // far less than the 80 km round trip costs.
        let d = driver(0.0, 0.0, 0, 36_000);
        let t = task(0, 40.0, 10_000, 20_000, 1.0);
        let market = Market::new(vec![d], vec![t], speed(), None);
        let view = DriverView::new(&market, 0);
        assert!(view.is_allowed(0));
        let best = view.best_path(&market, Objective::Profit, &[false]);
        assert!(best.tasks.is_empty(), "serving would lose money");
        assert_eq!(best.profit, 0.0);
    }

    #[test]
    fn welfare_objective_uses_valuation() {
        let d = driver(0.0, 0.0, 0, 36_000);
        // Price 1 (unprofitable to serve), valuation 20 (welfare-positive).
        let mut t = task(0, 20.0, 10_000, 20_000, 1.0);
        t.valuation = Money::new(20.0);
        let market = Market::new(vec![d], vec![t], speed(), None);
        let view = DriverView::new(&market, 0);
        assert!(view
            .best_path(&market, Objective::Profit, &[false])
            .tasks
            .is_empty());
        let welfare = view.best_path(&market, Objective::Welfare, &[false]);
        assert_eq!(welfare.tasks, vec![0]);
        // 20 − 4.0 (40 km round trip) + 0 refund = 16.
        assert!((welfare.profit - 16.0).abs() < 1e-6);
    }

    #[test]
    fn duals_steer_pricing_oracle() {
        let d = driver(0.0, 30.0, 0, 7200);
        let t1 = task(0, 10.0, 900, 1500, 3.0);
        let t2 = task(1, 20.0, 2400, 3000, 3.0);
        let market = Market::new(vec![d], vec![t1, t2], speed(), None);
        let view = DriverView::new(&market, 0);
        // A huge dual on task 0 prices it out of the path.
        let priced = view.best_path_priced(
            &market,
            Objective::Profit,
            &[false, false],
            |m| if m == 0 { 100.0 } else { 0.0 },
            0.0,
        );
        assert_eq!(priced.tasks, vec![1]);
        // Driver dual shifts the whole path value down.
        let paid = view.best_path_priced(&market, Objective::Profit, &[false, false], |_| 0.0, 2.0);
        assert!((paid.profit - 4.0).abs() < 1e-6, "6.0 − λ");
    }

    #[test]
    fn empty_task_maps_price_to_minus_lambda() {
        // A driver who can reach no task: the compact map has no node.
        let d = driver(0.0, 0.0, 0, 600);
        let far = task(0, 40.0, 1200, 1800, 50.0);
        let market = Market::new(vec![d], vec![far], speed(), None);
        let view = DriverView::new(&market, 0);
        assert_eq!(view.feasible_task_count(), 0);
        let none = view.best_path_priced(&market, Objective::Profit, &[false], |_| 0.0, 1.5);
        assert!(none.tasks.is_empty());
        assert_eq!(none.profit, -1.5);

        // Two simultaneous tasks: both reachable, no chain arc between
        // them, so the map is nodes without arcs.
        let d = driver(0.0, 30.0, 0, 7200);
        let t1 = task(0, 10.0, 1200, 1800, 3.0);
        let t2 = task(1, 20.0, 1200, 1800, 4.0);
        let market = Market::new(vec![d], vec![t1, t2], speed(), None);
        assert_eq!(market.chain_arc_count(), 0);
        let view = DriverView::new(&market, 0);
        assert_eq!(view.feasible_task_count(), 2);
        let one = view.best_path(&market, Objective::Profit, &[false, false]);
        assert_eq!(one.tasks, vec![1], "single tasks still price");
        let none = view.best_path_priced(&market, Objective::Profit, &[false, false], |_| 9.0, 1.5);
        assert!(none.tasks.is_empty(), "both priced out");
        assert_eq!(none.profit, -1.5);
    }

    #[test]
    fn equally_good_end_tasks_resolve_to_the_lower_index() {
        // Two exclusive tasks worth the same, where the topological order
        // (by completion deadline) visits task 1 before task 0: the DP
        // walks nodes in that order, the answer must not depend on it.
        let d = driver(0.0, 0.0, 0, 7200);
        let t0 = task(0, 10.0, 1200, 1900, 5.0);
        let t1 = task(1, 10.0, 1200, 1800, 5.0);
        let market = Market::new(vec![d], vec![t0, t1], speed(), None);
        assert_eq!(market.topo_order(), &[1, 0]);
        assert_eq!(market.chain_arc_count(), 0);
        let view = DriverView::new(&market, 0);
        let best = view.best_path(&market, Objective::Profit, &[false, false]);
        assert_eq!(best.tasks, vec![0]);
        let other = view.best_path(&market, Objective::Profit, &[true, false]);
        assert_eq!(other.tasks, vec![1]);
        assert_eq!(other.profit, best.profit);
    }
}
