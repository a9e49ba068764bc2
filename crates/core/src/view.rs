//! Per-driver task-map views and the max-profit-path oracle.

use rideshare_types::Money;

use crate::market::{has_bit, set_bit, ChainGraph, Market, Objective};

/// The per-driver part of the task map of §III-B: which tasks driver `n`
/// can serve at all (Eq. 2's reach and return conjuncts plus Eq. 1), the
/// source/sink arc costs, and the baseline commute refund.
///
/// Combined with the market's pair test for chain arcs
/// ([`Market::has_chain_edge`]) this is exactly the driver's task-map
/// DAG, kept *factored*: `O(M)` to build, which is all that validation,
/// the partitioner and the exact solver pay. The longest-path DP (the
/// primitive both Alg. 1 and the pricing oracle use) runs over the
/// compacted form `task_map` derives from it, one per driver, kept on
/// the [`Market`] and made from an arena of the arcs some driver can
/// use.
#[derive(Clone, Debug)]
pub struct DriverView {
    driver: usize,
    /// Bit `m` is set iff task `m` is a node of this driver's task map.
    allowed: Vec<u64>,
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
/// nodes sorted by completion deadline (a topological order: an arc
/// `m → m'` implies `t̄⁺ₘ ≤ t̄⁻ₘ' < t̄⁺ₘ'`), and only the chain arcs
/// between two of them, in CSR layout, each node's arcs ascending in task
/// index. Every arc runs from a node to a later one.
///
/// A driver typically reaches a few percent of the tasks, so a DP over
/// the compact form does a few percent of the work of one over all `M`
/// tasks. Nodes and arcs come in a fixed order, so relaxations happen in
/// the same sequence and every tie breaks the same way on every build.
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
    /// The map's tasks, in node order.
    pub(crate) fn tasks(&self) -> &[u32] {
        &self.task
    }

    /// The most tasks on one path through the map: a longest-path DP by
    /// node count, in node order (arcs run forward, so a node's depth is
    /// final when the loop reaches it). 0 for a map with no node.
    pub(crate) fn longest_chain(&self) -> usize {
        let mut depth = vec![1usize; self.task.len()];
        for i in 0..self.task.len() {
            for &(j, _) in &self.arcs[self.first_arc[i]..self.first_arc[i + 1]] {
                depth[j as usize] = depth[j as usize].max(depth[i] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

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
    /// Cost: `O(M)` distance evaluations at most. A task picked up before
    /// the shift starts or completed after it ends is skipped before any
    /// distance is computed: a drive takes no negative time, so Eq. 2's
    /// reach or return conjunct refuses it anyway, and on a day-long trace
    /// most tasks lie outside any one shift.
    ///
    /// # Panics
    ///
    /// Panics if `driver` is out of range.
    #[must_use]
    pub fn new(market: &Market, driver: usize) -> Self {
        let d = &market.drivers()[driver];
        let speed = market.speed();
        let m = market.num_tasks();
        let mut allowed = vec![0u64; m.div_ceil(64)];
        let mut source_cost = vec![0.0; m];
        let mut sink_cost = vec![0.0; m];
        let mut feasible_count = 0;
        for (i, t) in market.tasks().iter().enumerate() {
            if !t.window_feasible() {
                continue;
            }
            // Off shift: a drive takes no negative time, so Eq. 2 below
            // would refuse it too, after two distances.
            if t.pickup_deadline < d.shift_start || t.completion_deadline > d.shift_end {
                continue;
            }
            // Eq. 2: reach the pickup before its deadline…
            let reach_km = speed.driven_km(d.source, t.origin);
            if speed.travel_time_for_km(reach_km) > t.pickup_deadline - d.shift_start {
                continue;
            }
            // …and still make it home after the drop-off deadline.
            let back_km = speed.driven_km(t.destination, d.destination);
            if speed.travel_time_for_km(back_km) > d.shift_end - t.completion_deadline {
                continue;
            }
            set_bit(&mut allowed, i);
            feasible_count += 1;
            source_cost[i] = speed.cost_for_km(reach_km).as_f64();
            sink_cost[i] = speed.cost_for_km(back_km).as_f64();
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
        has_bit(&self.allowed, m)
    }

    /// The tasks of this driver's task map as a bitset, `⌈M/64⌉` words.
    pub(crate) fn reach(&self) -> &[u64] {
        &self.allowed
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

    /// Compacts this driver's task map for repeated path queries from
    /// `graph`, the arena [`Market`] masks by all its drivers' reach, which
    /// holds every chain arc between two tasks this driver can serve.
    /// `O(M + |graph arcs|)`.
    ///
    /// Not part of [`DriverView::new`]: validation, the partitioner and
    /// the exact solver build views and never ask for a path.
    pub(crate) fn task_map(&self, graph: &ChainGraph) -> TaskMap {
        let mut node_of = vec![u32::MAX; graph.topo().len()];
        let mut task = Vec::with_capacity(self.feasible_count);
        for &t in graph.topo() {
            if self.is_allowed(t as usize) {
                node_of[t as usize] = task.len() as u32;
                task.push(t);
            }
        }
        let mut first_arc = Vec::with_capacity(task.len() + 1);
        let mut arcs = Vec::new();
        for &t in &task {
            first_arc.push(arcs.len());
            arcs.extend(
                graph
                    .row(t as usize)
                    .iter()
                    .filter(|e| self.is_allowed(e.to as usize))
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

    /// The path oracle in one shot, over the driver's map in [`Market`]:
    /// the maximum-profit path under `objective`, with `removed[m]` tasks
    /// gone and per-task duals and the driver's dual subtracted (the
    /// column-generation pricing form, `profit` being the reduced cost).
    impl DriverView {
        pub(crate) fn best_path(
            &self,
            market: &Market,
            objective: Objective,
            removed: &[bool],
        ) -> BestPath {
            self.best_path_priced(market, objective, removed, |_| 0.0, 0.0)
        }

        pub(crate) fn best_path_priced(
            &self,
            market: &Market,
            objective: Objective,
            removed: &[bool],
            task_dual: impl Fn(usize) -> f64,
            driver_dual: f64,
        ) -> BestPath {
            let mut value = task_margins(market, objective);
            for (t, v) in value.iter_mut().enumerate() {
                *v = if removed[t] {
                    REMOVED
                } else {
                    *v - task_dual(t)
                };
            }
            let map = &market.task_maps()[self.driver];
            map.best_path(&value, driver_dual, &mut PathScratch::default())
        }
    }

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
        assert_eq!(market.task_maps()[0].tasks(), &[1, 0]);
        assert_eq!(market.chain_arc_count(), 0);
        let view = DriverView::new(&market, 0);
        let best = view.best_path(&market, Objective::Profit, &[false, false]);
        assert_eq!(best.tasks, vec![0]);
        let other = view.best_path(&market, Objective::Profit, &[true, false]);
        assert_eq!(other.tasks, vec![1]);
        assert_eq!(other.profit, best.profit);
    }

    #[test]
    fn a_stationary_instant_task_is_served_once() {
        // Window [1800, 1800], zero duration, origin = destination: the
        // task passes Eq. 3 against itself, and the path must still hold
        // it once.
        let d = driver(0.0, 0.0, 0, 3600);
        let t = task(0, 5.0, 1800, 1800, 5.0);
        let market = Market::new(vec![d], vec![t], speed(), None);
        assert!(!market.has_chain_edge(0, 0));
        let view = DriverView::new(&market, 0);
        let best = view.best_path(&market, Objective::Profit, &[false]);
        assert_eq!(best.tasks, vec![0]);
        // 5.0 − 1.0 (10 km round trip) + 0 refund.
        assert!((best.profit - 4.0).abs() < 1e-6, "profit {}", best.profit);
        let maps = market.task_maps();
        let margins = task_margins(&market, Objective::Profit);
        let shared = maps[0].best_path(&margins, 0.0, &mut PathScratch::default());
        assert_eq!(shared, best);
    }

    #[test]
    fn task_map_arcs_run_forward() {
        // The DP reads `dp[i]` as final once it reaches node `i`, so every
        // arc must end at a later node than it starts from.
        for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
            let market = generated(8, 150, 5, model);
            let mut arcs = 0;
            for (n, map) in market.task_maps().iter().enumerate() {
                for i in 0..map.task.len() {
                    for &(j, _) in &map.arcs[map.first_arc[i]..map.first_arc[i + 1]] {
                        assert!(j as usize > i, "{model:?} driver {n}: arc {i} → {j}");
                        arcs += 1;
                    }
                }
            }
            assert!(arcs > 0, "{model:?}");
        }
    }

    /// Eq. 3's shared conjuncts for the pair of tasks `a → b`, tested the
    /// long way: the arc's cost, or `None` when `b` cannot follow `a` (a
    /// task never follows itself).
    fn chain_cost(market: &Market, a: usize, b: usize) -> Option<f64> {
        if a == b {
            return None;
        }
        let speed = market.speed();
        let (a, b) = (&market.tasks()[a], &market.tasks()[b]);
        if !a.window_feasible() || !b.window_feasible() {
            return None;
        }
        if b.pickup_deadline < a.completion_deadline {
            return None;
        }
        let gap = b.pickup_deadline - a.completion_deadline;
        if market.max_chain_wait().is_some_and(|cap| gap > cap) {
            return None;
        }
        if speed.travel_time(a.destination, b.origin) > gap {
            return None;
        }
        Some(speed.travel_cost(a.destination, b.origin).as_f64())
    }

    /// Driver `n`'s compact task map straight from Eqs. 2–3, with no chain
    /// graph: its nodes are the tasks it can serve, stable-sorted by
    /// completion deadline; each node's arcs test every node as successor,
    /// in task order.
    fn reference_map(market: &Market, n: usize) -> TaskMap {
        let speed = market.speed();
        let d = &market.drivers()[n];
        let tasks = market.tasks();
        let serves = |t: &Task| {
            t.window_feasible()
                && speed.travel_time(d.source, t.origin) <= t.pickup_deadline - d.shift_start
                && speed.travel_time(t.destination, d.destination)
                    <= d.shift_end - t.completion_deadline
        };
        let by_index: Vec<u32> = (0..tasks.len() as u32)
            .filter(|&t| serves(&tasks[t as usize]))
            .collect();
        let mut task = by_index.clone();
        task.sort_by_key(|&t| tasks[t as usize].completion_deadline);
        let node_of = |t: u32| task.iter().position(|&s| s == t).unwrap() as u32;
        let mut first_arc = vec![0];
        let mut arcs = Vec::new();
        for &a in &task {
            for &b in &by_index {
                if let Some(cost) = chain_cost(market, a as usize, b as usize) {
                    arcs.push((node_of(b), cost));
                }
            }
            first_arc.push(arcs.len());
        }
        let cost = |from, to| speed.travel_cost(from, to).as_f64();
        TaskMap {
            direct_cost: cost(d.source, d.destination),
            source_cost: task
                .iter()
                .map(|&t| cost(d.source, tasks[t as usize].origin))
                .collect(),
            sink_cost: task
                .iter()
                .map(|&t| cost(tasks[t as usize].destination, d.destination))
                .collect(),
            task,
            first_arc,
            arcs,
        }
    }

    type MapBits = (
        u64,
        Vec<u32>,
        Vec<u64>,
        Vec<u64>,
        Vec<usize>,
        Vec<(u32, u64)>,
    );

    /// Every field of a task map, floats as their bits.
    fn bits(map: &TaskMap) -> MapBits {
        let floats = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            map.direct_cost.to_bits(),
            map.task.clone(),
            floats(&map.source_cost),
            floats(&map.sink_cost),
            map.first_arc.clone(),
            map.arcs.iter().map(|&(j, c)| (j, c.to_bits())).collect(),
        )
    }

    /// Every driver's map and every task's chain row equal the pairwise
    /// reference, bit for bit, and each map's nodes are the tasks its
    /// driver's view allows; returns the number of nodes over all maps.
    fn assert_matches_reference(market: &Market, context: &str) -> usize {
        let maps = market.task_maps();
        assert_eq!(maps.len(), market.num_drivers(), "{context}");
        for (n, map) in maps.iter().enumerate() {
            let want = reference_map(market, n);
            assert_eq!(bits(map), bits(&want), "{context}, driver {n}");
            let view = DriverView::new(market, n);
            let mut nodes = map.task.clone();
            nodes.sort_unstable();
            let allowed: Vec<u32> = (0..market.num_tasks() as u32)
                .filter(|&t| view.is_allowed(t as usize))
                .collect();
            assert_eq!(nodes, allowed, "{context}, driver {n}'s nodes");
        }
        let m = market.num_tasks();
        for a in 0..m {
            for b in 0..m {
                let got = market.chain_cost(a, b).map(f64::to_bits);
                let want = chain_cost(market, a, b).map(f64::to_bits);
                assert_eq!(got, want, "{context}, chain arc {a} → {b}");
            }
        }
        maps.iter().map(|m| m.task.len()).sum()
    }

    fn generated(seed: u64, tasks: usize, drivers: usize, model: DriverModel) -> Market {
        use crate::MarketBuildOptions;
        let trace = rideshare_trace::TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, model)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    /// `market` rebuilt with extra drivers and tasks and another wait cap.
    fn extended(
        market: &Market,
        drivers: Vec<Driver>,
        tasks: Vec<Task>,
        max_chain_wait: Option<TimeDelta>,
    ) -> Market {
        let drivers = market.drivers().iter().cloned().chain(drivers).collect();
        let tasks = market.tasks().iter().cloned().chain(tasks).collect();
        Market::new(drivers, tasks, market.speed(), max_chain_wait)
    }

    /// The most tasks on one path of `map`, by memoised search over each
    /// node's successors; no use of the node order.
    fn longest_chain_by_search(map: &TaskMap) -> usize {
        fn from(map: &TaskMap, i: usize, memo: &mut [usize]) -> usize {
            if memo[i] == 0 {
                let arcs = &map.arcs[map.first_arc[i]..map.first_arc[i + 1]];
                let tail = arcs.iter().map(|&(j, _)| from(map, j as usize, memo));
                memo[i] = 1 + tail.max().unwrap_or(0);
            }
            memo[i]
        }
        let mut memo = vec![0; map.task.len()];
        (0..map.task.len())
            .map(|i| from(map, i, &mut memo))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn chain_diameter_is_the_longest_chain_a_driver_can_drive() {
        let mut markets = Vec::new();
        for seed in 0..4 {
            for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
                markets.push(generated(seed, 120, 8, model));
            }
        }
        for tasks in [63, 64, 65] {
            markets.push(generated(7, tasks, 6, DriverModel::Hitchhiking));
        }
        for (k, market) in markets.iter().enumerate() {
            let want = (0..market.num_drivers())
                .map(|n| longest_chain_by_search(&reference_map(market, n)))
                .max()
                .unwrap();
            assert!(want > 1, "market {k}");
            assert_eq!(market.chain_diameter(), want, "market {k}");
        }
        let speed = markets[0].speed();
        let no_drivers = Market::new(vec![], markets[0].tasks().to_vec(), speed, None);
        assert_eq!(no_drivers.chain_diameter(), 0);
    }

    #[test]
    fn task_maps_equal_a_pairwise_reference() {
        for seed in 0..4 {
            for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
                let market = generated(seed, 120, 8, model);
                let nodes = assert_matches_reference(&market, &format!("{model:?} seed {seed}"));
                assert!(nodes > 0);
            }
        }
        for tasks in [63, 64, 65] {
            let market = generated(7, tasks, 6, DriverModel::Hitchhiking);
            assert_matches_reference(&market, &format!("M = {tasks}"));
        }

        // A wait cap, a window-infeasible task, a zero-duration task that
        // is its own candidate, and a driver who can serve nothing.
        let base = generated(11, 64, 6, DriverModel::Hitchhiking);
        let speed = base.speed();
        let d0 = &base.drivers()[0];
        let mut infeasible = base.tasks()[3];
        infeasible.duration =
            infeasible.completion_deadline - infeasible.pickup_deadline + TimeDelta::from_secs(1);
        let mut instant = *base
            .tasks()
            .iter()
            .find(|t| {
                speed.travel_time(d0.source, t.origin) <= t.pickup_deadline - d0.shift_start
                    && speed.travel_time(t.origin, d0.destination)
                        <= d0.shift_end - t.pickup_deadline
            })
            .expect("driver 0 reaches some pickup");
        instant.destination = instant.origin;
        instant.duration = TimeDelta::from_secs(0);
        instant.completion_deadline = instant.pickup_deadline;
        let idle = Driver {
            id: DriverId::new(6),
            shift_start: Timestamp::from_hours(48),
            shift_end: Timestamp::from_hours(48),
            ..*d0
        };
        // Driver 0's shift edges: a task at her source picked up exactly
        // at shift start, and one at her destination completed exactly at
        // shift end, each also one second outside the shift.
        let ten_mins = TimeDelta::from_mins(10);
        let one_sec = TimeDelta::from_secs(1);
        let at_start = Task {
            origin: d0.source,
            destination: d0.source,
            publish_time: d0.shift_start - ten_mins,
            pickup_deadline: d0.shift_start,
            completion_deadline: d0.shift_start + ten_mins,
            duration: TimeDelta::from_mins(1),
            ..instant
        };
        let before_start = Task {
            publish_time: at_start.publish_time - one_sec,
            pickup_deadline: at_start.pickup_deadline - one_sec,
            completion_deadline: at_start.completion_deadline - one_sec,
            ..at_start
        };
        let at_end = Task {
            origin: d0.destination,
            destination: d0.destination,
            publish_time: d0.shift_end - ten_mins - ten_mins,
            pickup_deadline: d0.shift_end - ten_mins,
            completion_deadline: d0.shift_end,
            ..at_start
        };
        let after_end = Task {
            publish_time: at_end.publish_time + one_sec,
            pickup_deadline: at_end.pickup_deadline + one_sec,
            completion_deadline: at_end.completion_deadline + one_sec,
            ..at_end
        };
        for cap in [None, Some(TimeDelta::from_mins(30))] {
            let mut tasks = vec![
                infeasible,
                instant,
                at_start,
                before_start,
                at_end,
                after_end,
            ];
            for (i, t) in tasks.iter_mut().enumerate() {
                t.id = TaskId::new((64 + i) as u32);
            }
            let market = extended(&base, vec![idle], tasks, cap);
            assert_matches_reference(&market, &format!("edge cases, cap {cap:?}"));
            assert!(
                !market.has_chain_edge(65, 65),
                "the instant task does not follow itself"
            );
            assert!(
                (0..market.num_tasks()).all(|b| market.chain_cost(64, b).is_none()),
                "infeasible has no arcs"
            );
            let driver0 = &market.task_maps()[0].task;
            assert!(driver0.contains(&65));
            assert!(driver0.contains(&66), "picked up at shift start");
            assert!(!driver0.contains(&67), "picked up before shift start");
            assert!(driver0.contains(&68), "completed at shift end");
            assert!(!driver0.contains(&69), "completed after shift end");
            assert!(market.task_maps()[6].task.is_empty(), "the idle driver");
        }
        let capped = extended(&base, vec![], vec![], Some(TimeDelta::from_mins(30)));
        assert!(capped.chain_arc_count() < base.chain_arc_count());

        let empty = Market::new(base.drivers().to_vec(), vec![], speed, None);
        assert_eq!(assert_matches_reference(&empty, "no tasks"), 0);
        assert_eq!(empty.chain_arc_count(), 0);
    }

    /// The best of every chain a driver can drive through `map` (a
    /// [`reference_map`]), by a DFS from each node along its arcs, with no
    /// use of the node order. Each chain is valued term by term in path
    /// order, `direct − source + v₁ − c₁₂ + v₂ … − sink − λ`, the order
    /// [`TaskMap::best_path`] adds them in; the empty chain is worth `0 −
    /// λ`, and only a strictly better chain replaces the best so far.
    fn best_chain_by_enumeration(map: &TaskMap, value: &[f64], lambda: f64) -> BestPath {
        let mut best = BestPath {
            tasks: Vec::new(),
            profit: 0.0 - lambda,
        };
        let value_at = |i: usize| value[map.task[i] as usize];
        // (node, tasks before it on the chain, the chain's value through it)
        let mut stack: Vec<(usize, usize, f64)> = (0..map.task.len())
            .map(|i| (i, 0, map.direct_cost - map.source_cost[i] + value_at(i)))
            .collect();
        let mut chain = Vec::new();
        while let Some((i, depth, prefix)) = stack.pop() {
            chain.truncate(depth);
            chain.push(map.task[i]);
            let total = prefix - map.sink_cost[i] - lambda;
            if total > best.profit {
                best = BestPath {
                    tasks: chain.clone(),
                    profit: total,
                };
            }
            for &(j, cost) in &map.arcs[map.first_arc[i]..map.first_arc[i + 1]] {
                let j = j as usize;
                stack.push((j, depth + 1, prefix - cost + value_at(j)));
            }
        }
        best
    }

    #[test]
    fn chains_by_enumeration_match_the_path_dp() {
        // Alg. 1 (seeded removals) and the pricing step (seeded duals and
        // λ) against every chain of every driver, under both objectives:
        // the DP's best must be the best chain, bit for bit.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut markets = Vec::new();
        for seed in [91, 92, 93, 94] {
            markets.push(generated(seed, 80, 6, DriverModel::Hitchhiking));
        }
        for tasks in [40, 60] {
            for seed in 0..3 {
                markets.push(generated(seed, tasks, 6, DriverModel::HomeWorkHome));
            }
        }
        let mut scratch = PathScratch::default();
        for (k, market) in markets.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(k as u64);
            let profit = task_margins(market, Objective::Profit);
            let welfare = task_margins(market, Objective::Welfare);
            for n in 0..market.num_drivers() {
                let reference = reference_map(market, n);
                let map = &market.task_maps()[n];
                for round in 0..6 {
                    let gone: Vec<bool> = profit
                        .iter()
                        .map(|_| round > 0 && rng.gen_bool(0.3))
                        .collect();
                    let duals: Vec<f64> = profit.iter().map(|_| rng.gen_range(0.0..8.0)).collect();
                    let lambda = rng.gen_range(0.25..3.0);
                    let mut best = [0.0; 2];
                    for (o, objective) in [Objective::Profit, Objective::Welfare]
                        .into_iter()
                        .enumerate()
                    {
                        let margins = [&profit, &welfare][o];
                        let context = format!("market {k} driver {n} round {round} {objective:?}");
                        let mut check = |value: &[f64], lambda: f64| {
                            let dp = map.best_path(value, lambda, &mut scratch);
                            let chain = best_chain_by_enumeration(&reference, value, lambda);
                            assert_eq!(dp.tasks, chain.tasks, "{context}, λ {lambda}");
                            assert_eq!(
                                dp.profit.to_bits(),
                                chain.profit.to_bits(),
                                "{context}, λ {lambda}"
                            );
                            dp
                        };
                        let removed: Vec<f64> = margins
                            .iter()
                            .zip(&gone)
                            .map(|(&margin, &gone)| if gone { REMOVED } else { margin })
                            .collect();
                        let dp = check(&removed, 0.0);
                        let priced: Vec<f64> =
                            margins.iter().zip(&duals).map(|(m, d)| m - d).collect();
                        check(&priced, lambda);
                        // The market's own reading of the chosen route.
                        let route = dp.tasks.iter().map(|&t| t as usize);
                        let read = crate::assignment::path_profit(market, objective, n, route);
                        assert_eq!(read.as_f64().to_bits(), dp.profit.to_bits(), "{context}");
                        best[o] = dp.profit;
                    }
                    assert!(
                        best[1] >= best[0],
                        "market {k} driver {n}: welfare {best:?}"
                    );
                }
            }
        }

        // No task at all: only the empty chain, which pays λ.
        let empty = generated(96, 0, 1, DriverModel::Hitchhiking);
        let map = &empty.task_maps()[0];
        for lambda in [0.0, 1.5] {
            let dp = map.best_path(&[], lambda, &mut scratch);
            assert!(dp.tasks.is_empty());
            assert_eq!(dp.profit.to_bits(), (0.0 - lambda).to_bits());
            assert_eq!(
                best_chain_by_enumeration(&reference_map(&empty, 0), &[], lambda),
                dp
            );
        }
    }
}
