//! Algorithm 1 — the offline greedy GA with its tight 1/(D+1) guarantee.
//!
//! The paper's loop: while some driver still has a strictly-positive-profit
//! path, pick the globally maximum-profit path, commit it as that driver's
//! task list, and delete the path's task nodes and the driver's
//! source/destination pair from the graph.
//!
//! Implementation: each driver's task map is compacted once per market
//! (kept on the [`Market`], shared with the column generation's pricing
//! oracle); node deletion overwrites the task's entry
//! in the one shared node-value vector with [`REMOVED`], and the arg-max
//! uses **lazy re-evaluation**: each
//! driver's best-path value can only *decrease* as task nodes disappear, so
//! a stale heap entry that still tops the heap after recomputation is the
//! true maximum. This keeps the per-iteration cost at a handful of DP
//! calls, each linear in that driver's own task map, instead of `N` of
//! them, without changing the selected solution.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rideshare_types::{Money, TaskId};

use crate::assignment::{Assignment, DriverRoute};
use crate::market::{Market, Objective};
use crate::view::{task_margins, PathScratch, REMOVED};

/// Result of running [`solve_greedy`].
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// The selected task lists.
    pub assignment: Assignment,
    /// Number of committed paths (Alg. 1 iterations that selected a driver).
    pub iterations: usize,
    /// Total best-path DP evaluations, including lazy re-evaluations —
    /// `N` at initialisation plus the re-checks; compare against `N ×
    /// iterations` for the naive variant.
    pub evaluations: usize,
}

/// Heap entry ordered by path profit (then driver index for determinism).
struct Entry {
    profit: f64,
    driver: usize,
    /// The iteration at which this value was computed; stale entries are
    /// re-evaluated before being trusted.
    round: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Profits are finite by construction (margins and costs are finite).
        self.profit
            .partial_cmp(&other.profit)
            .expect("finite profit")
            .then_with(|| other.driver.cmp(&self.driver))
    }
}

/// Runs Algorithm 1 (GA) on the market under the given objective.
///
/// Returns a feasible assignment together with search statistics. By
/// Theorem 1 the profit is within `1/(D+1)` of the integral optimum, where
/// `D` is the task-map diameter ([`Market::chain_diameter`]).
///
/// # Examples
///
/// ```
/// use rideshare_core::{solve_greedy, Market, MarketBuildOptions, Objective};
/// use rideshare_trace::{DriverModel, TraceConfig};
///
/// let trace = TraceConfig::porto()
///     .with_seed(3)
///     .with_task_count(80)
///     .with_driver_count(10, DriverModel::Hitchhiking)
///     .generate();
/// let market = Market::from_trace(&trace, &MarketBuildOptions::default());
/// let outcome = solve_greedy(&market, Objective::Profit);
/// assert!(outcome.assignment.validate(&market).is_ok());
/// ```
#[must_use]
pub fn solve_greedy(market: &Market, objective: Objective) -> GreedyOutcome {
    let n = market.num_drivers();
    let maps = market.task_maps();
    let mut value = task_margins(market, objective);
    let mut scratch = PathScratch::default();
    let mut assignment = Assignment::empty(n);
    let mut evaluations = 0usize;
    let mut iterations = 0usize;

    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n);
    let mut cached_paths: Vec<Option<Vec<u32>>> = vec![None; n];
    for (i, map) in maps.iter().enumerate() {
        let best = map.best_path(&value, 0.0, &mut scratch);
        evaluations += 1;
        if Money::new(best.profit).is_strictly_positive() {
            heap.push(Entry {
                profit: best.profit,
                driver: i,
                round: 0,
            });
            cached_paths[i] = Some(best.tasks);
        }
    }

    let mut round = 0usize;
    while let Some(top) = heap.pop() {
        if top.round < round {
            // Stale: recompute under the current removals and reinsert.
            let best = maps[top.driver].best_path(&value, 0.0, &mut scratch);
            evaluations += 1;
            if Money::new(best.profit).is_strictly_positive() {
                heap.push(Entry {
                    profit: best.profit,
                    driver: top.driver,
                    round,
                });
                cached_paths[top.driver] = Some(best.tasks);
            } else {
                cached_paths[top.driver] = None;
            }
            continue;
        }
        // Fresh maximum: commit it (Alg. 1 steps a–c).
        let path = cached_paths[top.driver]
            .take()
            .expect("fresh heap entry has a cached path");
        debug_assert!(!path.is_empty(), "positive-profit path is non-empty");
        for &t in &path {
            value[t as usize] = REMOVED;
        }
        assignment.set_route(
            market.drivers()[top.driver].id,
            path.iter().map(|&t| TaskId::new(t)).collect(),
        );
        iterations += 1;
        round += 1;
    }

    GreedyOutcome {
        assignment,
        iterations,
        evaluations,
    }
}

/// The naive reference implementation of Alg. 1 that re-evaluates **every**
/// remaining driver each iteration. Exponentially clearer, linearly slower;
/// kept for differential testing of the lazy variant.
#[cfg_attr(not(test), allow(dead_code))]
#[must_use]
pub(crate) fn solve_greedy_naive(market: &Market, objective: Objective) -> Assignment {
    let n = market.num_drivers();
    let mut value = task_margins(market, objective);
    let mut scratch = PathScratch::default();
    let mut taken = vec![false; n];
    let maps = market.task_maps();
    let mut routes = vec![DriverRoute::default(); n];
    loop {
        let mut best: Option<(f64, usize, Vec<u32>)> = None;
        for (i, map) in maps.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let path = map.best_path(&value, 0.0, &mut scratch);
            if !Money::new(path.profit).is_strictly_positive() {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bp, bi, _)) => {
                    path.profit > *bp + 1e-12 || ((path.profit - *bp).abs() <= 1e-12 && i < *bi)
                }
            };
            if better {
                best = Some((path.profit, i, path.tasks));
            }
        }
        let Some((_, driver, path)) = best else {
            break;
        };
        for &t in &path {
            value[t as usize] = REMOVED;
        }
        taken[driver] = true;
        routes[driver].tasks = path.iter().map(|&t| TaskId::new(t)).collect();
    }
    Assignment::from_routes(routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(seed: u64, tasks: usize, drivers: usize, model: DriverModel) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, model)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    #[test]
    fn greedy_output_is_feasible_and_profitable() {
        let m = market(1, 150, 20, DriverModel::Hitchhiking);
        let out = solve_greedy(&m, Objective::Profit);
        out.assignment.validate(&m).unwrap();
        let profit = out.assignment.objective_value(&m, Objective::Profit);
        assert!(profit.is_strictly_positive());
        assert_eq!(out.iterations, out.assignment.active_driver_count());
        // Every committed route individually profits (Alg. 1 invariant).
        for d in m.drivers() {
            let p = out.assignment.route_profit(&m, Objective::Profit, d.id);
            assert!(!p.is_strictly_negative());
        }
    }

    #[test]
    fn lazy_matches_naive() {
        for (seed, model) in [
            (2, DriverModel::Hitchhiking),
            (3, DriverModel::HomeWorkHome),
            (4, DriverModel::Hitchhiking),
        ] {
            let m = market(seed, 80, 12, model);
            let lazy = solve_greedy(&m, Objective::Profit);
            let naive = solve_greedy_naive(&m, Objective::Profit);
            let lp = lazy.assignment.objective_value(&m, Objective::Profit);
            let np = naive.objective_value(&m, Objective::Profit);
            assert!(lp.approx_eq(np), "seed {seed}: lazy {lp} vs naive {np}");
        }
    }

    #[test]
    fn task_maps_kept_on_the_market_change_no_answer() {
        use crate::upper_bound::{lp_upper_bound, UpperBoundOptions};

        fn same(a: &GreedyOutcome, b: &GreedyOutcome, case: &str) {
            assert_eq!(a.assignment, b.assignment, "{case}");
            assert_eq!(a.iterations, b.iterations, "{case}");
            assert_eq!(a.evaluations, b.evaluations, "{case}");
        }
        let fresh = || market(10, 150, 20, DriverModel::Hitchhiking);
        let bound = |m: &Market| {
            let ub = lp_upper_bound(m, Objective::Profit, UpperBoundOptions::default()).unwrap();
            (ub.bound.to_bits(), ub.rounds, ub.columns)
        };

        let m = fresh();
        let first = solve_greedy(&m, Objective::Profit);
        assert!(first.iterations > 0);
        same(&solve_greedy(&m, Objective::Profit), &first, "second solve");
        let welfare = solve_greedy(&m, Objective::Welfare);
        same(
            &solve_greedy(&fresh(), Objective::Welfare),
            &welfare,
            "other objective",
        );

        // The bound first (it compacts, warm-starts from Alg. 1 and prices
        // over the maps), the greedy after it, the bound again.
        let m = fresh();
        let cold = bound(&m);
        same(
            &solve_greedy(&m, Objective::Profit),
            &first,
            "after the bound",
        );
        assert_eq!(bound(&m), cold);
        let after_greedy = fresh();
        let _ = solve_greedy(&after_greedy, Objective::Profit);
        assert_eq!(bound(&after_greedy), cold);
    }

    #[test]
    fn lazy_saves_evaluations() {
        let m = market(5, 200, 40, DriverModel::Hitchhiking);
        let out = solve_greedy(&m, Objective::Profit);
        let naive_evals = m.num_drivers() * (out.iterations + 1);
        assert!(
            out.evaluations < naive_evals,
            "lazy {} vs naive bound {naive_evals}",
            out.evaluations
        );
    }

    #[test]
    fn empty_market_yields_empty_assignment() {
        let m = market(6, 0, 10, DriverModel::Hitchhiking);
        let out = solve_greedy(&m, Objective::Profit);
        assert_eq!(out.assignment.served_count(), 0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn no_drivers_serves_nothing() {
        let m = market(7, 50, 0, DriverModel::Hitchhiking);
        let out = solve_greedy(&m, Objective::Profit);
        assert_eq!(out.assignment.served_count(), 0);
    }

    #[test]
    fn welfare_objective_steers_toward_welfare() {
        // Greedy is a heuristic, so strict dominance is not guaranteed —
        // but optimising welfare directly should land within a few percent
        // of (and typically above) the profit-greedy's welfare, and both
        // runs must stay feasible.
        let m = market(8, 120, 15, DriverModel::Hitchhiking);
        let profit_run = solve_greedy(&m, Objective::Profit);
        let welfare_run = solve_greedy(&m, Objective::Welfare);
        profit_run.assignment.validate(&m).unwrap();
        welfare_run.assignment.validate(&m).unwrap();
        let by_profit = profit_run
            .assignment
            .objective_value(&m, Objective::Welfare);
        let by_welfare = welfare_run
            .assignment
            .objective_value(&m, Objective::Welfare);
        assert!(
            by_welfare.as_f64() >= by_profit.as_f64() * 0.95,
            "welfare-greedy {by_welfare} far below profit-greedy {by_profit}"
        );
        assert!(by_welfare.is_strictly_positive());
    }

    #[test]
    fn more_drivers_never_hurt_much() {
        // Greedy is monotone-ish in supply: doubling drivers on the same
        // tasks should not reduce total profit (same trace seed keeps tasks
        // identical; extra drivers only add options).
        let small = market(9, 100, 10, DriverModel::Hitchhiking);
        let small_profit = solve_greedy(&small, Objective::Profit)
            .assignment
            .objective_value(&small, Objective::Profit);
        let trace = TraceConfig::porto()
            .with_seed(9)
            .with_task_count(100)
            .with_driver_count(40, DriverModel::Hitchhiking)
            .generate();
        let big = Market::from_trace(&trace, &MarketBuildOptions::default());
        let big_profit = solve_greedy(&big, Objective::Profit)
            .assignment
            .objective_value(&big, Objective::Profit);
        // Greedy is not strictly monotone, but the dense market should win
        // clearly on a 100-task day.
        assert!(
            big_profit.as_f64() > small_profit.as_f64() * 0.9,
            "big {big_profit} vs small {small_profit}"
        );
    }
}
