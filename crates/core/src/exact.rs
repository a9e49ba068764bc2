//! Exact small-scale optima `Z*` via the arc-form ILP.
//!
//! The paper computes exact integral optima with CPLEX/MOSEK "for the
//! evaluation of small-scale problems" (§VI-B). This module builds the flow
//! formulation of §III-C — decision variables `xₙ,ₘ` and `yₙ,ₘ,ₘ'`,
//! constraints (5a)–(5f) with individual rationality (5b) optional — over
//! the *feasible* arcs only (the task map prunes the variable set), and
//! solves it with the workspace's branch-and-bound solver.
//!
//! Intended for validation at small `N × M`; the LP-relaxation bound of
//! [`crate::lp_upper_bound`] covers large instances, exactly as in the
//! paper.

use rideshare_lp::{BranchAndBound, Cmp, LinearProgram};
use rideshare_types::{MarketError, Result, TaskId};

use crate::assignment::Assignment;
use crate::market::{Market, Objective};
use crate::view::DriverView;

/// Result of [`solve_exact`].
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The optimal assignment.
    pub assignment: Assignment,
    /// The optimal objective value (Eq. 4 / Eq. 6, constants included).
    pub objective_value: f64,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Whether optimality was proven within the node budget.
    pub proven_optimal: bool,
}

/// Branch-and-bound node budget of [`solve_exact`].
const NODE_LIMIT: usize = 50_000;

/// Solves the market exactly by branch-and-bound on the arc formulation.
/// The individual-rationality rows (5b) are left out: the optimum never
/// needs them (dropping a loss-making driver's whole route is always
/// feasible and better), and without them the LP is smaller.
///
/// # Errors
///
/// Returns [`MarketError::IterationLimit`] if the node budget is exhausted
/// before any incumbent exists, and propagates LP failures. Use small
/// instances (`N·M ≲ 200`) — the paper itself resorts to `Z_f*` beyond
/// that.
///
/// # Examples
///
/// ```
/// use rideshare_core::{solve_exact, solve_greedy, Market, MarketBuildOptions, Objective};
/// use rideshare_trace::{DriverModel, TraceConfig};
///
/// let trace = TraceConfig::porto()
///     .with_seed(2)
///     .with_task_count(12)
///     .with_driver_count(3, DriverModel::Hitchhiking)
///     .generate();
/// let market = Market::from_trace(&trace, &MarketBuildOptions::default());
/// let exact = solve_exact(&market, Objective::Profit).unwrap();
/// let greedy = solve_greedy(&market, Objective::Profit);
/// let g = greedy.assignment.objective_value(&market, Objective::Profit);
/// assert!(exact.objective_value + 1e-6 >= g.as_f64());
/// ```
pub fn solve_exact(market: &Market, objective: Objective) -> Result<ExactOutcome> {
    solve_arc_ilp(market, objective, false)
}

/// [`solve_exact`], with the rows (5b) when `enforce_ir` — kept so that
/// the claim above stays a tested one.
fn solve_arc_ilp(market: &Market, objective: Objective, enforce_ir: bool) -> Result<ExactOutcome> {
    let n = market.num_drivers();
    let m = market.num_tasks();
    if n == 0 || m == 0 {
        return Ok(ExactOutcome {
            assignment: Assignment::empty(n),
            objective_value: 0.0,
            nodes_explored: 0,
            proven_optimal: true,
        });
    }

    let views: Vec<DriverView> = (0..n).map(|i| DriverView::new(market, i)).collect();
    let mut lp = LinearProgram::maximize();

    // Variable bookkeeping per driver.
    // x[d][k]: task `allowed[d][k]` assigned to driver d.
    let mut allowed: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut x_var: Vec<Vec<usize>> = Vec::with_capacity(n);
    // Arc variables per driver: (from, to, var, cost) with `usize::MAX`
    // encoding the source (from) / sink (to).
    const TERM: usize = usize::MAX;
    let mut arcs: Vec<Vec<(usize, usize, usize, f64)>> = Vec::with_capacity(n);

    for (d, view) in views.iter().enumerate() {
        let mine: Vec<usize> = (0..m).filter(|&t| view.is_allowed(t)).collect();
        let mut xs = Vec::with_capacity(mine.len());
        for &t in &mine {
            let margin = objective.margin(&market.tasks()[t]).as_f64();
            xs.push(lp.add_var(margin));
        }
        let mut my_arcs = Vec::new();
        // Direct source→sink arc, cost c₀,₋₁ (the refund makes it net 0).
        let direct = market.direct_cost(d).as_f64();
        let v = lp.add_var(-direct);
        my_arcs.push((TERM, TERM, v, direct));
        for &t in &mine {
            let task = &market.tasks()[t];
            let src_cost = market
                .speed()
                .travel_cost(market.drivers()[d].source, task.origin)
                .as_f64();
            let v = lp.add_var(-src_cost);
            my_arcs.push((TERM, t, v, src_cost));
            let snk_cost = market
                .speed()
                .travel_cost(task.destination, market.drivers()[d].destination)
                .as_f64();
            let v = lp.add_var(-snk_cost);
            my_arcs.push((t, TERM, v, snk_cost));
        }
        for &t in &mine {
            for &to in &mine {
                if let Some(cost) = market.chain_cost(t, to) {
                    let v = lp.add_var(-cost);
                    my_arcs.push((t, to, v, cost));
                }
            }
        }
        allowed.push(mine);
        x_var.push(xs);
        arcs.push(my_arcs);
    }

    // (5a): each task served at most once.
    for t in 0..m {
        let coeffs: Vec<(usize, f64)> = (0..n)
            .filter_map(|d| {
                allowed[d]
                    .iter()
                    .position(|&tt| tt == t)
                    .map(|k| (x_var[d][k], 1.0))
            })
            .collect();
        if !coeffs.is_empty() {
            lp.add_constraint(coeffs, Cmp::Le, 1.0);
        }
    }

    for d in 0..n {
        // (5c): out-degree of the source is 1.
        let from_src: Vec<(usize, f64)> = arcs[d]
            .iter()
            .filter(|(f, _, _, _)| *f == TERM)
            .map(|(_, _, v, _)| (*v, 1.0))
            .collect();
        lp.add_constraint(from_src, Cmp::Eq, 1.0);
        // (5d): in-degree of the sink is 1.
        let to_snk: Vec<(usize, f64)> = arcs[d]
            .iter()
            .filter(|(_, t, _, _)| *t == TERM)
            .map(|(_, _, v, _)| (*v, 1.0))
            .collect();
        lp.add_constraint(to_snk, Cmp::Eq, 1.0);
        // (5e)/(5f): task in/out degree equals xₙ,ₘ.
        for (k, &t) in allowed[d].iter().enumerate() {
            let inbound: Vec<(usize, f64)> = arcs[d]
                .iter()
                .filter(|(_, to, _, _)| *to == t)
                .map(|(_, _, v, _)| (*v, 1.0))
                .chain([(x_var[d][k], -1.0)])
                .collect();
            lp.add_constraint(inbound, Cmp::Eq, 0.0);
            let outbound: Vec<(usize, f64)> = arcs[d]
                .iter()
                .filter(|(from, _, _, _)| *from == t)
                .map(|(_, _, v, _)| (*v, 1.0))
                .chain([(x_var[d][k], -1.0)])
                .collect();
            lp.add_constraint(outbound, Cmp::Eq, 0.0);
        }
        // (5b) optional: route profit ≥ 0 ⇔ Σ x·margin − Σ y·cost ≥ −c₀,₋₁.
        if enforce_ir {
            let mut coeffs: Vec<(usize, f64)> = allowed[d]
                .iter()
                .enumerate()
                .map(|(k, &t)| (x_var[d][k], objective.margin(&market.tasks()[t]).as_f64()))
                .collect();
            coeffs.extend(arcs[d].iter().map(|(_, _, v, c)| (*v, -*c)));
            lp.add_constraint(coeffs, Cmp::Ge, -market.direct_cost(d).as_f64());
        }
    }

    let binaries: Vec<usize> = (0..lp.num_vars()).collect();
    let milp = BranchAndBound::new(lp, binaries)
        .with_node_limit(NODE_LIMIT)
        .solve()?;

    // Reconstruct routes by walking successor arcs.
    let mut assignment = Assignment::empty(n);
    for (d, driver_arcs) in arcs.iter().enumerate() {
        let succ_of = |from: usize| -> Option<usize> {
            driver_arcs
                .iter()
                .find(|(f, to, v, _)| *f == from && *to != TERM && milp.values[*v] > 0.5)
                .map(|(_, to, _, _)| *to)
        };
        let mut route = Vec::new();
        let mut cur = succ_of(TERM);
        let mut hops = 0usize;
        while let Some(t) = cur {
            route.push(TaskId::new(t as u32));
            hops += 1;
            if hops > m {
                return Err(MarketError::InfeasibleAssignment {
                    reason: format!("driver#{d}: cyclic arc solution"),
                });
            }
            cur = succ_of(t);
        }
        assignment.set_route(market.drivers()[d].id, route);
    }

    // Add back the constant Σₙ cₙ,₀,₋₁ from Eq. 4.
    let constant: f64 = (0..n).map(|d| market.direct_cost(d).as_f64()).sum();
    Ok(ExactOutcome {
        assignment,
        objective_value: milp.objective + constant,
        nodes_explored: milp.nodes_explored,
        proven_optimal: milp.proven_optimal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use crate::upper_bound::{lp_upper_bound, UpperBoundOptions};
    use crate::{solve_greedy, Objective};
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
    fn exact_dominates_greedy_and_respects_bound() {
        let m = market(31, 14, 4);
        let exact = solve_exact(&m, Objective::Profit).unwrap();
        assert!(exact.proven_optimal);
        exact.assignment.validate(&m).unwrap();
        let exact_value = exact
            .assignment
            .objective_value(&m, Objective::Profit)
            .as_f64();
        assert!(
            (exact_value - exact.objective_value).abs() < 1e-6,
            "reported {} vs recomputed {exact_value}",
            exact.objective_value
        );
        let greedy = solve_greedy(&m, Objective::Profit)
            .assignment
            .objective_value(&m, Objective::Profit);
        assert!(exact.objective_value + 1e-6 >= greedy.as_f64());
        let ub = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        assert!(
            ub.bound + 1e-6 >= exact.objective_value,
            "Z_f* {} < Z* {}",
            ub.bound,
            exact.objective_value
        );
    }

    #[test]
    fn ir_constraint_does_not_change_optimum() {
        let m = market(32, 10, 3);
        let without = solve_exact(&m, Objective::Profit).unwrap();
        let with = solve_arc_ilp(&m, Objective::Profit, true).unwrap();
        assert!(
            (without.objective_value - with.objective_value).abs() < 1e-6,
            "IR changed optimum: {} vs {}",
            without.objective_value,
            with.objective_value
        );
    }

    #[test]
    fn empty_market_trivial() {
        let m = market(33, 0, 3);
        let e = solve_exact(&m, Objective::Profit).unwrap();
        assert_eq!(e.objective_value, 0.0);
        assert!(e.proven_optimal);
    }

    #[test]
    fn welfare_exact_dominates_profit_exact() {
        let m = market(34, 10, 3);
        let p = solve_exact(&m, Objective::Profit).unwrap();
        let w = solve_exact(&m, Objective::Welfare).unwrap();
        assert!(w.objective_value + 1e-6 >= p.objective_value);
    }
}
