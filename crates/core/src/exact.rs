//! Exact small-scale optima `Z*` by branch-and-price.
//!
//! The paper computes exact integral optima with CPLEX/MOSEK "for the
//! evaluation of small-scale problems" (§VI-B). Here [`crate::lp_upper_bound`]'s
//! column generation on the path formulation (Eq. 9–10) runs at every node
//! of a branch-and-bound tree (branch-and-price: Barnhart et al., *Oper.
//! Res.* 46(3), 1998). A node whose master is integral is solved; otherwise
//! it branches on a fractional driver–task share `x_{n,m} = Σ_{π ∋ m} f_π`:
//! one child bans `m` for `n` (a removed node in `n`'s pricing DP), the
//! other for every other driver. The greedy solution (Alg. 1), which also
//! warm-starts the root, is the first incumbent. §III-C's arc-form ILP
//! stays in the tests, as this solver's oracle.

use rideshare_types::{Result, TaskId};

use crate::assignment::Assignment;
use crate::greedy::solve_greedy;
use crate::market::{Market, Objective};
use crate::upper_bound::{route_columns, Column, ColumnGeneration, UpperBoundOptions};

/// Result of [`solve_exact`].
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The optimal assignment.
    pub assignment: Assignment,
    /// The optimal objective value (Eq. 4 / Eq. 6, constants included).
    pub objective_value: f64,
    /// Branch-and-price nodes explored.
    pub nodes_explored: usize,
    /// Whether optimality was proven within the node budget.
    pub proven_optimal: bool,
}

/// Branch-and-price node budget of [`solve_exact`].
const NODE_LIMIT: usize = 50_000;

/// A node: per driver the tasks she may not serve, and the columns its
/// master starts from.
struct Node {
    bans: Vec<Vec<u32>>,
    columns: Vec<Column>,
}

/// Solves the market exactly by branch-and-price on the path formulation.
/// `Z*` is the value of the best assignment found, recomputed from its
/// routes. Nodes are explored depth first, the child that keeps the task
/// for the driver first; each runs column generation to convergence, or
/// until its bound prunes it.
///
/// # Errors
///
/// Propagates master LP failures ([`rideshare_types::MarketError`]), which
/// mean a pivot budget ran out. Running out of nodes is not an error: the
/// best assignment found comes back with `proven_optimal` false.
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
    let n = market.num_drivers();
    let mut assignment = solve_greedy(market, objective).assignment;
    let mut incumbent = assignment.objective_value(market, objective).as_f64();
    let uncapped = UpperBoundOptions {
        max_rounds: usize::MAX,
        ..UpperBoundOptions::default()
    };
    let mut stack = Vec::new();
    // A market without drivers or tasks has nothing to solve.
    if n > 0 && market.num_tasks() > 0 {
        let columns = route_columns(market, objective, &assignment);
        stack.push(Node {
            bans: vec![Vec::new(); n],
            columns,
        });
    }
    let mut nodes = 0;
    while nodes < NODE_LIMIT {
        let Some(Node { bans, columns }) = stack.pop() else {
            break;
        };
        nodes += 1;
        // A node whose bound is within 1e-6 of the incumbent is pruned, so
        // `Z*` is exact to that relative tolerance.
        let cutoff = incumbent + 1e-6 * incumbent.abs().max(1.0);
        let mut generation = ColumnGeneration::new(market, objective, bans.clone(), columns);
        generation.run(uncapped, cutoff)?;
        if generation.dual_bound() <= cutoff {
            continue;
        }
        let columns = generation.columns.iter().enumerate();
        let valued = columns.map(|(j, column)| (column, generation.master.primal(j)));
        let solution: Vec<(&Column, f64)> = valued.filter(|&(_, f)| f > 1e-9).collect();
        if let Some((driver, task)) = branching_pair(market, &solution) {
            stack.extend(branch(market, bans, &solution, driver, task));
            continue;
        }
        // The master is integral: a driver's column at value 1 is her route.
        let mut integral = Assignment::empty(n);
        for (column, _) in solution.iter().filter(|&&(_, f)| f > 0.5) {
            let route = column.tasks.iter().map(|&t| TaskId::new(t)).collect();
            integral.set_route(market.drivers()[column.driver].id, route);
        }
        let value = integral.objective_value(market, objective).as_f64();
        if value > incumbent {
            (incumbent, assignment) = (value, integral);
        }
    }
    Ok(ExactOutcome {
        assignment,
        objective_value: incumbent,
        nodes_explored: nodes,
        proven_optimal: stack.is_empty(),
    })
}

/// The children of branching on `(driver, task)`: `driver` may not serve
/// `task`, or no other driver may. Each starts from the columns of the
/// node's `solution` that its bans allow; pricing generates the rest.
fn branch(
    market: &Market,
    bans: Vec<Vec<u32>>,
    solution: &[(&Column, f64)],
    driver: usize,
    task: u32,
) -> [Node; 2] {
    let maps = market.task_maps();
    let mut without = bans.clone();
    without[driver].push(task);
    let mut only = bans;
    for (other, bans) in only.iter_mut().enumerate() {
        if other != driver && !bans.contains(&task) && maps[other].tasks().contains(&task) {
            bans.push(task);
        }
    }
    [without, only].map(|bans| {
        let columns = solution.iter().map(|&(column, _)| column);
        let allowed = columns.filter(|c| c.tasks.iter().all(|t| !bans[c.driver].contains(t)));
        let columns = allowed.cloned().collect();
        Node { bans, columns }
    })
}

/// The pair `(n, m)` to branch on in a node's `solution` (its columns at
/// value beyond round-off): the most fractional share `x_{n,m}`
/// whose task another driver also holds a share of, ties to the lower
/// driver, then the lower task. `None` when there is none; the master is
/// then integral, since with no task shared its task rows follow from the
/// driver rows and each driver's part is a simplex, whose vertices are
/// single paths.
///
/// `PackingLp` lifts row `i`'s capacity by `(i + 1)·1e-7` against
/// degeneracy, so an integral master's values drift from 0 and 1 by up to
/// the row count × 1e-7 (1e-4 at 1040 rows). A share reads as fractional
/// only ten times further out.
fn branching_pair(market: &Market, solution: &[(&Column, f64)]) -> Option<(usize, u32)> {
    let m = market.num_tasks();
    let tolerance = ((market.num_drivers() + m) as f64 * 1e-6).max(1e-3);
    // x_{n,m} at n·M + m, and Σₙ x_{n,m} at m.
    let (mut share, mut task_share) = (vec![0.0; market.num_drivers() * m], vec![0.0; m]);
    for &(column, f) in solution.iter().filter(|&&(_, f)| f > tolerance) {
        for &t in &column.tasks {
            share[column.driver * m + t as usize] += f;
            task_share[t as usize] += f;
        }
    }
    let mut best = None;
    let mut best_fraction = tolerance;
    for (k, &x) in share.iter().enumerate() {
        let fraction = x.min(1.0 - x);
        if fraction > best_fraction && task_share[k % m] - x > tolerance {
            (best, best_fraction) = (Some((k / m, (k % m) as u32)), fraction);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use crate::upper_bound::lp_upper_bound;
    use crate::view::DriverView;
    use rideshare_lp::{BranchAndBound, Cmp, LinearProgram};
    use rideshare_trace::{DriverModel, TraceConfig};
    use rideshare_types::MarketError;

    /// §III-C's arc-form ILP over the *feasible* arcs only (the task map
    /// prunes the variable set), solved by the dense branch-and-bound: the
    /// oracle [`solve_exact`] is tested against. The individual-rationality
    /// rows (5b) are added when `enforce_ir`; the optimum never needs them
    /// (dropping a loss-making driver's whole route is always feasible and
    /// better), and a test keeps that claim checked.
    fn solve_arc_ilp(
        market: &Market,
        objective: Objective,
        enforce_ir: bool,
    ) -> Result<ExactOutcome> {
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

    /// `solve_exact` against the arc-form ILP on one market: the same `Z*`
    /// to 1e-6 relative, the same verdict on optimality, and assignments
    /// that validate and are worth what each solver reports.
    fn assert_agrees_with_the_arc_form(label: &str, m: &Market) {
        let exact = solve_exact(m, Objective::Profit).unwrap();
        let oracle = solve_arc_ilp(m, Objective::Profit, false).unwrap();
        for (solver, outcome) in [("solve_exact", &exact), ("arc form", &oracle)] {
            outcome.assignment.validate(m).unwrap();
            let worth = outcome
                .assignment
                .objective_value(m, Objective::Profit)
                .as_f64();
            assert!(
                (worth - outcome.objective_value).abs() < 1e-6,
                "{label}: {solver} reports {} for an assignment worth {worth}",
                outcome.objective_value
            );
        }
        let scale = oracle.objective_value.abs().max(1.0);
        assert!(
            (exact.objective_value - oracle.objective_value).abs() <= 1e-6 * scale,
            "{label}: Z* {} vs the arc form's {}",
            exact.objective_value,
            oracle.objective_value
        );
        assert_eq!(exact.proven_optimal, oracle.proven_optimal, "{label}");
    }

    fn porto(seed: u64, tasks: usize, drivers: usize, model: DriverModel) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, model)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    #[test]
    fn exact_matches_the_arc_form_oracle() {
        // Every `small_scale --seeds 3` market (hitchhiking 10 × 4 to 18 ×
        // 6), hitchhiking up to 80 × 12 and hwh up to 50 × 10, at the
        // figure's seeds. hwh 18 × 6 at seed 1001 has a fractional path
        // relaxation.
        let hitch = [(10, 4), (14, 5), (18, 6), (30, 8), (50, 10), (80, 12)];
        let hwh = [(18, 6), (30, 8), (50, 10)];
        for seed in 1000..1003 {
            let sizes = hitch.iter().map(|&s| (s, DriverModel::Hitchhiking));
            for ((tasks, drivers), model) in
                sizes.chain(hwh.map(|s| (s, DriverModel::HomeWorkHome)))
            {
                let label = format!("{model} {tasks} x {drivers}, seed {seed}");
                assert_agrees_with_the_arc_form(&label, &porto(seed, tasks, drivers, model));
            }
        }
    }

    #[test]
    #[ignore = "the arc form takes minutes here; nightly CI runs it in release"]
    fn exact_matches_the_arc_form_oracle_on_fractional_roots() {
        for (tasks, drivers, model) in [
            (80, 12, DriverModel::HomeWorkHome),
            (120, 16, DriverModel::Hitchhiking),
            (400, 30, DriverModel::Hitchhiking),
        ] {
            let label = format!("{model} {tasks} x {drivers}, seed 1001");
            assert_agrees_with_the_arc_form(&label, &porto(1001, tasks, drivers, model));
        }
    }

    #[test]
    fn branching_closes_a_fractional_root() {
        // hwh 18 × 6 at seed 1001: the path relaxation `Z_f*` sits above
        // `Z*`, so the root master is fractional and the tree must branch.
        let m = porto(1001, 18, 6, DriverModel::HomeWorkHome);
        let exact = solve_exact(&m, Objective::Profit).unwrap();
        let ub = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        assert!(ub.converged && ub.bound > exact.objective_value + 1e-3);
        assert!(exact.proven_optimal && exact.nodes_explored > 1);
    }

    #[test]
    fn welfare_exact_dominates_profit_exact() {
        let m = market(34, 10, 3);
        let p = solve_exact(&m, Objective::Profit).unwrap();
        let w = solve_exact(&m, Objective::Welfare).unwrap();
        assert!(w.objective_value + 1e-6 >= p.objective_value);
    }
}
