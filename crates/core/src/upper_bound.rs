//! The LP-relaxation upper bound `Z_f*` via column generation.
//!
//! §III-E relaxes the integrality constraints of the flow formulation; the
//! paper uses the fractional optimum `Z_f* ≥ Z* = OPT` as the evaluation
//! yardstick for every algorithm (§VI-B). We compute it on the equivalent
//! path formulation (Eq. 9–10): by flow decomposition on a DAG the two
//! relaxations have the same optimum, and the path LP is a *packing LP*
//! with one row per driver and one row per task — but exponentially many
//! columns.
//!
//! Column generation handles that: the restricted master problem
//! ([`rideshare_lp::PackingLp`]) holds the columns generated so far, and the
//! pricing subproblem for driver `i` asks for the path maximising the
//! reduced cost `r_π − Σ_{m∈π} μₘ − λᵢ` — exactly a longest-path query in
//! driver `i`'s task-map DAG with dual-adjusted node weights, solved in
//! time linear in that driver's own task map (compacted once per market,
//! shared with Alg. 1). When no path prices positive the master optimum
//! *is* `Z_f*`; if the round budget is hit first, the Lagrangian bound
//! `master + Σᵢ max(0, best reduced cost)` is still a valid upper bound and
//! is reported with `converged = false`.
//!
//! Pricing reuses what did not move, exactly. A driver's DP reads only her
//! dual `λᵢ` and the node values `margin − μₘ` of her map's tasks, so when
//! all of those are bitwise equal to what her last DP read, that DP's path
//! is the answer again and is kept: each task's value is stamped with the
//! pricing pass that last changed it, and a driver whose `λ` is the one
//! her last DP read and whose tasks are all stamped no later than that DP
//! skips it. The check costs `O(k)` against the DP's `O(k + arcs)`.
//! Columns, their order, every dual and every bit of the bound are what
//! full pricing gives; debug builds recompute each reused path and assert
//! it equal. This is the exact form of partial pricing (Lübbecke &
//! Desrosiers, *Oper. Res.* 53(6), 2005).
//!
//! The same loop ([`ColumnGeneration`]) runs at every node of
//! [`crate::solve_exact`]'s branch-and-price. There some drivers carry
//! bans: a banned task is a removed node in that driver's DP alone, and a
//! driver with bans is priced afresh every pass.

use rideshare_lp::PackingLp;
use rideshare_types::{Money, Result};

use crate::assignment::{path_profit, Assignment};
use crate::greedy::solve_greedy;
use crate::market::{Market, Objective};
use crate::view::{task_margins, BestPath, PathScratch, TaskMap, REMOVED};

/// Options for [`lp_upper_bound`]: the [`Default`], or test handles (the
/// Lagrangian fallback, the cold start, purge-every-round) and the lifted
/// round cap of [`crate::solve_exact`]'s nodes, not knobs.
#[derive(Clone, Copy, Debug)]
pub struct UpperBoundOptions {
    /// Maximum column-generation rounds (each round prices all drivers).
    pub(crate) max_rounds: usize,
    /// Reduced-cost tolerance for accepting a new column.
    pub(crate) pricing_tolerance: f64,
    /// Warm-start the master with the greedy solution's paths.
    pub(crate) warm_start_greedy: bool,
    /// Purge clearly-unattractive non-basic columns whenever the master
    /// holds more than `purge_factor × (N + M)` of them (0 purges every
    /// round). Purging only trims the tableau; the pricing oracle
    /// regenerates anything that becomes attractive again, so the bound is
    /// unaffected.
    pub(crate) purge_factor: usize,
}

impl Default for UpperBoundOptions {
    fn default() -> Self {
        Self {
            max_rounds: 60,
            pricing_tolerance: 1e-6,
            warm_start_greedy: true,
            purge_factor: 4,
        }
    }
}

/// Result of [`lp_upper_bound`].
#[derive(Clone, Copy, Debug)]
pub struct UpperBoundResult {
    /// A valid upper bound on the integral optimum `Z*`. Equal to `Z_f*`
    /// when `converged` is true.
    pub bound: f64,
    /// The restricted master LP's final objective (a lower bound on
    /// `Z_f*`).
    pub master_objective: f64,
    /// Column-generation rounds executed.
    pub rounds: usize,
    /// Path columns generated in total.
    pub columns: usize,
    /// Whether pricing proved optimality (no positive reduced cost left).
    pub converged: bool,
}

/// Computes the LP-relaxation upper bound `Z_f*` (§III-E) by column
/// generation.
///
/// # Errors
///
/// Propagates LP solver failures ([`rideshare_types::MarketError`]); these
/// indicate an iteration-budget exhaustion, not an invalid market.
///
/// # Examples
///
/// ```
/// use rideshare_core::{lp_upper_bound, solve_greedy, Market, MarketBuildOptions, Objective, UpperBoundOptions};
/// use rideshare_trace::{DriverModel, TraceConfig};
///
/// let trace = TraceConfig::porto()
///     .with_seed(5)
///     .with_task_count(60)
///     .with_driver_count(8, DriverModel::Hitchhiking)
///     .generate();
/// let market = Market::from_trace(&trace, &MarketBuildOptions::default());
/// let greedy = solve_greedy(&market, Objective::Profit);
/// let ub = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default()).unwrap();
/// let achieved = greedy.assignment.objective_value(&market, Objective::Profit);
/// assert!(ub.bound + 1e-6 >= achieved.as_f64());
/// ```
pub fn lp_upper_bound(
    market: &Market,
    objective: Objective,
    opts: UpperBoundOptions,
) -> Result<UpperBoundResult> {
    let n = market.num_drivers();
    if n == 0 || market.num_tasks() == 0 {
        return Ok(UpperBoundResult {
            bound: 0.0,
            master_objective: 0.0,
            rounds: 0,
            columns: 0,
            converged: true,
        });
    }
    let greedy = opts
        .warm_start_greedy
        .then(|| solve_greedy(market, objective).assignment);
    let warm = greedy.map_or_else(Vec::new, |greedy| route_columns(market, objective, &greedy));
    let mut cg = ColumnGeneration::new(market, objective, vec![Vec::new(); n], warm);
    cg.run(opts, f64::NEG_INFINITY)?;
    Ok(UpperBoundResult {
        bound: if cg.converged {
            cg.master_objective
        } else {
            cg.master_objective + cg.gap
        },
        master_objective: cg.master_objective,
        rounds: cg.rounds,
        columns: cg.columns.len(),
        converged: cg.converged,
    })
}

/// One path column of the master: whose path it is, its tasks in service
/// order and its profit `r_π`.
#[derive(Clone, Debug)]
pub(crate) struct Column {
    pub(crate) driver: usize,
    pub(crate) tasks: Vec<u32>,
    pub(crate) profit: f64,
}

impl Column {
    fn new(market: &Market, objective: Objective, driver: usize, tasks: Vec<u32>) -> Self {
        let path = tasks.iter().map(|&t| t as usize);
        let profit = path_profit(market, objective, driver, path).as_f64();
        Self {
            driver,
            tasks,
            profit,
        }
    }
}

/// The columns of `assignment`'s routes that are worth serving: the warm
/// start of every master.
pub(crate) fn route_columns(market: &Market, objective: Objective, a: &Assignment) -> Vec<Column> {
    let routes = a.routes().iter().enumerate();
    let columns = routes.map(|(driver, route)| {
        let tasks = route.tasks.iter().map(|t| t.raw()).collect();
        Column::new(market, objective, driver, tasks)
    });
    // `Money::is_strictly_positive`, Alg. 1's test.
    columns.filter(|c| c.profit > Money::EPSILON).collect()
}

/// Column generation on the path master (rows `0..N`: the drivers' 10a as
/// `≤ 1`; rows `N..N+M`: the tasks' 10b), with its pricing oracle and every
/// column added, master column `j` being `columns[j]`. Driver `i`'s DP
/// reads the tasks in `bans[i]` as removed. [`lp_upper_bound`] runs one
/// with no bans, [`crate::solve_exact`] one per branch-and-price node.
pub(crate) struct ColumnGeneration<'m> {
    market: &'m Market,
    objective: Objective,
    pub(crate) master: PackingLp,
    pricer: Pricer,
    pub(crate) columns: Vec<Column>,
    /// Where [`Self::run`] stopped: the master's objective after its last
    /// optimisation, the rounds run, whether pricing proved the master
    /// optimal, and `Σᵢ (best reduced cost)⁺` at its final duals (the
    /// Lagrangian correction; at most `N ×` the tolerance once converged).
    pub(crate) master_objective: f64,
    rounds: usize,
    converged: bool,
    pub(crate) gap: f64,
}

impl<'m> ColumnGeneration<'m> {
    pub(crate) fn new(
        market: &'m Market,
        objective: Objective,
        bans: Vec<Vec<u32>>,
        columns: Vec<Column>,
    ) -> Self {
        let mut generation = Self {
            market,
            objective,
            master: PackingLp::new(market.num_drivers() + market.num_tasks()),
            pricer: Pricer::new(task_margins(market, objective), bans),
            columns: Vec::with_capacity(columns.len()),
            master_objective: 0.0,
            rounds: 0,
            converged: false,
            gap: 0.0,
        };
        for column in columns {
            generation.add(column);
        }
        generation
    }

    fn add(&mut self, column: Column) {
        let n = self.market.num_drivers();
        let mut support: Vec<usize> = column.tasks.iter().map(|&t| n + t as usize).collect();
        support.sort_unstable();
        support.insert(0, column.driver);
        self.master.add_column(column.profit, &support);
        self.columns.push(column);
    }

    /// Optimises the master, then runs rounds — price every driver, add
    /// each path that prices above the tolerance, re-optimise — until no
    /// path does, `opts.max_rounds` rounds have run, or the dual bound
    /// falls to `cutoff`.
    pub(crate) fn run(&mut self, opts: UpperBoundOptions, cutoff: f64) -> Result<()> {
        let rows = self.master.num_rows();
        self.master_objective = self.master.optimize()?;
        loop {
            let priced = self
                .pricer
                .price(self.market.task_maps(), self.master.duals());
            // Lagrangian safety net: Z_f* ≤ master + Σᵢ (best reduced
            // cost)⁺ at these duals.
            self.gap = priced.iter().map(|priced| priced.profit.max(0.0)).sum();
            if self.rounds == opts.max_rounds {
                return Ok(());
            }
            self.rounds += 1;
            // The empty path contributes −λᵢ ≤ 0, so a positive reduced
            // cost certifies an improving path.
            let improving = priced.iter().enumerate().filter(|(_, priced)| {
                priced.profit > opts.pricing_tolerance && !priced.tasks.is_empty()
            });
            let (market, objective) = (self.market, self.objective);
            let fresh: Vec<Column> = improving
                .map(|(i, priced)| Column::new(market, objective, i, priced.tasks.clone()))
                .collect();
            self.converged = fresh.is_empty();
            if self.converged {
                return Ok(());
            }
            for column in fresh {
                self.add(column);
            }
            if self.dual_bound() <= cutoff {
                return Ok(());
            }
            self.master_objective = self.master.optimize()?;
            // Keep the tableau compact: drop non-basic columns that price
            // clearly unattractive. The oracle regenerates any column that
            // becomes attractive again, so this does not affect correctness
            // — only the memory the dense tableau holds and the per-pivot
            // scans over its columns.
            if self.master.num_columns() > opts.purge_factor * rows {
                self.master.purge(1e-6);
            }
        }
    }

    /// A bound on every integral solution the bans allow that, unlike the
    /// master's objective, has no anti-degeneracy lift: by weak duality
    /// `Σ y⁺ + gap` bounds the unperturbed LP.
    pub(crate) fn dual_bound(&self) -> f64 {
        self.master.duals().iter().map(|y| y.max(0.0)).sum::<f64>() + self.gap
    }
}

/// The pricing subproblem: every driver's best path at the master's
/// current duals, `profit` being that column's reduced cost. The duals are
/// read once per pass into the node values `margin − μ` all the DPs share,
/// and a driver whose inputs did not move keeps her last path (module
/// doc). A driver with bans reads her banned tasks as [`REMOVED`] and is
/// priced afresh every pass.
struct Pricer {
    margins: Vec<f64>,
    /// Per driver, the tasks she may not serve.
    bans: Vec<Vec<u32>>,
    /// Per task, `margin − μ` at the latest pass, and the pass that last
    /// changed it bitwise (0: never).
    value: Vec<f64>,
    value_moved: Vec<u32>,
    /// Per driver, her last DP: the pass it ran in (0: none), the `λ` it
    /// read and the path it found.
    priced: Vec<u32>,
    lambda: Vec<f64>,
    best: Vec<BestPath>,
    /// Passes so far, numbered from 1.
    pass: u32,
    scratch: PathScratch,
}

#[cfg(test)]
thread_local! {
    /// Paths [`Pricer::price`] reused instead of recomputing, on this
    /// thread.
    static REUSED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Pricer {
    fn new(margins: Vec<f64>, bans: Vec<Vec<u32>>) -> Self {
        let drivers = bans.len();
        Self {
            bans,
            value: vec![0.0; margins.len()],
            value_moved: vec![0; margins.len()],
            margins,
            priced: vec![0; drivers],
            lambda: vec![0.0; drivers],
            best: vec![
                BestPath {
                    tasks: Vec::new(),
                    profit: 0.0,
                };
                drivers
            ],
            pass: 0,
            scratch: PathScratch::default(),
        }
    }

    /// Every driver's best path at `duals` (drivers' rows, then tasks'),
    /// indexed by driver.
    fn price(&mut self, maps: &[TaskMap], duals: &[f64]) -> &[BestPath] {
        self.pass += 1;
        let (lambdas, mus) = duals.split_at(maps.len());
        for (t, (margin, mu)) in self.margins.iter().zip(mus).enumerate() {
            let value = margin - mu;
            if value.to_bits() != self.value[t].to_bits() {
                self.value[t] = value;
                self.value_moved[t] = self.pass;
            }
        }
        for (i, (map, &lambda)) in maps.iter().zip(lambdas).enumerate() {
            if !self.bans[i].is_empty() {
                let mut value = self.value.clone();
                for &t in &self.bans[i] {
                    value[t as usize] = REMOVED;
                }
                self.best[i] = map.best_path(&value, lambda, &mut self.scratch);
                continue;
            }
            let since = self.priced[i];
            let unmoved = since > 0
                && lambda.to_bits() == self.lambda[i].to_bits()
                && map
                    .tasks()
                    .iter()
                    .all(|&t| self.value_moved[t as usize] <= since);
            if unmoved {
                debug_assert_eq!(
                    self.best[i],
                    map.best_path(&self.value, lambda, &mut self.scratch),
                    "driver {i}'s reused path"
                );
                #[cfg(test)]
                REUSED.with(|reused| reused.set(reused.get() + 1));
            } else {
                self.best[i] = map.best_path(&self.value, lambda, &mut self.scratch);
                self.priced[i] = self.pass;
                self.lambda[i] = lambda;
            }
        }
        &self.best
    }
}

/// Convenience: the paper's *performance ratio* — an algorithm's achieved
/// objective divided by the upper bound (so 1.0 is optimal; the paper plots
/// the inverse orientation in Fig. 5, bound over achieved ≥ 1, which some
/// readers prefer — we report achieved/bound ∈ [0, 1]).
#[must_use]
pub fn performance_ratio(achieved: Money, bound: f64) -> f64 {
    if bound <= f64::EPSILON {
        return 1.0;
    }
    (achieved.as_f64() / bound).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use crate::solve_greedy;
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
    fn bound_dominates_greedy() {
        for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
            let m = market(11, 80, 10, model);
            let greedy = solve_greedy(&m, Objective::Profit);
            let achieved = greedy.assignment.objective_value(&m, Objective::Profit);
            let ub = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
            assert!(ub.converged, "small instance should converge");
            assert!(
                ub.bound + 1e-6 >= achieved.as_f64(),
                "{model}: bound {} < achieved {achieved}",
                ub.bound
            );
            // The bound is not absurdly loose on a dense small market.
            assert!(ub.bound <= achieved.as_f64() * 5.0 + 50.0);
        }
    }

    #[test]
    fn warm_start_does_not_change_bound() {
        let m = market(12, 60, 8, DriverModel::Hitchhiking);
        let with = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        let without = lp_upper_bound(
            &m,
            Objective::Profit,
            UpperBoundOptions {
                warm_start_greedy: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with.converged && without.converged);
        assert!(
            (with.bound - without.bound).abs() < 1e-4,
            "with {} vs without {}",
            with.bound,
            without.bound
        );
    }

    #[test]
    fn empty_market_bound_zero() {
        let m = market(13, 0, 5, DriverModel::Hitchhiking);
        let ub = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        assert_eq!(ub.bound, 0.0);
        assert!(ub.converged);
    }

    #[test]
    fn truncated_rounds_still_upper_bound() {
        let m = market(14, 100, 12, DriverModel::Hitchhiking);
        let full = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        assert!(full.converged);
        let truncated = lp_upper_bound(
            &m,
            Objective::Profit,
            UpperBoundOptions {
                max_rounds: 1,
                warm_start_greedy: false,
                ..Default::default()
            },
        )
        .unwrap();
        // The Lagrangian fallback must still dominate the true Z_f*.
        assert!(
            truncated.bound + 1e-6 >= full.bound,
            "truncated {} < converged {}",
            truncated.bound,
            full.bound
        );
    }

    #[test]
    fn aggressive_purging_does_not_change_bound() {
        let m = market(16, 90, 12, DriverModel::Hitchhiking);
        let normal = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        let purged = lp_upper_bound(
            &m,
            Objective::Profit,
            UpperBoundOptions {
                purge_factor: 0, // purge after every round
                ..Default::default()
            },
        )
        .unwrap();
        assert!(normal.converged && purged.converged);
        assert!(
            (normal.bound - purged.bound).abs() < 1e-4,
            "normal {} vs purged {}",
            normal.bound,
            purged.bound
        );
    }

    #[test]
    fn pricing_reuses_paths_whose_inputs_did_not_move() {
        // Every reuse is checked against a fresh DP in debug builds; this
        // shows there are reuses to check.
        let m = market(14, 100, 12, DriverModel::Hitchhiking);
        REUSED.with(|reused| reused.set(0));
        let ub = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        assert!(ub.converged && ub.rounds >= 2, "{} rounds", ub.rounds);
        let reused = REUSED.with(std::cell::Cell::get);
        assert!(reused > 0, "no path reused over {} rounds", ub.rounds);
        assert!(reused < ub.rounds * m.num_drivers());
    }

    #[test]
    fn welfare_bound_dominates_profit_bound() {
        let m = market(15, 70, 9, DriverModel::Hitchhiking);
        let p = lp_upper_bound(&m, Objective::Profit, UpperBoundOptions::default()).unwrap();
        let w = lp_upper_bound(&m, Objective::Welfare, UpperBoundOptions::default()).unwrap();
        assert!(
            w.bound + 1e-6 >= p.bound,
            "welfare {} < profit {}",
            w.bound,
            p.bound
        );
    }

    #[test]
    fn performance_ratio_clamps() {
        assert_eq!(performance_ratio(Money::new(5.0), 10.0), 0.5);
        assert_eq!(performance_ratio(Money::new(15.0), 10.0), 1.0);
        assert_eq!(performance_ratio(Money::new(0.0), 0.0), 1.0);
    }
}
