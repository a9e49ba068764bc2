//! Small-scale exact evaluation (§VI-B): "for the evaluation of small-scale
//! problems … we can use the integer programming solvers of CPLEX or MOSEK
//! to calculate the exact value of the best integer solution Z*, and then
//! use Z* as the upper bound".
//!
//! This figure is that mode with the workspace's branch-and-price standing
//! in for CPLEX. On a grid of small instances under both driver models it
//! reports Z*, the LP bound Z_f* and the integrality gap Z_f*/Z* (how far
//! the paper's large-scale yardstick sits above the optimum), each
//! algorithm's exact performance ratio (vs Z*), and GA's worst observed
//! ratio against its 1/(D+1) guarantee. A point that is not solved to
//! proven optimality, or that has nothing to serve, is skipped and
//! counted; a `Z_f*` from a run that hit its round cap is marked `+`.
//!
//! Usage: `rideshare small_scale [--seeds N]`

use std::io::{self, Write};

use rideshare_core::{lp_upper_bound, solve_exact, MarketSummary, Objective, UpperBoundOptions};
use rideshare_metrics::render_table;
use rideshare_trace::DriverModel;

use super::ALGORITHMS;
use crate::build_market;

/// The grid's sizes, tasks × drivers. Home-work-home takes all but the
/// last: at 200 × 20 (seed 1000) its root master needs 73 pricing rounds
/// and the tree 19 nodes, over a second in release and tens of seconds in
/// the debug build that runs this module's test.
const TASKS: [usize; 8] = [10, 14, 18, 30, 50, 80, 120, 200];
const DRIVERS: [usize; 8] = [4, 5, 6, 8, 10, 12, 16, 20];

/// Prints the §VI-B table over `seeds` seeds × both driver models × the
/// grid's sizes.
///
/// # Errors
///
/// Only what writing to `out` returns.
pub fn small_scale(out: &mut dyn Write, seeds: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Small-scale exact evaluation: Z* (branch-and-price) vs algorithms =="
    )?;
    let grid = [
        ("hitch", DriverModel::Hitchhiking, TASKS.len()),
        ("hwh", DriverModel::HomeWorkHome, TASKS.len() - 1),
    ];
    let mut rows = Vec::new();
    let mut skipped = 0;
    let mut worst_ga_ratio = f64::INFINITY;
    let mut worst_guarantee = 1.0f64;
    for seed in 0..seeds as u64 {
        for (label, model, sizes) in grid {
            for (&tasks, &drivers) in TASKS.iter().zip(&DRIVERS).take(sizes) {
                let market = build_market(1000 + seed, tasks, drivers, model);
                let summary = MarketSummary::of(&market);
                let exact = solve_exact(&market, Objective::Profit).ok();
                let Some(exact) = exact.filter(|e| e.proven_optimal && e.objective_value >= 1e-6)
                else {
                    skipped += 1;
                    continue;
                };
                let ub = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
                    .expect("column generation on a small market");
                let [ga, max_margin, nearest] = ALGORITHMS.map(|(_, policy)| {
                    let assignment = policy.assign(&market, None, 1);
                    let profit = assignment.objective_value(&market, Objective::Profit);
                    profit.as_f64() / exact.objective_value
                });
                worst_ga_ratio = worst_ga_ratio.min(ga);
                worst_guarantee = worst_guarantee.min(summary.greedy_guarantee);
                let capped = if ub.converged { "" } else { "+" };
                rows.push(vec![
                    format!("{seed}/{label}/{tasks}x{drivers}"),
                    format!("{:.3}", exact.objective_value),
                    format!("{:.3}{capped}", ub.bound),
                    format!("{:.4}{capped}", ub.bound / exact.objective_value),
                    format!("{ga:.3}"),
                    format!("{max_margin:.3}"),
                    format!("{nearest:.3}"),
                    summary.diameter.to_string(),
                ]);
            }
        }
    }
    let [ga, max_margin, nearest] = ALGORITHMS.map(|(legend, _)| legend);
    let headers = [
        "instance", "Z*", "Z_f*", "Z_f*/Z*", ga, max_margin, nearest, "D",
    ];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    writeln!(
        out,
        "skipped points (not proven optimal, or nothing to serve): {skipped}; a Z_f* marked + is the Lagrangian bound of a capped run"
    )?;
    writeln!(
        out,
        "worst observed GA ratio: {worst_ga_ratio:.3} (Theorem 1 floor at the largest D seen: {worst_guarantee:.3})"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_floor_is_the_guarantee_at_the_largest_d() {
        let mut buf = Vec::new();
        small_scale(&mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let max_d = text
            .lines()
            .filter(|line| line.trim_start().starts_with("0/"))
            .filter_map(|line| line.split_whitespace().last()?.parse::<usize>().ok())
            .max()
            .expect("at least one row");
        let floor = text
            .rsplit("largest D seen: ")
            .next()
            .and_then(|tail| tail.trim_end().strip_suffix(')'))
            .expect("the floor line");
        assert_eq!(
            floor,
            format!("{:.3}", 1.0 / (max_d as f64 + 1.0)),
            "{text}"
        );
    }
}
