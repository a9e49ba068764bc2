//! Small-scale exact evaluation (§VI-B): "for the evaluation of small-scale
//! problems … we can use the integer programming solvers of CPLEX or MOSEK
//! to calculate the exact value of the best integer solution Z*, and then
//! use Z* as the upper bound".
//!
//! This figure is that mode with the workspace's branch-and-bound standing
//! in for CPLEX: on a grid of small instances it reports Z*, Z_f*, and each
//! algorithm's exact performance ratio (vs Z*), plus GA's worst observed
//! ratio against its 1/(D+1) guarantee.
//!
//! Usage: `rideshare small_scale [--seeds N]`

use std::io::{self, Write};

use rideshare_core::{lp_upper_bound, solve_exact, MarketSummary, Objective, UpperBoundOptions};
use rideshare_metrics::render_table;
use rideshare_trace::DriverModel;

use super::ALGORITHMS;
use crate::build_market;

/// Prints the §VI-B table over `seeds` seeds × three instance sizes.
///
/// # Errors
///
/// Only what writing to `out` returns.
pub fn small_scale(out: &mut dyn Write, seeds: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Small-scale exact evaluation: Z* (branch & bound) vs algorithms =="
    )?;
    let mut rows = Vec::new();
    let mut worst_ga_ratio = f64::INFINITY;
    let mut worst_guarantee = 1.0f64;
    for seed in 0..seeds as u64 {
        for (tasks, drivers) in [(10usize, 4usize), (14, 5), (18, 6)] {
            let market = build_market(1000 + seed, tasks, drivers, DriverModel::Hitchhiking);
            let summary = MarketSummary::of(&market);
            let exact = match solve_exact(&market, Objective::Profit) {
                Ok(e) if e.proven_optimal => e,
                _ => continue, // node budget blown — skip the point
            };
            if exact.objective_value < 1e-6 {
                continue; // degenerate instance with nothing to serve
            }
            let ub = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
                .expect("column generation on a small market");
            let [ga, max_margin, nearest] = ALGORITHMS.map(|(_, policy)| {
                let assignment = policy.assign(&market, None, 1);
                let profit = assignment.objective_value(&market, Objective::Profit);
                profit.as_f64() / exact.objective_value
            });
            worst_ga_ratio = worst_ga_ratio.min(ga);
            worst_guarantee = worst_guarantee.min(summary.greedy_guarantee);
            rows.push(vec![
                format!("{seed}/{tasks}x{drivers}"),
                format!("{:.3}", exact.objective_value),
                format!("{:.3}", ub.bound),
                format!("{ga:.3}"),
                format!("{max_margin:.3}"),
                format!("{nearest:.3}"),
                summary.diameter.to_string(),
            ]);
        }
    }
    let [ga, max_margin, nearest] = ALGORITHMS.map(|(legend, _)| legend);
    writeln!(
        out,
        "{}",
        render_table(
            &["seed/size", "Z*", "Z_f*", ga, max_margin, nearest, "D"],
            &rows
        )
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
