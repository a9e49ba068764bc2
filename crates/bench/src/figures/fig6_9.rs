//! Figures 6–9 — market-density insights (§VI-C).
//!
//! Using the general "hitchhiking" model (drivers with random sources and
//! destinations), sweep the number of drivers and report, per algorithm
//! (Greedy = red line, maxMargin = blue, Nearest = orange in the paper):
//!
//! - Fig. 6: total revenue in the market (increases with drivers),
//! - Fig. 7: rate of served tasks (increases),
//! - Fig. 8: average revenue per worker (decreases — congestion),
//! - Fig. 9: average tasks per worker (decreases).
//!
//! Usage: `rideshare fig6_9 [--tasks N] [--quick]`

use std::io::{self, Write};

use rideshare_metrics::{render_series, MarketMetrics, Series};
use rideshare_trace::DriverModel;

use super::{sweep_shape, ALGORITHMS};
use crate::build_market;

/// Prints Figs. 6–9: `tasks` orders per point (the paper's 1000 by
/// default, 200 under `quick`). Progress goes to stderr.
///
/// # Errors
///
/// Only what writing to `out` returns.
pub fn fig6_9(out: &mut dyn Write, tasks: Option<usize>, quick: bool) -> io::Result<()> {
    let (tasks, sweep) = sweep_shape(tasks, quick);

    let curves = || ALGORITHMS.map(|(legend, _)| Series::new(legend));
    let mut revenue = curves();
    let mut served = curves();
    let mut rev_per_worker = curves();
    let mut tasks_per_worker = curves();

    for &drivers in sweep {
        let market = build_market(1907, tasks, drivers, DriverModel::Hitchhiking);
        for (k, (_, policy)) in ALGORITHMS.iter().enumerate() {
            let metrics = MarketMetrics::of(&market, &policy.assign(&market, None, 1));
            let x = drivers as f64;
            revenue[k].push(x, metrics.total_revenue);
            served[k].push(x, metrics.served_rate);
            rev_per_worker[k].push(x, metrics.avg_revenue_per_worker);
            tasks_per_worker[k].push(x, metrics.avg_tasks_per_worker);
        }
        eprintln!("  drivers={drivers} done");
    }

    writeln!(
        out,
        "== Fig. 6 — total revenue in the market ({tasks} tasks) =="
    )?;
    writeln!(out, "{}", render_series("drivers", &revenue))?;
    writeln!(out, "== Fig. 7 — rate of served tasks ==")?;
    writeln!(out, "{}", render_series("drivers", &served))?;
    writeln!(out, "== Fig. 8 — average revenue per worker ==")?;
    writeln!(out, "{}", render_series("drivers", &rev_per_worker))?;
    writeln!(out, "== Fig. 9 — average tasks per worker ==")?;
    writeln!(out, "{}", render_series("drivers", &tasks_per_worker))?;
    writeln!(
        out,
        "expected shape: Figs. 6–7 increase with drivers; Figs. 8–9 decrease \
         (market congestion, §VI-C)."
    )
}
