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
//! Usage: `cargo run --release -p rideshare-bench --bin
//!         fig6_9_market_insights -- [tasks] [--quick]`

use rideshare_bench::args::BinUsage;
use rideshare_bench::{build_market, outln, PolicySpec, DRIVER_SWEEP, PAPER_TASK_COUNT};
use rideshare_metrics::{render_series, MarketMetrics, Series};
use rideshare_trace::DriverModel;

const USAGE: BinUsage = BinUsage {
    bin: "fig6_9_market_insights",
    counts: &["tasks"],
    switches: &["--quick"],
    keys: &[],
};

/// The paper's three algorithms, in legend order.
const ALGORITHMS: [(&str, PolicySpec); 3] = [
    ("Greedy", PolicySpec::Greedy),
    ("maxMargin", PolicySpec::MaxMargin),
    ("Nearest", PolicySpec::Nearest),
];

fn main() {
    let args = USAGE.from_env();
    let quick = args.switch("--quick");
    let tasks = args
        .count(0)
        .unwrap_or(if quick { 200 } else { PAPER_TASK_COUNT });
    let sweep: &[usize] = if quick { &[20, 60, 150] } else { &DRIVER_SWEEP };

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

    outln!("== Fig. 6 — total revenue in the market ({tasks} tasks) ==");
    outln!("{}", render_series("drivers", &revenue));
    outln!("== Fig. 7 — rate of served tasks ==");
    outln!("{}", render_series("drivers", &served));
    outln!("== Fig. 8 — average revenue per worker ==");
    outln!("{}", render_series("drivers", &rev_per_worker));
    outln!("== Fig. 9 — average tasks per worker ==");
    outln!("{}", render_series("drivers", &tasks_per_worker));
    outln!(
        "expected shape: Figs. 6–7 increase with drivers; Figs. 8–9 decrease \
         (market congestion, §VI-C)."
    );
}
