//! Automated qualitative-reproduction checks: the *shapes* of the paper's
//! Figs. 5–9 at reduced scale, as assertions.
//!
//! These are the properties the paper's evaluation section reports; the
//! full-scale numbers live in EXPERIMENTS.md, but the trends must hold even
//! on a small sweep, and this suite keeps them from regressing.

use rideshare::metrics::Series;
use rideshare::prelude::*;

const SWEEP: [usize; 3] = [15, 60, 200];
const TASKS: usize = 250;

struct SweepPoint {
    greedy_profit: f64,
    max_margin_profit: f64,
    nearest_profit: f64,
    metrics: MarketMetrics,
}

fn run_point(drivers: usize, model: DriverModel) -> SweepPoint {
    let trace = TraceConfig::porto()
        .with_seed(1907)
        .with_task_count(TASKS)
        .with_driver_count(drivers, model)
        .generate();
    let market = Market::from_trace(&trace, &MarketBuildOptions::default());
    let greedy = solve_greedy(&market, Objective::Profit);
    let mm = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
    let nearest = replay_market(
        &market,
        StreamPolicy::Instant(InstantRule::Nearest { seed: 0 }),
    );
    SweepPoint {
        greedy_profit: greedy
            .assignment
            .objective_value(&market, Objective::Profit)
            .as_f64(),
        max_margin_profit: mm.total_profit(&market).as_f64(),
        nearest_profit: nearest.total_profit(&market).as_f64(),
        metrics: MarketMetrics::of(&market, &mm.assignment),
    }
}

#[test]
fn fig5_shape_greedy_dominates_online() {
    // The paper: "our offline deterministic algorithm has the best
    // performance" — at every sweep point, for both models.
    for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
        for drivers in SWEEP {
            let p = run_point(drivers, model);
            assert!(
                p.greedy_profit >= p.max_margin_profit - 1e-6,
                "{model}/{drivers}: greedy {} < maxMargin {}",
                p.greedy_profit,
                p.max_margin_profit
            );
            assert!(
                p.greedy_profit >= p.nearest_profit - 1e-6,
                "{model}/{drivers}: greedy {} < nearest {}",
                p.greedy_profit,
                p.nearest_profit
            );
        }
    }
}

#[test]
fn fig6_7_shape_density_grows_service_and_revenue() {
    // Figs. 6–7: more drivers → more revenue, higher served rate
    // (checked on the maxMargin runs, as the paper's market-insight
    // figures are simulation-based).
    let mut revenue = Series::new("revenue");
    let mut served = Series::new("served");
    for drivers in SWEEP {
        let p = run_point(drivers, DriverModel::Hitchhiking);
        revenue.push(drivers as f64, p.metrics.total_revenue);
        served.push(drivers as f64, p.metrics.served_rate);
    }
    assert!(
        revenue.is_non_decreasing(),
        "Fig. 6 shape broken: {:?}",
        revenue.points
    );
    assert!(
        served.is_non_decreasing(),
        "Fig. 7 shape broken: {:?}",
        served.points
    );
}

#[test]
fn fig8_9_shape_congestion_shrinks_per_worker_earnings() {
    // Figs. 8–9: more drivers → lower average revenue and fewer tasks per
    // worker. In an *extremely* sparse market adding drivers can first
    // raise per-worker throughput (coverage effect), so the congestion
    // trend is asserted on the dense half of the sweep — the regime the
    // paper's 20–300 drivers / 1000 tasks evaluation sits in.
    let mid = run_point(SWEEP[1], DriverModel::Hitchhiking);
    let hi = run_point(SWEEP[2], DriverModel::Hitchhiking);
    assert!(
        hi.metrics.avg_revenue_per_worker < mid.metrics.avg_revenue_per_worker,
        "Fig. 8 shape broken: {} → {}",
        mid.metrics.avg_revenue_per_worker,
        hi.metrics.avg_revenue_per_worker
    );
    assert!(
        hi.metrics.avg_tasks_per_worker < mid.metrics.avg_tasks_per_worker,
        "Fig. 9 shape broken: {} → {}",
        mid.metrics.avg_tasks_per_worker,
        hi.metrics.avg_tasks_per_worker
    );
}

#[test]
fn greedy_profit_grows_with_supply() {
    // More drivers can only expand the offline solution space on the same
    // task set; greedy is not strictly monotone but the trend must hold
    // across the sweep's endpoints.
    let lo = run_point(SWEEP[0], DriverModel::Hitchhiking);
    let hi = run_point(SWEEP[2], DriverModel::Hitchhiking);
    assert!(
        hi.greedy_profit > lo.greedy_profit,
        "supply {} → {} did not grow greedy profit ({} → {})",
        SWEEP[0],
        SWEEP[2],
        lo.greedy_profit,
        hi.greedy_profit
    );
}

#[test]
fn fig2_prints_the_pinned_bytes() {
    // A figure's stdout, in process: `rideshare fig2 --depth 3` hands the
    // same function the CLI's writer. The pin is what the retired
    // `fig2_tightness 3` binary printed.
    let mut printed = Vec::new();
    rideshare::bench::figures::fig2(&mut printed, 3).expect("writing to a Vec");
    assert_eq!(
        String::from_utf8(printed).expect("UTF-8 tables"),
        include_str!("snapshots/fig2_d3.txt")
    );
}
