//! Quality ablations: what each design choice between the paper's model
//! and this implementation buys, measured by switching it off.
//!
//! - **Dispatch criterion**: maxMargin (Eq. 14) vs Nearest arrival vs
//!   Random candidate — isolates how much the selection rule contributes
//!   beyond feasibility filtering.
//! - **Surge pricing on/off**: effect on total revenue and served rate
//!   (the §VI-C congestion-control discussion).
//! - **Chain-wait cap**: pruning long idle gaps from the task map — the
//!   offline greedy's quality/speed trade-off.
//! - **Geographic partitioning**: the lossy `k × k` cell split of §I's
//!   distribution claim against the global greedy.
//! - **Objective**: drivers' profit (Eq. 4) vs social welfare (Eq. 6).
//!
//! The `Z_f*` vs exact `Z*` gap is a column of the §VI-B table
//! (`small_scale`).
//!
//! Usage: `rideshare ablations [--quick]`

use std::io::{self, Write};

use rideshare_core::partition::{partition_market, solve_components};
use rideshare_core::{solve_greedy, Market, MarketBuildOptions, Objective, SurgeConfig};
use rideshare_metrics::render_table;
use rideshare_online::{
    replay_market, DispatchPolicy, MaxMargin, NearestDriver, RandomDispatch, StreamPolicy,
};
use rideshare_trace::{DriverModel, TraceConfig};
use rideshare_types::TimeDelta;

/// Prints the five ablation tables, at smoke size under `quick`.
///
/// # Errors
///
/// Only what writing to `out` returns.
pub fn ablations(out: &mut dyn Write, quick: bool) -> io::Result<()> {
    let tasks = if quick { 150 } else { 600 };
    let drivers = if quick { 25 } else { 80 };

    dispatch_criterion(out, tasks, drivers)?;
    surge_on_off(out, tasks, drivers)?;
    chain_wait_cap(out, tasks, drivers)?;
    partitioning_loss(out, tasks, drivers)?;
    objective_comparison(out, tasks, drivers)
}

fn trace(tasks: usize, drivers: usize) -> rideshare_trace::Trace {
    TraceConfig::porto()
        .with_seed(77)
        .with_task_count(tasks)
        .with_driver_count(drivers, DriverModel::Hitchhiking)
        .generate()
}

fn dispatch_criterion(out: &mut dyn Write, tasks: usize, drivers: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Ablation: dispatch criterion ({tasks} tasks, {drivers} drivers) =="
    )?;
    let market = Market::from_trace(&trace(tasks, drivers), &MarketBuildOptions::default());
    let mut rows = Vec::new();
    let mut policies: Vec<Box<dyn DispatchPolicy>> = vec![
        Box::new(MaxMargin::new()),
        Box::new(NearestDriver::with_seed(0)),
        Box::new(RandomDispatch::with_seed(0)),
    ];
    for policy in &mut policies {
        let r = replay_market(&market, &mut StreamPolicy::Instant(policy.as_mut()));
        rows.push(vec![
            policy.name().to_string(),
            format!("{:.2}", r.total_profit(&market).as_f64()),
            format!("{:.3}", r.service_rate()),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(&["policy", "profit", "served rate"], &rows)
    )
}

fn surge_on_off(out: &mut dyn Write, tasks: usize, drivers: usize) -> io::Result<()> {
    writeln!(out, "== Ablation: surge pricing on/off ==")?;
    let t = trace(tasks, drivers);
    let mut rows = Vec::new();
    for (label, surge) in [
        ("uber-like (√ratio, cap 3×)", SurgeConfig::uber_like()),
        ("disabled (α ≡ 1)", SurgeConfig::disabled()),
    ] {
        let market = Market::from_trace(
            &t,
            &MarketBuildOptions {
                surge,
                ..Default::default()
            },
        );
        let r = replay_market(&market, &mut StreamPolicy::Instant(&mut MaxMargin::new()));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", r.assignment.total_revenue(&market).as_f64()),
            format!("{:.2}", r.total_profit(&market).as_f64()),
            format!("{:.3}", r.service_rate()),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(&["surge", "revenue", "profit", "served rate"], &rows)
    )
}

fn chain_wait_cap(out: &mut dyn Write, tasks: usize, drivers: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Ablation: chain-wait cap on the offline task map =="
    )?;
    let t = trace(tasks, drivers);
    let mut rows = Vec::new();
    for (label, cap) in [
        ("uncapped (paper model)", None),
        ("≤ 60 min", Some(TimeDelta::from_mins(60))),
        ("≤ 15 min", Some(TimeDelta::from_mins(15))),
    ] {
        let market = Market::from_trace(
            &t,
            &MarketBuildOptions {
                max_chain_wait: cap,
                ..Default::default()
            },
        );
        let ga = solve_greedy(&market, Objective::Profit);
        rows.push(vec![
            label.to_string(),
            market.chain_arc_count().to_string(),
            format!(
                "{:.2}",
                ga.assignment
                    .objective_value(&market, Objective::Profit)
                    .as_f64()
            ),
            ga.evaluations.to_string(),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(&["cap", "chain arcs", "greedy profit", "DP evals"], &rows)
    )
}

fn partitioning_loss(out: &mut dyn Write, tasks: usize, drivers: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Ablation: geographic partitioning loss (§I's distribution claim) =="
    )?;
    let market = Market::from_trace(&trace(tasks, drivers), &MarketBuildOptions::default());
    let global = solve_greedy(&market, Objective::Profit)
        .assignment
        .objective_value(&market, Objective::Profit)
        .as_f64();
    let mut rows = vec![vec![
        "global (k=1)".to_string(),
        format!("{global:.2}"),
        "100.0%".to_string(),
    ]];
    for k in [2u16, 4, 8] {
        let cells = partition_market(&market, k);
        let merged = solve_components(&market, &cells, Objective::Profit, 1);
        merged
            .validate(&market)
            .expect("merged assignment feasible");
        let p = merged.objective_value(&market, Objective::Profit).as_f64();
        rows.push(vec![
            format!("{k}x{k} cells"),
            format!("{p:.2}"),
            format!("{:.1}%", p / global.max(1e-9) * 100.0),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(&["partition", "greedy profit", "vs global"], &rows)
    )
}

fn objective_comparison(out: &mut dyn Write, tasks: usize, drivers: usize) -> io::Result<()> {
    writeln!(
        out,
        "== Ablation: drivers'-profit (Eq. 4) vs social-welfare (Eq. 6) objective =="
    )?;
    let market = Market::from_trace(&trace(tasks, drivers), &MarketBuildOptions::default());
    let mut rows = Vec::new();
    for objective in [Objective::Profit, Objective::Welfare] {
        let a = solve_greedy(&market, objective).assignment;
        rows.push(vec![
            format!("{objective:?}-greedy"),
            format!(
                "{:.2}",
                a.objective_value(&market, Objective::Profit).as_f64()
            ),
            format!(
                "{:.2}",
                a.objective_value(&market, Objective::Welfare).as_f64()
            ),
            a.served_count().to_string(),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(
            &["optimised for", "profit value", "welfare value", "served"],
            &rows
        )
    )
}
