//! The Google Waze Rider market (§IV-C): commuters limited to two rides a
//! day — one to work, one from work — so each driver's task-map diameter is
//! `D = 1` per source-destination pair and GA guarantees a ½-approximation.
//!
//! This example builds a commuter market (hitchhiking drivers, short
//! morning-peak orders, a chain-wait cap so nobody strings rides together),
//! verifies the diameter claim, and compares GA to the exact optimum on a
//! small instance to exhibit the ½ bound in action.
//!
//! Run with: `cargo run --release --example waze_rider`

use rideshare::prelude::*;
use rideshare::trace::TruncatedPareto;

fn main() {
    // Morning-commute demand only: all orders in the 7–9am peak.
    let mut demand = [0.0f64; 24];
    demand[7] = 1.0;
    demand[8] = 1.0;
    let trace = TraceConfig::porto()
        .with_seed(99)
        .with_task_count(60)
        .with_driver_count(25, DriverModel::Hitchhiking)
        .with_hourly_demand(demand)
        // Commute-length rides: 3–15 km.
        .with_distance_distribution(TruncatedPareto::new(3.0, 15.0, 2.0))
        .generate();

    // Waze Rider policy: a driver cannot chain one ride into another —
    // enforce it with a zero-wait cap, which deletes every chain arc whose
    // idle gap exceeds zero (commute rides overlap in the peak anyway).
    let market = Market::from_trace(
        &trace,
        &MarketBuildOptions {
            max_chain_wait: Some(TimeDelta::from_secs(0)),
            ..Default::default()
        },
    );
    let d = market.chain_diameter();
    println!(
        "task-map diameter D = {d} → GA guarantees a {:.2}-approximation",
        1.0 / (d as f64 + 1.0)
    );

    let ga = solve_greedy(&market, Objective::Profit);
    ga.assignment.validate(&market).expect("feasible");
    let ga_profit = ga.assignment.objective_value(&market, Objective::Profit);

    let bound = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
        .expect("column generation converges");
    println!(
        "GA profit {:.2} vs Z_f* {:.2} → empirical ratio {:.3} (guarantee {:.3})",
        ga_profit.as_f64(),
        bound.bound,
        performance_ratio(ga_profit, bound.bound),
        1.0 / (d as f64 + 1.0),
    );

    // Exact comparison on a small slice of the same morning.
    let small_trace = TraceConfig::porto()
        .with_seed(99)
        .with_task_count(12)
        .with_driver_count(5, DriverModel::Hitchhiking)
        .with_hourly_demand(demand)
        .generate();
    let small = Market::from_trace(
        &small_trace,
        &MarketBuildOptions {
            max_chain_wait: Some(TimeDelta::from_secs(0)),
            ..Default::default()
        },
    );
    let exact = solve_exact(&small, Objective::Profit).expect("small instance is exactly solvable");
    let small_ga = solve_greedy(&small, Objective::Profit)
        .assignment
        .objective_value(&small, Objective::Profit);
    println!(
        "small instance: GA {:.2} vs Z* {:.2} (ratio {:.3}, never below 1/(D+1))",
        small_ga.as_f64(),
        exact.objective_value,
        small_ga.as_f64() / exact.objective_value.max(1e-9),
    );
}
