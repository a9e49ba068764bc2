//! Surge pricing in action (§III-A, Eq. 15): how the Surge Multiplier
//! responds to local supply/demand imbalance and what it does to market
//! outcomes.
//!
//! Run with: `cargo run --release --example surge_pricing`

use rideshare::geo::{porto, GridIndex};
use rideshare::prelude::*;

fn main() {
    // A scarce evening: lots of demand, few drivers.
    let trace = TraceConfig::porto()
        .with_seed(18)
        .with_task_count(400)
        .with_driver_count(12, DriverModel::Hitchhiking)
        .generate();

    // Inspect the surge engine directly: count demand/supply per cell.
    let mut engine = SurgeEngine::new(SurgeConfig::uber_like());
    let grid = GridIndex::new(porto::bounding_box(), 12, 12);
    for t in &trace.trips {
        engine.add_demand(grid.cell_of(t.origin));
    }
    for d in &trace.drivers {
        engine.add_supply(grid.cell_of(d.source));
    }
    let downtown = grid.cell_of(porto::center());
    let airport = grid.cell_of(porto::airport());
    println!(
        "downtown cell: demand {} / supply {} → surge ×{:.2}",
        engine.demand(downtown),
        engine.supply(downtown),
        engine.multiplier(downtown)
    );
    println!(
        "airport  cell: demand {} / supply {} → surge ×{:.2}",
        engine.demand(airport),
        engine.supply(airport),
        engine.multiplier(airport)
    );

    // Market outcomes with and without surge.
    let mut rows = Vec::new();
    for (label, surge) in [
        ("surge on", SurgeConfig::uber_like()),
        ("surge off", SurgeConfig::disabled()),
    ] {
        let market = Market::from_trace(
            &trace,
            &MarketBuildOptions {
                surge,
                ..Default::default()
            },
        );
        let max_price = market
            .tasks()
            .iter()
            .map(|t| t.price.as_f64())
            .fold(f64::MIN, f64::max);
        let r = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", max_price),
            format!("{:.0}", r.assignment.total_revenue(&market).as_f64()),
            format!("{:.0}", r.total_profit(&market).as_f64()),
            format!("{:.0}%", r.service_rate() * 100.0),
        ]);
    }
    println!(
        "\n{}",
        render_table(
            &["pricing", "max fare", "revenue", "driver profit", "served"],
            &rows
        )
    );
    println!(
        "Surge raises fares exactly where supply is short, lifting driver\n\
         profit on the rides that do get served — the congestion-control\n\
         lever §VI-C credits Uber's mechanism with."
    );
}
