//! Quickstart: the paper's full workflow on one synthetic day — generate
//! a Porto market (§VI-A), solve it offline with GA (Alg. 1), replay it
//! online with maxMargin and Nearest (Algs. 3–4), and score everything
//! against the LP upper bound `Z_f*` (§III-E) — the miniature form of the
//! Fig. 5 performance-ratio comparison.
//!
//! Run with: `cargo run --release --example quickstart`

use rideshare::prelude::*;

fn main() {
    // 1. Synthesise one day of the Porto market: 300 customer orders and
    //    40 hitchhiking drivers (commuters willing to take detours).
    let trace = TraceConfig::porto()
        .with_seed(7)
        .with_task_count(300)
        .with_driver_count(40, DriverModel::Hitchhiking)
        .generate();
    println!(
        "trace: {} trips, {} drivers, {:.0} km of demand",
        trace.trips.len(),
        trace.drivers.len(),
        trace.total_trip_km()
    );

    // 2. Build the market: surge prices (Eq. 15), valuations, task map.
    let market = Market::from_trace(&trace, &MarketBuildOptions::default());
    println!(
        "market: {} chain arcs some driver can use, diameter D = {}",
        market.chain_arc_count(),
        market.chain_diameter()
    );

    // 3. Offline: the greedy GA (Alg. 1) with its 1/(D+1) guarantee.
    let offline = solve_greedy(&market, Objective::Profit);
    offline
        .assignment
        .validate(&market)
        .expect("GA is feasible");
    let offline_profit = offline
        .assignment
        .objective_value(&market, Objective::Profit);

    // 4. Online: replay the order stream through both heuristics.
    let mm = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
    let nearest = replay_market(
        &market,
        StreamPolicy::Instant(InstantRule::Nearest { seed: 0 }),
    );
    validate_online(&market, &mm.assignment).expect("online dispatch is feasible");

    // 5. The paper's yardstick: the LP-relaxation upper bound Z_f*.
    let bound = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
        .expect("column generation converges");

    println!(
        "\n{:<12} {:>10} {:>8} {:>8}",
        "algorithm", "profit", "ratio", "served"
    );
    for (name, profit, served) in [
        ("Greedy", offline_profit, offline.assignment.served_count()),
        ("maxMargin", mm.total_profit(&market), mm.served),
        ("Nearest", nearest.total_profit(&market), nearest.served),
    ] {
        println!(
            "{:<12} {:>10.2} {:>8.3} {:>8}",
            name,
            profit.as_f64(),
            performance_ratio(profit, bound.bound),
            served
        );
    }
    println!(
        "\nZ_f* = {:.2} ({} column-generation rounds, {} columns)",
        bound.bound, bound.rounds, bound.columns
    );
}
