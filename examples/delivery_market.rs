//! The product-delivery market (§I's second motivating domain: Google
//! Express / Amazon Prime Now) run through the same framework.
//!
//! Deliveries have long lead times and generous promised windows. That
//! changes *which* algorithm wins, in an instructive way: the offline
//! formulation chains tasks using the **promised** completion deadlines
//! `t̄⁺ₘ` (it must guarantee every promise), while the online simulator
//! applies the paper's early-finish rule — "when the task m finishes before
//! t̄⁺ₘ, we use the real finish time" (§III-B). With slack windows the real
//! finish is far earlier than the promise, so online dispatch legally
//! builds chains the deadline-based offline task map does not even contain.
//!
//! Run with: `cargo run --release --example delivery_market`

use rideshare::prelude::*;

fn main() {
    let couriers = 25;
    let orders = 300;

    let rides = TraceConfig::porto()
        .with_seed(5)
        .with_task_count(orders)
        .with_driver_count(couriers, DriverModel::HomeWorkHome)
        .generate();
    let deliveries = TraceConfig::porto_delivery()
        .with_seed(5)
        .with_task_count(orders)
        .with_driver_count(couriers, DriverModel::HomeWorkHome)
        .generate();

    let mut rows = Vec::new();
    for (label, trace) in [("ride-hailing", &rides), ("delivery", &deliveries)] {
        let market = Market::from_trace(trace, &MarketBuildOptions::default());
        let offline = solve_greedy(&market, Objective::Profit);
        offline.assignment.validate(&market).expect("feasible");
        let online = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
        validate_online(&market, &online.assignment).expect("feasible online");
        let batched = replay_market(
            &market,
            StreamPolicy::Batched {
                window: TimeDelta::from_mins(20),
                matcher: MatcherKind::Greedy,
            },
        );

        let off = offline
            .assignment
            .objective_value(&market, Objective::Profit)
            .as_f64();
        let on = online.total_profit(&market).as_f64();
        let bat = batched.total_profit(&market).as_f64();
        let longest = offline
            .assignment
            .routes()
            .iter()
            .map(|r| r.tasks.len())
            .max()
            .unwrap_or(0);
        rows.push(vec![
            label.to_string(),
            market.chain_diameter().to_string(),
            longest.to_string(),
            format!("{off:.0}"),
            format!("{bat:.0}"),
            format!("{on:.0}"),
        ]);
    }

    println!(
        "{}",
        render_table(
            &[
                "market",
                "offline diameter D",
                "longest offline route",
                "offline profit",
                "batched 20m",
                "instant",
            ],
            &rows
        )
    );
    println!(
        "\nIn ride-hailing the tight windows make promised and real finish\n\
         times nearly equal, so the offline greedy's full-day knowledge wins\n\
         by a wide margin. In delivery the promise is ~4× the drive time:\n\
         the offline planner, which must honour every promised deadline when\n\
         chaining (Eq. 3 uses t̄⁺ₘ), becomes deeply conservative, while\n\
         online dispatch chains from *real* finish times and serves far\n\
         more. Closing that gap — offline planning over stochastic finish\n\
         times — is precisely the future work the paper's §VII points at."
    );
}
