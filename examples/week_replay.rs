//! Replaying a full week of the market, day by day — the per-day planning
//! loop the paper's model implies ("each driver reveals her travel plan …
//! everyday"), over the weekday/weekend demand cycle.
//!
//! Run with: `cargo run --release --example week_replay`

use rideshare::prelude::*;
use rideshare::trace::generate_days;

const DAY_NAMES: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];

fn main() {
    let week = generate_days(
        &TraceConfig::porto()
            .with_seed(77)
            .with_task_count(250)
            .with_driver_count(35, DriverModel::HomeWorkHome),
        7,
    );

    let mut rows = Vec::new();
    let mut weekly_revenue = 0.0;
    let mut weekly_served = 0usize;
    let mut weekly_orders = 0usize;
    for (d, day) in week.days.iter().enumerate() {
        let market = Market::from_trace(day, &MarketBuildOptions::default());
        let result = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
        validate_online(&market, &result.assignment).expect("feasible day");
        let m = MarketMetrics::of(&market, &result.assignment);
        weekly_revenue += m.total_revenue;
        weekly_served += m.served;
        weekly_orders += m.tasks;
        rows.push(vec![
            DAY_NAMES[d].to_string(),
            m.tasks.to_string(),
            format!("{:.0}%", m.served_rate * 100.0),
            format!("{:.0}", m.total_revenue),
            format!("{:.1}", m.avg_revenue_per_worker),
        ]);
    }
    println!(
        "{}",
        render_table(&["day", "orders", "served", "revenue", "rev/driver"], &rows)
    );
    println!(
        "week total: {weekly_orders} orders, {weekly_served} served, {weekly_revenue:.0} revenue"
    );
    println!(
        "\nSaturday carries ~25% more demand than a weekday and Sunday ~20%\n\
         less; with a fixed fleet, quiet Sunday is the best-served day of\n\
         the week while the Friday/Saturday peaks leave more riders behind\n\
         — the recurring imbalance surge pricing exists to price."
    );
}
