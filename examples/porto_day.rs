//! A full trace-driven day of the Porto taxi market (the paper's §VI
//! setting): full-time "home-work-home" taxis, surge pricing, and the
//! market-density analysis of Figs. 6–9 at three supply levels.
//!
//! Run with: `cargo run --release --example porto_day`

use rideshare::prelude::*;
use rideshare::trace::stats::{fit_power_law, summarize};

fn main() {
    // The real trace has 442 taxis; sweep a sparse, a medium, and a dense
    // market over the same 500-order day.
    for drivers in [30usize, 100, 250] {
        let trace = TraceConfig::porto()
            .with_seed(2013) // the trace year
            .with_task_count(500)
            .with_driver_count(drivers, DriverModel::HomeWorkHome)
            .generate();

        if drivers == 30 {
            // Fig. 3–4 style sanity check on the demand marginals.
            let mins: Vec<f64> = trace
                .trips
                .iter()
                .map(|t| t.duration.as_mins_f64())
                .collect();
            let kms: Vec<f64> = trace.trips.iter().map(|t| t.distance_km).collect();
            let t = summarize(&mins).expect("non-empty");
            let d = summarize(&kms).expect("non-empty");
            println!("demand: median trip {:.1} min / {:.1} km", t.p50, d.p50);
            if let Some(alpha) = fit_power_law(&kms, 1.0) {
                println!("distance tail exponent α̂ = {alpha:.2} (power law, cf. Fig. 4)\n");
            }
        }

        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let online = replay_market(&market, &mut StreamPolicy::Instant(&mut MaxMargin::new()));
        let offline = solve_greedy(&market, Objective::Profit);

        let m_on = MarketMetrics::of(&market, &online.assignment);
        let m_off = MarketMetrics::of(&market, &offline.assignment);
        println!("=== {drivers} taxis ===");
        println!(
            "{}",
            render_table(
                &[
                    "mode",
                    "revenue",
                    "profit",
                    "served",
                    "rev/worker",
                    "tasks/worker"
                ],
                &[
                    vec![
                        "online (maxMargin)".into(),
                        format!("{:.0}", m_on.total_revenue),
                        format!("{:.0}", m_on.total_profit),
                        format!("{:.0}%", m_on.served_rate * 100.0),
                        format!("{:.1}", m_on.avg_revenue_per_worker),
                        format!("{:.2}", m_on.avg_tasks_per_worker),
                    ],
                    vec![
                        "offline (Greedy)".into(),
                        format!("{:.0}", m_off.total_revenue),
                        format!("{:.0}", m_off.total_profit),
                        format!("{:.0}%", m_off.served_rate * 100.0),
                        format!("{:.1}", m_off.avg_revenue_per_worker),
                        format!("{:.2}", m_off.avg_tasks_per_worker),
                    ],
                ],
            )
        );
    }
    println!(
        "As §VI-C observes: denser markets serve more orders and earn more in\n\
         total, but each individual driver earns less — the congestion that\n\
         surge pricing and ride caps are designed to manage."
    );
}
