//! Dispatch strategies side by side: instant heuristics (Algs. 3–4), the
//! batched extension, and the offline greedy — plus an hour-of-day view of
//! where the market is tight.
//!
//! Run with: `cargo run --release --example dispatch_strategies`

use rideshare::prelude::*;

fn main() {
    let trace = TraceConfig::porto()
        .with_seed(23)
        .with_task_count(400)
        .with_driver_count(50, DriverModel::Hitchhiking)
        .generate();
    let market = Market::from_trace(&trace, &MarketBuildOptions::default());
    let instant = |rule: InstantRule| replay_market(&market, StreamPolicy::Instant(rule));
    let batched = |mins: i64, matcher: MatcherKind| {
        let window = TimeDelta::from_mins(mins);
        replay_market(&market, StreamPolicy::Batched { window, matcher })
    };

    let mut rows = Vec::new();

    // Instant policies, then batched ones.
    for (label, result) in [
        (
            "Nearest (Alg. 3)",
            instant(InstantRule::Nearest { seed: 0 }),
        ),
        ("maxMargin (Alg. 4)", instant(InstantRule::MaxMargin)),
        ("batched 2 min", batched(2, MatcherKind::Greedy)),
        ("batched 10 min", batched(10, MatcherKind::Greedy)),
        ("batched 2 min, optimal", batched(2, MatcherKind::Optimal)),
    ] {
        // Feasibility *and* dispatch causality: departures never precede
        // the decisions that dispatched them.
        validate_online_result(&market, &result).expect("feasible and causal");
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", result.total_profit(&market).as_f64()),
            format!("{:.1}%", result.service_rate() * 100.0),
        ]);
    }

    // Offline reference.
    let offline = solve_greedy(&market, Objective::Profit);
    rows.push(vec![
        "Greedy offline (Alg. 1)".into(),
        format!(
            "{:.2}",
            offline
                .assignment
                .objective_value(&market, Objective::Profit)
                .as_f64()
        ),
        format!(
            "{:.1}%",
            offline.assignment.served_count() as f64 / market.num_tasks() as f64 * 100.0
        ),
    ]);

    println!(
        "{}",
        render_table(&["strategy", "driver profit", "served"], &rows)
    );

    // Where is the market tight? The maxMargin run once more, with the
    // hour-of-day accumulator as the engine's sink.
    let mut hourly = StreamMetrics::hourly();
    replay_stream(
        market.speed(),
        market_events(&market),
        StreamPolicy::Instant(InstantRule::MaxMargin),
        StreamOptions::default(),
        &mut hourly,
    );
    let hours = || hourly.buckets().iter().enumerate();
    if let Some((peak, _)) = hours().max_by_key(|(_, b)| b.published) {
        println!("peak demand hour: {peak:02}:00");
    }
    let with_demand = hours().filter(|(_, b)| b.published > 0);
    if let Some((tight, b)) =
        with_demand.min_by(|(_, a), (_, b)| a.service_rate().total_cmp(&b.service_rate()))
    {
        println!(
            "tightest hour:    {tight:02}:00 — {}/{} served ({:.0}%)",
            b.served,
            b.published,
            b.service_rate() * 100.0
        );
    }
    println!(
        "\nBatching trades a bounded dispatch delay for better matches. In a\n\
         dense market the batch matcher approaches the offline greedy; in a\n\
         sparse one (short candidate lists) the delay can cost more than the\n\
         smarter matching earns — the trade-off behind the paper's §VII call\n\
         for non-heuristic online algorithms."
    );
}
