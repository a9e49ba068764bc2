//! Streaming replay: the paper's Porto evaluation (§VI) at serving
//! scale — replay a large synthetic order stream through maxMargin
//! (Alg. 4) in **bounded memory**, with Figs. 6–9-style tables
//! accumulated off the stream instead of from a materialized result.
//!
//! Demonstrates the whole lazy pipeline: `TraceConfig::stream` (trips
//! generated in publish order, never sorted in bulk) → `priced_events`
//! (Eq. 15 fares with rolling-window surge, priced order by order) →
//! `replay_stream` (the same engine `replay_market` runs, resident
//! state `O(held orders + drivers)`) → `StreamMetrics` (windowed
//! served/revenue/profit and per-driver income). The same run with ten
//! times the orders uses essentially the same memory — that is the
//! point.
//!
//! Run with: `cargo run --release --example streaming_replay`

use rideshare::prelude::*;

fn main() {
    // 1. Configure a big day: 50 000 orders, a 442-taxi fleet (the real
    //    Porto trace's size). Nothing is generated yet.
    let config = TraceConfig::porto()
        .with_seed(17)
        .with_task_count(50_000)
        .with_driver_count(442, DriverModel::HomeWorkHome);

    // 2. The lazy trace: drivers are known up front (a streaming
    //    dispatcher must know shifts before the orders they can serve),
    //    trips will arrive in publish order.
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();
    println!(
        "streaming {} orders to a {}-driver fleet (trace never materialised)",
        stream.task_count(),
        stream.drivers().len()
    );

    // 3. Incremental pricing: Eq. 15 fares under a 30-minute rolling
    //    surge window — the streamable surge mechanism (a whole-day
    //    static snapshot is unknowable online by construction).
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };

    // 4. Replay through maxMargin with grid-pruned candidates, windowed
    //    metrics as the sink. `priced_events` is the feed `rideshare
    //    replay` dispatches: every shift announced, then each trip priced
    //    as the engine pulls it.
    let stream_policy = StreamPolicy::Instant(InstantRule::MaxMargin);
    let mut metrics = StreamMetrics::hourly();
    let summary = replay_stream(
        speed,
        priced_events(stream, &build),
        stream_policy,
        StreamOptions::default().grid(bbox),
        &mut metrics,
    );

    // 5. The Figs. 6–9 quantities, straight off the stream.
    println!("\n{}", metrics.render());
    println!(
        "served {}/{} ({:.1}%), revenue {:.2}, profit {:.2}",
        summary.served,
        summary.tasks,
        metrics.service_rate() * 100.0,
        metrics.revenue(),
        metrics.profit(),
    );
    if let (Some(income), Some(tasks)) = (
        metrics.mean_income_per_active_driver(),
        metrics.mean_tasks_per_active_driver(),
    ) {
        println!(
            "{} active drivers, mean income {income:.2}, mean {tasks:.1} tasks/driver",
            metrics.active_drivers()
        );
    }

    // 6. The bounded-memory claim, in numbers.
    assert_eq!(summary.tasks, 50_000);
    assert!(
        summary.peak_resident() < 2_000,
        "resident state exploded: {}",
        summary.peak_resident()
    );
    println!(
        "peak resident state: {} held orders + {} drivers = {} entities — O(active + drivers), \
         not O(trace)",
        summary.peak_held_tasks,
        summary.drivers,
        summary.peak_resident()
    );
}
