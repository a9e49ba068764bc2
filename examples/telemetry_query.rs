//! Telemetry record + query: replay a small Porto day with the embedded
//! time-series store interposed, then query the store back and check it
//! against the in-memory accumulator **exactly**.
//!
//! Demonstrates the whole telemetry loop: [`TsdbRecorder`] wraps any
//! `StreamSink` (here `StreamMetrics`) and persists each closed window's
//! deltas — served / rejected / revenue / profit / wait / deadhead on
//! the exact i128 fixed-point grid — into lossless delta-of-delta
//! chunks under `{scenario, policy, region, shard, metric}` labels.
//! Because the stored integers are the *same* integers the accumulator
//! holds, a range query over the whole run reproduces the final metrics
//! with `==`, not "approximately": the store is telemetry you can trust
//! against the report it accompanies.
//!
//! The same store is what `rideshare replay --tsdb-dir DIR` writes and
//! `rideshare query --tsdb DIR` reads.
//!
//! Run with: `cargo run --release --example telemetry_query`

use rideshare::prelude::*;
use rideshare::tsdb::recorder::{METRIC_PROFIT, METRIC_SERVED, METRIC_WAIT_SECS};
use rideshare::tsdb::{to_canonical_json, Agg};

fn main() {
    // 1. A small day: 2 000 orders, 60 drivers, streamed lazily.
    let config = TraceConfig::porto()
        .with_seed(23)
        .with_task_count(2_000)
        .with_driver_count(60, DriverModel::Hitchhiking);
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };

    // 2. Open a store and interpose the recorder between the engine and
    //    the metrics accumulator. Every callback forwards unchanged; on
    //    each closed window the deltas persist.
    let dir = std::env::temp_dir().join(format!("telemetry-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TsdbStore::open(&dir).expect("open store");
    let labels = RunLabels::new("example", "margin", 1, 1);
    let mut sink = TsdbRecorder::new(store, labels, StreamMetrics::hourly());

    let stream_policy = StreamPolicy::Instant(InstantRule::MaxMargin);
    let summary = replay_stream(
        speed,
        priced_events(stream, &build),
        stream_policy,
        StreamOptions::default().grid(bbox),
        &mut sink,
    );
    let (store, metrics) = sink.finish().expect("flush store");
    let store = store.expect("store attached");
    println!(
        "recorded {} series to {} (served {}/{})",
        store.series().count(),
        store.dir().display(),
        summary.served,
        summary.tasks
    );

    // 3. Query the store back: hourly profit windows, then the total.
    let q = RangeQuery {
        filter: LabelFilter::parse("metric=profit").expect("filter"),
        from: i64::MIN,
        to: i64::MAX,
        step: 3600,
    };
    let result = run_query(&store, &q).expect("query");
    println!(
        "\nhourly profit windows:\n{}",
        rideshare::tsdb::query::render_table(&q, Agg::Sum, &result)
    );
    print!("canonical: {}", to_canonical_json(&q, Agg::Sum, &result));

    // 4. The contract, checked exactly: stored telemetry sums to the
    //    accumulator's raw integers — `==`, not a tolerance.
    let total_of = |metric: &str| {
        let q = RangeQuery {
            filter: LabelFilter::any().with("metric", metric).expect("filter"),
            from: i64::MIN,
            to: i64::MAX,
            step: 3600,
        };
        run_query(&store, &q)
            .expect("query")
            .total
            .map_or(0, |t| t.sum)
    };
    assert_eq!(
        total_of(METRIC_SERVED),
        i128::try_from(metrics.served()).expect("fits"),
        "stored served diverged from the accumulator"
    );
    assert_eq!(
        total_of(METRIC_PROFIT),
        metrics.profit_raw(),
        "stored profit diverged from the accumulator"
    );
    assert_eq!(
        total_of(METRIC_WAIT_SECS),
        i128::from(metrics.wait_secs_total()),
        "stored wait diverged from the accumulator"
    );
    println!(
        "\nquery ≡ accumulator: served {}, profit {:.2}, wait {}s — exact",
        metrics.served(),
        metrics.profit(),
        metrics.wait_secs_total()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
