//! The tsdb record → query equivalence battery.
//!
//! A recorded store is not a second metrics pipeline: it is the same
//! exact integers, persisted. This suite pins that from three angles,
//! mirroring what `rtb_equivalence.rs` does for the binary trace hop:
//!
//! - **record/query ≡ accumulator** — replay the porto-regions catalog
//!   scenario through `{margin, nearest, batch-3m}` × shards `{1, 2, 4}`
//!   with a [`TsdbRecorder`] interposed; for every metric, the store's
//!   whole-range query total equals the in-memory [`StreamMetrics`]
//!   accumulator with exact `==` on the raw integer grid — no float ever
//!   enters the comparison,
//! - **shard invariance** — window boundaries land on the stream clock,
//!   so the recorded samples of every metric are *identical* across
//!   shard counts for a shard-stable policy,
//! - **golden store byte-pin** — `snapshots/golden_tsdb/` is a committed
//!   store recorded from the committed `golden_trace.rtb` corpus.
//!   Re-recording reproduces every file byte for byte (encoder/layout
//!   drift), the committed bytes open and query back to the committed
//!   canonical JSON `snapshots/golden_query.json` (decoder drift), and
//!   CI additionally replays + queries through the `rideshare` CLI and
//!   diffs the same JSON. Update both with
//!   `UPDATE_SNAPSHOTS=1 cargo test --test tsdb_equivalence`.
//!
//! Plus an `#[ignore]`d heavy acceptance run: a million-task multi-day
//! replay recorded and queried back exactly
//! (`cargo test --release --test tsdb_equivalence -- --ignored`).

use rideshare::bench::Scenario;
use rideshare::online::{wire_to_event, MatcherKind, ShardPolicySpec, StreamEngine};
use rideshare::prelude::*;
use rideshare::trace::rtb;
use rideshare::tsdb::codec::Sample;
use rideshare::tsdb::recorder::{
    METRIC_ACTIVE_DRIVERS, METRIC_DEADHEAD, METRIC_PROFIT, METRIC_REJECTED, METRIC_REVENUE,
    METRIC_SERVED, METRIC_WAIT_SECS,
};
use rideshare::tsdb::store::SeriesKey;
use rideshare::tsdb::{to_canonical_json, Agg, TsdbStore};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdb-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policy_matrix() -> Vec<(&'static str, ShardPolicySpec)> {
    vec![
        ("margin", ShardPolicySpec::MaxMargin),
        ("nearest", ShardPolicySpec::Nearest { seed: 0 }),
        (
            "batch-3m",
            ShardPolicySpec::Batched {
                window: TimeDelta::from_mins(3),
                matcher: MatcherKind::Greedy,
            },
        ),
    ]
}

/// Replays the porto-regions catalog scenario with a recorder
/// interposed; returns the flushed store and the inner accumulator.
fn record_run(
    market: &Market,
    config: &TraceConfig,
    spec: ShardPolicySpec,
    label: &str,
    shards: usize,
    dir: &Path,
) -> (TsdbStore, StreamMetrics) {
    let store = TsdbStore::open(dir).expect("open store");
    let labels = RunLabels::new("porto-regions", label, config.region_boxes().len(), shards);
    let mut sink = TsdbRecorder::new(store, labels, StreamMetrics::hourly());
    if shards == 1 {
        let policy = spec.holder();
        let _ = replay_stream(
            market.speed(),
            market_events(market),
            policy,
            StreamOptions::default(),
            &mut sink,
        );
    } else {
        let partitioner = BoxPartitioner::new(config.region_boxes());
        let _ = replay_sharded(
            market.speed(),
            market_events(market),
            spec,
            &partitioner,
            ShardOptions::new(shards).validate(false),
            &mut sink,
        );
    }
    let (store, metrics) = sink.finish().expect("recording must not error");
    (store.expect("store attached"), metrics)
}

/// Whole-range query total for one metric (0 when no sample recorded).
fn total_of(store: &TsdbStore, metric: &str) -> i128 {
    let q = RangeQuery {
        filter: LabelFilter::any().with("metric", metric).expect("filter"),
        from: i64::MIN,
        to: i64::MAX,
        step: 3600,
    };
    run_query(store, &q)
        .expect("query")
        .total
        .map_or(0, |t| t.sum)
}

/// The recorded samples of one metric, independent of the run labels.
fn samples_of(store: &TsdbStore, metric: &str) -> Vec<Sample> {
    let keys: Vec<SeriesKey> = store
        .series()
        .map(|(k, _)| k.clone())
        .filter(|k| k.metric == metric)
        .collect();
    assert!(
        keys.len() <= 1,
        "one run writes at most one {metric} series"
    );
    keys.first()
        .map(|k| store.read_series(k).expect("read series"))
        .unwrap_or_default()
}

const ALL_METRICS: [&str; 7] = [
    METRIC_SERVED,
    METRIC_REJECTED,
    METRIC_REVENUE,
    METRIC_PROFIT,
    METRIC_WAIT_SECS,
    METRIC_DEADHEAD,
    METRIC_ACTIVE_DRIVERS,
];

/// Exact `==` between the store's query totals and the in-memory
/// accumulator, on the raw integer grid.
fn assert_store_equals_metrics(store: &TsdbStore, metrics: &StreamMetrics, ctx: &str) {
    let pairs: [(&str, i128); 6] = [
        (
            METRIC_SERVED,
            i128::try_from(metrics.served()).expect("fits"),
        ),
        (
            METRIC_REJECTED,
            i128::try_from(metrics.rejected()).expect("fits"),
        ),
        (METRIC_REVENUE, metrics.revenue_raw()),
        (METRIC_PROFIT, metrics.profit_raw()),
        (METRIC_WAIT_SECS, i128::from(metrics.wait_secs_total())),
        (METRIC_DEADHEAD, metrics.deadhead_raw()),
    ];
    for (metric, want) in pairs {
        assert_eq!(total_of(store, metric), want, "{ctx}: Σ {metric}");
    }
    // The active-drivers gauge is non-decreasing, so its max (and last
    // sample) is the final accumulator value.
    let q = RangeQuery {
        filter: LabelFilter::any()
            .with("metric", METRIC_ACTIVE_DRIVERS)
            .expect("filter"),
        from: i64::MIN,
        to: i64::MAX,
        step: 3600,
    };
    let r = run_query(store, &q).expect("query");
    let got = r.total.map_or(0, |t| t.max);
    assert_eq!(
        got,
        i128::try_from(metrics.active_drivers()).expect("fits"),
        "{ctx}: max {METRIC_ACTIVE_DRIVERS}"
    );
}

/// The matrix pin: for every policy × shard count, querying the recorded
/// store reproduces the in-memory accumulator exactly, and the recorded
/// samples are identical across shard counts.
#[test]
fn recorded_store_matches_stream_metrics_across_policies_and_shards() {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();

    for (label, spec) in policy_matrix() {
        let mut baseline: Option<Vec<(String, Vec<Sample>)>> = None;
        for shards in [1usize, 2, 4] {
            let ctx = format!("policy={label} shards={shards}");
            let dir = tmp_dir(&format!("{label}-{shards}"));
            let (store, metrics) = record_run(&market, &config, spec, label, shards, &dir);
            assert!(metrics.served() > 0, "{ctx}: degenerate run");
            assert_store_equals_metrics(&store, &metrics, &ctx);

            // Shard invariance: the recorded samples of every metric are
            // byte-identical across shard counts (labels differ only in
            // the shard count they record).
            let shape: Vec<(String, Vec<Sample>)> = ALL_METRICS
                .iter()
                .map(|m| ((*m).to_string(), samples_of(&store, m)))
                .collect();
            match &baseline {
                None => baseline = Some(shape),
                Some(want) => {
                    for ((metric, got), (_, expect)) in shape.iter().zip(want) {
                        assert_eq!(got, expect, "{ctx}: {metric} samples drifted vs 1 shard");
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Serving across day rollovers must not perturb the recording: the
/// daemon runs with a 2-hour day over a one-day trace, and the day hook
/// does exactly what `rideshare serve --tsdb-dir` does at each boundary
/// — `MetricsJournal::roll_day` plus a mid-run
/// [`TsdbRecorder::flush_store`]. The recorded store still reproduces
/// the cumulative accumulator with exact `==`, and its samples are
/// identical to a rollover-free recording of the same events.
#[test]
fn serve_day_rollover_preserves_recorded_equivalence() {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();

    // Baseline: the same events recorded with no journal and no rollover.
    let base_dir = tmp_dir("rollover-base");
    let (base_store, base_metrics) = record_run(
        &market,
        &config,
        ShardPolicySpec::MaxMargin,
        "margin",
        1,
        &base_dir,
    );

    // Rollover run: serve daemon, 2-hour days, journal + recorder sink.
    let dir = tmp_dir("rollover");
    let store = TsdbStore::open(&dir).expect("open store");
    let labels = RunLabels::new("porto-regions", "margin", config.region_boxes().len(), 1);
    let mut sink = TsdbRecorder::new(store, labels, MetricsJournal::hourly());
    let daemon = ServeDaemon::new(
        market.speed(),
        ShardPolicySpec::MaxMargin,
        ServeConfig::new(1).day_length(TimeDelta::from_hours(2)),
    );
    let mut closed_days = 0usize;
    let outcome = daemon.run(
        &mut IterSource::new(market_events(&market).into_iter()),
        &mut sink,
        |_, _| {},
        |_, rec| {
            let _ = rec.inner_mut().roll_day();
            rec.flush_store().expect("mid-run flush at day boundary");
            closed_days += 1;
        },
    );
    assert!(outcome.error.is_none(), "serve run must drain cleanly");
    assert!(
        closed_days >= 2,
        "regression needs several rollovers, got {closed_days}"
    );

    let (rolled_store, journal) = sink.finish().expect("recording must not error");
    let rolled_store = rolled_store.expect("store attached");
    assert_eq!(journal.days_closed(), closed_days);
    let cumulative = journal.into_cumulative();

    // Rollovers never perturb the cumulative accumulator…
    assert_eq!(cumulative, base_metrics, "journal cumulative drifted");
    // …nor the recorded store: query totals still equal the accumulator
    // exactly, and every series matches the rollover-free recording
    // sample for sample.
    assert_store_equals_metrics(&rolled_store, &cumulative, "rolled");
    for metric in ALL_METRICS {
        assert_eq!(
            samples_of(&rolled_store, metric),
            samples_of(&base_store, metric),
            "{metric} samples drifted across day rollovers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// Reopening a flushed store reads back exactly what was recorded —
/// the query result is identical before and after the disk round trip.
#[test]
fn reopened_store_queries_identically() {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();
    let dir = tmp_dir("reopen");
    let (store, metrics) = record_run(
        &market,
        &config,
        ShardPolicySpec::MaxMargin,
        "margin",
        1,
        &dir,
    );
    let reopened = TsdbStore::open(&dir).expect("reopen");
    for metric in ALL_METRICS {
        assert_eq!(
            samples_of(&store, metric),
            samples_of(&reopened, metric),
            "{metric} drifted across reopen"
        );
    }
    assert_store_equals_metrics(&reopened, &metrics, "reopened");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Golden store fixture.
// ---------------------------------------------------------------------

/// The pinned query CI also runs through the CLI:
/// `rideshare query --tsdb <dir> --filter scenario=golden,metric=profit --canonical`.
fn golden_query() -> RangeQuery {
    RangeQuery {
        filter: LabelFilter::parse("scenario=golden,metric=profit").expect("filter"),
        from: i64::MIN,
        to: i64::MAX,
        step: 3600,
    }
}

/// Records the committed `golden_trace.rtb` corpus into `dir` exactly the
/// way `rideshare replay --input … --tsdb-dir … --tsdb-scenario golden`
/// does: same grid options, same policy, same labels.
fn record_golden(dir: &Path) -> TsdbStore {
    const GOLDEN: &[u8] = include_bytes!("snapshots/golden_trace.rtb");
    let config = TraceConfig::porto()
        .with_seed(7)
        .with_task_count(120)
        .with_driver_count(10, DriverModel::Hitchhiking)
        .with_regions(2);
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();

    let store = TsdbStore::open(dir).expect("open store");
    let labels = RunLabels::new("golden", "margin", 2, 1);
    let mut sink = TsdbRecorder::new(store, labels, StreamMetrics::hourly());
    let mut policy = ShardPolicySpec::MaxMargin.holder();
    let mut engine = StreamEngine::new(speed, StreamOptions::default().grid(bbox));
    for wire in rtb::read_events(GOLDEN).expect("committed corpus decodes") {
        if let Some(event) = wire_to_event(wire) {
            engine.push(event, &mut policy, &mut sink);
        }
    }
    let _ = engine.finish(&mut policy, &mut sink);
    let (store, _) = sink.finish().expect("record");
    store.expect("store attached")
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
        .join("golden_tsdb")
}

fn query_snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
        .join("golden_query.json")
}

/// Store files in a stable order (the index plus every series file).
fn store_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("fixture dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf8 name")
        })
        .collect();
    names.sort();
    names
}

/// Direction one: re-recording the committed corpus reproduces the
/// committed store byte for byte. Direction two: the committed store
/// opens and queries back to the committed canonical JSON. Run with
/// `UPDATE_SNAPSHOTS=1` to rewrite both after an intentional format
/// change (bump the codec/index/query schema version deliberately).
#[test]
fn golden_store_is_byte_pinned_both_ways() {
    let work = tmp_dir("golden");
    let store = record_golden(&work);
    let json = {
        let q = golden_query();
        let r = run_query(&store, &q).expect("query fresh store");
        to_canonical_json(&q, Agg::Sum, &r)
    };

    let fixture = fixture_dir();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        let _ = std::fs::remove_dir_all(&fixture);
        std::fs::create_dir_all(&fixture).expect("create fixture dir");
        for name in store_files(&work) {
            std::fs::copy(work.join(&name), fixture.join(&name)).expect("copy fixture file");
        }
        std::fs::write(query_snapshot_path(), &json).expect("write query snapshot");
        let _ = std::fs::remove_dir_all(&work);
        return;
    }

    // Encoder direction: same corpus, same bytes — file set and content.
    assert_eq!(
        store_files(&work),
        store_files(&fixture),
        "recorded store writes a different file set than the committed fixture"
    );
    for name in store_files(&fixture) {
        let got = std::fs::read(work.join(&name)).expect("fresh file");
        let want = std::fs::read(fixture.join(&name)).expect("committed file");
        assert!(
            got == want,
            "{name} drifted from the committed golden store; \
             rerun with UPDATE_SNAPSHOTS=1 if intentional"
        );
    }

    // Decoder direction: the committed bytes open, validate, and query
    // back to the committed canonical JSON.
    let committed = TsdbStore::open(&fixture).expect("committed fixture must open cleanly");
    let q = golden_query();
    let r = run_query(&committed, &q).expect("query committed store");
    let committed_json = to_canonical_json(&q, Agg::Sum, &r);
    assert_eq!(committed_json, json, "fresh and committed stores disagree");
    let want = std::fs::read_to_string(query_snapshot_path()).expect("query snapshot");
    assert_eq!(
        committed_json, want,
        "canonical query output drifted from snapshots/golden_query.json; \
         rerun with UPDATE_SNAPSHOTS=1 if intentional"
    );
    let _ = std::fs::remove_dir_all(&work);
}

// ---------------------------------------------------------------------
// Heavy acceptance.
// ---------------------------------------------------------------------

/// A million tasks over multiple simulated days, recorded while
/// replaying, then queried back: every metric total exact-equal to the
/// accumulator, across a seal-boundary-heavy store (hundreds of chunks).
/// Release only: `cargo test --release --test tsdb_equivalence -- --ignored`.
#[test]
#[ignore = "heavy: 1M-task multi-day record+query, release only"]
fn million_task_record_and_query_round_trip() {
    let config = TraceConfig::porto()
        .with_seed(0)
        .with_task_count(1_000_000)
        .with_driver_count(450, DriverModel::Hitchhiking);
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();

    let dir = tmp_dir("million");
    let store = TsdbStore::open(&dir).expect("open store");
    let labels = RunLabels::new("porto-1m", "margin", 1, 1);
    let mut sink = TsdbRecorder::new(store, labels, StreamMetrics::hourly());
    let policy = rideshare::online::StreamPolicy::Instant(InstantRule::MaxMargin);
    let options = StreamOptions::default().grid(bbox);
    let events = priced_events(stream, &build);
    let summary = replay_stream(speed, events, policy, options, &mut sink);
    assert_eq!(summary.tasks, 1_000_000);

    let (store, metrics) = sink.finish().expect("record");
    let store = store.expect("store attached");
    assert_store_equals_metrics(&store, &metrics, "1M-task");

    // The run spans days of stream time, so the served series crossed
    // many seal boundaries — the multi-chunk read path, exercised at
    // scale — and a reopened store agrees sample for sample.
    let served = samples_of(&store, METRIC_SERVED);
    assert!(
        served.len() > rideshare::tsdb::store::CHUNK_LEN,
        "expected a multi-chunk series, got {} samples",
        served.len()
    );
    let reopened = TsdbStore::open(&dir).expect("reopen");
    assert_eq!(samples_of(&reopened, METRIC_SERVED), served);
    assert_store_equals_metrics(&reopened, &metrics, "1M-task reopened");
    let _ = std::fs::remove_dir_all(&dir);
}
