//! The stream oracle suite.
//!
//! One engine decides every order. What this file pins is a chain with an
//! absolute end:
//!
//! - the front-end, [`replay_market`] (grid-pruned, tasks re-labelled by
//!   position), equals the plain run — a bare [`replay_stream`] of
//!   [`market_events`] that folds over every driver
//!   (`StreamOptions::fold_oracle()`, the linear scan, compiled for tests
//!   only) — on the tiny catalog under every online policy, field by field
//!   (`front_end_matches_the_scan_stream`);
//! - every *other* way of feeding the engine — clock ticks and driver
//!   retirement here, the grid, shards and the daemon in the crate's unit
//!   tests and the `grid_equivalence` /
//!   `shard_determinism` / `serve_equivalence` batteries — produces the
//!   same [`SimulationResult`] as the front-end or the plain run: same
//!   dispatch vector, same event list (arrival, decision time, wait,
//!   deadhead, candidates, margin), same routes;
//! - the plain run itself passes the dispatch-causality law
//!   ([`validate_online_result`]) on the **whole scenario catalog**,
//!   instant and batched, and reproduces, on the tiny catalog, the FNV-1a
//!   result digests recorded from the per-task simulator loop and the
//!   batch-engine loop the engine replaced (`golden_scenarios/digests.rs`).
//!
//! Plus:
//!
//! - the full lazy pipeline (`TraceConfig::stream` → [`StreamPricer`] →
//!   streaming engine) against materialising the same streamed trips into
//!   a [`Market`] and replaying them conventionally,
//! - a property test that reordering events *within one timestamp* cannot
//!   change anything (the engine decides same-instant groups in task-id
//!   order, so delivery jitter is invisible),
//! - grid ≡ scan with a fleet-sized grid (5k orders × 20k drivers,
//!   instant and batched, most of the fleet retired), and on the `replay-dense`
//!   and `replay-batch` benchmark markets at a tenth of their size, where
//!   the candidate scan's disc bounds reject most of what the cells hold,
//! - `#[ignore]`d heavy runs: the porto-large batched matrix, the same
//!   grid ≡ scan cell at 20k × 100k and a 1,000,000-task bounded-memory
//!   replay
//!   (`cargo test --release --test stream_equivalence -- --ignored`).

use proptest::prelude::*;

use rideshare::bench::Scenario;
use rideshare::online::DispatchEvent;
use rideshare::prelude::*;

#[path = "golden_scenarios/digests.rs"]
mod digests;

/// Checks `streamed` against the digest pinned for this cell; `false` for
/// a catalog scenario outside the pinned tiny ones.
fn matches_pin(streamed: &SimulationResult, scenario: &str, policy: &str) -> bool {
    let Some(pin) = digests::pinned(scenario, policy) else {
        return false;
    };
    let digest = digests::result_digest(streamed);
    assert_eq!(digest, pin, "{scenario} × {policy}: pinned digest");
    true
}

/// Byte-identity between two results, field by field.
fn assert_same(streamed: &SimulationResult, materialized: &SimulationResult, ctx: &str) {
    assert_eq!(streamed.dispatch, materialized.dispatch, "{ctx}: dispatch");
    assert_eq!(streamed.events, materialized.events, "{ctx}: events");
    assert_eq!(streamed.served, materialized.served, "{ctx}: served");
    assert_eq!(streamed.rejected, materialized.rejected, "{ctx}: rejected");
    assert_eq!(
        streamed.assignment.routes(),
        materialized.assignment.routes(),
        "{ctx}: routes"
    );
}

fn stream_instant(market: &Market, rule: InstantRule) -> SimulationResult {
    let mut sink = CollectingSink::new();
    let _ = replay_stream(
        market.speed(),
        market_events(market),
        StreamPolicy::Instant(rule),
        StreamOptions::fold_oracle(),
        &mut sink,
    );
    sink.into_result()
}

fn stream_batched(market: &Market, window: TimeDelta, optimal: bool) -> SimulationResult {
    let mut sink = CollectingSink::new();
    let matcher = if optimal {
        MatcherKind::Optimal
    } else {
        MatcherKind::Greedy
    };
    let _ = replay_stream(
        market.speed(),
        market_events(market),
        StreamPolicy::Batched { window, matcher },
        StreamOptions::fold_oracle(),
        &mut sink,
    );
    sink.into_result()
}

/// The one pin for the front-end: on the tiny catalog, under every online
/// policy, [`replay_market`] equals the scan stream — one dispatch entry
/// per market task, same events, routes and counts.
#[test]
fn front_end_matches_the_scan_stream() {
    let window = TimeDelta::from_mins(3);
    let policies = [
        ("maxMargin", StreamPolicy::Instant(InstantRule::MaxMargin)),
        (
            "nearest",
            StreamPolicy::Instant(InstantRule::Nearest { seed: 7 }),
        ),
        ("random", StreamPolicy::Instant(InstantRule::random(1))),
        (
            "batch-3m",
            StreamPolicy::Batched {
                window,
                matcher: MatcherKind::Greedy,
            },
        ),
        (
            "batch-opt-3m",
            StreamPolicy::Batched {
                window,
                matcher: MatcherKind::Optimal,
            },
        ),
    ];
    for scenario in Scenario::tiny_catalog() {
        let market = scenario.build_market();
        for (label, policy) in &policies {
            let front = replay_market(&market, policy.clone());
            let mut sink = CollectingSink::new();
            let _ = replay_stream(
                market.speed(),
                market_events(&market),
                policy.clone(),
                StreamOptions::fold_oracle(),
                &mut sink,
            );
            let ctx = format!("{} × {label}", scenario.name);
            assert_eq!(front.dispatch.len(), market.num_tasks(), "{ctx}");
            assert_same(&sink.into_result(), &front, &ctx);
        }
    }
}

/// Every catalog scenario, instant mode: the plain run is causally valid
/// under both online heuristics, and the tiny scenarios in it reproduce
/// their pinned digests.
#[test]
fn catalog_instant_streaming_oracle() {
    let mut pinned = 0;
    for scenario in Scenario::catalog() {
        let market = scenario.build_market();
        let runs = [
            ("maxMargin", stream_instant(&market, InstantRule::MaxMargin)),
            (
                "nearest",
                stream_instant(&market, InstantRule::Nearest { seed: 0 }),
            ),
        ];
        for (policy, streamed) in runs {
            validate_online_result(&market, &streamed)
                .unwrap_or_else(|e| panic!("{} × {policy}: {e}", scenario.name));
            pinned += usize::from(matches_pin(&streamed, scenario.name, policy));
        }
    }
    assert_eq!(pinned, 8, "tiny catalog × {{maxMargin, nearest}}");
}

/// Every catalog scenario, batched mode (greedy matcher, 2-minute window):
/// the plain run is causally valid.
#[test]
fn catalog_batched_streaming_oracle() {
    for scenario in Scenario::catalog() {
        let market = scenario.build_market();
        let streamed = stream_batched(&market, TimeDelta::from_mins(2), false);
        validate_online_result(&market, &streamed)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
    }
}

/// The tiny catalog under the full batched matrix (window × matcher),
/// optimal included: every plain run is causally valid, and the 3-minute
/// column reproduces its pinned digests.
#[test]
fn tiny_catalog_batched_matrix_oracle() {
    let mut pinned = 0;
    for scenario in Scenario::tiny_catalog() {
        let market = scenario.build_market();
        for mins in [0i64, 1, 3, 5, 15] {
            for optimal in [false, true] {
                let streamed = stream_batched(&market, TimeDelta::from_mins(mins), optimal);
                validate_online_result(&market, &streamed).unwrap_or_else(|e| {
                    panic!("{} W={mins}m optimal={optimal}: {e}", scenario.name)
                });
                if mins == 3 {
                    let policy = if optimal { "batch-opt-3m" } else { "batch-3m" };
                    pinned += usize::from(matches_pin(&streamed, scenario.name, policy));
                }
            }
        }
    }
    assert_eq!(pinned, 8, "tiny catalog × {{batch-3m, batch-opt-3m}}");
}

/// The full lazy pipeline — streamed trips, streamed prices, streamed
/// dispatch — against materialising those same trips into a `Market` and
/// replaying conventionally. This is the end-to-end guarantee behind
/// `rideshare replay`: laziness changes memory, never results.
#[test]
fn lazy_pipeline_matches_materialized_pipeline() {
    let config = TraceConfig::porto()
        .with_seed(19)
        .with_task_count(400)
        .with_driver_count(30, DriverModel::Hitchhiking);
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };

    // Lazy: generate + price + dispatch one order at a time.
    let stream = config.stream();
    let speed = stream.speed();
    let options = StreamOptions::default().grid(stream.bounding_box());
    let policy = StreamPolicy::Instant(InstantRule::MaxMargin);
    let mut sink = CollectingSink::new();
    let events = priced_events(stream, &build);
    let summary = replay_stream(speed, events, policy, options, &mut sink);
    let streamed = sink.into_result();

    // Materialized: the same streamed trips, built into a market.
    let market = Market::from_trace(&config.stream().collect_trace(), &build);
    let materialized = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));

    assert_same(&streamed, &materialized, "lazy pipeline");
    validate_online_result(&market, &streamed).unwrap();
    assert_eq!(summary.tasks, market.num_tasks());
    assert!(summary.peak_held_tasks <= market.num_tasks() / 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Reordering task events *within the same publish timestamp* changes
    // nothing: the engine canonicalises same-instant groups by task id.
    // The demand profile is squeezed into two hours so timestamp ties are
    // plentiful.
    #[test]
    fn same_timestamp_reordering_is_invisible(
        seed in 0u64..10_000,
        tasks in 20usize..80,
        drivers in 1usize..10,
        rot in 1usize..5,
        batched in any::<bool>(),
    ) {
        let mut demand = [0.0f64; 24];
        demand[8] = 1.0;
        demand[9] = 1.0;
        let mut trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .with_hourly_demand(demand)
            .generate();
        // Floor publish times to 10-minute slots: ≥ 20 tasks over ~2 hours
        // of demand pigeonhole into equal timestamps, guaranteeing ties
        // (flooring only widens each task's window, so trips stay valid).
        for trip in &mut trace.trips {
            let floored = trip.publish_time.as_secs().div_euclid(600) * 600;
            trip.publish_time = Timestamp::from_secs(floored);
        }
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let events = market_events(&market);

        // Rotate every run of equal-publish task events by `rot`.
        let mut shuffled = events.clone();
        let mut i = 0usize;
        let mut any_tie = false;
        while i < shuffled.len() {
            let Some(at) = shuffled[i].timestamp() else { i += 1; continue };
            let mut j = i + 1;
            while j < shuffled.len() && shuffled[j].timestamp() == Some(at) {
                j += 1;
            }
            if j - i > 1 {
                any_tie = true;
                shuffled[i..j].rotate_left(rot % (j - i));
            }
            i = j;
        }

        let run = |events: Vec<StreamEvent>| {
            let mut sink = CollectingSink::new();
            let policy = if batched {
                StreamPolicy::Batched { window: TimeDelta::from_mins(3), matcher: MatcherKind::Greedy }
            } else {
                StreamPolicy::Instant(InstantRule::MaxMargin)
            };
            let _ = replay_stream(
                market.speed(),
                events,
                policy,
                StreamOptions::default(),
                &mut sink,
            );
            sink.into_result()
        };
        let a = run(events);
        let b = run(shuffled);
        prop_assert_eq!(&a.dispatch, &b.dispatch);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(a.served, b.served);
        // 20+ tasks in ~13 ten-minute slots: ties are guaranteed, so the
        // test always exercises real reordering.
        prop_assert!(any_tie, "no timestamp ties generated");
    }

    // Random traces, random windows: a batched stream ticked on ten-minute
    // boundaries, which retire drivers between orders, stays byte-identical
    // to the materialized front-end and causally valid.
    #[test]
    fn random_batched_streams_match_materialized(
        seed in 0u64..10_000,
        tasks in 1usize..60,
        drivers in 0usize..8,
        window_mins in 0i64..30,
        optimal in any::<bool>(),
    ) {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let window = TimeDelta::from_mins(window_mins);
        let matcher = if optimal { MatcherKind::Optimal } else { MatcherKind::Greedy };
        let spec = ShardPolicySpec::Batched { window, matcher };
        // A tick on every ten-minute boundary an order crosses.
        let (mut ticked, mut last_tick) = (Vec::new(), None);
        for event in market_events(&market) {
            if let Some(at) = event.timestamp() {
                let tick = Timestamp::from_secs(at.as_secs().div_euclid(600) * 600);
                if last_tick < Some(tick) {
                    ticked.push(StreamEvent::EpochTick(tick));
                    last_tick = Some(tick);
                }
            }
            ticked.push(event);
        }
        let mut sink = CollectingSink::new();
        let options = StreamOptions::default();
        let _ = replay_stream(market.speed(), ticked, spec.holder(), options, &mut sink);
        let streamed = sink.into_result();
        let materialized = replay_market(&market, spec.holder());
        prop_assert_eq!(&streamed.dispatch, &materialized.dispatch);
        prop_assert_eq!(&streamed.events, &materialized.events);
        prop_assert_eq!(streamed.assignment.routes(), materialized.assignment.routes());
        prop_assert!(validate_online_result(&market, &streamed).is_ok());
    }
}

/// Both of one run's views: the telemetry accumulator and the collected
/// decisions.
struct Tee(StreamMetrics, CollectingSink);

impl StreamSink for Tee {
    fn driver_online(&mut self, driver: &Driver) {
        self.0.driver_online(driver);
        self.1.driver_online(driver);
    }
    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.0.dispatched(task, event);
        self.1.dispatched(task, event);
    }
    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        StreamSink::rejected(&mut self.0, task, decision_time);
        self.1.rejected(task, decision_time);
    }
    fn window_closed(&mut self, end: Timestamp) {
        self.0.window_closed(end);
        self.1.window_closed(end);
    }
}

/// `tasks` orders and `drivers` hitchhiking drivers of the Porto stream.
fn porto(seed: u64, tasks: usize, drivers: usize) -> TraceConfig {
    TraceConfig::porto()
        .with_seed(seed)
        .with_task_count(tasks)
        .with_driver_count(drivers, DriverModel::Hitchhiking)
}

/// One stream, priced under `build`, dispatched by maxMargin or `batch-3m`,
/// replayed with the grid and with the linear
/// scan: the two must agree on the summary, the telemetry and every
/// decision. Returns the grid run's summary and decisions for the
/// caller's checks on the shape of the market.
fn grid_matches_scan(
    config: &TraceConfig,
    build: &MarketBuildOptions,
    batched: bool,
) -> (StreamSummary, SimulationResult) {
    let run = |grid: bool| {
        let stream = config.stream();
        let speed = stream.speed();
        let options = if grid {
            StreamOptions::default().grid(stream.bounding_box())
        } else {
            StreamOptions::fold_oracle()
        };
        let policy = if batched {
            let window = TimeDelta::from_mins(3);
            StreamPolicy::Batched {
                window,
                matcher: MatcherKind::Greedy,
            }
        } else {
            StreamPolicy::Instant(InstantRule::MaxMargin)
        };
        let events = priced_events(stream, build);
        let mut sink = Tee(StreamMetrics::hourly(), CollectingSink::new());
        let summary = replay_stream(speed, events, policy, options, &mut sink);
        (summary, sink.0, sink.1.into_result())
    };
    let ctx = format!(
        "seed {}, {} tasks, batched: {batched}",
        config.seed(),
        config.task_count()
    );
    let (summary, metrics, decisions) = run(true);
    let (scan_summary, scan_metrics, scan_decisions) = run(false);
    assert_eq!(summary, scan_summary, "{ctx}");
    assert_eq!(metrics, scan_metrics, "{ctx}");
    assert_same(&decisions, &scan_decisions, &ctx);
    (summary, decisions)
}

/// Grid ≡ scan with a fleet in the grid, not a handful of drivers: cells
/// hold hundreds of availability-ordered entries, and retirement removes
/// entries and frees slots until most of the fleet is freed — under
/// instant dispatch and under `batch-3m`, whose early-flush epochs search
/// the same table ring by ring.
fn fleet_sized_grid_matches_scan(tasks: usize, drivers: usize) {
    let (config, build) = (porto(29, tasks, drivers), MarketBuildOptions::default());
    for batched in [false, true] {
        let (summary, decisions) = grid_matches_scan(&config, &build, batched);
        let ctx = format!("{tasks} x {drivers}, batched: {batched}");
        assert!(
            decisions.served * 10 > tasks,
            "{ctx}: a market that dispatches"
        );
        let compacted = summary.compacted_drivers;
        assert!(2 * compacted > drivers, "{ctx}: {compacted} compacted");
    }
}

/// The benchmark's pricing: a 30-minute rolling surge.
fn surge() -> MarketBuildOptions {
    MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    }
}

/// Grid ≡ scan where the disc bounds do the rejecting: the `replay-dense`
/// benchmark's market at a tenth of its size (its seed and pricing, 6,000
/// orders × 600 drivers, maxMargin). A third of the orders are served;
/// per order the grid walks about 7.8 entries, of which about 5.3 fail
/// the arrival check and 1.8 the return-home check, so both bounds reject
/// thousands of drivers that `evaluate` would have rejected.
#[test]
fn dense_grid_matches_scan_where_the_disc_bounds_reject() {
    let (summary, decisions) = grid_matches_scan(&porto(0, 6_000, 600), &surge(), false);
    assert_eq!(summary.tasks, 6_000);
    assert!(decisions.served * 3 > summary.tasks, "{}", decisions.served);
}

/// The `replay-batch` benchmark's market at a tenth of its size (2,500
/// orders × 250 drivers under `batch-3m`): every early-flush epoch is a
/// search whose per-point bound shrinks as it goes, over cells whose
/// drivers off shift at publication it passes over, while retirement frees
/// most of the fleet over the day.
#[test]
fn batched_grid_matches_scan_where_the_disc_bounds_reject() {
    let (summary, decisions) = grid_matches_scan(&porto(0, 2_500, 250), &surge(), true);
    assert!(decisions.served * 5 > summary.tasks, "{}", decisions.served);
    assert!(
        2 * summary.compacted_drivers > summary.drivers,
        "{} of {} drivers compacted",
        summary.compacted_drivers,
        summary.drivers
    );
}

#[test]
fn fleet_sized_grid_matches_scan_at_20k_drivers() {
    fleet_sized_grid_matches_scan(5_000, 20_000);
}

#[test]
#[ignore = "heavy: 20k tasks x 100k drivers against the full scan, release only"]
fn fleet_sized_grid_matches_scan_at_100k_drivers() {
    fleet_sized_grid_matches_scan(20_000, 100_000);
}

/// The heavy preset under the optimal matcher — run with
/// `cargo test --release --test stream_equivalence -- --ignored`.
#[test]
#[ignore = "heavy: porto-large × optimal matcher, release only"]
fn porto_large_optimal_streaming_oracle() {
    let market = Scenario::by_name("porto-large").unwrap().build_market();
    for mins in [1i64, 5] {
        let window = TimeDelta::from_mins(mins);
        let streamed = stream_batched(&market, window, true);
        let spec = ShardPolicySpec::Batched {
            window,
            matcher: MatcherKind::Optimal,
        };
        let materialized = replay_market(&market, spec.holder());
        assert_same(&streamed, &materialized, &format!("porto-large W={mins}m"));
    }
}

/// The acceptance-criterion run: one million synthetic Porto orders
/// through the full lazy pipeline in bounded memory. Release only.
#[test]
#[ignore = "heavy: 1M-task replay, release only"]
fn million_task_replay_stays_bounded() {
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
    let policy = StreamPolicy::Instant(InstantRule::MaxMargin);
    let mut metrics = StreamMetrics::hourly();
    let options = StreamOptions::default().grid(bbox);
    let events = priced_events(stream, &build);
    let summary = replay_stream(speed, events, policy, options, &mut metrics);
    assert_eq!(summary.tasks, 1_000_000);
    assert!(summary.served > 0);
    assert_eq!(metrics.published(), 1_000_000);
    // The bounded-memory claim, in numbers: held orders never approach the
    // trace; the trace generator's own buffer stays within a demand hour.
    assert!(
        summary.peak_held_tasks < 10_000,
        "peak held {}",
        summary.peak_held_tasks
    );
    // (The generator's buffer does not depend on who consumes the trips.)
    let mut stream = config.stream();
    stream.by_ref().for_each(drop);
    assert!(
        stream.peak_buffered() < 200_000,
        "trace buffer {}",
        stream.peak_buffered()
    );
}
