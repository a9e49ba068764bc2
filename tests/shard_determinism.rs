//! The region-sharding determinism battery.
//!
//! The sharded streaming engine's contract is that over a *legal* region
//! partition it is **not a different dispatcher**: for every policy and
//! every shard count it reproduces the sequential [`replay_stream`]
//! byte-for-byte. Correctness here is a determinism property, so this
//! suite pins it from every angle:
//!
//! - a proptest over random regional markets (random region counts,
//!   seeds, fleet sizes — every partition legal by construction) × every
//!   shard-stable policy `{margin, nearest, batch-3m, batch-opt-3m}` ×
//!   shard counts `{1, 2, 4}`, through both lanes of the one router —
//!   worker threads and the inline validator,
//! - pinned regressions on the `porto-regions` catalog scenario,
//!   including exact (`PartialEq`) equality of merged per-shard
//!   [`StreamMetrics`] against whole-stream metrics,
//! - `StreamMetrics::merge` associativity/commutativity (proptest) plus a
//!   tiny-catalog pin (regression, not just a property),
//! - checks that every tiny-catalog run frees retired drivers' slots, and
//!   that the validating lane frees them and still equals the sequential
//!   run,
//! - a `#[should_panic]` proving the validator rejects an *illegal*
//!   partition (one dense city cut in two at a meridian),
//! - an `#[ignore]`d million-task acceptance run:
//!   `--shards 4 ≡ --shards 1` on the full lazy pipeline
//!   (`cargo test --release --test shard_determinism -- --ignored`).
//!
//! Event-order canonicalisation: within an instant-mode publish group the
//! sharded merge order (decision epoch, then task id) *is* the sequential
//! emission order, so instant comparisons are raw. A batched epoch is
//! emitted by the sequential engine in matcher-commit order instead, so
//! batched comparisons canonicalise both sides to the merge order first —
//! same decisions, same per-task records, one serialisation.

use proptest::prelude::*;

use rideshare::bench::Scenario;
use rideshare::online::{ShardOptions, ShardPolicySpec, SimulationResult};
use rideshare::prelude::*;

fn regional_config(seed: u64, tasks: usize, drivers: usize, regions: usize) -> TraceConfig {
    TraceConfig::porto()
        .with_seed(seed)
        .with_task_count(tasks)
        .with_driver_count(drivers, DriverModel::Hitchhiking)
        .with_regions(regions)
}

/// All four shard-stable policies the battery sweeps.
fn policy_matrix() -> Vec<ShardPolicySpec> {
    vec![
        ShardPolicySpec::MaxMargin,
        ShardPolicySpec::Nearest { seed: 0 },
        ShardPolicySpec::Batched {
            window: TimeDelta::from_mins(3),
            matcher: MatcherKind::Greedy,
        },
        ShardPolicySpec::Batched {
            window: TimeDelta::from_mins(3),
            matcher: MatcherKind::Optimal,
        },
    ]
}

fn policy_label(spec: ShardPolicySpec) -> &'static str {
    match spec {
        ShardPolicySpec::MaxMargin => "margin",
        ShardPolicySpec::Nearest { .. } => "nearest",
        ShardPolicySpec::Batched {
            matcher: MatcherKind::Greedy,
            ..
        } => "batch-3m",
        ShardPolicySpec::Batched {
            matcher: MatcherKind::Optimal,
            ..
        } => "batch-opt-3m",
    }
}

/// Sequential replay under the policy a [`ShardPolicySpec`] describes —
/// the same spec→policy materialization (`ShardPolicySpec::holder`) the
/// sharded engine gives each shard, run through one engine.
fn sequential(market: &Market, spec: ShardPolicySpec) -> SimulationResult {
    let mut sink = CollectingSink::new();
    let policy = spec.holder();
    let _ = replay_stream(
        market.speed(),
        market_events(market),
        policy,
        StreamOptions::default(),
        &mut sink,
    );
    sink.into_result()
}

fn sharded(
    market: &Market,
    spec: ShardPolicySpec,
    partitioner: &dyn RegionPartitioner,
    options: ShardOptions,
) -> (SimulationResult, StreamSummary) {
    let mut sink = CollectingSink::new();
    let summary = replay_sharded(
        market.speed(),
        market_events(market),
        spec,
        partitioner,
        options,
        &mut sink,
    );
    (sink.into_result(), summary)
}

/// Brings a result into the sharded merge's canonical serialisation:
/// events in `(decision epoch, task id)` order, routes rebuilt from that
/// order. Dispatch vector, counters, and every per-task record are
/// untouched — only the within-epoch interleaving is normalised.
fn canonicalize(mut result: SimulationResult, drivers: usize) -> SimulationResult {
    result
        .events
        .sort_by_key(|e| (e.decision_time, e.task.index()));
    let mut assignment = Assignment::empty(drivers);
    for e in &result.events {
        assignment.push_task(e.driver, e.task);
    }
    result.assignment = assignment;
    result
}

fn assert_byte_identical(
    got: &SimulationResult,
    expected: &SimulationResult,
    canonical: bool,
    drivers: usize,
    ctx: &str,
) {
    if canonical {
        let got = canonicalize(got.clone(), drivers);
        let expected = canonicalize(expected.clone(), drivers);
        assert_eq!(got.dispatch, expected.dispatch, "{ctx}: dispatch");
        assert_eq!(got.events, expected.events, "{ctx}: events");
        assert_eq!(
            got.assignment.routes(),
            expected.assignment.routes(),
            "{ctx}: routes"
        );
    } else {
        assert_eq!(got.dispatch, expected.dispatch, "{ctx}: dispatch");
        assert_eq!(got.events, expected.events, "{ctx}: events");
        assert_eq!(
            got.assignment.routes(),
            expected.assignment.routes(),
            "{ctx}: routes"
        );
    }
    assert_eq!(got.served, expected.served, "{ctx}: served");
    assert_eq!(got.rejected, expected.rejected, "{ctx}: rejected");
}

/// The pinned regression: the `porto-regions` catalog scenario under the
/// full policy × shard matrix, both execution paths.
#[test]
fn porto_regions_scenario_is_shard_invariant() {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();
    let partitioner = BoxPartitioner::new(config.region_boxes());
    for spec in policy_matrix() {
        let canonical = matches!(spec, ShardPolicySpec::Batched { .. });
        let expected = sequential(&market, spec);
        for shards in [1usize, 2, 4] {
            for validate in [false, true] {
                let options = ShardOptions::new(shards).validate(validate);
                let (got, summary) = sharded(&market, spec, &partitioner, options);
                assert_byte_identical(
                    &got,
                    &expected,
                    canonical,
                    market.num_drivers(),
                    &format!(
                        "porto-regions × {} × {shards} shards (validate={validate})",
                        policy_label(spec)
                    ),
                );
                assert_eq!(summary.tasks, market.num_tasks());
                assert_eq!(summary.drivers, market.num_drivers());
            }
        }
    }
}

/// Merged per-shard metrics equal whole-stream metrics **exactly** on the
/// pinned scenario (the metrics-merge acceptance criterion end-to-end:
/// the sharded engine feeds one global sink through its deterministic
/// merge, and fixed-point accumulation makes the result order-blind).
#[test]
fn porto_regions_sharded_metrics_equal_sequential_exactly() {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();
    let partitioner = BoxPartitioner::new(config.region_boxes());
    for spec in [
        ShardPolicySpec::MaxMargin,
        ShardPolicySpec::Batched {
            window: TimeDelta::from_mins(3),
            matcher: MatcherKind::Greedy,
        },
    ] {
        let mut whole = StreamMetrics::hourly();
        let policy = match spec {
            ShardPolicySpec::MaxMargin => StreamPolicy::Instant(InstantRule::MaxMargin),
            ShardPolicySpec::Batched { window, matcher } => {
                StreamPolicy::Batched { window, matcher }
            }
            ShardPolicySpec::Nearest { .. } => unreachable!(),
        };
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            policy,
            StreamOptions::default(),
            &mut whole,
        );
        for shards in [2usize, 4] {
            let mut merged = StreamMetrics::hourly();
            let _ = replay_sharded(
                market.speed(),
                market_events(&market),
                spec,
                &partitioner,
                ShardOptions::new(shards).validate(false),
                &mut merged,
            );
            assert_eq!(
                merged,
                whole,
                "{} × {shards} shards: metrics diverged",
                policy_label(spec)
            );
        }
    }
}

/// `StreamMetrics::merge` folded from per-shard accumulators equals the
/// whole-stream accumulator on the tiny catalog — pinned as a regression
/// on every scenario, not just sampled by the proptest below.
#[test]
fn tiny_catalog_metric_merge_is_exact() {
    for scenario in Scenario::tiny_catalog() {
        let market = scenario.build_market();
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut sink,
        );
        let result = sink.into_result();

        let shards = 3usize;
        let mut whole = StreamMetrics::hourly();
        let mut parts: Vec<StreamMetrics> = (0..shards).map(|_| StreamMetrics::hourly()).collect();
        for d in market.drivers() {
            whole.driver_online(d);
            for p in &mut parts {
                p.driver_online(d);
            }
        }
        for e in &result.events {
            let task = &market.tasks()[e.task.index()];
            whole.dispatched(task, e);
            parts[e.task.index() % shards].dispatched(task, e);
        }
        for (t, d) in result.dispatch.iter().enumerate() {
            if d.is_none() {
                let task = &market.tasks()[t];
                StreamSink::rejected(&mut whole, task, task.publish_time);
                StreamSink::rejected(&mut parts[t % shards], task, task.publish_time);
            }
        }
        // Left fold and right fold both equal the whole-stream form.
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right = parts[2].clone();
        right.merge(&parts[1]);
        right.merge(&parts[0]);
        assert_eq!(left, whole, "{}: left fold", scenario.name);
        assert_eq!(right, whole, "{}: right fold", scenario.name);
    }
}

/// Every run of the tiny catalog frees slots, instant and batched: the
/// fleet frees a driver's slot once the clock retires her, which even a
/// ten-driver day does. That retirement changes no decision is pinned by
/// the golden digests (`tests/golden_scenarios.rs`).
#[test]
fn catalog_compaction_oracle() {
    for scenario in Scenario::tiny_catalog() {
        let market = scenario.build_market();
        let (margin, matcher) = (InstantRule::MaxMargin, MatcherKind::Greedy);
        let window = TimeDelta::from_mins(3);
        let policies = [
            ("instant", StreamPolicy::Instant(margin)),
            ("batched", StreamPolicy::Batched { window, matcher }),
        ];
        for (kind, policy) in policies {
            let summary = replay_stream(
                market.speed(),
                market_events(&market),
                policy,
                StreamOptions::default(),
                &mut CollectingSink::new(),
            );
            assert!(
                summary.compacted_drivers > 0,
                "{} {kind}: nothing was freed",
                scenario.name
            );
        }
    }
}

/// The validating lane frees slots like the threaded one: under `batch-3m`
/// every shard frees a driver's slot once the clock retires her, and the
/// partition check still passes and the result still equals the
/// sequential run. A freed driver's shift ended before every order still
/// to be checked published, so she interacts with none.
#[test]
fn validating_lane_compacts_without_losing_interaction_evidence() {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();
    let partitioner = BoxPartitioner::new(config.region_boxes());
    let spec = ShardPolicySpec::Batched {
        window: TimeDelta::from_mins(3),
        matcher: MatcherKind::Greedy,
    };
    let expected = sequential(&market, spec);
    for shards in [2usize, 4] {
        let options = ShardOptions::new(shards).validate(true);
        let (got, summary) = sharded(&market, spec, &partitioner, options);
        let ctx = format!("porto-regions × batch-3m × {shards} shards");
        assert!(summary.compacted_drivers > 0, "{ctx}: nothing was freed");
        assert_byte_identical(&got, &expected, true, market.num_drivers(), &ctx);
    }
}

/// An illegal partition: one dense city cut in two at a meridian.
struct Meridian(f64);

impl RegionPartitioner for Meridian {
    fn region_of(&self, point: GeoPoint) -> usize {
        usize::from(point.lon() >= self.0)
    }
}

/// An illegal partition is caught by the validator, naming the offending
/// pair.
#[test]
#[should_panic(expected = "region partition violated")]
fn validator_rejects_single_city_grid_hash() {
    let trace = TraceConfig::porto()
        .with_seed(44)
        .with_task_count(80)
        .with_driver_count(15, DriverModel::Hitchhiking)
        .generate();
    let market = Market::from_trace(&trace, &MarketBuildOptions::default());
    let partitioner = Meridian(trace.bbox.center().lon());
    let mut sink = CollectingSink::new();
    let _ = replay_sharded(
        market.speed(),
        market_events(&market),
        ShardPolicySpec::MaxMargin,
        &partitioner,
        ShardOptions::new(2).validate(true),
        &mut sink,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The battery's core: random regional markets (every partition legal
    // by construction), every policy, shard counts {1, 2, 4}, both
    // execution paths — always byte-identical to sequential replay.
    #[test]
    fn random_regional_markets_are_shard_invariant(
        seed in 0u64..10_000,
        tasks in 30usize..90,
        drivers in 4usize..16,
        regions in 2usize..5,
    ) {
        let config = regional_config(seed, tasks, drivers, regions);
        let market = Market::from_trace(&config.generate(), &MarketBuildOptions::default());
        let partitioner = BoxPartitioner::new(config.region_boxes());
        for spec in policy_matrix() {
            let canonical = matches!(spec, ShardPolicySpec::Batched { .. });
            let expected = sequential(&market, spec);
            for shards in [1usize, 2, 4] {
                // Parallel workers…
                let options = ShardOptions::new(shards).validate(false);
                let (got, summary) = sharded(&market, spec, &partitioner, options);
                assert_byte_identical(
                    &got, &expected, canonical, market.num_drivers(),
                    &format!("seed {seed} × {} × {shards} shards", policy_label(spec)),
                );
                prop_assert_eq!(summary.tasks, market.num_tasks());
            }
            // …and the inline validating lane (also proves the random
            // partition really is legal).
            let options = ShardOptions::new(2).validate(true);
            let (got, _) = sharded(&market, spec, &partitioner, options);
            assert_byte_identical(
                &got, &expected, canonical, market.num_drivers(),
                &format!("seed {seed} × {} × validator", policy_label(spec)),
            );
        }
    }

    // Merge algebra on random partitions of random replays: associative,
    // commutative, exact.
    #[test]
    fn metric_merge_is_associative_and_commutative(
        seed in 0u64..10_000,
        tasks in 20usize..80,
        drivers in 2usize..12,
        parts in 2usize..5,
    ) {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut sink,
        );
        let result = sink.into_result();

        let mut whole = StreamMetrics::hourly();
        let mut split: Vec<StreamMetrics> =
            (0..parts).map(|_| StreamMetrics::hourly()).collect();
        for d in market.drivers() {
            whole.driver_online(d);
            for p in &mut split {
                p.driver_online(d);
            }
        }
        for e in &result.events {
            let task = &market.tasks()[e.task.index()];
            whole.dispatched(task, e);
            split[e.task.index() % parts].dispatched(task, e);
        }
        for (t, d) in result.dispatch.iter().enumerate() {
            if d.is_none() {
                let task = &market.tasks()[t];
                StreamSink::rejected(&mut whole, task, task.publish_time);
                StreamSink::rejected(&mut split[t % parts], task, task.publish_time);
            }
        }

        // Forward fold, reverse fold, and a nested grouping all agree.
        let mut forward = split[0].clone();
        for p in &split[1..] {
            forward.merge(p);
        }
        let mut reverse = split[parts - 1].clone();
        for p in split[..parts - 1].iter().rev() {
            reverse.merge(p);
        }
        let nested = if parts >= 3 {
            let mut inner = split[1].clone();
            for p in &split[2..parts - 1] {
                inner.merge(p);
            }
            let mut head = split[0].clone();
            head.merge(&inner);
            head.merge(&split[parts - 1]);
            head
        } else {
            let mut head = split[0].clone();
            head.merge(&split[1]);
            head
        };
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(&reverse, &whole);
        prop_assert_eq!(&nested, &whole);
    }
}

/// The million-task acceptance run: `--shards 4` ≡ `--shards 1` on the
/// full lazy pipeline (generation → pricing → dispatch → metrics), with
/// exact metric equality. Release only:
/// `cargo test --release --test shard_determinism -- --ignored`.
#[test]
#[ignore = "heavy: 1M-task sharded replay, release only"]
fn million_task_sharded_replay_is_byte_identical() {
    let config = TraceConfig::porto()
        .with_seed(0)
        .with_task_count(1_000_000)
        .with_driver_count(450, DriverModel::Hitchhiking)
        .with_regions(4);
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };
    let run = |shards: usize| {
        let stream = config.stream();
        let speed = stream.speed();
        let bbox = stream.bounding_box();
        let mut metrics = StreamMetrics::hourly();
        let options = StreamOptions::default().grid(bbox);
        let events = priced_events(stream, &build);
        let summary = if shards == 1 {
            let policy = StreamPolicy::Instant(InstantRule::MaxMargin);
            replay_stream(speed, events, policy, options, &mut metrics)
        } else {
            let partitioner = BoxPartitioner::new(config.region_boxes());
            replay_sharded(
                speed,
                events,
                ShardPolicySpec::MaxMargin,
                &partitioner,
                ShardOptions::new(shards).stream(options).validate(false),
                &mut metrics,
            )
        };
        (summary, metrics)
    };
    let (seq_summary, seq_metrics) = run(1);
    assert_eq!(seq_summary.tasks, 1_000_000);
    let (summary, metrics) = run(4);
    assert_eq!(summary.tasks, 1_000_000);
    assert_eq!(summary.served, seq_summary.served);
    assert_eq!(summary.rejected, seq_summary.rejected);
    assert_eq!(metrics, seq_metrics, "1M-task sharded metrics diverged");
    // Bounded memory: held orders stay far below the trace in every shard.
    assert!(
        summary.peak_held_tasks < 10_000,
        "{}",
        summary.peak_held_tasks
    );
}
