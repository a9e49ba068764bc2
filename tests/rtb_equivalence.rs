//! The `.rtb` binary-replay equivalence battery.
//!
//! `rideshare export --format bin` freezes the lazy generator→pricer
//! pipeline into a compact fixed-width event log, and
//! `rideshare replay --input <file.rtb>` decodes it zero-copy straight
//! into the dispatch engine. That substitution must be invisible: the
//! binary hop is a transport, not a second dispatcher. This suite pins
//! that from three angles:
//!
//! - **golden corpus byte-pin** — `snapshots/golden_trace.rtb` is a
//!   committed export (seed 7, 120 tasks, 10 drivers, 2 regions).
//!   Re-encoding the same pipeline must reproduce the file byte for byte
//!   (catches encoder layout/endianness drift against bytes written by
//!   the encoder as it was when the corpus was committed), and decoding
//!   the committed bytes must yield exactly the pipeline's events
//!   (catches decoder drift independently of the encoder),
//! - **event identity** — encode → decode over the pipeline stream is the
//!   identity, so everything downstream of the decode is trivially fed
//!   the same inputs,
//! - **replay equivalence** — generator-fed and `.rtb`-fed replays
//!   produce identical decisions *and* exact-equal [`StreamMetrics`]
//!   across the shard-stable policy matrix `{margin, nearest, batch-3m,
//!   batch-opt-3m}` × shard counts `{1, 2, 4}`, grid pruning on — the
//!   acceptance pin for the zero-alloc binary hot path.

use rideshare::online::{
    event_to_wire, wire_to_event, MatcherKind, ShardPolicySpec, SimulationResult,
};
use rideshare::prelude::*;
use rideshare::trace::rtb;

/// The exact `export`/`replay` generator pipeline: announce every shift
/// up front, then publish surge-priced trips in publish order.
struct Pipeline {
    speed: SpeedModel,
    bbox: BoundingBox,
    events: Vec<StreamEvent>,
}

fn pipeline(seed: u64, tasks: usize, drivers: usize, regions: usize) -> Pipeline {
    let mut config = TraceConfig::porto()
        .with_seed(seed)
        .with_task_count(tasks)
        .with_driver_count(drivers, DriverModel::Hitchhiking);
    if regions > 1 {
        config = config.with_regions(regions);
    }
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };
    Pipeline {
        speed,
        bbox,
        events: priced_events(stream, &build).collect(),
    }
}

fn encode(events: &[StreamEvent]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let wire: Vec<_> = events.iter().map(event_to_wire).collect();
    rtb::write_events(&mut bytes, &wire).expect("in-memory write cannot fail");
    bytes
}

fn decode(bytes: &[u8]) -> Vec<StreamEvent> {
    rtb::read_events(bytes)
        .expect("committed/encoded corpus must decode")
        .into_iter()
        .filter_map(wire_to_event)
        .collect()
}

/// The committed golden corpus: regenerating the same seeded pipeline
/// must reproduce the committed bytes exactly, and the committed bytes
/// must decode back to the pipeline's events. Either assert failing means
/// the on-disk layout drifted — bump the format version and re-commit the
/// corpus deliberately, never silently.
#[test]
fn golden_corpus_is_byte_pinned() {
    const GOLDEN: &[u8] = include_bytes!("snapshots/golden_trace.rtb");
    let p = pipeline(7, 120, 10, 2);

    let encoded = encode(&p.events);
    assert_eq!(
        encoded.len(),
        GOLDEN.len(),
        "re-encoded corpus length drifted from the committed golden file"
    );
    assert!(
        encoded == GOLDEN,
        "re-encoded corpus bytes drifted from the committed golden file"
    );

    assert_eq!(
        decode(GOLDEN),
        p.events,
        "committed golden bytes no longer decode to the pipeline's events"
    );
}

/// A sink that feeds two sinks at once — decisions into a
/// [`CollectingSink`], aggregates into [`StreamMetrics`] — so one replay
/// pins both without running twice.
struct Tee<'a>(&'a mut CollectingSink, &'a mut StreamMetrics);

impl StreamSink for Tee<'_> {
    fn driver_online(&mut self, driver: &Driver) {
        self.0.driver_online(driver);
        self.1.driver_online(driver);
    }
    fn dispatched(&mut self, task: &Task, event: &rideshare::online::DispatchEvent) {
        self.0.dispatched(task, event);
        self.1.dispatched(task, event);
    }
    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        self.0.rejected(task, decision_time);
        self.1.rejected(task, decision_time);
    }
    fn window_closed(&mut self, end: Timestamp) {
        self.0.window_closed(end);
        self.1.window_closed(end);
    }
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
        (
            "batch-opt-3m",
            ShardPolicySpec::Batched {
                window: TimeDelta::from_mins(3),
                matcher: MatcherKind::Optimal,
            },
        ),
    ]
}

fn run(
    p: &Pipeline,
    events: Vec<StreamEvent>,
    spec: ShardPolicySpec,
    shards: usize,
    partitioner: &dyn RegionPartitioner,
) -> (SimulationResult, StreamMetrics) {
    let mut decisions = CollectingSink::new();
    let mut metrics = StreamMetrics::hourly();
    let mut sink = Tee(&mut decisions, &mut metrics);
    if shards == 1 {
        let mut holder = spec.holder();
        let mut policy = holder.as_policy();
        let _ = replay_stream(
            p.speed,
            events,
            &mut policy,
            StreamOptions::default().grid(p.bbox),
            &mut sink,
        );
    } else {
        let _ = replay_sharded(
            p.speed,
            events,
            spec,
            partitioner,
            ShardOptions::new(shards).stream(StreamOptions::default().grid(p.bbox)),
            &mut sink,
        );
    }
    (decisions.into_result(), metrics)
}

/// The acceptance pin: `.rtb`-fed replay is byte-identical — decisions
/// and exact `StreamMetrics` — to generator-fed replay, for every
/// shard-stable policy at 1, 2, and 4 shards.
#[test]
fn rtb_replay_matches_generator_fed_replay_across_policies_and_shards() {
    let mut config = TraceConfig::porto()
        .with_seed(11)
        .with_task_count(2_000)
        .with_driver_count(40, DriverModel::Hitchhiking);
    config = config.with_regions(4);
    let region_boxes = config.region_boxes();
    let p = pipeline(11, 2_000, 40, 4);

    let rtb_events = decode(&encode(&p.events));
    assert_eq!(rtb_events, p.events, "encode→decode must be the identity");

    let partitioner = BoxPartitioner::new(region_boxes);
    for (label, spec) in policy_matrix() {
        for shards in [1usize, 2, 4] {
            let (from_generator, generator_metrics) =
                run(&p, p.events.clone(), spec, shards, &partitioner);
            let (from_rtb, rtb_metrics) = run(&p, rtb_events.clone(), spec, shards, &partitioner);
            assert_eq!(
                from_generator.dispatch, from_rtb.dispatch,
                "dispatch drifted: policy={label} shards={shards}"
            );
            assert_eq!(
                from_generator.events, from_rtb.events,
                "events drifted: policy={label} shards={shards}"
            );
            assert_eq!(
                (from_generator.served, from_generator.rejected),
                (from_rtb.served, from_rtb.rejected),
                "counters drifted: policy={label} shards={shards}"
            );
            assert_eq!(
                generator_metrics, rtb_metrics,
                "StreamMetrics drifted: policy={label} shards={shards}"
            );
        }
    }
}
