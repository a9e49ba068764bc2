//! The three replay workloads: `replay-sparse` (full pipeline, the
//! BENCH_7 regime), `replay-dense` and `replay-batch` (`.rtb`-fed, as
//! `replay --input`).

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rideshare_core::{Driver, StreamPricer};
use rideshare_geo::{BoundingBox, SpeedModel};
use rideshare_metrics::StreamMetrics;
use rideshare_online::{
    replay_sharded, wire_to_event, BoxPartitioner, MatcherKind, RegionPartitioner, ShardOptions,
    ShardPolicySpec, StreamEngine, StreamEvent, StreamOptions, StreamSummary,
};
use rideshare_trace::{rtb, TraceConfig};
use rideshare_types::TimeDelta;

use super::{build_options, err, measure, overhead_share, peak_rss, write_rtb, Ctx, Pass, Spec};
use crate::env;
use crate::probes::TimedSink;
use crate::report::{Metrics, Outcome};
use crate::spans::{Busy, Tracer};
use crate::stats::{median, Histogram};

/// `seed 0` of `replay-sparse` at full size serves exactly this many
/// orders — the count `BENCH_7.json` committed.
const BENCH7_SERVED: usize = 4_168;
/// The throughputs `BENCH_7.json` committed, for the read-only
/// cross-check the traced `replay-sparse` prints.
const BENCH7_RTB_TASKS_PER_S: f64 = 2_799_641.0;
const BENCH7_PIPELINE_TASKS_PER_S: f64 = 858_128.0;

pub fn policy_of(label: &str) -> ShardPolicySpec {
    match label {
        "batch-3m" => batched(MatcherKind::Greedy),
        _ => ShardPolicySpec::MaxMargin,
    }
}

fn batched(matcher: MatcherKind) -> ShardPolicySpec {
    ShardPolicySpec::Batched {
        window: TimeDelta::from_mins(3),
        matcher,
    }
}

/// What one replay produced.
pub struct Replay {
    pub metrics: StreamMetrics,
    pub summary: StreamSummary,
    pub secs: f64,
    /// The part of `secs` spent reading the input file into memory.
    pub read_secs: f64,
}

impl Replay {
    pub fn into_pass(self) -> Pass<StreamMetrics> {
        let decided = self.metrics.served() + self.metrics.rejected();
        let tasks = self.summary.tasks as u64;
        Pass {
            tasks,
            secs: self.secs,
            attempted: tasks,
            failed: tasks.saturating_sub(decided as u64),
            fingerprint: self.metrics,
        }
    }
}

/// The full pipeline `rideshare replay` runs: lazy generation →
/// incremental surge pricing → dispatch → windowed metrics, all inside
/// the timed region.
pub fn full_pipeline(config: &TraceConfig, policy: ShardPolicySpec) -> Replay {
    let start = Instant::now();
    let stream = config.stream();
    let (speed, bbox) = (stream.speed(), stream.bounding_box());
    let mut pricer = StreamPricer::new(&build_options(), bbox, speed, stream.drivers());
    let mut holder = policy.holder();
    let mut policy = holder.as_policy();
    let mut metrics = StreamMetrics::hourly();
    let mut engine = StreamEngine::new(speed, StreamOptions::default().grid(bbox));
    for shift in stream.drivers() {
        let event = StreamEvent::DriverOnline(Driver::from(shift));
        engine.push(event, &mut policy, &mut metrics);
    }
    for trip in stream {
        let event = StreamEvent::TaskPublished(pricer.price(&trip));
        engine.push(event, &mut policy, &mut metrics);
    }
    let summary = engine.finish(&mut policy, &mut metrics);
    Replay {
        metrics,
        summary,
        secs: start.elapsed().as_secs_f64(),
        read_secs: 0.0,
    }
}

/// An `.rtb` file and what the engine needs to know about its trace.
pub struct RtbInput {
    pub path: PathBuf,
    pub speed: SpeedModel,
    pub bbox: BoundingBox,
}

impl RtbInput {
    pub fn build(config: &TraceConfig, path: PathBuf) -> io::Result<Self> {
        write_rtb(config, &path)?;
        Ok(RtbInput {
            path,
            speed: config.speed_model(),
            bbox: config.bounding_box(),
        })
    }
}

/// Exactly `replay --input`: slurp the file, decode records zero-copy,
/// push each into the engine.
pub fn rtb_pass(input: &RtbInput, policy: ShardPolicySpec) -> Result<Replay, String> {
    let start = Instant::now();
    let data = std::fs::read(&input.path).map_err(err("reading .rtb"))?;
    let read_secs = start.elapsed().as_secs_f64();
    let mut slice = rtb::RtbSlice::new(&data).map_err(err("opening .rtb"))?;
    let mut holder = policy.holder();
    let mut policy = holder.as_policy();
    let mut metrics = StreamMetrics::hourly();
    let mut engine = StreamEngine::new(input.speed, StreamOptions::default().grid(input.bbox));
    while let Some(event) = slice
        .next()
        .map_err(err("decoding .rtb"))?
        .and_then(wire_to_event)
    {
        engine.push(event, &mut policy, &mut metrics);
    }
    let summary = engine.finish(&mut policy, &mut metrics);
    Ok(Replay {
        metrics,
        summary,
        secs: start.elapsed().as_secs_f64(),
        read_secs,
    })
}

fn check_replay(outcome: &mut Outcome, spec: &Spec, ctx: &Ctx, metrics: &StreamMetrics) {
    outcome.check(
        metrics.served() + metrics.rejected() == metrics.published(),
        || {
            format!(
                "served {} + rejected {} != published {}",
                metrics.served(),
                metrics.rejected(),
                metrics.published()
            )
        },
    );
    if spec.name == "replay-sparse" && ctx.seed == 0 && ctx.shrink == 1 {
        outcome.check(metrics.served() == BENCH7_SERVED, || {
            format!(
                "seed 0 served {} orders, BENCH_7.json pins {BENCH7_SERVED}",
                metrics.served()
            )
        });
    }
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let config = ctx.trace(spec);
    let policy = policy_of(spec.policy);
    let fingerprint = if spec.name == "replay-sparse" {
        // The inputs are generated inside every pass, so set-up is the
        // warm-up pass alone.
        let measured = measure(
            ctx,
            &mut outcome,
            || Ok(()),
            |()| Ok(full_pipeline(&config, policy).into_pass()),
        )?;
        measured.fingerprint
    } else {
        let measured = measure(
            ctx,
            &mut outcome,
            || RtbInput::build(&config, ctx.dir.join("trace.rtb")).map_err(err("writing .rtb")),
            |input| Ok(rtb_pass(input, policy)?.into_pass()),
        )?;
        // The file must decide exactly what the generator-fed pipeline
        // decides over the same trace.
        let generator_fed = full_pipeline(&config, policy);
        outcome.check(generator_fed.metrics == measured.fingerprint, || {
            ".rtb-fed metrics differ from generator-fed metrics".into()
        });
        measured.fingerprint
    };
    check_replay(&mut outcome, spec, ctx, &fingerprint);
    Ok(outcome)
}

/// Busy time per layer over one traced replay, exact over every event.
#[derive(Default)]
struct Layers {
    wall_ns: u64,
    /// `TraceConfig::stream()`.
    stream_build: Busy,
    /// `fs::read`, pricer, engine and policy construction.
    construct: Busy,
    generate: Busy,
    price: Busy,
    decode: Busy,
    convert: Busy,
    push_driver: Busy,
    push_task: Busy,
    finish: Busy,
    push_task_ns: Histogram,
    window_close_ns: Histogram,
    peak_buffered: usize,
}

impl Layers {
    fn attributed_ns(&self) -> u64 {
        [
            self.stream_build,
            self.construct,
            self.generate,
            self.price,
            self.decode,
            self.convert,
            self.push_driver,
            self.push_task,
            self.finish,
        ]
        .iter()
        .map(|b| b.ns)
        .sum()
    }
}

/// A traced replay's result: the replay, the exact layer counters, and
/// the sink wrapper's counters.
struct Traced {
    replay: Replay,
    layers: Layers,
    sink: TimedSink<'static, StreamMetrics>,
}

/// Records the spans of one sampled event: the root, one child per layer
/// stamp, and under `push` one span per sink callback.
fn event_spans(
    tracer: &mut Tracer,
    id: u64,
    stamps: &[(&'static str, Instant)],
    end: Instant,
    sink_calls: &mut Vec<(&'static str, Instant, Instant)>,
) {
    let root = tracer.span("event", id, stamps[0].1, end, None);
    for (i, (name, start)) in stamps.iter().enumerate() {
        let stop = stamps.get(i + 1).map_or(end, |next| next.1);
        let span = tracer.span(name, id, *start, stop, Some(root));
        if *name == "online.stream.push" {
            for (call, from, to) in sink_calls.drain(..) {
                tracer.span(call, id, from, to, Some(span));
            }
        }
    }
}

fn traced_full_pipeline(
    config: &TraceConfig,
    policy: ShardPolicySpec,
    tracer: &mut Tracer,
) -> Traced {
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut stream = config.stream();
    let built = Instant::now();
    layers.stream_build.add(built - start);
    let (speed, bbox) = (stream.speed(), stream.bounding_box());
    let mut pricer = StreamPricer::new(&build_options(), bbox, speed, stream.drivers());
    let mut holder = policy.holder();
    let mut policy = holder.as_policy();
    let mut sink = TimedSink::new(StreamMetrics::hourly());
    let mut engine = StreamEngine::new(speed, StreamOptions::default().grid(bbox));
    let mut at = Instant::now();
    layers.construct.add(at - built);
    for shift in stream.drivers() {
        let event = StreamEvent::DriverOnline(Driver::from(shift));
        engine.push(event, &mut policy, &mut sink);
        let now = Instant::now();
        layers.push_driver.add(now - at);
        at = now;
    }
    let mut id = 0u64;
    loop {
        let trip = stream.next();
        let generated = Instant::now();
        layers.generate.add(generated - at);
        let Some(trip) = trip else {
            at = generated;
            break;
        };
        let task = pricer.price(&trip);
        let priced = Instant::now();
        layers.price.add(priced - generated);
        sink.record_calls = tracer.sampled(id);
        sink.window_fired = false;
        engine.push(StreamEvent::TaskPublished(task), &mut policy, &mut sink);
        let pushed = Instant::now();
        layers.push_task.add(pushed - priced);
        layers
            .push_task_ns
            .record((pushed - priced).as_nanos() as u64);
        if sink.window_fired {
            layers
                .window_close_ns
                .record((pushed - priced).as_nanos() as u64);
        }
        if sink.record_calls {
            let stamps = [
                ("trace.stream.next", at),
                ("core.pricer.price", generated),
                ("online.stream.push", priced),
            ];
            event_spans(tracer, id, &stamps, pushed, &mut sink.calls);
        }
        id += 1;
        at = pushed;
    }
    layers.peak_buffered = stream.peak_buffered();
    sink.record_calls = false;
    let summary = engine.finish(&mut policy, &mut sink);
    let end = Instant::now();
    layers.finish.add(end - at);
    layers.wall_ns = (end - start).as_nanos() as u64;
    Traced {
        replay: Replay {
            metrics: sink.inner().clone(),
            summary,
            secs: (end - start).as_secs_f64(),
            read_secs: 0.0,
        },
        layers,
        sink,
    }
}

fn traced_rtb_pass(
    input: &RtbInput,
    policy: ShardPolicySpec,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let mut layers = Layers::default();
    let start = Instant::now();
    let data = std::fs::read(&input.path).map_err(err("reading .rtb"))?;
    let mut slice = rtb::RtbSlice::new(&data).map_err(err("opening .rtb"))?;
    let mut holder = policy.holder();
    let mut policy = holder.as_policy();
    let mut sink = TimedSink::new(StreamMetrics::hourly());
    let mut engine = StreamEngine::new(input.speed, StreamOptions::default().grid(input.bbox));
    let mut at = Instant::now();
    layers.construct.add(at - start);
    let mut id = 0u64;
    loop {
        let wire = slice.next().map_err(err("decoding .rtb"))?;
        let decoded = Instant::now();
        layers.decode.add(decoded - at);
        let event = wire.and_then(wire_to_event);
        let converted = Instant::now();
        layers.convert.add(converted - decoded);
        let Some(event) = event else {
            at = converted;
            break;
        };
        let is_task = matches!(event, StreamEvent::TaskPublished(_));
        sink.record_calls = is_task && tracer.sampled(id);
        sink.window_fired = false;
        engine.push(event, &mut policy, &mut sink);
        let pushed = Instant::now();
        if is_task {
            layers.push_task.add(pushed - converted);
            layers
                .push_task_ns
                .record((pushed - converted).as_nanos() as u64);
            if sink.window_fired {
                layers
                    .window_close_ns
                    .record((pushed - converted).as_nanos() as u64);
            }
            if sink.record_calls {
                let stamps = [
                    ("trace.rtb.slice_decode", at),
                    ("online.ingest.wire_to_event", decoded),
                    ("online.stream.push", converted),
                ];
                event_spans(tracer, id, &stamps, pushed, &mut sink.calls);
            }
            id += 1;
        } else {
            layers.push_driver.add(pushed - converted);
        }
        at = pushed;
    }
    sink.record_calls = false;
    let summary = engine.finish(&mut policy, &mut sink);
    let end = Instant::now();
    layers.finish.add(end - at);
    layers.wall_ns = (end - start).as_nanos() as u64;
    Ok(Traced {
        replay: Replay {
            metrics: sink.inner().clone(),
            summary,
            secs: (end - start).as_secs_f64(),
            read_secs: 0.0,
        },
        layers,
        sink,
    })
}

/// The per-layer metrics every traced replay yields.
fn report_layers(metrics: &mut Metrics, traced: &Traced) {
    let Traced {
        replay,
        layers,
        sink,
    } = traced;
    let wall = layers.wall_ns as f64;
    let share = |ns: u64| ns as f64 / wall;
    metrics.put("trace.attributed_share", share(layers.attributed_ns()));

    if layers.generate.count > 0 {
        metrics.put("trace.stream.build_ms", layers.stream_build.ms());
        metrics.put(
            "trace.stream.next_ns_per_trip",
            layers.generate.ns_per_call(),
        );
        metrics.put("trace.stream.peak_buffered", layers.peak_buffered as f64);
        metrics.put(
            "trace.stream.share",
            share(layers.stream_build.ns + layers.generate.ns),
        );
        metrics.put("core.pricer.price_ns_per_task", layers.price.ns_per_call());
        metrics.put("core.pricer.share", share(layers.price.ns));
    }
    if layers.decode.count > 0 {
        metrics.put("trace.rtb.share", share(layers.decode.ns));
        metrics.put(
            "online.ingest.wire_to_event_ns",
            layers.convert.ns_per_call(),
        );
        metrics.put("online.ingest.share", share(layers.convert.ns));
    }

    let push_ns = layers.push_driver.ns + layers.push_task.ns + layers.finish.ns;
    metrics.put(
        "online.stream.self_share",
        share(push_ns.saturating_sub(sink.total_ns())),
    );
    metrics.put(
        "online.stream.push_driver_ns",
        layers.push_driver.ns_per_call(),
    );
    metrics.put(
        "online.stream.push_task_ns_p50",
        layers.push_task_ns.quantile(0.5),
    );
    metrics.put(
        "online.stream.push_task_ns_p99",
        layers.push_task_ns.supported(0.99),
    );
    metrics.put("online.stream.finish_ms", layers.finish.ms());
    report_summary(metrics, &replay.summary, sink.candidates);

    metrics.put("metrics.share", share(sink.total_ns()));
    report_sink(metrics, sink);
    report_snapshot(metrics, &replay.metrics);
}

pub fn report_summary(metrics: &mut Metrics, summary: &StreamSummary, candidates: u64) {
    metrics.put(
        "online.stream.peak_resident",
        summary.peak_resident() as f64,
    );
    metrics.put(
        "online.stream.compacted_drivers",
        summary.compacted_drivers as f64,
    );
    metrics.put(
        "online.stream.candidates_per_served",
        candidates as f64 / summary.served.max(1) as f64,
    );
    metrics.put(
        "online.stream.served_share",
        summary.served as f64 / summary.tasks.max(1) as f64,
    );
}

pub fn report_sink<S: rideshare_online::StreamSink>(
    metrics: &mut Metrics,
    sink: &TimedSink<'_, S>,
) {
    metrics.put("metrics.sink.dispatched_ns", sink.dispatched.ns_per_call());
    metrics.put("metrics.sink.rejected_ns", sink.rejected.ns_per_call());
    metrics.put(
        "metrics.sink.window_closed_ns",
        sink.window_closed.ns_per_call(),
    );
}

/// Canonical snapshot write/parse and the exact merge, over the run's own
/// final accumulator.
pub fn report_snapshot(metrics: &mut Metrics, accumulator: &StreamMetrics) {
    const REPS: usize = 5;
    let mut write_ms = Vec::new();
    let mut parse_ms = Vec::new();
    let mut merge_ns = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let json = accumulator.to_canonical_json();
        write_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let parsed = StreamMetrics::from_canonical_json(&json);
        parse_ms.push(start.elapsed().as_secs_f64() * 1e3);
        black_box(&parsed);
        let mut into = accumulator.clone();
        let start = Instant::now();
        into.merge(accumulator);
        merge_ns.push(start.elapsed().as_nanos() as f64);
        black_box(&into);
    }
    metrics.put("metrics.snapshot.to_json_ms", median(&write_ms));
    metrics.put("metrics.snapshot.from_json_ms", median(&parse_ms));
    metrics.put("metrics.merge_ns", median(&merge_ns));
}

/// The `.rtb` codec by itself: decode through the zero-copy slice and
/// through the incremental file reader, and encode (a decode → encode
/// loop minus the decode-only loop).
fn report_rtb_codec(metrics: &mut Metrics, path: &Path) -> Result<(), String> {
    let data = std::fs::read(path).map_err(err("reading .rtb"))?;
    let start = Instant::now();
    let mut slice = rtb::RtbSlice::new(&data).map_err(err("opening .rtb"))?;
    let mut events = 0u64;
    while let Some(event) = slice.next().map_err(err("decoding .rtb"))? {
        black_box(&event);
        events += 1;
    }
    let decode_ns = start.elapsed().as_nanos() as f64;

    let start = Instant::now();
    let mut slice = rtb::RtbSlice::new(&data).map_err(err("opening .rtb"))?;
    let mut writer = rtb::RtbWriter::new(io::sink()).map_err(err("encoding .rtb"))?;
    while let Some(event) = slice.next().map_err(err("decoding .rtb"))? {
        writer.write_event(&event).map_err(err("encoding .rtb"))?;
    }
    writer.finish().map_err(err("encoding .rtb"))?;
    let both_ns = start.elapsed().as_nanos() as f64;

    let start = Instant::now();
    let mut reader = rtb::RtbFileReader::open(path).map_err(err("opening .rtb"))?;
    while let Some(event) = reader.next().map_err(err("decoding .rtb"))? {
        black_box(&event);
    }
    let file_ns = start.elapsed().as_nanos() as f64;

    let n = events.max(1) as f64;
    metrics.put("trace.rtb.slice_decode_ns_per_event", decode_ns / n);
    metrics.put(
        "trace.rtb.encode_ns_per_event",
        (both_ns - decode_ns).max(0.0) / n,
    );
    metrics.put("trace.rtb.file_decode_ns_per_event", file_ns / n);
    metrics.put("trace.rtb.bytes_per_event", data.len() as f64 / n);
    Ok(())
}

/// Two shards over the region-tagged sparse `.rtb`. Counts only: on a
/// shared two-core box three identical sharded runs differed by a third,
/// so no end-to-end metric rests on this.
fn report_sharded(
    outcome: &mut Outcome,
    config: &TraceConfig,
    input: &RtbInput,
    sequential: &StreamMetrics,
) -> Result<(), String> {
    const SHARDS: usize = 2;
    let data = std::fs::read(&input.path).map_err(err("reading .rtb"))?;
    let partitioner = BoxPartitioner::new(config.region_boxes());

    let mut per_shard = [0u64; SHARDS];
    let mut slice = rtb::RtbSlice::new(&data).map_err(err("opening .rtb"))?;
    while let Some(event) = slice
        .next()
        .map_err(err("decoding .rtb"))?
        .and_then(wire_to_event)
    {
        let at = match event {
            StreamEvent::DriverOnline(d) => d.source,
            StreamEvent::TaskPublished(t) => t.origin,
            _ => continue,
        };
        per_shard[partitioner.shard_of(partitioner.region_of(at), SHARDS)] += 1;
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    outcome.metrics.put(
        "online.shard.events_per_shard_max_over_mean",
        max / mean.max(1.0),
    );

    let mut slice = rtb::RtbSlice::new(&data).map_err(err("opening .rtb"))?;
    let mut decode_failed = false;
    let events = std::iter::from_fn(|| match slice.next() {
        Ok(wire) => wire.and_then(wire_to_event),
        Err(_) => {
            decode_failed = true;
            None
        }
    });
    let mut sharded = StreamMetrics::hourly();
    let cpu_before = env::cpu_seconds();
    let start = Instant::now();
    replay_sharded(
        input.speed,
        events,
        ShardPolicySpec::MaxMargin,
        &partitioner,
        ShardOptions::new(SHARDS)
            .stream(StreamOptions::default().grid(input.bbox))
            .validate(false),
        &mut sharded,
    );
    let wall_s = start.elapsed().as_secs_f64();
    outcome.metrics.put("online.shard.wall_s", wall_s);
    if let (Some(before), Some(after)) = (cpu_before, env::cpu_seconds()) {
        outcome.metrics.put("online.shard.cpu_s", after - before);
    }
    let equal = !decode_failed && sharded == *sequential;
    outcome
        .metrics
        .put("online.shard.equals_sequential", f64::from(u8::from(equal)));
    outcome.check(equal, || {
        "2-shard replay differs from the sequential replay".into()
    });
    Ok(())
}

pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let config = ctx.trace(spec);
    let policy = policy_of(spec.policy);
    // < 200k spans: four or more per sampled event.
    let mut tracer = Tracer::new((ctx.tasks(spec) as u64 / 25_000).max(1));

    let traced = if spec.name == "replay-sparse" {
        let _warm_up = full_pipeline(&config, policy);
        let untraced = full_pipeline(&config, policy);
        peak_rss(&mut outcome.metrics);
        let traced = traced_full_pipeline(&config, policy, &mut tracer);
        outcome.check(traced.replay.metrics == untraced.metrics, || {
            "traced pass decided differently from the untraced pass".into()
        });
        overhead_share(&mut outcome.metrics, untraced.secs, traced.replay.secs);
        report_layers(&mut outcome.metrics, &traced);

        // BENCH_7 continuity: the same trace, `.rtb`-fed.
        let input =
            RtbInput::build(&config, ctx.dir.join("trace.rtb")).map_err(err("writing .rtb"))?;
        let mut rates = Vec::new();
        for _ in 0..3 {
            let pass = rtb_pass(&input, policy)?;
            outcome.check(pass.metrics == untraced.metrics, || {
                ".rtb-fed metrics differ from generator-fed metrics".into()
            });
            // As `bench7` timed it: from memory, the read left out.
            rates.push(pass.summary.tasks as f64 / (pass.secs - pass.read_secs));
        }
        let rtb_rate = median(&rates);
        let pipeline_rate = untraced.summary.tasks as f64 / untraced.secs;
        outcome
            .metrics
            .put("online.stream.sparse_rtb_tasks_per_s", rtb_rate);
        println!(
            "BENCH_7 cross-check: .rtb-fed {rtb_rate:.0} tasks/s (committed {BENCH7_RTB_TASKS_PER_S:.0}), \
             full pipeline {pipeline_rate:.0} tasks/s (committed {BENCH7_PIPELINE_TASKS_PER_S:.0})"
        );
        report_rtb_codec(&mut outcome.metrics, &input.path)?;
        report_sharded(&mut outcome, &config, &input, &untraced.metrics)?;
        traced
    } else {
        let input =
            RtbInput::build(&config, ctx.dir.join("trace.rtb")).map_err(err("writing .rtb"))?;
        let _warm_up = rtb_pass(&input, policy)?;
        let untraced = rtb_pass(&input, policy)?;
        peak_rss(&mut outcome.metrics);
        let traced = traced_rtb_pass(&input, policy, &mut tracer)?;
        outcome.check(traced.replay.metrics == untraced.metrics, || {
            "traced pass decided differently from the untraced pass".into()
        });
        overhead_share(&mut outcome.metrics, untraced.secs, traced.replay.secs);
        report_layers(&mut outcome.metrics, &traced);
        report_rtb_codec(&mut outcome.metrics, &input.path)?;
        if spec.name == "replay-batch" {
            let windows = traced.sink.window_closed.count;
            outcome.metrics.put("online.batch.windows", windows as f64);
            outcome.metrics.put(
                "online.batch.tasks_per_window",
                traced.replay.summary.tasks as f64 / windows.max(1) as f64,
            );
            outcome.metrics.put(
                "online.batch.window_close_ns_p50",
                traced.layers.window_close_ns.quantile(0.5),
            );
            outcome.metrics.put(
                "online.batch.window_close_ns_p99",
                traced.layers.window_close_ns.supported(0.99),
            );
            // The LP matcher over the same windows, once.
            let optimal = rtb_pass(&input, batched(MatcherKind::Optimal))?;
            outcome.metrics.put(
                "online.batch.opt_tasks_per_s",
                optimal.summary.tasks as f64 / optimal.secs,
            );
        }
        traced
    };
    check_replay(&mut outcome, spec, ctx, &traced.replay.metrics);
    outcome.attempted = traced.replay.summary.tasks as u64;
    outcome.info("spans", tracer.len().to_string());
    tracer
        .write_json(
            &ctx.out_dir.join(format!("trace-{}.json", spec.name)),
            spec.name,
        )
        .map_err(err("writing spans"))?;
    Ok(outcome)
}
