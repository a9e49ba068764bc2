//! The two daemon workloads: `serve-tcp` (binary frames over loopback
//! TCP) and `serve-jsonl` (the same events as a JSONL file). The daemon
//! is wired as `rideshare serve --tsdb-dir --snapshot-dir` wires it: one
//! shard, the telemetry recorder over the metrics journal, an hourly
//! snapshot hook writing canonical JSON, day rollover flushing the store.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rideshare_metrics::{MetricsJournal, StreamMetrics};
use rideshare_online::{
    wire_to_event, EventGuard, FileSource, IngestFormat, IngestSource, ServeConfig, ServeDaemon,
    ServeReport, ServeStop, ShardOptions, ShardPolicySpec, StreamOptions, StreamSink, TcpSource,
};
use rideshare_trace::wire::{self, FrameDecoder, WireEvent};
use rideshare_trace::TraceConfig;
use rideshare_tsdb::codec::{decode_chunk, encode_chunk};
use rideshare_tsdb::recorder::{METRIC_PROFIT, METRIC_REJECTED, METRIC_REVENUE, METRIC_SERVED};
use rideshare_tsdb::store::CHUNK_LEN;
use rideshare_tsdb::{
    run_query, to_canonical_json, Agg, LabelFilter, RangeQuery, RunLabels, TsdbError, TsdbRecorder,
    TsdbStore,
};
use rideshare_types::TimeDelta;

use super::replay::{full_pipeline, report_sink, report_snapshot, report_summary};
use super::{err, measure, overhead_share, peak_rss, write_frames, write_jsonl, Ctx, Pass, Spec};
use crate::pacing::{self, PacedReport, Schedule};
use crate::probes::{SourceProbe, TimedSink, TimedSource, Trigger};
use crate::report::{Metrics, Outcome};
use crate::spans::{Busy, Tracer};
use crate::stats::median;

/// The open-loop rate of the paced passes — about a quarter of what the
/// daemon takes under blast, so a backlog means a stall, not saturation —
/// and two rates either side that show how latency moves with load (the
/// high one is above what the traced daemon sustains on a two-core box:
/// its backlog grows for as long as the pass lasts).
const PACED_RATE: f64 = 200_000.0;
const LOW_RATE: f64 = 100_000.0;
const HIGH_RATE: f64 = 800_000.0;
/// Repetitions of the open → query → render measurement.
const QUERY_REPS: usize = 101;

/// The event file of one workload: frames for `serve-tcp`, JSONL for
/// `serve-jsonl`.
struct Input {
    path: PathBuf,
    tcp: bool,
    /// Events in the file, not counting the end-of-stream marker.
    events: u64,
    config: TraceConfig,
    regions: usize,
}

impl Input {
    fn build(spec: &Spec, ctx: &Ctx) -> Result<Self, String> {
        let config = ctx.trace(spec);
        let tcp = spec.name == "serve-tcp";
        let path = ctx
            .dir
            .join(if tcp { "events.frames" } else { "events.jsonl" });
        let events = if tcp {
            write_frames(&config, &path)
        } else {
            write_jsonl(&config, &path)
        }
        .map_err(err("writing the event file"))?;
        Ok(Input {
            path,
            tcp,
            events,
            config,
            regions: spec.regions,
        })
    }
}

/// What the daemon's hooks need from whichever sink stack a pass uses.
trait Ledger: StreamSink {
    fn journal(&mut self) -> &mut MetricsJournal;
    fn flush_store(&mut self) -> Result<(), TsdbError>;
}

impl Ledger for TsdbRecorder<MetricsJournal> {
    fn journal(&mut self) -> &mut MetricsJournal {
        self.inner_mut()
    }

    fn flush_store(&mut self) -> Result<(), TsdbError> {
        TsdbRecorder::flush_store(self)
    }
}

/// A traced pass's sink: timed callbacks around the recorder, and around
/// the journal inside it, so the recorder's own time is the difference.
type TracedSink<'t> = TimedSink<'t, TsdbRecorder<TimedSink<'t, MetricsJournal>>>;

impl Ledger for TracedSink<'_> {
    fn journal(&mut self) -> &mut MetricsJournal {
        self.inner_mut().inner_mut().inner_mut()
    }

    fn flush_store(&mut self) -> Result<(), TsdbError> {
        self.inner_mut().flush_store()
    }
}

/// Runs the daemon once: `source` in, `sink` out, snapshots under `dir`.
/// Anything but a clean drain is an error — these workloads are chosen so
/// that no operation fails.
fn serve_into<S: Ledger>(
    input: &Input,
    dir: &Path,
    source: &mut dyn IngestSource,
    sink: &mut S,
    snapshot_hook: &mut Busy,
) -> Result<ServeReport, String> {
    let snapshots = dir.join("snapshots");
    std::fs::create_dir_all(&snapshots).map_err(err("creating the snapshot directory"))?;
    // The daemon has no trace in hand: like the CLI it prunes over the
    // city model's bounding box.
    let options = StreamOptions::default().grid(rideshare_geo::porto::bounding_box());
    let config = ServeConfig::new(1)
        .shard_options(ShardOptions::new(1).stream(options).validate(false))
        .snapshot_every(TimeDelta::from_hours(1));
    let daemon = ServeDaemon::new(
        input.config.speed_model(),
        ShardPolicySpec::MaxMargin,
        config,
    );
    let write_error = std::cell::RefCell::new(None);
    let write = |name: String, json: String| {
        if let Err(e) = std::fs::write(snapshots.join(&name), json + "\n") {
            write_error
                .borrow_mut()
                .get_or_insert(format!("writing {name}: {e}"));
        }
    };
    let outcome = daemon.run(
        source,
        sink,
        |point, sink: &mut S| {
            let start = Instant::now();
            let json = sink.journal().cumulative().to_canonical_json();
            write(format!("snap-{:05}.json", point.seq), json);
            snapshot_hook.add(start.elapsed());
        },
        |point, sink: &mut S| {
            let closed = sink.journal().roll_day();
            write(
                format!("day-{:05}.json", point.day),
                closed.to_canonical_json(),
            );
            if let Err(e) = sink.flush_store() {
                write_error
                    .borrow_mut()
                    .get_or_insert(format!("flushing the store: {e}"));
            }
        },
    );
    if let Some(e) = write_error.into_inner() {
        return Err(e);
    }
    if let Some(e) = outcome.error {
        return Err(format!("ingest error: {e}"));
    }
    if outcome.report.stop != ServeStop::Drained {
        return Err("the daemon stopped without draining".into());
    }
    Ok(outcome.report)
}

/// The pass directory, emptied: a store only appends, so every pass
/// records into a fresh one.
fn fresh_dir(ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = ctx.dir.join("pass");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(err("creating the pass directory"))?;
    Ok(dir)
}

fn open_store(dir: &Path) -> Result<TsdbStore, String> {
    TsdbStore::open(dir).map_err(err("opening the store"))
}

fn labels(input: &Input) -> RunLabels {
    RunLabels::new("serve", "margin", input.regions, 1)
}

/// What one daemon run left behind.
struct Served {
    report: ServeReport,
    metrics: StreamMetrics,
    secs: f64,
    store_dir: PathBuf,
}

/// Accepts the load generator's connection and hands the daemon side of
/// it to `serve`; joins the generator whatever `serve` returns.
fn over_loopback<G: Send, R>(
    generate: impl FnOnce(std::net::SocketAddr) -> std::io::Result<G> + Send,
    serve: impl FnOnce(TcpSource) -> Result<R, String>,
) -> Result<(G, R), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err("binding loopback"))?;
    let addr = listener.local_addr().map_err(err("loopback address"))?;
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || generate(addr));
        let served = listener
            .accept()
            .map_err(err("accepting"))
            .and_then(|(conn, _)| serve(TcpSource::from_stream(conn)));
        // `serve` consumed the source: the socket is closed, so a
        // generator still writing after a daemon error fails and ends.
        let generated = generator
            .join()
            .map_err(|_| "the load generator panicked".to_string())?
            .map_err(err("load generator"));
        Ok((generated?, served?))
    })
}

/// One untraced pass: bare source, bare sink stack. `record` off swaps
/// the recorder for its pass-through form (the recorder-overhead
/// baseline).
fn untraced_pass(input: &Input, ctx: &Ctx, record: bool) -> Result<Served, String> {
    let dir = fresh_dir(ctx)?;
    let store_dir = dir.join("tsdb");
    let mut hook = Busy::default();
    let start = Instant::now();
    let mut sink = if record {
        TsdbRecorder::new(
            open_store(&store_dir)?,
            labels(input),
            MetricsJournal::hourly(),
        )
    } else {
        TsdbRecorder::passthrough(MetricsJournal::hourly())
    };
    let report = if input.tcp {
        over_loopback(
            |addr| pacing::blast(&input.path, addr),
            |mut source| serve_into(input, &dir, &mut source, &mut sink, &mut hook),
        )?
        .1
    } else {
        let mut source = FileSource::open(&input.path, IngestFormat::Jsonl)
            .map_err(err("opening the event log"))?;
        serve_into(input, &dir, &mut source, &mut sink, &mut hook)?
    };
    let (_, journal) = sink.finish().map_err(err("flushing the store"))?;
    Ok(Served {
        report,
        metrics: journal.into_cumulative(),
        secs: start.elapsed().as_secs_f64(),
        store_dir,
    })
}

fn total_of(store: &TsdbStore, metric: &str) -> Result<i128, String> {
    let query = RangeQuery {
        filter: LabelFilter::any()
            .with("metric", metric)
            .map_err(err("label filter"))?,
        from: i64::MIN,
        to: i64::MAX,
        step: 3600,
    };
    let result = run_query(store, &query).map_err(err("query"))?;
    Ok(result.total.map_or(0, |t| t.sum))
}

/// The drained daemon against its references: the accumulator a plain
/// replay of the same trace builds, and its own store's whole-range
/// totals. Returns how many orders ended undecided.
fn check_served(
    outcome: &mut Outcome,
    input: &Input,
    served: &Served,
    reference: &StreamMetrics,
) -> Result<u64, String> {
    let metrics = &served.metrics;
    outcome.check(metrics == reference, || {
        "the drained daemon's metrics differ from a replay of the same trace".into()
    });
    outcome.check(served.report.events as u64 == input.events, || {
        format!(
            "the daemon admitted {} of {} events",
            served.report.events, input.events
        )
    });
    let store = open_store(&served.store_dir)?;
    let recorded = [
        (METRIC_SERVED, metrics.served() as i128),
        (METRIC_REJECTED, metrics.rejected() as i128),
        (METRIC_REVENUE, metrics.revenue_raw()),
        (METRIC_PROFIT, metrics.profit_raw()),
    ];
    for (metric, expected) in recorded {
        let total = total_of(&store, metric)?;
        outcome.check(total == expected, || {
            format!("store total of {metric} is {total}, the accumulator holds {expected}")
        });
    }
    let decided = metrics.served() + metrics.rejected();
    Ok(metrics.published().saturating_sub(decided) as u64)
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let measured = measure(
        ctx,
        &mut outcome,
        || Input::build(spec, ctx),
        |input| {
            let served = untraced_pass(input, ctx, true)?;
            let tasks = served.report.summary.tasks as u64;
            let decided = served.metrics.served() + served.metrics.rejected();
            Ok(Pass {
                tasks,
                secs: served.secs,
                attempted: tasks,
                failed: tasks.saturating_sub(decided as u64),
                fingerprint: served.metrics,
            })
        },
    )?;
    // One more pass, outside the timed ones, for the checks that read the
    // store back.
    let input = &measured.input;
    let reference = full_pipeline(&input.config, ShardPolicySpec::MaxMargin).metrics;
    let served = untraced_pass(input, ctx, true)?;
    outcome.check(served.metrics == measured.fingerprint, || {
        "the checked pass differs from the timed passes".into()
    });
    check_served(&mut outcome, input, &served, &reference)?;
    Ok(outcome)
}

/// What a traced pass found, beyond [`Served`].
struct TracedServed<'t> {
    served: Served,
    source: SourceProbe,
    snapshot_hook: Busy,
    sink: TracedSink<'t>,
    paced: Option<PacedReport>,
}

/// One traced pass: [`TimedSource`] and [`TimedSink`]s on. `paced` is
/// `(events per second, frames to send)` for an open-loop pass; without
/// it the daemon is fed as fast as it takes (file, or socket
/// back-pressure).
fn traced_pass<'t>(
    input: &Input,
    ctx: &Ctx,
    paced: Option<(f64, u64)>,
    trigger: &'t Trigger,
) -> Result<TracedServed<'t>, String> {
    let dir = fresh_dir(ctx)?;
    let store_dir = dir.join("tsdb");
    let mut snapshot_hook = Busy::default();
    let start = Instant::now();
    let journal = TimedSink::new(MetricsJournal::hourly());
    let recorder = TsdbRecorder::new(open_store(&store_dir)?, labels(input), journal);
    let mut sink: TracedSink<'t> = TimedSink::new(recorder).with_trigger(trigger);
    let mut generator_report = None;
    let (report, source) = if input.tcp {
        // Both threads agree on the schedule's origin before either runs.
        let plan = paced.map(|(events_per_s, limit)| {
            let start = Instant::now() + Duration::from_millis(20);
            (
                Schedule {
                    start,
                    events_per_s,
                },
                limit,
            )
        });
        if let Some((schedule, _)) = plan {
            sink = sink.with_latency(schedule);
        }
        let (generated, served) = over_loopback(
            |addr| match plan {
                Some((schedule, limit)) => {
                    pacing::paced(&input.path, addr, schedule, limit).map(Some)
                }
                None => pacing::blast(&input.path, addr).map(|()| None),
            },
            |source| {
                let mut source = TimedSource::new(source, trigger);
                let report = serve_into(input, &dir, &mut source, &mut sink, &mut snapshot_hook)?;
                Ok((report, source.into_probe()))
            },
        )?;
        generator_report = generated;
        served
    } else {
        let file = FileSource::open(&input.path, IngestFormat::Jsonl)
            .map_err(err("opening the event log"))?;
        let mut source = TimedSource::new(file, trigger);
        let report = serve_into(input, &dir, &mut source, &mut sink, &mut snapshot_hook)?;
        (report, source.into_probe())
    };
    sink.flush_store().map_err(err("flushing the store"))?;
    let secs = start.elapsed().as_secs_f64();
    let metrics = sink.journal().cumulative().clone();
    Ok(TracedServed {
        served: Served {
            report,
            metrics,
            secs,
            store_dir,
        },
        source,
        snapshot_hook,
        sink,
        paced: generator_report,
    })
}

/// Turns a traced pass's sampled calls into spans: one root per sampled
/// event, from its `next_event` call until the daemon came back for the
/// next event, with the call and the sink callbacks it caused as
/// children. The root's self time is what the daemon did in between —
/// guard and engine.
fn spans_of(tracer: &mut Tracer, traced: &mut TracedServed<'_>, source_name: &'static str) {
    let mut callbacks = traced.sink.calls.drain(..).peekable();
    for call in &traced.source.calls {
        let until = call.next_start.unwrap_or(call.end);
        let root = tracer.span("event", call.id, call.start, until, None);
        tracer.span(source_name, call.id, call.start, call.end, Some(root));
        // Callbacks of the outer sink only: the journal's run inside them.
        while let Some((name, from, to)) = callbacks.next_if(|&(_, from, _)| from < until) {
            tracer.span(name, call.id, from, to, Some(root));
        }
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Latency and generator lateness of one paced pass.
fn paced_latency(
    input: &Input,
    ctx: &Ctx,
    events_per_s: f64,
    limit: u64,
) -> Result<(crate::stats::Histogram, PacedReport, Busy), String> {
    let trigger = Trigger::new(u64::MAX);
    let traced = traced_pass(input, ctx, Some((events_per_s, limit)), &trigger)?;
    let latency = traced
        .sink
        .latency
        .map(|probe| probe.ns)
        .ok_or("a paced pass recorded no latency")?;
    let paced = traced
        .paced
        .ok_or("a paced pass left no generator report")?;
    Ok((latency, paced, traced.source.busy))
}

pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let input = Input::build(spec, ctx)?;
    let reference = full_pipeline(&input.config, ShardPolicySpec::MaxMargin);
    // Single passes are short and the box is noisy: the fastest of three
    // stands for each side of the two comparisons below.
    let fastest_of_three = |record: bool| -> Result<Served, String> {
        let mut best = untraced_pass(&input, ctx, record)?;
        for _ in 1..3 {
            let next = untraced_pass(&input, ctx, record)?;
            if next.secs < best.secs {
                best = next;
            }
        }
        Ok(best)
    };
    let untraced = fastest_of_three(true)?;
    peak_rss(&mut outcome.metrics);
    let passthrough = fastest_of_three(false)?;
    outcome.check(passthrough.metrics == untraced.metrics, || {
        "recording changed what the daemon decided".into()
    });

    // < 200k spans: three or more per sampled event. The tracer's clock
    // starts before the pass whose spans it will hold.
    let stride = (input.events / 25_000).max(1);
    let trigger = Trigger::new(stride);
    let mut tracer = Tracer::new(stride);
    let mut traced = traced_pass(&input, ctx, None, &trigger)?;
    let undecided = check_served(&mut outcome, &input, &traced.served, &reference.metrics)?;
    outcome.attempted = traced.served.report.summary.tasks as u64;
    outcome.failed = undecided;
    outcome.check(traced.served.metrics == untraced.metrics, || {
        "traced pass decided differently from the untraced pass".into()
    });

    let metrics = &mut outcome.metrics;
    overhead_share(metrics, untraced.secs, traced.served.secs);
    metrics.put(
        "tsdb.recorder.overhead_share",
        (untraced.secs - passthrough.secs) / untraced.secs,
    );
    let wall_ns = traced.served.secs * 1e9;
    let report = traced.served.report;
    metrics.put("online.serve.events", report.events as f64);
    metrics.put("online.serve.windows", report.windows as f64);
    metrics.put("online.serve.snapshots", report.snapshots as f64);
    metrics.put(
        "online.serve.snapshot_hook_ns",
        traced.snapshot_hook.ns_per_call(),
    );
    metrics.put("online.ingest.errors", traced.source.errors as f64);
    let next_event = if input.tcp {
        "online.ingest.tcp_next_event_ns"
    } else {
        "online.ingest.file_next_event_ns"
    };
    metrics.put(next_event, traced.source.busy.ns_per_call());
    metrics.put(
        "online.ingest.share",
        traced.source.busy.ns as f64 / wall_ns,
    );
    let journal = traced.sink.inner().inner();
    report_sink(metrics, journal);
    metrics.put("metrics.share", journal.total_ns() as f64 / wall_ns);
    metrics.put(
        "tsdb.recorder.window_closed_ns",
        traced.sink.window_closed.ns_per_call() - journal.window_closed.ns_per_call(),
    );
    let outside_ns = traced.source.busy.ns + traced.sink.total_ns() + traced.snapshot_hook.ns;
    // What is left once source, sinks and hooks are taken out is the
    // daemon loop itself: guard and engine.
    metrics.put(
        "online.stream.self_share",
        1.0 - outside_ns as f64 / wall_ns,
    );
    metrics.put("trace.attributed_share", outside_ns as f64 / wall_ns);
    report_summary(metrics, &report.summary, traced.sink.candidates);
    report_snapshot(metrics, &traced.served.metrics);
    report_store(metrics, &traced.served.store_dir, ctx)?;
    report_codecs(metrics, &input)?;

    let source_span = if input.tcp {
        "online.ingest.tcp_next_event"
    } else {
        "online.ingest.file_next_event"
    };
    spans_of(&mut tracer, &mut traced, source_span);
    let blast_next_event_ns = traced.source.busy.ns_per_call();
    drop(traced);

    if input.tcp {
        let all = input.events + 1;
        let (latency, generator, source) = paced_latency(&input, ctx, PACED_RATE, all)?;
        let metrics = &mut outcome.metrics;
        metrics.put("decision_latency_p50_us", us(latency.quantile(0.5)));
        metrics.put("decision_latency_p99_us", us(latency.supported(0.99)));
        metrics.put("online.serve.latency_p999_us", us(latency.supported(0.999)));
        metrics.put("online.serve.latency_samples", latency.count() as f64);
        metrics.put(
            "online.serve.loadgen_late_p99_us",
            us(generator.late_ns.supported(0.99)),
        );
        // Blast never finds the socket empty, so what a paced call costs
        // beyond a blast call is time blocked waiting for the producer.
        metrics.put(
            "online.ingest.tcp_wait_ns",
            (source.ns_per_call() - blast_next_event_ns).max(0.0),
        );
        outcome.info("paced_events_per_s", PACED_RATE.to_string());
        outcome.info("paced_frames", generator.frames.to_string());

        // One second of the slow rate is enough for its p99.
        let low_frames = all.min(LOW_RATE as u64);
        let (low, _, _) = paced_latency(&input, ctx, LOW_RATE, low_frames)?;
        let (high, _, _) = paced_latency(&input, ctx, HIGH_RATE, all)?;
        let metrics = &mut outcome.metrics;
        metrics.put(
            "online.serve.latency_p99_us_at_100k",
            us(low.supported(0.99)),
        );
        metrics.put(
            "online.serve.latency_p99_us_at_800k",
            us(high.supported(0.99)),
        );
    }

    outcome.info("spans", tracer.len().to_string());
    tracer
        .write_json(
            &ctx.out_dir.join(format!("trace-{}.json", spec.name)),
            spec.name,
        )
        .map_err(err("writing spans"))?;
    Ok(outcome)
}

/// The store a traced pass just recorded, taken apart: open, query,
/// re-append into a fresh store, flush, and the chunk codec by itself.
fn report_store(metrics: &mut Metrics, store_dir: &Path, ctx: &Ctx) -> Result<(), String> {
    let whole_range = |step: i64| RangeQuery {
        filter: LabelFilter::any(),
        from: i64::MIN,
        to: i64::MAX,
        step,
    };
    let mut open_ms = Vec::new();
    let mut query_ms = Vec::new();
    for _ in 0..QUERY_REPS {
        let start = Instant::now();
        let store = open_store(store_dir)?;
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let query = whole_range(3600);
        let result = run_query(&store, &query).map_err(err("query"))?;
        black_box(to_canonical_json(&query, Agg::Sum, &result));
        query_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    metrics.put("tsdb.store.open_ms", median(&open_ms));
    metrics.put("query_ms", median(&query_ms));

    let store = open_store(store_dir)?;
    let timed_query = |step: i64| -> Result<(f64, u64), String> {
        let start = Instant::now();
        let result = run_query(&store, &whole_range(step)).map_err(err("query"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((ms, result.total.map_or(0, |t| t.count)))
    };
    let (whole_ms, scanned) = timed_query(i64::MAX)?;
    metrics.put("tsdb.query.whole_range_ms", whole_ms);
    metrics.put("tsdb.query.samples_scanned", scanned as f64);
    metrics.put("tsdb.query.stepped_1h_ms", timed_query(3600)?.0);

    let mut bytes = 0u64;
    for entry in std::fs::read_dir(store_dir).map_err(err("listing the store"))? {
        let entry = entry.map_err(err("listing the store"))?;
        bytes += entry.metadata().map_err(err("listing the store"))?.len();
    }
    let samples: u64 = store.series().map(|(_, info)| info.samples).sum();
    metrics.put("tsdb.store.bytes_total", bytes as f64);
    metrics.put(
        "tsdb.store.bytes_per_sample",
        bytes as f64 / samples.max(1) as f64,
    );

    // Series by series, so only one series' samples are in memory.
    let copy_dir = ctx.dir.join("store-copy");
    let _ = std::fs::remove_dir_all(&copy_dir);
    let mut copy = open_store(&copy_dir)?;
    let (mut append, mut encode, mut decode) = (Busy::default(), Busy::default(), Busy::default());
    let keys: Vec<_> = store.series().map(|(key, _)| key.clone()).collect();
    for key in &keys {
        let series = store.read_series(key).map_err(err("reading a series"))?;
        let start = Instant::now();
        for sample in &series {
            copy.append(key, sample.t, sample.v)
                .map_err(err("appending"))?;
        }
        append.ns += start.elapsed().as_nanos() as u64;
        append.count += series.len() as u64;
        for chunk in series.chunks(CHUNK_LEN) {
            let mut bytes = Vec::new();
            let start = Instant::now();
            encode_chunk(chunk, &mut bytes).map_err(err("encoding a chunk"))?;
            let encoded = Instant::now();
            let mut out = Vec::with_capacity(chunk.len());
            decode_chunk(&bytes, &mut out).map_err(err("decoding a chunk"))?;
            let decoded = Instant::now();
            encode.ns += (encoded - start).as_nanos() as u64;
            decode.ns += (decoded - encoded).as_nanos() as u64;
            encode.count += chunk.len() as u64;
            decode.count += chunk.len() as u64;
            black_box(&out);
        }
    }
    let start = Instant::now();
    copy.flush().map_err(err("flushing"))?;
    metrics.put("tsdb.store.flush_ms", start.elapsed().as_secs_f64() * 1e3);
    metrics.put("tsdb.store.append_ns_per_sample", append.ns_per_call());
    metrics.put("tsdb.codec.encode_ns_per_sample", encode.ns_per_call());
    metrics.put("tsdb.codec.decode_ns_per_sample", decode.ns_per_call());
    Ok(())
}

/// Events per timed batch of the codec loops: long enough that two clock
/// reads are nothing, short enough to stay in cache.
const BATCH: usize = 4096;
/// Events the codec loops cover (the text codecs cost microseconds each).
const CODEC_EVENTS: usize = 100_000;

/// The wire codecs by themselves, over the head of the workload's own
/// event file, in batches: decode (frames or JSONL), `wire_to_event`, the
/// admission guard, and every encoder plus the CSV round trip.
fn report_codecs(metrics: &mut Metrics, input: &Input) -> Result<(), String> {
    let file = std::fs::File::open(&input.path).map_err(err("opening the event file"))?;
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut decoder = FrameDecoder::new();
    let mut guard = EventGuard::new();
    let mut busy = CodecBusy::default();
    let mut wires: Vec<WireEvent> = Vec::with_capacity(BATCH);
    let mut chunk = vec![0u8; 1 << 16];
    let mut line = String::new();
    let mut done = 0usize;
    let mut end = false;
    while !end && done < CODEC_EVENTS {
        wires.clear();
        // Decode one batch, timing only the decoder calls.
        if input.tcp {
            while wires.len() < BATCH && !end {
                let start = Instant::now();
                while wires.len() < BATCH {
                    match decoder.next().map_err(err("decoding frames"))? {
                        Some(WireEvent::Eos) => end = true,
                        Some(event) => wires.push(event),
                        None => break,
                    }
                }
                busy.frame_decode.ns += start.elapsed().as_nanos() as u64;
                if wires.len() < BATCH && !end {
                    let n = reader.read(&mut chunk).map_err(err("reading frames"))?;
                    end = n == 0;
                    decoder.feed(&chunk[..n]);
                }
            }
            busy.frame_decode.count += wires.len() as u64;
        } else {
            let mut lines: Vec<String> = Vec::with_capacity(BATCH);
            while lines.len() < BATCH {
                line.clear();
                if reader.read_line(&mut line).map_err(err("reading lines"))? == 0 {
                    end = true;
                    break;
                }
                lines.push(line.trim_end().to_string());
            }
            let start = Instant::now();
            for text in &lines {
                match wire::from_json_line(text).map_err(err("decoding JSONL"))? {
                    WireEvent::Eos => end = true,
                    event => wires.push(event),
                }
            }
            busy.jsonl_decode.ns += start.elapsed().as_nanos() as u64;
            busy.jsonl_decode.count += lines.len() as u64;
        }
        busy.batch(&wires, &mut guard, input.tcp)?;
        done += wires.len();
    }
    busy.report(metrics);
    Ok(())
}

/// Summed time and bytes of the codec loops.
#[derive(Default)]
struct CodecBusy {
    frame_decode: Busy,
    frame_encode: Busy,
    jsonl_decode: Busy,
    jsonl_encode: Busy,
    csv_decode: Busy,
    convert: Busy,
    admit: Busy,
    frame_bytes: u64,
    jsonl_bytes: u64,
    csv_bytes: u64,
}

impl CodecBusy {
    /// Runs one decoded batch through everything downstream of decode.
    /// The decoder that produced the batch was timed by the caller; the
    /// other one is timed here over re-encoded text or frames.
    fn batch(
        &mut self,
        wires: &[WireEvent],
        guard: &mut EventGuard,
        tcp: bool,
    ) -> Result<(), String> {
        let n = wires.len() as u64;
        let timed = |busy: &mut Busy, start: Instant| {
            busy.ns += start.elapsed().as_nanos() as u64;
            busy.count += n;
        };

        let start = Instant::now();
        let events: Vec<_> = wires.iter().filter_map(|w| wire_to_event(*w)).collect();
        timed(&mut self.convert, start);
        let start = Instant::now();
        for event in &events {
            guard.admit(event).map_err(err("admission guard"))?;
        }
        timed(&mut self.admit, start);

        let start = Instant::now();
        let frames: Vec<Vec<u8>> = wires.iter().map(wire::encode_frame).collect();
        timed(&mut self.frame_encode, start);
        self.frame_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        if !tcp {
            let mut decoder = FrameDecoder::new();
            for frame in &frames {
                decoder.feed(frame);
            }
            let start = Instant::now();
            while let Some(event) = decoder.next().map_err(err("decoding frames"))? {
                black_box(&event);
            }
            timed(&mut self.frame_decode, start);
        }

        let start = Instant::now();
        let lines: Vec<String> = wires.iter().map(wire::to_json_line).collect();
        timed(&mut self.jsonl_encode, start);
        self.jsonl_bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        if tcp {
            let start = Instant::now();
            for text in &lines {
                black_box(wire::from_json_line(text).map_err(err("decoding JSONL"))?);
            }
            timed(&mut self.jsonl_decode, start);
        }

        let rows: Vec<String> = wires.iter().map(wire::to_csv_line).collect();
        self.csv_bytes += rows.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        let start = Instant::now();
        for row in &rows {
            black_box(wire::from_csv_line(row).map_err(err("decoding CSV"))?);
        }
        timed(&mut self.csv_decode, start);
        Ok(())
    }

    fn report(&self, metrics: &mut Metrics) {
        let events = self.convert.count.max(1) as f64;
        metrics.put(
            "trace.wire.frame_encode_ns_per_event",
            self.frame_encode.ns_per_call(),
        );
        metrics.put(
            "trace.wire.frame_decode_ns_per_event",
            self.frame_decode.ns_per_call(),
        );
        metrics.put(
            "trace.wire.jsonl_encode_ns_per_event",
            self.jsonl_encode.ns_per_call(),
        );
        metrics.put(
            "trace.wire.jsonl_decode_ns_per_event",
            self.jsonl_decode.ns_per_call(),
        );
        metrics.put(
            "trace.wire.csv_decode_ns_per_event",
            self.csv_decode.ns_per_call(),
        );
        metrics.put(
            "trace.wire.frame_bytes_per_event",
            self.frame_bytes as f64 / events,
        );
        metrics.put(
            "trace.wire.jsonl_bytes_per_event",
            self.jsonl_bytes as f64 / events,
        );
        metrics.put(
            "trace.wire.csv_bytes_per_event",
            self.csv_bytes as f64 / events,
        );
        metrics.put("online.ingest.wire_to_event_ns", self.convert.ns_per_call());
        metrics.put(
            "online.ingest.guard_admit_ns_per_event",
            self.admit.ns_per_call(),
        );
    }
}
