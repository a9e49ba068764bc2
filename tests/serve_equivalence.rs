//! The daemon test harness: `rideshare serve` is live-equal to replay.
//!
//! The serve daemon's contract is that ingestion is **not a different
//! dispatcher**: over the same trace, a drained daemon — fed in-process,
//! from a JSONL or CSV file, or over a real TCP socket — produces
//! decisions and merged [`StreamMetrics`] *byte-identical* to
//! [`replay_stream`] / [`replay_sharded`], for every shard-stable policy
//! and shard counts {1, 2, 4}. This suite pins that, plus the daemon's
//! operational laws:
//!
//! - **equivalence**: the porto-regions catalog scenario through the full
//!   policy × shard × transport matrix (raw decision equality, exact
//!   `StreamMetrics ==`),
//! - **drain semantics**: EOF without an end-of-stream marker, and a TCP
//!   peer closing on a frame boundary, both drain cleanly through the
//!   engines' normal finish path,
//! - **fault injection**: a truncated frame, a garbage length prefix, a
//!   non-monotonic timestamp, and a mid-window disconnect each produce a
//!   clean typed [`IngestError`] *and* a drained, valid partial result —
//!   never a panic, never a hang (every daemon runs under a watchdog
//!   timeout, and no test is `#[should_panic]`),
//! - an `#[ignore]`d heavy acceptance run: one million tasks framed over
//!   a real socket, sharded 4 ways, metrics exactly equal to sequential
//!   replay (`cargo test --release --test serve_equivalence -- --ignored`).

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use rideshare::bench::Scenario;
use rideshare::online::{
    event_to_line, event_to_wire, DispatchEvent, IngestError, IngestFormat, IngestSource,
    ServeConfig, ServeDaemon, ServeStop, SimulationResult,
};
use rideshare::prelude::*;
use rideshare::trace::wire::{encode_frame, to_csv_line, to_json_line, WireEvent};

/// How long any single daemon run may take before the watchdog trips.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Collects decisions *and* exact metrics from one run.
struct DuoSink {
    result: CollectingSink,
    metrics: StreamMetrics,
}

impl DuoSink {
    fn new() -> Self {
        Self {
            result: CollectingSink::new(),
            metrics: StreamMetrics::hourly(),
        }
    }
}

impl StreamSink for DuoSink {
    fn driver_online(&mut self, driver: &Driver) {
        self.result.driver_online(driver);
        self.metrics.driver_online(driver);
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.result.dispatched(task, event);
        self.metrics.dispatched(task, event);
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        self.result.rejected(task, decision_time);
        StreamSink::rejected(&mut self.metrics, task, decision_time);
    }
}

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

/// The pinned trace: the porto-regions catalog scenario (4 regions, so
/// every shard count in {1, 2, 4} has a legal partition).
fn scenario_fixture() -> (Market, TraceConfig, Vec<StreamEvent>) {
    let scenario = Scenario::by_name("porto-regions").expect("catalog scenario");
    let config = scenario.trace_config().expect("trace-backed").clone();
    let market = scenario.build_market();
    let events: Vec<StreamEvent> = market_events(&market);
    (market, config, events)
}

/// What replay produces: the oracle the daemon must match byte-for-byte.
fn replay_oracle(
    market: &Market,
    config: &TraceConfig,
    spec: ShardPolicySpec,
    shards: usize,
) -> (SimulationResult, StreamMetrics) {
    let mut sink = DuoSink::new();
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
    (sink.result.into_result(), sink.metrics)
}

/// Runs the daemon over `source` under a watchdog; panics (with the test
/// context) if it does not come back within [`WATCHDOG`].
fn run_daemon(
    mut source: Box<dyn IngestSource + Send>,
    spec: ShardPolicySpec,
    config: &TraceConfig,
    shards: usize,
    ctx: &str,
) -> (
    rideshare::online::ServeOutcome,
    SimulationResult,
    StreamMetrics,
) {
    let boxes = config.region_boxes();
    let (tx, rx) = mpsc::channel();
    let ctx_owned = ctx.to_string();
    std::thread::spawn(move || {
        let partitioner = BoxPartitioner::new(boxes);
        let mut daemon = ServeDaemon::new(
            SpeedModel::urban(),
            spec,
            ServeConfig::new(shards)
                .shard_options(ShardOptions::new(shards).validate(false))
                .snapshot_every(TimeDelta::from_hours(1)),
        );
        if shards > 1 {
            daemon = daemon.with_partitioner(&partitioner);
        }
        let mut sink = DuoSink::new();
        let outcome = daemon.run(source.as_mut(), &mut sink, |_, _| {}, |_, _| {});
        // A send failure means the watchdog already gave up on us.
        let _ = tx.send((outcome, sink.result.into_result(), sink.metrics));
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{ctx_owned}: daemon hung past the watchdog"))
}

/// Byte-identity of a daemon run against the replay oracle. Within a
/// batched window the sequential engine emits in matcher-commit order and
/// the sharded merge in `(decision epoch, task id)` order — same records,
/// one canonical serialisation — so both sides are sorted into that
/// canonical order before comparing (a no-op for instant policies).
fn assert_equal(
    got: (&SimulationResult, &StreamMetrics),
    want: (&SimulationResult, &StreamMetrics),
    ctx: &str,
) {
    let canon = |r: &SimulationResult| {
        let mut events = r.events.clone();
        events.sort_by_key(|e| (e.decision_time, e.task.index()));
        events
    };
    assert_eq!(got.0.dispatch, want.0.dispatch, "{ctx}: dispatch");
    assert_eq!(canon(got.0), canon(want.0), "{ctx}: decision records");
    assert_eq!(got.0.served, want.0.served, "{ctx}: served");
    assert_eq!(got.0.rejected, want.0.rejected, "{ctx}: rejected");
    assert_eq!(got.1, want.1, "{ctx}: metrics (exact)");
}

/// Writes the event log (plus end-of-stream marker) as `format` text.
fn write_event_log(path: &std::path::Path, events: &[StreamEvent], format: IngestFormat) {
    let mut text = String::new();
    for e in events {
        text.push_str(&event_to_line(e, format));
        text.push('\n');
    }
    let eos = match format {
        IngestFormat::Jsonl => to_json_line(&WireEvent::Eos),
        IngestFormat::Csv => to_csv_line(&WireEvent::Eos),
    };
    text.push_str(&eos);
    text.push('\n');
    std::fs::write(path, text).unwrap();
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rideshare-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Feeds `events` (and an EOS frame unless `truncate_at` cuts first) over
/// a fresh TCP connection; returns the source end. `truncate_at = Some(n)`
/// sends only the first `n` bytes of the full byte stream and closes.
fn tcp_feed(
    events: Vec<StreamEvent>,
    eos: bool,
    truncate_at: Option<usize>,
) -> Box<dyn IngestSource + Send> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        for e in &events {
            bytes.extend_from_slice(&encode_frame(&event_to_wire(e)));
        }
        if eos {
            bytes.extend_from_slice(&encode_frame(&WireEvent::Eos));
        }
        if let Some(n) = truncate_at {
            bytes.truncate(n);
        }
        let mut conn = TcpStream::connect(addr).unwrap();
        // Dribble in uneven chunks so the decoder sees partial frames.
        for chunk in bytes.chunks(97) {
            conn.write_all(chunk).unwrap();
        }
    });
    let (conn, _) = listener.accept().unwrap();
    Box::new(rideshare::online::TcpSource::from_stream(conn))
}

// ---------------------------------------------------------------------
// Equivalence: policy × shards × transport.
// ---------------------------------------------------------------------

/// In-process ingestion (the pure daemon overhead path): full policy ×
/// shard matrix against the replay oracle.
#[test]
fn in_process_daemon_matches_replay_matrix() {
    let (market, config, events) = scenario_fixture();
    for spec in policy_matrix() {
        for shards in [1usize, 2, 4] {
            let ctx = format!("in-process × {} × {shards} shards", policy_label(spec));
            let want = replay_oracle(&market, &config, spec, shards);
            let source = Box::new(rideshare::online::IterSource::new(
                events.clone().into_iter(),
            ));
            let (outcome, result, metrics) = run_daemon(source, spec, &config, shards, &ctx);
            assert_eq!(outcome.report.stop, ServeStop::Drained, "{ctx}");
            assert!(outcome.error.is_none(), "{ctx}");
            assert_eq!(outcome.report.events, events.len(), "{ctx}: event count");
            assert!(outcome.report.windows > 0, "{ctx}: no windows closed");
            assert!(outcome.report.snapshots > 0, "{ctx}: no snapshots fired");
            assert_equal((&result, &metrics), (&want.0, &want.1), &ctx);
        }
    }
}

/// File ingestion: the trace round-trips through JSONL and CSV text (f64s
/// via shortest-round-trip formatting) and still reproduces replay
/// byte-for-byte.
#[test]
fn file_daemon_matches_replay() {
    let (market, config, events) = scenario_fixture();
    let dir = tmpdir("files");
    for format in [IngestFormat::Jsonl, IngestFormat::Csv] {
        let name = match format {
            IngestFormat::Jsonl => "day.jsonl",
            IngestFormat::Csv => "day.csv",
        };
        let path = dir.join(name);
        write_event_log(&path, &events, format);
        for spec in [
            ShardPolicySpec::MaxMargin,
            ShardPolicySpec::Batched {
                window: TimeDelta::from_mins(3),
                matcher: MatcherKind::Greedy,
            },
        ] {
            for shards in [1usize, 4] {
                let ctx = format!("{name} × {} × {shards} shards", policy_label(spec));
                let want = replay_oracle(&market, &config, spec, shards);
                let source: Box<dyn IngestSource + Send> =
                    Box::new(rideshare::online::FileSource::open(&path, format).unwrap());
                let (outcome, result, metrics) = run_daemon(source, spec, &config, shards, &ctx);
                assert_eq!(outcome.report.stop, ServeStop::Drained, "{ctx}");
                assert_equal((&result, &metrics), (&want.0, &want.1), &ctx);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Socket ingestion: the trace round-trips through the length-prefixed
/// binary wire format over a real TCP connection, dribbled in uneven
/// chunks, and still reproduces replay byte-for-byte.
#[test]
fn tcp_daemon_matches_replay() {
    let (market, config, events) = scenario_fixture();
    for spec in [
        ShardPolicySpec::MaxMargin,
        ShardPolicySpec::Batched {
            window: TimeDelta::from_mins(3),
            matcher: MatcherKind::Greedy,
        },
    ] {
        for shards in [1usize, 2, 4] {
            let ctx = format!("tcp × {} × {shards} shards", policy_label(spec));
            let want = replay_oracle(&market, &config, spec, shards);
            let source = tcp_feed(events.clone(), true, None);
            let (outcome, result, metrics) = run_daemon(source, spec, &config, shards, &ctx);
            assert_eq!(outcome.report.stop, ServeStop::Drained, "{ctx}");
            assert!(outcome.error.is_none(), "{ctx}");
            assert_equal((&result, &metrics), (&want.0, &want.1), &ctx);
        }
    }
}

// ---------------------------------------------------------------------
// Drain semantics.
// ---------------------------------------------------------------------

/// A file with no end-of-stream marker still drains cleanly at EOF
/// (non-follow mode), through the engines' normal finish path.
#[test]
fn eof_without_marker_drains_cleanly() {
    let (market, config, events) = scenario_fixture();
    let dir = tmpdir("eof");
    let path = dir.join("no-eos.jsonl");
    let mut text = String::new();
    for e in &events {
        text.push_str(&event_to_line(e, IngestFormat::Jsonl));
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();
    let want = replay_oracle(&market, &config, ShardPolicySpec::MaxMargin, 1);
    let source: Box<dyn IngestSource + Send> =
        Box::new(rideshare::online::FileSource::open(&path, IngestFormat::Jsonl).unwrap());
    let (outcome, result, metrics) =
        run_daemon(source, ShardPolicySpec::MaxMargin, &config, 1, "eof-drain");
    assert_eq!(outcome.report.stop, ServeStop::Drained);
    assert!(outcome.error.is_none());
    assert_equal((&result, &metrics), (&want.0, &want.1), "eof-drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A TCP peer closing exactly on a frame boundary (no EOS frame) is a
/// clean drain, not an error.
#[test]
fn tcp_close_on_frame_boundary_drains_cleanly() {
    let (market, config, events) = scenario_fixture();
    let want = replay_oracle(&market, &config, ShardPolicySpec::MaxMargin, 1);
    let source = tcp_feed(events, false, None);
    let (outcome, result, metrics) = run_daemon(
        source,
        ShardPolicySpec::MaxMargin,
        &config,
        1,
        "tcp-boundary-close",
    );
    assert_eq!(outcome.report.stop, ServeStop::Drained);
    assert!(outcome.error.is_none());
    assert_equal(
        (&result, &metrics),
        (&want.0, &want.1),
        "tcp-boundary-close",
    );
}

// ---------------------------------------------------------------------
// Fault injection: typed errors, drained partial results, no panics.
// ---------------------------------------------------------------------

/// A connection cut mid-frame surfaces `IngestError::Disconnected` naming
/// the dangling bytes, and everything before the cut drained validly.
#[test]
fn truncated_frame_is_a_typed_error_with_partial_result() {
    let (_, config, events) = scenario_fixture();
    // Total byte stream minus 3 bytes cuts the final (EOS) frame mid-body.
    let total: usize = events
        .iter()
        .map(|e| encode_frame(&event_to_wire(e)).len())
        .sum::<usize>()
        + encode_frame(&WireEvent::Eos).len();
    let sent_events = events.len();
    let source = tcp_feed(events, true, Some(total - 3));
    let (outcome, result, _metrics) = run_daemon(
        source,
        ShardPolicySpec::MaxMargin,
        &config,
        1,
        "truncated-frame",
    );
    assert_eq!(outcome.report.stop, ServeStop::Error);
    assert!(
        matches!(outcome.error, Some(IngestError::Disconnected { pending_bytes }) if pending_bytes > 0),
        "want Disconnected, got {:?}",
        outcome.error
    );
    // Every complete frame before the cut was ingested and decided.
    assert_eq!(outcome.report.events, sent_events);
    assert_eq!(
        result.served + result.rejected,
        outcome.report.summary.tasks
    );
}

/// A garbage length prefix (absurd frame size) is rejected as a framing
/// error before any allocation, with a valid drained prefix.
#[test]
fn garbage_length_prefix_is_a_typed_error() {
    let (_, config, events) = scenario_fixture();
    let prefix = 25usize; // a few real events first
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let feed: Vec<StreamEvent> = events[..prefix].to_vec();
    std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        for e in &feed {
            conn.write_all(&encode_frame(&event_to_wire(e))).unwrap();
        }
        conn.write_all(&0xFFFF_FFFFu32.to_le_bytes()).unwrap();
        conn.write_all(&[0u8; 64]).unwrap();
    });
    let (conn, _) = listener.accept().unwrap();
    let source: Box<dyn IngestSource + Send> =
        Box::new(rideshare::online::TcpSource::from_stream(conn));
    let (outcome, _result, _metrics) = run_daemon(
        source,
        ShardPolicySpec::MaxMargin,
        &config,
        1,
        "garbage-length",
    );
    assert_eq!(outcome.report.stop, ServeStop::Error);
    assert!(
        matches!(
            outcome.error,
            Some(IngestError::Frame(
                rideshare::trace::wire::WireError::FrameTooLarge { .. }
            ))
        ),
        "want FrameTooLarge, got {:?}",
        outcome.error
    );
    assert_eq!(outcome.report.events, prefix);
}

/// A non-monotonic event timestamp is refused by the admission guard as a
/// typed error — it must never reach the engine (whose contract violation
/// response is a panic).
#[test]
fn non_monotonic_timestamp_is_a_typed_error() {
    let (_, config, events) = scenario_fixture();
    // Re-order two task publishes to violate monotonicity.
    let mut tampered = events;
    let tasks: Vec<usize> = tampered
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, StreamEvent::TaskPublished(_)))
        .map(|(i, _)| i)
        .take(12)
        .collect();
    tampered.swap(tasks[2], tasks[10]);
    let dir = tmpdir("monotonic");
    let path = dir.join("tampered.jsonl");
    write_event_log(&path, &tampered, IngestFormat::Jsonl);
    let source: Box<dyn IngestSource + Send> =
        Box::new(rideshare::online::FileSource::open(&path, IngestFormat::Jsonl).unwrap());
    let (outcome, result, _metrics) = run_daemon(
        source,
        ShardPolicySpec::MaxMargin,
        &config,
        1,
        "non-monotonic",
    );
    assert_eq!(outcome.report.stop, ServeStop::Error);
    assert!(
        matches!(outcome.error, Some(IngestError::NonMonotonic { .. })),
        "want NonMonotonic, got {:?}",
        outcome.error
    );
    // The admitted prefix drained to a valid partial result.
    assert_eq!(
        result.served + result.rejected,
        outcome.report.summary.tasks
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disconnect in the middle of an open batch window: the held orders
/// drain through the normal close path — a valid partial result plus the
/// typed error, and critically no hang waiting for the window to fill.
#[test]
fn mid_window_disconnect_drains_held_orders() {
    let (_, config, events) = scenario_fixture();
    // Cut mid-frame somewhere past the driver preamble, so a 3-minute
    // batch window is open (orders held, undecided) at the disconnect.
    let drivers = events
        .iter()
        .filter(|e| matches!(e, StreamEvent::DriverOnline(_)))
        .count();
    let keep = drivers + 40; // complete frames to send before the cut
    let cut: usize = events[..keep]
        .iter()
        .map(|e| encode_frame(&event_to_wire(e)).len())
        .sum::<usize>()
        + 7; // + a partial next frame
    let spec = ShardPolicySpec::Batched {
        window: TimeDelta::from_mins(3),
        matcher: MatcherKind::Greedy,
    };
    let source = tcp_feed(events, true, Some(cut));
    let (outcome, result, _metrics) = run_daemon(source, spec, &config, 1, "mid-window");
    assert_eq!(outcome.report.stop, ServeStop::Error);
    assert!(
        matches!(outcome.error, Some(IngestError::Disconnected { .. })),
        "want Disconnected, got {:?}",
        outcome.error
    );
    assert_eq!(outcome.report.events, keep);
    // Every task sent was decided: the open window drained on the fault.
    assert_eq!(outcome.report.summary.tasks, 40);
    assert_eq!(result.served + result.rejected, 40);
}

// ---------------------------------------------------------------------
// Heavy acceptance.
// ---------------------------------------------------------------------

/// One million tasks framed over a real TCP socket into a 4-shard daemon:
/// metrics exactly equal sequential in-process replay. Release only:
/// `cargo test --release --test serve_equivalence -- --ignored`.
#[test]
#[ignore = "heavy: 1M-task TCP serve, release only"]
fn million_task_tcp_serve_matches_replay() {
    let config = TraceConfig::porto()
        .with_seed(0)
        .with_task_count(1_000_000)
        .with_driver_count(450, DriverModel::Hitchhiking)
        .with_regions(4);
    let build = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };

    // Oracle: the sequential lazy pipeline, all in process.
    let stream = config.stream();
    let speed = stream.speed();
    let bbox = stream.bounding_box();
    let options = StreamOptions::default().grid(bbox);
    let mut want = StreamMetrics::hourly();
    let policy = StreamPolicy::Instant(InstantRule::MaxMargin);
    let events = priced_events(stream, &build);
    let want_summary = replay_stream(speed, events, policy, options, &mut want);

    // Daemon: the same events framed over a real socket, 4 shards.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer_config = config.clone();
    let writer = std::thread::spawn(move || {
        let conn = TcpStream::connect(addr).unwrap();
        let mut out = std::io::BufWriter::with_capacity(1 << 20, conn);
        for e in priced_events(writer_config.stream(), &build) {
            out.write_all(&encode_frame(&event_to_wire(&e))).unwrap();
        }
        out.write_all(&encode_frame(&WireEvent::Eos)).unwrap();
        out.flush().unwrap();
    });
    let (conn, _) = listener.accept().unwrap();
    let partitioner = BoxPartitioner::new(config.region_boxes());
    let daemon = ServeDaemon::new(
        SpeedModel::urban(),
        ShardPolicySpec::MaxMargin,
        ServeConfig::new(4).shard_options(
            ShardOptions::new(4)
                .stream(StreamOptions::default().grid(bbox))
                .validate(false),
        ),
    )
    .with_partitioner(&partitioner);
    let mut got = StreamMetrics::hourly();
    let mut source = rideshare::online::TcpSource::from_stream(conn);
    let outcome = daemon.run(&mut source, &mut got, |_, _| {}, |_, _| {});
    writer.join().unwrap();

    assert_eq!(outcome.report.stop, ServeStop::Drained);
    assert!(outcome.error.is_none());
    assert_eq!(outcome.report.summary.tasks, 1_000_000);
    assert_eq!(outcome.report.summary.served, want_summary.served);
    assert_eq!(got, want, "1M-task TCP serve metrics diverged from replay");
}
