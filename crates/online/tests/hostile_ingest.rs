//! Hostile-input regressions for the ingestion layer.
//!
//! The [`rideshare_online::IngestSource`] contract says a source must
//! never panic on hostile bytes — every transport or decode problem is a
//! typed [`IngestError`]. These tests feed each source the nastiest
//! inputs a producer (or attacker) can hand it and pin the error shape,
//! so a panic on the path fails here even where no lint could see it
//! (an index out of bounds, an overflow, a panic inside a dependency).

use rideshare_geo::{GeoPoint, SpeedModel};
use rideshare_online::{
    CollectingSink, EventGuard, FileSource, IngestError, IngestFormat, IngestSource, ServeConfig,
    ServeDaemon, ServeOutcome, ServeStop, ShardPolicySpec, TcpSource,
};
use rideshare_trace::wire::{encode_frame, to_csv_line, to_json_line, WireEvent};
use rideshare_trace::{Driver, DriverModel, Task};
use rideshare_types::{DriverId, Money, TaskId, TimeDelta, Timestamp};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// A unique temp file seeded with `bytes`, cleaned up on drop.
struct TempEvents(PathBuf);

impl TempEvents {
    fn new(tag: &str, bytes: &[u8]) -> Self {
        let path = std::env::temp_dir().join(format!(
            "rideshare-hostile-{tag}-{}.events",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        Self(path)
    }
}

impl Drop for TempEvents {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn drain(mut src: impl IngestSource) -> Result<usize, IngestError> {
    let mut n = 0;
    while src.next_event()?.is_some() {
        n += 1;
    }
    Ok(n)
}

#[test]
fn invalid_utf8_file_is_an_io_error_not_a_panic() {
    let junk = TempEvents::new("utf8", &[0xff, 0xfe, 0x80, b'\n', 0xc3, 0x28, b'\n']);
    for format in [IngestFormat::Jsonl, IngestFormat::Csv] {
        let src = FileSource::open(&junk.0, format).unwrap();
        match drain(src) {
            Err(IngestError::Io(_)) => {}
            other => panic!("expected Io error on invalid UTF-8, got {other:?}"),
        }
    }
}

#[test]
fn garbage_jsonl_is_malformed_with_line_number() {
    // A blank line first: it is skipped but still counted, so the
    // diagnostic points at the file's real line 2.
    let junk = TempEvents::new("jsonl", b"\n{\"kind\":\"nonsense\"}\n");
    let src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    match drain(src) {
        Err(IngestError::Malformed { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn truncated_json_object_is_malformed() {
    // A real event line cut mid-object — the classic torn tail write.
    let junk = TempEvents::new("torn", b"{\"kind\":\"epoch_tick\",\"t\":36\n");
    let src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    assert!(matches!(
        drain(src),
        Err(IngestError::Malformed { line: 1, .. })
    ));
}

#[test]
fn deeply_nested_line_is_malformed_and_the_daemon_drains() {
    // 60 kB of `[` after one good event. The parser used to recurse once
    // per bracket and abort the whole process on a stack overflow; the
    // nesting bound makes it a typed error like any other bad line.
    let mut bytes = b"{\"event\":\"tick\",\"at\":60}\n".to_vec();
    bytes.resize(bytes.len() + 60_000, b'[');
    bytes.push(b'\n');
    let junk = TempEvents::new("deep", &bytes);
    let mut src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    let daemon = ServeDaemon::new(
        SpeedModel::default(),
        ShardPolicySpec::MaxMargin,
        ServeConfig::new(1),
    );
    let outcome = daemon.run(&mut src, &mut CollectingSink::new(), |_, _| {}, |_, _| {});
    assert!(
        matches!(outcome.error, Some(IngestError::Malformed { line: 2, .. })),
        "expected Malformed at line 2, got {:?}",
        outcome.error
    );
    assert_eq!(outcome.report.stop, ServeStop::Error);
    assert_eq!(outcome.report.events, 1, "the good line before it drained");
}

#[test]
fn garbage_csv_is_malformed() {
    let junk = TempEvents::new("csv", b"x,y,z,w\n");
    let src = FileSource::open(&junk.0, IngestFormat::Csv).unwrap();
    assert!(matches!(drain(src), Err(IngestError::Malformed { .. })));
}

#[test]
fn empty_file_is_a_clean_end_of_stream() {
    let junk = TempEvents::new("empty", b"");
    let src = FileSource::open(&junk.0, IngestFormat::Jsonl).unwrap();
    assert_eq!(drain(src).unwrap(), 0);
}

#[test]
fn missing_file_is_an_io_error() {
    let path = std::env::temp_dir().join("rideshare-hostile-no-such-file.events");
    assert!(matches!(
        FileSource::open(&path, IngestFormat::Jsonl),
        Err(IngestError::Io(_))
    ));
}

/// Spawns a producer thread that writes `bytes` to a loopback socket and
/// returns the accepted server-side stream.
fn loopback(bytes: Vec<u8>) -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&bytes).unwrap();
        // Dropping the stream closes the connection.
    });
    listener.accept().unwrap().0
}

#[test]
fn tcp_garbage_frame_is_a_typed_error_not_a_panic() {
    // A plausible length prefix followed by bytes that are not a frame.
    let mut bytes = 16u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xde; 16]);
    let src = TcpSource::from_stream(loopback(bytes));
    match drain(src) {
        Err(IngestError::Frame(_)) => {}
        other => panic!("expected Frame error, got {other:?}"),
    }
}

#[test]
fn tcp_mid_frame_disconnect_reports_stranded_bytes() {
    // A prefix promising 64 bytes, then the producer vanishes after 3.
    let mut bytes = 64u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[1, 2, 3]);
    let src = TcpSource::from_stream(loopback(bytes));
    match drain(src) {
        Err(IngestError::Disconnected { pending_bytes }) => {
            assert_eq!(pending_bytes, 7, "4 prefix + 3 body bytes stranded");
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

#[test]
fn tcp_clean_close_on_frame_boundary_ends_stream() {
    let src = TcpSource::from_stream(loopback(Vec::new()));
    assert_eq!(drain(src).unwrap(), 0);
}

// --- numbers outside the exact grid --------------------------------------

fn wire_driver(source: GeoPoint) -> WireEvent {
    WireEvent::DriverOnline(Driver {
        id: DriverId::new(0),
        source,
        destination: GeoPoint::new(41.16, -8.62),
        shift_start: Timestamp::from_secs(0),
        shift_end: Timestamp::from_secs(86_400),
        model: DriverModel::Hitchhiking,
    })
}

/// An order whose every number is a sentinel the text cases can find and
/// overwrite in its encoded line.
fn wire_task(id: u32, publish: i64) -> Task {
    Task {
        id: TaskId::new(id),
        publish_time: Timestamp::from_secs(publish),
        origin: GeoPoint::new(41.140625, -8.515625),
        destination: GeoPoint::new(41.16, -8.6),
        pickup_deadline: Timestamp::from_secs(publish + 900),
        completion_deadline: Timestamp::from_secs(publish + 4000),
        duration: TimeDelta::from_secs(600),
        price: Money::new(77.125),
        valuation: Money::new(88.25),
        service_cost: Money::new(3.0625),
    }
}

/// One max-margin daemon over `source`, run until it stops.
fn serve(source: &mut dyn IngestSource) -> ServeOutcome {
    let daemon = ServeDaemon::new(
        SpeedModel::default(),
        ShardPolicySpec::MaxMargin,
        ServeConfig::new(1),
    );
    daemon.run(source, &mut CollectingSink::new(), |_, _| {}, |_, _| {})
}

/// Serves `source` and demands `refused` beside a valid report for the
/// admitted prefix: `events` events, the one order among them decided.
fn assert_refused(source: &mut dyn IngestSource, refused: &IngestError, events: usize, case: &str) {
    let outcome = serve(source);
    assert_eq!(outcome.error.as_ref(), Some(refused), "{case}");
    assert_eq!(outcome.report.stop, ServeStop::Error, "{case}");
    assert_eq!(outcome.report.events, events, "{case}: admitted prefix");
    let decided = events.saturating_sub(1);
    assert_eq!(outcome.report.summary.tasks, decided, "{case}: drained");
}

/// The refusal of order 1's `field`.
fn order_one(field: &'static str) -> IngestError {
    IngestError::OutOfRange {
        event: "task",
        id: 1,
        field,
    }
}

#[test]
fn text_numbers_outside_the_exact_grid_are_refused_by_task_and_field() {
    // `1e999` parses to +∞ and saturated the i128 revenue accumulator
    // (one order reported revenue 1.5e26, two wrapped it to −0.00);
    // `-1e300` is finite and did the same; an infinite longitude wraps to
    // NaN inside `GeoPoint::new`. Each was admitted, exit 0, as data.
    let cases = [
        ("77.125", "1e999", "price"),
        ("88.25", "-1e999", "valuation"),
        ("3.0625", "-1e300", "service_cost"),
        ("77.125", "1000000000001", "price"),
        ("-8.515625", "1e999", "origin"),
    ];
    for format in [IngestFormat::Jsonl, IngestFormat::Csv] {
        let encode = |event: &WireEvent| match format {
            IngestFormat::Jsonl => to_json_line(event),
            IngestFormat::Csv => to_csv_line(event),
        };
        for (sentinel, hostile, field) in cases {
            let bad = encode(&WireEvent::TaskPublished(wire_task(1, 7300)));
            assert!(bad.contains(sentinel), "{bad}");
            let lines = [
                encode(&wire_driver(GeoPoint::new(41.15, -8.63))),
                encode(&WireEvent::TaskPublished(wire_task(0, 7200))),
                bad.replace(sentinel, hostile),
            ];
            let case = format!("{format:?} {field}={hostile}");
            let feed = TempEvents::new(&format!("range-{format:?}-{hostile}"), &[]);
            std::fs::write(&feed.0, lines.join("\n") + "\n").unwrap();
            let mut source = FileSource::open(&feed.0, format).unwrap();
            assert_refused(&mut source, &order_one(field), 2, &case);
        }
    }

    // The bound itself is admitted, either sign.
    let edge = to_json_line(&WireEvent::TaskPublished(wire_task(0, 7200)));
    let edge = edge.replace("77.125", "1e12").replace("3.0625", "-1e12");
    let feed = TempEvents::new("range-edge", edge.as_bytes());
    let mut source = FileSource::open(&feed.0, IngestFormat::Jsonl).unwrap();
    let outcome = serve(&mut source);
    assert_eq!((outcome.error, outcome.report.events), (None, 1));
}

#[test]
fn frames_carrying_nan_bits_are_refused_by_task_and_field() {
    // A binary frame carries its floats as raw bits, so NaN needs no
    // parser's help to arrive.
    let good = wire_task(1, 7300);
    let nowhere = GeoPoint::new(10.0, f64::INFINITY);
    let hostile = [
        (
            Task {
                valuation: Money::new(f64::NAN),
                ..good
            },
            "valuation",
        ),
        (
            Task {
                price: Money::new(f64::NEG_INFINITY),
                ..good
            },
            "price",
        ),
        (
            Task {
                destination: nowhere,
                ..good
            },
            "destination",
        ),
    ];
    for (bad, field) in hostile {
        let mut bytes = encode_frame(&wire_driver(GeoPoint::new(41.15, -8.63)));
        bytes.extend(encode_frame(&WireEvent::TaskPublished(wire_task(0, 7200))));
        bytes.extend(encode_frame(&WireEvent::TaskPublished(bad)));
        let mut source = TcpSource::from_stream(loopback(bytes));
        assert_refused(&mut source, &order_one(field), 2, field);
    }

    // A driver announced from nowhere is refused the same way.
    let lost = encode_frame(&wire_driver(GeoPoint::new(f64::NAN, -8.63)));
    let refused = IngestError::OutOfRange {
        event: "driver",
        id: 0,
        field: "source",
    };
    let mut source = TcpSource::from_stream(loopback(lost));
    assert_refused(&mut source, &refused, 0, "driver source");
}

// --- instants no day holds -------------------------------------------------

/// `events` through each transport in turn: a JSONL file, a CSV file,
/// binary frames over loopback TCP.
fn over_every_transport(
    tag: &str,
    events: &[WireEvent],
    mut check: impl FnMut(&mut dyn IngestSource, &str),
) {
    for format in [IngestFormat::Jsonl, IngestFormat::Csv] {
        let lines: Vec<String> = events
            .iter()
            .map(|e| match format {
                IngestFormat::Jsonl => to_json_line(e),
                IngestFormat::Csv => to_csv_line(e),
            })
            .collect();
        let feed = TempEvents::new(&format!("{tag}-{format:?}"), &[]);
        std::fs::write(&feed.0, lines.join("\n") + "\n").unwrap();
        let mut source = FileSource::open(&feed.0, format).unwrap();
        check(&mut source, &format!("{tag} {format:?}"));
    }
    let bytes = events.iter().flat_map(encode_frame).collect();
    let mut source = TcpSource::from_stream(loopback(bytes));
    check(&mut source, &format!("{tag} frames"));
}

#[test]
fn instants_beyond_the_bound_are_refused_by_event_and_field() {
    // A publish time near `i64::MAX` was admitted and sized the dense
    // hourly window table by itself (`memory allocation of
    // 122978293824730368 bytes failed`, abort, no report); the same value
    // reached `publish_time + window` and `next_day_end += day_length`.
    const BOUND: i64 = EventGuard::MAX_INSTANT_SECS;
    let at = Timestamp::from_secs;
    let task = WireEvent::TaskPublished;
    let order_one = [
        ("publish", i64::MAX),
        ("publish", i64::MIN),
        ("publish", BOUND + 1),
        ("pickup_by", i64::MAX),
        ("complete_by", -BOUND - 1),
        ("duration", -1),
        ("duration", BOUND + 1),
    ];
    let orders = order_one.map(|(field, secs)| {
        let mut bad = wire_task(1, 7300);
        match field {
            "publish" => bad.publish_time = at(secs),
            "pickup_by" => bad.pickup_deadline = at(secs),
            "complete_by" => bad.completion_deadline = at(secs),
            _ => bad.duration = TimeDelta::from_secs(secs),
        }
        (task(bad), "task", 1, field)
    });
    let ticks = [i64::MAX, BOUND + 1].map(|t| (WireEvent::EpochTick(t), "tick", 0, "at"));
    for (n, (bad, event, id, field)) in orders.into_iter().chain(ticks).enumerate() {
        let refused = IngestError::OutOfRange { event, id, field };
        let events = [
            wire_driver(GeoPoint::new(41.15, -8.63)),
            task(wire_task(0, 7200)),
            bad,
        ];
        over_every_transport(&format!("instant-{n}-{field}"), &events, |source, case| {
            assert_refused(source, &refused, 2, case);
        });
    }

    // A shift no day holds is refused with its driver, before the dense-id
    // count moves.
    let WireEvent::DriverOnline(announced) = wire_driver(GeoPoint::new(41.15, -8.63)) else {
        unreachable!()
    };
    for (field, bad) in [
        (
            "shift_start",
            Driver {
                shift_start: at(i64::MIN),
                ..announced
            },
        ),
        (
            "shift_end",
            Driver {
                shift_end: at(BOUND + 1),
                ..announced
            },
        ),
    ] {
        let refused = IngestError::OutOfRange {
            event: "driver",
            id: 0,
            field,
        };
        over_every_transport(field, &[WireEvent::DriverOnline(bad)], |source, case| {
            assert_refused(source, &refused, 0, case);
        });
    }

    // The bound itself is admitted, either sign.
    let edge = [
        WireEvent::EpochTick(-BOUND),
        WireEvent::DriverOnline(Driver {
            shift_start: at(-BOUND),
            shift_end: at(BOUND),
            ..announced
        }),
        task(wire_task(0, BOUND - 4000)),
        WireEvent::EpochTick(BOUND),
    ];
    over_every_transport("instant-edge", &edge, |source, case| {
        let outcome = serve(source);
        assert_eq!((outcome.error, outcome.report.events), (None, 4), "{case}");
    });
}
