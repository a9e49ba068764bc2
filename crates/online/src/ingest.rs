//! Pluggable event ingestion for the serve daemon.
//!
//! [`IngestSource`] is the daemon's only upstream interface: *"give me the
//! next [`StreamEvent`], a clean end-of-stream, or a typed error"*. The
//! implementations cover the three external feed shapes:
//!
//! - [`FileSource`]: JSONL or CSV event files (the `rideshare export`
//!   formats), with optional tail-follow for files still being written,
//! - [`TcpSource`]: the length-prefixed binary frame stream of
//!   [`rideshare_trace::wire`] over a socket,
//! - [`IterSource`]: any in-process iterator (the test harness's way to
//!   drive a daemon without I/O).
//!
//! A hostile or damaged feed must *never* panic the daemon: every decode
//! or ordering problem surfaces as an [`IngestError`], after which the
//! daemon drains its in-flight windows normally and reports a valid
//! partial result. The engines themselves enforce their stream contract
//! with panics (correct for trusted in-process replays); [`EventGuard`]
//! front-runs those checks at the ingestion boundary and converts each
//! would-be panic into the matching typed error.

use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rideshare_geo::GeoPoint;
use rideshare_trace::wire::{
    from_csv_line, from_json_line, to_csv_line, to_json_line, FrameDecoder, WireError, WireEvent,
};
use rideshare_types::Timestamp;

use crate::stream::StreamEvent;

/// How long file tailing and shutdown polling sleep between checks.
const POLL: Duration = Duration::from_millis(10);

/// A typed ingestion failure. The daemon treats every variant the same
/// way — stop ingesting, drain in-flight windows, report the error beside
/// the (valid) partial result — so the distinctions exist for operators
/// and tests, not for control flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Transport-level I/O failure (socket error, unreadable file).
    Io(String),
    /// A structurally invalid binary frame (bad length prefix, unknown
    /// tag, short body).
    Frame(WireError),
    /// The byte stream ended mid-frame: the producer died or the
    /// connection dropped part-way through a write.
    Disconnected {
        /// Undecodable bytes left in the frame buffer.
        pending_bytes: usize,
    },
    /// A JSONL/CSV line failed to parse (1-based line number).
    Malformed {
        /// 1-based line number in the feed.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// An event timestamp moved backwards — the feed violates the
    /// publish-ordering contract every engine's determinism rests on.
    NonMonotonic {
        /// The stream clock before the offending event.
        prev: Timestamp,
        /// The offending event's own timestamp.
        at: Timestamp,
    },
    /// A driver announced out of dense id order.
    NonDenseDriver {
        /// The id the feed announced.
        got: u32,
        /// The id the dense sequence requires next.
        expected: u32,
    },
    /// A coordinate that is not finite, or an amount that is not finite
    /// or lies beyond [`EventGuard::MAX_AMOUNT`] — admitted, it would
    /// saturate or wrap the exact accumulators and be reported as data —
    /// or an instant beyond [`EventGuard::MAX_INSTANT_SECS`], which would
    /// overflow the clock arithmetic or size the hourly table by it.
    OutOfRange {
        /// The kind of event that carried it: `task`, `driver` or `tick`.
        event: &'static str,
        /// That task's or driver's id (0 for a tick, which has none).
        id: u32,
        /// The offending field.
        field: &'static str,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(msg) => write!(f, "ingest I/O failure: {msg}"),
            IngestError::Frame(e) => write!(f, "bad frame: {e}"),
            IngestError::Disconnected { pending_bytes } => write!(
                f,
                "stream ended mid-frame ({pending_bytes} undecodable byte(s) pending)"
            ),
            IngestError::Malformed { line, reason } => {
                write!(f, "malformed event at line {line}: {reason}")
            }
            IngestError::NonMonotonic { prev, at } => write!(
                f,
                "non-monotonic feed: event at {at} after the clock reached {prev}"
            ),
            IngestError::NonDenseDriver { got, expected } => write!(
                f,
                "driver announced with id {got}, expected dense id {expected}"
            ),
            IngestError::OutOfRange { event, id, field } => write!(
                f,
                "{event} {id}: {field} out of range (not finite, an amount beyond ±{:e}, \
                 or an instant beyond ±{} s)",
                EventGuard::MAX_AMOUNT,
                EventGuard::MAX_INSTANT_SECS
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<WireError> for IngestError {
    fn from(e: WireError) -> Self {
        IngestError::Frame(e)
    }
}

/// Relabels a wire event as an engine event — the records pass through
/// untouched; only the tick's instant gains its type. `None` for
/// [`WireEvent::Eos`].
#[must_use]
pub fn wire_to_event(wire: WireEvent) -> Option<StreamEvent> {
    match wire {
        WireEvent::DriverOnline(d) => Some(StreamEvent::DriverOnline(d)),
        WireEvent::TaskPublished(t) => Some(StreamEvent::TaskPublished(t)),
        WireEvent::EpochTick(at) => Some(StreamEvent::EpochTick(Timestamp::from_secs(at))),
        WireEvent::Eos => None,
    }
}

/// Relabels an engine event as its wire form (always succeeds — every
/// engine event has a wire representation; [`WireEvent::Eos`] has no
/// engine-side counterpart and is emitted by producers explicitly).
#[must_use]
pub fn event_to_wire(event: &StreamEvent) -> WireEvent {
    match *event {
        StreamEvent::DriverOnline(d) => WireEvent::DriverOnline(d),
        StreamEvent::TaskPublished(t) => WireEvent::TaskPublished(t),
        StreamEvent::EpochTick(at) => WireEvent::EpochTick(at.as_secs()),
    }
}

/// The daemon's upstream interface: a pull-based, fallible event feed.
pub trait IngestSource {
    /// The next event, `Ok(None)` on clean end-of-stream (an explicit
    /// end-of-stream marker, or end-of-transport on a frame boundary), or
    /// a typed error. After an error or `Ok(None)` the source need not be
    /// callable again.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError`] on transport or decode failure; must never
    /// panic or hang forever on hostile input (blocking for more input on
    /// an open transport is fine — that is what the daemon's shutdown
    /// flag interrupts).
    fn next_event(&mut self) -> Result<Option<StreamEvent>, IngestError>;
}

/// Line-based event file format of a [`FileSource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestFormat {
    /// One canonical JSON object per line ([`rideshare_trace::wire::to_json_line`]).
    Jsonl,
    /// Tagged CSV event rows ([`rideshare_trace::wire::to_csv_line`]).
    Csv,
}

/// A JSONL or CSV event file, optionally tailed while still being
/// written.
///
/// In follow mode only complete (newline-terminated) lines are consumed;
/// on end-of-file the source polls for growth until it sees an
/// end-of-stream marker line or the shutdown flag flips. Without follow,
/// end-of-file is a clean end of stream.
pub struct FileSource {
    reader: BufReader<std::fs::File>,
    path: PathBuf,
    format: IngestFormat,
    follow: bool,
    shutdown: Option<Arc<AtomicBool>>,
    /// Carry-over for a line whose terminating newline has not landed yet.
    partial: String,
    line_no: usize,
    done: bool,
}

impl FileSource {
    /// Opens `path` for reading in `format`.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::Io`] if the file cannot be opened.
    pub fn open(path: &Path, format: IngestFormat) -> Result<Self, IngestError> {
        let file = std::fs::File::open(path)
            .map_err(|e| IngestError::Io(format!("{}: {e}", path.display())))?;
        Ok(Self {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            format,
            follow: false,
            shutdown: None,
            partial: String::new(),
            line_no: 0,
            done: false,
        })
    }

    /// Keeps polling for new lines at end-of-file instead of stopping —
    /// the daemon's live-tail mode for a file a producer is appending to.
    #[must_use]
    pub fn follow(mut self, yes: bool) -> Self {
        self.follow = yes;
        self
    }

    /// Installs a cooperative shutdown flag checked while tailing.
    #[must_use]
    pub fn with_shutdown(mut self, flag: Arc<AtomicBool>) -> Self {
        self.shutdown = Some(flag);
        self
    }

    /// The file being read (for diagnostics).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn parse(&self, line: &str) -> Result<WireEvent, WireError> {
        match self.format {
            IngestFormat::Jsonl => from_json_line(line),
            IngestFormat::Csv => from_csv_line(line),
        }
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

impl IngestSource for FileSource {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, IngestError> {
        loop {
            if self.done {
                return Ok(None);
            }
            let read = self
                .reader
                .read_line(&mut self.partial)
                .map_err(|e| IngestError::Io(e.to_string()))?;
            let complete = self.partial.ends_with('\n');
            if read == 0 || !complete {
                // End of file, possibly mid-line. Tail mode waits for the
                // producer (or the shutdown flag); otherwise a complete
                // final line without its newline is still a line, and an
                // empty carry-over is a clean end of stream.
                if self.follow {
                    if self.shutdown_requested() {
                        return Ok(None);
                    }
                    // audit:allow(wall-clock): the tail-poll backoff is a documented ingestion timing edge — it paces how fast a live tail notices growth and never feeds a timestamp into dispatch (stream time comes from the events themselves).
                    std::thread::sleep(POLL);
                    continue;
                }
                if read != 0 {
                    continue; // may still grow to a newline within this call
                }
                if self.partial.is_empty() {
                    return Ok(None);
                }
            }
            self.line_no += 1;
            // The line is parsed in the buffer it was read into, which the
            // next line reuses: a line costs no allocation.
            let line = self.partial.trim_end_matches(['\n', '\r']);
            let parsed = (!line.trim().is_empty()).then(|| self.parse(line));
            self.partial.clear();
            let Some(parsed) = parsed else {
                continue;
            };
            let wire = parsed.map_err(|e| IngestError::Malformed {
                line: self.line_no,
                reason: e.to_string(),
            })?;
            match wire_to_event(wire) {
                Some(event) => return Ok(Some(event)),
                None => {
                    self.done = true;
                    return Ok(None);
                }
            }
        }
    }
}

/// A length-prefixed binary frame stream over TCP (the
/// [`rideshare_trace::wire`] frame format).
///
/// End-of-transport on a frame boundary is a clean end of stream (as is
/// an explicit end-of-stream frame); mid-frame disconnection surfaces as
/// [`IngestError::Disconnected`] with the number of stranded bytes.
pub struct TcpSource {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// What one socket read lands in before it is fed to the decoder;
    /// allocated once, since most calls pop a buffered frame and read
    /// nothing.
    chunk: Box<[u8]>,
    shutdown: Option<Arc<AtomicBool>>,
    done: bool,
}

impl TcpSource {
    /// Wraps an accepted connection.
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            chunk: vec![0; 8192].into_boxed_slice(),
            shutdown: None,
            done: false,
        }
    }

    /// Installs a cooperative shutdown flag. Reads switch to a short
    /// timeout so the flag is polled even when the producer is idle.
    #[must_use]
    pub fn with_shutdown(mut self, flag: Arc<AtomicBool>) -> Self {
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(25)));
        self.shutdown = Some(flag);
        self
    }
}

impl IngestSource for TcpSource {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, IngestError> {
        loop {
            if self.done {
                return Ok(None);
            }
            if let Some(wire) = self.decoder.next()? {
                match wire_to_event(wire) {
                    Some(event) => return Ok(Some(event)),
                    None => {
                        self.done = true;
                        return Ok(None);
                    }
                }
            }
            if self
                .shutdown
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
            {
                return Ok(None);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    self.done = true;
                    let pending = self.decoder.pending_bytes();
                    if pending == 0 {
                        return Ok(None);
                    }
                    return Err(IngestError::Disconnected {
                        pending_bytes: pending,
                    });
                }
                Ok(n) => self.decoder.feed(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Read timeout: loop back to poll the shutdown flag.
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(IngestError::Io(e.to_string())),
            }
        }
    }
}

/// An in-process iterator as an ingest source — the test harness's way to
/// run the daemon with zero I/O, and the adapter that makes every lazy
/// event pipeline ([`crate::priced_events`]) servable.
pub struct IterSource<I> {
    events: I,
}

impl<I> IterSource<I>
where
    I: Iterator<Item = StreamEvent>,
{
    /// Wraps `events`.
    pub fn new(events: I) -> Self {
        Self { events }
    }
}

impl<I> IngestSource for IterSource<I>
where
    I: Iterator<Item = StreamEvent>,
{
    fn next_event(&mut self) -> Result<Option<StreamEvent>, IngestError> {
        Ok(self.events.next())
    }
}

/// Front-runs the engines' stream-contract panics at the ingestion
/// boundary: timestamps must be non-decreasing and driver announcements
/// dense. A feed the guard admits event-by-event
/// cannot panic a [`crate::StreamEngine`] or the sharded router on
/// contract grounds — which is what lets the daemon return typed errors
/// for hostile input while the engines keep their fail-fast internals.
/// It is also the one place a feed's numbers are bounded: coordinates
/// must be finite, amounts within [`EventGuard::MAX_AMOUNT`] and instants
/// within [`EventGuard::MAX_INSTANT_SECS`], so nothing downstream has to
/// doubt a value it sums, adds a window to or sizes a table by.
#[derive(Debug, Default)]
pub struct EventGuard {
    clock: Option<Timestamp>,
    drivers: u32,
}

impl EventGuard {
    /// The largest price, valuation or service cost admitted, either
    /// sign. The exact accumulators sum amounts as `i128` multiples of
    /// 2⁻⁴⁰, so 10¹² (under 2⁸⁰ of them) leaves room for 2⁴⁶ addends.
    pub const MAX_AMOUNT: f64 = 1e12;

    /// The largest instant admitted, in seconds either side of the
    /// epoch: ten 366-day years. Every window, hold and day length a flag
    /// can set stops at 366 days, so no `instant + window` or
    /// `day_end + day_length` can overflow, and the hourly window table,
    /// which is dense from hour 0, tops out at 87,840 buckets (≈ 4.2 MB).
    pub const MAX_INSTANT_SECS: i64 = 10 * 366 * 86_400;

    /// A fresh guard (no events seen).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Refuses a coordinate that is not finite, an amount that is not
    /// finite or beyond [`EventGuard::MAX_AMOUNT`], and an instant beyond
    /// [`EventGuard::MAX_INSTANT_SECS`] (or a service time that is
    /// negative or longer than that).
    fn check_values(event: &StreamEvent) -> Result<(), IngestError> {
        let finite = |p: GeoPoint| p.lat().is_finite() && p.lon().is_finite();
        let span = -Self::MAX_INSTANT_SECS..=Self::MAX_INSTANT_SECS;
        let in_range = |at: Timestamp| span.contains(&at.as_secs());
        let refuse = |event, id, field| Err(IngestError::OutOfRange { event, id, field });
        match event {
            StreamEvent::DriverOnline(d) => {
                for (field, p) in [("source", d.source), ("destination", d.destination)] {
                    if !finite(p) {
                        return refuse("driver", d.id.raw(), field);
                    }
                }
                let instants = [("shift_start", d.shift_start), ("shift_end", d.shift_end)];
                for (field, at) in instants {
                    if !in_range(at) {
                        return refuse("driver", d.id.raw(), field);
                    }
                }
            }
            StreamEvent::TaskPublished(t) => {
                for (field, p) in [("origin", t.origin), ("destination", t.destination)] {
                    if !finite(p) {
                        return refuse("task", t.id.raw(), field);
                    }
                }
                let amounts = [
                    ("price", t.price),
                    ("valuation", t.valuation),
                    ("service_cost", t.service_cost),
                ];
                for (field, x) in amounts {
                    // NaN fails the compare, so it goes with the infinities.
                    let admitted = x.as_f64().abs() <= Self::MAX_AMOUNT;
                    if !admitted {
                        return refuse("task", t.id.raw(), field);
                    }
                }
                let instants = [
                    ("publish", t.publish_time),
                    ("pickup_by", t.pickup_deadline),
                    ("complete_by", t.completion_deadline),
                ];
                for (field, at) in instants {
                    if !in_range(at) {
                        return refuse("task", t.id.raw(), field);
                    }
                }
                if !(0..=Self::MAX_INSTANT_SECS).contains(&t.duration.as_secs()) {
                    return refuse("task", t.id.raw(), "duration");
                }
            }
            StreamEvent::EpochTick(at) => {
                if !in_range(*at) {
                    return refuse("tick", 0, "at");
                }
            }
        }
        Ok(())
    }

    /// Validates the next event against everything admitted so far.
    ///
    /// # Errors
    ///
    /// Returns the typed [`IngestError`] the event would have caused an
    /// engine panic for.
    pub fn admit(&mut self, event: &StreamEvent) -> Result<(), IngestError> {
        Self::check_values(event)?;
        if let Some(at) = event.timestamp() {
            if let Some(prev) = self.clock {
                if at < prev {
                    return Err(IngestError::NonMonotonic { prev, at });
                }
            }
            self.clock = Some(at);
        }
        if let StreamEvent::DriverOnline(d) = event {
            if d.id.raw() != self.drivers {
                return Err(IngestError::NonDenseDriver {
                    got: d.id.raw(),
                    expected: self.drivers,
                });
            }
            self.drivers += 1;
        }
        Ok(())
    }
}

/// Serialises one engine event as a line in `format` (no newline).
#[must_use]
pub fn event_to_line(event: &StreamEvent, format: IngestFormat) -> String {
    let wire = event_to_wire(event);
    match format {
        IngestFormat::Jsonl => to_json_line(&wire),
        IngestFormat::Csv => to_csv_line(&wire),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::{Driver, Task};
    use rideshare_trace::DriverModel;
    use rideshare_types::{DriverId, Money, TaskId, TimeDelta};
    use std::io::Write;

    fn driver(id: u32) -> StreamEvent {
        StreamEvent::DriverOnline(Driver {
            id: DriverId::new(id),
            source: GeoPoint::new(41.1, -8.6),
            destination: GeoPoint::new(41.2, -8.5),
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(7200),
            model: DriverModel::Hitchhiking,
        })
    }

    fn task(id: u32, publish: i64) -> StreamEvent {
        StreamEvent::TaskPublished(Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(publish),
            origin: GeoPoint::new(41.15, -8.61),
            destination: GeoPoint::new(41.16, -8.58),
            pickup_deadline: Timestamp::from_secs(publish + 300),
            completion_deadline: Timestamp::from_secs(publish + 1500),
            duration: TimeDelta::from_secs(600),
            price: Money::new(6.5),
            valuation: Money::new(7.25),
            service_cost: Money::new(2.0),
        })
    }

    #[test]
    fn file_source_reads_both_formats() {
        for format in [IngestFormat::Jsonl, IngestFormat::Csv] {
            let path = std::env::temp_dir().join(format!(
                "rideshare-ingest-test-{:?}-{}.events",
                format,
                std::process::id()
            ));
            let events = [
                driver(0),
                task(0, 50),
                StreamEvent::EpochTick(Timestamp::from_secs(600)),
            ];
            let mut f = std::fs::File::create(&path).unwrap();
            for e in &events {
                writeln!(f, "{}", event_to_line(e, format)).unwrap();
            }
            writeln!(
                f,
                "{}",
                match format {
                    IngestFormat::Jsonl => to_json_line(&WireEvent::Eos),
                    IngestFormat::Csv => to_csv_line(&WireEvent::Eos),
                }
            )
            .unwrap();
            drop(f);

            let mut src = FileSource::open(&path, format).unwrap();
            let mut got = Vec::new();
            while let Some(e) = src.next_event().unwrap() {
                got.push(e);
            }
            assert_eq!(got, events);
            // After Eos, the source stays finished.
            assert_eq!(src.next_event().unwrap(), None);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn file_source_reports_malformed_lines() {
        let path =
            std::env::temp_dir().join(format!("rideshare-ingest-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"event\":\"tick\",\"at\":10}\nnot json\n").unwrap();
        let mut src = FileSource::open(&path, IngestFormat::Jsonl).unwrap();
        assert!(src.next_event().unwrap().is_some());
        match src.next_event() {
            Err(IngestError::Malformed { line: 2, .. }) => {}
            other => panic!("expected Malformed at line 2, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn guard_front_runs_engine_panics() {
        let mut g = EventGuard::new();
        g.admit(&driver(0)).unwrap();
        g.admit(&task(0, 100)).unwrap();
        assert_eq!(
            g.admit(&task(1, 50)),
            Err(IngestError::NonMonotonic {
                prev: Timestamp::from_secs(100),
                at: Timestamp::from_secs(50),
            })
        );
        assert_eq!(
            g.admit(&driver(7)),
            Err(IngestError::NonDenseDriver {
                got: 7,
                expected: 1
            })
        );
        // Equal timestamps are legal (same-instant arrivals).
        g.admit(&task(1, 100)).unwrap();
    }
    /// The follow-mode tail shares one `POLL` sleep between growth checks
    /// and shutdown checks, and the flag is tested *before* every sleep —
    /// so flipping it while the source idles at EOF must be honored within
    /// roughly one poll interval, never a multi-interval drain. Timed
    /// regression pin for that promptness (generous bound: single-core CI
    /// boxes schedule the waking thread late, but a multi-interval lag or
    /// an unbounded drain would blow far past it).
    #[test]
    fn follow_mode_shutdown_is_prompt_on_idle_tail() {
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;

        let path = std::env::temp_dir().join(format!(
            "rideshare-ingest-shutdown-{}.jsonl",
            std::process::id()
        ));
        // One complete line, no EOS marker: the tail reaches EOF and idles.
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "{}", event_to_line(&driver(0), IngestFormat::Jsonl)).unwrap();
        drop(f);

        let flag = Arc::new(AtomicBool::new(false));
        let mut source = FileSource::open(&path, IngestFormat::Jsonl)
            .unwrap()
            .follow(true)
            .with_shutdown(Arc::clone(&flag));
        assert!(matches!(
            source.next_event(),
            Ok(Some(StreamEvent::DriverOnline(_)))
        ));

        // Flip the flag from another thread while `next_event` is parked
        // in its poll loop at EOF.
        let flipper = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                flag.store(true, Ordering::Relaxed);
            })
        };
        let start = Instant::now();
        let next = source.next_event();
        let elapsed = start.elapsed();
        flipper.join().unwrap();
        assert!(matches!(next, Ok(None)), "shutdown must end the stream");
        assert!(
            elapsed < Duration::from_millis(500),
            "idle-tail shutdown took {elapsed:?}; expected ~flag-flip (30ms) + one poll"
        );

        // Already-flipped flag: the very next call returns immediately,
        // without even one poll sleep.
        let mut source = FileSource::open(&path, IngestFormat::Jsonl)
            .unwrap()
            .follow(true)
            .with_shutdown(Arc::clone(&flag));
        assert!(matches!(
            source.next_event(),
            Ok(Some(StreamEvent::DriverOnline(_)))
        ));
        let start = Instant::now();
        assert!(matches!(source.next_event(), Ok(None)));
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "pre-set shutdown flag must not wait out extra poll intervals"
        );

        let _ = std::fs::remove_file(&path);
    }
}
