//! Event wire formats for the serve daemon's ingestion boundary.
//!
//! The streaming engines consume a source-agnostic event sequence (drivers
//! coming online, priced tasks publishing, epoch ticks). This module pins
//! the *external* representation of that sequence — what crosses a file or
//! a socket between a producer (`rideshare export`, a simulator, a real
//! feed adapter) and the long-running `rideshare serve` daemon — in three
//! interchangeable encodings:
//!
//! - **binary frames**: a `u32` little-endian length prefix followed by a
//!   one-byte tag and a fixed-layout payload. Floats travel as IEEE-754
//!   bits ([`f64::to_bits`]), so the round trip is *bit*-exact. This is
//!   the TCP socket format; [`FrameDecoder`] decodes incrementally from
//!   arbitrary chunk boundaries (including one byte at a time).
//! - **JSONL**: one canonical JSON object per line. Floats are printed
//!   with Rust's shortest-round-trip `Display`, which parses back to the
//!   identical bit pattern, so this encoding is also exact (unlike the
//!   human-facing trace CSVs in [`crate::trips_to_csv`], which truncate).
//! - **CSV events**: one tagged row per event, same exactness guarantee,
//!   for spreadsheet-friendly pipelines.
//!
//! All three encodings carry the same [`WireEvent`] and include an
//! explicit [`WireEvent::Eos`] end-of-stream marker so a tailing consumer
//! can distinguish "feed finished cleanly" from "producer died mid-write".
//!
//! The wire types deliberately mirror the *priced* task (price, valuation,
//! service cost already attached) rather than the raw trip: the daemon
//! must not re-run the pricer, or live decisions could diverge from a
//! replay of the same trace.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use rideshare_geo::GeoPoint;
use rideshare_types::{TimeDelta, Timestamp};

use crate::{DriverModel, DriverShift};

/// Largest legal frame body (tag + payload) in bytes.
///
/// Real bodies are under 100 bytes; the cap exists so a garbage length
/// prefix (line noise, a non-frame client) fails immediately with
/// [`WireError::FrameTooLarge`] instead of waiting forever for gigabytes
/// that will never arrive.
pub const MAX_FRAME_BODY: usize = 1024;

const TAG_DRIVER: u8 = 0;
const TAG_TASK: u8 = 1;
const TAG_OFFLINE: u8 = 2;
const TAG_TICK: u8 = 3;
const TAG_EOS: u8 = 4;

/// A driver shift as it crosses the wire (identical fields to
/// [`DriverShift`], flattened to primitives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireDriver {
    /// Dense driver index (the engines require arrival order 0, 1, 2, …).
    pub id: u32,
    /// Shift start location.
    pub source: GeoPoint,
    /// Shift end location (equals `source` for home-work-home drivers).
    pub destination: GeoPoint,
    /// When the driver comes online.
    pub shift_start: Timestamp,
    /// When the driver goes offline.
    pub shift_end: Timestamp,
    /// Working model (§II of the paper).
    pub model: DriverModel,
}

impl From<&DriverShift> for WireDriver {
    fn from(d: &DriverShift) -> Self {
        WireDriver {
            id: d.id.raw(),
            source: d.source,
            destination: d.destination,
            shift_start: d.shift_start,
            shift_end: d.shift_end,
            model: d.model,
        }
    }
}

impl From<&WireDriver> for DriverShift {
    fn from(w: &WireDriver) -> Self {
        DriverShift {
            id: rideshare_types::DriverId::new(w.id),
            source: w.source,
            destination: w.destination,
            shift_start: w.shift_start,
            shift_end: w.shift_end,
            model: w.model,
        }
    }
}

/// A priced task as it crosses the wire.
///
/// Money fields are plain `f64` units here; the ingest layer converts to
/// the typed `Money` wrapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireTask {
    /// Task id (monotone in publish order).
    pub id: u32,
    /// Publish (arrival) time.
    pub publish_time: Timestamp,
    /// Pickup location.
    pub origin: GeoPoint,
    /// Drop-off location.
    pub destination: GeoPoint,
    /// Latest acceptable pickup time.
    pub pickup_deadline: Timestamp,
    /// Latest acceptable completion time.
    pub completion_deadline: Timestamp,
    /// On-trip travel time.
    pub duration: TimeDelta,
    /// Rider-facing price, currency units.
    pub price: f64,
    /// Rider willingness-to-pay, currency units.
    pub valuation: f64,
    /// Platform-side service cost, currency units.
    pub service_cost: f64,
}

/// One event of the serve daemon's external feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEvent {
    /// A driver comes online.
    DriverOnline(WireDriver),
    /// A priced task publishes.
    TaskPublished(WireTask),
    /// A driver leaves (early shift end); payload is the dense driver id.
    DriverOffline(u32),
    /// A clock tick (closes batch windows); payload is epoch seconds.
    EpochTick(i64),
    /// Explicit end-of-stream marker: the producer finished cleanly.
    Eos,
}

/// Decode/parse failure of a single frame or line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame tag byte is not a known event kind.
    UnknownTag(u8),
    /// The frame body length does not match its tag's fixed layout.
    BadLength {
        /// Tag byte of the offending frame.
        tag: u8,
        /// Actual body length in bytes (including the tag byte).
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BODY`] — almost certainly a
    /// non-frame byte stream or corruption, so fail fast.
    FrameTooLarge {
        /// The advertised body length.
        len: usize,
    },
    /// A frame advertised a zero-byte body (no room for the tag).
    EmptyFrame,
    /// A JSONL or CSV line failed to parse; the message says why.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::BadLength { tag, got } => {
                write!(f, "frame tag {tag} has malformed body length {got}")
            }
            WireError::FrameTooLarge { len } => write!(
                f,
                "frame length prefix {len} exceeds the {MAX_FRAME_BODY}-byte cap"
            ),
            WireError::EmptyFrame => write!(f, "frame with empty body"),
            WireError::Malformed(msg) => write!(f, "malformed event line: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Binary frames
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: GeoPoint) {
    put_f64(out, p.lat());
    put_f64(out, p.lon());
}

/// Byte cursor over a frame body; every read is bounds-checked so a short
/// body surfaces as [`WireError::BadLength`], never a panic.
struct Take<'a> {
    body: &'a [u8],
    pos: usize,
    tag: u8,
}

impl<'a> Take<'a> {
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let end = self.pos + N;
        if end > self.body.len() {
            return Err(WireError::BadLength {
                tag: self.tag,
                got: self.body.len() + 1,
            });
        }
        let mut a = [0u8; N];
        a.copy_from_slice(&self.body[self.pos..end]);
        self.pos = end;
        Ok(a)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes::<4>()?))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.bytes::<8>()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.bytes::<8>()?)))
    }

    fn point(&mut self) -> Result<GeoPoint, WireError> {
        let lat = self.f64()?;
        let lon = self.f64()?;
        Ok(GeoPoint::new(lat, lon))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(WireError::BadLength {
                tag: self.tag,
                got: self.body.len() + 1,
            })
        }
    }
}

/// Exact body length in bytes (tag byte included) of a frame tag's fixed
/// layout, or `None` for an unknown tag.
///
/// Every tag's payload is fixed-width, which is what makes the frame
/// bodies reusable as the records of the [`crate::rtb`] binary trace
/// format: a reader that knows the tag knows the record boundary without
/// a length prefix.
#[must_use]
pub const fn body_len(tag: u8) -> Option<usize> {
    match tag {
        // tag + id + 2 points + 2 timestamps + model byte
        TAG_DRIVER => Some(1 + 4 + 32 + 16 + 1),
        // tag + id + publish + 2 points + 3 timestamps + 3 money f64s
        TAG_TASK => Some(1 + 4 + 8 + 32 + 24 + 24),
        TAG_OFFLINE => Some(1 + 4),
        TAG_TICK => Some(1 + 8),
        TAG_EOS => Some(1),
        _ => None,
    }
}

/// Appends one event's frame *body* (tag byte + fixed-width payload, no
/// length prefix) to `out`.
///
/// This is the shared encoder behind both [`encode_frame`] (which adds
/// the `u32` length prefix for the socket format) and the [`crate::rtb`]
/// record writer (which relies on the fixed widths instead). The number
/// of bytes appended always equals [`body_len`] for the event's tag.
pub fn encode_frame_body(event: &WireEvent, out: &mut Vec<u8>) {
    let body = out;
    match event {
        WireEvent::DriverOnline(d) => {
            body.push(TAG_DRIVER);
            put_u32(body, d.id);
            put_point(body, d.source);
            put_point(body, d.destination);
            put_i64(body, d.shift_start.as_secs());
            put_i64(body, d.shift_end.as_secs());
            body.push(match d.model {
                DriverModel::HomeWorkHome => 0,
                DriverModel::Hitchhiking => 1,
            });
        }
        WireEvent::TaskPublished(t) => {
            body.push(TAG_TASK);
            put_u32(body, t.id);
            put_i64(body, t.publish_time.as_secs());
            put_point(body, t.origin);
            put_point(body, t.destination);
            put_i64(body, t.pickup_deadline.as_secs());
            put_i64(body, t.completion_deadline.as_secs());
            put_i64(body, t.duration.as_secs());
            put_f64(body, t.price);
            put_f64(body, t.valuation);
            put_f64(body, t.service_cost);
        }
        WireEvent::DriverOffline(id) => {
            body.push(TAG_OFFLINE);
            put_u32(body, *id);
        }
        WireEvent::EpochTick(at) => {
            body.push(TAG_TICK);
            put_i64(body, *at);
        }
        WireEvent::Eos => body.push(TAG_EOS),
    }
}

/// Encodes one event as a length-prefixed binary frame.
///
/// Layout: `u32` little-endian body length, then the body — one tag byte
/// followed by the tag's fixed-width little-endian payload (floats as
/// IEEE-754 bits). The encoding is bit-exact and self-delimiting.
#[must_use]
pub fn encode_frame(event: &WireEvent) -> Vec<u8> {
    let mut frame = Vec::with_capacity(100);
    frame.extend_from_slice(&[0; 4]);
    encode_frame_body(event, &mut frame);
    let body_len = u32::try_from(frame.len() - 4).expect("frame body fits u32");
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame
}

/// Decodes one frame *body* (the bytes after the length prefix).
///
/// # Errors
///
/// Returns the typed [`WireError`] describing the first structural
/// problem; never panics on hostile input.
pub fn decode_frame_body(body: &[u8]) -> Result<WireEvent, WireError> {
    let (&tag, payload) = body.split_first().ok_or(WireError::EmptyFrame)?;
    let mut take = Take {
        body: payload,
        pos: 0,
        tag,
    };
    let event = match tag {
        TAG_DRIVER => {
            let id = take.u32()?;
            let source = take.point()?;
            let destination = take.point()?;
            let shift_start = Timestamp::from_secs(take.i64()?);
            let shift_end = Timestamp::from_secs(take.i64()?);
            let model = match take.bytes::<1>()?[0] {
                0 => DriverModel::HomeWorkHome,
                1 => DriverModel::Hitchhiking,
                other => {
                    return Err(WireError::Malformed(format!(
                        "unknown driver model {other}"
                    )))
                }
            };
            WireEvent::DriverOnline(WireDriver {
                id,
                source,
                destination,
                shift_start,
                shift_end,
                model,
            })
        }
        TAG_TASK => {
            let id = take.u32()?;
            let publish_time = Timestamp::from_secs(take.i64()?);
            let origin = take.point()?;
            let destination = take.point()?;
            let pickup_deadline = Timestamp::from_secs(take.i64()?);
            let completion_deadline = Timestamp::from_secs(take.i64()?);
            let duration = TimeDelta::from_secs(take.i64()?);
            let price = take.f64()?;
            let valuation = take.f64()?;
            let service_cost = take.f64()?;
            WireEvent::TaskPublished(WireTask {
                id,
                publish_time,
                origin,
                destination,
                pickup_deadline,
                completion_deadline,
                duration,
                price,
                valuation,
                service_cost,
            })
        }
        TAG_OFFLINE => WireEvent::DriverOffline(take.u32()?),
        TAG_TICK => WireEvent::EpochTick(take.i64()?),
        TAG_EOS => WireEvent::Eos,
        other => return Err(WireError::UnknownTag(other)),
    };
    take.finish()?;
    Ok(event)
}

/// Incremental frame decoder: feed byte chunks of any size (network reads
/// split frames arbitrarily), pop complete events.
///
/// # Examples
///
/// ```
/// use rideshare_trace::wire::{encode_frame, FrameDecoder, WireEvent};
///
/// let frame = encode_frame(&WireEvent::EpochTick(3600));
/// let mut dec = FrameDecoder::new();
/// for b in frame {
///     dec.feed(&[b]); // one byte at a time
/// }
/// assert_eq!(dec.next().unwrap(), Some(WireEvent::EpochTick(3600)));
/// assert_eq!(dec.next().unwrap(), None);
/// assert_eq!(dec.pending_bytes(), 0);
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: VecDeque<u8>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes.iter().copied());
    }

    /// Number of buffered bytes not yet forming a complete frame.
    ///
    /// Non-zero at end-of-stream means the producer died mid-frame — the
    /// ingest layer turns that into a typed truncation error.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete event, or `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns the typed [`WireError`] on a structurally invalid frame
    /// (oversized length prefix, unknown tag, short body). The decoder is
    /// not usable after an error — framing is lost.
    // Deliberately named like the fallible-iterator idiom: `Iterator` can't
    // express the `Result<Option<_>>` pull this decoder needs.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireEvent>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        for (i, b) in len_bytes.iter_mut().enumerate() {
            *b = self.buf[i];
        }
        let prefix = u32::from_le_bytes(len_bytes);
        if prefix == 0 {
            return Err(WireError::EmptyFrame);
        }
        // Compare in u64 so the bound check cannot be weakened by a
        // u32→usize truncation on a narrow target; a prefix of exactly
        // MAX_FRAME_BODY is legal, MAX_FRAME_BODY + 1 is not.
        // audit:allow(as-cast): const usize -> u64 widens losslessly on every supported target (usize is at most 64 bits); this is the very bound check that makes the cast below safe.
        if u64::from(prefix) > MAX_FRAME_BODY as u64 {
            return Err(WireError::FrameTooLarge {
                len: usize::try_from(prefix).unwrap_or(usize::MAX),
            });
        }
        // audit:allow(as-cast): cannot truncate — the guard above rejects any prefix exceeding MAX_FRAME_BODY, and MAX_FRAME_BODY is a usize constant, so the surviving value fits usize by construction.
        let len = prefix as usize;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.drain(..4);
        let body: Vec<u8> = self.buf.drain(..len).collect();
        decode_frame_body(&body).map(Some)
    }
}

// ---------------------------------------------------------------------------
// JSONL encoding. The parser and typed reader live in
// `rideshare_types::json`; the wire format's names for them stay here.
// ---------------------------------------------------------------------------

pub use rideshare_types::json::{parse as parse_json, JsonValue};

fn model_name(m: DriverModel) -> &'static str {
    match m {
        DriverModel::HomeWorkHome => "hwh",
        DriverModel::Hitchhiking => "hitch",
    }
}

fn model_from_name(s: &str) -> Result<DriverModel, String> {
    match s {
        "hwh" => Ok(DriverModel::HomeWorkHome),
        "hitch" => Ok(DriverModel::Hitchhiking),
        other => Err(format!("unknown driver model {other:?}")),
    }
}

/// Encodes one event as its canonical JSONL line (no trailing newline).
///
/// Floats use shortest-round-trip formatting, so
/// [`from_json_line`]`(`[`to_json_line`]`(e)) == e` bit-for-bit.
#[must_use]
pub fn to_json_line(event: &WireEvent) -> String {
    match event {
        WireEvent::DriverOnline(d) => format!(
            "{{\"event\":\"driver\",\"id\":{},\"source\":[{},{}],\"destination\":[{},{}],\"shift\":[{},{}],\"model\":\"{}\"}}",
            d.id,
            d.source.lat(),
            d.source.lon(),
            d.destination.lat(),
            d.destination.lon(),
            d.shift_start.as_secs(),
            d.shift_end.as_secs(),
            model_name(d.model),
        ),
        WireEvent::TaskPublished(t) => format!(
            "{{\"event\":\"task\",\"id\":{},\"publish\":{},\"origin\":[{},{}],\"destination\":[{},{}],\"pickup_by\":{},\"complete_by\":{},\"duration\":{},\"price\":{},\"valuation\":{},\"cost\":{}}}",
            t.id,
            t.publish_time.as_secs(),
            t.origin.lat(),
            t.origin.lon(),
            t.destination.lat(),
            t.destination.lon(),
            t.pickup_deadline.as_secs(),
            t.completion_deadline.as_secs(),
            t.duration.as_secs(),
            t.price,
            t.valuation,
            t.service_cost,
        ),
        WireEvent::DriverOffline(id) => format!("{{\"event\":\"offline\",\"id\":{id}}}"),
        WireEvent::EpochTick(at) => format!("{{\"event\":\"tick\",\"at\":{at}}}"),
        WireEvent::Eos => "{\"event\":\"eos\"}".to_string(),
    }
}

/// The two-number array under `key` (`[lat,lon]`, `[start,end]`).
fn pair_field<T: FromStr>(obj: &JsonValue, key: &str) -> Result<(T, T), String> {
    obj.field(key)?
        .row::<2>()
        .and_then(|pair| Ok((pair.num_field(0)?, pair.num_field(1)?)))
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn point_field(obj: &JsonValue, key: &str) -> Result<GeoPoint, String> {
    let (lat, lon) = pair_field(obj, key)?;
    Ok(GeoPoint::new(lat, lon))
}

fn event_from_json(line: &str) -> Result<WireEvent, String> {
    let obj = parse_json(line)?;
    match obj.str_field("event")? {
        "driver" => {
            let (start, end) = pair_field(&obj, "shift")?;
            Ok(WireEvent::DriverOnline(WireDriver {
                id: obj.num_field("id")?,
                source: point_field(&obj, "source")?,
                destination: point_field(&obj, "destination")?,
                shift_start: Timestamp::from_secs(start),
                shift_end: Timestamp::from_secs(end),
                model: model_from_name(obj.str_field("model")?)?,
            }))
        }
        "task" => Ok(WireEvent::TaskPublished(WireTask {
            id: obj.num_field("id")?,
            publish_time: Timestamp::from_secs(obj.num_field("publish")?),
            origin: point_field(&obj, "origin")?,
            destination: point_field(&obj, "destination")?,
            pickup_deadline: Timestamp::from_secs(obj.num_field("pickup_by")?),
            completion_deadline: Timestamp::from_secs(obj.num_field("complete_by")?),
            duration: TimeDelta::from_secs(obj.num_field("duration")?),
            price: obj.num_field("price")?,
            valuation: obj.num_field("valuation")?,
            service_cost: obj.num_field("cost")?,
        })),
        "offline" => Ok(WireEvent::DriverOffline(obj.num_field("id")?)),
        "tick" => Ok(WireEvent::EpochTick(obj.num_field("at")?)),
        "eos" => Ok(WireEvent::Eos),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// Parses one canonical JSONL event line.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] describing the first problem; never
/// panics on hostile input.
pub fn from_json_line(line: &str) -> Result<WireEvent, WireError> {
    event_from_json(line).map_err(WireError::Malformed)
}

// ---------------------------------------------------------------------------
// CSV event encoding
// ---------------------------------------------------------------------------

/// Encodes one event as its CSV event row (no trailing newline).
///
/// Rows are tagged by kind: `D` driver, `T` task, `F` offline, `K` tick,
/// `E` end-of-stream. Same exact float round-trip as the JSONL form.
#[must_use]
pub fn to_csv_line(event: &WireEvent) -> String {
    match event {
        WireEvent::DriverOnline(d) => format!(
            "D,{},{},{},{},{},{},{},{}",
            d.id,
            d.source.lat(),
            d.source.lon(),
            d.destination.lat(),
            d.destination.lon(),
            d.shift_start.as_secs(),
            d.shift_end.as_secs(),
            model_name(d.model),
        ),
        WireEvent::TaskPublished(t) => format!(
            "T,{},{},{},{},{},{},{},{},{},{},{},{}",
            t.id,
            t.publish_time.as_secs(),
            t.origin.lat(),
            t.origin.lon(),
            t.destination.lat(),
            t.destination.lon(),
            t.pickup_deadline.as_secs(),
            t.completion_deadline.as_secs(),
            t.duration.as_secs(),
            t.price,
            t.valuation,
            t.service_cost,
        ),
        WireEvent::DriverOffline(id) => format!("F,{id}"),
        WireEvent::EpochTick(at) => format!("K,{at}"),
        WireEvent::Eos => "E".to_string(),
    }
}

fn csv_num<T: FromStr>(fields: &[&str], idx: usize) -> Result<T, WireError> {
    fields
        .get(idx)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::Malformed(format!("bad field {idx}")))
}

/// Parses one CSV event row.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] on wrong tag, arity or field syntax.
pub fn from_csv_line(line: &str) -> Result<WireEvent, WireError> {
    let fields: Vec<&str> = line.split(',').collect();
    let arity = |n: usize| -> Result<(), WireError> {
        if fields.len() == n {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "row {:?} expects {} fields, got {}",
                fields[0],
                n,
                fields.len()
            )))
        }
    };
    match fields[0] {
        "D" => {
            arity(9)?;
            Ok(WireEvent::DriverOnline(WireDriver {
                id: csv_num(&fields, 1)?,
                source: GeoPoint::new(csv_num(&fields, 2)?, csv_num(&fields, 3)?),
                destination: GeoPoint::new(csv_num(&fields, 4)?, csv_num(&fields, 5)?),
                shift_start: Timestamp::from_secs(csv_num(&fields, 6)?),
                shift_end: Timestamp::from_secs(csv_num(&fields, 7)?),
                model: model_from_name(fields[8]).map_err(WireError::Malformed)?,
            }))
        }
        "T" => {
            arity(13)?;
            Ok(WireEvent::TaskPublished(WireTask {
                id: csv_num(&fields, 1)?,
                publish_time: Timestamp::from_secs(csv_num(&fields, 2)?),
                origin: GeoPoint::new(csv_num(&fields, 3)?, csv_num(&fields, 4)?),
                destination: GeoPoint::new(csv_num(&fields, 5)?, csv_num(&fields, 6)?),
                pickup_deadline: Timestamp::from_secs(csv_num(&fields, 7)?),
                completion_deadline: Timestamp::from_secs(csv_num(&fields, 8)?),
                duration: TimeDelta::from_secs(csv_num(&fields, 9)?),
                price: csv_num(&fields, 10)?,
                valuation: csv_num(&fields, 11)?,
                service_cost: csv_num(&fields, 12)?,
            }))
        }
        "F" => {
            arity(2)?;
            Ok(WireEvent::DriverOffline(csv_num(&fields, 1)?))
        }
        "K" => {
            arity(2)?;
            Ok(WireEvent::EpochTick(csv_num(&fields, 1)?))
        }
        "E" => {
            arity(1)?;
            Ok(WireEvent::Eos)
        }
        other => Err(WireError::Malformed(format!("unknown row tag {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<WireEvent> {
        vec![
            WireEvent::DriverOnline(WireDriver {
                id: 0,
                source: GeoPoint::new(41.1579, -8.6291),
                destination: GeoPoint::new(41.2, -8.5),
                shift_start: Timestamp::from_secs(0),
                shift_end: Timestamp::from_secs(36_000),
                model: DriverModel::Hitchhiking,
            }),
            WireEvent::DriverOnline(WireDriver {
                id: 1,
                source: GeoPoint::new(41.0, -8.0),
                destination: GeoPoint::new(41.0, -8.0),
                shift_start: Timestamp::from_secs(-120),
                shift_end: Timestamp::from_secs(i64::MAX),
                model: DriverModel::HomeWorkHome,
            }),
            WireEvent::TaskPublished(WireTask {
                id: 7,
                publish_time: Timestamp::from_secs(3600),
                origin: GeoPoint::new(41.15, -8.61),
                destination: GeoPoint::new(41.16, -8.58),
                pickup_deadline: Timestamp::from_secs(3900),
                completion_deadline: Timestamp::from_secs(5400),
                duration: TimeDelta::from_secs(740),
                price: 6.25,
                valuation: 0.1 + 0.2, // deliberately non-representable
                service_cost: 1.0 / 3.0,
            }),
            WireEvent::DriverOffline(1),
            WireEvent::EpochTick(i64::MIN),
            WireEvent::EpochTick(i64::MAX),
            WireEvent::Eos,
        ]
    }

    #[test]
    fn frame_round_trip_is_identity() {
        for e in sample_events() {
            let frame = encode_frame(&e);
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            assert_eq!(dec.next().unwrap(), Some(e));
            assert_eq!(dec.next().unwrap(), None);
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn one_byte_feeds_decode_identically() {
        let mut whole = FrameDecoder::new();
        let mut dribble = FrameDecoder::new();
        let mut bytes = Vec::new();
        for e in sample_events() {
            bytes.extend_from_slice(&encode_frame(&e));
        }
        whole.feed(&bytes);
        let mut from_whole = Vec::new();
        while let Some(e) = whole.next().unwrap() {
            from_whole.push(e);
        }
        let mut from_dribble = Vec::new();
        for b in bytes {
            dribble.feed(&[b]);
            while let Some(e) = dribble.next().unwrap() {
                from_dribble.push(e);
            }
        }
        assert_eq!(from_whole, from_dribble);
        assert_eq!(from_whole.len(), sample_events().len());
    }

    #[test]
    fn json_and_csv_round_trips_are_identity() {
        for e in sample_events() {
            let json = to_json_line(&e);
            assert_eq!(from_json_line(&json).unwrap(), e, "{json}");
            let csv = to_csv_line(&e);
            assert_eq!(from_csv_line(&csv).unwrap(), e, "{csv}");
        }
    }

    #[test]
    fn hostile_frames_fail_with_typed_errors() {
        // Garbage length prefix.
        let mut dec = FrameDecoder::new();
        dec.feed(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0]);
        assert!(matches!(dec.next(), Err(WireError::FrameTooLarge { .. })));

        // Zero-length frame.
        let mut dec = FrameDecoder::new();
        dec.feed(&[0, 0, 0, 0]);
        assert!(matches!(dec.next(), Err(WireError::EmptyFrame)));

        // Unknown tag.
        let mut dec = FrameDecoder::new();
        dec.feed(&[1, 0, 0, 0, 99]);
        assert!(matches!(dec.next(), Err(WireError::UnknownTag(99))));

        // Truncated body: length says 9, tag is tick, only 4 payload bytes.
        let mut dec = FrameDecoder::new();
        dec.feed(&[5, 0, 0, 0, TAG_TICK, 1, 2, 3, 4]);
        assert!(matches!(dec.next(), Err(WireError::BadLength { .. })));

        // Oversized body for its tag (extra trailing byte).
        let mut dec = FrameDecoder::new();
        let mut frame = encode_frame(&WireEvent::DriverOffline(3));
        frame[0] += 1; // lengthen the prefix
        frame.push(0xAB);
        dec.feed(&frame);
        assert!(matches!(dec.next(), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn frame_length_prefix_boundary_is_exact() {
        // A body of exactly MAX_FRAME_BODY bytes passes the size check:
        // the decoder consumes it and reports the (unknown) tag, proving
        // the bound is not off by one at the top.
        let mut dec = FrameDecoder::new();
        let len = u32::try_from(MAX_FRAME_BODY).unwrap();
        dec.feed(&len.to_le_bytes());
        dec.feed(&vec![0xEEu8; MAX_FRAME_BODY]);
        assert_eq!(dec.next(), Err(WireError::UnknownTag(0xEE)));

        // One byte over the cap is rejected as a typed error before any
        // body bytes arrive — never a panic, never a wait for data.
        let mut dec = FrameDecoder::new();
        let len = u32::try_from(MAX_FRAME_BODY + 1).unwrap();
        dec.feed(&len.to_le_bytes());
        assert_eq!(
            dec.next(),
            Err(WireError::FrameTooLarge {
                len: MAX_FRAME_BODY + 1
            })
        );

        // The full u32 range stays typed too (no truncation to a small
        // in-bounds value on any target width).
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(dec.next(), Err(WireError::FrameTooLarge { .. })));
    }

    #[test]
    fn body_len_matches_encoder_output() {
        for e in sample_events() {
            let mut body = Vec::new();
            encode_frame_body(&e, &mut body);
            assert_eq!(body_len(body[0]), Some(body.len()), "{e:?}");
        }
        assert_eq!(body_len(250), None);
    }

    #[test]
    fn hostile_lines_fail_with_typed_errors() {
        for bad in [
            "",
            "{",
            "{\"event\":\"task\"}",
            "{\"event\":\"warp\"}",
            "{\"event\":\"tick\",\"at\":\"noon\"}",
            "{\"event\":\"tick\",\"at\":12,\"x\":}",
            "not json at all",
        ] {
            assert!(from_json_line(bad).is_err(), "{bad:?} should fail");
        }
        for bad in [
            "",
            "X,1",
            "T,1,2",
            "K,notanumber",
            "D,0,1,2,3,4,5,6,teleport",
        ] {
            assert!(from_csv_line(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn driver_shift_conversion_round_trips() {
        let shift = DriverShift {
            id: rideshare_types::DriverId::new(4),
            source: GeoPoint::new(41.1, -8.6),
            destination: GeoPoint::new(41.2, -8.4),
            shift_start: Timestamp::from_secs(100),
            shift_end: Timestamp::from_secs(9000),
            model: DriverModel::Hitchhiking,
        };
        let wire = WireDriver::from(&shift);
        let back = DriverShift::from(&wire);
        assert_eq!(back.id, shift.id);
        assert_eq!(back.model, shift.model);
        assert_eq!(back.shift_start, shift.shift_start);
        assert_eq!(back.shift_end, shift.shift_end);
        assert_eq!(back.source.lat().to_bits(), shift.source.lat().to_bits());
    }
}
