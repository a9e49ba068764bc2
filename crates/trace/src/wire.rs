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
//!   shortest-round-trip ([`json::write_f64`], the bytes of `Display`),
//!   which parses back to the identical bit pattern, so this encoding is
//!   also exact (unlike the human-facing trace CSVs in
//!   [`crate::trips_to_csv`], which truncate).
//! - **CSV events**: one tagged row per event, same exactness guarantee,
//!   for spreadsheet-friendly pipelines.
//!
//! All three encodings carry the same [`WireEvent`] and include an
//! explicit [`WireEvent::Eos`] end-of-stream marker so a tailing consumer
//! can distinguish "feed finished cleanly" from "producer died mid-write".
//!
//! The wire carries the records themselves — [`Driver`] and the *priced*
//! [`Task`] (price, valuation, service cost already attached), not the raw
//! trip: the daemon must not re-run the pricer, or live decisions could
//! diverge from a replay of the same trace. Ids travel as their raw `u32`
//! and amounts as their `f64` units; no second set of record types exists
//! for the encodings to drift from.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use rideshare_geo::GeoPoint;
use rideshare_types::json::{self, JsonKey};
use rideshare_types::{widen_usize, DriverId, Money, TaskId, TimeDelta, Timestamp};

use crate::{Driver, DriverModel, Task};

/// Largest legal frame body (tag + payload) in bytes.
///
/// Real bodies are under 100 bytes; the cap exists so a garbage length
/// prefix (line noise, a non-frame client) fails immediately with
/// [`WireError::FrameTooLarge`] instead of waiting forever for gigabytes
/// that will never arrive.
pub const MAX_FRAME_BODY: usize = 1024;

const TAG_DRIVER: u8 = 0;
const TAG_TASK: u8 = 1;
// Tag 2 is retired (it carried a driver-offline hint) and decodes as unknown.
const TAG_TICK: u8 = 3;
const TAG_EOS: u8 = 4;

/// One event of the serve daemon's external feed. A driver leaves when
/// her announced shift ends; no event says so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEvent {
    /// A driver comes online (ids dense in arrival order 0, 1, 2, …).
    DriverOnline(Driver),
    /// A priced task publishes.
    TaskPublished(Task),
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
            put_u32(body, d.id.raw());
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
            put_u32(body, t.id.raw());
            put_i64(body, t.publish_time.as_secs());
            put_point(body, t.origin);
            put_point(body, t.destination);
            put_i64(body, t.pickup_deadline.as_secs());
            put_i64(body, t.completion_deadline.as_secs());
            put_i64(body, t.duration.as_secs());
            put_f64(body, t.price.as_f64());
            put_f64(body, t.valuation.as_f64());
            put_f64(body, t.service_cost.as_f64());
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
            let id = DriverId::new(take.u32()?);
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
            WireEvent::DriverOnline(Driver {
                id,
                source,
                destination,
                shift_start,
                shift_end,
                model,
            })
        }
        TAG_TASK => {
            let id = TaskId::new(take.u32()?);
            let publish_time = Timestamp::from_secs(take.i64()?);
            let origin = take.point()?;
            let destination = take.point()?;
            let pickup_deadline = Timestamp::from_secs(take.i64()?);
            let completion_deadline = Timestamp::from_secs(take.i64()?);
            let duration = TimeDelta::from_secs(take.i64()?);
            let price = Money::new(take.f64()?);
            let valuation = Money::new(take.f64()?);
            let service_cost = Money::new(take.f64()?);
            WireEvent::TaskPublished(Task {
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
/// The decoder holds one byte buffer and a read offset into it. Each body
/// is decoded in place from that buffer, so a frame costs no allocation
/// and no copy beyond the one `feed` makes; `feed` first moves the unread
/// tail (at most one partial frame when every complete frame has been
/// popped) to the front.
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
    /// Bytes received; `buf[head..]` are not yet consumed.
    buf: Vec<u8>,
    head: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet forming a complete frame.
    ///
    /// Non-zero at end-of-stream means the producer died mid-frame — the
    /// ingest layer turns that into a typed truncation error.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
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
        let Some((&prefix, rest)) = self.buf[self.head..].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let prefix = u32::from_le_bytes(prefix);
        if prefix == 0 {
            return Err(WireError::EmptyFrame);
        }
        // A prefix of exactly MAX_FRAME_BODY is legal, MAX_FRAME_BODY + 1
        // is not.
        let len = widen_usize(prefix);
        if len > MAX_FRAME_BODY {
            return Err(WireError::FrameTooLarge { len });
        }
        if rest.len() < len {
            return Ok(None);
        }
        let start = self.head + 4;
        self.head = start + len;
        decode_frame_body(&self.buf[start..self.head]).map(Some)
    }
}

// ---------------------------------------------------------------------------
// JSONL encoding. The grammar, both of its readers and the float writer
// live in `rideshare_types::json`; the wire format's names for the tree
// stay here. A task line is written from its layout's literal pieces
// (`TASK_LINE_PIECES`) with its twelve numbers between them, and a line in
// that layout is read back in one forward pass over the same pieces; every
// other line, and every refusal, is the member walk's.
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

/// One value of an event line: an integer written by its `Display`, a
/// float by [`json::write_f64`], or a fixed word.
#[derive(Clone, Copy)]
enum Field {
    Int(i64),
    Float(f64),
    Word(&'static str),
}

impl Field {
    fn write(self, line: &mut String) {
        match self {
            Field::Int(n) => {
                let _ = write!(line, "{n}");
            }
            Field::Float(x) => json::write_f64(line, x),
            Field::Word(w) => line.push_str(w),
        }
    }
}

/// A driver's fields in the order both text formats write them.
fn driver_fields(d: &Driver) -> [Field; 8] {
    [
        Field::Int(i64::from(d.id.raw())),
        Field::Float(d.source.lat()),
        Field::Float(d.source.lon()),
        Field::Float(d.destination.lat()),
        Field::Float(d.destination.lon()),
        Field::Int(d.shift_start.as_secs()),
        Field::Int(d.shift_end.as_secs()),
        Field::Word(model_name(d.model)),
    ]
}

/// A task's twelve numbers in the order both text formats write them.
fn task_fields(t: &Task) -> [Field; 12] {
    [
        Field::Int(i64::from(t.id.raw())),
        Field::Int(t.publish_time.as_secs()),
        Field::Float(t.origin.lat()),
        Field::Float(t.origin.lon()),
        Field::Float(t.destination.lat()),
        Field::Float(t.destination.lon()),
        Field::Int(t.pickup_deadline.as_secs()),
        Field::Int(t.completion_deadline.as_secs()),
        Field::Int(t.duration.as_secs()),
        Field::Float(t.price.as_f64()),
        Field::Float(t.valuation.as_f64()),
        Field::Float(t.service_cost.as_f64()),
    ]
}

/// `pieces[0]`, `fields[0]`, `pieces[1]`, …, the last piece: one line, in
/// one string sized for it. There is one piece more than fields.
fn write_line(pieces: &[&str], fields: &[Field]) -> String {
    let text: usize = pieces.iter().map(|p| p.len()).sum();
    // 24 bytes hold any integer and most floats; a longer float grows it.
    let mut line = String::with_capacity(text + 24 * fields.len());
    for (piece, field) in pieces.iter().zip(fields) {
        line.push_str(piece);
        field.write(&mut line);
    }
    line.push_str(pieces.last().copied().unwrap_or_default());
    line
}

/// Encodes one event as its canonical JSONL line (no trailing newline).
///
/// A driver or task line is its layout's fixed text with the event's
/// fields written between the pieces, into one string sized for the line;
/// the task layout is the one [`from_json_line`] reads in a forward pass.
/// Integers are written by their `Display` and floats by
/// [`json::write_f64`], which writes the bytes of `Display`: the shortest
/// decimal that reads back to the same bits, so
/// [`from_json_line`]`(`[`to_json_line`]`(e)) == e` bit-for-bit.
#[must_use]
pub fn to_json_line(event: &WireEvent) -> String {
    match event {
        WireEvent::DriverOnline(d) => write_line(&DRIVER_LINE_PIECES, &driver_fields(d)),
        WireEvent::TaskPublished(t) => write_line(&TASK_LINE_PIECES, &task_fields(t)),
        WireEvent::EpochTick(at) => format!("{{\"event\":\"tick\",\"at\":{at}}}"),
        WireEvent::Eos => "{\"event\":\"eos\"}".to_string(),
    }
}

/// The driver line's literal text around its eight fields (the last is
/// the model's name, inside quotes).
const DRIVER_LINE_PIECES: [&str; 9] = [
    "{\"event\":\"driver\",\"id\":",
    ",\"source\":[",
    ",",
    "],\"destination\":[",
    ",",
    "],\"shift\":[",
    ",",
    "],\"model\":\"",
    "\"}",
];

/// The task line's literal text, cut at its twelve numbers: piece `i`
/// precedes number `i`, and the last piece ends the line. The one copy of
/// the layout: [`to_json_line`] writes these pieces and
/// `task_from_writer_layout` matches them.
const TASK_LINE_PIECES: [&str; 13] = [
    "{\"event\":\"task\",\"id\":",
    ",\"publish\":",
    ",\"origin\":[",
    ",",
    "],\"destination\":[",
    ",",
    "],\"pickup_by\":",
    ",\"complete_by\":",
    ",\"duration\":",
    ",\"price\":",
    ",\"valuation\":",
    ",\"cost\":",
    "}",
];

/// A forward pass over a line against [`TASK_LINE_PIECES`]: the text not
/// yet read, and the pieces not yet matched.
struct TaskLayout<'a> {
    rest: &'a str,
    pieces: std::slice::Iter<'static, &'static str>,
}

impl TaskLayout<'_> {
    /// Matches the next piece byte for byte, then reads the number after
    /// it as the member walk reads a number: the grammar's span
    /// ([`json::number_span`]), parsed by [`json::read_num`]. A refusal's
    /// message is dropped; the walk writes its own.
    fn num<T: FromStr>(&mut self) -> Option<T> {
        let rest = self.rest.strip_prefix(*self.pieces.next()?)?;
        let span = json::number_span(rest);
        self.rest = &rest[span.len()..];
        json::read_num(span, 0).ok()
    }
}

/// The task a line carries when the line is in exactly the layout
/// [`to_json_line`] writes, read in one forward pass with no allocation;
/// `None` for every other line, whatever it holds.
///
/// A line this accepts is one object of eleven distinct members with no
/// whitespace and no escape, whose numbers each span what the grammar
/// gives them (the byte after each is punctuation outside the span rule)
/// and parse as the type the walk reads them as. The walk therefore
/// accepts it too and reads every field from the same text: both readers
/// give the same task, bit for bit.
fn task_from_writer_layout(line: &str) -> Option<Task> {
    let mut l = TaskLayout {
        rest: line,
        pieces: TASK_LINE_PIECES.iter(),
    };
    // Fields are read in the order they are written, which is the
    // template's.
    let task = Task {
        id: TaskId::new(l.num()?),
        publish_time: Timestamp::from_secs(l.num()?),
        origin: GeoPoint::new(l.num()?, l.num()?),
        destination: GeoPoint::new(l.num()?, l.num()?),
        pickup_deadline: Timestamp::from_secs(l.num()?),
        completion_deadline: Timestamp::from_secs(l.num()?),
        duration: TimeDelta::from_secs(l.num()?),
        price: Money::new(l.num()?),
        valuation: Money::new(l.num()?),
        service_cost: Money::new(l.num()?),
    };
    // Only the closing piece is left, and it is the rest of the line.
    (l.pieces.as_slice() == [l.rest]).then_some(task)
}

/// The raw text of every member an event line may carry, as
/// [`json::for_each_member`] hands it over. A repeated key keeps its first
/// value, as [`JsonValue::get`] does; unknown keys are passed over.
#[derive(Default)]
struct LineMembers<'a> {
    event: Option<&'a str>,
    id: Option<&'a str>,
    source: Option<&'a str>,
    destination: Option<&'a str>,
    shift: Option<&'a str>,
    model: Option<&'a str>,
    publish: Option<&'a str>,
    origin: Option<&'a str>,
    pickup_by: Option<&'a str>,
    complete_by: Option<&'a str>,
    duration: Option<&'a str>,
    price: Option<&'a str>,
    valuation: Option<&'a str>,
    cost: Option<&'a str>,
    at: Option<&'a str>,
}

impl<'a> LineMembers<'a> {
    fn of(line: &'a str) -> Result<Self, String> {
        let mut m = Self::default();
        json::for_each_member(line, |key, raw| {
            let slot = match key {
                "event" => &mut m.event,
                "id" => &mut m.id,
                "source" => &mut m.source,
                "destination" => &mut m.destination,
                "shift" => &mut m.shift,
                "model" => &mut m.model,
                "publish" => &mut m.publish,
                "origin" => &mut m.origin,
                "pickup_by" => &mut m.pickup_by,
                "complete_by" => &mut m.complete_by,
                "duration" => &mut m.duration,
                "price" => &mut m.price,
                "valuation" => &mut m.valuation,
                "cost" => &mut m.cost,
                "at" => &mut m.at,
                _ => return,
            };
            slot.get_or_insert(raw);
        })?;
        Ok(m)
    }
}

/// The member `key` found, or the error naming it.
fn present<'a>(raw: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    raw.ok_or_else(|| format!("missing {}", key.label()))
}

fn num_member<T: FromStr>(raw: Option<&str>, key: &str) -> Result<T, String> {
    json::read_num(present(raw, key)?, key)
}

fn str_member<'a>(raw: Option<&'a str>, key: &str) -> Result<Cow<'a, str>, String> {
    json::read_str(present(raw, key)?, key)
}

/// The two-number array under `key` (`[lat,lon]`, `[start,end]`).
fn pair_member<T: FromStr>(raw: Option<&str>, key: &str) -> Result<(T, T), String> {
    json::read_row::<2>(present(raw, key)?)
        .and_then(|[a, b]| Ok((json::read_num(a, 0)?, json::read_num(b, 1)?)))
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn point_member(raw: Option<&str>, key: &str) -> Result<GeoPoint, String> {
    let (lat, lon) = pair_member(raw, key)?;
    Ok(GeoPoint::new(lat, lon))
}

fn event_from_json(line: &str) -> Result<WireEvent, String> {
    let m = LineMembers::of(line)?;
    match &*str_member(m.event, "event")? {
        "driver" => {
            let (start, end) = pair_member(m.shift, "shift")?;
            Ok(WireEvent::DriverOnline(Driver {
                id: DriverId::new(num_member(m.id, "id")?),
                source: point_member(m.source, "source")?,
                destination: point_member(m.destination, "destination")?,
                shift_start: Timestamp::from_secs(start),
                shift_end: Timestamp::from_secs(end),
                model: model_from_name(&str_member(m.model, "model")?)?,
            }))
        }
        "task" => Ok(WireEvent::TaskPublished(Task {
            id: TaskId::new(num_member(m.id, "id")?),
            publish_time: Timestamp::from_secs(num_member(m.publish, "publish")?),
            origin: point_member(m.origin, "origin")?,
            destination: point_member(m.destination, "destination")?,
            pickup_deadline: Timestamp::from_secs(num_member(m.pickup_by, "pickup_by")?),
            completion_deadline: Timestamp::from_secs(num_member(m.complete_by, "complete_by")?),
            duration: TimeDelta::from_secs(num_member(m.duration, "duration")?),
            price: Money::new(num_member(m.price, "price")?),
            valuation: Money::new(num_member(m.valuation, "valuation")?),
            service_cost: Money::new(num_member(m.cost, "cost")?),
        })),
        "tick" => Ok(WireEvent::EpochTick(num_member(m.at, "at")?)),
        "eos" => Ok(WireEvent::Eos),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// Parses one JSONL event line, building no tree.
///
/// A task line in exactly the layout [`to_json_line`] writes (every task
/// line `rideshare export` writes) is read in one forward pass: each
/// literal piece of the template is matched byte for byte and each number
/// read where it stands. Every other line, from a driver line to a task
/// line with one space or one member more, goes to the member walk from
/// byte 0: the members are walked once, and each field is then read from
/// its raw text. The walk accepts exactly the lines [`parse_json`] accepts
/// and reads them as the tree's accessors would (first of a repeated key,
/// unknown members ignored), with the same messages. The forward pass
/// refuses nothing and takes only lines the walk reads to the same bits,
/// so which reader ran never shows in the result.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] describing the first problem; never
/// panics on hostile input.
pub fn from_json_line(line: &str) -> Result<WireEvent, WireError> {
    if let Some(task) = task_from_writer_layout(line) {
        return Ok(WireEvent::TaskPublished(task));
    }
    event_from_json(line).map_err(WireError::Malformed)
}

// ---------------------------------------------------------------------------
// CSV event encoding
// ---------------------------------------------------------------------------

/// Encodes one event as its CSV event row (no trailing newline).
///
/// Rows are tagged by kind: `D` driver, `T` task, `K` tick, `E`
/// end-of-stream. The fields are the JSONL line's, written the same way,
/// so the float round trip is as exact.
#[must_use]
pub fn to_csv_line(event: &WireEvent) -> String {
    match event {
        WireEvent::DriverOnline(d) => csv_row("D", &driver_fields(d)),
        WireEvent::TaskPublished(t) => csv_row("T", &task_fields(t)),
        WireEvent::EpochTick(at) => format!("K,{at}"),
        WireEvent::Eos => "E".to_string(),
    }
}

/// `tag` and `fields`, comma-separated.
fn csv_row(tag: &str, fields: &[Field]) -> String {
    let mut row = String::with_capacity(tag.len() + 24 * fields.len());
    row.push_str(tag);
    for field in fields {
        row.push(',');
        field.write(&mut row);
    }
    row
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
    // The widest row (a task) has 13 fields; a longer one is only counted.
    let mut fields = [""; 13];
    let mut count = 0;
    for field in line.split(',') {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    let arity = |n: usize| -> Result<(), WireError> {
        if count == n {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "row {:?} expects {n} fields, got {count}",
                fields[0]
            )))
        }
    };
    match fields[0] {
        "D" => {
            arity(9)?;
            Ok(WireEvent::DriverOnline(Driver {
                id: DriverId::new(csv_num(&fields, 1)?),
                source: GeoPoint::new(csv_num(&fields, 2)?, csv_num(&fields, 3)?),
                destination: GeoPoint::new(csv_num(&fields, 4)?, csv_num(&fields, 5)?),
                shift_start: Timestamp::from_secs(csv_num(&fields, 6)?),
                shift_end: Timestamp::from_secs(csv_num(&fields, 7)?),
                model: model_from_name(fields[8]).map_err(WireError::Malformed)?,
            }))
        }
        "T" => {
            arity(13)?;
            Ok(WireEvent::TaskPublished(Task {
                id: TaskId::new(csv_num(&fields, 1)?),
                publish_time: Timestamp::from_secs(csv_num(&fields, 2)?),
                origin: GeoPoint::new(csv_num(&fields, 3)?, csv_num(&fields, 4)?),
                destination: GeoPoint::new(csv_num(&fields, 5)?, csv_num(&fields, 6)?),
                pickup_deadline: Timestamp::from_secs(csv_num(&fields, 7)?),
                completion_deadline: Timestamp::from_secs(csv_num(&fields, 8)?),
                duration: TimeDelta::from_secs(csv_num(&fields, 9)?),
                price: Money::new(csv_num(&fields, 10)?),
                valuation: Money::new(csv_num(&fields, 11)?),
                service_cost: Money::new(csv_num(&fields, 12)?),
            }))
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_events() -> Vec<WireEvent> {
        vec![
            WireEvent::DriverOnline(Driver {
                id: DriverId::new(0),
                source: GeoPoint::new(41.1579, -8.6291),
                destination: GeoPoint::new(41.2, -8.5),
                shift_start: Timestamp::from_secs(0),
                shift_end: Timestamp::from_secs(36_000),
                model: DriverModel::Hitchhiking,
            }),
            WireEvent::DriverOnline(Driver {
                id: DriverId::new(1),
                source: GeoPoint::new(41.0, -8.0),
                destination: GeoPoint::new(41.0, -8.0),
                shift_start: Timestamp::from_secs(-120),
                shift_end: Timestamp::from_secs(i64::MAX),
                model: DriverModel::HomeWorkHome,
            }),
            WireEvent::TaskPublished(Task {
                id: TaskId::new(7),
                publish_time: Timestamp::from_secs(3600),
                origin: GeoPoint::new(41.15, -8.61),
                destination: GeoPoint::new(41.16, -8.58),
                pickup_deadline: Timestamp::from_secs(3900),
                completion_deadline: Timestamp::from_secs(5400),
                duration: TimeDelta::from_secs(740),
                price: Money::new(6.25),
                valuation: Money::new(0.1 + 0.2), // deliberately non-representable
                service_cost: Money::new(1.0 / 3.0),
            }),
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

        // The retired offline tag is unknown, whatever its payload.
        let mut dec = FrameDecoder::new();
        dec.feed(&[5, 0, 0, 0, 2, 3, 0, 0, 0]);
        assert_eq!(dec.next(), Err(WireError::UnknownTag(2)));

        // Oversized body for its tag (extra trailing byte).
        let mut dec = FrameDecoder::new();
        let mut frame = encode_frame(&WireEvent::EpochTick(3));
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

    /// A canonical task line, and the task it carries.
    const TASK_LINE: &str = r#"{"event":"task","id":0,"publish":64575,"origin":[41.15,-8.63],"destination":[41.16,-8.6],"pickup_by":65475,"complete_by":69031,"duration":600,"price":6.7,"valuation":36.5,"cost":1.8}"#;

    fn task(price: f64) -> WireEvent {
        WireEvent::TaskPublished(Task {
            id: TaskId::new(0),
            publish_time: Timestamp::from_secs(64_575),
            origin: GeoPoint::new(41.15, -8.63),
            destination: GeoPoint::new(41.16, -8.6),
            pickup_deadline: Timestamp::from_secs(65_475),
            completion_deadline: Timestamp::from_secs(69_031),
            duration: TimeDelta::from_secs(600),
            price: Money::new(price),
            valuation: Money::new(36.5),
            service_cost: Money::new(1.8),
        })
    }

    /// `TASK_LINE` with `from` replaced by `to`.
    fn task_line(from: &str, to: &str) -> String {
        assert!(TASK_LINE.contains(from), "{from}");
        TASK_LINE.replacen(from, to, 1)
    }

    /// The forward pass reads every task line the writer writes, boundary
    /// values included. Nothing else would notice if it stopped: a line it
    /// passes up still decodes the same, through the walk.
    #[test]
    fn writer_layout_pass_reads_every_written_task_line() {
        let mut rng = StdRng::seed_from_u64(49);
        let mut tasks: Vec<Task> = (0..500)
            .map(|_| Task {
                id: TaskId::new(rng.gen()),
                publish_time: Timestamp::from_secs(rng.gen_range(0..86_400)),
                origin: GeoPoint::new(rng.gen_range(40.9..41.4), rng.gen_range(-8.9..-8.3)),
                destination: GeoPoint::new(
                    rng.gen_range(-90.0..90.0),
                    rng.gen_range(-180.0..180.0),
                ),
                pickup_deadline: Timestamp::from_secs(rng.gen_range(i64::MIN..=i64::MAX)),
                completion_deadline: Timestamp::from_secs(rng.gen_range(-1..100_000)),
                duration: TimeDelta::from_secs(rng.gen_range(0..7_200)),
                price: Money::new(rng.gen_range(0.0..100.0)),
                valuation: Money::new(rng.gen_range(-1.0e9..1.0e9)),
                service_cost: Money::new(rng.gen::<f64>() / 3.0),
            })
            .collect();
        let boundary = |instant: i64, amounts: [f64; 3]| Task {
            id: TaskId::new(u32::MAX),
            publish_time: Timestamp::from_secs(instant),
            origin: GeoPoint::new(-90.0, 180.0),
            destination: GeoPoint::new(-0.0, f64::MIN_POSITIVE / 4.0),
            pickup_deadline: Timestamp::from_secs(instant),
            completion_deadline: Timestamp::from_secs(instant),
            duration: TimeDelta::from_secs(instant),
            price: Money::new(amounts[0]),
            valuation: Money::new(amounts[1]),
            service_cost: Money::new(amounts[2]),
        };
        let subnormal = f64::from_bits(1);
        tasks.push(boundary(i64::MIN, [-0.0, subnormal, 1e300]));
        tasks.push(boundary(i64::MAX, [1e300, -0.0, -subnormal]));
        tasks.push(boundary(0, [subnormal, 1e300, -1e300]));
        for task in tasks {
            let event = WireEvent::TaskPublished(task);
            let line = to_json_line(&event);
            let read = task_from_writer_layout(&line).map(WireEvent::TaskPublished);
            assert_eq!(
                read.as_ref().map(encode_frame),
                Some(encode_frame(&event)),
                "{line}"
            );
        }
    }

    /// Every line is read the same whatever the decoder's insides: the
    /// exact message of each refusal is part of the format.
    #[test]
    fn hostile_lines_fail_with_typed_errors() {
        let driver = r#"{"event":"driver","id":0,"source":[41.15,-8.63],"destination":[41.16,-8.62],"shift":[0,86400],"model":"hitch"}"#;
        let deep = format!(r#"{{"event":"eos","x":{}"#, "[".repeat(32));
        let json: Vec<(String, &str)> = vec![
            ("".into(), "unexpected None at byte 0"),
            ("{".into(), "expected '\"' at byte 1, found None"),
            (r#"{"event":"task"}"#.into(), "missing field \"id\""),
            (r#"{"event":"warp"}"#.into(), "unknown event kind \"warp\""),
            (
                r#"{"event":"tick","at":"noon"}"#.into(),
                "field \"at\" is not a number",
            ),
            (
                r#"{"event":"tick","at":12,"x":}"#.into(),
                "unexpected Some('}') at byte 28",
            ),
            ("not json at all".into(), "unexpected literal at byte 0"),
            (
                task_line("[41.15,-8.63]", "[41.15,-8.63,0]"),
                "field \"origin\": row has 3 cells, expected 2",
            ),
            (
                task_line("\"price\":6.7", "\"price\":\"6.7\""),
                "field \"price\" is not a number",
            ),
            (
                r#"{"event":"offline","id":3}"#.into(),
                "unknown event kind \"offline\"",
            ),
            (
                driver.replace("\"id\":0", "\"id\":4294967296"),
                "field \"id\" is not a valid u32",
            ),
            (
                driver.replace("[0,86400]", "[0,\"86400\"]"),
                "field \"shift\": cell 1 is not a number",
            ),
            (
                driver.replace("[41.15,-8.63]", "41.15"),
                "field \"source\": row is not an array of 2 cells",
            ),
            (
                driver.replace("[41.16,-8.62]", "[41.16,[-8.62]]"),
                "field \"destination\": cell 1 is not a number",
            ),
            (
                driver.replace("[0,86400]", "[0,8.64e4]"),
                "field \"shift\": cell 1 is not a valid i64",
            ),
            (
                driver.replace("hitch", "bus"),
                "unknown driver model \"bus\"",
            ),
            (r#"[{"event":"eos"}]"#.into(), "missing field \"event\""),
            (r#""eos""#.into(), "missing field \"event\""),
            (r#"{"event":"eos"} x"#.into(), "trailing garbage at byte 16"),
            (r#"{"event":5}"#.into(), "field \"event\" is not a string"),
            (r#"{"ev\qent":"eos"}"#.into(), "unsupported escape '\\q'"),
            (
                r#"{"event":"\u00zz"}"#.into(),
                "expected four hex digits in \\u escape at byte 12",
            ),
            (r#"{"event":"eos"#.into(), "unterminated string"),
            (deep, "nesting deeper than 32 levels at byte 50"),
            (
                r#"{"event":"tick","at":+1}"#.into(),
                "unexpected Some('+') at byte 21",
            ),
            (
                r#"{"event":"tick","at":1-2}"#.into(),
                "field \"at\" is not a valid i64",
            ),
            (
                r#"{"event":"tick","at":12 "x":1}"#.into(),
                "expected ',' or '}' at byte 24, found Some('\"')",
            ),
            (
                r#"{"event":"tick","at":"noon","at":5}"#.into(),
                "field \"at\" is not a number",
            ),
            // Near misses of the writer's own task layout.
            (
                task_line("\"id\":0", "\"id\":+0"),
                "unexpected Some('+') at byte 21",
            ),
            (
                task_line("\"id\":0", "\"id\":4294967296"),
                "field \"id\" is not a valid u32",
            ),
            (
                task_line("\"publish\":64575", "\"publish\":6.4e4"),
                "field \"publish\" is not a valid i64",
            ),
            (task_line("1.8}", "1.8}x"), "trailing garbage at byte 182"),
        ];
        for (line, want) in json {
            assert_eq!(
                from_json_line(&line),
                Err(WireError::Malformed(want.into())),
                "{line}"
            );
        }
        let long_task = format!("{},0", to_csv_line(&task(6.7)));
        let csv = [
            ("", "unknown row tag \"\""),
            ("X,1", "unknown row tag \"X\""),
            ("T,1,2", "row \"T\" expects 13 fields, got 3"),
            ("K,notanumber", "bad field 1"),
            (
                "D,0,1,2,3,4,5,6,teleport",
                "unknown driver model \"teleport\"",
            ),
            ("F,3", "unknown row tag \"F\""),
            ("K,1,2", "row \"K\" expects 2 fields, got 3"),
            ("E,", "row \"E\" expects 1 fields, got 2"),
            (&long_task, "row \"T\" expects 13 fields, got 14"),
            ("T,1,2,3,4,5,6,7,8,9,x,11,12", "bad field 10"),
        ];
        for (line, want) in csv {
            assert_eq!(
                from_csv_line(line),
                Err(WireError::Malformed(want.into())),
                "{line}"
            );
        }
    }

    /// Lines no encoder writes but the format accepts: members in any
    /// order, the first of a repeated key, escapes in keys and values,
    /// unknown members (nested or not), whitespace between tokens, and a
    /// float literal past `f64::MAX`, which reads as infinity here and is
    /// refused later by the ingest guard.
    #[test]
    fn non_canonical_lines_read_as_the_event_they_carry() {
        let reversed = r#"{"cost":1.8,"valuation":36.5,"price":6.7,"duration":600,"complete_by":69031,"pickup_by":65475,"destination":[41.16,-8.6],"origin":[41.15,-8.63],"publish":64575,"id":0,"event":"task"}"#;
        let spaced = " \t{ \"event\" :\t\"task\" , \"id\" : 0 , \"publish\" : 64575 , \
             \"origin\" : [ 41.15 , -8.63 ] , \"destination\" :\r\n[41.16,\t-8.6 ] , \
             \"pickup_by\" : 65475 , \"complete_by\" : 69031 , \"duration\" : 600 , \
             \"price\" : 6.7 , \"valuation\" : 36.5 , \"cost\" : 1.8 } \r";
        // A backslash, kept apart from the escapes it starts below.
        let bs = '\\';
        let ok = [
            (TASK_LINE.to_string(), task(6.7)),
            (reversed.into(), task(6.7)),
            (spaced.into(), task(6.7)),
            (
                task_line("\"pickup_by\"", &format!("\"pi{bs}u0063kup_by\"")),
                task(6.7),
            ),
            (
                task_line("\"price\":6.7", r#""price":6.7,"price":"six""#),
                task(6.7),
            ),
            (
                task_line(
                    "\"id\":0",
                    r#""meta":{"a":[1,{"b":null,"c":"\"}"}],"d":true},"id":0"#,
                ),
                task(6.7),
            ),
            (
                task_line("\"price\":6.7", "\"price\":1e999"),
                task(f64::INFINITY),
            ),
            (
                r#"{"event":"tick","at":5,"at":"noon"}"#.into(),
                WireEvent::EpochTick(5),
            ),
            (
                format!("{{\"event\":\"{bs}u0074ick\",\"at\":-3}}"),
                WireEvent::EpochTick(-3),
            ),
            (r#"{"x":[],"event":"eos"}"#.into(), WireEvent::Eos),
            // Near misses of the writer's own task layout.
            (task_line("\"duration\":", "\"duration\": "), task(6.7)),
            (task_line("1.8}", "1.8} "), task(6.7)),
            (
                task_line("\"cost\":1.8", r#""cost":1.8,"cost":2.5"#),
                task(6.7),
            ),
            (task_line("1.8}", r#"1.8,"note":null}"#), task(6.7)),
            (
                task_line("\"task\"", &format!("\"{bs}u0074ask\"")),
                task(6.7),
            ),
        ];
        for (line, want) in ok {
            assert_eq!(from_json_line(&line), Ok(want), "{line}");
        }
    }
}
