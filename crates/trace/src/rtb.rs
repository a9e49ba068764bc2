//! `.rtb` — the fixed-width binary trace format for replay input.
//!
//! `rideshare export --format bin` writes a priced event stream as a flat
//! sequence of fixed-width records so `rideshare replay --input <file.rtb>`
//! can run the dispatch engines without the trace generator, the pricer,
//! or a line parser anywhere in the hot loop. The layout is *mmap-able by
//! design*: every record is decodable in place from any `&[u8]` with no
//! intermediate allocation ([`RtbSlice`]), so a consumer may map or slurp
//! the file once and stream events out of the raw bytes. A bounded-memory
//! chunked reader ([`RtbFileReader`]) covers files larger than RAM.
//!
//! ## Layout (version 1, all integers little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"RTB1"` |
//! | 4      | 2    | format version (`u16`, currently 1) |
//! | 6      | 2    | reserved, must be zero |
//! | 8      | 8    | event count (`u64`; [`COUNT_UNKNOWN`] if the producer streamed blind) |
//! | 16     | …    | records |
//!
//! Each record is exactly a [`crate::wire`] frame *body* — one tag byte
//! followed by that tag's fixed-width payload, floats as IEEE-754 bits —
//! without the socket format's `u32` length prefix. Fixed widths make the
//! prefix redundant: a reader that sees the tag knows the record boundary
//! ([`crate::wire::body_len`]), and decoding reuses
//! [`crate::wire::decode_frame_body`]'s bounds-checked cursor, so hostile
//! bytes surface as typed errors, never panics. The stream is terminated
//! by a single end-of-stream record ([`WireEvent::Eos`]); bytes after it
//! are an error, and a file that ends without it was truncated mid-write.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use rideshare_types::widen_u64;

use crate::wire::{self, WireError, WireEvent};

/// The four magic bytes every `.rtb` file starts with.
pub const MAGIC: [u8; 4] = *b"RTB1";

/// Current format version written by [`RtbWriter`].
pub const VERSION: u16 = 1;

/// Header size in bytes; records start at this offset.
pub const HEADER_LEN: usize = 16;

/// Sentinel event count for producers that stream without knowing the
/// total in advance (e.g. writing to a pipe). Readers skip the count
/// check when the header carries this value.
pub const COUNT_UNKNOWN: u64 = u64::MAX;

/// Widest possible record (the task record); sized so the chunked reader
/// can use one fixed stack buffer. Pinned against [`wire::body_len`] by a
/// unit test.
const MAX_RECORD: usize = 93;

/// A structural failure while reading an `.rtb` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtbError {
    /// The first four bytes are not [`MAGIC`] — not an `.rtb` file.
    BadMagic {
        /// The bytes found instead.
        got: [u8; 4],
    },
    /// The header's version field is one this reader does not understand.
    UnsupportedVersion {
        /// The version found.
        got: u16,
    },
    /// The reserved header field was non-zero (written by a future,
    /// incompatible producer).
    ReservedNonZero {
        /// The value found.
        got: u16,
    },
    /// The byte stream ended before the end-of-stream record — the
    /// producer died mid-write or the file was cut short.
    Truncated {
        /// Byte offset at which the next record should have started.
        offset: u64,
    },
    /// A record failed to decode (unknown tag or malformed payload).
    Record(WireError),
    /// Bytes follow the end-of-stream record.
    TrailingBytes {
        /// Byte offset of the first trailing byte.
        offset: u64,
    },
    /// The header declared an event count and the stream carried a
    /// different number of events.
    CountMismatch {
        /// Count from the header.
        declared: u64,
        /// Events actually decoded before end-of-stream.
        decoded: u64,
    },
    /// Transport-level I/O failure while reading.
    Io(String),
}

impl fmt::Display for RtbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtbError::BadMagic { got } => {
                write!(f, "not an .rtb file (magic bytes {got:?})")
            }
            RtbError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported .rtb version {got} (reader supports {VERSION})"
                )
            }
            RtbError::ReservedNonZero { got } => {
                write!(f, "reserved .rtb header field is {got}, expected 0")
            }
            RtbError::Truncated { offset } => {
                write!(
                    f,
                    ".rtb stream truncated at byte {offset} (no end-of-stream record)"
                )
            }
            RtbError::Record(e) => write!(f, "bad .rtb record: {e}"),
            RtbError::TrailingBytes { offset } => {
                write!(
                    f,
                    "bytes after the .rtb end-of-stream record at byte {offset}"
                )
            }
            RtbError::CountMismatch { declared, decoded } => write!(
                f,
                ".rtb header declared {declared} event(s) but the stream carried {decoded}"
            ),
            RtbError::Io(msg) => write!(f, ".rtb I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for RtbError {}

impl From<WireError> for RtbError {
    fn from(e: WireError) -> Self {
        RtbError::Record(e)
    }
}

/// Builds the 16-byte header for `count` events ([`COUNT_UNKNOWN`] when
/// streaming blind).
#[must_use]
pub fn encode_header(count: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    // bytes 6..8 reserved, zero
    h[8..16].copy_from_slice(&count.to_le_bytes());
    h
}

/// Parses and validates a header, returning the declared event count.
///
/// # Errors
///
/// Returns the typed [`RtbError`] for a short, foreign, or
/// future-versioned header.
pub fn decode_header(bytes: &[u8]) -> Result<u64, RtbError> {
    let Some(h) = bytes.get(..HEADER_LEN) else {
        return Err(RtbError::Truncated {
            offset: widen_u64(bytes.len()),
        });
    };
    if h[..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&h[..4]);
        return Err(RtbError::BadMagic { got });
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if version != VERSION {
        return Err(RtbError::UnsupportedVersion { got: version });
    }
    let reserved = u16::from_le_bytes([h[6], h[7]]);
    if reserved != 0 {
        return Err(RtbError::ReservedNonZero { got: reserved });
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(&h[8..16]);
    Ok(u64::from_le_bytes(count))
}

/// Streams events into an `.rtb` byte sink.
///
/// The header is written up front with [`COUNT_UNKNOWN`] (the writer
/// cannot seek back on a pipe); [`RtbWriter::finish`] appends the
/// end-of-stream record and returns the sink plus the event count, which
/// a seekable caller may patch into bytes 8..16 if it wants an exact
/// header. One scratch buffer is reused across records — the writer
/// allocates nothing per event.
pub struct RtbWriter<W: Write> {
    inner: W,
    scratch: Vec<u8>,
    written: u64,
    finished: bool,
}

impl<W: Write> RtbWriter<W> {
    /// Writes the header and readies the record stream.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&encode_header(COUNT_UNKNOWN))?;
        Ok(Self {
            inner,
            scratch: Vec::with_capacity(MAX_RECORD),
            written: 0,
            finished: false,
        })
    }

    /// Appends one event record. Writing [`WireEvent::Eos`] explicitly is
    /// equivalent to calling [`RtbWriter::finish`] for the record stream
    /// (the terminator is emitted exactly once either way).
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    ///
    /// # Panics
    ///
    /// Panics if called after the stream was finished — the format allows
    /// nothing after the terminator.
    pub fn write_event(&mut self, event: &WireEvent) -> io::Result<()> {
        assert!(!self.finished, "write_event after .rtb end-of-stream");
        self.scratch.clear();
        wire::encode_frame_body(event, &mut self.scratch);
        self.inner.write_all(&self.scratch)?;
        if matches!(event, WireEvent::Eos) {
            self.finished = true;
        } else {
            self.written += 1;
        }
        Ok(())
    }

    /// Terminates the stream (writing the end-of-stream record if the
    /// caller has not already), flushes, and returns the sink together
    /// with the number of events written.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        if !self.finished {
            self.write_event(&WireEvent::Eos)?;
        }
        self.inner.flush()?;
        Ok((self.inner, self.written))
    }
}

/// What both readers know about where the record stream ends: the
/// header's declared count, the events decoded so far, and whether the
/// end-of-stream record has been accepted.
struct StreamEnd {
    declared: u64,
    decoded: u64,
    done: bool,
}

impl StreamEnd {
    fn new(declared: u64) -> Self {
        Self {
            declared,
            decoded: 0,
            done: false,
        }
    }

    fn declared_count(&self) -> Option<u64> {
        (self.declared != COUNT_UNKNOWN).then_some(self.declared)
    }

    /// Accepts the end-of-stream record, unless a byte follows it (at
    /// offset `trailing`) or the header's count disagrees with the stream.
    fn finish(&mut self, trailing: Option<u64>) -> Result<(), RtbError> {
        if let Some(offset) = trailing {
            return Err(RtbError::TrailingBytes { offset });
        }
        if self.declared != COUNT_UNKNOWN && self.declared != self.decoded {
            return Err(RtbError::CountMismatch {
                declared: self.declared,
                decoded: self.decoded,
            });
        }
        self.done = true;
        Ok(())
    }
}

/// Zero-copy `.rtb` reader over an in-memory byte slice (a slurped or
/// memory-mapped file). Records decode straight out of `data` — the
/// reader holds no buffer and performs no per-event allocation.
pub struct RtbSlice<'a> {
    data: &'a [u8],
    pos: usize,
    end: StreamEnd,
}

impl<'a> RtbSlice<'a> {
    /// Validates the header and positions the reader at the first record.
    ///
    /// # Errors
    ///
    /// Returns the typed [`RtbError`] for a short or foreign header.
    pub fn new(data: &'a [u8]) -> Result<Self, RtbError> {
        let declared = decode_header(data)?;
        Ok(Self {
            data,
            pos: HEADER_LEN,
            end: StreamEnd::new(declared),
        })
    }

    /// The header's event count, or `None` if the producer streamed blind.
    #[must_use]
    pub fn declared_count(&self) -> Option<u64> {
        self.end.declared_count()
    }

    /// Byte offset of the next record, for diagnostics.
    fn offset(&self) -> u64 {
        widen_u64(self.pos)
    }

    /// The next event, or `Ok(None)` after a clean end-of-stream record.
    ///
    /// # Errors
    ///
    /// Returns the typed [`RtbError`] on truncation, a malformed record,
    /// trailing bytes, or a header/stream count mismatch; never panics on
    /// hostile input.
    // Fallible-iterator pull, same idiom as `FrameDecoder::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireEvent>, RtbError> {
        if self.end.done {
            return Ok(None);
        }
        let truncated = RtbError::Truncated {
            offset: self.offset(),
        };
        let Some(&tag) = self.data.get(self.pos) else {
            return Err(truncated);
        };
        let Some(len) = wire::body_len(tag) else {
            return Err(RtbError::Record(WireError::UnknownTag(tag)));
        };
        let end = self.pos + len;
        let Some(body) = self.data.get(self.pos..end) else {
            return Err(truncated);
        };
        let event = wire::decode_frame_body(body)?;
        self.pos = end;
        if matches!(event, WireEvent::Eos) {
            let trailing = (self.data.len() != self.pos).then_some(self.offset());
            self.end.finish(trailing)?;
            return Ok(None);
        }
        self.end.decoded += 1;
        Ok(Some(event))
    }
}

/// Bounded-memory chunked `.rtb` reader for files larger than RAM (or any
/// non-seekable byte stream). Holds one record-sized stack buffer; chunk
/// boundaries are invisible to the decode (pinned equal to [`RtbSlice`]
/// by test).
pub struct RtbFileReader<R: Read = BufReader<File>> {
    inner: R,
    offset: u64,
    end: StreamEnd,
    buf: [u8; MAX_RECORD],
}

impl RtbFileReader<BufReader<File>> {
    /// Opens `path` buffered and validates its header.
    ///
    /// # Errors
    ///
    /// Returns [`RtbError::Io`] if the file cannot be opened, or the
    /// header's typed error.
    pub fn open(path: &Path) -> Result<Self, RtbError> {
        let file =
            File::open(path).map_err(|e| RtbError::Io(format!("{}: {e}", path.display())))?;
        Self::from_reader(BufReader::new(file))
    }
}

impl<R: Read> RtbFileReader<R> {
    /// Wraps any byte stream (reads the header immediately).
    ///
    /// # Errors
    ///
    /// Returns the header's typed error, or [`RtbError::Io`] on a
    /// transport failure.
    pub fn from_reader(mut inner: R) -> Result<Self, RtbError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_at(&mut inner, &mut header, 0)?;
        let declared = decode_header(&header)?;
        Ok(Self {
            inner,
            offset: widen_u64(HEADER_LEN),
            end: StreamEnd::new(declared),
            buf: [0u8; MAX_RECORD],
        })
    }

    /// The header's event count, or `None` if the producer streamed blind.
    #[must_use]
    pub fn declared_count(&self) -> Option<u64> {
        self.end.declared_count()
    }

    /// The next event, or `Ok(None)` after a clean end-of-stream record.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtbSlice::next`], plus [`RtbError::Io`] for
    /// transport failures.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireEvent>, RtbError> {
        if self.end.done {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        read_exact_at(&mut self.inner, &mut tag, self.offset)?;
        let Some(len) = wire::body_len(tag[0]) else {
            return Err(RtbError::Record(WireError::UnknownTag(tag[0])));
        };
        self.buf[0] = tag[0];
        read_exact_at(&mut self.inner, &mut self.buf[1..len], self.offset)?;
        let event = wire::decode_frame_body(&self.buf[..len])?;
        self.offset += widen_u64(len);
        if matches!(event, WireEvent::Eos) {
            let trailing = self.byte_follows()?.then_some(self.offset);
            self.end.finish(trailing)?;
            return Ok(None);
        }
        self.end.decoded += 1;
        Ok(Some(event))
    }

    /// Whether the transport still has a byte to give (it is consumed).
    fn byte_follows(&mut self) -> Result<bool, RtbError> {
        let mut probe = [0u8; 1];
        loop {
            match self.inner.read(&mut probe) {
                Ok(n) => return Ok(n != 0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RtbError::Io(e.to_string())),
            }
        }
    }
}

/// `read_exact` with `.rtb` error mapping: end-of-stream mid-record is
/// [`RtbError::Truncated`] at `offset`, everything else [`RtbError::Io`].
fn read_exact_at<R: Read>(inner: &mut R, buf: &mut [u8], offset: u64) -> Result<(), RtbError> {
    inner.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            RtbError::Truncated { offset }
        } else {
            RtbError::Io(e.to_string())
        }
    })
}

/// Decodes a whole in-memory `.rtb` stream (convenience over
/// [`RtbSlice`]).
///
/// # Errors
///
/// Returns the first typed [`RtbError`].
pub fn read_events(data: &[u8]) -> Result<Vec<WireEvent>, RtbError> {
    let mut slice = RtbSlice::new(data)?;
    // Capacity hint only — capped so a hostile header cannot force a
    // huge allocation before a single record has decoded.
    let hint = slice.declared_count().unwrap_or(0).min(65_536);
    let mut out = Vec::with_capacity(usize::try_from(hint).unwrap_or(0));
    while let Some(e) = slice.next()? {
        out.push(e);
    }
    Ok(out)
}

/// Writes `events` (terminator excluded — it is appended automatically)
/// as a complete `.rtb` stream, returning the event count.
///
/// # Errors
///
/// Propagates the sink's I/O error.
pub fn write_events<'e, W, I>(sink: W, events: I) -> io::Result<u64>
where
    W: Write,
    I: IntoIterator<Item = &'e WireEvent>,
{
    let mut writer = RtbWriter::new(sink)?;
    for e in events {
        writer.write_event(e)?;
    }
    let (_, count) = writer.finish()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, DriverModel, Task};
    use rideshare_geo::GeoPoint;
    use rideshare_types::{DriverId, Money, TaskId, TimeDelta, Timestamp};
    use std::io::Cursor;

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
            WireEvent::TaskPublished(Task {
                id: TaskId::new(7),
                publish_time: Timestamp::from_secs(3600),
                origin: GeoPoint::new(41.15, -8.61),
                destination: GeoPoint::new(41.16, -8.58),
                pickup_deadline: Timestamp::from_secs(3900),
                completion_deadline: Timestamp::from_secs(5400),
                duration: TimeDelta::from_secs(740),
                price: Money::new(6.25),
                valuation: Money::new(0.1 + 0.2),
                service_cost: Money::new(1.0 / 3.0),
            }),
            WireEvent::EpochTick(i64::MIN),
        ]
    }

    fn encode(events: &[WireEvent]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_events(&mut bytes, events).unwrap();
        bytes
    }

    #[test]
    fn round_trip_is_identity() {
        let events = sample_events();
        let bytes = encode(&events);
        assert_eq!(read_events(&bytes).unwrap(), events);
    }

    #[test]
    fn max_record_covers_every_tag() {
        let widest = (0..=u8::MAX).filter_map(wire::body_len).max().unwrap();
        assert_eq!(widest, MAX_RECORD);
    }

    #[test]
    fn chunked_reader_equals_slice_reader() {
        let bytes = encode(&sample_events());
        let mut from_slice = Vec::new();
        let mut slice = RtbSlice::new(&bytes).unwrap();
        while let Some(e) = slice.next().unwrap() {
            from_slice.push(e);
        }
        // A 3-byte BufReader forces every record across chunk boundaries.
        let tiny = BufReader::with_capacity(3, Cursor::new(bytes));
        let mut reader = RtbFileReader::from_reader(tiny).unwrap();
        let mut from_chunks = Vec::new();
        while let Some(e) = reader.next().unwrap() {
            from_chunks.push(e);
        }
        assert_eq!(from_slice, from_chunks);
    }

    #[test]
    fn header_is_validated() {
        let events = sample_events();
        let good = encode(&events);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            RtbSlice::new(&bad),
            Err(RtbError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            RtbSlice::new(&bad).err(),
            Some(RtbError::UnsupportedVersion { got: 99 })
        );

        let mut bad = good.clone();
        bad[6] = 1;
        assert_eq!(
            RtbSlice::new(&bad).err(),
            Some(RtbError::ReservedNonZero { got: 1 })
        );

        assert!(matches!(
            RtbSlice::new(&good[..7]),
            Err(RtbError::Truncated { .. })
        ));
    }

    #[test]
    fn declared_count_is_checked() {
        let events = sample_events();
        let mut bytes = encode(&events);
        // Patch an exact (correct) count into the header: accepted.
        bytes[8..16].copy_from_slice(&(events.len() as u64).to_le_bytes());
        assert_eq!(read_events(&bytes).unwrap(), events);
        // Patch a wrong count: typed mismatch.
        bytes[8..16].copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            read_events(&bytes).err(),
            Some(RtbError::CountMismatch {
                declared: 7,
                decoded: events.len() as u64,
            })
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        let bytes = encode(&sample_events());

        // Cut mid-record (drop the Eos terminator and then some).
        for cut in [bytes.len() - 1, bytes.len() - 2, HEADER_LEN + 1] {
            let err = read_events(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, RtbError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }

        // Bytes after the terminator.
        let mut padded = bytes.clone();
        padded.push(0xAB);
        assert!(matches!(
            read_events(&padded).unwrap_err(),
            RtbError::TrailingBytes { .. }
        ));

        // Unknown record tags, the retired offline tag 2 among them.
        for tag in [200, 2] {
            let mut corrupt = bytes.clone();
            corrupt[HEADER_LEN] = tag;
            let unknown = RtbError::Record(WireError::UnknownTag(tag));
            assert_eq!(read_events(&corrupt).unwrap_err(), unknown);
            let mut reader = RtbFileReader::from_reader(Cursor::new(corrupt)).unwrap();
            assert_eq!(reader.next().unwrap_err(), unknown);
        }

        // The chunked reader agrees on all of it.
        let cut = &bytes[..bytes.len() - 1];
        let mut reader = RtbFileReader::from_reader(Cursor::new(cut.to_vec())).unwrap();
        let err = loop {
            match reader.next() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected truncation"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, RtbError::Truncated { .. }));
    }

    #[test]
    fn writer_rejects_records_after_finish() {
        let mut bytes = Vec::new();
        let mut w = RtbWriter::new(&mut bytes).unwrap();
        w.write_event(&WireEvent::EpochTick(5)).unwrap();
        w.write_event(&WireEvent::Eos).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.write_event(&WireEvent::EpochTick(6));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_stream_is_just_header_plus_terminator() {
        let bytes = encode(&[]);
        assert_eq!(bytes.len(), HEADER_LEN + 1);
        assert_eq!(read_events(&bytes).unwrap(), Vec::new());
    }
}
