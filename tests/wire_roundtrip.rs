//! Wire-codec round-trip properties.
//!
//! The serve daemon's equivalence guarantee rests on one mechanical fact:
//! an event that crosses a transport comes out *identical* — not merely
//! close — to the event that went in. This suite property-tests that fact
//! for all three encodings over adversarially-shaped events (boundary
//! epochs at `i64::MIN`/`MAX`, coordinates across region boundaries and
//! hemispheres, money values with no short decimal form):
//!
//! - binary frames: `encode_frame` → [`FrameDecoder`] identity, including
//!   decoding the same byte stream fed one byte at a time and in random
//!   uneven chunks (a TCP stream guarantees neither message boundaries
//!   nor chunk sizes),
//! - JSONL and CSV text lines: `to_*_line` → `from_*_line` identity
//!   (floats survive because the encoders use Rust's shortest-round-trip
//!   `{}` formatting),
//! - the `StreamEvent` ↔ `WireEvent` conversion used at the ingest
//!   boundary: lossless for every event kind,
//! - the compact `.rtb` binary stream: `write_events` → `read_events`
//!   identity over adversarial events, and the incremental
//!   [`RtbFileReader`] fed through a reader that trickles arbitrary
//!   chunk sizes decodes exactly what the whole-buffer [`RtbSlice`]
//!   path does.

use proptest::prelude::*;

use rideshare::online::{event_to_wire, wire_to_event};
use rideshare::prelude::*;
use rideshare::trace::rtb::{self, RtbFileReader, RtbSlice};
use rideshare::trace::wire::{
    encode_frame, from_csv_line, from_json_line, to_csv_line, to_json_line, FrameDecoder, WireEvent,
};
use rideshare::trace::DriverModel;

/// Timestamps including the boundary epochs the wire must not mangle.
fn arb_epoch() -> impl Strategy<Value = i64> {
    prop_oneof![
        4 => any::<i64>(),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
        1 => Just(0i64),
        1 => Just(-1i64),
    ]
}

/// Finite floats spanning magnitudes, signs, and values (0.1, 1/3, …)
/// with no finite decimal expansion — exactly where a lossy text encoding
/// would slip.
fn arb_money() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -1.0e9..1.0e9f64,
        1 => Just(0.1f64),
        1 => Just(1.0 / 3.0),
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(f64::MIN_POSITIVE),
        1 => -1.0e-300..1.0e-300f64,
    ]
}

/// Coordinates: Porto-ish, region-boundary-ish, and hemisphere extremes.
fn arb_geo() -> impl Strategy<Value = GeoPoint> {
    prop_oneof![
        4 => (40.9..41.4f64, -8.9..-8.3f64),
        1 => (-90.0..90.0f64, -180.0..180.0f64),
    ]
    .prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

fn arb_model() -> impl Strategy<Value = DriverModel> {
    prop_oneof![
        Just(DriverModel::HomeWorkHome),
        Just(DriverModel::Hitchhiking)
    ]
}

fn arb_driver() -> impl Strategy<Value = Driver> {
    (
        any::<u32>(),
        arb_geo(),
        arb_geo(),
        arb_epoch(),
        arb_epoch(),
        arb_model(),
    )
        .prop_map(|(id, source, destination, start, end, model)| Driver {
            id: DriverId::new(id),
            source,
            destination,
            shift_start: Timestamp::from_secs(start),
            shift_end: Timestamp::from_secs(end),
            model,
        })
}

fn arb_task() -> impl Strategy<Value = Task> {
    (
        (any::<u32>(), arb_epoch(), arb_geo(), arb_geo()),
        (arb_epoch(), arb_epoch(), arb_epoch()),
        (arb_money(), arb_money(), arb_money()),
    )
        .prop_map(
            |((id, publish, origin, destination), (pickup, complete, duration), (p, v, c))| Task {
                id: TaskId::new(id),
                publish_time: Timestamp::from_secs(publish),
                origin,
                destination,
                pickup_deadline: Timestamp::from_secs(pickup),
                completion_deadline: Timestamp::from_secs(complete),
                duration: TimeDelta::from_secs(duration),
                price: Money::new(p),
                valuation: Money::new(v),
                service_cost: Money::new(c),
            },
        )
}

fn arb_event() -> impl Strategy<Value = WireEvent> {
    prop_oneof![
        3 => arb_driver().prop_map(WireEvent::DriverOnline),
        4 => arb_task().prop_map(WireEvent::TaskPublished),
        1 => any::<u32>().prop_map(WireEvent::DriverOffline),
        1 => arb_epoch().prop_map(WireEvent::EpochTick),
        1 => Just(WireEvent::Eos),
    ]
}

/// Stream events only — [`WireEvent::Eos`] is the `.rtb` terminator, not
/// a record a caller hands to the writer.
fn arb_stream_event() -> impl Strategy<Value = WireEvent> {
    prop_oneof![
        3 => arb_driver().prop_map(WireEvent::DriverOnline),
        4 => arb_task().prop_map(WireEvent::TaskPublished),
        1 => any::<u32>().prop_map(WireEvent::DriverOffline),
        1 => arb_epoch().prop_map(WireEvent::EpochTick),
    ]
}

/// A reader that yields at most `chunk` bytes per `read` call — the
/// incremental `.rtb` reader must be insensitive to transport chunking,
/// exactly like the frame decoder below.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Decodes a whole byte stream with the given feeding chunk length.
fn decode_all(bytes: &[u8], chunk: usize) -> Vec<WireEvent> {
    let mut decoder = FrameDecoder::default();
    let mut out = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        decoder.feed(piece);
        while let Some(e) = decoder.next().expect("valid stream must decode") {
            out.push(e);
        }
    }
    assert_eq!(decoder.pending_bytes(), 0, "leftover bytes after decode");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // encode → decode is the identity for any single event.
    #[test]
    fn frame_round_trip_is_identity(event in arb_event()) {
        let frame = encode_frame(&event);
        let mut decoder = FrameDecoder::default();
        decoder.feed(&frame);
        prop_assert_eq!(decoder.next().unwrap(), Some(event));
        prop_assert_eq!(decoder.next().unwrap(), None);
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    // A whole stream of frames decodes identically whether it arrives in
    // one read, byte by byte, or in arbitrary uneven chunks.
    #[test]
    fn chunked_decode_equals_whole_decode(
        events in prop::collection::vec(arb_event(), 1..40),
        chunk in 1usize..64,
    ) {
        let mut bytes = Vec::new();
        for e in &events {
            bytes.extend_from_slice(&encode_frame(e));
        }
        let whole = decode_all(&bytes, bytes.len());
        prop_assert_eq!(&whole, &events);
        let dribble = decode_all(&bytes, 1);
        prop_assert_eq!(&dribble, &events);
        let chunked = decode_all(&bytes, chunk);
        prop_assert_eq!(&chunked, &events);
    }

    // JSONL text round trip is the identity (shortest-round-trip floats).
    #[test]
    fn json_line_round_trip_is_identity(event in arb_event()) {
        let line = to_json_line(&event);
        prop_assert_eq!(from_json_line(&line).unwrap(), event);
    }

    // CSV text round trip is the identity.
    #[test]
    fn csv_line_round_trip_is_identity(event in arb_event()) {
        let line = to_csv_line(&event);
        prop_assert_eq!(from_csv_line(&line).unwrap(), event);
    }

    // The ingest boundary's StreamEvent ↔ WireEvent conversion is
    // lossless: converting to the engine's event type and back yields the
    // original wire event (Eos maps to end-of-stream, not an event).
    #[test]
    fn stream_event_conversion_is_lossless(event in arb_event()) {
        match wire_to_event(event) {
            None => prop_assert_eq!(event, WireEvent::Eos),
            Some(stream_event) => {
                prop_assert_eq!(event_to_wire(&stream_event), event);
            }
        }
    }

    // The `.rtb` binary stream is the identity over adversarial events:
    // what `write_events` lays down, `read_events` yields back — exact
    // floats, boundary epochs, hemisphere coordinates and all — and the
    // writer's back-patched header count matches.
    #[test]
    fn rtb_round_trip_is_identity(
        events in prop::collection::vec(arb_stream_event(), 0..40),
    ) {
        let mut bytes = Vec::new();
        let count = rtb::write_events(&mut bytes, &events).unwrap();
        prop_assert_eq!(count, events.len() as u64);
        let decoded = rtb::read_events(&bytes).unwrap();
        prop_assert_eq!(decoded, events);
    }

    // The incremental reader decodes exactly what the zero-copy slice
    // reader does, no matter how the transport chunks the bytes.
    #[test]
    fn rtb_chunked_read_equals_whole_buffer_decode(
        events in prop::collection::vec(arb_stream_event(), 0..40),
        chunk in 1usize..48,
    ) {
        let mut bytes = Vec::new();
        rtb::write_events(&mut bytes, &events).unwrap();

        let mut whole = Vec::new();
        let mut slice = RtbSlice::new(&bytes).unwrap();
        while let Some(e) = slice.next().unwrap() {
            whole.push(e);
        }

        for chunk in [1, chunk, bytes.len()] {
            let trickle = Trickle { data: &bytes, pos: 0, chunk };
            let mut reader = RtbFileReader::from_reader(trickle).unwrap();
            let mut chunked = Vec::new();
            while let Some(e) = reader.next().unwrap() {
                chunked.push(e);
            }
            prop_assert_eq!(&chunked, &whole);
            prop_assert_eq!(&chunked, &events);
        }
    }

    // Corrupting a frame's length prefix or tag never panics the decoder
    // — it either still decodes (benign corruption) or yields a typed
    // error.
    #[test]
    fn corrupted_frames_never_panic(
        event in arb_event(),
        byte in 0usize..5,
        xor in 1u8..=255,
    ) {
        let mut frame = encode_frame(&event);
        let idx = byte.min(frame.len() - 1);
        frame[idx] ^= xor;
        let mut decoder = FrameDecoder::default();
        decoder.feed(&frame);
        // Either outcome is fine; panicking or looping is not.
        let _ = decoder.next();
        let _ = decoder.next();
    }
}
