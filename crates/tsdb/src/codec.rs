//! The chunk codec: lossless delta-of-delta compression on the integer
//! grid.
//!
//! Every value the store persists is already an exact integer — window
//! counts, whole seconds, or i128 fixed-point accumulators on the 2⁻⁴⁰
//! grid (see `rideshare_metrics::StreamMetrics`). That makes Gorilla-style
//! delta compression (Pelkonen et al., VLDB 2015) *lossless* here, where
//! the original applies it to floats: a chunk stores its first sample
//! absolutely, then per sample the **delta-of-delta** of the timestamp and
//! the **delta** of the value, each zigzag-mapped to an unsigned integer
//! and written as an LEB128 varint. Dispatch telemetry is near-periodic
//! (window boundaries) and near-constant or smoothly drifting (cumulative
//! deltas), so both streams are mostly one-byte varints.
//!
//! Deltas are computed with wrapping arithmetic: subtraction mod 2¹²⁸ (or
//! 2⁶⁴ for timestamps) is a bijection, so decode reverses encode exactly
//! for *every* `(i64, i128)` sequence including the extremes — the
//! property the round-trip proptests in `tests/tsdb_roundtrip.rs` pin.
//!
//! # On-disk layout
//!
//! A series file is the 8-byte file header (magic `RTSC` + u32 LE format
//! version) followed by chunks back to back. Each chunk is a 12-byte
//! header — u32 LE sample count, u32 LE payload length, u32 LE FNV-1a
//! checksum of the payload — then the payload. Hostile bytes (truncation,
//! corrupt headers, overlong varints, trailing garbage, checksum
//! mismatches) surface as typed [`CodecError`]s, never panics; bounds are
//! checked on the *header* before any payload is decoded, so a
//! forged length cannot force a large allocation.

use std::error::Error;
use std::fmt;

use rideshare_types::widen_usize;

/// Magic bytes opening every series file: **R**ideshare **TS**db
/// **C**hunks.
pub const FILE_MAGIC: [u8; 4] = *b"RTSC";

/// On-disk format version written after the magic.
pub const FORMAT_VERSION: u32 = 1;

/// Byte length of the file header (magic + version).
pub const FILE_HEADER_LEN: usize = 8;

/// Byte length of a chunk header (count + payload length + checksum).
pub const CHUNK_HEADER_LEN: usize = 12;

/// Hard cap on samples per chunk, checked before decoding allocates.
/// The store seals far smaller chunks; this bounds hostile headers.
pub const MAX_CHUNK_SAMPLES: u32 = 1 << 20;

/// Hard cap on a chunk payload in bytes. A sample encodes to at most 29
/// bytes (10-byte timestamp varint + 19-byte value varint), so this
/// comfortably covers [`MAX_CHUNK_SAMPLES`] while bounding the payload a
/// forged header can claim.
pub const MAX_CHUNK_PAYLOAD: u32 = 32 << 20;

/// One telemetry sample: a position on the stream clock and an exact
/// integer value (count, whole seconds, or 2⁻⁴⁰ fixed-point).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sample {
    /// Stream-clock timestamp, seconds.
    pub t: i64,
    /// Exact integer value on the metric's grid.
    pub v: i128,
}

/// A typed decode/encode failure. The codec never panics on hostile
/// bytes: every malformation maps to one of these.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The file does not start with [`FILE_MAGIC`].
    BadMagic,
    /// The file header carries an unsupported format version.
    BadVersion(u32),
    /// Fewer bytes than a complete file or chunk header.
    TruncatedHeader {
        /// Bytes a complete header needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The header promises more payload bytes than are present.
    TruncatedChunk {
        /// Payload bytes the chunk header promised.
        needed: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// A chunk header declares zero samples.
    EmptyChunk,
    /// A chunk header exceeds [`MAX_CHUNK_SAMPLES`] or
    /// [`MAX_CHUNK_PAYLOAD`].
    OversizedChunk {
        /// Declared sample count.
        samples: u32,
        /// Declared payload length in bytes.
        bytes: u32,
    },
    /// The payload hashes to a different FNV-1a checksum than the header
    /// recorded.
    ChecksumMismatch {
        /// Checksum the header recorded.
        expected: u32,
        /// Checksum of the payload as read.
        got: u32,
    },
    /// A varint ran past the end of the payload.
    TruncatedVarint,
    /// A varint used more bytes (or high bits) than its domain allows —
    /// garbage, since the encoder always emits minimal-width varints.
    OverlongVarint,
    /// Decoding consumed the declared sample count but payload bytes
    /// remain.
    TrailingBytes {
        /// Leftover payload bytes after the last sample.
        extra: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a tsdb chunk file (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported tsdb format version {v}"),
            CodecError::TruncatedHeader { needed, got } => {
                write!(f, "truncated header: need {needed} bytes, have {got}")
            }
            CodecError::TruncatedChunk { needed, got } => {
                write!(
                    f,
                    "truncated chunk: header promises {needed} payload bytes, have {got}"
                )
            }
            CodecError::EmptyChunk => write!(f, "chunk header declares zero samples"),
            CodecError::OversizedChunk { samples, bytes } => {
                write!(
                    f,
                    "chunk header out of bounds: {samples} samples, {bytes} payload bytes"
                )
            }
            CodecError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "chunk checksum mismatch: header {expected:#010x}, payload {got:#010x}"
                )
            }
            CodecError::TruncatedVarint => write!(f, "varint truncated mid-value"),
            CodecError::OverlongVarint => {
                write!(f, "varint wider than its domain (non-minimal or garbage)")
            }
            CodecError::TrailingBytes { extra } => {
                write!(
                    f,
                    "{extra} payload bytes left after the declared sample count"
                )
            }
        }
    }
}

impl Error for CodecError {}

/// FNV-1a over `bytes`, 32-bit: tiny, dependency-free corruption check
/// for chunk payloads (not a cryptographic integrity guarantee).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Zigzag-maps a signed 64-bit value to unsigned so small magnitudes of
/// either sign get short varints: `0, -1, 1, -2, … ↦ 0, 1, 2, 3, …`.
fn zigzag64(n: i64) -> u64 {
    (n.cast_unsigned() << 1) ^ (n >> 63).cast_unsigned()
}

/// Inverse of [`zigzag64`].
fn unzigzag64(u: u64) -> i64 {
    ((u >> 1) ^ 0u64.wrapping_sub(u & 1)).cast_signed()
}

/// Zigzag-maps a signed 128-bit value to unsigned (see [`zigzag64`]).
fn zigzag128(n: i128) -> u128 {
    (n.cast_unsigned() << 1) ^ (n >> 127).cast_unsigned()
}

/// Inverse of [`zigzag128`].
fn unzigzag128(u: u128) -> i128 {
    ((u >> 1) ^ 0u128.wrapping_sub(u & 1)).cast_signed()
}

/// Appends `v` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation).
fn push_uvarint128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        // Low 7 bits; `to_le_bytes()[0]` extracts the low byte without a
        // narrowing `as` cast.
        let low = (v & 0x7f).to_le_bytes()[0];
        v >>= 7;
        if v == 0 {
            out.push(low);
            return;
        }
        out.push(low | 0x80);
    }
}

/// Appends `v` as an LEB128 varint.
fn push_uvarint64(out: &mut Vec<u8>, v: u64) {
    push_uvarint128(out, u128::from(v));
}

/// Reads one LEB128 varint with at most `max_bytes` bytes and at most
/// `top_bits` meaningful bits in the final byte, advancing `*pos`.
/// Rejects truncation and non-minimal/overflowing encodings with typed
/// errors.
fn read_uvarint(
    buf: &[u8],
    pos: &mut usize,
    max_bytes: u32,
    top_bits: u32,
) -> Result<u128, CodecError> {
    let mut v: u128 = 0;
    for i in 0..max_bytes {
        let Some(&b) = buf.get(*pos) else {
            return Err(CodecError::TruncatedVarint);
        };
        *pos += 1;
        let payload = u128::from(b & 0x7f);
        if i + 1 == max_bytes {
            // Final permitted byte: it must terminate and fit the domain.
            if b & 0x80 != 0 || payload >= (1 << top_bits) {
                return Err(CodecError::OverlongVarint);
            }
        }
        v |= payload << (7 * i);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    // Unreachable: the `i + 1 == max_bytes` arm returned either way.
    Err(CodecError::OverlongVarint)
}

/// Reads a varint in the u64 domain (≤ 10 bytes, 1 top bit).
fn read_uvarint64(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let v = read_uvarint(buf, pos, 10, 1)?;
    u64::try_from(v).map_err(|_| CodecError::OverlongVarint)
}

/// Reads a varint in the u128 domain (≤ 19 bytes, 2 top bits).
fn read_uvarint128(buf: &[u8], pos: &mut usize) -> Result<u128, CodecError> {
    read_uvarint(buf, pos, 19, 2)
}

/// Returns the 8-byte file header every series file starts with.
#[must_use]
pub fn file_header() -> [u8; FILE_HEADER_LEN] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[..4].copy_from_slice(&FILE_MAGIC);
    h[4..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

/// Validates the file header at the start of `bytes` and returns how many
/// bytes it consumed.
pub fn check_file_header(bytes: &[u8]) -> Result<usize, CodecError> {
    if bytes.len() < FILE_HEADER_LEN {
        return Err(CodecError::TruncatedHeader {
            needed: FILE_HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..4] != FILE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[4..8]);
    let version = u32::from_le_bytes(v);
    if version != FORMAT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(FILE_HEADER_LEN)
}

/// Encodes `samples` as one chunk (header + payload) appended to `out`.
///
/// Any `(t, v)` sequence is accepted — monotonicity is the *store's*
/// contract, not the codec's — and decodes back exactly.
///
/// # Errors
///
/// [`CodecError::EmptyChunk`] for an empty slice;
/// [`CodecError::OversizedChunk`] past [`MAX_CHUNK_SAMPLES`] /
/// [`MAX_CHUNK_PAYLOAD`].
pub fn encode_chunk(samples: &[Sample], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let first = samples.first().ok_or(CodecError::EmptyChunk)?;
    let count = u32::try_from(samples.len())
        .ok()
        .filter(|&n| n <= MAX_CHUNK_SAMPLES)
        .ok_or(CodecError::OversizedChunk {
            samples: u32::MAX,
            bytes: 0,
        })?;

    let mut payload = Vec::with_capacity(samples.len() * 4);
    push_uvarint64(&mut payload, zigzag64(first.t));
    push_uvarint128(&mut payload, zigzag128(first.v));
    let mut prev = *first;
    let mut prev_dt: i64 = 0;
    for s in &samples[1..] {
        let dt = s.t.wrapping_sub(prev.t);
        let dod = dt.wrapping_sub(prev_dt);
        push_uvarint64(&mut payload, zigzag64(dod));
        push_uvarint128(&mut payload, zigzag128(s.v.wrapping_sub(prev.v)));
        prev_dt = dt;
        prev = *s;
    }

    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_CHUNK_PAYLOAD)
        .ok_or(CodecError::OversizedChunk {
            samples: count,
            bytes: u32::MAX,
        })?;
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(())
}

/// A parsed chunk header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkHeader {
    /// Samples in the chunk (≥ 1).
    pub count: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// FNV-1a checksum of the payload.
    pub checksum: u32,
}

/// Parses and bounds-checks the chunk header at the start of `bytes`.
/// Validation happens *here*, before any payload is read, so forged
/// counts/lengths fail fast.
pub fn read_chunk_header(bytes: &[u8]) -> Result<ChunkHeader, CodecError> {
    if bytes.len() < CHUNK_HEADER_LEN {
        return Err(CodecError::TruncatedHeader {
            needed: CHUNK_HEADER_LEN,
            got: bytes.len(),
        });
    }
    let mut w = [0u8; 4];
    w.copy_from_slice(&bytes[0..4]);
    let count = u32::from_le_bytes(w);
    w.copy_from_slice(&bytes[4..8]);
    let payload_len = u32::from_le_bytes(w);
    w.copy_from_slice(&bytes[8..12]);
    let checksum = u32::from_le_bytes(w);
    if count == 0 {
        return Err(CodecError::EmptyChunk);
    }
    if count > MAX_CHUNK_SAMPLES || payload_len > MAX_CHUNK_PAYLOAD {
        return Err(CodecError::OversizedChunk {
            samples: count,
            bytes: payload_len,
        });
    }
    Ok(ChunkHeader {
        count,
        payload_len,
        checksum,
    })
}

/// Decodes a chunk *payload* (no header) declared to hold `count`
/// samples, appending to `out`.
fn decode_payload(payload: &[u8], count: u32, out: &mut Vec<Sample>) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let t0 = unzigzag64(read_uvarint64(payload, &mut pos)?);
    let v0 = unzigzag128(read_uvarint128(payload, &mut pos)?);
    out.push(Sample { t: t0, v: v0 });
    let mut prev = Sample { t: t0, v: v0 };
    let mut prev_dt: i64 = 0;
    for _ in 1..count {
        let dod = unzigzag64(read_uvarint64(payload, &mut pos)?);
        let dv = unzigzag128(read_uvarint128(payload, &mut pos)?);
        let dt = prev_dt.wrapping_add(dod);
        let s = Sample {
            t: prev.t.wrapping_add(dt),
            v: prev.v.wrapping_add(dv),
        };
        out.push(s);
        prev_dt = dt;
        prev = s;
    }
    if pos != payload.len() {
        return Err(CodecError::TrailingBytes {
            extra: payload.len() - pos,
        });
    }
    Ok(())
}

/// Decodes the single chunk at the start of `bytes`, appending its
/// samples to `out` and returning the bytes consumed.
///
/// # Errors
///
/// Typed [`CodecError`]s for every malformation — truncation, bounds,
/// checksum, varint garbage, trailing payload bytes.
pub fn decode_chunk(bytes: &[u8], out: &mut Vec<Sample>) -> Result<usize, CodecError> {
    let header = read_chunk_header(bytes)?;
    let need = widen_usize(header.payload_len);
    let body = &bytes[CHUNK_HEADER_LEN..];
    if body.len() < need {
        return Err(CodecError::TruncatedChunk {
            needed: need,
            got: body.len(),
        });
    }
    let payload = &body[..need];
    let got = fnv1a(payload);
    if got != header.checksum {
        return Err(CodecError::ChecksumMismatch {
            expected: header.checksum,
            got,
        });
    }
    let before = out.len();
    match decode_payload(payload, header.count, out) {
        Ok(()) => Ok(CHUNK_HEADER_LEN + need),
        Err(e) => {
            out.truncate(before);
            Err(e)
        }
    }
}

/// Decodes a complete series file (header + chunks back to back) from one
/// in-memory buffer.
///
/// # Errors
///
/// Typed [`CodecError`]s; a clean file never errors, and
/// `decode_file(encode…)` is the identity the round-trip proptests pin.
pub fn decode_file(bytes: &[u8]) -> Result<Vec<Sample>, CodecError> {
    let mut pos = check_file_header(bytes)?;
    let mut out = Vec::new();
    while pos < bytes.len() {
        pos += decode_chunk(&bytes[pos..], &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(samples: &[Sample]) {
        let mut bytes = file_header().to_vec();
        encode_chunk(samples, &mut bytes).expect("encode");
        assert_eq!(decode_file(&bytes).expect("decode"), samples);
    }

    #[test]
    fn round_trips_extremes() {
        rt(&[Sample { t: 0, v: 0 }]);
        rt(&[
            Sample {
                t: i64::MIN,
                v: i128::MIN,
            },
            Sample {
                t: i64::MAX,
                v: i128::MAX,
            },
            Sample { t: 0, v: -1 },
        ]);
    }

    #[test]
    fn constant_series_is_two_bytes_per_sample() {
        let samples: Vec<Sample> = (0..100)
            .map(|k| Sample {
                t: 3600 * k,
                v: 42 << 40,
            })
            .collect();
        let mut bytes = Vec::new();
        encode_chunk(&samples, &mut bytes).expect("encode");
        // First sample pays full freight; the other 99 are 1+1 bytes.
        assert!(bytes.len() < CHUNK_HEADER_LEN + 16 + 99 * 2 + 1);
    }

    #[test]
    fn zigzag_inverts() {
        for n in [0i64, 1, -1, i64::MIN, i64::MAX, 977] {
            assert_eq!(unzigzag64(zigzag64(n)), n);
        }
        for n in [0i128, 1, -1, i128::MIN, i128::MAX, -(1 << 90)] {
            assert_eq!(unzigzag128(zigzag128(n)), n);
        }
    }
}
