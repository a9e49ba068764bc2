//! The tsdb chunk-codec round-trip battery (property-based).
//!
//! The codec's contract is *lossless on the whole `(i64, i128)` domain*:
//! delta-of-delta + zigzag-varint encoding round-trips every sample
//! sequence exactly, because wrapping subtraction mod 2⁶⁴/2¹²⁸ is a
//! bijection. These proptests pin that contract over adversarial series
//! — irregular timestamps, `i64`/`i128` extremes, long constant runs,
//! alternating sign flips:
//!
//! - **round-trip identity**: `decode_file(header + encode_chunk(s)) == s`
//!   for any non-empty series, including multi-chunk files,
//! - **truncation safety**: every strict prefix of a valid file decodes
//!   to a prefix of the series or fails with a typed [`CodecError`] —
//!   never a panic, never fabricated samples,
//! - **corruption detection**: any single-byte payload corruption is
//!   caught by the FNV-1a checksum (each hash step is a bijection of the
//!   running state, so one changed byte always changes the digest).

use proptest::prelude::*;
use rideshare::tsdb::codec::{
    decode_file, encode_chunk, file_header, CodecError, Sample, CHUNK_HEADER_LEN, FILE_HEADER_LEN,
};

/// Timestamps biased toward the adversarial corners: extremes, zero, and
/// near-zero alongside arbitrary values.
fn arb_t() -> impl Strategy<Value = i64> {
    prop_oneof![
        4 => any::<i64>(),
        2 => -90_000i64..90_000i64,
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
        1 => Just(0i64),
        1 => Just(-1i64),
    ]
}

/// A uniform full-range i128, assembled from two u64 words (the vendored
/// proptest shim has no `any::<i128>()`).
fn arb_i128_any() -> impl Strategy<Value = i128> {
    (any::<u64>(), any::<u64>())
        .prop_map(|(hi, lo)| ((u128::from(hi) << 64) | u128::from(lo)).cast_signed())
}

/// Values biased toward the i128 corners and the 2⁻⁴⁰ fixed-point scale
/// the store actually writes.
fn arb_v() -> impl Strategy<Value = i128> {
    prop_oneof![
        4 => arb_i128_any(),
        2 => (-1_000_000i64..1_000_000i64).prop_map(|m| i128::from(m) << 40),
        1 => Just(i128::MIN),
        1 => Just(i128::MAX),
        1 => Just(0i128),
        1 => Just(-1i128),
    ]
}

/// A fully irregular series: no monotonicity, no smoothness — the codec
/// must not care (ordering is the store's contract, not the codec's).
fn arb_series() -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec(
        (arb_t(), arb_v()).prop_map(|(t, v)| Sample { t, v }),
        1..200,
    )
}

/// A constant run: fixed cadence, fixed value — the best case the format
/// was shaped for (two one-byte varints per sample after the first).
fn arb_constant_run() -> impl Strategy<Value = Vec<Sample>> {
    (arb_t(), 1i64..7200, arb_v(), 1usize..300).prop_map(|(t0, dt, v, n)| {
        (0..n)
            .map(|k| Sample {
                t: t0.wrapping_add(dt.wrapping_mul(k as i64)),
                v,
            })
            .collect()
    })
}

/// A sign-flip series: the value alternates between `v` and `-v` (or the
/// extremes), so every delta is maximal — the worst case for varint
/// width, the same identity contract.
fn arb_sign_flips() -> impl Strategy<Value = Vec<Sample>> {
    let pairs = prop_oneof![
        3 => arb_v().prop_map(|v| (v, v.checked_neg().unwrap_or(i128::MAX))),
        1 => Just((i128::MIN, i128::MAX)),
    ];
    (arb_t(), 1i64..3600, pairs, 1usize..200).prop_map(|(t0, dt, (a, b), n)| {
        (0..n)
            .map(|k| Sample {
                t: t0.wrapping_add(dt.wrapping_mul(k as i64)),
                v: if k % 2 == 0 { a } else { b },
            })
            .collect()
    })
}

/// Any of the adversarial shapes above.
fn arb_any_series() -> impl Strategy<Value = Vec<Sample>> {
    prop_oneof![
        3 => arb_series(),
        1 => arb_constant_run(),
        1 => arb_sign_flips(),
    ]
}

/// Encodes `samples` as a complete file, split into chunks of at most
/// `chunk_len` samples.
fn encode_as_file(samples: &[Sample], chunk_len: usize) -> Vec<u8> {
    let mut bytes = file_header().to_vec();
    for chunk in samples.chunks(chunk_len.max(1)) {
        encode_chunk(chunk, &mut bytes).expect("encode small chunk");
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // encode → decode is the identity for any series, however hostile
    // the timestamps and values.
    #[test]
    fn single_chunk_round_trip_is_identity(samples in arb_any_series()) {
        let bytes = encode_as_file(&samples, samples.len());
        prop_assert_eq!(decode_file(&bytes).expect("decode"), samples);
    }

    // The identity holds regardless of how the series is split into
    // chunks — chunking is a storage detail, not a semantic one.
    #[test]
    fn multi_chunk_round_trip_is_identity(
        samples in arb_any_series(),
        chunk_len in 1usize..64,
    ) {
        let bytes = encode_as_file(&samples, chunk_len);
        prop_assert_eq!(decode_file(&bytes).expect("decode"), samples);
    }

    // Every strict prefix of a valid file is handled without panicking:
    // the decoder returns a typed error, or — cut exactly on a chunk
    // boundary — the samples of the complete chunks and nothing more.
    #[test]
    fn truncation_never_panics_or_fabricates(
        samples in arb_any_series(),
        chunk_len in 1usize..32,
        cut_seed in 0usize..1_000_000,
    ) {
        let bytes = encode_as_file(&samples, chunk_len);
        let whole = decode_file(&bytes).expect("whole-buffer decode");
        let cut = cut_seed % bytes.len();

        match decode_file(&bytes[..cut]) {
            Ok(got) => {
                prop_assert!(whole.starts_with(&got));
                if cut < FILE_HEADER_LEN + CHUNK_HEADER_LEN {
                    prop_assert!(got.is_empty());
                }
            }
            Err(e) => prop_assert!(matches!(
                e,
                CodecError::TruncatedHeader { .. } | CodecError::TruncatedChunk { .. }
            )),
        }
    }

    // Any single-byte corruption of a chunk payload is detected by the
    // checksum; corrupting header bytes may surface as other typed
    // errors, but never as a panic and never as silently wrong samples.
    #[test]
    fn single_byte_corruption_is_detected(
        samples in arb_any_series(),
        pos_seed in 0usize..1_000_000,
        delta in 1u8..=255,
    ) {
        let bytes = encode_as_file(&samples, samples.len());
        let payload_start = FILE_HEADER_LEN + CHUNK_HEADER_LEN;
        let mut corrupt = bytes.clone();
        let pos = payload_start + pos_seed % (bytes.len() - payload_start);
        corrupt[pos] = corrupt[pos].wrapping_add(delta);
        // Every FNV-1a step is a bijection of the running hash, so a
        // changed payload byte always changes the digest.
        let got = decode_file(&corrupt);
        prop_assert!(
            matches!(got, Err(CodecError::ChecksumMismatch { .. })),
            "payload corruption at byte {} gave {:?}, want ChecksumMismatch",
            pos,
            got
        );
    }

    // Constant telemetry compresses to ~2 bytes per sample after the
    // first — the size law that makes per-window deltas cheap to keep.
    #[test]
    fn constant_run_compresses_to_two_bytes_per_sample(
        t0 in -1_000_000i64..1_000_000,
        dt in 1i64..7200,
        v in (-1_000_000i64..1_000_000).prop_map(|m| i128::from(m) << 40),
        n in 2usize..300,
    ) {
        let samples: Vec<Sample> = (0..n)
            .map(|k| Sample { t: t0 + dt * k as i64, v })
            .collect();
        let mut bytes = Vec::new();
        encode_chunk(&samples, &mut bytes).expect("encode");
        // Header + first sample (≤ 29 bytes) + one dod byte and one
        // delta byte per remaining sample.
        prop_assert!(bytes.len() <= CHUNK_HEADER_LEN + 29 + 2 * (n - 1));
    }
}
