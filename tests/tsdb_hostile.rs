//! Hostile-input battery for the tsdb: every malformation a store can
//! meet on disk or in a query string is a *typed* error, never a panic.
//!
//! The store opens by structurally validating every chunk file the index
//! names, so corruption surfaces at [`TsdbStore::open`] — not as a
//! surprise mid-query. This suite feeds it: truncated chunk files,
//! corrupted file/chunk headers, forged counts and lengths, garbage and
//! overlong varints, trailing payload bytes, flipped payload bits,
//! malformed `index.json` in a dozen shapes, unknown label keys, and
//! overlapping/duplicate appends (including across a flush + reopen).
//! The companion proptests in `tests/tsdb_roundtrip.rs` cover the same
//! ground generatively; these are the deterministic, named corners.

use rideshare::tsdb::codec::{
    decode_file, file_header, fnv1a, CodecError, Sample, CHUNK_HEADER_LEN, MAX_CHUNK_SAMPLES,
};
use rideshare::tsdb::store::{SeriesKey, CHUNK_LEN, MAX_SERIES};
use rideshare::tsdb::{LabelFilter, RangeQuery, TsdbError, TsdbStore};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdb-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(metric: &str) -> SeriesKey {
    SeriesKey {
        scenario: "hostile".to_string(),
        policy: "margin".to_string(),
        region: "1".to_string(),
        shard: "1".to_string(),
        metric: metric.to_string(),
    }
}

/// A store with one sealed chunk on disk, flushed and closed.
fn sealed_store(tag: &str) -> (PathBuf, PathBuf) {
    let dir = tmp_dir(tag);
    let mut store = TsdbStore::open(&dir).expect("open");
    for k in 0..(CHUNK_LEN as i64 + 7) {
        store.append(&key("served"), k * 60, 3).expect("append");
    }
    store.flush().expect("flush");
    let file = dir.join("series-00000.tsc");
    assert!(file.exists(), "flush must have written the chunk file");
    (dir, file)
}

/// Builds a raw chunk (header + payload) with the *declared* count and a
/// correct checksum over `payload` — the forger's toolkit.
fn raw_chunk(count: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("small payload")
            .to_le_bytes(),
    );
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

// ---------------------------------------------------------------------
// Corrupt chunk files: typed at open, named by path.
// ---------------------------------------------------------------------

#[test]
fn truncated_chunk_file_is_typed_at_open() {
    let (dir, file) = sealed_store("trunc");
    let bytes = std::fs::read(&file).expect("read");
    std::fs::write(&file, &bytes[..bytes.len() - 5]).expect("truncate");
    let err = TsdbStore::open(&dir).expect_err("truncated file must fail open");
    assert!(
        matches!(
            &err,
            TsdbError::Codec {
                error: CodecError::TruncatedChunk { .. },
                ..
            }
        ),
        "want Codec(TruncatedChunk), got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_mid_header_is_typed_at_open() {
    let (dir, file) = sealed_store("trunc-hdr");
    let bytes = std::fs::read(&file).expect("read");
    // Cut inside the chunk header (header starts right after the 8-byte
    // file header).
    std::fs::write(&file, &bytes[..8 + CHUNK_HEADER_LEN - 3]).expect("truncate");
    let err = TsdbStore::open(&dir).expect_err("truncated header must fail open");
    assert!(
        matches!(
            &err,
            TsdbError::Codec {
                error: CodecError::TruncatedHeader { .. },
                ..
            }
        ),
        "want Codec(TruncatedHeader), got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_magic_is_typed_at_open() {
    let (dir, file) = sealed_store("magic");
    let mut bytes = std::fs::read(&file).expect("read");
    bytes[0] = b'X';
    std::fs::write(&file, &bytes).expect("rewrite");
    let err = TsdbStore::open(&dir).expect_err("bad magic must fail open");
    assert!(
        matches!(
            &err,
            TsdbError::Codec {
                error: CodecError::BadMagic,
                ..
            }
        ),
        "want Codec(BadMagic), got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsupported_version_is_typed_at_open() {
    let (dir, file) = sealed_store("version");
    let mut bytes = std::fs::read(&file).expect("read");
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&file, &bytes).expect("rewrite");
    let err = TsdbStore::open(&dir).expect_err("bad version must fail open");
    assert!(
        matches!(
            &err,
            TsdbError::Codec {
                error: CodecError::BadVersion(99),
                ..
            }
        ),
        "want Codec(BadVersion(99)), got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let (dir, file) = sealed_store("flip");
    let mut bytes = std::fs::read(&file).expect("read");
    let payload_at = 8 + CHUNK_HEADER_LEN + 2;
    bytes[payload_at] ^= 0x40;
    std::fs::write(&file, &bytes).expect("rewrite");
    let err = TsdbStore::open(&dir).expect_err("bit rot must fail open");
    assert!(
        matches!(
            &err,
            TsdbError::Codec {
                error: CodecError::ChecksumMismatch { .. },
                ..
            }
        ),
        "want Codec(ChecksumMismatch), got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Forged headers and garbage varints (codec-level, no store needed).
// ---------------------------------------------------------------------

#[test]
fn forged_oversized_count_fails_before_payload_arrives() {
    let mut bytes = file_header().to_vec();
    bytes.extend_from_slice(&(MAX_CHUNK_SAMPLES + 1).to_le_bytes());
    bytes.extend_from_slice(&16u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    // The decode rejects on the 12 header bytes alone: the forged
    // payload is absent, and it is the count that is reported, not a
    // truncation.
    assert!(matches!(
        decode_file(&bytes),
        Err(CodecError::OversizedChunk { .. })
    ));
}

#[test]
fn zero_sample_chunk_is_refused() {
    let mut bytes = file_header().to_vec();
    bytes.extend_from_slice(&raw_chunk(0, &[]));
    assert!(matches!(decode_file(&bytes), Err(CodecError::EmptyChunk)));
}

#[test]
fn all_continuation_bytes_are_an_overlong_varint() {
    // 0xFF forever: every byte says "more follows", overrunning the u64
    // varint's 10-byte budget — garbage, typed.
    let mut bytes = file_header().to_vec();
    bytes.extend_from_slice(&raw_chunk(2, &[0xFF; 25]));
    assert!(matches!(
        decode_file(&bytes),
        Err(CodecError::OverlongVarint)
    ));
}

#[test]
fn varint_cut_mid_value_is_truncated() {
    // A valid continuation byte then nothing: the payload ends mid-varint.
    let mut bytes = file_header().to_vec();
    bytes.extend_from_slice(&raw_chunk(1, &[0x80]));
    assert!(matches!(
        decode_file(&bytes),
        Err(CodecError::TruncatedVarint)
    ));
}

#[test]
fn trailing_payload_bytes_are_refused() {
    // One declared sample, then extra bytes with a *correct* checksum:
    // still refused — the byte count must match the sample count.
    let mut payload = Vec::new();
    payload.extend_from_slice(&[0x00, 0x00]); // t0 = 0, v0 = 0
    payload.extend_from_slice(&[0x02, 0x02]); // an undeclared second sample
    let mut bytes = file_header().to_vec();
    bytes.extend_from_slice(&raw_chunk(1, &payload));
    assert!(matches!(
        decode_file(&bytes),
        Err(CodecError::TrailingBytes { extra: 2 })
    ));
}

// ---------------------------------------------------------------------
// Malformed index.json.
// ---------------------------------------------------------------------

fn open_with_index(tag: &str, index: &str) -> TsdbError {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("index.json"), index).expect("write index");
    let err = TsdbStore::open(&dir).expect_err("malformed index must fail open");
    let _ = std::fs::remove_dir_all(&dir);
    err
}

#[test]
fn malformed_index_shapes_are_typed() {
    // Not JSON at all.
    assert!(matches!(
        open_with_index("garbage", "not json"),
        TsdbError::BadIndex(_)
    ));
    // Nested past the parser's bound: typed, not a stack overflow.
    assert!(matches!(
        open_with_index("deep", &"[".repeat(60_000)),
        TsdbError::BadIndex(_)
    ));
    // Wrong schema tag.
    assert!(matches!(
        open_with_index(
            "schema",
            "{\"schema\":\"rideshare-tsdb-index/999\",\"series\":[]}"
        ),
        TsdbError::BadIndex(_)
    ));
    // Missing the series array.
    assert!(matches!(
        open_with_index("noseries", "{\"schema\":\"rideshare-tsdb-index/1\"}"),
        TsdbError::BadIndex(_)
    ));
    // A series row with the wrong arity.
    assert!(matches!(
        open_with_index(
            "arity",
            "{\"schema\":\"rideshare-tsdb-index/1\",\"series\":[[0,\"s\",\"p\",\"r\",\"h\"]]}"
        ),
        TsdbError::BadIndex(_)
    ));
    // A non-numeric series id.
    assert!(matches!(
        open_with_index(
            "id",
            "{\"schema\":\"rideshare-tsdb-index/1\",\"series\":[[\"x\",\"s\",\"p\",\"r\",\"h\",\"m\"]]}"
        ),
        TsdbError::BadIndex(_)
    ));
    // A label value outside the charset contract.
    assert!(matches!(
        open_with_index(
            "charset",
            "{\"schema\":\"rideshare-tsdb-index/1\",\"series\":[[0,\"has space\",\"p\",\"r\",\"h\",\"m\"]]}"
        ),
        TsdbError::BadLabelValue { .. }
    ));
    // Two rows naming the same label set.
    assert!(matches!(
        open_with_index(
            "dup",
            "{\"schema\":\"rideshare-tsdb-index/1\",\"series\":[[0,\"s\",\"p\",\"r\",\"h\",\"m\"],[1,\"s\",\"p\",\"r\",\"h\",\"m\"]]}"
        ),
        TsdbError::BadIndex(_)
    ));
}

#[test]
fn series_count_past_the_cap_is_refused() {
    // Drive the store to MAX_SERIES distinct label sets (all buffered in
    // memory — nothing seals at one sample per series), then demand one
    // more: refused with the exact count. The same cap guards the index
    // load path, so a hostile `index.json` cannot force unbounded series
    // allocation either.
    let dir = tmp_dir("cap");
    let mut store = TsdbStore::open(&dir).expect("open");
    for i in 0..MAX_SERIES {
        let mut k = key("m");
        k.metric = format!("m{i}");
        store.append(&k, 0, 1).expect("append under the cap");
    }
    let mut over = key("m");
    over.metric = "straw".to_string();
    assert!(matches!(
        store.append(&over, 0, 1).expect_err("cap"),
        TsdbError::TooManySeries(n) if n == MAX_SERIES + 1
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Label and append contracts.
// ---------------------------------------------------------------------

#[test]
fn unknown_label_keys_and_bad_values_are_typed() {
    assert!(matches!(
        LabelFilter::parse("flavor=spicy").expect_err("unknown key"),
        TsdbError::UnknownLabelKey(k) if k == "flavor"
    ));
    assert!(matches!(
        LabelFilter::parse("metric").expect_err("missing ="),
        TsdbError::BadLabelValue { .. }
    ));
    assert!(matches!(
        LabelFilter::parse("metric=").expect_err("empty value"),
        TsdbError::BadLabelValue { .. }
    ));
    assert!(matches!(
        LabelFilter::parse("metric=has space").expect_err("charset"),
        TsdbError::BadLabelValue { .. }
    ));
    let long = format!("metric={}", "x".repeat(65));
    assert!(matches!(
        LabelFilter::parse(&long).expect_err("overlong"),
        TsdbError::BadLabelValue { .. }
    ));
    // Order-insensitive parse, canonical label-order rendering.
    let f = LabelFilter::parse("metric=served,policy=margin").expect("valid");
    assert_eq!(f.canonical(), "policy=margin,metric=served");
}

#[test]
fn overlapping_appends_are_refused_even_across_reopen() {
    let dir = tmp_dir("overlap");
    let mut store = TsdbStore::open(&dir).expect("open");
    store.append(&key("served"), 3_600, 5).expect("append");
    store.flush().expect("flush");
    drop(store);

    // The reopened store reconstructs each series' clock from disk, so
    // duplicate and backwards appends are refused across process lives.
    let mut store = TsdbStore::open(&dir).expect("reopen");
    assert!(matches!(
        store
            .append(&key("served"), 3_600, 5)
            .expect_err("duplicate"),
        TsdbError::OutOfOrder {
            prev: 3_600,
            at: 3_600,
            ..
        }
    ));
    assert!(matches!(
        store.append(&key("served"), 60, 1).expect_err("backwards"),
        TsdbError::OutOfOrder {
            prev: 3_600,
            at: 60,
            ..
        }
    ));
    // The refused appends left the series untouched.
    let samples = store.read_series(&key("served")).expect("read");
    assert_eq!(samples, vec![Sample { t: 3_600, v: 5 }]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends `CHUNK_LEN + 7` samples to one series of the store in `dir`,
/// flushes, reopens and returns the series' sample count and samples.
fn record_and_count(dir: &std::path::Path) -> (u64, Vec<Sample>) {
    let mut store = TsdbStore::open(dir).expect("open");
    for k in 0..(CHUNK_LEN as i64 + 7) {
        store.append(&key("served"), k * 60, 3).expect("append");
    }
    store.flush().expect("flush");
    drop(store);
    let store = TsdbStore::open(dir).expect("reopen");
    let (_, info) = store.series().next().expect("one series");
    (
        info.samples,
        store.read_series(&key("served")).expect("read"),
    )
}

#[test]
fn unindexed_series_files_are_never_appended_to() {
    // A process killed before its first flush leaves a sealed chunk and
    // no `index.json`. A later run into the same directory must record
    // what a fresh directory records, not append to the orphaned file.
    let dir = tmp_dir("orphan");
    let mut store = TsdbStore::open(&dir).expect("open");
    for k in 0..(CHUNK_LEN as i64 + 7) {
        store.append(&key("served"), k * 60, 9).expect("append");
    }
    drop(store);
    assert!(dir.join("series-00000.tsc").exists(), "a chunk was sealed");
    assert!(!dir.join("index.json").exists(), "nothing was flushed");

    let fresh = tmp_dir("orphan-fresh");
    assert_eq!(record_and_count(&dir), record_and_count(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn a_series_file_holding_the_last_id_leaves_no_id_to_take() {
    // No new series may share a file with one the index does not name,
    // even when that file holds the largest id there is.
    let (dir, file) = sealed_store("last-id");
    std::fs::remove_file(dir.join("index.json")).expect("drop the index");
    let last = dir.join(format!("series-{}.tsc", u32::MAX));
    std::fs::rename(&file, &last).expect("rename");
    let before = std::fs::read(&last).expect("read");
    let mut store = TsdbStore::open(&dir).expect("open");
    let refused = store.append(&key("served"), 0, 1).expect_err("no id left");
    assert!(matches!(refused, TsdbError::BadIndex(_)), "{refused}");
    drop(store);
    assert_eq!(std::fs::read(&last).expect("read"), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_rejects_degenerate_ranges() {
    let dir = tmp_dir("range");
    let store = TsdbStore::open(&dir).expect("open");
    let bad_step = RangeQuery {
        filter: LabelFilter::any(),
        from: 0,
        to: 100,
        step: 0,
    };
    assert!(matches!(
        rideshare::tsdb::run_query(&store, &bad_step),
        Err(TsdbError::BadIndex(_))
    ));
    let inverted = RangeQuery {
        filter: LabelFilter::any(),
        from: 100,
        to: 0,
        step: 60,
    };
    assert!(matches!(
        rideshare::tsdb::run_query(&store, &inverted),
        Err(TsdbError::BadIndex(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
