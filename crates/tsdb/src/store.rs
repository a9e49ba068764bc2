//! The label-indexed, append-only store over a directory.
//!
//! One directory holds one store: `index.json` (canonical JSON, schema
//! [`INDEX_SCHEMA`], read back through `rideshare_types::json`) maps label
//! sets to series ids, and each series id `k` owns an append-only chunk
//! file `series-000k.tsc` in the [`crate::codec`] format. Series are keyed
//! by the five run labels `{scenario, policy, region, shard, metric}` — the
//! valkey-timeseries key/label shape, narrowed to what a dispatch run
//! actually varies.
//!
//! Appends must be strictly increasing on the stream clock per series;
//! an overlapping or duplicate window append is a typed
//! [`TsdbError::OutOfOrder`], never silent reordering, because stored
//! series double as equivalence-oracle inputs and must stay replayable
//! bit-for-bit. Samples buffer in memory and seal into a chunk every
//! [`CHUNK_LEN`] appends; [`TsdbStore::flush`] seals the remainder and
//! rewrites the index, which is the durability boundary (the serve
//! daemon flushes at day rollovers and at exit).

use crate::codec::{self, CodecError, Sample};
use rideshare_types::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Schema tag of `index.json`.
pub const INDEX_SCHEMA: &str = "rideshare-tsdb-index/1";

/// Samples per sealed chunk. Small enough that a day of hourly windows
/// spans a handful of chunks (cheap range pruning), large enough that
/// the per-chunk header amortises to under a bit per sample.
pub const CHUNK_LEN: usize = 128;

/// Upper bound on distinct series per store, checked when the index is
/// loaded so a hostile `index.json` cannot force unbounded allocation.
pub const MAX_SERIES: usize = 1 << 16;

/// The five run labels identifying one series. Ordering is derived
/// lexicographically field-by-field in declaration order, which fixes
/// index layout, query output order, and golden-fixture bytes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SeriesKey {
    /// Scenario or data-source label (e.g. `porto-regions`).
    pub scenario: String,
    /// Dispatch policy label (e.g. `margin`, `nearest`, `batch-3m`).
    pub policy: String,
    /// Region-count label of the run (stringified; `1` when unsharded).
    pub region: String,
    /// Shard-count label of the run (stringified).
    pub shard: String,
    /// Metric name (see `crate::recorder` for the vocabulary).
    pub metric: String,
}

impl SeriesKey {
    /// The label names, in key order — the query filter vocabulary.
    pub const LABEL_NAMES: [&'static str; 5] = ["scenario", "policy", "region", "shard", "metric"];

    /// Canonical `k=v,k=v` rendering in label order.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "scenario={},policy={},region={},shard={},metric={}",
            self.scenario, self.policy, self.region, self.shard, self.metric
        )
    }

    /// Validates every label value (see [`validate_label`]).
    fn validate(&self) -> Result<(), TsdbError> {
        for (name, value) in Self::LABEL_NAMES.iter().zip([
            &self.scenario,
            &self.policy,
            &self.region,
            &self.shard,
            &self.metric,
        ]) {
            validate_label(name, value)?;
        }
        Ok(())
    }
}

/// Checks one label value: non-empty, ≤ 64 bytes, ASCII alphanumerics
/// plus `-`, `_`, `.`, `:` only. The charset keeps canonical filter
/// strings (`k=v,k=v`) and the index JSON unambiguous without any
/// escaping machinery.
pub fn validate_label(name: &str, value: &str) -> Result<(), TsdbError> {
    let ok = !value.is_empty()
        && value.len() <= 64
        && value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'));
    if ok {
        Ok(())
    } else {
        Err(TsdbError::BadLabelValue {
            label: name.to_string(),
            value: value.to_string(),
        })
    }
}

/// A typed store failure. Everything hostile — corrupt files, bad
/// labels, out-of-order appends — lands here; the store never panics on
/// input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TsdbError {
    /// Filesystem failure, with the path and OS error text.
    Io {
        /// Path the operation touched.
        path: String,
        /// OS error rendering.
        error: String,
    },
    /// A chunk file failed to decode (see [`CodecError`]).
    Codec {
        /// Path of the offending file.
        path: String,
        /// The underlying codec error.
        error: CodecError,
    },
    /// `index.json` is malformed, with a reason.
    BadIndex(String),
    /// A label value violates the charset/length contract.
    BadLabelValue {
        /// Label name.
        label: String,
        /// Offending value.
        value: String,
    },
    /// A filter used a label name outside [`SeriesKey::LABEL_NAMES`].
    UnknownLabelKey(String),
    /// An append moved backwards (or repeated) on a series' clock —
    /// overlapping or duplicate window appends are refused, not merged.
    OutOfOrder {
        /// The series violated.
        series: String,
        /// Timestamp of the series' newest sample.
        prev: i64,
        /// Timestamp of the refused append.
        at: i64,
    },
    /// The index names more series than [`MAX_SERIES`].
    TooManySeries(usize),
}

impl fmt::Display for TsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsdbError::Io { path, error } => write!(f, "tsdb io error at {path}: {error}"),
            TsdbError::Codec { path, error } => write!(f, "tsdb chunk file {path}: {error}"),
            TsdbError::BadIndex(reason) => write!(f, "tsdb index.json: {reason}"),
            TsdbError::BadLabelValue { label, value } => write!(
                f,
                "bad {label} label {value:?}: need 1-64 ASCII [A-Za-z0-9._:-] bytes"
            ),
            TsdbError::UnknownLabelKey(key) => write!(
                f,
                "unknown label key {key:?} (labels: scenario, policy, region, shard, metric)"
            ),
            TsdbError::OutOfOrder { series, prev, at } => write!(
                f,
                "out-of-order append on {series}: have t={prev}, refused t={at} (appends must strictly increase)"
            ),
            TsdbError::TooManySeries(n) => {
                write!(f, "index names {n} series (cap {MAX_SERIES})")
            }
        }
    }
}

impl Error for TsdbError {}

impl TsdbError {
    fn io(path: &Path, e: &std::io::Error) -> Self {
        TsdbError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        }
    }

    fn codec(path: &Path, error: CodecError) -> Self {
        TsdbError::Codec {
            path: path.display().to_string(),
            error,
        }
    }
}

/// Per-series summary for listings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeriesInfo {
    /// Stable series id (also the chunk-file number).
    pub id: u32,
    /// Total samples, sealed and buffered.
    pub samples: u64,
    /// Timestamp of the oldest sample, `None` for a series with no
    /// sealed or buffered samples.
    pub first_t: Option<i64>,
    /// Timestamp of the newest sample.
    pub last_t: Option<i64>,
}

/// In-memory state for one series.
#[derive(Debug)]
struct SeriesState {
    id: u32,
    first_t: Option<i64>,
    last_t: Option<i64>,
    sealed_samples: u64,
    /// Samples appended but not yet sealed into an on-disk chunk.
    open: Vec<Sample>,
}

/// The embedded store: a directory of chunk files behind a label index.
/// See the module docs for layout and contracts.
#[derive(Debug)]
pub struct TsdbStore {
    dir: PathBuf,
    series: BTreeMap<SeriesKey, SeriesState>,
    next_id: u32,
}

impl TsdbStore {
    /// Opens (or initialises) the store in `dir`, creating the directory
    /// if needed. An existing `index.json` is loaded and every listed
    /// chunk file structurally validated — truncated files and corrupt
    /// headers are typed errors at open, not surprises at query time.
    ///
    /// # Errors
    ///
    /// [`TsdbError`] on filesystem failures, malformed index, or
    /// malformed chunk files.
    pub fn open(dir: &Path) -> Result<Self, TsdbError> {
        fs::create_dir_all(dir).map_err(|e| TsdbError::io(dir, &e))?;
        let index_path = dir.join("index.json");
        let mut store = TsdbStore {
            dir: dir.to_path_buf(),
            series: BTreeMap::new(),
            next_id: 0,
        };
        if index_path.exists() {
            let text =
                fs::read_to_string(&index_path).map_err(|e| TsdbError::io(&index_path, &e))?;
            store.load_index(&text)?;
        }
        Ok(store)
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Parses `index.json` text and rebuilds per-series state from the
    /// chunk files it names.
    fn load_index(&mut self, text: &str) -> Result<(), TsdbError> {
        let v = json::parse(text).map_err(TsdbError::BadIndex)?;
        v.expect_schema(INDEX_SCHEMA).map_err(TsdbError::BadIndex)?;
        let rows = v.arr_field("series").map_err(TsdbError::BadIndex)?;
        if rows.len() > MAX_SERIES {
            return Err(TsdbError::TooManySeries(rows.len()));
        }
        for row in rows {
            let (id, key) = Self::index_row(row).map_err(TsdbError::BadIndex)?;
            key.validate()?;
            let state = self.scan_series_file(id)?;
            if self.series.insert(key, state).is_some() {
                return Err(TsdbError::BadIndex("duplicate series key".to_string()));
            }
            self.next_id = self.next_id.max(id.saturating_add(1));
        }
        Ok(())
    }

    /// One `[id, scenario, policy, region, shard, metric]` index row.
    fn index_row(row: &JsonValue) -> Result<(u32, SeriesKey), String> {
        let row = row.row::<6>()?;
        let label = |cell: usize| row.str_field(cell).map(str::to_string);
        let key = SeriesKey {
            scenario: label(1)?,
            policy: label(2)?,
            region: label(3)?,
            shard: label(4)?,
            metric: label(5)?,
        };
        Ok((row.num_field(0)?, key))
    }

    /// Path of series `id`'s chunk file.
    fn series_path(&self, id: u32) -> PathBuf {
        self.dir.join(format!("series-{id:05}.tsc"))
    }

    /// Structurally validates series `id`'s chunk file and summarises it
    /// (sample count, first/last timestamps). A missing file is an empty
    /// series (flush writes files lazily).
    fn scan_series_file(&self, id: u32) -> Result<SeriesState, TsdbError> {
        let path = self.series_path(id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(SeriesState {
                    id,
                    first_t: None,
                    last_t: None,
                    sealed_samples: 0,
                    open: Vec::new(),
                });
            }
            Err(e) => return Err(TsdbError::io(&path, &e)),
        };
        let samples = codec::decode_file(&bytes).map_err(|e| TsdbError::codec(&path, e))?;
        Ok(SeriesState {
            id,
            first_t: samples.first().map(|s| s.t),
            last_t: samples.last().map(|s| s.t),
            sealed_samples: samples.len() as u64,
            open: Vec::new(),
        })
    }

    /// Appends one sample to the series for `key`, creating the series
    /// (and assigning the next id) on first use.
    ///
    /// # Errors
    ///
    /// [`TsdbError::OutOfOrder`] unless `t` strictly exceeds the series'
    /// newest timestamp; label validation and filesystem/codec errors as
    /// typed variants.
    pub fn append(&mut self, key: &SeriesKey, t: i64, v: i128) -> Result<(), TsdbError> {
        let state = match self.series.get_mut(key) {
            Some(state) => state,
            None => {
                key.validate()?;
                if self.series.len() >= MAX_SERIES {
                    return Err(TsdbError::TooManySeries(self.series.len() + 1));
                }
                let id = self.next_id;
                self.next_id += 1;
                self.series.entry(key.clone()).or_insert(SeriesState {
                    id,
                    first_t: None,
                    last_t: None,
                    sealed_samples: 0,
                    open: Vec::new(),
                })
            }
        };
        if let Some(prev) = state.last_t {
            if t <= prev {
                return Err(TsdbError::OutOfOrder {
                    series: key.canonical(),
                    prev,
                    at: t,
                });
            }
        }
        state.open.push(Sample { t, v });
        state.first_t.get_or_insert(t);
        state.last_t = Some(t);
        if state.open.len() >= CHUNK_LEN {
            Self::seal(&self.dir, state)?;
        }
        Ok(())
    }

    /// Seals `state.open` into one chunk appended to the series file,
    /// writing the file header first if the file is new.
    fn seal(dir: &Path, state: &mut SeriesState) -> Result<(), TsdbError> {
        if state.open.is_empty() {
            return Ok(());
        }
        let path = dir.join(format!("series-{:05}.tsc", state.id));
        let mut bytes = Vec::new();
        if state.sealed_samples == 0 && !path.exists() {
            bytes.extend_from_slice(&codec::file_header());
        }
        codec::encode_chunk(&state.open, &mut bytes).map_err(|e| TsdbError::codec(&path, e))?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| TsdbError::io(&path, &e))?;
        f.write_all(&bytes).map_err(|e| TsdbError::io(&path, &e))?;
        state.sealed_samples += state.open.len() as u64;
        state.open.clear();
        Ok(())
    }

    /// Seals every buffered sample and rewrites `index.json` — the
    /// durability boundary. Idempotent; cheap when nothing is buffered.
    ///
    /// # Errors
    ///
    /// Typed [`TsdbError`]s on filesystem failures.
    pub fn flush(&mut self) -> Result<(), TsdbError> {
        for state in self.series.values_mut() {
            Self::seal(&self.dir, state)?;
        }
        let index_path = self.dir.join("index.json");
        let tmp_path = self.dir.join("index.json.tmp");
        let text = self.index_json();
        fs::write(&tmp_path, text).map_err(|e| TsdbError::io(&tmp_path, &e))?;
        fs::rename(&tmp_path, &index_path).map_err(|e| TsdbError::io(&index_path, &e))?;
        Ok(())
    }

    /// Canonical `index.json` text: schema tag, then one
    /// `[id, scenario, policy, region, shard, metric]` row per series in
    /// key order. Byte-stable for a given series set — the golden store
    /// fixture pins these bytes.
    #[must_use]
    pub fn index_json(&self) -> String {
        let mut out = format!("{{\"schema\":\"{INDEX_SCHEMA}\",\"series\":[");
        for (i, (key, state)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},\"{}\",\"{}\",\"{}\",\"{}\",\"{}\"]",
                state.id, key.scenario, key.policy, key.region, key.shard, key.metric
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// All series keys in key order, with summaries.
    pub fn series(&self) -> impl Iterator<Item = (&SeriesKey, SeriesInfo)> {
        self.series.iter().map(|(key, state)| {
            (
                key,
                SeriesInfo {
                    id: state.id,
                    samples: state.sealed_samples + state.open.len() as u64,
                    first_t: state.first_t,
                    last_t: state.last_t,
                },
            )
        })
    }

    /// Reads every sample of `key`'s series — sealed chunks off disk
    /// (checksum-verified) plus the still-buffered tail — in timestamp
    /// order. Unknown keys yield an empty vector, mirroring "no data" in
    /// query semantics.
    ///
    /// # Errors
    ///
    /// Typed [`TsdbError`]s on filesystem or codec failures.
    pub fn read_series(&self, key: &SeriesKey) -> Result<Vec<Sample>, TsdbError> {
        let Some(state) = self.series.get(key) else {
            return Ok(Vec::new());
        };
        let mut samples = if state.sealed_samples > 0 {
            let path = self.series_path(state.id);
            let bytes = fs::read(&path).map_err(|e| TsdbError::io(&path, &e))?;
            codec::decode_file(&bytes).map_err(|e| TsdbError::codec(&path, e))?
        } else {
            Vec::new()
        };
        samples.extend_from_slice(&state.open);
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(metric: &str) -> SeriesKey {
        SeriesKey {
            scenario: "t".to_string(),
            policy: "margin".to_string(),
            region: "1".to_string(),
            shard: "1".to_string(),
            metric: metric.to_string(),
        }
    }

    #[test]
    fn append_flush_reopen_round_trips() {
        let dir = tmp_dir("rt");
        let mut store = TsdbStore::open(&dir).expect("open");
        for k in 0..300i64 {
            store
                .append(&key("served"), k * 60, i128::from(k) * 7)
                .expect("append");
        }
        store.flush().expect("flush");
        let reopened = TsdbStore::open(&dir).expect("reopen");
        let samples = reopened.read_series(&key("served")).expect("read");
        assert_eq!(samples.len(), 300);
        assert_eq!(
            samples[299],
            Sample {
                t: 299 * 60,
                v: 299 * 7
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_append_is_typed_error() {
        let dir = tmp_dir("dup");
        let mut store = TsdbStore::open(&dir).expect("open");
        store.append(&key("served"), 60, 1).expect("append");
        let err = store.append(&key("served"), 60, 2).expect_err("dup");
        assert!(matches!(
            err,
            TsdbError::OutOfOrder {
                prev: 60,
                at: 60,
                ..
            }
        ));
        let err = store.append(&key("served"), 3, 2).expect_err("backwards");
        assert!(matches!(
            err,
            TsdbError::OutOfOrder {
                prev: 60,
                at: 3,
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_label_is_typed_error() {
        let dir = tmp_dir("lbl");
        let mut store = TsdbStore::open(&dir).expect("open");
        let mut k = key("served");
        k.policy = "has space".to_string();
        assert!(matches!(
            store.append(&k, 0, 0).expect_err("bad label"),
            TsdbError::BadLabelValue { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
