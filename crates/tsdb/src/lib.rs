//! Embedded telemetry time-series store for the rideshare workspace.
//!
//! A long-running dispatch market (the paper's online setting, §IV–V)
//! needs its per-window telemetry to outlive the process: "profit per
//! hour for policy X at shard count N over the last three days" is a
//! question about a *finished* run. This crate is the persistence and
//! query layer for exactly that, built on one observation: everything
//! [`rideshare_metrics::StreamMetrics`] accumulates is already an exact
//! integer on a deterministic grid (counts, whole seconds, 2⁻⁴⁰
//! fixed-point money/distance), so a time-series store over those
//! integers can be **lossless** and therefore **equivalence-checkable**
//! — a replayed run, its recorded store, and a range query over that
//! store agree with `==`, not a tolerance.
//!
//! The design follows the Gorilla compression paper (Pelkonen et al.,
//! VLDB 2015) and the valkey-timeseries chunk/label-index architecture:
//!
//! - [`codec`] — chunks of timestamp delta-of-delta + zigzag-varint
//!   value deltas; wrapping arithmetic makes round-trip identity hold
//!   over the full `i64`/`i128` domain, pinned by proptests.
//! - [`store`] — an append-only directory store: `index.json` mapping
//!   `{scenario, policy, region, shard, metric}` label sets to numbered
//!   chunk files; strictly-monotonic appends; typed [`TsdbError`]s on
//!   every hostile input.
//! - [`query`] — label-filtered series merge + windowed aggregation
//!   (`sum/avg/rate/min/max`) with canonical byte-stable JSON output.
//! - [`recorder`] — the [`rideshare_online::StreamSink`] interposer the
//!   serve daemon and `rideshare replay` use to persist windows as they
//!   close (`--tsdb-dir`), queried back by `rideshare query`.

pub mod codec;
pub mod query;
pub mod recorder;
pub mod store;

pub use codec::{CodecError, Sample};
pub use query::{
    run_query, to_canonical_json, Agg, LabelFilter, QueryResult, RangeQuery, WindowAgg,
    QUERY_SCHEMA,
};
pub use recorder::{metric_unit, MetricUnit, RunLabels, TsdbRecorder, METRICS};
pub use store::{SeriesInfo, SeriesKey, TsdbError, TsdbStore, INDEX_SCHEMA};
