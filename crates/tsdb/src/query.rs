//! Range queries and window aggregation over the store.
//!
//! A query is a label filter (exact match per label, absent = wildcard),
//! a half-open time range `[from, to)` on the stream clock, and a window
//! `step`. Matched series are **merged** — samples at the same timestamp
//! sum, the valkey-timeseries multi-series semantics — and the merged
//! series is folded into step-aligned windows, each carrying the exact
//! integer sufficient statistics `{count, sum, min, max}`. Windows align
//! to the absolute clock (window `k` covers `[k·step, (k+1)·step)`),
//! matching `StreamMetrics` bucketing, so a query over a recorded run
//! reproduces the accumulator's buckets bit-for-bit.
//!
//! Everything stays in the i128 integer domain: `sum/min/max` are exact,
//! and the derived projections (`avg`, `rate`) are computed only at
//! *render* time. Canonical JSON ([`to_canonical_json`], schema
//! [`QUERY_SCHEMA`]) therefore never contains a float — it is
//! byte-stable and CI diffs it against a committed snapshot.

use crate::recorder::{metric_unit, MetricUnit};
use crate::store::{SeriesKey, TsdbError, TsdbStore};
use rideshare_metrics::fixed_to_f64;
use std::collections::BTreeMap;
use std::fmt;

/// Schema tag of canonical query output.
pub const QUERY_SCHEMA: &str = "rideshare-tsdb/1";

/// An exact-match-per-label filter; `None` is a wildcard.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LabelFilter {
    /// Scenario label to require, if any.
    pub scenario: Option<String>,
    /// Policy label to require, if any.
    pub policy: Option<String>,
    /// Region label to require, if any.
    pub region: Option<String>,
    /// Shard label to require, if any.
    pub shard: Option<String>,
    /// Metric name to require, if any.
    pub metric: Option<String>,
}

impl LabelFilter {
    /// The match-anything filter.
    #[must_use]
    pub fn any() -> Self {
        Self::default()
    }

    /// Parses `k=v,k=v` (empty string = match anything).
    ///
    /// # Errors
    ///
    /// [`TsdbError::UnknownLabelKey`] for a key outside
    /// [`SeriesKey::LABEL_NAMES`]; [`TsdbError::BadLabelValue`] for a
    /// malformed pair or value.
    pub fn parse(s: &str) -> Result<Self, TsdbError> {
        let mut filter = Self::any();
        for pair in s.split(',').filter(|p| !p.is_empty()) {
            let Some((k, v)) = pair.split_once('=') else {
                return Err(TsdbError::BadLabelValue {
                    label: "filter".to_string(),
                    value: pair.to_string(),
                });
            };
            filter = filter.with(k.trim(), v.trim())?;
        }
        Ok(filter)
    }

    /// Returns the filter with `key` required to equal `value`.
    ///
    /// # Errors
    ///
    /// [`TsdbError::UnknownLabelKey`] / [`TsdbError::BadLabelValue`] as
    /// in [`LabelFilter::parse`].
    pub fn with(mut self, key: &str, value: &str) -> Result<Self, TsdbError> {
        crate::store::validate_label(key, value)?;
        let slot = match key {
            "scenario" => &mut self.scenario,
            "policy" => &mut self.policy,
            "region" => &mut self.region,
            "shard" => &mut self.shard,
            "metric" => &mut self.metric,
            other => return Err(TsdbError::UnknownLabelKey(other.to_string())),
        };
        *slot = Some(value.to_string());
        Ok(self)
    }

    /// True when `key` satisfies every present constraint.
    #[must_use]
    pub fn matches(&self, key: &SeriesKey) -> bool {
        fn ok(want: &Option<String>, have: &str) -> bool {
            want.as_deref().is_none_or(|w| w == have)
        }
        ok(&self.scenario, &key.scenario)
            && ok(&self.policy, &key.policy)
            && ok(&self.region, &key.region)
            && ok(&self.shard, &key.shard)
            && ok(&self.metric, &key.metric)
    }

    /// Canonical `k=v,k=v` rendering in label order (empty when the
    /// filter matches anything) — stable across parse order.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut parts = Vec::new();
        for (name, value) in SeriesKey::LABEL_NAMES.iter().zip([
            &self.scenario,
            &self.policy,
            &self.region,
            &self.shard,
            &self.metric,
        ]) {
            if let Some(v) = value {
                parts.push(format!("{name}={v}"));
            }
        }
        parts.join(",")
    }
}

/// How a window's sufficient statistics project to one reported value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    /// Σ values (exact integer).
    Sum,
    /// Σ values / sample count.
    Avg,
    /// Σ values / window seconds (per-second rate).
    Rate,
    /// Minimum value (exact integer).
    Min,
    /// Maximum value (exact integer).
    Max,
}

impl Agg {
    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sum" => Some(Agg::Sum),
            "avg" => Some(Agg::Avg),
            "rate" => Some(Agg::Rate),
            "min" => Some(Agg::Min),
            "max" => Some(Agg::Max),
            _ => None,
        }
    }

    /// The canonical spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Agg::Sum => "sum",
            Agg::Avg => "avg",
            Agg::Rate => "rate",
            Agg::Min => "min",
            Agg::Max => "max",
        }
    }
}

impl fmt::Display for Agg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A range query: filter, half-open `[from, to)`, window width.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangeQuery {
    /// Which series to merge.
    pub filter: LabelFilter,
    /// Inclusive window start on the stream clock, seconds.
    pub from: i64,
    /// Exclusive range end, seconds.
    pub to: i64,
    /// Window width, seconds (strictly positive).
    pub step: i64,
}

/// Exact sufficient statistics of one window (or of the whole range).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowAgg {
    /// Window start (`k·step` for window `k`; `from` for the total row).
    pub start: i64,
    /// Merged samples in the window.
    pub count: u64,
    /// Σ values.
    pub sum: i128,
    /// Minimum merged value.
    pub min: i128,
    /// Maximum merged value.
    pub max: i128,
}

impl WindowAgg {
    fn seed(start: i64, v: i128) -> Self {
        WindowAgg {
            start,
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    fn fold(&mut self, v: i128) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// A query's result: which series merged, the non-empty windows, and the
/// whole-range total (`None` when no sample landed in range).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryResult {
    /// Matched series keys, in key order.
    pub matched: Vec<SeriesKey>,
    /// Non-empty step windows, ascending by start.
    pub windows: Vec<WindowAgg>,
    /// Whole-range statistics.
    pub total: Option<WindowAgg>,
}

/// Evaluates `q` against `store`: merge matched series (same-timestamp
/// samples sum), keep `[from, to)`, fold into step windows.
///
/// Window starts are `t.div_euclid(step) * step` — aligned to the
/// **absolute clock**, not to `from`. Two edges follow deliberately:
/// a sample at a negative timestamp floors *down* (`-1` with step 60
/// lands in window `-60`, not window `0`), and when `step` exceeds the
/// queried range the single window's start may precede `from`. Both
/// keep query windows bit-identical to `StreamMetrics` bucketing, which
/// uses the same alignment. The range itself stays half-open: a sample
/// exactly at `to` is excluded, a sample exactly at `from` is included.
///
/// # Errors
///
/// [`TsdbError::BadIndex`] for a non-positive `step` or inverted range;
/// storage/codec errors surface typed from the read path.
pub fn run_query(store: &TsdbStore, q: &RangeQuery) -> Result<QueryResult, TsdbError> {
    if q.step <= 0 {
        return Err(TsdbError::BadIndex(format!(
            "query step must be positive, got {}",
            q.step
        )));
    }
    if q.to < q.from {
        return Err(TsdbError::BadIndex(format!(
            "query range is inverted: from {} to {}",
            q.from, q.to
        )));
    }
    let matched: Vec<SeriesKey> = store
        .series()
        .map(|(key, _)| key.clone())
        .filter(|key| q.filter.matches(key))
        .collect();

    // Merge: same-timestamp samples across series sum; BTreeMap keeps
    // the merged series in clock order deterministically.
    let mut merged: BTreeMap<i64, i128> = BTreeMap::new();
    for key in &matched {
        for s in store.read_series(key)? {
            if s.t >= q.from && s.t < q.to {
                *merged.entry(s.t).or_insert(0) += s.v;
            }
        }
    }

    let mut windows: Vec<WindowAgg> = Vec::new();
    let mut total: Option<WindowAgg> = None;
    for (&t, &v) in &merged {
        let start = t.div_euclid(q.step).saturating_mul(q.step);
        match windows.last_mut() {
            Some(w) if w.start == start => w.fold(v),
            _ => windows.push(WindowAgg::seed(start, v)),
        }
        match &mut total {
            Some(tot) => tot.fold(v),
            None => total = Some(WindowAgg::seed(q.from, v)),
        }
    }
    Ok(QueryResult {
        matched,
        windows,
        total,
    })
}

/// Renders one aggregate row as canonical JSON cells: count as a bare
/// number, the i128 statistics as decimal strings (JSON numbers cannot
/// carry i128 exactly).
fn json_row(w: &WindowAgg) -> String {
    format!(
        "[{},{},\"{}\",\"{}\",\"{}\"]",
        w.start, w.count, w.sum, w.min, w.max
    )
}

/// Canonical query output, schema [`QUERY_SCHEMA`]: fixed key order,
/// exact integers only (i128 as decimal strings), newline-terminated.
/// Byte-stable for a given store + query — CI pins it.
#[must_use]
pub fn to_canonical_json(q: &RangeQuery, agg: Agg, result: &QueryResult) -> String {
    let mut out = format!(
        "{{\"schema\":\"{QUERY_SCHEMA}\",\"filter\":\"{}\",\"agg\":\"{}\",\"from\":{},\"to\":{},\"step\":{},\"series\":{},\"windows\":[",
        q.filter.canonical(),
        agg.label(),
        q.from,
        q.to,
        q.step,
        result.matched.len(),
    );
    for (i, w) in result.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_row(w));
    }
    out.push_str("],\"total\":");
    match &result.total {
        Some(t) => out.push_str(&json_row(t)),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

/// Projects a window through `agg` and the metric's unit to a human
/// number (the only place floats appear; equality tests use the exact
/// JSON instead).
fn project(w: &WindowAgg, agg: Agg, step: i64, unit: MetricUnit) -> f64 {
    let scale = |raw: i128| match unit {
        MetricUnit::Fixed => fixed_to_f64(raw),
        MetricUnit::Count | MetricUnit::Seconds => raw as f64,
    };
    match agg {
        Agg::Sum => scale(w.sum),
        Agg::Avg => {
            if w.count == 0 {
                0.0
            } else {
                per(scale(w.sum), w.count as f64)
            }
        }
        Agg::Rate => per(scale(w.sum), step as f64),
        Agg::Min => scale(w.min),
        Agg::Max => scale(w.max),
    }
}

/// `num / den`, the projection's one float operation (the crate denies
/// `clippy::float_arithmetic` everywhere else).
#[expect(
    clippy::float_arithmetic,
    reason = "a display-only mean or rate of an exact integer total, divided once"
)]
#[inline]
fn per(num: f64, den: f64) -> f64 {
    num / den
}

/// Renders the result as an aligned text table: one row per window plus
/// a total row. Values are unit-scaled (fixed-point metrics divide by
/// 2⁴⁰) when the filter names a single metric; otherwise raw integers.
#[must_use]
pub fn render_table(q: &RangeQuery, agg: Agg, result: &QueryResult) -> String {
    let unit = q
        .filter
        .metric
        .as_deref()
        .map_or(MetricUnit::Count, metric_unit);
    let mut rows: Vec<(String, String, String)> = Vec::new();
    for w in &result.windows {
        rows.push((
            format!("{}", w.start),
            format!("{}", w.count),
            format!("{:.4}", project(w, agg, q.step, unit)),
        ));
    }
    let range = (q.to.saturating_sub(q.from)).max(1);
    if let Some(t) = &result.total {
        rows.push((
            "total".to_string(),
            format!("{}", t.count),
            format!("{:.4}", project(t, agg, range, unit)),
        ));
    }
    let mut widths = ["window".len(), "samples".len(), agg.label().len()];
    for (a, b, c) in &rows {
        widths[0] = widths[0].max(a.len());
        widths[1] = widths[1].max(b.len());
        widths[2] = widths[2].max(c.len());
    }
    let mut out = format!(
        "{:>w0$} | {:>w1$} | {:>w2$}\n",
        "window",
        "samples",
        agg.label(),
        w0 = widths[0],
        w1 = widths[1],
        w2 = widths[2]
    );
    for (a, b, c) in &rows {
        out.push_str(&format!(
            "{a:>w0$} | {b:>w1$} | {c:>w2$}\n",
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TsdbStore;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-query-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(policy: &str, metric: &str) -> SeriesKey {
        SeriesKey {
            scenario: "t".to_string(),
            policy: policy.to_string(),
            region: "1".to_string(),
            shard: "1".to_string(),
            metric: metric.to_string(),
        }
    }

    #[test]
    fn windows_align_and_merge_sums() {
        let dir = tmp_dir("win");
        let mut store = TsdbStore::open(&dir).expect("open");
        for t in [10i64, 70, 130, 190] {
            store.append(&key("a", "served"), t, 2).expect("append");
            store.append(&key("b", "served"), t, 3).expect("append");
        }
        let q = RangeQuery {
            filter: LabelFilter::parse("metric=served").expect("filter"),
            from: 0,
            to: 200,
            step: 60,
        };
        let r = run_query(&store, &q).expect("query");
        assert_eq!(r.matched.len(), 2);
        // Same-timestamp merge: each window holds one merged sample of 5.
        assert_eq!(r.windows.len(), 4);
        assert_eq!(
            r.windows[0],
            WindowAgg {
                start: 0,
                count: 1,
                sum: 5,
                min: 5,
                max: 5
            }
        );
        assert_eq!(r.windows[2].start, 120);
        let total = r.total.expect("total");
        assert_eq!((total.count, total.sum), (4, 20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn negative_timestamps_floor_into_negative_windows() {
        let dir = tmp_dir("neg");
        let mut store = TsdbStore::open(&dir).expect("open");
        // div_euclid floors toward -inf: -1 belongs to window -60, not 0.
        store.append(&key("a", "served"), -61, 1).expect("append");
        store.append(&key("a", "served"), -1, 2).expect("append");
        store.append(&key("a", "served"), 0, 4).expect("append");
        let q = RangeQuery {
            filter: LabelFilter::parse("metric=served").expect("filter"),
            from: -120,
            to: 60,
            step: 60,
        };
        let r = run_query(&store, &q).expect("query");
        let starts: Vec<i64> = r.windows.iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![-120, -60, 0]);
        assert_eq!(r.windows[1].sum, 2);
        assert_eq!(r.total.expect("total").sum, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn step_wider_than_range_yields_one_clock_aligned_window() {
        let dir = tmp_dir("wide");
        let mut store = TsdbStore::open(&dir).expect("open");
        store.append(&key("a", "served"), 130, 3).expect("append");
        store.append(&key("a", "served"), 150, 4).expect("append");
        // Range [120, 160) is 40s wide but step is 3600: the one window
        // starts at 0 (absolute-clock alignment), before `from`.
        let q = RangeQuery {
            filter: LabelFilter::parse("metric=served").expect("filter"),
            from: 120,
            to: 160,
            step: 3600,
        };
        let r = run_query(&store, &q).expect("query");
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].start, 0);
        assert_eq!((r.windows[0].count, r.windows[0].sum), (2, 7));
        // The total row reports `from` as its start, not the window start.
        assert_eq!(r.total.expect("total").start, 120);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_is_half_open_at_both_edges() {
        let dir = tmp_dir("edges");
        let mut store = TsdbStore::open(&dir).expect("open");
        store.append(&key("a", "served"), 60, 1).expect("append");
        store.append(&key("a", "served"), 119, 2).expect("append");
        store.append(&key("a", "served"), 120, 8).expect("append");
        let q = RangeQuery {
            filter: LabelFilter::parse("metric=served").expect("filter"),
            from: 60,
            to: 120,
            step: 60,
        };
        let r = run_query(&store, &q).expect("query");
        // `from` is inclusive, `to` exclusive: the sample exactly at 120
        // stays out, the one exactly at 60 stays in.
        let total = r.total.expect("total");
        assert_eq!((total.count, total.sum), (2, 3));
        // Empty-but-valid degenerate range: from == to matches nothing.
        let empty = run_query(
            &store,
            &RangeQuery {
                from: 120,
                to: 120,
                ..q.clone()
            },
        )
        .expect("empty range");
        assert!(empty.windows.is_empty() && empty.total.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_step_and_inverted_range_are_typed_errors() {
        let dir = tmp_dir("bad");
        let store = TsdbStore::open(&dir).expect("open");
        let q = RangeQuery {
            filter: LabelFilter::any(),
            from: 0,
            to: 10,
            step: 0,
        };
        assert!(matches!(
            run_query(&store, &q).expect_err("zero step"),
            TsdbError::BadIndex(m) if m.contains("step")
        ));
        let inverted = RangeQuery {
            from: 10,
            to: 0,
            step: 60,
            ..q
        };
        assert!(matches!(
            run_query(&store, &inverted).expect_err("inverted"),
            TsdbError::BadIndex(m) if m.contains("inverted")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_label_key_is_typed() {
        assert!(matches!(
            LabelFilter::parse("flavor=spicy").expect_err("unknown"),
            TsdbError::UnknownLabelKey(k) if k == "flavor"
        ));
    }

    #[test]
    fn canonical_json_shape() {
        let dir = tmp_dir("json");
        let mut store = TsdbStore::open(&dir).expect("open");
        store.append(&key("a", "profit"), 30, -7).expect("append");
        let q = RangeQuery {
            filter: LabelFilter::parse("policy=a,metric=profit").expect("filter"),
            from: 0,
            to: 60,
            step: 60,
        };
        let r = run_query(&store, &q).expect("query");
        let json = to_canonical_json(&q, Agg::Sum, &r);
        assert_eq!(
            json,
            "{\"schema\":\"rideshare-tsdb/1\",\"filter\":\"policy=a,metric=profit\",\"agg\":\"sum\",\"from\":0,\"to\":60,\"step\":60,\"series\":1,\"windows\":[[0,1,\"-7\",\"-7\",\"-7\"]],\"total\":[0,1,\"-7\",\"-7\",\"-7\"]}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
