//! The [`StreamSink`] adapter that persists windows as they close.
//!
//! [`TsdbRecorder`] interposes on any inner sink (the serve daemon's
//! `MetricsJournal`, replay's `StreamMetrics`): every callback forwards
//! unchanged, and on each [`StreamSink::window_closed`] boundary the
//! recorder appends that window's **deltas** — change in served /
//! rejected / revenue / profit / wait-seconds / deadhead since the
//! previous boundary, straight off the i128 fixed-point grid — to the
//! store, one series per metric under the run's labels. Because window
//! boundaries land on the *stream* clock, a recorded store is identical
//! across shard counts and ingestion backends, exactly like the
//! snapshots it complements; and because deltas are exact integers, the
//! sum of any recorded series over the whole run equals the final
//! accumulator value with `==`, which is the equivalence the test
//! battery pins.
//!
//! Recording failures never disturb dispatch: [`StreamSink`] callbacks
//! cannot return errors, so the first [`TsdbError`] latches, recording
//! stops, and [`TsdbRecorder::finish`] surfaces it — same first-error
//! contract as the serve CLI's snapshot writer.

use crate::store::{SeriesKey, TsdbError, TsdbStore};
use rideshare_core::{Driver, Task};
use rideshare_metrics::StreamMetrics;
use rideshare_online::{DispatchEvent, StreamSink};
use rideshare_types::Timestamp;

/// Metric name: orders dispatched in the window (count delta).
pub const METRIC_SERVED: &str = "served";
/// Metric name: orders rejected in the window (count delta).
pub const METRIC_REJECTED: &str = "rejected";
/// Metric name: revenue in the window (2⁻⁴⁰ fixed-point delta).
pub const METRIC_REVENUE: &str = "revenue";
/// Metric name: Eq. 14 profit in the window (2⁻⁴⁰ fixed-point delta).
pub const METRIC_PROFIT: &str = "profit";
/// Metric name: rider wait accumulated in the window, whole seconds.
pub const METRIC_WAIT_SECS: &str = "wait_secs";
/// Metric name: deadhead distance in the window (2⁻⁴⁰ fixed-point km).
pub const METRIC_DEADHEAD: &str = "deadhead";
/// Metric name: drivers with ≥ 1 served order so far (gauge, emitted on
/// change).
pub const METRIC_ACTIVE_DRIVERS: &str = "active_drivers";

/// Every metric the recorder writes, in emission order.
pub const METRICS: [&str; 7] = [
    METRIC_SERVED,
    METRIC_REJECTED,
    METRIC_REVENUE,
    METRIC_PROFIT,
    METRIC_WAIT_SECS,
    METRIC_DEADHEAD,
    METRIC_ACTIVE_DRIVERS,
];

/// How a metric's raw integers project to human units.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricUnit {
    /// 2⁻⁴⁰ fixed-point (money, kilometres): divide by 2⁴⁰ to render.
    Fixed,
    /// Plain count.
    Count,
    /// Whole seconds.
    Seconds,
}

/// The unit of a recorded metric (unknown names render as counts).
#[must_use]
pub fn metric_unit(metric: &str) -> MetricUnit {
    match metric {
        METRIC_REVENUE | METRIC_PROFIT | METRIC_DEADHEAD => MetricUnit::Fixed,
        METRIC_WAIT_SECS => MetricUnit::Seconds,
        _ => MetricUnit::Count,
    }
}

/// The four run labels a recording attaches to every series (the fifth
/// label, `metric`, is per series).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunLabels {
    /// Scenario / data-source label.
    pub scenario: String,
    /// Dispatch policy label.
    pub policy: String,
    /// Region-count label.
    pub region: String,
    /// Shard-count label.
    pub shard: String,
}

impl RunLabels {
    /// Labels for a run, stringifying the region/shard counts.
    #[must_use]
    pub fn new(scenario: &str, policy: &str, regions: usize, shards: usize) -> Self {
        RunLabels {
            scenario: scenario.to_string(),
            policy: policy.to_string(),
            region: regions.to_string(),
            shard: shards.to_string(),
        }
    }

    fn series(&self, metric: &str) -> SeriesKey {
        SeriesKey {
            scenario: self.scenario.clone(),
            policy: self.policy.clone(),
            region: self.region.clone(),
            shard: self.shard.clone(),
            metric: metric.to_string(),
        }
    }
}

/// Raw totals snapshot used to form per-window deltas.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct RawTotals {
    served: u64,
    rejected: u64,
    revenue: i128,
    profit: i128,
    wait_secs: i64,
    deadhead: i128,
    active: u64,
}

impl RawTotals {
    /// The totals of `m`, one window after `last`. Counting the active
    /// drivers scans every driver `m` knows; the count can move only in a
    /// window that dispatched, so any other window carries it forward.
    fn of(m: &StreamMetrics, last: &RawTotals) -> Self {
        let served = m.served() as u64;
        RawTotals {
            served,
            rejected: m.rejected() as u64,
            revenue: m.revenue_raw(),
            profit: m.profit_raw(),
            wait_secs: m.wait_secs_total(),
            deadhead: m.deadhead_raw(),
            active: if served == last.served {
                last.active
            } else {
                m.active_drivers() as u64
            },
        }
    }
}

/// Recording state, present only when a store is attached.
struct RecState {
    store: TsdbStore,
    /// One series key per entry of [`METRICS`], in that order, built once.
    keys: [SeriesKey; METRICS.len()],
    /// Shadow accumulator fed the same decisions as the inner sink —
    /// the recorder's own exact view of the run, independent of what
    /// the inner sink does with its callbacks.
    shadow: StreamMetrics,
    last: RawTotals,
    last_t: Option<i64>,
    error: Option<TsdbError>,
}

impl RecState {
    /// Appends `v` at `t` to the series of `METRICS[metric]`, latching
    /// the first error.
    fn emit(&mut self, metric: usize, t: i64, v: i128) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.store.append(&self.keys[metric], t, v) {
            self.error = Some(e);
        }
    }

    fn window_closed(&mut self, end: Timestamp) {
        let t = end.as_secs();
        // Boundaries are strictly increasing on the stream clock; if an
        // ingestion backend ever repeated one, fold the repeat into the
        // next boundary instead of corrupting the series.
        if self.last_t.is_some_and(|prev| t <= prev) {
            return;
        }
        let last = self.last;
        let cur = RawTotals::of(&self.shadow, &last);
        // Deltas on the exact grid, in `METRICS` order (served, rejected,
        // revenue, profit, wait_secs, deadhead); zero deltas are skipped
        // (series sums are unchanged, files stay dense with activity).
        let deltas: [i128; METRICS.len() - 1] = [
            i128::from(cur.served) - i128::from(last.served),
            i128::from(cur.rejected) - i128::from(last.rejected),
            cur.revenue - last.revenue,
            cur.profit - last.profit,
            i128::from(cur.wait_secs) - i128::from(last.wait_secs),
            cur.deadhead - last.deadhead,
        ];
        for (metric, delta) in deltas.into_iter().enumerate() {
            if delta != 0 {
                self.emit(metric, t, delta);
            }
        }
        // Gauge (`active_drivers`, the last of `METRICS`): absolute value,
        // emitted on change.
        if cur.active != last.active {
            self.emit(METRICS.len() - 1, t, i128::from(cur.active));
        }
        self.last = cur;
        self.last_t = Some(t);
    }
}

/// The recording interposer; see the module docs.
pub struct TsdbRecorder<S> {
    inner: S,
    rec: Option<RecState>,
}

impl<S: StreamSink> TsdbRecorder<S> {
    /// A recorder persisting into `store` under `labels`, forwarding
    /// every callback to `inner`.
    #[must_use]
    pub fn new(store: TsdbStore, labels: RunLabels, inner: S) -> Self {
        TsdbRecorder {
            inner,
            rec: Some(RecState {
                store,
                keys: METRICS.map(|metric| labels.series(metric)),
                shadow: StreamMetrics::hourly(),
                last: RawTotals::default(),
                last_t: None,
                error: None,
            }),
        }
    }

    /// A recorder with no store attached: pure pass-through, so callers
    /// can keep one code path whether or not `--tsdb-dir` was given.
    #[must_use]
    pub fn passthrough(inner: S) -> Self {
        TsdbRecorder { inner, rec: None }
    }

    /// True when a store is attached and no error has latched.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.rec.as_ref().is_some_and(|r| r.error.is_none())
    }

    /// The wrapped sink.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped sink, mutably (the serve CLI rolls its journal and
    /// writes snapshots through this).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Seals buffered chunks and rewrites the index — the day-rollover
    /// durability hook. A latched recording error surfaces here.
    ///
    /// # Errors
    ///
    /// The first [`TsdbError`] the recorder hit, or a flush failure.
    pub fn flush_store(&mut self) -> Result<(), TsdbError> {
        match &mut self.rec {
            None => Ok(()),
            Some(rec) => {
                if let Some(e) = &rec.error {
                    return Err(e.clone());
                }
                rec.store.flush()
            }
        }
    }

    /// Flushes and dismantles the recorder, returning the store (if one
    /// was attached) and the inner sink.
    ///
    /// # Errors
    ///
    /// The first latched [`TsdbError`], or a final flush failure.
    pub fn finish(self) -> Result<(Option<TsdbStore>, S), TsdbError> {
        match self.rec {
            None => Ok((None, self.inner)),
            Some(mut rec) => {
                if let Some(e) = rec.error {
                    return Err(e);
                }
                rec.store.flush()?;
                Ok((Some(rec.store), self.inner))
            }
        }
    }
}

impl<S: StreamSink> StreamSink for TsdbRecorder<S> {
    // The shadow's sink methods are called fully qualified: inherent
    // accessors (`StreamMetrics::rejected()`) share names with the trait.
    fn driver_online(&mut self, driver: &Driver) {
        self.inner.driver_online(driver);
        if let Some(rec) = &mut self.rec {
            StreamSink::driver_online(&mut rec.shadow, driver);
        }
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.inner.dispatched(task, event);
        if let Some(rec) = &mut self.rec {
            StreamSink::dispatched(&mut rec.shadow, task, event);
        }
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        self.inner.rejected(task, decision_time);
        if let Some(rec) = &mut self.rec {
            StreamSink::rejected(&mut rec.shadow, task, decision_time);
        }
    }

    fn window_closed(&mut self, end: Timestamp) {
        self.inner.window_closed(end);
        if let Some(rec) = &mut self.rec {
            StreamSink::window_closed(&mut rec.shadow, end);
            rec.window_closed(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{run_query, LabelFilter, RangeQuery};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recorded_sums_equal_final_metrics() {
        use rideshare_core::{Market, MarketBuildOptions};
        use rideshare_online::{
            market_events, replay_stream, MaxMargin, StreamOptions, StreamPolicy,
        };
        use rideshare_trace::{DriverModel, TraceConfig};

        let trace = TraceConfig::porto()
            .with_seed(11)
            .with_task_count(400)
            .with_driver_count(25, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());

        let dir = tmp_dir("sum");
        let store = TsdbStore::open(&dir).expect("open");
        let labels = RunLabels::new("unit", "margin", 1, 1);
        let mut rec = TsdbRecorder::new(store, labels, StreamMetrics::hourly());
        replay_stream(
            market.speed(),
            market_events(&market),
            &mut StreamPolicy::Instant(&mut MaxMargin::new()),
            StreamOptions::default(),
            &mut rec,
        );
        let (store, metrics) = rec.finish().expect("finish");
        let store = store.expect("recording store");

        for (metric, want) in [
            (
                METRIC_SERVED,
                i128::try_from(metrics.served()).expect("fits"),
            ),
            (METRIC_PROFIT, metrics.profit_raw()),
            (METRIC_REVENUE, metrics.revenue_raw()),
            (METRIC_WAIT_SECS, i128::from(metrics.wait_secs_total())),
        ] {
            let q = RangeQuery {
                filter: LabelFilter::any().with("metric", metric).expect("filter"),
                from: i64::MIN / 4,
                to: i64::MAX / 4,
                step: 3600,
            };
            let r = run_query(&store, &q).expect("query");
            let got = r.total.map_or(0, |t| t.sum);
            assert_eq!(got, want, "metric {metric}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn passthrough_records_nothing() {
        let mut rec = TsdbRecorder::passthrough(StreamMetrics::hourly());
        rec.window_closed(Timestamp::from_secs(60));
        assert!(!rec.is_recording());
        let (store, _) = rec.finish().expect("finish");
        assert!(store.is_none());
    }
}
