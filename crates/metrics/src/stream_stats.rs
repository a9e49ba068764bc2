//! Incremental, windowed, **mergeable** metrics for streaming replay.
//!
//! [`crate::MarketMetrics`] needs the whole market and result in memory.
//! A million-task streaming replay has neither, so [`StreamMetrics`]
//! implements [`rideshare_online::StreamSink`] and accumulates everything
//! the reports need *as decisions happen*: totals, time-bucketed
//! served/revenue/profit tables (Figs. 6–7 off a stream), and per-driver
//! income (Figs. 8–9). Resident state is `O(time buckets + drivers)` —
//! bounded by the replayed horizon and fleet, never by the trace length.
//!
//! Profit comes from the Eq. 14 margins recorded on each
//! [`rideshare_online::DispatchEvent`]: margins telescope along every
//! driver's route, so their sum equals the run's total profit (Eq. 4)
//! without ever touching a [`rideshare_core::Market`] — a property the
//! facade's stream-equivalence suite checks against the materialised
//! objective.
//!
//! # Merging, and why the accumulators are fixed-point
//!
//! The region-sharded replay engine folds one [`StreamMetrics`] per shard
//! into a whole-stream report via [`StreamMetrics::merge`]. For the fold
//! to be trustworthy it must be **associative, commutative, and equal to
//! accumulating the whole stream in one place** — *exactly*, not up to a
//! tolerance, because the sharded engine's contract is byte-identity.
//! Plain `f64 +=` cannot deliver that: float addition is not associative,
//! so per-shard sums folded in any order drift from the sequential sum in
//! the last bits. Every monetary/distance accumulator here is therefore a
//! 128-bit fixed-point integer ([`FixedSum`]): each incoming `f64` is
//! quantised once (2⁻⁴⁰ resolution — sub-picocent, far below [`Money`]'s
//! own 10⁻⁴ tolerance) and summation becomes integer addition, which is
//! order-independent by construction. Waits accumulate as whole seconds.
//! Two metrics built from the same decisions in any grouping are `==`.
//!
//! [`Money`]: rideshare_types::Money
//!
//! # Examples
//!
//! ```
//! use rideshare_core::{Market, MarketBuildOptions};
//! use rideshare_metrics::StreamMetrics;
//! use rideshare_online::{market_events, replay_stream, InstantRule, StreamOptions, StreamPolicy};
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let trace = TraceConfig::porto()
//!     .with_seed(8)
//!     .with_task_count(150)
//!     .with_driver_count(12, DriverModel::Hitchhiking)
//!     .generate();
//! let market = Market::from_trace(&trace, &MarketBuildOptions::default());
//!
//! let mut metrics = StreamMetrics::hourly();
//! let summary = replay_stream(
//!     market.speed(),
//!     market_events(&market),
//!     StreamPolicy::Instant(InstantRule::MaxMargin),
//!     StreamOptions::default(),
//!     &mut metrics,
//! );
//! assert_eq!(metrics.served(), summary.served);
//! assert!(metrics.service_rate() <= 1.0);
//! println!("{}", metrics.render());
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use rideshare_core::{Driver, Task};
use rideshare_online::{DispatchEvent, StreamSink};
use rideshare_types::{json, TimeDelta, Timestamp};

use crate::float::{fixed_to_f64, ratio, to_fixed};
use crate::table::render_table;

/// Schema tag of the canonical snapshot JSON —
/// [`StreamMetrics::to_canonical_json`] always writes it first, and
/// [`StreamMetrics::from_canonical_json`] refuses anything else. Bump on
/// any layout change.
pub const SNAPSHOT_SCHEMA: &str = "rideshare-stream-metrics/1";

/// A snapshot string could not be decoded back into [`StreamMetrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError(String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad metrics snapshot: {}", self.0)
    }
}

impl Error for SnapshotError {}

/// An order-independent sum of `f64` values: each addend is quantised once
/// to a 2⁻⁴⁰ grid and accumulated in `i128`, so `a + (b + c)` and
/// `(a + b) + c` are the same integer — the property that makes
/// [`StreamMetrics::merge`] exact (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct FixedSum(pub(crate) i128);

impl FixedSum {
    pub(crate) fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite metric value");
        self.0 += to_fixed(x);
    }

    pub(crate) fn merge(&mut self, other: FixedSum) {
        self.0 += other.0;
    }

    pub(crate) fn as_f64(self) -> f64 {
        fixed_to_f64(self.0)
    }
}

/// One time bucket of streamed market activity.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct StreamBucket {
    /// Orders published in this bucket.
    pub published: usize,
    /// Of those, orders dispatched.
    pub served: usize,
    revenue: FixedSum,
    profit: FixedSum,
}

impl StreamBucket {
    /// Revenue (Σ `pₘ`) of this bucket's served orders.
    #[must_use]
    pub fn revenue(&self) -> f64 {
        self.revenue.as_f64()
    }

    /// Profit (Σ Eq. 14 margins) of this bucket's served orders.
    #[must_use]
    pub fn profit(&self) -> f64 {
        self.profit.as_f64()
    }

    /// Served fraction of this bucket's demand (0 when no demand).
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        if self.published == 0 {
            0.0
        } else {
            ratio(self.served as f64, self.published as f64)
        }
    }

    fn merge(&mut self, other: &StreamBucket) {
        self.published += other.published;
        self.served += other.served;
        self.revenue.merge(other.revenue);
        self.profit.merge(other.profit);
    }
}

/// The incremental accumulator: totals, a time-bucketed activity table,
/// and per-driver income, fed through the [`StreamSink`] callbacks.
/// Mergeable — see [`StreamMetrics::merge`].
#[derive(Clone, PartialEq, Debug)]
pub struct StreamMetrics {
    bucket_len: TimeDelta,
    buckets: Vec<StreamBucket>,
    totals: StreamBucket,
    rejected: usize,
    wait_secs_sum: i64,
    deadhead_km: FixedSum,
    /// Per-driver income (Σ margins), indexed by driver.
    income: Vec<FixedSum>,
    /// Per-driver served-task counts.
    tasks_per_driver: Vec<u32>,
}

impl StreamMetrics {
    /// An accumulator bucketing by the given window length.
    ///
    /// # Panics
    ///
    /// Panics unless `bucket_len` is strictly positive.
    #[must_use]
    pub fn with_bucket(bucket_len: TimeDelta) -> Self {
        assert!(
            bucket_len > TimeDelta::ZERO,
            "bucket length must be positive"
        );
        Self {
            bucket_len,
            buckets: Vec::new(),
            totals: StreamBucket::default(),
            rejected: 0,
            wait_secs_sum: 0,
            deadhead_km: FixedSum::default(),
            income: Vec::new(),
            tasks_per_driver: Vec::new(),
        }
    }

    /// The conventional hour-of-day accumulator.
    #[must_use]
    pub fn hourly() -> Self {
        Self::with_bucket(TimeDelta::from_hours(1))
    }

    /// Folds `other` into `self`. The two must use the same bucket length.
    ///
    /// The fold is **associative and commutative, and exact**: merging any
    /// partition of a decision stream (e.g. one accumulator per region
    /// shard) in any order compares `==` to accumulating the whole stream
    /// into one instance — integer accumulators make reordering invisible
    /// (module docs). This is what lets the region-sharded replay engine
    /// report whole-stream metrics without ever serialising decisions
    /// through a single accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the bucket lengths differ.
    pub fn merge(&mut self, other: &StreamMetrics) {
        assert_eq!(
            self.bucket_len, other.bucket_len,
            "cannot merge metrics with different bucket lengths"
        );
        if self.buckets.len() < other.buckets.len() {
            self.buckets
                .resize(other.buckets.len(), StreamBucket::default());
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            b.merge(o);
        }
        self.totals.merge(&other.totals);
        self.rejected += other.rejected;
        self.wait_secs_sum += other.wait_secs_sum;
        self.deadhead_km.merge(other.deadhead_km);
        if self.income.len() < other.income.len() {
            self.income.resize(other.income.len(), FixedSum::default());
            self.tasks_per_driver
                .resize(other.tasks_per_driver.len(), 0);
        }
        for (i, o) in self.income.iter_mut().zip(&other.income) {
            i.merge(*o);
        }
        for (t, o) in self
            .tasks_per_driver
            .iter_mut()
            .zip(&other.tasks_per_driver)
        {
            *t += *o;
        }
    }

    fn bucket_mut(&mut self, at: Timestamp) -> &mut StreamBucket {
        // Pre-midnight publishes (possible for orders placed just before
        // the day starts) clamp into the first bucket.
        let idx = (at.as_secs().div_euclid(self.bucket_len.as_secs())).max(0) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, StreamBucket::default());
        }
        &mut self.buckets[idx]
    }

    /// The filled time buckets, index `k` covering
    /// `[k·bucket, (k+1)·bucket)` (index 0 also absorbs pre-epoch
    /// publishes).
    #[must_use]
    pub fn buckets(&self) -> &[StreamBucket] {
        &self.buckets
    }

    /// Orders seen so far.
    #[must_use]
    pub fn published(&self) -> usize {
        self.totals.published
    }

    /// Orders dispatched so far.
    #[must_use]
    pub fn served(&self) -> usize {
        self.totals.served
    }

    /// Orders rejected so far.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Total revenue as the raw i128 accumulator on the 2⁻⁴⁰ fixed-point
    /// grid — the exact integer behind [`StreamMetrics::revenue`].
    ///
    /// The telemetry store ([`rideshare-tsdb`]) persists this integer, not
    /// the `f64` projection, so recorded series and live accumulators can
    /// be compared with `==` rather than a tolerance. [`fixed_to_f64`]
    /// recovers units.
    ///
    /// [`rideshare-tsdb`]: index.html
    #[must_use]
    pub fn revenue_raw(&self) -> i128 {
        self.totals.revenue.0
    }

    /// Total profit as the raw i128 fixed-point accumulator — the exact
    /// integer behind [`StreamMetrics::profit`]. See
    /// [`StreamMetrics::revenue_raw`] for the grid contract.
    #[must_use]
    pub fn profit_raw(&self) -> i128 {
        self.totals.profit.0
    }

    /// Total deadhead distance as the raw i128 fixed-point accumulator —
    /// the exact integer behind [`StreamMetrics::total_deadhead_km`]. See
    /// [`StreamMetrics::revenue_raw`] for the grid contract.
    #[must_use]
    pub fn deadhead_raw(&self) -> i128 {
        self.deadhead_km.0
    }

    /// Total rider wait over served orders, in whole seconds (waits
    /// accumulate as integers, so this is exact and merge-stable).
    #[must_use]
    pub fn wait_secs_total(&self) -> i64 {
        self.wait_secs_sum
    }

    /// Served fraction of all demand so far — Fig. 7's metric, live.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.totals.service_rate()
    }

    /// Total revenue (Σ `pₘ`) of served orders — Fig. 6's metric, live.
    #[must_use]
    pub fn revenue(&self) -> f64 {
        self.totals.revenue()
    }

    /// Total profit so far: Σ Eq. 14 margins, which telescopes to the
    /// materialised Eq. 4 objective.
    #[must_use]
    pub fn profit(&self) -> f64 {
        self.totals.profit()
    }

    /// Mean rider wait over served orders, in minutes.
    #[must_use]
    pub fn mean_wait_mins(&self) -> Option<f64> {
        (self.totals.served > 0).then(|| {
            ratio(
                ratio(self.wait_secs_sum as f64, 60.0),
                self.totals.served as f64,
            )
        })
    }

    /// Total empty kilometres driven to reach pickups.
    #[must_use]
    pub fn total_deadhead_km(&self) -> f64 {
        self.deadhead_km.as_f64()
    }

    /// Drivers that served at least one order.
    #[must_use]
    pub fn active_drivers(&self) -> usize {
        self.tasks_per_driver.iter().filter(|&&n| n > 0).count()
    }

    /// Mean income over *active* drivers (Fig. 8's "average revenue per
    /// worker", profit flavoured), `None` when nobody served.
    #[must_use]
    pub fn mean_income_per_active_driver(&self) -> Option<f64> {
        let active = self.active_drivers();
        // Sum exactly in the i128 fixed-point domain, convert once: the
        // mean inherits the accumulators' order-independence.
        let mut total = FixedSum::default();
        for i in &self.income {
            total.merge(*i);
        }
        (active > 0).then(|| ratio(total.as_f64(), active as f64))
    }

    /// Mean served tasks per active driver (Fig. 9's metric).
    #[must_use]
    pub fn mean_tasks_per_active_driver(&self) -> Option<f64> {
        let active = self.active_drivers();
        (active > 0).then(|| {
            // Integer sum is exact; one final division is order-free.
            let mut total = 0u64;
            for &n in &self.tasks_per_driver {
                total += u64::from(n);
            }
            ratio(total as f64, active as f64)
        })
    }

    /// Per-driver income (Σ margins), indexed by driver id.
    #[must_use]
    pub fn incomes(&self) -> Vec<f64> {
        self.income.iter().map(|i| i.as_f64()).collect()
    }

    /// Renders the non-empty time buckets as an aligned text table
    /// (`bucket | published | served | rate | revenue | profit`).
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.published > 0)
            .map(|(k, b)| {
                let start =
                    Timestamp::EPOCH + TimeDelta::from_secs(k as i64 * self.bucket_len.as_secs());
                vec![
                    format!("{start}"),
                    b.published.to_string(),
                    b.served.to_string(),
                    format!("{:.3}", b.service_rate()),
                    format!("{:.2}", b.revenue()),
                    format!("{:.2}", b.profit()),
                ]
            })
            .collect();
        render_table(
            &["bucket", "published", "served", "rate", "revenue", "profit"],
            &rows,
        )
    }

    /// Pre-registers driver slots `0..count` (idempotent, never shrinks) —
    /// what [`StreamSink::driver_online`] does, without needing the
    /// [`Driver`] values. Day-rollover machinery uses this to start a
    /// fresh accumulator that indexes the same fleet.
    pub fn register_drivers(&mut self, count: usize) {
        if self.income.len() < count {
            self.income.resize(count, FixedSum::default());
            self.tasks_per_driver.resize(count, 0);
        }
    }

    /// Serialises the accumulator as one line of **canonical JSON**: fixed
    /// key order, no whitespace, fixed-point accumulators as exact decimal
    /// strings (raw `i128` units of 2⁻⁴⁰ — never a lossy float), sparse
    /// bucket/driver tables plus explicit counts so the round trip through
    /// [`Self::from_canonical_json`] restores a value that compares `==`.
    /// Equal metrics produce byte-identical snapshots, which is what lets
    /// the serve-equivalence battery diff daemon snapshots across shard
    /// counts and ingestion backends.
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"bucket_secs\":{},\"published\":{},\"served\":{},\"rejected\":{},\"revenue\":\"{}\",\"profit\":\"{}\",\"wait_secs\":{},\"deadhead\":\"{}\",\"bucket_count\":{},\"buckets\":[",
            self.bucket_len.as_secs(),
            self.totals.published,
            self.totals.served,
            self.rejected,
            self.totals.revenue.0,
            self.totals.profit.0,
            self.wait_secs_sum,
            self.deadhead_km.0,
            self.buckets.len(),
        );
        let mut first = true;
        for (k, b) in self.buckets.iter().enumerate() {
            if *b == StreamBucket::default() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "[{k},{},{},\"{}\",\"{}\"]",
                b.published, b.served, b.revenue.0, b.profit.0
            );
        }
        let _ = write!(s, "],\"driver_count\":{},\"drivers\":[", self.income.len());
        let mut first = true;
        for (d, (income, tasks)) in self.income.iter().zip(&self.tasks_per_driver).enumerate() {
            if income.0 == 0 && *tasks == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "[{d},\"{}\",{tasks}]", income.0);
        }
        s.push_str("]}");
        s
    }

    /// Decodes a [`Self::to_canonical_json`] snapshot (parsed and read
    /// through [`rideshare_types::json`]). Exact inverse: the result
    /// compares `==` to the serialised accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on malformed JSON, a schema tag other
    /// than [`SNAPSHOT_SCHEMA`], or out-of-range/inconsistent fields —
    /// never panics on hostile input.
    pub fn from_canonical_json(s: &str) -> Result<Self, SnapshotError> {
        Self::read_snapshot(s).map_err(SnapshotError)
    }

    /// [`Self::from_canonical_json`] in the typed reader's error type.
    fn read_snapshot(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        v.expect_schema(SNAPSHOT_SCHEMA)?;
        let bucket_secs: i64 = v.num_field("bucket_secs")?;
        if bucket_secs <= 0 {
            return Err(format!("bucket_secs {bucket_secs} must be positive"));
        }
        let mut m = StreamMetrics::with_bucket(TimeDelta::from_secs(bucket_secs));
        m.totals.published = v.num_field("published")?;
        m.totals.served = v.num_field("served")?;
        m.rejected = v.num_field("rejected")?;
        m.totals.revenue = FixedSum(v.quoted_num_field("revenue")?);
        m.totals.profit = FixedSum(v.quoted_num_field("profit")?);
        m.wait_secs_sum = v.num_field("wait_secs")?;
        m.deadhead_km = FixedSum(v.quoted_num_field("deadhead")?);

        let bucket_count: usize = v.num_field("bucket_count")?;
        if bucket_count > MAX_SNAPSHOT_SLOTS {
            return Err(format!("bucket_count {bucket_count} too large"));
        }
        m.buckets.resize(bucket_count, StreamBucket::default());
        for row in v.arr_field("buckets")? {
            let row = row.row::<5>()?;
            let k: usize = row.num_field(0)?;
            let b = m
                .buckets
                .get_mut(k)
                .ok_or_else(|| format!("bucket index {k} out of range"))?;
            *b = StreamBucket {
                published: row.num_field(1)?,
                served: row.num_field(2)?,
                revenue: FixedSum(row.quoted_num_field(3)?),
                profit: FixedSum(row.quoted_num_field(4)?),
            };
        }

        let driver_count: usize = v.num_field("driver_count")?;
        if driver_count > MAX_SNAPSHOT_SLOTS {
            return Err(format!("driver_count {driver_count} too large"));
        }
        m.register_drivers(driver_count);
        for row in v.arr_field("drivers")? {
            let row = row.row::<3>()?;
            let d: usize = row.num_field(0)?;
            if d >= driver_count {
                return Err(format!("driver index {d} out of range"));
            }
            m.income[d] = FixedSum(row.quoted_num_field(1)?);
            m.tasks_per_driver[d] = row.num_field(2)?;
        }
        Ok(m)
    }
}

/// Upper bound on snapshot-declared bucket/driver table sizes, so a
/// hostile snapshot cannot make [`StreamMetrics::from_canonical_json`]
/// allocate unbounded memory. Generous: 2²⁴ hourly buckets is ~1914
/// years of stream time.
const MAX_SNAPSHOT_SLOTS: usize = 1 << 24;

impl StreamSink for StreamMetrics {
    fn driver_online(&mut self, driver: &Driver) {
        let idx = driver.id.index();
        if self.income.len() <= idx {
            self.income.resize(idx + 1, FixedSum::default());
            self.tasks_per_driver.resize(idx + 1, 0);
        }
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        let b = self.bucket_mut(task.publish_time);
        b.published += 1;
        b.served += 1;
        b.revenue.add(task.price.as_f64());
        b.profit.add(event.margin);
        self.totals.published += 1;
        self.totals.served += 1;
        self.totals.revenue.add(task.price.as_f64());
        self.totals.profit.add(event.margin);
        self.wait_secs_sum += event.wait.as_secs();
        self.deadhead_km.add(event.deadhead_km);
        let d = event.driver.index();
        self.income[d].add(event.margin);
        self.tasks_per_driver[d] += 1;
    }

    fn rejected(&mut self, task: &Task, _decision_time: Timestamp) {
        self.bucket_mut(task.publish_time).published += 1;
        self.totals.published += 1;
        self.rejected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::{Market, MarketBuildOptions};
    use rideshare_online::{
        market_events, replay_market, replay_stream, InstantRule, StreamOptions, StreamPolicy,
    };
    use rideshare_trace::{DriverModel, TraceConfig};

    fn run(seed: u64, tasks: usize, drivers: usize) -> (Market, StreamMetrics) {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let mut metrics = StreamMetrics::hourly();
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut metrics,
        );
        (market, metrics)
    }

    #[test]
    fn totals_match_materialized_objective() {
        let (market, metrics) = run(91, 250, 25);
        let materialized = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
        assert_eq!(metrics.served(), materialized.served);
        assert_eq!(metrics.rejected(), materialized.rejected);
        assert_eq!(metrics.published(), market.num_tasks());
        // Margins telescope to the Eq. 4 objective.
        let objective = materialized.total_profit(&market).as_f64();
        assert!(
            (metrics.profit() - objective).abs() < 1e-6,
            "streamed profit {} vs objective {objective}",
            metrics.profit()
        );
        let revenue = materialized.assignment.total_revenue(&market).as_f64();
        assert!((metrics.revenue() - revenue).abs() < 1e-6);
        assert!(
            (metrics.mean_wait_mins().unwrap() - materialized.mean_wait_mins().unwrap()).abs()
                < 1e-9
        );
        assert!((metrics.total_deadhead_km() - materialized.total_deadhead_km()).abs() < 1e-6);
    }

    #[test]
    fn buckets_sum_to_totals() {
        let (_, metrics) = run(92, 300, 15);
        let mut sum = StreamBucket::default();
        for b in metrics.buckets() {
            sum.merge(b);
        }
        // On the fixed-point grid the buckets add up to the totals exactly.
        assert_eq!(sum, metrics.totals);
    }

    #[test]
    fn per_driver_income_consistent() {
        let (market, metrics) = run(93, 200, 10);
        assert_eq!(metrics.incomes().len(), market.num_drivers());
        let mut total = FixedSum::default();
        for &i in &metrics.income {
            total.merge(i);
        }
        assert_eq!(total, metrics.totals.profit);
        assert!(metrics.active_drivers() <= market.num_drivers());
        if metrics.served() > 0 {
            assert!(metrics.mean_income_per_active_driver().is_some());
            assert!(metrics.mean_tasks_per_active_driver().unwrap() >= 1.0);
        }
    }

    #[test]
    fn render_is_well_formed() {
        let (_, metrics) = run(94, 120, 8);
        let table = metrics.render();
        assert!(table.contains("published"));
        assert!(table.lines().count() >= 2, "{table}");
    }

    #[test]
    fn empty_accumulator() {
        let metrics = StreamMetrics::hourly();
        assert_eq!(metrics.published(), 0);
        assert_eq!(metrics.service_rate(), 0.0);
        assert!(metrics.mean_wait_mins().is_none());
        assert!(metrics.mean_income_per_active_driver().is_none());
    }

    #[test]
    fn merge_of_a_partition_is_exact() {
        // Split one replay's decisions across two accumulators by task
        // parity; the fold must equal the whole-stream accumulator
        // *exactly* (PartialEq, not a tolerance) in either merge order.
        let trace = TraceConfig::porto()
            .with_seed(96)
            .with_task_count(250)
            .with_driver_count(20, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let mut whole = StreamMetrics::hourly();
        let mut sink = rideshare_online::CollectingSink::new();
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut sink,
        );
        let result = sink.into_result();

        let mut parts = [StreamMetrics::hourly(), StreamMetrics::hourly()];
        for p in &mut parts {
            for d in market.drivers() {
                p.driver_online(d);
            }
        }
        // Feed the whole accumulator and the partition from the same
        // decision records.
        for d in market.drivers() {
            whole.driver_online(d);
        }
        for e in &result.events {
            let task = &market.tasks()[e.task.index()];
            whole.dispatched(task, e);
            parts[e.task.index() % 2].dispatched(task, e);
        }
        for (t, d) in result.dispatch.iter().enumerate() {
            if d.is_none() {
                let task = &market.tasks()[t];
                StreamSink::rejected(&mut whole, task, task.publish_time);
                StreamSink::rejected(&mut parts[t % 2], task, task.publish_time);
            }
        }

        let mut ab = parts[0].clone();
        ab.merge(&parts[1]);
        let mut ba = parts[1].clone();
        ba.merge(&parts[0]);
        assert_eq!(ab, whole, "merge differs from whole-stream accumulation");
        assert_eq!(ba, whole, "merge is not commutative");
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let (_, metrics) = run(95, 300, 25);
        let json = metrics.to_canonical_json();
        assert!(json.starts_with("{\"schema\":\"rideshare-stream-metrics/1\""));
        let back = StreamMetrics::from_canonical_json(&json).unwrap();
        assert_eq!(back, metrics, "snapshot round trip must be lossless");
        // Canonical: equal values serialise to identical bytes.
        assert_eq!(back.to_canonical_json(), json);
        // Empty accumulators round-trip too.
        let empty = StreamMetrics::hourly();
        let back = StreamMetrics::from_canonical_json(&empty.to_canonical_json()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn hostile_snapshots_yield_errors_not_panics() {
        // Nested past the parser's bound: an error, not a stack overflow.
        let deep = "[".repeat(60_000);
        for bad in [
            "",
            "{",
            "[1,2,3]",
            deep.as_str(),
            "{\"schema\":\"other/9\"}",
            "{\"schema\":\"rideshare-stream-metrics/1\"}",
            // Negative / oversized counts.
            "{\"schema\":\"rideshare-stream-metrics/1\",\"bucket_secs\":-5,\"published\":0,\"served\":0,\"rejected\":0,\"revenue\":\"0\",\"profit\":\"0\",\"wait_secs\":0,\"deadhead\":\"0\",\"bucket_count\":0,\"buckets\":[],\"driver_count\":0,\"drivers\":[]}",
            "{\"schema\":\"rideshare-stream-metrics/1\",\"bucket_secs\":3600,\"published\":0,\"served\":0,\"rejected\":0,\"revenue\":\"0\",\"profit\":\"0\",\"wait_secs\":0,\"deadhead\":\"0\",\"bucket_count\":99999999999,\"buckets\":[],\"driver_count\":0,\"drivers\":[]}",
            // Out-of-range table indices.
            "{\"schema\":\"rideshare-stream-metrics/1\",\"bucket_secs\":3600,\"published\":0,\"served\":0,\"rejected\":0,\"revenue\":\"0\",\"profit\":\"0\",\"wait_secs\":0,\"deadhead\":\"0\",\"bucket_count\":1,\"buckets\":[[7,1,1,\"0\",\"0\"]],\"driver_count\":0,\"drivers\":[]}",
            "{\"schema\":\"rideshare-stream-metrics/1\",\"bucket_secs\":3600,\"published\":0,\"served\":0,\"rejected\":0,\"revenue\":\"0\",\"profit\":\"0\",\"wait_secs\":0,\"deadhead\":\"0\",\"bucket_count\":0,\"buckets\":[],\"driver_count\":1,\"drivers\":[[4,\"0\",1]]}",
            // Wrong arity and wrong cell types.
            "{\"schema\":\"rideshare-stream-metrics/1\",\"bucket_secs\":3600,\"published\":0,\"served\":0,\"rejected\":0,\"revenue\":\"0\",\"profit\":\"0\",\"wait_secs\":0,\"deadhead\":\"0\",\"bucket_count\":1,\"buckets\":[[0,1]],\"driver_count\":0,\"drivers\":[]}",
            "{\"schema\":\"rideshare-stream-metrics/1\",\"bucket_secs\":3600,\"published\":0,\"served\":0,\"rejected\":0,\"revenue\":7,\"profit\":\"0\",\"wait_secs\":0,\"deadhead\":\"0\",\"bucket_count\":0,\"buckets\":[],\"driver_count\":0,\"drivers\":[]}",
        ] {
            assert!(
                StreamMetrics::from_canonical_json(bad).is_err(),
                "accepted hostile snapshot {bad:?}"
            );
        }
    }

    #[test]
    fn register_drivers_matches_driver_online() {
        let mut a = StreamMetrics::hourly();
        a.register_drivers(5);
        a.register_drivers(3); // never shrinks
        assert_eq!(a.incomes().len(), 5);
    }

    #[test]
    #[should_panic(expected = "bucket lengths")]
    fn merging_mismatched_buckets_rejected() {
        let mut a = StreamMetrics::hourly();
        let b = StreamMetrics::with_bucket(TimeDelta::from_mins(30));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_rejected() {
        let _ = StreamMetrics::with_bucket(TimeDelta::ZERO);
    }
}
