//! Day-partitioned metrics for the long-running dispatch daemon.
//!
//! A daemon that runs for weeks cannot report through one undifferentiated
//! accumulator: operators want *per-day* tables alongside the cumulative
//! ones, and the serve loop wants a metrics rollover at each day boundary.
//! [`MetricsJournal`] is a [`StreamSink`] that feeds every decision to
//! **two** [`StreamMetrics`] accumulators — the open day and the
//! cumulative run — so either view is exact at any instant:
//!
//! - the cumulative accumulator is literally a single whole-run
//!   [`StreamMetrics`], so it compares `==` (and snapshots
//!   byte-identically) to the accumulator a plain
//!   `rideshare_online::replay_stream` over the same trace would produce —
//!   day rollovers never perturb it;
//! - [`roll_day`](MetricsJournal::roll_day) closes the open day and
//!   returns it, starting a fresh accumulator that indexes the same fleet
//!   (driver slots carry over; see [`StreamMetrics::register_drivers`]),
//!   so per-driver tables stay aligned across days;
//! - because [`StreamMetrics::merge`] is exact, the closed days plus the
//!   open day always merge back to the cumulative accumulator `==` — the
//!   unit tests pin this conservation law.

use rideshare_core::{Driver, Task};
use rideshare_online::{DispatchEvent, StreamSink};
use rideshare_types::{TimeDelta, Timestamp};

use crate::StreamMetrics;

/// A [`StreamSink`] maintaining an open-day and a cumulative
/// [`StreamMetrics`] in lockstep. See the module docs.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricsJournal {
    bucket_len: TimeDelta,
    cumulative: StreamMetrics,
    day: StreamMetrics,
    days_closed: usize,
}

impl MetricsJournal {
    /// A journal whose accumulators bucket by `bucket_len`.
    ///
    /// # Panics
    ///
    /// Panics unless `bucket_len` is strictly positive.
    #[must_use]
    pub fn with_bucket(bucket_len: TimeDelta) -> Self {
        Self {
            bucket_len,
            cumulative: StreamMetrics::with_bucket(bucket_len),
            day: StreamMetrics::with_bucket(bucket_len),
            days_closed: 0,
        }
    }

    /// The conventional hour-of-day journal.
    #[must_use]
    pub fn hourly() -> Self {
        Self::with_bucket(TimeDelta::from_hours(1))
    }

    /// The cumulative whole-run accumulator — exactly what a single
    /// [`StreamMetrics`] fed the same decisions would hold.
    #[must_use]
    pub fn cumulative(&self) -> &StreamMetrics {
        &self.cumulative
    }

    /// The open (not yet rolled) day's accumulator.
    #[must_use]
    pub fn day(&self) -> &StreamMetrics {
        &self.day
    }

    /// Days closed so far; the open day has this index.
    #[must_use]
    pub fn days_closed(&self) -> usize {
        self.days_closed
    }

    /// Closes the open day and returns its accumulator; a fresh day
    /// indexing the same driver fleet starts immediately. The cumulative
    /// accumulator is untouched.
    pub fn roll_day(&mut self) -> StreamMetrics {
        let mut fresh = StreamMetrics::with_bucket(self.bucket_len);
        fresh.register_drivers(self.cumulative.incomes().len());
        self.days_closed += 1;
        std::mem::replace(&mut self.day, fresh)
    }

    /// Consumes the journal, yielding the cumulative accumulator.
    #[must_use]
    pub fn into_cumulative(self) -> StreamMetrics {
        self.cumulative
    }
}

impl StreamSink for MetricsJournal {
    fn driver_online(&mut self, driver: &Driver) {
        self.cumulative.driver_online(driver);
        self.day.driver_online(driver);
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.cumulative.dispatched(task, event);
        self.day.dispatched(task, event);
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        // Fully qualified: the inherent `StreamMetrics::rejected` getter
        // shadows the trait method.
        StreamSink::rejected(&mut self.cumulative, task, decision_time);
        StreamSink::rejected(&mut self.day, task, decision_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::{Market, MarketBuildOptions};
    use rideshare_online::{
        market_events, replay_stream, InstantRule, StreamOptions, StreamPolicy,
    };
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market() -> Market {
        let trace = TraceConfig::porto()
            .with_seed(97)
            .with_task_count(220)
            .with_driver_count(18, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    /// Replays once into a plain accumulator and once into a journal that
    /// rolls every 60 tasks, then checks both conservation laws.
    #[test]
    fn cumulative_is_exact_and_days_conserve() {
        let market = market();
        let mut whole = StreamMetrics::hourly();
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut whole,
        );

        let mut journal = MetricsJournal::hourly();
        let mut days = Vec::new();
        let mut sink_events = 0usize;
        struct Rolling<'a> {
            journal: &'a mut MetricsJournal,
            days: &'a mut Vec<StreamMetrics>,
            decided: &'a mut usize,
        }
        impl StreamSink for Rolling<'_> {
            fn driver_online(&mut self, d: &rideshare_core::Driver) {
                self.journal.driver_online(d);
            }
            fn dispatched(&mut self, t: &rideshare_core::Task, e: &DispatchEvent) {
                self.journal.dispatched(t, e);
                *self.decided += 1;
                if (*self.decided).is_multiple_of(60) {
                    self.days.push(self.journal.roll_day());
                }
            }
            fn rejected(&mut self, t: &rideshare_core::Task, at: Timestamp) {
                self.journal.rejected(t, at);
                *self.decided += 1;
                if (*self.decided).is_multiple_of(60) {
                    self.days.push(self.journal.roll_day());
                }
            }
        }
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut Rolling {
                journal: &mut journal,
                days: &mut days,
                decided: &mut sink_events,
            },
        );

        assert!(days.len() >= 2, "test should roll at least twice");
        assert_eq!(journal.days_closed(), days.len());
        // Law 1: rollovers never perturb the cumulative accumulator.
        assert_eq!(*journal.cumulative(), whole);
        assert_eq!(
            journal.cumulative().to_canonical_json(),
            whole.to_canonical_json()
        );
        // Law 2: closed days ⊕ open day == cumulative, exactly.
        let mut folded = StreamMetrics::hourly();
        folded.register_drivers(whole.incomes().len());
        for d in &days {
            folded.merge(d);
        }
        folded.merge(journal.day());
        assert_eq!(folded, whole, "day partition does not conserve metrics");
        // Driver tables stay fleet-aligned across rolls.
        assert_eq!(journal.day().incomes().len(), whole.incomes().len());
    }
}
