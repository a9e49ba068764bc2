//! The long-running dispatch daemon: live ingestion over the streaming
//! engines, proven live-equal to replay.
//!
//! [`ServeDaemon`] is [`replay_stream`] (one engine) or [`replay_sharded`]
//! (N shards and a partitioner) over a guarded [`IngestSource`] — a file being tailed, a TCP
//! frame stream, or any in-process iterator — with its own sink
//! interposed. The daemon adds exactly the operational concerns a replay
//! does not have, and *nothing decision-relevant*:
//!
//! - **Snapshots**: every window boundary is announced through
//!   [`StreamSink::window_closed`]; when one crosses the next snapshot
//!   instant (`snapshot_every` grid on the stream clock), the snapshot
//!   hook fires. Because boundaries are positions on the *stream* clock —
//!   reproduced exactly by the sharded router, which asks the engine's
//!   own hold rule about the global stream — the
//!   snapshot sequence is identical for any shard count and any
//!   ingestion backend.
//! - **Day rollover**: boundaries crossing a `day_length` multiple fire
//!   the day hook (metrics rollover lives in the caller's sink — see
//!   `MetricsJournal` in `rideshare-metrics`). Engine state needs no
//!   reset of its own: each engine's fleet frees a driver's slot once the
//!   clock retires her, losslessly, for any shard count.
//! - **Graceful drain**: on end-of-stream, ingest error, or the shutdown
//!   flag, in-flight windows close through the engines' normal `finish`
//!   path — the daemon's cumulative output over a fully delivered trace
//!   is therefore *byte-identical* to `replay_stream`/`replay_sharded`
//!   over the same events (the `serve_equivalence` battery pins this),
//!   and even a faulted run leaves a valid partial result.
//!
//! Hostile feeds cannot panic the daemon: every event passes the
//! [`EventGuard`] before reaching an engine, so stream-contract
//! violations surface as typed [`IngestError`]s in the
//! [`ServeOutcome`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rideshare_geo::SpeedModel;
use rideshare_types::{TimeDelta, Timestamp};

use crate::ingest::{EventGuard, IngestError, IngestSource};
use crate::shard::{replay_sharded, RegionPartitioner, ShardOptions, ShardPolicySpec};
use crate::stream::{replay_stream, StreamEvent, StreamSink, StreamSummary};

/// Operational configuration of a [`ServeDaemon`] (everything that is
/// *not* the dispatch semantics: sharding, snapshot cadence, day length).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Shard count and per-shard engine options (grid pruning,
    /// validator).
    pub shards: ShardOptions,
    /// Day length for the day hook (metrics rollover); no engine state is
    /// reset. The stream clock is partitioned into `[k·L, (k+1)·L)` days;
    /// a window boundary at or past a day end closes that day.
    pub day_length: TimeDelta,
    /// Snapshot cadence on the stream clock, `None` to disable. The first
    /// window boundary at or past each due multiple fires the snapshot
    /// hook (at most one snapshot per boundary; the schedule then jumps
    /// past that boundary).
    pub snapshot_every: Option<TimeDelta>,
}

impl ServeConfig {
    /// A daemon over `shards` workers, 24-hour days, snapshots disabled.
    /// The shards run only under a partitioner
    /// ([`ServeDaemon::with_partitioner`]); without one the daemon runs one
    /// engine, with the same decisions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is a count [`ShardOptions::try_new`] rejects
    /// (zero, or beyond the shard limit).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: ShardOptions::new(shards),
            day_length: TimeDelta::from_hours(24),
            snapshot_every: None,
        }
    }

    /// Replaces the shard/engine options wholesale.
    #[must_use]
    pub fn shard_options(mut self, options: ShardOptions) -> Self {
        self.shards = options;
        self
    }

    /// Replaces the day length.
    ///
    /// # Panics
    ///
    /// Panics if `day_length` is not strictly positive.
    #[must_use]
    pub fn day_length(mut self, day_length: TimeDelta) -> Self {
        assert!(
            day_length.as_secs() > 0,
            "day length must be strictly positive"
        );
        self.day_length = day_length;
        self
    }

    /// Enables periodic snapshots every `every` of stream time.
    ///
    /// # Panics
    ///
    /// Panics if `every` is not strictly positive.
    #[must_use]
    pub fn snapshot_every(mut self, every: TimeDelta) -> Self {
        assert!(
            every.as_secs() > 0,
            "snapshot cadence must be strictly positive"
        );
        self.snapshot_every = Some(every);
        self
    }
}

/// Why the daemon stopped ingesting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeStop {
    /// The feed ended cleanly (end-of-stream marker or transport EOF on a
    /// frame boundary) and everything drained.
    Drained,
    /// The shutdown flag was raised; everything ingested so far drained.
    Shutdown,
    /// Ingestion failed with the typed error in
    /// [`ServeOutcome::error`]; everything ingested before the fault
    /// drained.
    Error,
}

/// What one daemon run did. Present even after a fault — the counters and
/// summary describe the drained, valid partial result.
#[derive(Clone, Copy, Debug)]
pub struct ServeReport {
    /// The engines' replay summary over everything ingested.
    pub summary: StreamSummary,
    /// Events ingested and admitted (drivers, tasks, ticks).
    pub events: usize,
    /// Window boundaries observed (decision groups fully decided).
    pub windows: usize,
    /// Days rolled over.
    pub days: usize,
    /// Snapshots taken.
    pub snapshots: usize,
    /// Why ingestion stopped.
    pub stop: ServeStop,
}

/// A [`ServeReport`] plus the ingest fault, if any.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The drained result (valid even when `error` is set).
    pub report: ServeReport,
    /// The typed ingestion fault that stopped the run, if any.
    pub error: Option<IngestError>,
}

impl ServeOutcome {
    /// The report, or the fault that cut the run short.
    ///
    /// # Errors
    ///
    /// Returns the [`IngestError`] when the run was stopped by one (the
    /// partial report is dropped; keep the outcome if you need both).
    pub fn into_result(self) -> Result<ServeReport, IngestError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.report),
        }
    }
}

/// A snapshot instant, handed to the snapshot hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotPoint {
    /// 0-based snapshot sequence number.
    pub seq: usize,
    /// The window boundary (stream clock) that triggered it.
    pub at: Timestamp,
}

/// A day rollover, handed to the day hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DayPoint {
    /// 0-based index of the day being closed.
    pub day: usize,
    /// The day's nominal end (a multiple of the configured day length).
    pub end: Timestamp,
}

/// The sink the daemon interposes between the engines and the caller's
/// sink: forwards everything, and turns `window_closed` boundaries into
/// snapshot/day-rollover hook firings on the deterministic stream clock.
struct ServeSink<'a, S, FS, FD> {
    inner: &'a mut S,
    on_snapshot: &'a mut FS,
    on_day: &'a mut FD,
    day_length: TimeDelta,
    next_day_end: Timestamp,
    snapshot_every: Option<TimeDelta>,
    next_snapshot: Timestamp,
    windows: usize,
    days: usize,
    snapshots: usize,
}

impl<'a, S, FS, FD> ServeSink<'a, S, FS, FD>
where
    S: StreamSink,
    FS: FnMut(SnapshotPoint, &mut S),
    FD: FnMut(DayPoint, &mut S),
{
    fn new(
        inner: &'a mut S,
        on_snapshot: &'a mut FS,
        on_day: &'a mut FD,
        config: &ServeConfig,
    ) -> Self {
        Self {
            inner,
            on_snapshot,
            on_day,
            day_length: config.day_length,
            next_day_end: Timestamp::EPOCH + config.day_length,
            snapshot_every: config.snapshot_every,
            next_snapshot: Timestamp::EPOCH
                + config.snapshot_every.unwrap_or(TimeDelta::from_secs(0)),
            windows: 0,
            days: 0,
            snapshots: 0,
        }
    }
}

impl<S, FS, FD> StreamSink for ServeSink<'_, S, FS, FD>
where
    S: StreamSink,
    FS: FnMut(SnapshotPoint, &mut S),
    FD: FnMut(DayPoint, &mut S),
{
    fn driver_online(&mut self, driver: &rideshare_core::Driver) {
        self.inner.driver_online(driver);
    }

    fn dispatched(&mut self, task: &rideshare_core::Task, event: &crate::DispatchEvent) {
        self.inner.dispatched(task, event);
    }

    fn rejected(&mut self, task: &rideshare_core::Task, decision_time: Timestamp) {
        self.inner.rejected(task, decision_time);
    }

    fn window_closed(&mut self, end: Timestamp) {
        self.inner.window_closed(end);
        self.windows += 1;
        // Close every day whose end this boundary reaches or passes (a
        // quiet stream can cross several days in one window). Days close
        // in order, each exactly once.
        while end >= self.next_day_end {
            (self.on_day)(
                DayPoint {
                    day: self.days,
                    end: self.next_day_end,
                },
                self.inner,
            );
            self.days += 1;
            self.next_day_end += self.day_length;
        }
        // At most one snapshot per boundary; the schedule then jumps to
        // the next cadence multiple strictly past this boundary, so a
        // long-idle stream takes one catch-up snapshot, not a burst.
        if let Some(every) = self.snapshot_every {
            if end >= self.next_snapshot {
                (self.on_snapshot)(
                    SnapshotPoint {
                        seq: self.snapshots,
                        at: end,
                    },
                    self.inner,
                );
                self.snapshots += 1;
                let k = end.as_secs().div_euclid(every.as_secs()) + 1;
                self.next_snapshot = Timestamp::from_secs(k * every.as_secs());
            }
        }
    }
}

/// How the ingest loop ended (internal).
enum LoopEnd {
    Clean,
    Shutdown,
    Fault(IngestError),
}

/// Pulls events from `source` through `guard`, as the iterator both the
/// one-shard replay and the sharded router consume on the caller's thread.
/// Stops (returns `None`) on end-of-stream, fault, or shutdown; the
/// disposition lands in `end`.
struct GuardedEvents<'a> {
    source: &'a mut dyn IngestSource,
    guard: EventGuard,
    shutdown: Option<&'a AtomicBool>,
    events: &'a mut usize,
    end: &'a mut LoopEnd,
}

impl Iterator for GuardedEvents<'_> {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        if self.shutdown.is_some_and(|f| f.load(Ordering::Relaxed)) {
            *self.end = LoopEnd::Shutdown;
            return None;
        }
        match self.source.next_event() {
            Ok(Some(event)) => {
                if let Err(e) = self.guard.admit(&event) {
                    *self.end = LoopEnd::Fault(e);
                    return None;
                }
                *self.events += 1;
                Some(event)
            }
            Ok(None) => {
                *self.end = LoopEnd::Clean;
                None
            }
            Err(e) => {
                *self.end = LoopEnd::Fault(e);
                None
            }
        }
    }
}

/// The long-running dispatch daemon. Construction fixes the dispatch
/// semantics (speed model, policy spec, partitioner); [`run`] drains one
/// ingest source through it.
///
/// [`run`]: ServeDaemon::run
pub struct ServeDaemon<'p> {
    speed: SpeedModel,
    spec: ShardPolicySpec,
    partitioner: Option<&'p dyn RegionPartitioner>,
    config: ServeConfig,
    shutdown: Option<Arc<AtomicBool>>,
}

impl<'p> ServeDaemon<'p> {
    /// Creates a daemon. It runs the configured shards once a partitioner
    /// is added with [`with_partitioner`](Self::with_partitioner), and one
    /// engine until then; the decisions are the same either way.
    #[must_use]
    pub fn new(speed: SpeedModel, spec: ShardPolicySpec, config: ServeConfig) -> Self {
        Self {
            speed,
            spec,
            partitioner: None,
            config,
            shutdown: None,
        }
    }

    /// Installs the region partitioner for sharded serving.
    #[must_use]
    pub fn with_partitioner(mut self, partitioner: &'p dyn RegionPartitioner) -> Self {
        self.partitioner = Some(partitioner);
        self
    }

    /// Installs a cooperative shutdown flag: raise it from any thread (a
    /// signal handler, a control socket) and the daemon stops ingesting
    /// at the next event boundary, drains, and reports
    /// [`ServeStop::Shutdown`]. Share the same flag with the source (see
    /// [`crate::FileSource::with_shutdown`] /
    /// [`crate::TcpSource::with_shutdown`]) so blocked reads wake up too.
    #[must_use]
    pub fn with_shutdown(mut self, flag: Arc<AtomicBool>) -> Self {
        self.shutdown = Some(flag);
        self
    }

    /// Drains `source` through the engines into `sink`, firing
    /// `on_snapshot` and `on_day` at their deterministic stream-clock
    /// instants: [`replay_sharded`] when the daemon has a partitioner and
    /// more than one shard, [`replay_stream`] otherwise. Never panics on
    /// hostile feed input; see [`ServeOutcome`].
    ///
    /// # Panics
    ///
    /// Panics only on internal engine failure — not on feed content.
    pub fn run<S, FS, FD>(
        &self,
        source: &mut dyn IngestSource,
        sink: &mut S,
        mut on_snapshot: FS,
        mut on_day: FD,
    ) -> ServeOutcome
    where
        S: StreamSink,
        FS: FnMut(SnapshotPoint, &mut S),
        FD: FnMut(DayPoint, &mut S),
    {
        let mut events = 0usize;
        let mut end = LoopEnd::Clean;
        let mut serve_sink = ServeSink::new(sink, &mut on_snapshot, &mut on_day, &self.config);

        let guarded = GuardedEvents {
            source,
            guard: EventGuard::new(),
            shutdown: self.shutdown.as_deref(),
            events: &mut events,
            end: &mut end,
        };
        let summary = match self.partitioner {
            Some(partitioner) if self.config.shards.shards > 1 => replay_sharded(
                self.speed,
                guarded,
                self.spec,
                partitioner,
                self.config.shards,
                &mut serve_sink,
            ),
            _ => replay_stream(
                self.speed,
                guarded,
                &mut self.spec.holder().as_policy(),
                self.config.shards.stream,
                &mut serve_sink,
            ),
        };

        let (windows, days, snapshots) =
            (serve_sink.windows, serve_sink.days, serve_sink.snapshots);
        let (stop, error) = match end {
            LoopEnd::Clean => (ServeStop::Drained, None),
            LoopEnd::Shutdown => (ServeStop::Shutdown, None),
            LoopEnd::Fault(e) => (ServeStop::Error, Some(e)),
        };
        ServeOutcome {
            report: ServeReport {
                summary,
                events,
                windows,
                days,
                snapshots,
                stop,
            },
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IterSource;
    use crate::stream::{replay_stream, CollectingSink, StreamOptions, StreamPolicy};
    use crate::MaxMargin;
    use rideshare_core::{Driver, Task};
    use rideshare_geo::GeoPoint;
    use rideshare_trace::DriverModel;
    use rideshare_types::{DriverId, Money, TaskId};

    fn driver(id: u32, shift_end: i64) -> StreamEvent {
        StreamEvent::DriverOnline(Driver {
            id: DriverId::new(id),
            source: GeoPoint::new(41.15, -8.61),
            destination: GeoPoint::new(41.15, -8.61),
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(shift_end),
            model: DriverModel::HomeWorkHome,
        })
    }

    fn task(id: u32, publish: i64) -> StreamEvent {
        StreamEvent::TaskPublished(Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(publish),
            origin: GeoPoint::new(41.15, -8.61),
            destination: GeoPoint::new(41.16, -8.60),
            pickup_deadline: Timestamp::from_secs(publish + 600),
            completion_deadline: Timestamp::from_secs(publish + 3600),
            duration: TimeDelta::from_secs(400),
            price: Money::new(7.0),
            valuation: Money::new(8.0),
            service_cost: Money::new(2.0),
        })
    }

    /// A three-day synthetic stream: one driver, one task per day.
    fn three_day_events() -> Vec<StreamEvent> {
        let day = 86_400;
        vec![
            driver(0, 3 * day),
            task(0, 9 * 3600),
            task(1, day + 9 * 3600),
            task(2, 2 * day + 9 * 3600),
            StreamEvent::EpochTick(Timestamp::from_secs(3 * day)),
        ]
    }

    #[test]
    fn daemon_equals_replay_and_fires_hooks() {
        let events = three_day_events();

        let mut expected = CollectingSink::new();
        replay_stream(
            SpeedModel::default(),
            events.iter().copied(),
            &mut StreamPolicy::Instant(&mut MaxMargin::new()),
            StreamOptions::default(),
            &mut expected,
        );

        let daemon = ServeDaemon::new(
            SpeedModel::default(),
            ShardPolicySpec::MaxMargin,
            ServeConfig::new(1).snapshot_every(TimeDelta::from_hours(1)),
        );
        let mut sink = CollectingSink::new();
        let mut snapshots = Vec::new();
        let mut days = Vec::new();
        let outcome = daemon.run(
            &mut IterSource::new(events.into_iter()),
            &mut sink,
            |p, _| snapshots.push(p),
            |d, _| days.push(d),
        );

        assert!(outcome.error.is_none());
        let report = outcome.into_result().unwrap();
        assert_eq!(report.stop, ServeStop::Drained);
        assert_eq!(report.summary.tasks, 3);
        assert_eq!(report.windows, 3, "one publish group per day");
        // Day 0 and day 1 close when the next day's task arrives; day 2
        // closes at the final tick boundary.
        assert_eq!(report.days, 2);
        assert_eq!(days[0].day, 0);
        assert_eq!(days[0].end, Timestamp::from_secs(86_400));
        // One snapshot per boundary (cadence 1h << boundary gaps).
        assert_eq!(report.snapshots, 3);
        assert_eq!(snapshots[0].seq, 0);

        let (a, b) = (sink.into_result(), expected.into_result());
        assert_eq!(a.dispatch, b.dispatch);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn shards_without_a_partitioner_run_one_engine() {
        let events = three_day_events();
        let mut expected = CollectingSink::new();
        let summary = replay_stream(
            SpeedModel::default(),
            events.iter().copied(),
            &mut StreamPolicy::Instant(&mut MaxMargin::new()),
            StreamOptions::default(),
            &mut expected,
        );

        let daemon = ServeDaemon::new(
            SpeedModel::default(),
            ShardPolicySpec::MaxMargin,
            ServeConfig::new(2),
        );
        let mut sink = CollectingSink::new();
        let outcome = daemon.run(
            &mut IterSource::new(events.into_iter()),
            &mut sink,
            |_, _| {},
            |_, _| {},
        );
        let report = outcome.into_result().unwrap();
        assert_eq!(report.stop, ServeStop::Drained);
        assert_eq!(report.summary, summary);
        let (a, b) = (sink.into_result(), expected.into_result());
        assert_eq!(a.dispatch, b.dispatch);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn hostile_feed_yields_typed_error_and_partial_result() {
        // Second task goes backwards in time.
        let events = vec![driver(0, 86_400), task(0, 5000), task(1, 100)];
        let daemon = ServeDaemon::new(
            SpeedModel::default(),
            ShardPolicySpec::MaxMargin,
            ServeConfig::new(1),
        );
        let mut sink = CollectingSink::new();
        let outcome = daemon.run(
            &mut IterSource::new(events.into_iter()),
            &mut sink,
            |_, _| {},
            |_, _| {},
        );
        assert_eq!(outcome.report.stop, ServeStop::Error);
        assert!(matches!(
            outcome.error,
            Some(IngestError::NonMonotonic { .. })
        ));
        // The admitted prefix drained: task 0 was decided.
        assert_eq!(outcome.report.summary.tasks, 1);
        assert_eq!(
            outcome.report.summary.served + outcome.report.summary.rejected,
            1
        );
    }

    #[test]
    fn shutdown_flag_stops_and_drains() {
        let flag = Arc::new(AtomicBool::new(false));
        // Flip the flag after the second event by interposing an iterator.
        let flipper = flag.clone();
        let events = three_day_events();
        let stream = events.into_iter().enumerate().map(move |(i, e)| {
            if i == 2 {
                flipper.store(true, Ordering::Relaxed);
            }
            e
        });
        let daemon = ServeDaemon::new(
            SpeedModel::default(),
            ShardPolicySpec::MaxMargin,
            ServeConfig::new(1),
        )
        .with_shutdown(flag);
        let mut sink = CollectingSink::new();
        let outcome = daemon.run(
            &mut IterSource::new(stream),
            &mut sink,
            |_, _| {},
            |_, _| {},
        );
        let report = outcome.into_result().unwrap();
        assert_eq!(report.stop, ServeStop::Shutdown);
        // The flag is raised while event 2 is being pulled, so events 0–2
        // (driver + two tasks) are ingested; the daemon notices at the
        // next boundary and the held group drains on shutdown.
        assert_eq!(report.events, 3);
        assert_eq!(report.summary.tasks, 2);
        assert_eq!(report.summary.served + report.summary.rejected, 2);
    }
}
