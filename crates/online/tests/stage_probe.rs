//! The stage probe on a small fixed market: its counters are pinned, and
//! a clock that ticks once per read shows every stage timer lapping
//! exactly where the engine's hooks say it does.
//!
//! Run with `cargo test -p rideshare-online --features stage-probe`. One
//! test, so nothing else in this process moves the probe's totals.

#![cfg(feature = "stage-probe")]

use std::sync::atomic::{AtomicU64, Ordering};

use rideshare_core::{MarketBuildOptions, Task};
use rideshare_online::probe::{install_clock, readings, Count, Stage, StageClock, StageReadings};
use rideshare_online::{
    priced_events, replay_stream, DispatchEvent, InstantRule, MatcherKind, StreamOptions,
    StreamPolicy, StreamSink,
};
use rideshare_trace::{DriverModel, TraceConfig};
use rideshare_types::{TimeDelta, Timestamp};

/// One nanosecond per read.
struct Ticks(AtomicU64);

impl StageClock for Ticks {
    fn now_ns(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

static TICKS: Ticks = Ticks(AtomicU64::new(0));

/// Counts what reaches it.
#[derive(Default)]
struct Tally {
    served: u64,
    rejected: u64,
    windows: u64,
}

impl StreamSink for Tally {
    fn dispatched(&mut self, _task: &Task, _event: &DispatchEvent) {
        self.served += 1;
    }
    fn rejected(&mut self, _task: &Task, _decision_time: Timestamp) {
        self.rejected += 1;
    }
    fn window_closed(&mut self, _end: Timestamp) {
        self.windows += 1;
    }
}

/// What the probe read over one replay of a 3000-order, 300-driver day.
struct Run {
    before: StageReadings,
    after: StageReadings,
    sink: Tally,
}

impl Run {
    fn new(policy: StreamPolicy) -> Self {
        let stream = TraceConfig::porto()
            .with_seed(11)
            .with_task_count(3000)
            .with_driver_count(300, DriverModel::Hitchhiking)
            .stream();
        let options = StreamOptions::default().grid(stream.bounding_box());
        let speed = stream.speed();
        let events = priced_events(stream, &MarketBuildOptions::default());
        let before = readings();
        let mut sink = Tally::default();
        replay_stream(speed, events, policy, options, &mut sink);
        let after = readings();
        Self {
            before,
            after,
            sink,
        }
    }

    fn count(&self, count: Count) -> u64 {
        self.after.count(count) - self.before.count(count)
    }

    /// Laps charged to `stage`: the ticking clock makes each one 1 ns.
    fn laps(&self, stage: Stage) -> u64 {
        self.after.ns(stage) - self.before.ns(stage)
    }

    fn counts(&self) -> [u64; 7] {
        [
            Count::Scans,
            Count::Cells,
            Count::Entries,
            Count::Evaluations,
            Count::Candidates,
            Count::Searches,
            Count::SearchEntries,
        ]
        .map(|count| self.count(count))
    }
}

#[test]
fn the_probe_counts_a_fixed_market_and_laps_at_every_hook() {
    assert!(install_clock(&TICKS));

    // Instant: one scan, one choice and one report per order, one commit
    // per dispatch, and one report per publish group closed.
    let instant = Run::new(StreamPolicy::Instant(InstantRule::MaxMargin));
    let sink = &instant.sink;
    assert_eq!(sink.served + sink.rejected, 3000);
    assert_eq!(instant.counts(), [3000, 45832, 12848, 1364, 1360, 0, 0]);
    assert_eq!(instant.laps(Stage::Scan), 3000);
    assert_eq!(instant.laps(Stage::Choose), 3000);
    assert_eq!(instant.laps(Stage::Commit), sink.served);
    assert_eq!(instant.laps(Stage::Sink), 3000 + sink.windows);
    assert_eq!(instant.laps(Stage::Refresh), 0);
    assert_eq!(instant.laps(Stage::EarlyFlush), 0);

    // Batched: one early-flush lap per window, and a refresh after every
    // matcher round that committed something and left orders over.
    let (window, matcher) = (TimeDelta::from_mins(3), MatcherKind::Greedy);
    let batched = Run::new(StreamPolicy::Batched { window, matcher });
    let sink = &batched.sink;
    assert_eq!(sink.served + sink.rejected, 3000);
    assert_eq!(
        batched.counts(),
        [3000, 36759, 10849, 1401, 1395, 3000, 5234]
    );
    assert_eq!(batched.laps(Stage::EarlyFlush), sink.windows);
    assert_eq!(batched.laps(Stage::Commit), sink.served);
    assert_eq!(batched.laps(Stage::Sink), 3000 + sink.windows);
    assert!(batched.laps(Stage::Scan) <= batched.laps(Stage::Choose));
    assert!(batched.laps(Stage::Refresh) < batched.laps(Stage::Choose));

    // The greedy close, from its pair heap: one choice per commit and one
    // per epoch (the pop that finds the heap empty), one refresh per
    // commit. It reads each pair once as it pops it, and evaluates a
    // committed driver again only for the orders whose pickup deadline
    // she can still meet (the round loop read 2,818 pairs and made 4,707
    // re-evaluations here, with the same 11 hits).
    let close = [
        Count::Epochs,
        Count::PairsRead,
        Count::Reevaluations,
        Count::ReevaluationHits,
    ];
    assert_eq!(close.map(|count| instant.count(count)), [0; 4]);
    assert_eq!(
        close.map(|count| batched.count(count)),
        [854, 1406, 785, 11]
    );
    let epochs = batched.count(Count::Epochs);
    assert_eq!(batched.laps(Stage::Choose), sink.served + epochs);
    assert_eq!(batched.laps(Stage::Refresh), sink.served);
}
