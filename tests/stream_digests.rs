//! Absolute pins for the lazy order stream at scale: a 64-bit FNV-1a
//! digest over the bit pattern of every field of every driver and
//! [`TripRecord`] a `TraceConfig::stream` yields, and of each trip's
//! surge-priced `price` / `valuation` / `service_cost`.
//!
//! `snapshots/golden_trace.rtb` pins 120 tasks, which cannot see how
//! trips that share a publish second are ordered inside a busy hour, nor
//! a look-ahead buffer that carries trips across several hours. These
//! shapes can:
//!
//! - the `replay-sparse` benchmark shape at 1/50 size (four regions);
//! - the delivery preset, whose leads of up to 240 minutes keep four
//!   hours of trips in the buffer at once;
//! - a single-hour demand profile, where most trips share their publish
//!   second with another;
//! - (`#[ignore]`d, run nightly in release mode) the full-size
//!   `replay-sparse` day, 1M tasks × 450 drivers × 4 regions.
//!
//! Each row also pins the stream's `peak_buffered`. The three 20k-task
//! shapes are pinned again under the pricer's two other surge sources:
//! the whole-day snapshot `Market::from_trace` prices a generated trace
//! with (surged, and with `SurgeConfig::disabled`), and the unsurged
//! stream a pricer without a rolling window runs.
//!
//! Both batched closes are pinned the same way, over every decision they
//! report: each dispatch event (candidate count and decision time
//! included) and each rejection, in the order the sink receives them. The
//! greedy rows are the `replay-batch` benchmark shape (25k tasks × 2.5k
//! drivers) under `batch-3m`, the same day at `batch-0m`, `batch-10m` and
//! `batch-30m`, and a home-work-home day at `batch-5m`; the per-round
//! assignment LP's rows are the same two days under `batch-opt-3m` and
//! `batch-opt-5m`.
//!
//! The constants were recorded once and are never edited: the generator,
//! the pricer and the engine may change how they work, never what they
//! produce.

use rideshare::online::DispatchEvent;
use rideshare::prelude::*;

/// Streams `config`, prices every trip under a 30-minute rolling surge
/// window (the `replay` default) and digests drivers, trips and prices.
/// Returns the digest, the stream's `peak_buffered`, and how many trips
/// publish in the same second as the trip before them.
fn digest(config: &TraceConfig) -> (u64, usize, usize) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut stream = config.stream();
    let opts = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };
    let mut pricer = StreamPricer::new(
        &opts,
        stream.bounding_box(),
        stream.speed(),
        stream.drivers(),
    );
    for d in stream.drivers() {
        feed(d.id.index() as u64);
        feed(d.source.lat().to_bits());
        feed(d.source.lon().to_bits());
        feed(d.destination.lat().to_bits());
        feed(d.destination.lon().to_bits());
        feed(d.shift_start.as_secs() as u64);
        feed(d.shift_end.as_secs() as u64);
        feed(u64::from(d.model == DriverModel::HomeWorkHome));
    }
    let mut ties = 0;
    let mut last = None;
    for trip in stream.by_ref() {
        feed(trip.id.index() as u64);
        feed(trip.publish_time.as_secs() as u64);
        feed(trip.origin.lat().to_bits());
        feed(trip.origin.lon().to_bits());
        feed(trip.destination.lat().to_bits());
        feed(trip.destination.lon().to_bits());
        feed(trip.pickup_deadline.as_secs() as u64);
        feed(trip.completion_deadline.as_secs() as u64);
        feed(trip.distance_km.to_bits());
        feed(trip.duration.as_secs() as u64);
        let task = pricer.price(&trip);
        feed(task.price.as_f64().to_bits());
        feed(task.valuation.as_f64().to_bits());
        feed(task.service_cost.as_f64().to_bits());
        ties += usize::from(last == Some(trip.publish_time));
        last = Some(trip.publish_time);
    }
    (hash, stream.peak_buffered(), ties)
}

fn replay_sparse(tasks: usize, drivers: usize) -> TraceConfig {
    TraceConfig::porto()
        .with_seed(0)
        .with_task_count(tasks)
        .with_driver_count(drivers, DriverModel::Hitchhiking)
        .with_regions(4)
}

#[test]
fn replay_sparse_shape_is_pinned() {
    let (hash, peak, _) = digest(&replay_sparse(20_000, 45));
    assert_eq!(
        (hash, peak),
        (DIGEST_SPARSE, PEAK_SPARSE),
        "{hash:#018x} {peak}"
    );
}

fn delivery_preset() -> TraceConfig {
    TraceConfig::porto_delivery()
        .with_seed(0)
        .with_task_count(20_000)
        .with_driver_count(45, DriverModel::HomeWorkHome)
        .with_regions(2)
}

fn dense_hour() -> TraceConfig {
    let mut demand = [0.0; 24];
    demand[12] = 1.0;
    TraceConfig::porto()
        .with_seed(0)
        .with_task_count(20_000)
        .with_driver_count(200, DriverModel::Hitchhiking)
        .with_hourly_demand(demand)
}

/// The three 20k-task shapes: sparse, delivery, dense hour.
fn shapes() -> [TraceConfig; 3] {
    [replay_sparse(20_000, 45), delivery_preset(), dense_hour()]
}

/// A 64-bit FNV-1a digest over the bits of every task's `price`,
/// `valuation` and `service_cost`, in order.
fn price_digest(tasks: &[Task]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for task in tasks {
        for money in [task.price, task.valuation, task.service_cost] {
            for byte in money.as_f64().to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// Prices each shape's generated trace with `Market::from_trace`, which
/// without a rolling window takes surge from the whole-day snapshot.
fn snapshot_digests(opts: &MarketBuildOptions) -> [u64; 3] {
    shapes().map(|config| price_digest(Market::from_trace(&config.generate(), opts).tasks()))
}

#[test]
fn delivery_preset_is_pinned() {
    let (hash, peak, _) = digest(&delivery_preset());
    assert_eq!(
        (hash, peak),
        (DIGEST_DELIVERY, PEAK_DELIVERY),
        "{hash:#018x} {peak}"
    );
}

#[test]
fn dense_hour_is_pinned() {
    let (hash, peak, ties) = digest(&dense_hour());
    // The row exists for its ties: most trips share a publish second.
    assert!(ties > 10_000, "only {ties} tied publish seconds");
    assert_eq!(
        (hash, peak),
        (DIGEST_DENSE, PEAK_DENSE),
        "{hash:#018x} {peak}"
    );
}

#[test]
fn whole_day_snapshot_prices_are_pinned() {
    let digests = snapshot_digests(&MarketBuildOptions::default());
    assert_eq!(digests, SNAPSHOT, "{digests:#018x?}");
}

#[test]
fn whole_day_snapshot_without_surge_is_pinned() {
    let digests = snapshot_digests(&MarketBuildOptions {
        surge: SurgeConfig::disabled(),
        ..MarketBuildOptions::default()
    });
    assert_eq!(digests, SNAPSHOT_UNSURGED, "{digests:#018x?}");
}

#[test]
fn unsurged_stream_prices_are_pinned() {
    // No rolling window: the stream cannot know the whole-day snapshot,
    // so it charges multiplier 1 (`replay --surge-window 0`).
    let digests = shapes().map(|config| {
        let stream = config.stream();
        let mut pricer = StreamPricer::new(
            &MarketBuildOptions::default(),
            stream.bounding_box(),
            stream.speed(),
            stream.drivers(),
        );
        let tasks: Vec<Task> = stream.map(|trip| pricer.price(&trip)).collect();
        price_digest(&tasks)
    });
    assert_eq!(digests, STREAM_UNSURGED, "{digests:#018x?}");
}

#[test]
#[ignore = "1M-task stream: run in release mode (nightly CI)"]
fn full_size_replay_sparse_is_pinned() {
    let (hash, peak, _) = digest(&replay_sparse(1_000_000, 450));
    assert_eq!(
        (hash, peak),
        (DIGEST_FULL, PEAK_FULL),
        "{hash:#018x} {peak}"
    );
}

/// FNV-1a over the little-endian bytes of each word a sink is fed.
struct DecisionDigest {
    hash: u64,
    served: usize,
}

impl DecisionDigest {
    fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl StreamSink for DecisionDigest {
    fn dispatched(&mut self, _task: &Task, e: &DispatchEvent) {
        self.served += 1;
        for word in [
            1,
            e.task.index() as u64,
            e.driver.index() as u64,
            e.arrival.as_secs() as u64,
            e.decision_time.as_secs() as u64,
            e.wait.as_secs() as u64,
            e.deadhead_km.to_bits(),
            e.candidates as u64,
            e.margin.to_bits(),
        ] {
            self.feed(word);
        }
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        self.feed(2);
        self.feed(task.id.index() as u64);
        self.feed(decision_time.as_secs() as u64);
    }
}

/// Replays `config`'s priced day (30-minute rolling surge, as `replay`
/// prices it) held for `mins` minutes and closed by `matcher`. Returns the
/// decision digest and the orders served.
fn batched_digest(config: &TraceConfig, mins: i64, matcher: MatcherKind) -> (u64, usize) {
    let stream = config.stream();
    let (speed, options) = (
        stream.speed(),
        StreamOptions::default().grid(stream.bounding_box()),
    );
    let opts = MarketBuildOptions {
        surge_window: Some(TimeDelta::from_mins(30)),
        ..MarketBuildOptions::default()
    };
    let mut sink = DecisionDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        served: 0,
    };
    let window = TimeDelta::from_mins(mins);
    let summary = replay_stream(
        speed,
        priced_events(stream, &opts),
        ShardPolicySpec::Batched { window, matcher }.holder(),
        options,
        &mut sink,
    );
    assert_eq!(summary.served, sink.served);
    (sink.hash, sink.served)
}

/// The `replay-batch` benchmark's day: 25k tasks × 2.5k drivers, seed 0.
fn replay_batch(model: DriverModel) -> TraceConfig {
    TraceConfig::porto()
        .with_seed(0)
        .with_task_count(25_000)
        .with_driver_count(2_500, model)
}

#[test]
fn replay_batch_shape_is_pinned() {
    let day = replay_batch(DriverModel::Hitchhiking);
    let got = batched_digest(&day, 3, MatcherKind::Greedy);
    assert_eq!(got, BATCH_3M, "{:#018x} {}", got.0, got.1);
}

#[test]
fn replay_batch_day_is_pinned_across_windows() {
    let day = replay_batch(DriverModel::Hitchhiking);
    let got = [0, 10, 30].map(|mins| batched_digest(&day, mins, MatcherKind::Greedy));
    assert_eq!(got, BATCH_0M_10M_30M, "{got:#018x?}");
}

#[test]
fn home_work_home_batch_day_is_pinned() {
    let day = replay_batch(DriverModel::HomeWorkHome);
    let got = batched_digest(&day, 5, MatcherKind::Greedy);
    assert_eq!(got, BATCH_HWH_5M, "{:#018x} {}", got.0, got.1);
}

#[test]
fn replay_batch_day_is_pinned_under_the_round_lp() {
    let day = replay_batch(DriverModel::Hitchhiking);
    let got = batched_digest(&day, 3, MatcherKind::Optimal);
    assert_eq!(got, BATCH_OPT_3M, "{:#018x} {}", got.0, got.1);
}

#[test]
fn home_work_home_batch_day_is_pinned_under_the_round_lp() {
    let day = replay_batch(DriverModel::HomeWorkHome);
    let got = batched_digest(&day, 5, MatcherKind::Optimal);
    assert_eq!(got, BATCH_OPT_HWH_5M, "{:#018x} {}", got.0, got.1);
}

const BATCH_3M: (u64, usize) = (0x77c5_7aa0_c36c_4f20, 10_616);
const BATCH_0M_10M_30M: [(u64, usize); 3] = [
    (0xbe08_e879_e66c_0763, 12_143),
    (0x4170_7e5b_31a3_6826, 7_665),
    (0x5d4b_775b_cb95_092c, 4_798),
];
const BATCH_HWH_5M: (u64, usize) = (0x32d2_d22a_150e_08d7, 9_893);
const BATCH_OPT_3M: (u64, usize) = (0x1201_29ef_c27c_702e, 10_827);
const BATCH_OPT_HWH_5M: (u64, usize) = (0x8957_c1c8_50ad_d50f, 10_461);
const DIGEST_SPARSE: u64 = 0xb528_10a8_0504_3799;
const PEAK_SPARSE: usize = 1_731;
const DIGEST_DELIVERY: u64 = 0xe81d_edbd_a41e_d767;
const PEAK_DELIVERY: usize = 4_967;
const DIGEST_DENSE: u64 = 0x76f4_6603_2575_254e;
const PEAK_DENSE: usize = 20_000;
const DIGEST_FULL: u64 = 0x5b49_cc14_7f77_ac95;
const PEAK_FULL: usize = 89_426;
const SNAPSHOT: [u64; 3] = [
    0xe8f3_637d_f6db_5ec9,
    0x34b2_8905_58c5_4677,
    0x03b1_2ba8_9484_efa6,
];
const SNAPSHOT_UNSURGED: [u64; 3] = [
    0x7edd_04d4_05f6_6431,
    0x6bed_ca29_38d6_2cf8,
    0xd0e1_d8b7_35e7_1a61,
];
const STREAM_UNSURGED: [u64; 3] = [
    0x6ee1_841d_be8c_8f57,
    0x293e_939a_d458_401f,
    0x3016_d55d_3f0e_e1ce,
];
