//! Lazy, bounded-memory trace streaming.
//!
//! [`TraceConfig::generate`] materialises the whole day — sampling every
//! trip, sorting by publish time, renumbering — which is `O(trace)` memory
//! before a single order is replayed. [`TraceConfig::stream`] produces the
//! same *kind* of day lazily: an iterator that yields [`TripRecord`]s in
//! publish order with densely renumbered ids, holding only a small
//! look-ahead buffer.
//!
//! # How the order is produced without a global sort
//!
//! `generate` samples each trip's pickup **hour** from the daily demand
//! profile and then the trip itself; sorting afterwards is what forces
//! materialisation. The stream inverts that: it first draws the whole
//! histogram of hours (the same categorical distribution, `O(24)` state),
//! then generates hour by hour in ascending order. Because a trip's
//! publish time precedes its pickup deadline by at most the configured
//! maximum lead time `L`, every future trip (deadline in hour `h` or
//! later) publishes at or after `h·3600 − L` — so once hour `h − 1` is
//! generated, everything publishing before that watermark can be emitted.
//! The buffer therefore never holds more than ~one hour plus one lead
//! window of demand, independent of the trace length.
//!
//! The look-ahead buffer is one sorted deque. Each hour is appended whole
//! and the buffer re-sorted in place by `(publish time, generation
//! sequence)`; then everything below the watermark leaves its front,
//! renumbered, as one **chunk** (about 24 a day). The sequence number is
//! unique per trip, so no two keys tie and the order is fully determined
//! by the keys — any correct sort, stable or not, yields the same stream.
//!
//! # Where the generator runs
//!
//! One sequential generator makes every trip; the stream only chooses
//! where it runs. On the first `next()`, when the platform reports at
//! least two CPUs (`std::thread::available_parallelism`, which respects
//! affinity masks and cgroup quotas), the generator moves onto a thread
//! of its own named `trace-generator`, which hands the consumer one chunk
//! per watermark step through a rendezvous channel and generates the next
//! hour while the consumer walks the one it holds. On one CPU, or when the
//! thread cannot be spawned, it runs on the calling thread instead, a
//! chunk at a time. Trips, ids and order are the same either way. Dropping
//! the stream closes the channel and joins the thread; a panic on the
//! generator thread is raised again by the consumer's `next()`.
//!
//! Resident trips are the generator's deque (its high-water mark is
//! [`TraceStream::peak_buffered`]), the chunk the consumer is walking,
//! and on the thread at most one finished chunk waiting to be handed
//! over.
//!
//! # Relation to `generate`
//!
//! A streamed day is **statistically identical** to a generated one —
//! same hour histogram distribution, same per-trip sampling given the
//! hour, same driver model — and fully deterministic in the seed, but it
//! is *not* trip-for-trip identical to `generate` with the same seed (the
//! RNG is consumed in a different order). Treat `seed` + `stream` as its
//! own reproducible workload, exactly like `seed` + `generate`. Drivers
//! come from an independently salted RNG so they are available up front —
//! a streaming consumer must know shifts before the orders they can serve
//! (see `rideshare-online`'s streaming replay contract).
//!
//! # Examples
//!
//! ```
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let config = TraceConfig::porto()
//!     .with_seed(3)
//!     .with_task_count(500)
//!     .with_driver_count(20, DriverModel::Hitchhiking);
//! let stream = config.stream();
//! assert_eq!(stream.drivers().len(), 20);
//!
//! let mut last = None;
//! let mut n = 0usize;
//! for (i, trip) in stream.enumerate() {
//!     assert_eq!(trip.id.index(), i); // dense ids in publish order
//!     assert!(last.map_or(true, |t| t <= trip.publish_time));
//!     last = Some(trip.publish_time);
//!     n += 1;
//! }
//! assert_eq!(n, 500);
//! ```

use std::collections::VecDeque;
use std::panic;
use std::sync::mpsc::{self, Receiver};
use std::thread::{self, JoinHandle};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rideshare_geo::{BoundingBox, SpeedModel};
use rideshare_types::{DriverId, TaskId, TimeDelta, Timestamp};

use crate::generator::RunConstants;
use crate::sampler::sample_categorical;
use crate::{Driver, Trace, TraceConfig, TripRecord};

/// Salt separating the trip stream's RNG from the seed itself.
const TRIP_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt for the driver RNG (drivers are generated up front).
const DRIVER_STREAM_SALT: u64 = 0xD1B5_4A32_D192_ED03;
/// The name of the thread the generator runs on (see the module docs).
const GENERATOR_THREAD: &str = "trace-generator";

/// The lazy publish-ordered trip stream created by [`TraceConfig::stream`].
///
/// Yields exactly `task_count` [`TripRecord`]s in non-decreasing publish
/// order with ids renumbered densely in emission order; driver shifts are
/// generated eagerly (they are `O(drivers)` and consumers need them before
/// the first order).
///
/// The stream is a thin consumer: it walks one hour-chunk of finished
/// trips at a time, while the generator behind it — on a thread named
/// `trace-generator` when the platform reports at least two CPUs, on the
/// calling thread otherwise or when that thread cannot be spawned —
/// holds the look-ahead deque and makes the next chunk. Dropping the
/// stream joins that thread. See the module docs for the memory bound.
pub struct TraceStream {
    config: TraceConfig,
    drivers: Vec<Driver>,
    feed: Feed,
    /// The chunk being walked.
    chunk: std::collections::vec_deque::IntoIter<TripRecord>,
    emitted: usize,
    peak_buffered: usize,
}

/// Where the chunks come from.
enum Feed {
    /// Before the first `next()`: the generator, not yet placed.
    Idle(Box<Hours>),
    /// The generator on the calling thread.
    Inline(Box<Hours>),
    /// The generator on its own thread, one chunk ahead.
    Ahead {
        chunks: Receiver<Chunk>,
        thread: JoinHandle<()>,
    },
    /// Every chunk handed over.
    Done,
}

/// One watermark step: every trip publishing before the watermark, in
/// publish order and renumbered.
struct Chunk {
    trips: VecDeque<TripRecord>,
    /// The generator deque's high-water mark once this chunk was cut.
    peak_buffered: usize,
}

/// The hour-by-hour generator behind a [`TraceStream`].
struct Hours {
    config: TraceConfig,
    run: RunConstants,
    rng: StdRng,
    /// How many trips fall in each pickup-deadline hour.
    counts: [usize; 24],
    /// Next hour to generate (24 = all generated).
    hour: usize,
    /// Generated, not yet emitted trips, sorted by `(publish time, id)`.
    /// Until emission renumbers it, a trip's id is its generation
    /// sequence number, which makes every key unique.
    buffer: VecDeque<TripRecord>,
    /// Trips generated so far (the next trip's sequence number).
    generated: u32,
    /// Trips emitted so far (the next emitted trip's id).
    emitted: u32,
    peak_buffered: usize,
    max_lead: TimeDelta,
}

impl TraceConfig {
    /// Streams the configured day lazily: trips arrive in publish order
    /// with dense ids, using only a bounded look-ahead buffer — the
    /// million-task path that [`TraceConfig::generate`] (which
    /// materialises and sorts everything) cannot take. Deterministic in
    /// the seed; statistically identical to `generate` but not
    /// trip-for-trip identical (see the `stream` module docs).
    #[must_use]
    pub fn stream(&self) -> TraceStream {
        let run = self.run_constants();
        let mut driver_rng = StdRng::seed_from_u64(self.seed ^ DRIVER_STREAM_SALT);
        let drivers: Vec<Driver> = (0..self.driver_count)
            .map(|i| self.gen_driver(&mut driver_rng, &run, DriverId::new(i as u32)))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ TRIP_STREAM_SALT);
        // The hour histogram: same marginal distribution `generate` uses,
        // drawn up front in O(24) space.
        let mut counts = [0usize; 24];
        for _ in 0..self.task_count {
            counts[sample_categorical(&mut rng, &self.hourly_demand)] += 1;
        }
        let hours = Hours {
            max_lead: TimeDelta::from_mins(self.lead_time_mins.1),
            config: self.clone(),
            run,
            rng,
            counts,
            hour: 0,
            buffer: VecDeque::new(),
            generated: 0,
            emitted: 0,
            peak_buffered: 0,
        };
        TraceStream {
            config: self.clone(),
            drivers,
            feed: Feed::Idle(Box::new(hours)),
            chunk: VecDeque::new().into_iter(),
            emitted: 0,
            peak_buffered: 0,
        }
    }
}

impl TraceStream {
    /// The driver shifts of this day (generated up front; `O(drivers)`).
    #[must_use]
    pub fn drivers(&self) -> &[Driver] {
        &self.drivers
    }

    /// The speed/cost model trips are generated with.
    #[must_use]
    pub fn speed(&self) -> SpeedModel {
        self.config.speed
    }

    /// The service-area bounding box (all regions included).
    #[must_use]
    pub fn bounding_box(&self) -> BoundingBox {
        self.config.bounding_box()
    }

    /// The bounding box of each disjoint service region (see
    /// [`TraceConfig::with_regions`]) — the region tags a sharded consumer
    /// feeds to its partitioner.
    #[must_use]
    pub fn region_boxes(&self) -> Vec<BoundingBox> {
        self.config.region_boxes()
    }

    /// Total trips this stream will yield.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.config.task_count
    }

    /// High-water mark of the generator's look-ahead deque, as of the
    /// chunk being walked: bounded by ~one hour plus one lead window of
    /// demand regardless of trace length. The stream's resident trips are
    /// this deque plus the hour-chunk it is walking (and, when the
    /// generator runs on its `trace-generator` thread, at most one
    /// finished chunk waiting to be handed over; on one CPU, or when that
    /// thread cannot be spawned, the generator runs on the calling thread
    /// and nothing waits).
    #[must_use]
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Drains the stream into a materialised [`Trace`] (for oracle tests
    /// and small runs — this is `O(trace)` by definition).
    #[must_use]
    pub fn collect_trace(mut self) -> Trace {
        let drivers = std::mem::take(&mut self.drivers);
        let speed = self.config.speed;
        let bbox = self.config.bounding_box();
        Trace {
            trips: self.by_ref().collect(),
            drivers,
            speed,
            bbox,
        }
    }

    /// Places the generator: on a thread of its own when `ahead` and the
    /// spawn succeeds, on the calling thread otherwise.
    fn start(&mut self, ahead: bool) {
        let Feed::Idle(hours) = std::mem::replace(&mut self.feed, Feed::Done) else {
            unreachable!("the generator is placed once");
        };
        self.feed = if ahead {
            spawn(hours)
        } else {
            Feed::Inline(hours)
        };
    }

    /// The next chunk, or `None` once the generator is exhausted.
    fn next_chunk(&mut self) -> Option<Chunk> {
        match &mut self.feed {
            Feed::Idle(_) => {
                let cpus = thread::available_parallelism().map_or(1, |n| n.get());
                self.start(cpus >= 2);
                self.next_chunk()
            }
            Feed::Inline(hours) => hours.next_chunk(),
            Feed::Ahead { chunks, .. } => {
                if let Ok(chunk) = chunks.recv() {
                    return Some(chunk);
                }
                // The sender is gone: the thread returned or panicked.
                if let Feed::Ahead { thread, .. } = std::mem::replace(&mut self.feed, Feed::Done) {
                    if let Err(payload) = thread.join() {
                        panic::resume_unwind(payload);
                    }
                }
                None
            }
            Feed::Done => None,
        }
    }
}

/// Moves `hours` onto the generator thread, or keeps it on the calling
/// thread when the spawn fails. The generator is handed over after the
/// spawn, so a failed spawn does not lose it.
fn spawn(hours: Box<Hours>) -> Feed {
    let (give, take) = mpsc::channel::<Box<Hours>>();
    let (send, chunks) = mpsc::sync_channel(0);
    let spawned = thread::Builder::new()
        .name(GENERATOR_THREAD.to_owned())
        .spawn(move || {
            let Ok(mut hours) = take.recv() else { return };
            while let Some(chunk) = hours.next_chunk() {
                if send.send(chunk).is_err() {
                    return; // the stream was dropped
                }
            }
        });
    match spawned {
        Ok(thread) => {
            give.send(hours)
                .expect("the generator thread waits for its generator");
            Feed::Ahead { chunks, thread }
        }
        Err(_) => Feed::Inline(hours),
    }
}

impl Drop for TraceStream {
    /// Closes the channel, so a generator blocked handing over a chunk
    /// returns, and joins its thread. A panic there is not raised again:
    /// the trips it would have made were not asked for.
    fn drop(&mut self) {
        if let Feed::Ahead { chunks, thread } = std::mem::replace(&mut self.feed, Feed::Done) {
            drop(chunks);
            let _ = thread.join();
        }
    }
}

impl Hours {
    /// Everything published before this instant has been emitted.
    fn watermark(&self) -> Option<Timestamp> {
        if self.hour > 23 {
            None // all hours generated: the buffer holds the whole tail
        } else {
            Some(Timestamp::from_hours(self.hour as i64) - self.max_lead)
        }
    }

    /// Generates hours until some trip publishes before the watermark and
    /// cuts everything that does, renumbered, as one chunk; `None` once
    /// every trip has been emitted.
    fn next_chunk(&mut self) -> Option<Chunk> {
        loop {
            let ready = match self.watermark() {
                None => self.buffer.len(),
                Some(w) => self.buffer.partition_point(|t| t.publish_time < w),
            };
            if ready > 0 {
                // The front leaves whole as the chunk; the tail stays.
                let tail = self.buffer.split_off(ready);
                let mut trips = std::mem::replace(&mut self.buffer, tail);
                for (trip, id) in trips.iter_mut().zip(self.emitted..) {
                    trip.id = TaskId::new(id);
                }
                self.emitted += ready as u32;
                return Some(Chunk {
                    trips,
                    peak_buffered: self.peak_buffered,
                });
            }
            if self.hour > 23 {
                return None;
            }
            // Generate the next hour into the buffer, then restore its
            // order. Exact reservation keeps the buffer at its peak depth.
            let h = self.hour;
            self.hour += 1;
            self.buffer.reserve_exact(self.counts[h]);
            for _ in 0..self.counts[h] {
                let id = TaskId::new(self.generated);
                let trip = self
                    .config
                    .gen_trip_in_hour(&mut self.rng, &self.run, id, h);
                self.buffer.push_back(trip);
                self.generated += 1;
            }
            self.buffer
                .make_contiguous()
                .sort_unstable_by_key(|t| (t.publish_time, t.id));
            self.peak_buffered = self.peak_buffered.max(self.buffer.len());
        }
    }
}

impl Iterator for TraceStream {
    type Item = TripRecord;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(trip) = self.chunk.next() {
                self.emitted += 1;
                return Some(trip);
            }
            let Some(chunk) = self.next_chunk() else {
                assert_eq!(
                    self.emitted, self.config.task_count,
                    "the trace stream ended short"
                );
                return None;
            };
            self.peak_buffered = chunk.peak_buffered;
            self.chunk = chunk.trips.into_iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.task_count - self.emitted;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriverModel;

    fn config(tasks: usize) -> TraceConfig {
        TraceConfig::porto()
            .with_seed(42)
            .with_task_count(tasks)
            .with_driver_count(12, DriverModel::Hitchhiking)
    }

    #[test]
    fn publish_sorted_dense_and_valid() {
        let mut last = Timestamp::from_secs(i64::MIN);
        let cfg = config(800);
        let bbox = cfg.bounding_box();
        for (i, trip) in cfg.stream().enumerate() {
            assert_eq!(trip.id.index(), i);
            assert!(trip.publish_time >= last, "stream out of order at {i}");
            last = trip.publish_time;
            trip.validate().unwrap();
            assert!(bbox.contains(trip.origin));
            assert!(bbox.contains(trip.destination));
        }
    }

    #[test]
    fn deterministic_in_seed_and_seed_sensitive() {
        let a: Vec<_> = config(300).stream().collect();
        let b: Vec<_> = config(300).stream().collect();
        assert_eq!(a, b);
        let c: Vec<_> = config(300).with_seed(43).stream().collect();
        assert_ne!(a, c);
        assert_eq!(
            config(300).stream().drivers(),
            config(300).stream().drivers()
        );
    }

    #[test]
    fn exact_count_and_size_hint() {
        let mut s = config(250).stream();
        assert_eq!(s.len(), 250);
        let mut n = 0;
        while let Some(_t) = s.next() {
            n += 1;
            assert_eq!(s.len(), 250 - n);
        }
        assert_eq!(n, 250);
        assert!(s.next().is_none());
    }

    #[test]
    fn buffer_stays_bounded() {
        // The whole point: the look-ahead buffer holds ~an hour plus a
        // lead window of demand, not the trace. With the default profile
        // the peak hour carries 7/91.5 ≈ 7.7% of daily demand.
        let mut s = config(5000).stream();
        let total: usize = s.by_ref().count();
        assert_eq!(total, 5000);
        assert!(
            s.peak_buffered() < 5000 / 4,
            "peak buffer {} for 5000 trips",
            s.peak_buffered()
        );
        assert!(s.peak_buffered() > 0);
    }

    #[test]
    fn hour_histogram_matches_demand_profile() {
        // All demand at hour 12 → every deadline in [12:00, 13:00), as in
        // the materialised generator.
        let mut demand = [0.0; 24];
        demand[12] = 1.0;
        let cfg = TraceConfig::porto()
            .with_seed(5)
            .with_task_count(200)
            .with_hourly_demand(demand);
        for trip in cfg.stream() {
            assert_eq!(trip.pickup_deadline.as_secs() / 3600, 12);
        }
    }

    #[test]
    fn collect_trace_round_trips() {
        let cfg = config(120);
        let trace = cfg.stream().collect_trace();
        assert_eq!(trace.trips.len(), 120);
        assert_eq!(trace.drivers.len(), 12);
        assert_eq!(trace.speed, cfg.speed_model());
        assert!(trace
            .trips
            .windows(2)
            .all(|w| w[0].publish_time <= w[1].publish_time));
    }

    #[test]
    fn statistically_similar_to_generate() {
        // Same seed, both pipelines: distance medians within 25% of each
        // other (the streamed day is a fresh draw, not a permutation).
        let cfg = TraceConfig::porto().with_seed(11).with_task_count(3000);
        let median = |mut kms: Vec<f64>| {
            kms.sort_by(|a, b| a.partial_cmp(b).unwrap());
            kms[kms.len() / 2]
        };
        let gen_med = median(cfg.generate().trips.iter().map(|t| t.distance_km).collect());
        let stream_med = median(cfg.stream().map(|t| t.distance_km).collect());
        assert!(
            (gen_med - stream_med).abs() / gen_med < 0.25,
            "generate median {gen_med} vs stream median {stream_med}"
        );
    }

    #[test]
    fn empty_stream() {
        let mut s = config(0).stream();
        assert!(s.next().is_none());
        assert_eq!(s.drivers().len(), 12);
    }

    /// `cfg`'s stream with its generator on its own thread (`ahead`) or on
    /// the calling thread, whatever the platform reports.
    fn placed(cfg: &TraceConfig, ahead: bool) -> TraceStream {
        let mut s = cfg.stream();
        s.start(ahead);
        s
    }

    /// Steps the threaded stream and the calling-thread reference side by
    /// side: same trip, id, `size_hint` and `peak_buffered` at every step.
    fn assert_threaded_matches_inline(cfg: &TraceConfig) {
        let mut reference = placed(cfg, false);
        let mut threaded = placed(cfg, true);
        assert!(matches!(threaded.feed, Feed::Ahead { .. }));
        assert_eq!(threaded.drivers(), reference.drivers());
        let mut steps = 0;
        loop {
            assert_eq!(threaded.size_hint(), reference.size_hint(), "step {steps}");
            let (t, r) = (threaded.next(), reference.next());
            assert_eq!(t, r, "step {steps}");
            assert_eq!(
                threaded.peak_buffered(),
                reference.peak_buffered(),
                "step {steps}"
            );
            if r.is_none() {
                break;
            }
            steps += 1;
        }
        assert_eq!(steps, cfg.task_count);
        assert_eq!(threaded.next(), None);
        assert_eq!(threaded.size_hint(), (0, Some(0)));
    }

    #[test]
    fn threaded_stream_equals_the_calling_thread_generator() {
        for tasks in [0, 1, 500, 20_000] {
            for regions in [1, 4] {
                assert_threaded_matches_inline(&config(tasks).with_regions(regions));
            }
        }
        // 240-minute leads keep four hours buffered.
        assert_threaded_matches_inline(&TraceConfig::porto_delivery().with_task_count(5000));
        let mut demand = [0.0; 24];
        demand[12] = 1.0;
        assert_threaded_matches_inline(&config(3000).with_hourly_demand(demand));
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn a_generator_panic_is_raised_by_next() {
        let cfg = TraceConfig {
            lead_time_mins: (15, 4),
            ..config(500)
        };
        let mut s = placed(&cfg, true);
        for _ in 0..500 {
            assert!(s.next().is_some(), "the stream ended short");
        }
    }

    #[test]
    fn dropping_a_started_stream_joins_its_generator() {
        let cfg = config(20_000);
        let first: Vec<_> = placed(&cfg, false).take(10).collect();
        for _ in 0..20 {
            let mut s = placed(&cfg, true);
            assert_eq!(s.by_ref().take(10).collect::<Vec<_>>(), first);
            drop(s);
        }
        assert_eq!(cfg.stream().take(10).collect::<Vec<_>>(), first);
    }
}
