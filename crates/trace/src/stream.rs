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
//! sequence)`; emission pops from the front. The sequence number is
//! unique per trip, so no two keys tie and the order is fully determined
//! by the keys — any correct sort, stable or not, yields the same stream.
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

/// The lazy publish-ordered trip stream created by [`TraceConfig::stream`].
///
/// Yields exactly `task_count` [`TripRecord`]s in non-decreasing publish
/// order with ids renumbered densely in emission order; driver shifts are
/// generated eagerly (they are `O(drivers)` and consumers need them before
/// the first order). See the module docs for the memory bound.
pub struct TraceStream {
    config: TraceConfig,
    run: RunConstants,
    rng: StdRng,
    drivers: Vec<Driver>,
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
    emitted: usize,
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
        TraceStream {
            max_lead: TimeDelta::from_mins(self.lead_time_mins.1),
            config: self.clone(),
            run,
            rng,
            drivers,
            counts,
            hour: 0,
            buffer: VecDeque::new(),
            generated: 0,
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

    /// High-water mark of the internal look-ahead buffer so far — the
    /// stream's whole resident trip state, bounded by ~one hour plus one
    /// lead window of demand regardless of trace length.
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

    /// Everything published before this instant has been emitted.
    fn watermark(&self) -> Option<Timestamp> {
        if self.hour > 23 {
            None // all hours generated: the buffer holds the whole tail
        } else {
            Some(Timestamp::from_hours(self.hour as i64) - self.max_lead)
        }
    }
}

impl Iterator for TraceStream {
    type Item = TripRecord;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let ready = match (self.buffer.front(), self.watermark()) {
                (Some(_), None) => true,
                (Some(first), Some(w)) => first.publish_time < w,
                (None, _) => false,
            };
            if ready {
                let mut trip = self.buffer.pop_front().expect("peeked");
                trip.id = TaskId::new(self.emitted as u32);
                self.emitted += 1;
                return Some(trip);
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
}
