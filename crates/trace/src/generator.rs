//! The synthetic trace generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rideshare_geo::{porto, BoundingBox, GeoPoint, SpeedModel};
use rideshare_types::{DriverId, TaskId, TimeDelta, Timestamp};

use crate::sampler::{sample_categorical, standard_normal, LogNormal, TruncatedPareto};
use crate::{Driver, DriverModel, TripRecord};

/// Double-peaked urban demand profile (share of daily demand per hour),
/// with a morning rush around 8–9 and an evening rush around 18–20.
const DEFAULT_HOURLY_DEMAND: [f64; 24] = [
    1.2, 0.8, 0.6, 0.4, 0.4, 0.7, 1.5, 3.0, 5.5, 5.0, 4.0, 4.2, 4.8, 4.6, 4.2, 4.4, 5.0, 6.0, 7.0,
    6.5, 5.5, 4.5, 3.0, 2.2,
];

/// Configuration for synthesising one day of a Porto-like taxi market.
///
/// Construct with [`TraceConfig::porto`] and customise with the `with_*`
/// builders; every run is deterministic in the seed.
///
/// # Examples
///
/// ```
/// use rideshare_trace::{DriverModel, TraceConfig};
/// let a = TraceConfig::porto().with_seed(1).with_task_count(50).generate();
/// let b = TraceConfig::porto().with_seed(1).with_task_count(50).generate();
/// assert_eq!(a.trips, b.trips); // fully reproducible
/// ```
#[derive(Clone, Debug)]
pub struct TraceConfig {
    pub(crate) seed: u64,
    pub(crate) bbox: BoundingBox,
    pub(crate) hotspots: Vec<(GeoPoint, f64)>,
    pub(crate) hotspot_sigma_km: f64,
    /// Probability that a pickup comes from the hotspot mixture rather than
    /// the uniform background.
    pub(crate) hotspot_share: f64,
    pub(crate) task_count: usize,
    pub(crate) driver_count: usize,
    pub(crate) driver_model: DriverModel,
    pub(crate) speed: SpeedModel,
    pub(crate) distance_km: TruncatedPareto,
    pub(crate) duration_noise: LogNormal,
    pub(crate) hourly_demand: [f64; 24],
    /// Publish lead time range in minutes (`t̄⁻ₘ − t̄ₘ`).
    pub(crate) lead_time_mins: (i64, i64),
    /// Relative slack added to each trip's completion window.
    pub(crate) window_slack_factor: f64,
    /// Home-work-home shift length range in hours.
    pub(crate) shift_hours: (f64, f64),
    /// Hitchhiking: shift length as a multiple of the direct commute time.
    pub(crate) hitchhike_slack: (f64, f64),
    /// Number of disjoint service regions (1 = the classic single-city
    /// trace). See [`TraceConfig::with_regions`].
    pub(crate) region_count: usize,
}

impl TraceConfig {
    /// A configuration calibrated to the Porto ECML/PKDD-15 trace:
    /// power-law trip distances (`α ≈ 2.0`, 1–28 km), urban speeds, and
    /// the city's demand hotspots.
    #[must_use]
    pub fn porto() -> Self {
        Self {
            seed: 0,
            bbox: porto::bounding_box(),
            hotspots: porto::demand_hotspots(),
            hotspot_sigma_km: porto::HOTSPOT_SIGMA_KM,
            hotspot_share: 0.8,
            task_count: 1000,
            driver_count: 100,
            driver_model: DriverModel::Hitchhiking,
            speed: SpeedModel::urban(),
            distance_km: TruncatedPareto::new(1.0, 28.0, 2.0),
            duration_noise: LogNormal::new(0.0, 0.18),
            hourly_demand: DEFAULT_HOURLY_DEMAND,
            lead_time_mins: (4, 15),
            window_slack_factor: 0.25,
            shift_hours: (3.0, 8.0),
            hitchhike_slack: (2.0, 6.0),
            region_count: 1,
        }
    }

    /// A same-day **product-delivery** configuration (the paper's second
    /// motivating domain — Google Express / Amazon Prime Now, §I).
    ///
    /// Deliveries differ from rides in their time structure: orders are
    /// placed well ahead (half an hour to four hours of lead time), the
    /// promised completion window is generous (several times the drive
    /// time), and pickups concentrate at two depot locations. The slack is
    /// what makes long task chains — and therefore a large task-map
    /// diameter `D` — possible.
    #[must_use]
    pub fn porto_delivery() -> Self {
        let depot_west = GeoPoint::new(41.2050, -8.6900); // Matosinhos logistics park
        let depot_east = GeoPoint::new(41.1700, -8.5500); // Campanhã freight yard
        Self {
            hotspots: vec![(depot_west, 0.55), (depot_east, 0.45)],
            hotspot_sigma_km: 0.4,
            hotspot_share: 0.95,
            lead_time_mins: (30, 240),
            window_slack_factor: 3.0,
            // Business-hours demand, no evening leisure peak.
            hourly_demand: [
                0.1, 0.1, 0.1, 0.1, 0.2, 0.5, 1.5, 3.0, 5.0, 6.0, 6.5, 6.0, 5.5, 6.0, 6.0, 5.5,
                5.0, 4.0, 2.5, 1.5, 0.8, 0.4, 0.2, 0.1,
            ],
            ..Self::porto()
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of tasks (customer orders) in the day.
    #[must_use]
    pub fn with_task_count(mut self, count: usize) -> Self {
        self.task_count = count;
        self
    }

    /// Sets the number of drivers and their working model.
    #[must_use]
    pub fn with_driver_count(mut self, count: usize, model: DriverModel) -> Self {
        self.driver_count = count;
        self.driver_model = model;
        self
    }

    /// Overrides the trip-distance distribution.
    #[must_use]
    pub fn with_distance_distribution(mut self, dist: TruncatedPareto) -> Self {
        self.distance_km = dist;
        self
    }

    /// Overrides the hourly demand profile (24 non-negative weights).
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    #[must_use]
    pub fn with_hourly_demand(mut self, demand: [f64; 24]) -> Self {
        assert!(demand.iter().sum::<f64>() > 0.0, "all-zero demand profile");
        self.hourly_demand = demand;
        self
    }

    /// Splits the market into `count` **disjoint service regions**:
    /// identical translated copies of the base service area, laid out
    /// west→east with a dead-space gap wide enough that *no driver in one
    /// region can ever interact with a task in another* — she cannot reach
    /// a foreign pickup within any order's publish→deadline lead, which is
    /// simultaneously the feasibility radius and the early-flush-epoch
    /// influence radius of the online engines. The gap is derived from the
    /// configured maximum lead time and speed model, so every trace built
    /// this way is a *legal region partition* by construction — the online
    /// analogue of the offline `disjoint_components` decomposition, and
    /// the workload the region-sharded streaming engine parallelises
    /// losslessly.
    ///
    /// Each trip and driver is assigned a uniformly random region
    /// (deterministic in the seed) and generated wholly inside it — region
    /// membership is recoverable from any of its points via
    /// [`TraceConfig::region_boxes`] (the "region tags" consumed by
    /// `rideshare-online`'s `BoxPartitioner`). `count = 1` is the classic
    /// single-city trace, bit-identical to not calling this at all.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn with_regions(mut self, count: usize) -> Self {
        assert!(count > 0, "need at least one region");
        self.region_count = count;
        self
    }

    /// Number of disjoint service regions (1 unless
    /// [`TraceConfig::with_regions`] was used).
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.region_count
    }

    /// The bounding box of each service region, in region order. With one
    /// region this is just the base service area.
    #[must_use]
    pub fn region_boxes(&self) -> Vec<BoundingBox> {
        let step = self.region_lon_step_deg();
        (0..self.region_count)
            .map(|r| {
                let shift = r as f64 * step;
                BoundingBox::new(
                    self.bbox.min_lat(),
                    self.bbox.max_lat(),
                    self.bbox.min_lon() + shift,
                    self.bbox.max_lon() + shift,
                )
            })
            .collect()
    }

    /// Longitude offset between consecutive regions: the base box width
    /// plus a gap exceeding the farthest any driver could travel within
    /// the maximum publish→deadline lead (straight-line, with the same
    /// 1-second rounding slack the candidate engines use, plus a 1 km
    /// safety margin). All points of one region shift by the *same*
    /// degrees, so within-region geometry — distances, durations, prices —
    /// is untouched.
    fn region_lon_step_deg(&self) -> f64 {
        let c = self.bbox.center();
        let km_per_deg_lon = GeoPoint::new(c.lat(), c.lon())
            .equirectangular_km(GeoPoint::new(c.lat(), c.lon() + 1.0));
        let max_lead = TimeDelta::from_mins(self.lead_time_mins.1) + TimeDelta::from_secs(2);
        let gap_km = self.speed.reachable_km(max_lead) + 1.0;
        (self.bbox.max_lon() - self.bbox.min_lon()) + gap_km / km_per_deg_lon
    }

    /// What one `generate` or `stream` call computes before its first
    /// draw. Never stored on the configuration: a struct-update literal
    /// (`TraceConfig { lead_time_mins, ..porto() }`) would leave a stored
    /// copy stale.
    pub(crate) fn run_constants(&self) -> RunConstants {
        RunConstants {
            hotspot_weights: self.hotspots.iter().map(|(_, w)| *w).collect(),
            region_step_deg: self.region_lon_step_deg(),
        }
    }

    /// The speed model trips were generated with.
    #[must_use]
    pub fn speed_model(&self) -> SpeedModel {
        self.speed
    }

    /// The service-area bounding box (all regions included).
    #[must_use]
    pub fn bounding_box(&self) -> BoundingBox {
        if self.region_count <= 1 {
            return self.bbox;
        }
        let shift = (self.region_count - 1) as f64 * self.region_lon_step_deg();
        BoundingBox::new(
            self.bbox.min_lat(),
            self.bbox.max_lat(),
            self.bbox.min_lon(),
            self.bbox.max_lon() + shift,
        )
    }

    /// The configured RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured task count.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.task_count
    }

    /// Generates the trace.
    #[must_use]
    pub fn generate(&self) -> Trace {
        let run = self.run_constants();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut trips: Vec<TripRecord> = (0..self.task_count)
            .map(|i| self.gen_trip(&mut rng, &run, TaskId::new(i as u32)))
            .collect();
        trips.sort_by_key(|t| t.publish_time);
        // Re-number so ids follow publish order (stable replay identity).
        for (i, t) in trips.iter_mut().enumerate() {
            t.id = TaskId::new(i as u32);
        }
        let drivers: Vec<Driver> = (0..self.driver_count)
            .map(|i| self.gen_driver(&mut rng, &run, DriverId::new(i as u32)))
            .collect();
        Trace {
            trips,
            drivers,
            speed: self.speed,
            bbox: self.bounding_box(),
        }
    }

    fn sample_pickup_point<R: Rng + ?Sized>(&self, rng: &mut R, run: &RunConstants) -> GeoPoint {
        if rng.gen::<f64>() < self.hotspot_share && !self.hotspots.is_empty() {
            let (center, _) = self.hotspots[sample_categorical(rng, &run.hotspot_weights)];
            // Gaussian cloud around the hotspot, clamped into the box.
            for _ in 0..16 {
                let p = center.offset_km(
                    self.hotspot_sigma_km * standard_normal(rng),
                    self.hotspot_sigma_km * standard_normal(rng),
                );
                if self.bbox.contains(p) {
                    return p;
                }
            }
            center
        } else {
            self.bbox.lerp(rng.gen(), rng.gen())
        }
    }

    /// Picks a destination `driven_km` away from `origin`, trying random
    /// bearings until the endpoint falls inside the service area.
    fn sample_destination<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        origin: GeoPoint,
        driven_km: f64,
    ) -> GeoPoint {
        let straight_km = driven_km / self.speed.detour_factor();
        for _ in 0..24 {
            let theta = rng.gen::<f64>() * core::f64::consts::TAU;
            let p = origin.offset_km(straight_km * theta.sin(), straight_km * theta.cos());
            if self.bbox.contains(p) {
                return p;
            }
        }
        // Long trip near the border: head toward the centre instead.
        let c = self.bbox.center();
        let toward = origin.equirectangular_km(c).max(1e-6);
        let f = (straight_km / toward).min(1.0);
        GeoPoint::new(
            origin.lat() + (c.lat() - origin.lat()) * f,
            origin.lon() + (c.lon() - origin.lon()) * f,
        )
    }

    fn gen_trip<R: Rng + ?Sized>(&self, rng: &mut R, run: &RunConstants, id: TaskId) -> TripRecord {
        let hour = sample_categorical(rng, &self.hourly_demand);
        self.gen_trip_in_hour(rng, run, id, hour)
    }

    /// Generates one trip whose pickup deadline falls in `hour` — the body
    /// of [`TraceConfig::generate`]'s per-trip sampling with the hour fixed
    /// externally, so the streaming generator (`TraceConfig::stream`) can
    /// emit hours in order. Draw-for-draw identical to `gen_trip` after the
    /// hour choice.
    pub(crate) fn gen_trip_in_hour<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        run: &RunConstants,
        id: TaskId,
        hour: usize,
    ) -> TripRecord {
        // Region draw first, so single-region traces consume the RNG
        // exactly as before `with_regions` existed (seed stability).
        let region = if self.region_count > 1 {
            rng.gen_range(0..self.region_count)
        } else {
            0
        };
        let within = rng.gen_range(0..3600);
        let pickup_deadline = Timestamp::from_hours(hour as i64) + TimeDelta::from_secs(within);

        let origin = self.sample_pickup_point(rng, run);
        let driven_km = self.distance_km.sample(rng);
        let destination = self.sample_destination(rng, origin, driven_km);
        // Realised driven distance after the in-box clamp.
        let driven_km = self
            .speed
            .driven_km(origin, destination)
            .max(self.distance_km.xmin());

        let base = self.speed.travel_time_for_km(driven_km);
        let duration =
            TimeDelta::from_secs_f64(base.as_secs() as f64 * self.duration_noise.sample(rng))
                .max(TimeDelta::from_secs(60));

        let slack_secs = (duration.as_secs() as f64 * self.window_slack_factor) as i64 + 120;
        let completion_deadline = pickup_deadline + duration + TimeDelta::from_secs(slack_secs);

        let lead = rng.gen_range(self.lead_time_mins.0..=self.lead_time_mins.1);
        let publish_time = pickup_deadline - TimeDelta::from_mins(lead);

        let trip = TripRecord {
            id,
            publish_time,
            // The translation shifts every point of the region by the same
            // longitude delta, so it preserves within-region distances and
            // everything derived from them above.
            origin: run.translate_to_region(origin, region),
            destination: run.translate_to_region(destination, region),
            pickup_deadline,
            completion_deadline,
            distance_km: driven_km,
            duration,
        };
        debug_assert!(trip.validate().is_ok(), "generated invalid trip");
        trip
    }

    pub(crate) fn gen_driver<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        run: &RunConstants,
        id: DriverId,
    ) -> Driver {
        let region = if self.region_count > 1 {
            rng.gen_range(0..self.region_count)
        } else {
            0
        };
        let shift = self.gen_driver_in_base(rng, run, id);
        Driver {
            source: run.translate_to_region(shift.source, region),
            destination: run.translate_to_region(shift.destination, region),
            ..shift
        }
    }

    fn gen_driver_in_base<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        run: &RunConstants,
        id: DriverId,
    ) -> Driver {
        match self.driver_model {
            DriverModel::HomeWorkHome => {
                let home = self.bbox.lerp(rng.gen(), rng.gen());
                let len_h = rng.gen_range(self.shift_hours.0..self.shift_hours.1);
                let latest_start = (24.0 - len_h).max(0.0);
                let start_h = rng.gen_range(0.0..latest_start);
                let start = Timestamp::from_secs((start_h * 3600.0) as i64);
                let end = start + TimeDelta::from_secs((len_h * 3600.0) as i64);
                Driver {
                    id,
                    source: home,
                    destination: home,
                    shift_start: start,
                    shift_end: end,
                    model: DriverModel::HomeWorkHome,
                }
            }
            DriverModel::Hitchhiking => {
                let source = self.sample_pickup_point(rng, run);
                let mut destination = self.sample_pickup_point(rng, run);
                // A commute of zero length defeats the model; nudge apart.
                if source.equirectangular_km(destination) < 0.5 {
                    destination = destination.offset_km(1.0, 1.0);
                }
                let commute = self.speed.travel_time(source, destination);
                let slack = rng.gen_range(self.hitchhike_slack.0..self.hitchhike_slack.1);
                let window = TimeDelta::from_secs_f64(commute.as_secs() as f64 * slack)
                    .max(TimeDelta::from_mins(30));
                let latest = (24 * 3600 - window.as_secs()).max(0);
                let start = Timestamp::from_secs(rng.gen_range(0..=latest));
                Driver {
                    id,
                    source,
                    destination,
                    shift_start: start,
                    shift_end: start + window,
                    model: DriverModel::Hitchhiking,
                }
            }
        }
    }
}

/// The part of a [`TraceConfig`] every trip and driver would otherwise
/// recompute, derived once per `generate` / `stream` call by
/// `TraceConfig::run_constants`.
#[derive(Debug)]
pub(crate) struct RunConstants {
    /// The hotspot mixture's weights, in `hotspots` order.
    hotspot_weights: Vec<f64>,
    /// `TraceConfig::region_lon_step_deg`.
    region_step_deg: f64,
}

impl RunConstants {
    /// Translates `p` from the base service area into region `r`.
    fn translate_to_region(&self, p: GeoPoint, r: usize) -> GeoPoint {
        if r == 0 {
            return p;
        }
        GeoPoint::new(p.lat(), p.lon() + r as f64 * self.region_step_deg)
    }
}

/// One generated day of market activity.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Customer orders, sorted by publish time.
    pub trips: Vec<TripRecord>,
    /// Driver shifts.
    pub drivers: Vec<Driver>,
    /// The speed/cost model the trace was generated with.
    pub speed: SpeedModel,
    /// The service area.
    pub bbox: BoundingBox,
}

impl Trace {
    /// Total driven distance over all trips, in kilometres.
    #[must_use]
    pub fn total_trip_km(&self) -> f64 {
        self.trips.iter().map(|t| t.distance_km).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Trace {
        TraceConfig::porto()
            .with_seed(42)
            .with_task_count(300)
            .with_driver_count(30, DriverModel::Hitchhiking)
            .generate()
    }

    #[test]
    fn all_records_valid() {
        let t = small();
        for trip in &t.trips {
            trip.validate().unwrap();
            assert!(t.bbox.contains(trip.origin), "origin outside box");
            assert!(t.bbox.contains(trip.destination), "destination outside box");
        }
        for d in &t.drivers {
            d.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.trips, b.trips);
        assert_eq!(a.drivers, b.drivers);
        let c = TraceConfig::porto()
            .with_seed(43)
            .with_task_count(300)
            .with_driver_count(30, DriverModel::Hitchhiking)
            .generate();
        assert_ne!(a.trips, c.trips);
    }

    #[test]
    fn trips_sorted_and_densely_numbered() {
        let t = small();
        for (i, trip) in t.trips.iter().enumerate() {
            assert_eq!(trip.id.index(), i);
        }
        assert!(t
            .trips
            .windows(2)
            .all(|w| w[0].publish_time <= w[1].publish_time));
    }

    #[test]
    fn home_work_home_loops() {
        let t = TraceConfig::porto()
            .with_seed(9)
            .with_task_count(10)
            .with_driver_count(50, DriverModel::HomeWorkHome)
            .generate();
        for d in &t.drivers {
            assert_eq!(d.source, d.destination);
            assert_eq!(d.model, DriverModel::HomeWorkHome);
            let h = d.shift_length().as_hours_f64();
            assert!((3.0..=8.0).contains(&h), "shift {h}h out of range");
        }
    }

    #[test]
    fn hitchhiking_shifts_cover_commute() {
        let t = small();
        for d in &t.drivers {
            let commute = t.speed.travel_time(d.source, d.destination);
            assert!(
                d.shift_length() >= commute,
                "shift shorter than direct commute"
            );
        }
    }

    #[test]
    fn distances_heavy_tailed() {
        let t = TraceConfig::porto()
            .with_seed(3)
            .with_task_count(5000)
            .with_driver_count(1, DriverModel::Hitchhiking)
            .generate();
        let mut kms: Vec<f64> = t.trips.iter().map(|x| x.distance_km).collect();
        kms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = kms[kms.len() / 2];
        let mean = kms.iter().sum::<f64>() / kms.len() as f64;
        assert!(mean > 1.2 * median, "mean {mean} median {median}");
        // Porto trips: median around 2-4 km.
        assert!((1.0..6.0).contains(&median), "median {median}");
    }

    #[test]
    fn demand_profile_respected() {
        // All demand at hour 12 → every pickup deadline in [12:00, 13:00).
        let mut demand = [0.0; 24];
        demand[12] = 1.0;
        let t = TraceConfig::porto()
            .with_seed(5)
            .with_task_count(200)
            .with_hourly_demand(demand)
            .generate();
        for trip in &t.trips {
            let h = trip.pickup_deadline.as_secs() / 3600;
            assert_eq!(h, 12);
        }
    }

    #[test]
    fn delivery_preset_has_delivery_time_structure() {
        let rides = TraceConfig::porto()
            .with_seed(12)
            .with_task_count(400)
            .generate();
        let deliveries = TraceConfig::porto_delivery()
            .with_seed(12)
            .with_task_count(400)
            .generate();
        let avg_lead = |t: &Trace| {
            t.trips
                .iter()
                .map(|x| (x.pickup_deadline - x.publish_time).as_mins_f64())
                .sum::<f64>()
                / t.trips.len() as f64
        };
        let avg_slack = |t: &Trace| {
            t.trips
                .iter()
                .map(|x| x.window_slack().as_mins_f64())
                .sum::<f64>()
                / t.trips.len() as f64
        };
        assert!(
            avg_lead(&deliveries) > 3.0 * avg_lead(&rides),
            "delivery lead {} vs ride lead {}",
            avg_lead(&deliveries),
            avg_lead(&rides)
        );
        assert!(
            avg_slack(&deliveries) > 3.0 * avg_slack(&rides),
            "delivery slack {} vs ride slack {}",
            avg_slack(&deliveries),
            avg_slack(&rides)
        );
        for trip in &deliveries.trips {
            trip.validate().unwrap();
        }
    }

    #[test]
    fn delivery_pickups_cluster_at_depots() {
        let t = TraceConfig::porto_delivery()
            .with_seed(13)
            .with_task_count(500)
            .generate();
        let depot_west = GeoPoint::new(41.2050, -8.6900);
        let depot_east = GeoPoint::new(41.1700, -8.5500);
        let near_depot = t
            .trips
            .iter()
            .filter(|x| {
                x.origin.haversine_km(depot_west) < 2.0 || x.origin.haversine_km(depot_east) < 2.0
            })
            .count();
        assert!(
            near_depot as f64 > 0.8 * t.trips.len() as f64,
            "only {near_depot}/500 pickups near a depot"
        );
    }

    #[test]
    fn regions_are_disjoint_beyond_interaction_range() {
        let cfg = TraceConfig::porto()
            .with_seed(21)
            .with_task_count(400)
            .with_driver_count(40, DriverModel::Hitchhiking)
            .with_regions(3);
        let t = cfg.generate();
        let boxes = cfg.region_boxes();
        assert_eq!(boxes.len(), 3);
        let region_of = |p: GeoPoint| boxes.iter().position(|b| b.contains(p));

        let mut seen = [false; 3];
        for trip in &t.trips {
            let r = region_of(trip.origin).expect("origin outside every region");
            assert_eq!(region_of(trip.destination), Some(r), "trip crosses regions");
            seen[r] = true;
        }
        for d in &t.drivers {
            let r = region_of(d.source).expect("driver outside every region");
            assert_eq!(region_of(d.destination), Some(r), "driver crosses regions");
        }
        assert!(seen.iter().all(|&s| s), "a region got no demand");

        // Legality: no driver can reach a foreign task's pickup within its
        // publish→deadline lead — the sharding proof obligation.
        for d in &t.drivers {
            let dr = region_of(d.source).unwrap();
            for trip in &t.trips {
                if region_of(trip.origin) == Some(dr) {
                    continue;
                }
                let lead = trip.pickup_deadline - trip.publish_time;
                assert!(
                    t.speed.travel_time(d.source, trip.origin)
                        > lead + rideshare_types::TimeDelta::from_secs(1),
                    "driver {} can interact with foreign trip {}",
                    d.id,
                    trip.id
                );
            }
        }
    }

    #[test]
    fn region_translation_preserves_trip_statistics() {
        // Multi-region trips have the same distance/duration marginals as
        // the base city: translation is geometry-preserving.
        let base = TraceConfig::porto().with_seed(22).with_task_count(1500);
        let split = base.clone().with_regions(4);
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let base_med = median(
            base.generate()
                .trips
                .iter()
                .map(|t| t.distance_km)
                .collect(),
        );
        let split_med = median(
            split
                .generate()
                .trips
                .iter()
                .map(|t| t.distance_km)
                .collect(),
        );
        assert!(
            (base_med - split_med).abs() / base_med < 0.25,
            "base {base_med} vs regional {split_med}"
        );
        for trip in split.generate().trips.iter().take(200) {
            trip.validate().unwrap();
            assert!(split.bounding_box().contains(trip.origin));
            assert!(split.bounding_box().contains(trip.destination));
        }
    }

    #[test]
    fn single_region_is_seed_stable() {
        // `with_regions(1)` must not consume RNG differently from the
        // pre-region generator: existing seeds keep their traces.
        let a = TraceConfig::porto()
            .with_seed(23)
            .with_task_count(60)
            .generate();
        let b = TraceConfig::porto()
            .with_seed(23)
            .with_task_count(60)
            .with_regions(1)
            .generate();
        assert_eq!(a.trips, b.trips);
        assert_eq!(a.drivers, b.drivers);
    }

    #[test]
    fn regional_stream_matches_regional_generate_contract() {
        // The lazy stream honours regions too: publish-sorted, dense ids,
        // all points inside some region box.
        let cfg = TraceConfig::porto()
            .with_seed(24)
            .with_task_count(300)
            .with_driver_count(20, DriverModel::Hitchhiking)
            .with_regions(2);
        let stream = cfg.stream();
        let boxes = stream.region_boxes();
        assert_eq!(boxes.len(), 2);
        let mut last = Timestamp::from_secs(i64::MIN);
        for (i, trip) in stream.enumerate() {
            assert_eq!(trip.id.index(), i);
            assert!(trip.publish_time >= last);
            last = trip.publish_time;
            assert!(
                boxes.iter().any(|b| b.contains(trip.origin)),
                "origin in no region"
            );
        }
    }

    #[test]
    fn lead_times_stay_in_the_preset_range() {
        let preset = TraceConfig {
            lead_time_mins: (20, 40),
            ..TraceConfig::porto()
        };
        let t = preset.with_seed(14).with_task_count(50).generate();
        for trip in &t.trips {
            let lead = (trip.pickup_deadline - trip.publish_time).as_mins_f64();
            assert!((20.0..=40.0).contains(&lead), "lead {lead}");
        }
    }
}
