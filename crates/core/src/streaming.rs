//! Task pricing: the paper's one pricing rule, Eq. 15 (§VI-A), and the
//! willingness-to-pay draw, one trip at a time.
//!
//! ```text
//! pₘ = αₘ · (β₁ · dis(s̄ₘ, d̄ₘ) + β₂ · (t̄⁺ₘ − t̄⁻ₘ))
//! ```
//!
//! `β₁` and `β₂` are the paper's "global constants"; here they are the
//! Porto taxi tariff (€0.47/km and €0.25/min over a €2 flag drop). `αₘ` is
//! the Uber-style *surge multiplier* — "the price rate … increases when
//! demand is higher than supply for a given geographic area" (§III-A,
//! citing Chen & Sheldon) — read from a clamped power curve of a 12 × 12
//! grid cell's demand/supply ratio ([`SurgeConfig`], [`SurgeEngine`]). A
//! customer publishes only when their valuation `bₘ ≥ pₘ`, so `bₘ` is drawn
//! as the price times `1 + LogNormal(−1.5, 0.8)`.
//!
//! [`StreamPricer`] is the only place a trip becomes a [`Task`]. A
//! streaming replay prices trips as they arrive, keeping
//! `O(grid cells + drivers)` state;
//! [`Market::from_trace`](crate::Market::from_trace) maps the same pricer
//! over a whole trace.
//!
//! # Where the surge multiplier comes from
//!
//! The paper only requires `pₘ` to be fixed by publish time — which is
//! exactly what makes pricing streamable at all:
//!
//! - with [`MarketBuildOptions::surge_window`] set, the pricer runs the
//!   **rolling-window dynamic surge** — per-cell demand over the trailing
//!   window against drivers whose shift covers the instant. Trips must
//!   arrive in publish order; `from_trace` and a stream then produce
//!   byte-identical tasks. Publish order is also what lets supply be
//!   counted by two forward-only cursors over each cell's sorted shift
//!   starts and ends, rather than by a scan of its drivers per trip;
//! - with `surge_window = None`, `from_trace` — which has the entire
//!   trace in hand — prices from a **static whole-day snapshot**: one
//!   demand/supply count, hence one multiplier, per grid cell, in whatever
//!   order the trips are listed;
//! - a stream with `surge_window = None` cannot know that snapshot before
//!   the first order is priced (no online platform can), so
//!   [`StreamPricer::new`] then charges the **un-surged** fare
//!   (multiplier 1) — equivalent to `from_trace` with
//!   [`SurgeConfig::disabled`].
//!
//! # Examples
//!
//! ```
//! use rideshare_core::{Market, MarketBuildOptions, StreamPricer};
//! use rideshare_trace::{DriverModel, TraceConfig};
//! use rideshare_types::TimeDelta;
//!
//! let config = TraceConfig::porto()
//!     .with_seed(2)
//!     .with_task_count(300)
//!     .with_driver_count(15, DriverModel::Hitchhiking);
//! let opts = MarketBuildOptions {
//!     surge_window: Some(TimeDelta::from_mins(30)),
//!     ..MarketBuildOptions::default()
//! };
//!
//! // Stream pipeline: price trips one at a time…
//! let stream = config.stream();
//! let mut pricer = StreamPricer::new(&opts, stream.bounding_box(), stream.speed(), stream.drivers());
//! let streamed: Vec<_> = stream.map(|trip| pricer.price(&trip)).collect();
//!
//! // …and it matches materialised pricing of the same trips exactly.
//! let market = Market::from_trace(&config.stream().collect_trace(), &opts);
//! assert_eq!(streamed, market.tasks());
//! ```

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rideshare_geo::{BoundingBox, CellId, GridIndex, SpeedModel};
use rideshare_trace::{Driver, Task, Trace, TripRecord};
use rideshare_types::{Money, TimeDelta, Timestamp};

use crate::market::MarketBuildOptions;

/// Eq. 15's flag drop (€). With `β₁` and `β₂` below it keeps fares
/// comfortably above the €0.12/km driving cost, so the market has positive
/// surplus, as in the real trace.
const BASE_FARE: f64 = 2.0;
/// Eq. 15's `β₁` (€ per km driven).
const BETA1_PER_KM: f64 = 0.47;
/// Eq. 15's `β₂` (€ per minute of the task's time window).
const BETA2_PER_MIN: f64 = 0.25;
/// `μ` of the valuation markup's `LogNormal(μ, σ)` surplus: a median
/// surplus of `e^μ ≈ 22%` of the fare, consistent with consumer-surplus
/// estimates for ride-sharing (Cramer & Krueger).
const WTP_MU: f64 = -1.5;
/// `σ` of the valuation markup's surplus: moderate dispersion.
const WTP_SIGMA: f64 = 0.8;
/// Rows and columns of the grid whose cells the surge counts demand and
/// supply in.
const SURGE_GRID: (u16, u16) = (12, 12);

/// Eq. 15: the fare of a trip of `distance_km` whose time window is
/// `window` (clamped at zero), at surge multiplier `alpha`.
///
/// # Panics
///
/// Panics if `alpha < 1` (surge never discounts below the base rate) or
/// `distance_km < 0`.
fn fare(distance_km: f64, window: TimeDelta, alpha: f64) -> Money {
    assert!(distance_km >= 0.0, "negative distance");
    assert!(alpha >= 1.0, "surge multiplier below 1: {alpha}");
    let mins = window.as_mins_f64().max(0.0);
    Money::new(alpha * (BASE_FARE + BETA1_PER_KM * distance_km + BETA2_PER_MIN * mins))
}

/// Draws a customer's valuation `bₘ ≥ pₘ` for a task priced at `price`:
/// the price times `1 + LogNormal(WTP_MU, WTP_SIGMA)` (Box–Muller).
fn draw_valuation(rng: &mut StdRng, price: Money) -> Money {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let surplus = (WTP_MU + WTP_SIGMA * normal).exp();
    price * (1.0 + surplus)
}

/// The surge curve `α = clamp((D / max(S, 1))^exponent, 1, cap)`: one of
/// two presets.
///
/// The fields are private, so no other curve can be built — in
/// particular no cap below 1, on which the clamp would panic:
///
/// ```compile_fail
/// let _ = rideshare_core::SurgeConfig { exponent: 0.5, cap: 0.5 };
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SurgeConfig {
    /// Exponent of the demand/supply ratio (0 disables surge entirely).
    exponent: f64,
    /// Upper cap on the multiplier, at least 1.
    cap: f64,
}

impl SurgeConfig {
    /// The measured Uber shape: square-root response capped at 3×
    /// (Uber historically capped surges around 3–5× outside emergencies).
    #[must_use]
    pub fn uber_like() -> Self {
        Self {
            exponent: 0.5,
            cap: 3.0,
        }
    }

    /// Disables surge: every multiplier is exactly 1.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            exponent: 0.0,
            cap: 1.0,
        }
    }

    /// Evaluates the curve for explicit counts:
    /// `clamp((demand / max(supply, 1))^exponent, 1, cap)`. A cell with no
    /// demand is never surged; supply is floored at one virtual driver so
    /// empty cells do not divide by zero.
    fn multiplier_for(self, demand: u32, supply: u32) -> f64 {
        let d = f64::from(demand);
        if d == 0.0 || self.exponent == 0.0 {
            return 1.0;
        }
        let s = f64::from(supply.max(1));
        (d / s).powf(self.exponent).clamp(1.0, self.cap)
    }
}

/// Tracks per-cell demand and supply and produces multipliers.
///
/// The whole-day snapshot calls [`SurgeEngine::add_demand`] for each task
/// published in a cell and [`SurgeEngine::add_supply`] for each driver
/// based in one.
///
/// # Examples
///
/// ```
/// use rideshare_core::{SurgeConfig, SurgeEngine};
/// use rideshare_geo::CellId;
///
/// let mut surge = SurgeEngine::new(SurgeConfig::uber_like());
/// let cell = CellId::new(3, 4);
/// assert_eq!(surge.multiplier(cell), 1.0); // balanced by default
/// for _ in 0..9 {
///     surge.add_demand(cell);
/// }
/// surge.add_supply(cell);
/// // ratio 9: sqrt(9) = 3, at the cap.
/// assert_eq!(surge.multiplier(cell), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct SurgeEngine {
    config: SurgeConfig,
    demand: BTreeMap<CellId, u32>,
    supply: BTreeMap<CellId, u32>,
}

impl SurgeEngine {
    /// Creates an engine with the given curve and no counts.
    #[must_use]
    pub fn new(config: SurgeConfig) -> Self {
        Self {
            config,
            demand: BTreeMap::new(),
            supply: BTreeMap::new(),
        }
    }

    /// Registers one task in `cell`.
    pub fn add_demand(&mut self, cell: CellId) {
        *self.demand.entry(cell).or_insert(0) += 1;
    }

    /// Registers one driver in `cell`.
    pub fn add_supply(&mut self, cell: CellId) {
        *self.supply.entry(cell).or_insert(0) += 1;
    }

    /// Demand counted in `cell`.
    #[must_use]
    pub fn demand(&self, cell: CellId) -> u32 {
        self.demand.get(&cell).copied().unwrap_or(0)
    }

    /// Supply counted in `cell`.
    #[must_use]
    pub fn supply(&self, cell: CellId) -> u32 {
        self.supply.get(&cell).copied().unwrap_or(0)
    }

    /// The surge multiplier for `cell`:
    /// `clamp((D / max(S, 1))^exponent, 1, cap)`.
    #[must_use]
    pub fn multiplier(&self, cell: CellId) -> f64 {
        self.config
            .multiplier_for(self.demand(cell), self.supply(cell))
    }
}

/// Prices trips into [`Task`]s one at a time — on a stream in
/// `O(grid cells + drivers)` memory, and as the body of
/// [`crate::Market::from_trace`]. See the module docs for the surge
/// sources.
#[derive(Clone, Debug)]
pub struct StreamPricer {
    rng: StdRng,
    speed: SpeedModel,
    grid: GridIndex,
    surge: Surge,
}

/// Where a trip's surge multiplier comes from (see the module docs).
#[derive(Clone, Debug)]
enum Surge {
    /// Multiplier 1.
    Unsurged,
    /// Demand in the trip's cell over the trailing `window` against
    /// drivers on shift there — the one source that depends on the order
    /// trips are priced in.
    Rolling {
        config: SurgeConfig,
        window: TimeDelta,
        /// Per-cell FIFO of recent publish times, indexed by grid slot.
        recent: Vec<VecDeque<Timestamp>>,
        /// Per-cell count of drivers on shift, indexed by grid slot
        /// (supply is "shift covers the publish instant and home cell is
        /// here": position-at-publish is unknowable ahead of dispatch; the
        /// home cell is the standard approximation).
        supply: Vec<OnShift>,
        last_publish: Option<Timestamp>,
    },
    /// One whole-day demand/supply count per cell.
    Snapshot(SurgeEngine),
}

/// The drivers of one cell whose shift `[start, end]` covers an instant,
/// counted by two cursors over sorted shift bounds instead of a scan.
///
/// For `start ≤ end`, "covers `t`" is `start ≤ t` and not `end < t`, and
/// `end < t` implies `start ≤ t`, so the count is `#{start ≤ t} − #{end <
/// t}`. Both counts only grow while `t` does not decrease, which is the
/// publish order [`StreamPricer::price`] enforces. An inverted shift
/// (`end < start`) covers no instant and is left out of both lists, so
/// the subtraction cannot underflow.
#[derive(Clone, Debug, Default)]
struct OnShift {
    /// Shift starts, ascending.
    starts: Vec<Timestamp>,
    /// Shift ends, ascending.
    ends: Vec<Timestamp>,
    /// `#{start ≤ t}` at the last instant counted.
    started: usize,
    /// `#{end < t}` at the last instant counted.
    ended: usize,
}

impl OnShift {
    /// Builds one counter per grid slot from the drivers' home cells.
    fn per_slot(grid: &GridIndex, drivers: &[Driver]) -> Vec<Self> {
        let mut slots = vec![Self::default(); grid.slot_count()];
        for d in drivers.iter().filter(|d| d.shift_start <= d.shift_end) {
            let slot = &mut slots[grid.slot_of(d.source)];
            slot.starts.push(d.shift_start);
            slot.ends.push(d.shift_end);
        }
        for slot in &mut slots {
            slot.starts.sort_unstable();
            slot.ends.sort_unstable();
        }
        slots
    }

    /// Shifts covering `t`; `t` must not precede the previous call's.
    fn count_at(&mut self, t: Timestamp) -> usize {
        while self.starts.get(self.started).is_some_and(|&s| s <= t) {
            self.started += 1;
        }
        while self.ends.get(self.ended).is_some_and(|&e| e < t) {
            self.ended += 1;
        }
        self.started - self.ended
    }
}

impl StreamPricer {
    /// Creates a pricer over the service area `bbox` with the day's driver
    /// shifts (needed for the dynamic surge's supply side; `O(drivers)`).
    ///
    /// # Panics
    ///
    /// Panics if [`MarketBuildOptions::surge_window`] is negative.
    #[must_use]
    pub fn new(
        opts: &MarketBuildOptions,
        bbox: BoundingBox,
        speed: SpeedModel,
        drivers: &[Driver],
    ) -> Self {
        let (rows, cols) = SURGE_GRID;
        let grid = GridIndex::new(bbox, rows, cols);
        let surge = match opts.surge_window {
            None => Surge::Unsurged,
            Some(window) => {
                assert!(
                    window.is_non_negative(),
                    "surge window must be non-negative"
                );
                Surge::Rolling {
                    config: opts.surge,
                    window,
                    recent: vec![VecDeque::new(); grid.slot_count()],
                    supply: OnShift::per_slot(&grid, drivers),
                    last_publish: None,
                }
            }
        };
        Self {
            rng: StdRng::seed_from_u64(opts.wtp_seed),
            speed,
            grid,
            surge,
        }
    }

    /// The pricer [`crate::Market::from_trace`] maps over `trace.trips`:
    /// [`StreamPricer::new`], except that without a rolling window the
    /// whole trace is in hand, so surge comes from its static snapshot.
    pub(crate) fn for_trace(opts: &MarketBuildOptions, trace: &Trace) -> Self {
        let mut pricer = Self::new(opts, trace.bbox, trace.speed, &trace.drivers);
        if opts.surge_window.is_none() {
            let mut snapshot = SurgeEngine::new(opts.surge);
            for trip in &trace.trips {
                snapshot.add_demand(pricer.grid.cell_of(trip.origin));
            }
            for d in &trace.drivers {
                snapshot.add_supply(pricer.grid.cell_of(d.source));
            }
            pricer.surge = Surge::Snapshot(snapshot);
        }
        pricer
    }

    /// Prices the next trip. The WTP draw sequence follows call order;
    /// under the rolling surge window, calls must also be in publish order,
    /// which both the demand window and the supply cursors rely on.
    ///
    /// # Panics
    ///
    /// Panics if the surge window is rolling and `trip` publishes earlier
    /// than the previous one.
    pub fn price(&mut self, trip: &TripRecord) -> Task {
        let alpha = match &mut self.surge {
            Surge::Unsurged => 1.0,
            Surge::Snapshot(snapshot) => snapshot.multiplier(self.grid.cell_of(trip.origin)),
            Surge::Rolling {
                config,
                window,
                recent,
                supply,
                last_publish,
            } => {
                if let Some(last) = *last_publish {
                    assert!(
                        trip.publish_time >= last,
                        "trips must be priced in publish order: {} after {last}",
                        trip.publish_time
                    );
                }
                *last_publish = Some(trip.publish_time);
                let slot = self.grid.slot_of(trip.origin);
                let q = &mut recent[slot];
                let oldest = trip.publish_time - *window;
                while q.front().is_some_and(|&front| front < oldest) {
                    q.pop_front();
                }
                q.push_back(trip.publish_time);
                let demand = q.len() as u32;
                let supply = supply[slot].count_at(trip.publish_time) as u32;
                config.multiplier_for(demand, supply)
            }
        };

        let window = trip.completion_deadline - trip.pickup_deadline;
        let price = fare(trip.distance_km, window, alpha);
        let valuation = draw_valuation(&mut self.rng, price);
        Task {
            id: trip.id,
            publish_time: trip.publish_time,
            origin: trip.origin,
            destination: trip.destination,
            pickup_deadline: trip.pickup_deadline,
            completion_deadline: trip.completion_deadline,
            duration: trip.duration,
            price,
            valuation,
            service_cost: self.speed.cost_for_km(trip.distance_km),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::Market;
    use rideshare_trace::{DriverModel, TraceConfig};

    fn config(seed: u64) -> TraceConfig {
        TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(400)
            .with_driver_count(10, DriverModel::Hitchhiking)
    }

    fn stream_tasks(cfg: &TraceConfig, opts: &MarketBuildOptions) -> Vec<Task> {
        let stream = cfg.stream();
        let mut pricer = StreamPricer::new(
            opts,
            stream.bounding_box(),
            stream.speed(),
            stream.drivers(),
        );
        stream.map(|t| pricer.price(&t)).collect()
    }

    #[test]
    fn dynamic_surge_matches_from_trace_exactly() {
        let cfg = config(31);
        let opts = MarketBuildOptions {
            surge_window: Some(TimeDelta::from_mins(30)),
            ..MarketBuildOptions::default()
        };
        let streamed = stream_tasks(&cfg, &opts);
        let market = Market::from_trace(&cfg.stream().collect_trace(), &opts);
        assert_eq!(streamed.as_slice(), market.tasks());
    }

    #[test]
    fn disabled_surge_matches_from_trace_exactly() {
        let cfg = config(32);
        let opts = MarketBuildOptions {
            surge: SurgeConfig::disabled(),
            ..MarketBuildOptions::default()
        };
        let streamed = stream_tasks(&cfg, &opts);
        let market = Market::from_trace(&cfg.stream().collect_trace(), &opts);
        assert_eq!(streamed.as_slice(), market.tasks());
    }

    #[test]
    fn no_window_means_unsurged_fares() {
        // With surge enabled but no rolling window, the stream cannot know
        // the whole-day snapshot; it charges the flat fare instead.
        let cfg = config(33);
        let surged = stream_tasks(&cfg, &MarketBuildOptions::default());
        let flat = stream_tasks(
            &cfg,
            &MarketBuildOptions {
                surge: SurgeConfig::disabled(),
                ..MarketBuildOptions::default()
            },
        );
        for (a, b) in surged.iter().zip(&flat) {
            assert!(a.price.approx_eq(b.price));
        }
    }

    #[test]
    fn ir_and_margins_hold_streamed() {
        let cfg = config(34);
        let opts = MarketBuildOptions {
            surge_window: Some(TimeDelta::from_mins(20)),
            ..MarketBuildOptions::default()
        };
        for task in stream_tasks(&cfg, &opts) {
            assert!(task.valuation >= task.price, "IR: bₘ ≥ pₘ");
            assert!(crate::market::Objective::Profit
                .margin(&task)
                .is_strictly_positive());
        }
    }

    #[test]
    fn snapshot_pricing_takes_trips_in_any_order() {
        // A hand-edited trips file need not be publish-sorted; the
        // whole-day snapshot gives a cell one multiplier whatever the
        // order, so `from_trace` accepts it and fares do not move (only
        // the WTP draws follow listing order).
        let trace = config(36).generate();
        let mut reversed = trace.clone();
        reversed.trips.reverse();
        let opts = MarketBuildOptions::default();
        let sorted = Market::from_trace(&trace, &opts);
        let shuffled = Market::from_trace(&reversed, &opts);
        for (a, b) in sorted.tasks().iter().zip(shuffled.tasks().iter().rev()) {
            assert_eq!((a.id, a.price), (b.id, b.price));
        }
    }

    #[test]
    fn supply_cursors_match_the_shift_scan() {
        use rand::Rng;
        use rideshare_trace::DriverModel;
        use rideshare_types::DriverId;

        let bbox = BoundingBox::new(41.10, 41.20, -8.70, -8.55);
        let grid = GridIndex::new(bbox, 3, 3);
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Shifts of every shape: ordinary, zero-length and inverted,
            // with repeated bounds so ties at `t` are common.
            let drivers: Vec<Driver> = (0..rng.gen_range(0..60))
                .map(|i| {
                    let start = Timestamp::from_secs(rng.gen_range(0..40i64) * 25);
                    let length: i64 = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => -rng.gen_range(1..200i64),
                        _ => rng.gen_range(1..400),
                    };
                    let at = bbox.lerp(rng.gen(), rng.gen());
                    Driver {
                        id: DriverId::new(i),
                        source: at,
                        destination: at,
                        shift_start: start,
                        shift_end: start + TimeDelta::from_secs(length),
                        model: DriverModel::Hitchhiking,
                    }
                })
                .collect();
            let mut supply = OnShift::per_slot(&grid, &drivers);
            let mut t = Timestamp::from_secs(rng.gen_range(-50..50));
            for _ in 0..200 {
                t += TimeDelta::from_secs(rng.gen_range(0..3i64) * rng.gen_range(0..25i64));
                for (slot, cell) in supply.iter_mut().enumerate() {
                    let scan = drivers
                        .iter()
                        .filter(|d| grid.slot_of(d.source) == slot)
                        .filter(|d| d.shift_start <= t && t <= d.shift_end)
                        .count();
                    assert_eq!(cell.count_at(t), scan, "seed {seed}, slot {slot}, t {t}");
                    assert!(cell.ended <= cell.started, "seed {seed}: cursors crossed");
                }
            }
        }
    }

    fn cell() -> CellId {
        CellId::new(1, 1)
    }

    #[test]
    fn balanced_market_no_surge() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        e.add_demand(cell());
        e.add_supply(cell());
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    fn excess_supply_never_discounts() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        e.add_demand(cell());
        for _ in 0..10 {
            e.add_supply(cell());
        }
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    fn surge_grows_with_imbalance_and_caps() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        e.add_supply(cell());
        e.add_demand(cell());
        let mut last = e.multiplier(cell());
        for _ in 0..3 {
            e.add_demand(cell());
            let m = e.multiplier(cell());
            assert!(m >= last, "multiplier must be monotone in demand");
            last = m;
        }
        // D=4, S=1 → sqrt(4) = 2.
        assert!((last - 2.0).abs() < 1e-9);
        for _ in 0..100 {
            e.add_demand(cell());
        }
        assert_eq!(e.multiplier(cell()), 3.0, "cap binds");
    }

    #[test]
    fn empty_cell_is_balanced() {
        let e = SurgeEngine::new(SurgeConfig::uber_like());
        assert_eq!(e.multiplier(cell()), 1.0);
        assert_eq!(e.demand(cell()), 0);
        assert_eq!(e.supply(cell()), 0);
    }

    #[test]
    fn disabled_config_always_one() {
        let mut e = SurgeEngine::new(SurgeConfig::disabled());
        for _ in 0..50 {
            e.add_demand(cell());
        }
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    fn cells_are_independent() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        let hot = CellId::new(0, 0);
        let cold = CellId::new(5, 5);
        for _ in 0..9 {
            e.add_demand(hot);
        }
        assert!(e.multiplier(hot) > 1.0);
        assert_eq!(e.multiplier(cold), 1.0);
    }

    #[test]
    fn fare_is_the_porto_tariff() {
        // 2 + 0.47 × 3 + 0.25 × 4 = 4.41.
        let p = fare(3.0, TimeDelta::from_mins(4), 1.0);
        assert!((p.as_f64() - 4.41).abs() < 1e-9, "{p:?}");
        // A zero-length trip costs the flag drop.
        assert_eq!(fare(0.0, TimeDelta::ZERO, 1.0), Money::new(2.0));
    }

    #[test]
    fn surge_scales_linearly() {
        let p1 = fare(5.0, TimeDelta::from_mins(10), 1.0);
        let p3 = fare(5.0, TimeDelta::from_mins(10), 3.0);
        assert!(p3.approx_eq(p1 * 3.0));
    }

    #[test]
    fn negative_window_treated_as_zero() {
        let p = fare(2.0, TimeDelta::from_mins(-5), 1.0);
        assert_eq!(p, fare(2.0, TimeDelta::ZERO, 1.0));
        assert!((p.as_f64() - 2.94).abs() < 1e-9, "{p:?}");
    }

    #[test]
    #[should_panic(expected = "surge multiplier below 1")]
    fn rejects_discount_surge() {
        let _ = fare(1.0, TimeDelta::from_mins(1), 0.5);
    }

    #[test]
    fn wtp_always_at_least_price() {
        let mut rng = StdRng::seed_from_u64(3);
        let price = Money::new(12.0);
        for _ in 0..10_000 {
            assert!(draw_valuation(&mut rng, price) >= price);
        }
    }

    #[test]
    fn median_surplus_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let price = Money::new(10.0);
        let mut fracs: Vec<f64> = (0..40_000)
            .map(|_| (draw_valuation(&mut rng, price) - price).as_f64() / price.as_f64())
            .collect();
        fracs.sort_by(f64::total_cmp);
        let median = fracs[fracs.len() / 2];
        // The surplus fraction is LogNormal(μ, σ): median `exp(μ)`.
        let expected = WTP_MU.exp();
        assert!(
            (median - expected).abs() / expected < 0.05,
            "median {median} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "publish order")]
    fn out_of_order_pricing_rejected() {
        let cfg = config(35);
        let trips: Vec<_> = cfg.stream().collect();
        let stream = cfg.stream();
        let mut pricer = StreamPricer::new(
            &MarketBuildOptions {
                surge_window: Some(TimeDelta::from_mins(30)),
                ..MarketBuildOptions::default()
            },
            stream.bounding_box(),
            stream.speed(),
            stream.drivers(),
        );
        let _ = pricer.price(trips.last().unwrap());
        let _ = pricer.price(&trips[0]);
    }
}
