//! The two-sided market configuration and task-map construction.

use std::sync::OnceLock;

use rideshare_geo::SpeedModel;
use rideshare_trace::{Driver, Task, Trace};
use rideshare_types::{Money, TimeDelta};

use crate::streaming::{StreamPricer, SurgeConfig};
use crate::view::{DriverView, TaskMap};

/// Which objective a solver optimises.
///
/// The paper formulates both (§III-C/D); the only difference is whether a
/// served task contributes its price `pₘ` (producer surplus) or the
/// customer's valuation `bₘ` (social welfare).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Objective {
    /// Drivers' total profit `Z` (Eq. 4): revenue is `pₘ`.
    #[default]
    Profit,
    /// Social welfare `Ẑ` (Eq. 6): revenue is `bₘ`.
    Welfare,
}

impl Objective {
    /// Net contribution of serving `task` under this objective, before
    /// connection costs: `pₘ − ĉₙ,ₘ` or `bₘ − ĉₙ,ₘ`.
    #[must_use]
    pub fn margin(self, task: &Task) -> Money {
        match self {
            Objective::Profit => task.price - task.service_cost,
            Objective::Welfare => task.valuation - task.service_cost,
        }
    }
}

/// A driver-independent feasible chain arc `m → m'` of the task map: the
/// driver can drive empty from `m`'s destination to `m'`'s origin within
/// the gap between their windows (Eq. 3's shared condition).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct ChainEdge {
    /// Successor task index.
    pub to: u32,
    /// Empty-driving cost `cₙ,ₘ,ₘ'` (currency).
    pub cost: f64,
}

/// Options controlling market construction from a trace.
///
/// Eq. 15's tariff (`β₁`, `β₂`, the flag drop), the valuation markup and
/// the surge grid are the paper's global constants, fixed in
/// [`StreamPricer`]; these options choose the surge curve and its source,
/// the valuation draws' seed and the chain-arc wait cap.
#[derive(Clone, Debug)]
pub struct MarketBuildOptions {
    /// Surge curve: [`SurgeConfig::uber_like`] (the default) or
    /// [`SurgeConfig::disabled`]. Without [`Self::surge_window`] the
    /// multipliers come from one static whole-day supply/demand snapshot
    /// over the trace's grid cells.
    pub surge: SurgeConfig,
    /// Seed for the WTP draws (independent of the trace seed).
    pub wtp_seed: u64,
    /// Optional cap on the waiting gap a chain arc may bridge; `None`
    /// (the paper's model) allows arbitrarily long waits between tasks.
    pub max_chain_wait: Option<TimeDelta>,
    /// When set, surge multipliers are computed **dynamically** at each
    /// task's publish instant from a rolling demand window of this length
    /// (recent orders in the cell vs drivers on shift there), instead of
    /// from one static whole-day snapshot. This matches the measured
    /// Uber mechanism more closely (Chen & Sheldon observe minute-scale
    /// surge updates); the paper's model is agnostic — it only requires
    /// `pₘ` to be fixed by publish time, which both variants satisfy.
    pub surge_window: Option<TimeDelta>,
}

impl Default for MarketBuildOptions {
    fn default() -> Self {
        Self {
            surge: SurgeConfig::uber_like(),
            wtp_seed: 0x5eed,
            max_chain_wait: None,
            surge_window: None,
        }
    }
}

/// The market: drivers, tasks, the travel model, and the drivers' task
/// maps (§III-B).
///
/// The task map of driver `n` is the DAG over `{0, −1} ∪ [M]` defined by
/// Eqs. 1–3. With a shared speed model, the arc predicate between two tasks
/// factors into a driver-independent pair test ([`Market::has_chain_edge`],
/// `O(1)`) and per-driver source/sink reachability (computed by
/// [`crate::DriverView`] in `O(M)`).
///
/// The compact per-driver task maps the path oracle runs over are
/// *derived* state — functions of the drivers, the tasks, the speed model
/// and the wait cap — built once per market by their first reader
/// ([`crate::solve_greedy`], [`crate::lp_upper_bound`],
/// [`Market::chain_diameter`], [`Market::chain_arc_count`] or
/// [`crate::MarketSummary::of`]). One arena holds only the arcs `m → m'`
/// that some driver able to serve `m` can also serve `m'` with, each map
/// is compacted from it, and the arena is dropped.
///
/// [`Market::new`] builds no map, so a market that is only split
/// ([`crate::disjoint_components`]), replayed online, validated or priced
/// ([`crate::Assignment::objective_value`]) never pays `O(M²)` time or
/// memory. Concurrent first readers are safe: one of them builds, the
/// others wait for it.
#[derive(Clone, Debug)]
pub struct Market {
    drivers: Vec<Driver>,
    tasks: Vec<Task>,
    speed: SpeedModel,
    /// The arc-pruning cap the chain is built with, kept so derived
    /// sub-markets (partitions, disjoint components) build identical arcs.
    max_chain_wait: Option<TimeDelta>,
    /// Every driver's compacted task map, indexed by driver, and the
    /// number of arcs in the arena they were compacted from.
    task_maps: OnceLock<(Vec<TaskMap>, usize)>,
}

/// Chain arcs in one CSR arena, and a topological order of all of them:
/// the arena the task maps are compacted from ([`ChainGraph::build`]).
#[derive(Clone, Debug)]
pub(crate) struct ChainGraph {
    /// Task `m`'s successor arcs, ascending in `to`, are
    /// `arcs[first[m]..first[m + 1]]`.
    first: Vec<usize>,
    arcs: Vec<ChainEdge>,
    /// Task indices sorted by completion deadline — a topological order of
    /// every chain arc (an arc implies `t̄⁺ₘ ≤ t̄⁻ₘ' < t̄⁺ₘ'`).
    topo: Vec<u32>,
}

/// Whether bit `i` of a task bitset is set.
pub(crate) fn has_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// Sets bit `i` of a task bitset.
pub(crate) fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

impl ChainGraph {
    /// Builds the chain arcs that a reach set can use: `m → m'` exists iff
    /// [`Market::chain_cost`] finds the arc and some bitset of `reach`
    /// holds both `m` and `m'`.
    ///
    /// Row `m` tests only the successors in the union of the bitsets that
    /// hold `m`, in ascending task order, so every row comes out sorted by
    /// `to`.
    pub(crate) fn build(market: &Market, reach: &[&[u64]]) -> Self {
        let tasks = market.tasks();
        let mut mask = vec![0u64; tasks.len().div_ceil(64)];
        let mut first = Vec::with_capacity(tasks.len() + 1);
        let mut arcs = Vec::new();
        for a in 0..tasks.len() {
            first.push(arcs.len());
            mask.fill(0);
            for bits in reach.iter().filter(|bits| has_bit(bits, a)) {
                for (word, &b) in mask.iter_mut().zip(bits.iter()) {
                    *word |= b;
                }
            }
            for (w, &word) in mask.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if let Some(cost) = market.chain_cost(a, b) {
                        let to = b as u32;
                        arcs.push(ChainEdge { to, cost });
                    }
                }
            }
        }
        first.push(arcs.len());
        let mut topo: Vec<u32> = (0..tasks.len() as u32).collect();
        topo.sort_by_key(|&m| tasks[m as usize].completion_deadline);
        Self { first, arcs, topo }
    }

    /// Task `m`'s successor arcs, ascending in `to`.
    pub(crate) fn row(&self, m: usize) -> &[ChainEdge] {
        &self.arcs[self.first[m]..self.first[m + 1]]
    }

    /// Task indices sorted by completion deadline.
    pub(crate) fn topo(&self) -> &[u32] {
        &self.topo
    }
}

impl Market {
    /// Builds a market from explicit drivers and tasks.
    ///
    /// `max_chain_wait` optionally prunes chain arcs whose idle gap exceeds
    /// the cap (see [`MarketBuildOptions::max_chain_wait`]).
    #[must_use]
    pub fn new(
        drivers: Vec<Driver>,
        tasks: Vec<Task>,
        speed: SpeedModel,
        max_chain_wait: Option<TimeDelta>,
    ) -> Self {
        Self {
            drivers,
            tasks,
            speed,
            max_chain_wait,
            task_maps: OnceLock::new(),
        }
    }

    /// Every driver's compacted task map, indexed by driver: what Alg. 1
    /// and the column generation query, shared between them.
    ///
    /// A driver's map keeps `m → m'` only if it can serve both, so the
    /// arena the maps are compacted from need only test, in row `m`, the
    /// tasks that some driver able to serve `m` can serve. Its rows hold
    /// every arc a map keeps, ascending in task index.
    pub(crate) fn task_maps(&self) -> &[TaskMap] {
        &self.maps_and_arcs().0
    }

    /// The task maps and the arena's arc count, built together once.
    fn maps_and_arcs(&self) -> &(Vec<TaskMap>, usize) {
        self.task_maps.get_or_init(|| {
            let views: Vec<DriverView> = (0..self.num_drivers())
                .map(|i| DriverView::new(self, i))
                .collect();
            let reach: Vec<&[u64]> = views.iter().map(DriverView::reach).collect();
            let arena = ChainGraph::build(self, &reach);
            let maps = views.iter().map(|view| view.task_map(&arena)).collect();
            (maps, arena.arcs.len())
        })
    }

    /// Builds a market from a generated trace: prices every trip with the
    /// surge fare of Eq. 15 and draws customer valuations, through the
    /// same [`StreamPricer`] a streaming replay uses.
    ///
    /// Multipliers follow [`MarketBuildOptions::surge`]: from a static
    /// whole-day demand/supply snapshot by default (trips in any order), or
    /// from a rolling publish-time window when
    /// [`MarketBuildOptions::surge_window`] is set.
    ///
    /// # Panics
    ///
    /// Panics if `surge_window` is negative, or set while the trips are
    /// not in publish order.
    #[must_use]
    pub fn from_trace(trace: &Trace, opts: &MarketBuildOptions) -> Self {
        let mut pricer = StreamPricer::for_trace(opts, trace);
        let tasks: Vec<Task> = trace.trips.iter().map(|t| pricer.price(t)).collect();
        Self::new(
            trace.drivers.clone(),
            tasks,
            trace.speed,
            opts.max_chain_wait,
        )
    }

    /// The drivers, indexed by [`rideshare_types::DriverId::index`].
    #[must_use]
    pub fn drivers(&self) -> &[Driver] {
        &self.drivers
    }

    /// The tasks, indexed by [`rideshare_types::TaskId::index`].
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of drivers `N`.
    #[must_use]
    pub fn num_drivers(&self) -> usize {
        self.drivers.len()
    }

    /// Number of tasks `M`.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The shared travel model.
    #[must_use]
    pub fn speed(&self) -> SpeedModel {
        self.speed
    }

    /// The chain-arc idle cap this market was built with (see
    /// [`MarketBuildOptions::max_chain_wait`]).
    #[must_use]
    pub fn max_chain_wait(&self) -> Option<TimeDelta> {
        self.max_chain_wait
    }

    /// The number of chain arcs some driver can use: `m → m'` where one
    /// driver can serve both tasks.
    #[must_use]
    pub fn chain_arc_count(&self) -> usize {
        self.maps_and_arcs().1
    }

    /// Whether the chain arc `m → m'` exists (Eq. 3's driver-independent
    /// part), in `O(1)`.
    #[must_use]
    pub fn has_chain_edge(&self, m: usize, m_next: usize) -> bool {
        self.chain_cost(m, m_next).is_some()
    }

    /// The empty-driving cost of the chain arc `m → m'`, or `None` when
    /// there is no such arc. The arc exists iff both task windows are
    /// internally feasible, the gap `t̄⁻ₘ' − t̄⁺ₘ` is non-negative and
    /// within `max_chain_wait`, and the empty drive fits it, `lₘ,ₘ' ≤
    /// t̄⁻ₘ' − t̄⁺ₘ` (Eq. 3's shared conjuncts). There is no arc `m → m`:
    /// a stationary instant task passes Eq. 3 against itself, but a task
    /// is served once.
    #[inline]
    pub(crate) fn chain_cost(&self, m: usize, m_next: usize) -> Option<f64> {
        let (from, to) = (&self.tasks[m], &self.tasks[m_next]);
        if m == m_next
            || to.pickup_deadline < from.completion_deadline
            || !from.window_feasible()
            || !to.window_feasible()
        {
            return None;
        }
        let gap = to.pickup_deadline - from.completion_deadline;
        if self.max_chain_wait.is_some_and(|cap| gap > cap) {
            return None;
        }
        let km = self.speed.driven_km(from.destination, to.origin);
        let fits = self.speed.travel_time_for_km(km) <= gap;
        fits.then(|| self.speed.cost_for_km(km).as_f64())
    }

    /// The driver's baseline commute cost `cₙ,₀,₋₁` (source to destination
    /// without serving anyone), refunded in the excess-cost objective.
    #[must_use]
    pub fn direct_cost(&self, driver: usize) -> Money {
        let d = &self.drivers[driver];
        self.speed.travel_cost(d.source, d.destination)
    }

    /// The diameter `D` of Theorem 1: the most tasks on one source→sink
    /// path of any driver's task map — the longest chain a driver can
    /// drive. 0 when no driver can serve any task.
    #[must_use]
    pub fn chain_diameter(&self) -> usize {
        let maps = self.task_maps().iter();
        maps.map(TaskMap::longest_chain).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_geo::GeoPoint;
    use rideshare_trace::{DriverModel, TraceConfig};
    use rideshare_types::{DriverId, TaskId, Timestamp};

    fn pt(km_east: f64) -> GeoPoint {
        GeoPoint::new(41.15, -8.61).offset_km(0.0, km_east)
    }

    /// A hand-built task at `origin`, zero length, window `[start, end]`.
    fn stationary_task(id: u32, at: GeoPoint, start: i64, end: i64, price: f64) -> Task {
        Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(start - 60),
            origin: at,
            destination: at,
            pickup_deadline: Timestamp::from_secs(start),
            completion_deadline: Timestamp::from_secs(end),
            duration: TimeDelta::from_secs(0),
            price: Money::new(price),
            valuation: Money::new(price * 1.2),
            service_cost: Money::ZERO,
        }
    }

    fn fast_speed() -> SpeedModel {
        SpeedModel::new(60.0, 1.0, 0.1)
    }

    #[test]
    fn chain_arc_requires_time_for_empty_drive() {
        // Task 0 at km 0 ends t=0; task 1 at km 10 starts at t=300 (5 min).
        // At 60 km/h the 10 km drive takes 10 min → no arc. At t=1200 → arc.
        let t0 = stationary_task(0, pt(0.0), -600, 0, 5.0);
        let near = stationary_task(1, pt(10.0), 300, 900, 5.0);
        let far = stationary_task(2, pt(10.0), 1200, 1800, 5.0);
        let market = Market::new(vec![], vec![t0, near, far], fast_speed(), None);
        assert!(!market.has_chain_edge(0, 1));
        assert!(market.has_chain_edge(0, 2));
        // Arcs never go backwards in time.
        assert!(!market.has_chain_edge(2, 0));
        let cost = market.chain_cost(0, 2).unwrap();
        assert!((cost - 1.0).abs() < 1e-6, "10 km at 0.1/km");
    }

    #[test]
    fn max_chain_wait_prunes_long_idles() {
        let t0 = stationary_task(0, pt(0.0), -600, 0, 5.0);
        let later = stationary_task(1, pt(1.0), 7200, 7800, 5.0);
        let unpruned = Market::new(vec![], vec![t0, later], fast_speed(), None);
        assert!(unpruned.has_chain_edge(0, 1));
        let pruned = Market::new(
            vec![],
            vec![t0, later],
            fast_speed(),
            Some(TimeDelta::from_mins(30)),
        );
        assert!(!pruned.has_chain_edge(0, 1));
    }

    #[test]
    fn window_infeasible_task_has_no_arcs() {
        let mut bad = stationary_task(0, pt(0.0), 0, 600, 5.0);
        bad.duration = TimeDelta::from_secs(900); // longer than its window
        let ok = stationary_task(1, pt(0.0), 1200, 1800, 5.0);
        let market = Market::new(vec![], vec![bad, ok], fast_speed(), None);
        assert!(!market.has_chain_edge(0, 1));
        assert!(!market.tasks()[0].window_feasible());
    }

    #[test]
    fn from_trace_prices_cover_costs() {
        let trace = TraceConfig::porto()
            .with_seed(2)
            .with_task_count(200)
            .with_driver_count(20, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        assert_eq!(market.num_tasks(), 200);
        assert_eq!(market.num_drivers(), 20);
        for t in market.tasks() {
            assert!(t.valuation >= t.price, "IR: bₘ ≥ pₘ");
            assert!(
                Objective::Profit.margin(t).is_strictly_positive(),
                "porto fares exceed fuel cost"
            );
            assert!(Objective::Welfare.margin(t) >= Objective::Profit.margin(t));
        }
    }

    #[test]
    fn surge_raises_hotspot_prices() {
        let trace = TraceConfig::porto()
            .with_seed(3)
            .with_task_count(400)
            .with_driver_count(5, DriverModel::Hitchhiking) // scarce supply
            .generate();
        let surged = Market::from_trace(&trace, &MarketBuildOptions::default());
        let flat = Market::from_trace(
            &trace,
            &MarketBuildOptions {
                surge: SurgeConfig::disabled(),
                ..Default::default()
            },
        );
        let total_surged: f64 = surged.tasks().iter().map(|t| t.price.as_f64()).sum();
        let total_flat: f64 = flat.tasks().iter().map(|t| t.price.as_f64()).sum();
        assert!(
            total_surged > total_flat * 1.02,
            "surged {total_surged} vs flat {total_flat}"
        );
    }

    #[test]
    fn dynamic_surge_reprices_at_publish_time() {
        let trace = TraceConfig::porto()
            .with_seed(4)
            .with_task_count(300)
            .with_driver_count(4, DriverModel::Hitchhiking)
            .generate();
        let static_m = Market::from_trace(&trace, &MarketBuildOptions::default());
        let dynamic_m = Market::from_trace(
            &trace,
            &MarketBuildOptions {
                surge_window: Some(TimeDelta::from_mins(30)),
                ..Default::default()
            },
        );
        // Same tasks, same geometry, different multipliers somewhere.
        assert_eq!(static_m.num_tasks(), dynamic_m.num_tasks());
        let diff = static_m
            .tasks()
            .iter()
            .zip(dynamic_m.tasks())
            .filter(|(a, b)| !a.price.approx_eq(b.price))
            .count();
        assert!(diff > 0, "dynamic window must change some prices");
        // Surge never discounts: every price at least the flat fare.
        let flat = Market::from_trace(
            &trace,
            &MarketBuildOptions {
                surge: SurgeConfig::disabled(),
                ..Default::default()
            },
        );
        for (d, f) in dynamic_m.tasks().iter().zip(flat.tasks()) {
            assert!(d.price + Money::new(1e-9) >= f.price);
        }
        // IR still holds after repricing.
        for t in dynamic_m.tasks() {
            assert!(t.valuation >= t.price);
        }
    }

    fn driver_at(at: GeoPoint, shift_start: i64, shift_end: i64) -> Driver {
        Driver {
            id: DriverId::new(0),
            source: at,
            destination: at,
            shift_start: Timestamp::from_secs(shift_start),
            shift_end: Timestamp::from_secs(shift_end),
            model: DriverModel::Hitchhiking,
        }
    }

    #[test]
    fn diameter_of_sequential_chain() {
        // Three tasks in strict sequence, one driver who serves all three
        // → diameter 3.
        let a = stationary_task(0, pt(0.0), 0, 600, 1.0);
        let b = stationary_task(1, pt(0.0), 1200, 1800, 1.0);
        let c = stationary_task(2, pt(0.0), 2400, 3000, 1.0);
        let d = driver_at(pt(0.0), 0, 3600);
        let market = Market::new(vec![d], vec![a, b, c], fast_speed(), None);
        assert_eq!(market.chain_diameter(), 3);
        assert_eq!(market.chain_arc_count(), 3); // a→b, a→c, b→c
    }

    #[test]
    fn a_market_is_send_sync_and_clone() {
        fn shareable<T: Send + Sync + Clone>() {}
        shareable::<Market>();
    }

    #[test]
    fn direct_cost_matches_speed_model() {
        let d = Driver {
            id: DriverId::new(0),
            source: pt(0.0),
            destination: pt(30.0),
            shift_start: Timestamp::EPOCH,
            shift_end: Timestamp::from_hours(8),
            model: DriverModel::Hitchhiking,
        };
        let market = Market::new(vec![d], vec![], fast_speed(), None);
        assert!((market.direct_cost(0).as_f64() - 3.0).abs() < 1e-6);
    }
}
