//! Candidate generation — step (a) of Algorithms 3–4.
//!
//! Every decision of the [`crate::StreamEngine`] asks the same question:
//! *given the drivers' projected states, who can feasibly serve this task
//! if the dispatch decision is made at time `t`, and at what marginal
//! value (Eq. 14)?* Instant dispatch asks it with `t` equal to the task's
//! publish time; batched dispatch asks it with `t` equal to the batch
//! decision epoch, which may be up to the hold window `W` later.
//! [`CandidateEngine`] is the single implementation of that question, so
//! the feasibility predicates and the Eq. 14 marginal value are the same
//! under every policy.
//!
//! The engine does **not** hold a `&Market`: it owns only the travel
//! model, the optional spatial index, and per-driver flags, while tasks
//! and drivers are passed in by the caller — a stream never materialises
//! a market, and its driver set grows as shifts are announced.
//!
//! The engine optionally maintains a [`GridIndex`] over the drivers'
//! projected locations. Radius pruning is *lossless*: a driver departs no
//! earlier than the decision time, so any driver farther than the speed
//! model can cover within `pickup_deadline − decision_time` cannot arrive
//! in time and would be rejected by the arrival check anyway — the grid
//! only skips work, never changes results (pinned by the oracle tests).
//! The same argument covers *expired* drivers (streaming replay marks a
//! driver expired once the stream clock passes her shift end): any task
//! decided after `t⁺ₙ` fails the return-home check, so skipping her is
//! equally lossless.

use rideshare_core::{Driver, Market, Task};
use rideshare_geo::{BoundingBox, GeoPoint, GridIndex, SpeedModel};
use rideshare_types::Timestamp;

use crate::policy::Candidate;

/// Grid resolution used by every candidate engine.
const GRID_ROWS: u16 = 16;
/// Grid resolution used by every candidate engine.
const GRID_COLS: u16 = 16;

/// Tag bit marking a grid entry as a ghost (a compacted driver's frozen
/// projected location, visible to [`CandidateEngine::latest_decision`] but
/// never to candidate generation). Real driver indices stay below this.
const GHOST_BIT: u32 = 1 << 31;

/// Per-driver projected state during a replay, laid out as a struct of
/// arrays. Candidate generation touches `locations` for every
/// scanned driver but `available_at`/`tasks_taken` only for the survivors,
/// so keeping the fields in parallel dense vectors makes the hot scan
/// cache-linear (16-byte stride instead of a padded 32-byte record).
#[derive(Clone, Debug, Default)]
pub(crate) struct DriverStates {
    /// Where each driver will next be free.
    locations: Vec<GeoPoint>,
    /// When she is free there (actual projected finish, which may precede
    /// the running task's deadline — the paper's early-finish rule).
    available_at: Vec<Timestamp>,
    /// Tasks served so far (for Eq. 14's `m' = 0` case and diagnostics).
    tasks_taken: Vec<u32>,
}

impl DriverStates {
    /// No drivers yet (the streaming starting point).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of tracked drivers.
    pub(crate) fn len(&self) -> usize {
        self.locations.len()
    }

    /// Driver `d`'s projected location.
    pub(crate) fn location(&self, d: usize) -> GeoPoint {
        self.locations[d]
    }

    /// Every driver's projected location, dense by driver index.
    pub(crate) fn locations(&self) -> &[GeoPoint] {
        &self.locations
    }

    /// When driver `d` is next free.
    #[cfg(test)]
    pub(crate) fn available_at(&self, d: usize) -> Timestamp {
        self.available_at[d]
    }

    /// Tasks driver `d` has served so far.
    #[cfg(test)]
    pub(crate) fn tasks_taken(&self, d: usize) -> u32 {
        self.tasks_taken[d]
    }

    fn push(&mut self, location: GeoPoint, available_at: Timestamp) {
        self.locations.push(location);
        self.available_at.push(available_at);
        self.tasks_taken.push(0);
    }

    /// Keeps exactly the drivers with `remap[d].is_some()`, in index order
    /// (the compaction step; `remap` is produced by the engine).
    fn retain_remapped(&mut self, remap: &[Option<usize>]) {
        let mut w = 0usize;
        for (d, r) in remap.iter().enumerate() {
            if r.is_some() {
                self.locations[w] = self.locations[d];
                self.available_at[w] = self.available_at[d];
                self.tasks_taken[w] = self.tasks_taken[d];
                w += 1;
            }
        }
        self.locations.truncate(w);
        self.available_at.truncate(w);
        self.tasks_taken.truncate(w);
    }
}

/// The candidate generator: the travel model, an optional spatial index
/// over the drivers' projected locations, and per-driver expiry flags.
/// Driver records and states are supplied by the caller on every query,
/// so the driver set can grow as a stream announces shifts.
#[derive(Clone, Debug)]
pub(crate) struct CandidateEngine {
    speed: SpeedModel,
    grid: Option<GridIndex<u32>>,
    /// `expired[d]` ⇒ driver `d` can never again be feasible (the current
    /// decision clock has passed her shift end, so the return-home check
    /// fails for every future task). Skipping her is lossless; she stays
    /// in the grid so [`CandidateEngine::latest_decision`] — which ignores
    /// feasibility by design — sees the same driver set whether or not
    /// the clock has caught up with her.
    expired: Vec<bool>,
    /// Frozen projected locations of *compacted* expired drivers. A
    /// compacted driver is gone from candidate generation (her record and
    /// state are freed), but `latest_decision` deliberately ignores
    /// feasibility, so dropping her location would move early-flush
    /// epochs: decisions would depend on when memory was reclaimed
    /// (`StreamOptions::compact_threshold`, a day-boundary reset).
    /// Ghosts keep exactly the data `latest_decision` needs (one point) and
    /// nothing else. Instant-mode compaction skips ghosts entirely:
    /// `latest_decision` is never consulted there.
    ghosts: Vec<GeoPoint>,
    /// Per-grid-cell availability floor: `cell_floor[slot]` is the exact
    /// minimum `available_at` over the live drivers stored in that cell
    /// (`FLOOR_EMPTY` when the cell holds none — ghosts don't count). A
    /// candidate scan skips a whole cell with one compare when even its
    /// most-available driver cannot make the pickup deadline; that skip is
    /// lossless because the per-driver availability pre-reject would
    /// return `None` for every entry anyway. Maintained exactly on the
    /// rare state-changing events (add, commit, expire, compact), which
    /// each touch at most two cells. Empty when the grid is off.
    cell_floor: Vec<Timestamp>,
}

/// Floor value of a cell with no live drivers: later than every reachable
/// deadline, so such cells are skipped by the one-compare cell test.
const FLOOR_EMPTY: Timestamp = Timestamp::from_secs(i64::MAX);

/// The exact availability floor of cell `slot`: minimum `available_at`
/// over its live entries (ghost entries carry no state and are ignored).
fn floor_of(grid: &GridIndex<u32>, states: &DriverStates, slot: usize) -> Timestamp {
    let mut floor = FLOOR_EMPTY;
    for &(_, id) in grid.slot_entries(slot) {
        if id & GHOST_BIT == 0 {
            floor = floor.min(states.available_at[id as usize]);
        }
    }
    floor
}

impl CandidateEngine {
    /// Creates the generator and the initial driver states for a
    /// materialised market (every driver at her source, free from her
    /// shift start). With `use_grid` the states are also indexed
    /// spatially.
    #[cfg(test)]
    pub(crate) fn for_market(market: &Market, use_grid: bool) -> (Self, DriverStates) {
        let mut engine = Self::streaming(market.speed(), use_grid.then(|| market_bbox(market)));
        let mut states = DriverStates::new();
        for d in market.drivers() {
            engine.add_driver(&mut states, d);
        }
        (engine, states)
    }

    /// Creates an empty engine: no drivers yet,
    /// spatial indexing over `bbox` when given (callers typically pass the
    /// trace's service area; the box only affects speed, never results).
    pub(crate) fn streaming(speed: SpeedModel, bbox: Option<BoundingBox>) -> Self {
        let grid = bbox.map(|b| GridIndex::new(b, GRID_ROWS, GRID_COLS));
        let cell_floor = grid
            .as_ref()
            .map_or_else(Vec::new, |g| vec![FLOOR_EMPTY; g.slot_count()]);
        Self {
            speed,
            grid,
            expired: Vec::new(),
            ghosts: Vec::new(),
            cell_floor,
        }
    }

    /// Registers one more driver (streaming `DriverOnline`): appends her
    /// initial state and indexes her spatially. Driver indices are
    /// positional — the `d`-th call corresponds to `drivers[d]`.
    pub(crate) fn add_driver(&mut self, states: &mut DriverStates, driver: &Driver) {
        if let Some(g) = self.grid.as_mut() {
            g.insert(driver.source, states.len() as u32);
            // She starts available at her shift start; an insert can only
            // lower the exact cell minimum, so one `min` keeps it exact.
            let slot = g.slot_of(driver.source);
            self.cell_floor[slot] = self.cell_floor[slot].min(driver.shift_start);
        }
        states.push(driver.source, driver.shift_start);
        self.expired.push(false);
    }

    /// Marks driver `d` as expired. Only call when the decision clock has
    /// provably passed her shift end — then every future candidacy would
    /// fail the return-home check anyway, so the flag is pure work-skipping
    /// and results stay byte-identical. Returns `true` if the flag was
    /// newly set (callers keep cumulative counts across compactions).
    ///
    /// Expiry also pins the driver's `available_at` to the far future, so
    /// the candidate scan's availability pre-reject retires her with the
    /// same flat compare it uses for busy drivers — no separate flag load
    /// on the hot path. (The flag itself remains the compaction
    /// bookkeeping ground truth.)
    pub(crate) fn expire(&mut self, states: &mut DriverStates, d: usize) -> bool {
        let newly = !self.expired[d];
        self.expired[d] = true;
        states.available_at[d] = Timestamp::from_secs(i64::MAX);
        if let Some(g) = self.grid.as_ref() {
            // Her availability just rose, so her cell's minimum may have
            // too — rescan its handful of entries to keep the floor exact.
            let slot = g.slot_of(states.location(d));
            self.cell_floor[slot] = floor_of(g, states, slot);
        }
        newly
    }

    /// Number of drivers currently marked expired (and not yet compacted).
    /// (The stream engine tracks this arithmetically on its hot path; the
    /// scan remains as the tests' ground truth.)
    #[cfg(test)]
    pub(crate) fn expired_count(&self) -> usize {
        self.expired.iter().filter(|&&e| e).count()
    }

    /// Frozen locations of compacted drivers (kept for
    /// [`CandidateEngine::latest_decision`] parity in batched mode).
    pub(crate) fn ghost_locations(&self) -> &[GeoPoint] {
        &self.ghosts
    }

    /// Garbage-collects every expired driver: her state is removed from the
    /// dense vectors and the spatial index, and surviving drivers are
    /// renumbered compactly. Returns the old→new index mapping (`None` for
    /// removed drivers) so the caller can remap its own per-driver tables.
    ///
    /// With `keep_ghosts` each removed driver leaves a frozen location
    /// behind for [`CandidateEngine::latest_decision`], so compaction
    /// cannot move an epoch (see the `ghosts` field docs). Without it the
    /// location vanishes too; only lossless when `latest_decision` is never
    /// consulted (instant-mode streaming).
    pub(crate) fn compact(
        &mut self,
        states: &mut DriverStates,
        keep_ghosts: bool,
    ) -> Vec<Option<usize>> {
        let old_len = states.len();
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(old_len);
        let mut kept = 0usize;
        for d in 0..old_len {
            if self.expired[d] {
                if keep_ghosts {
                    self.ghosts.push(states.location(d));
                }
                remap.push(None);
            } else {
                remap.push(Some(kept));
                kept += 1;
            }
        }
        states.retain_remapped(&remap);
        self.expired.clear();
        self.expired.resize(states.len(), false);
        if let Some(old) = self.grid.as_ref() {
            let mut grid = GridIndex::new(old.bounding_box(), GRID_ROWS, GRID_COLS);
            for (d, &loc) in states.locations().iter().enumerate() {
                grid.insert(loc, d as u32);
            }
            for (g, &loc) in self.ghosts.iter().enumerate() {
                grid.insert(loc, GHOST_BIT | g as u32);
            }
            self.cell_floor.clear();
            self.cell_floor.resize(grid.slot_count(), FLOOR_EMPTY);
            for (d, &loc) in states.locations().iter().enumerate() {
                let slot = grid.slot_of(loc);
                self.cell_floor[slot] = self.cell_floor[slot].min(states.available_at[d]);
            }
            self.grid = Some(grid);
        }
        remap
    }

    /// [`CandidateEngine::candidates_into`] with a fresh vector — the
    /// convenient form for tests; every replay hot path passes a reusable
    /// arena instead.
    #[cfg(test)]
    pub(crate) fn candidates_at(
        &self,
        drivers: &[Driver],
        states: &DriverStates,
        task: &Task,
        decision_time: Timestamp,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.candidates_into(drivers, states, task, decision_time, &mut out);
        out
    }

    /// Every driver who can feasibly serve `task` when the dispatch
    /// decision is made at `decision_time`: she can reach the pickup from
    /// her projected position by the deadline (departing no earlier than
    /// the decision), can still get home afterwards, and is inside her
    /// shift. `out` is cleared and refilled sorted by driver index, each
    /// candidate carrying the Eq. 14 marginal value — callers keep one
    /// scratch vector per replay so the per-decision allocation disappears.
    pub(crate) fn candidates_into(
        &self,
        drivers: &[Driver],
        states: &DriverStates,
        task: &Task,
        decision_time: Timestamp,
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        if !task.window_feasible() || decision_time > task.pickup_deadline {
            return;
        }

        match &self.grid {
            Some(g) => {
                // Any driver farther than the loosest possible travel
                // budget — she departs no earlier than the decision —
                // cannot arrive in time. One second of slack keeps the
                // prune lossless: travel times round to whole seconds, so
                // a driver fractionally past the exact radius can still
                // round down into the budget. The coarse query yields a
                // superset (no per-entry distance filter — `evaluate`
                // re-checks arrival exactly anyway), so the prune stays
                // lossless while each distance is computed once instead of
                // twice.
                let budget =
                    task.pickup_deadline - decision_time + rideshare_types::TimeDelta::from_secs(1);
                let radius = self.speed.reachable_km(budget);
                for (slot, entries) in g.cells_near(task.origin, radius) {
                    // One compare retires the whole cell when even its
                    // most-available driver misses the pickup deadline —
                    // every entry would fail the same availability
                    // pre-reject inside `evaluate`, so the skip is
                    // lossless. Under saturation most cells die here.
                    if self.cell_floor[slot] > task.pickup_deadline {
                        continue;
                    }
                    for &(_, d) in entries {
                        if d & GHOST_BIT != 0 {
                            continue; // ghosts never generate candidates
                        }
                        out.extend(self.evaluate(drivers, states, task, decision_time, d as usize));
                    }
                }
            }
            None => {
                for d in 0..states.len() {
                    out.extend(self.evaluate(drivers, states, task, decision_time, d));
                }
            }
        }
        out.sort_by_key(|c| c.driver);
    }

    /// Evaluates one *(driver, task)* pair under a decision made at
    /// `decision_time`: `Some(candidate)` iff feasible. This is the exact
    /// per-pair predicate behind [`CandidateEngine::candidates_into`];
    /// batched dispatch also probes it directly to refresh only the entries
    /// of drivers whose state changed.
    pub(crate) fn candidate_for(
        &self,
        drivers: &[Driver],
        states: &DriverStates,
        task: &Task,
        decision_time: Timestamp,
        d: usize,
    ) -> Option<Candidate> {
        if !task.window_feasible() || decision_time > task.pickup_deadline {
            return None;
        }
        self.evaluate(drivers, states, task, decision_time, d)
    }

    /// The feasibility predicates and Eq. 14 value for one pair (window
    /// feasibility of the task itself is the caller's precondition).
    fn evaluate(
        &self,
        drivers: &[Driver],
        states: &DriverStates,
        task: &Task,
        decision_time: Timestamp,
        d: usize,
    ) -> Option<Candidate> {
        // Availability pre-reject: `available_at` starts at the shift
        // start and only ever grows (expiry pins it to the far future), and
        // `depart >= available_at`, so a driver unavailable past the pickup
        // deadline can never arrive in time — settled by one flat-array
        // compare, no distance needed. Under saturation this retires the
        // vast majority of pairs before any trigonometry, and it subsumes
        // the expired-driver skip.
        if states.available_at[d] > task.pickup_deadline {
            return None;
        }
        let speed = self.speed;
        let driver = &drivers[d];
        let location = states.location(d);
        // Departure: not before the order exists, the dispatch decision
        // is made, the driver is free, and her shift has started.
        let depart = states.available_at[d]
            .max(task.publish_time)
            .max(decision_time)
            .max(driver.shift_start);
        // Each pair needs three distances (driver→pickup, dropoff→home,
        // driver→home); compute each once and derive time and cost from it
        // (`travel_time`/`travel_cost` are exactly these compositions, so
        // results stay bit-identical).
        let to_pickup_km = speed.driven_km(location, task.origin);
        let arrival = depart + speed.travel_time_for_km(to_pickup_km);
        if arrival > task.pickup_deadline {
            return None;
        }
        // Return-home feasibility against the task's completion deadline
        // (conservative: the driver may finish earlier, but she must be
        // able to honour the promised window).
        let return_km = speed.driven_km(task.destination, driver.destination);
        if task.completion_deadline + speed.travel_time_for_km(return_km) > driver.shift_end {
            return None;
        }
        // Eq. 14: δₙ,ₘ = pₘ − (cₙ,ₘ,₋₁ + ĉₙ,ₘ + cₙ,ₘ',ₘ − cₙ,ₘ',₋₁).
        let to_pickup_cost = speed.cost_for_km(to_pickup_km);
        let new_return = speed.cost_for_km(return_km);
        let old_return = speed.travel_cost(location, driver.destination);
        let delta = task.price - new_return - task.service_cost - to_pickup_cost + old_return;
        Some(Candidate {
            driver: d,
            arrival,
            marginal_value: delta.as_f64(),
        })
    }

    /// The latest instant a dispatch decision for `task` could still be
    /// made with some driver reaching the pickup from her current projected
    /// position, clamped to `[publish_time, cap]` — batched dispatch's
    /// early-flush epoch. A heuristic against the states known when the
    /// window opens (drivers may still move before the epoch fires), but
    /// always causally valid: never before publication, never past `cap`.
    ///
    /// Expired drivers are **not** skipped here: this bound deliberately
    /// ignores feasibility, and skipping them would make an epoch depend
    /// on when each driver was retired — on which optional
    /// `DriverOffline` hints and ticks the stream happened to carry. For
    /// the same reason *compacted* drivers still count through their
    /// frozen ghost locations.
    pub(crate) fn latest_decision(
        &self,
        states: &DriverStates,
        task: &Task,
        cap: Timestamp,
    ) -> Timestamp {
        let speed = self.speed;
        let mut best = task.publish_time;
        let mut consider = |loc: GeoPoint| {
            let latest = task.pickup_deadline - speed.travel_time(loc, task.origin);
            if latest > best {
                best = latest;
            }
        };
        match &self.grid {
            Some(g) => {
                // Drivers beyond the publish-time budget have
                // `pickup_deadline − travel < publish`, which can never
                // raise `best` above its `publish_time` floor — pruning
                // them is lossless here too (same 1 s rounding slack).
                let budget = task.pickup_deadline - task.publish_time
                    + rideshare_types::TimeDelta::from_secs(1);
                let radius = speed.reachable_km(budget);
                for d in g.query_radius_coarse(task.origin, radius) {
                    if d & GHOST_BIT != 0 {
                        consider(self.ghosts[(d & !GHOST_BIT) as usize]);
                    } else {
                        consider(states.location(d as usize));
                    }
                }
            }
            None => {
                for &loc in states.locations() {
                    consider(loc);
                }
                for &loc in &self.ghosts {
                    consider(loc);
                }
            }
        }
        best.min(cap)
    }

    /// Commits a dispatch: projects driver `d` onto the task's destination,
    /// free at `arrival + duration`, and keeps the spatial index in sync.
    pub(crate) fn commit(
        &mut self,
        states: &mut DriverStates,
        d: usize,
        task: &Task,
        arrival: Timestamp,
    ) {
        let old_loc = states.locations[d];
        states.locations[d] = task.destination;
        states.available_at[d] = arrival + task.duration;
        states.tasks_taken[d] += 1;
        if let Some(g) = self.grid.as_mut() {
            g.relocate(old_loc, task.destination, d as u32);
        }
        if let Some(g) = self.grid.as_ref() {
            // The move changes at most two cells; rescanning both keeps
            // the floors exact (commits are rare next to candidate scans).
            let from = g.slot_of(old_loc);
            let to = g.slot_of(task.destination);
            self.cell_floor[from] = floor_of(g, states, from);
            if to != from {
                self.cell_floor[to] = floor_of(g, states, to);
            }
        }
    }
}

/// Covers every driver and task location with a margin; degenerate markets
/// fall back to a unit box.
pub(crate) fn market_bbox(market: &Market) -> BoundingBox {
    let mut pts = market
        .drivers()
        .iter()
        .map(|d| d.source)
        .chain(market.drivers().iter().map(|d| d.destination))
        .chain(market.tasks().iter().map(|t| t.origin))
        .chain(market.tasks().iter().map(|t| t.destination));
    let Some(first) = pts.next() else {
        return BoundingBox::new(0.0, 1.0, 0.0, 1.0);
    };
    let (mut lat_lo, mut lat_hi) = (first.lat(), first.lat());
    let (mut lon_lo, mut lon_hi) = (first.lon(), first.lon());
    for p in pts {
        lat_lo = lat_lo.min(p.lat());
        lat_hi = lat_hi.max(p.lat());
        lon_lo = lon_lo.min(p.lon());
        lon_hi = lon_hi.max(p.lon());
    }
    BoundingBox::new(lat_lo - 0.01, lat_hi + 0.01, lon_lo - 0.01, lon_hi + 0.01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::MarketBuildOptions;
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    #[test]
    fn grid_pruning_is_lossless_at_any_decision_time() {
        let m = market(71, 60, 25);
        let (linear, states) = CandidateEngine::for_market(&m, false);
        let (grid, _) = CandidateEngine::for_market(&m, true);
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let publish = task.publish_time;
            for delay_mins in [0i64, 2, 10, 45] {
                let at = publish + rideshare_types::TimeDelta::from_mins(delay_mins);
                assert_eq!(
                    linear.candidates_at(m.drivers(), &states, task, at),
                    grid.candidates_at(m.drivers(), &states, task, at),
                    "task {t} at {at}"
                );
            }
        }
    }

    #[test]
    fn later_decisions_never_grow_the_candidate_set() {
        // A later decision only delays departures, so feasibility shrinks
        // monotonically (driver states held fixed).
        let m = market(72, 40, 15);
        let (engine, states) = CandidateEngine::for_market(&m, false);
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let publish = task.publish_time;
            let now = engine.candidates_at(m.drivers(), &states, task, publish);
            let later = engine.candidates_at(
                m.drivers(),
                &states,
                task,
                publish + rideshare_types::TimeDelta::from_mins(5),
            );
            let now_drivers: Vec<usize> = now.iter().map(|c| c.driver).collect();
            for c in &later {
                assert!(now_drivers.contains(&c.driver), "candidate appeared late");
            }
        }
    }

    #[test]
    fn decision_past_pickup_deadline_is_empty() {
        let m = market(73, 20, 10);
        let (engine, states) = CandidateEngine::for_market(&m, false);
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let past = task.pickup_deadline + rideshare_types::TimeDelta::from_secs(1);
            assert!(engine
                .candidates_at(m.drivers(), &states, task, past)
                .is_empty());
        }
    }

    #[test]
    fn commit_moves_the_driver_and_the_index() {
        let m = market(74, 30, 6);
        let (mut engine, mut states) = CandidateEngine::for_market(&m, true);
        let task = &m.tasks()[0];
        let publish = task.publish_time;
        let cands = engine.candidates_at(m.drivers(), &states, task, publish);
        if let Some(c) = cands.first() {
            engine.commit(&mut states, c.driver, task, c.arrival);
            assert_eq!(states.location(c.driver), task.destination);
            assert_eq!(states.tasks_taken(c.driver), 1);
            assert_eq!(states.available_at(c.driver), c.arrival + task.duration);
            // The index tracked the move: a fresh linear engine over the
            // mutated states agrees with the grid one.
            let (linear, _) = CandidateEngine::for_market(&m, false);
            for t in 1..m.num_tasks() {
                let next = &m.tasks()[t];
                let at = next.publish_time;
                assert_eq!(
                    linear.candidates_at(m.drivers(), &states, next, at),
                    engine.candidates_at(m.drivers(), &states, next, at)
                );
            }
        }
    }

    #[test]
    fn incremental_driver_onboarding_matches_for_market() {
        // Announcing drivers one by one (the streaming path) yields the
        // same engine + states as building from the whole market.
        let m = market(75, 40, 12);
        let (batch, batch_states) = CandidateEngine::for_market(&m, true);
        let mut inc = CandidateEngine::streaming(m.speed(), Some(market_bbox(&m)));
        let mut inc_states = DriverStates::new();
        for d in m.drivers() {
            inc.add_driver(&mut inc_states, d);
        }
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let at = task.publish_time;
            assert_eq!(
                batch.candidates_at(m.drivers(), &batch_states, task, at),
                inc.candidates_at(m.drivers(), &inc_states, task, at),
                "task {t}"
            );
        }
    }

    #[test]
    fn compaction_keeps_latest_decision_only_through_ghosts() {
        // The subtle case the module docs warn about: an *expired* driver
        // can still determine a later task's early-flush epoch, because
        // `latest_decision` deliberately ignores feasibility. Compacting
        // her with a ghost preserves the epoch bit-for-bit; dropping her
        // outright moves it — which is why batched-mode compaction must
        // keep ghosts (and instant mode, which never consults
        // `latest_decision`, may drop them).
        use rideshare_types::{TimeDelta, Timestamp};
        let speed = rideshare_geo::SpeedModel::urban();
        let origin = GeoPoint::new(41.15, -8.61);
        let near_expired = Driver {
            id: rideshare_types::DriverId::new(0),
            source: origin.offset_km(0.3, 0.0), // ~1 min from the pickup
            destination: origin,
            shift_start: Timestamp::EPOCH,
            shift_end: Timestamp::from_hours(1), // long gone by publish
            model: rideshare_trace::DriverModel::Hitchhiking,
        };
        let far_live = Driver {
            id: rideshare_types::DriverId::new(1),
            source: origin.offset_km(0.0, 4.0), // ~13 min away
            destination: origin.offset_km(0.0, 4.0),
            shift_start: Timestamp::EPOCH,
            shift_end: Timestamp::from_hours(24),
            model: rideshare_trace::DriverModel::HomeWorkHome,
        };
        let task = Task {
            id: rideshare_types::TaskId::new(0),
            publish_time: Timestamp::from_hours(10),
            origin,
            destination: origin.offset_km(1.0, 1.0),
            pickup_deadline: Timestamp::from_hours(10) + TimeDelta::from_mins(15),
            completion_deadline: Timestamp::from_hours(10) + TimeDelta::from_mins(40),
            duration: TimeDelta::from_mins(10),
            price: rideshare_types::Money::new(10.0),
            valuation: rideshare_types::Money::new(12.0),
            service_cost: rideshare_types::Money::new(1.0),
        };
        let cap = task.pickup_deadline;

        for use_grid in [false, true] {
            let bbox = use_grid.then(|| BoundingBox::new(41.0, 41.3, -8.8, -8.3));
            let mut reference = CandidateEngine::streaming(speed, bbox);
            let mut states = DriverStates::new();
            reference.add_driver(&mut states, &near_expired);
            reference.add_driver(&mut states, &far_live);
            let baseline = reference.latest_decision(&states, &task, cap);
            // The near (but long-expired) driver determines the epoch.
            assert!(
                baseline > task.pickup_deadline - TimeDelta::from_mins(5),
                "baseline epoch {baseline} not driven by the near driver"
            );

            let compacted = |keep_ghosts: bool| {
                let mut engine = reference.clone();
                let mut st = states.clone();
                assert!(engine.expire(&mut st, 0));
                assert!(
                    !engine.expire(&mut st, 0),
                    "second expiry must not re-count"
                );
                let remap = engine.compact(&mut st, keep_ghosts);
                assert_eq!(remap, vec![None, Some(0)]);
                assert_eq!(engine.expired_count(), 0);
                (engine, st)
            };

            let (ghosted, ghost_states) = compacted(true);
            assert_eq!(ghosted.ghost_locations().len(), 1);
            assert_eq!(
                ghosted.latest_decision(&ghost_states, &task, cap),
                baseline,
                "ghost must preserve the epoch (grid={use_grid})"
            );

            let (dropped, drop_states) = compacted(false);
            assert_eq!(dropped.ghost_locations().len(), 0);
            assert_ne!(
                dropped.latest_decision(&drop_states, &task, cap),
                baseline,
                "dropping the location should move the epoch (grid={use_grid})"
            );

            // Candidate generation is identical either way: ghosts are
            // invisible to it, and the surviving driver was renumbered the
            // same. (The live far driver is the only candidate.)
            let live = vec![far_live];
            assert_eq!(
                ghosted.candidates_at(&live, &ghost_states, &task, task.publish_time),
                dropped.candidates_at(&live, &drop_states, &task, task.publish_time),
            );
        }
    }

    #[test]
    fn expiring_a_dead_driver_changes_nothing() {
        // Expire every driver whose shift ended before some cutoff; any
        // task decided after the cutoff sees identical candidates, and
        // `latest_decision` (which ignores feasibility) is untouched too.
        let m = market(76, 50, 20);
        let (plain, states) = CandidateEngine::for_market(&m, false);
        let (mut expired, mut ex_states) = CandidateEngine::for_market(&m, false);
        let cutoff = rideshare_types::Timestamp::from_hours(14);
        let mut expired_any = false;
        for (d, drv) in m.drivers().iter().enumerate() {
            if drv.shift_end < cutoff {
                expired.expire(&mut ex_states, d);
                expired_any = true;
            }
        }
        assert!(expired_any, "seed must produce an early shift");
        assert_eq!(expired.expired_count() > 0, expired_any);
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            if task.publish_time < cutoff {
                continue;
            }
            let at = task.publish_time;
            assert_eq!(
                plain.candidates_at(m.drivers(), &states, task, at),
                expired.candidates_at(m.drivers(), &ex_states, task, at),
                "task {t}"
            );
            assert_eq!(
                plain.latest_decision(&states, task, at),
                expired.latest_decision(&ex_states, task, at),
            );
        }
    }
}
