//! The fleet: everything the dispatch engine knows about drivers, and
//! candidate generation — step (a) of Algorithms 3–4 — over it.
//!
//! Every decision of the [`crate::StreamEngine`] asks the same question:
//! *given the drivers' projected states, who can feasibly serve this task
//! if the dispatch decision is made at time `t`, and at what marginal
//! value (Eq. 14)?* Instant dispatch asks it with `t` equal to the task's
//! publish time; batched dispatch asks it with `t` equal to the batch
//! decision epoch, which may be up to the hold window `W` later.
//! [`Fleet`] is the single implementation of that question, so the
//! feasibility predicates and the Eq. 14 marginal value are the same
//! under every policy.
//!
//! [`Fleet`] owns two kinds of data and keeps them apart:
//!
//! - the **state** — per driver slot her record, projected location and
//!   availability (parallel vectors). This is all a checkpoint has to
//!   carry;
//! - the **indexes** derived from it — the availability-ordered cell
//!   table and the shift-end heap. Each is maintained incrementally by the
//!   operation that changes the state; the tests' rebuild from the state
//!   alone is the oracle they are pinned against.
//!
//! A driver leaves one way: [`Fleet::retire_before`] retires her once the
//! stream clock passes her shift end, which removes her cell entry and
//! frees her slot for the next announcement. Slots carry no order — every
//! order on drivers reads the announced id — so a slot never moves, and
//! the state vectors are as long as the peak live fleet.
//!
//! It does **not** hold a `&Market`: tasks are passed in by the caller —
//! a stream never materialises a market, and its driver set grows as
//! shifts are announced.
//!
//! The cell table answers the two questions the engine asks, and all three
//! of its prunes are *lossless* — they only skip work, never change
//! results (pinned against test-only folds over the state vectors):
//!
//! - **who can reach this pickup in time** ([`Fleet::candidates_into`]).
//!   In space: a driver departs no earlier than the decision time, so one
//!   farther than the speed model covers within `pickup_deadline −
//!   decision_time` cannot arrive in time, and [`GridIndex::cover`] names
//!   the only cells that can hold anyone nearer. In time: each cell is
//!   kept ascending by `available_at`, and a driver free only after the
//!   pickup deadline cannot arrive by it, so a cell is walked up to the
//!   first such entry and no farther — busy drivers and drivers whose shift
//!   has not begun are never touched. Retired drivers have no entry (the
//!   engine retires a driver once the stream clock passes her shift end:
//!   any task decided after `t⁺ₙ` fails the return-home check). Per point: the
//!   cover's square holds many drivers outside the reachable disc, so
//!   each walked entry first faces two [`DiscBound`]s — the pickup within
//!   what is left of her budget, her home within her shift's slack after
//!   the completion deadline — and only a driver neither rejects reaches
//!   the exact [`Fleet::evaluate`] and its distances;
//! - **how late can this order be decided** ([`Fleet::latest_decision`]) —
//!   the travel time of the *nearest* driver still on shift when the order
//!   publishes, found by searching rings of cells outward from the
//!   pickup's and shrinking the cover to the best point found so far; a
//!   disc bound for the same budget skips the travel time of every point
//!   that cannot raise it. The answer is clamped to the window end, so the
//!   search stops at the first point whose epoch reaches it (usually the
//!   first driver of the pickup's own cell), and is not run when the order
//!   publishes at the window end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::RangeInclusive;

use rideshare_core::{Driver, Market, Task};
use rideshare_geo::{BoundingBox, CellId, DiscBound, GeoPoint, GridIndex, SpeedModel};
use rideshare_types::{DriverId, TimeDelta, Timestamp};

use crate::policy::Candidate;
#[cfg(feature = "stage-probe")]
use crate::probe::{self, Count};
use crate::stream::next_announced;

/// Grid resolution of the pruning index.
const GRID_ROWS: u16 = 16;
/// Grid resolution of the pruning index.
const GRID_COLS: u16 = 16;

/// Later than every reachable deadline: the `available_at` of a vacant
/// slot, and of nothing else. No cell entry holds it.
const NEVER: Timestamp = Timestamp::from_secs(i64::MAX);

/// The engine's drivers: resident state, and the indexes derived from it.
///
/// Slots (`Candidate::slot`, the `d` arguments) are positions in the state
/// vectors. They are engine-internal: retirement frees a slot and the next
/// announcement takes it. Every order on drivers — a candidate list, a
/// tie-break, a matcher — reads the announced id (`Candidate::driver`),
/// which ascends in announce order; nothing looks a driver up by id.
#[derive(Clone, Debug)]
pub(crate) struct Fleet {
    speed: SpeedModel,

    // State, struct-of-arrays by slot: a candidate scan touches
    // `available_at` for every scanned driver but the 56-byte record only
    // for the few who survive the pre-reject, so the hot loop walks dense
    // 8- and 16-byte strides.
    /// Driver records; a vacant slot keeps its last driver's, whose shift
    /// ended before every order still to be decided published.
    drivers: Vec<Driver>,
    /// Where each driver will next be free.
    locations: Vec<GeoPoint>,
    /// When she is free there (actual projected finish, which may precede
    /// the running task's deadline — the paper's early-finish rule), or
    /// [`NEVER`] once her slot is vacant.
    available_at: Vec<Timestamp>,
    /// Vacant slots, the next announcement's to take.
    vacant: Vec<u32>,
    /// Drivers retirement has freed, over the fleet's life.
    freed: usize,
    /// The id announced last; the next must exceed it.
    last_id: Option<DriverId>,

    // Indexes, each a function of the state above.
    /// The spatial index over `locations`.
    table: CellTable,
    /// Min-heap of `(shift_end, slot)` over the drivers the clock has not
    /// retired yet, for lazy lossless retirement.
    shift_ends: BinaryHeap<Reverse<(i64, usize)>>,

    /// Answer both questions by folding every live driver instead of
    /// reading the table: the reference replay-level oracles run.
    #[cfg(any(test, feature = "oracle"))]
    fold: bool,
}

/// The fleet's spatial index: per grid cell, one `(available_at, slot)`
/// entry for every live driver whose projected location falls in it, kept
/// ascending by `available_at`.
///
/// A candidate scan walks a cell only up to the first entry free after
/// the pickup deadline: every later entry would fail the availability
/// pre-reject inside `evaluate`, so stopping is lossless, and a cell whose
/// most-available driver is too late costs one compare. Each
/// state-changing event (announce, commit, retire) moves one entry.
#[derive(Clone, Debug)]
struct CellTable {
    grid: GridIndex,
    /// Indexed by [`GridIndex::slot_of`] (`row * cols + col`).
    cells: Vec<Vec<(Timestamp, u32)>>,
    /// The travel time across the grid box's diagonal: the largest
    /// return-home budget a [`Reach`] bounds. A driver with more slack
    /// than this reaches every home in the box, so a bound could only
    /// reject a home outside it, and would be looser for every other
    /// driver (its band is wider).
    diagonal: TimeDelta,
}

impl CellTable {
    fn new(bbox: BoundingBox, speed: SpeedModel) -> Self {
        let grid = GridIndex::new(bbox, GRID_ROWS, GRID_COLS);
        let cells = vec![Vec::new(); grid.slot_count()];
        let south_west = GeoPoint::new(bbox.min_lat(), bbox.min_lon());
        let diagonal = speed.travel_time(south_west, GeoPoint::new(bbox.max_lat(), bbox.max_lon()));
        Self {
            grid,
            cells,
            diagonal,
        }
    }

    /// Enters `id`, free at `free`, into the cell of `location`, in order.
    fn insert(&mut self, location: GeoPoint, free: Timestamp, id: u32) {
        let cell = &mut self.cells[self.grid.slot_of(location)];
        let at = cell.partition_point(|&(earlier, _)| earlier <= free);
        cell.insert(at, (free, id));
    }

    /// Removes the entry `insert` made for the same arguments.
    fn remove(&mut self, location: GeoPoint, free: Timestamp, id: u32) {
        let cell = &mut self.cells[self.grid.slot_of(location)];
        let run = cell.partition_point(|&(earlier, _)| earlier < free);
        let at = cell[run..].iter().position(|&(_, other)| other == id);
        cell.remove(run + at.expect("every live driver has her cell entry"));
    }

    /// The entries of one cell.
    fn cell(&self, cell: CellId) -> &[(Timestamp, u32)] {
        let (row, col) = (usize::from(cell.row()), usize::from(cell.col()));
        &self.cells[row * usize::from(self.grid.cols()) + col]
    }
}

/// The cells at Chebyshev distance `ring` from `home` — the border of the
/// square of side `2·ring + 1` around it — that have non-negative indices.
fn ring_cells(home: CellId, ring: u16) -> impl Iterator<Item = CellId> {
    let (row, col, ring) = (
        i32::from(home.row()),
        i32::from(home.col()),
        i32::from(ring),
    );
    (row - ring..=row + ring).flat_map(move |r| {
        // Top and bottom edges run the square's width; rows between them
        // contribute their two end cells.
        let step = if (r - row).abs() == ring {
            1
        } else {
            2 * ring as usize
        };
        let cols = (col - ring..=col + ring).step_by(step);
        cols.filter_map(move |c| Some(CellId::new(u16::try_from(r).ok()?, u16::try_from(c).ok()?)))
    })
}

/// The layer a grid scan puts between the availability-ordered walk and
/// [`Fleet::evaluate`]: two [`DiscBound`]s that each prove one of
/// `evaluate`'s checks fails for a driver without the distance that check
/// computes. They only reject drivers `evaluate` would reject, so results
/// stay bit-identical; each is built at the first entry that needs it, so
/// an order whose walk is empty pays nothing for them. Both take their
/// budget in seconds, so an entry costs a subtraction and a multiply
/// before the compare.
struct Reach<'t> {
    task: &'t Task,
    decision_time: Timestamp,
    /// The cover's budget, the arrival bound's largest.
    pickup_max: TimeDelta,
    /// [`CellTable::diagonal`], the return-home bound's largest.
    home_max: TimeDelta,
    /// Around the pickup, for the arrival check.
    pickup: Option<DiscBound>,
    /// Around the drop-off, for the return-home check.
    home: Option<DiscBound>,
}

impl Reach<'_> {
    /// `true` only if driver `d`, free at `free` (her `available_at`),
    /// fails `evaluate`'s arrival or return-home check.
    fn excludes(&mut self, fleet: &Fleet, free: Timestamp, d: usize) -> bool {
        let (task, speed) = (self.task, fleet.speed);
        let second = TimeDelta::from_secs(1);
        // (i) Arrival. She departs no earlier than she is free and the
        // decision is made, so from beyond what the rest of the budget
        // covers (the cover's 1 s rounding slack) she arrives too late.
        // The budget is never larger than the cover's.
        let budget = task.pickup_deadline - free.max(self.decision_time) + second;
        let pickup_max = self.pickup_max;
        let pickup = self
            .pickup
            .get_or_insert_with(|| DiscBound::new(task.origin, speed, pickup_max));
        if pickup.beyond(fleet.locations[d], budget) {
            return true;
        }
        // (ii) Return home. A travel time is never negative, so a shift
        // that ends before the completion deadline fails outright;
        // otherwise a home beyond what the slack covers does.
        let driver = &fleet.drivers[d];
        if driver.shift_end < task.completion_deadline {
            return true;
        }
        let slack = driver.shift_end - task.completion_deadline + second;
        let home_max = self.home_max;
        slack <= home_max
            && self
                .home
                .get_or_insert_with(|| DiscBound::new(task.destination, speed, home_max))
                .beyond(driver.destination, slack)
    }
}

/// Whether `task` can still be decided at `decision_time` at all — the
/// per-task precondition of every per-pair [`Fleet::evaluate`].
fn decidable(task: &Task, decision_time: Timestamp) -> bool {
    task.window_feasible() && decision_time <= task.pickup_deadline
}

impl Fleet {
    /// An empty fleet, spatially indexed over `bbox` (callers typically
    /// pass the trace's service area, or [`unit_box`]; the box only
    /// affects speed, never results).
    pub(crate) fn new(speed: SpeedModel, bbox: BoundingBox) -> Self {
        Self {
            speed,
            drivers: Vec::new(),
            locations: Vec::new(),
            available_at: Vec::new(),
            vacant: Vec::new(),
            freed: 0,
            last_id: None,
            table: CellTable::new(bbox, speed),
            shift_ends: BinaryHeap::new(),
            #[cfg(any(test, feature = "oracle"))]
            fold: false,
        }
    }

    /// This fleet, answering both questions by the folds when `fold`.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn folding(self, fold: bool) -> Self {
        Self { fold, ..self }
    }

    /// The fleet of a materialised market: every driver at her source,
    /// free from her shift start.
    #[cfg(test)]
    pub(crate) fn for_market(market: &Market) -> Self {
        let mut fleet = Self::new(market.speed(), market_bbox(market));
        for d in market.drivers() {
            fleet.announce(*d);
        }
        fleet
    }

    /// Drivers announced so far.
    pub(crate) fn announced(&self) -> usize {
        self.resident() + self.freed
    }

    /// Drivers currently resident (announced minus freed).
    pub(crate) fn resident(&self) -> usize {
        self.drivers.len() - self.vacant.len()
    }

    /// Drivers retirement has freed so far.
    pub(crate) fn freed(&self) -> usize {
        self.freed
    }

    /// Registers one more driver (streaming `DriverOnline`) at her source,
    /// free from her shift start, in a vacant slot if there is one.
    ///
    /// # Panics
    ///
    /// Panics unless `driver.id` exceeds every id announced before it.
    pub(crate) fn announce(&mut self, driver: Driver) {
        self.last_id = next_announced(self.last_id, driver.id);
        let (location, free) = (driver.source, driver.shift_start);
        let d = match self.vacant.pop() {
            Some(slot) => {
                let d = slot as usize;
                self.drivers[d] = driver;
                self.locations[d] = location;
                self.available_at[d] = free;
                d
            }
            None => {
                self.drivers.push(driver);
                self.locations.push(location);
                self.available_at.push(free);
                self.drivers.len() - 1
            }
        };
        self.table.insert(location, free, d as u32);
        self.shift_ends
            .push(Reverse((driver.shift_end.as_secs(), d)));
    }

    /// Retires the driver in slot `d`: her cell entry goes, and her slot is
    /// vacant for the next announcement. Only sound once the decision clock
    /// has provably passed her shift end — then every future candidacy
    /// would fail the return-home check anyway, so this is pure
    /// work-skipping and results stay byte-identical.
    /// [`Fleet::retire_before`] pops her shift end first, so no index
    /// names a vacant slot.
    fn retire(&mut self, d: usize) {
        let free = std::mem::replace(&mut self.available_at[d], NEVER);
        self.table.remove(self.locations[d], free, d as u32);
        self.vacant.push(d as u32);
        self.freed += 1;
    }

    /// Retires every driver whose shift ended before `floor`, the earliest
    /// instant any held or future order can publish at: she fails the
    /// return-home check for everything from here on.
    pub(crate) fn retire_before(&mut self, floor: Timestamp) {
        while let Some(&Reverse((end, d))) = self.shift_ends.peek() {
            if Timestamp::from_secs(end) >= floor {
                break;
            }
            self.shift_ends.pop();
            self.retire(d);
        }
    }

    /// Rebuilds the cell table and the shift-end heap from the live slots'
    /// state alone — the oracle the incremental indexes are tested against.
    /// Cells are filled first and sorted once each: entering a large fleet
    /// in order entry by entry is quadratic in a cell's size.
    #[cfg(test)]
    fn rebuild_indexes(&mut self) {
        let table = &mut self.table;
        table.cells.iter_mut().for_each(Vec::clear);
        self.shift_ends.clear();
        for d in (0..self.drivers.len()).filter(|&d| self.available_at[d] != NEVER) {
            let cell = table.grid.slot_of(self.locations[d]);
            table.cells[cell].push((self.available_at[d], d as u32));
            let end = self.drivers[d].shift_end.as_secs();
            self.shift_ends.push(Reverse((end, d)));
        }
        table.cells.iter_mut().for_each(|cell| cell.sort_unstable());
    }

    /// The longest per-driver vector or index — what the bounded-memory
    /// tests measure against the peak of [`Fleet::resident`].
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        let gridded = self.table.cells.iter().map(Vec::len).sum();
        let lens = [
            self.drivers.len(),
            self.locations.len(),
            self.available_at.len(),
            self.shift_ends.len(),
            gridded,
        ];
        lens.into_iter().max().unwrap_or(0)
    }

    /// [`Fleet::candidates_into`] with a fresh vector — the convenient
    /// form for tests; every replay hot path passes a reusable arena
    /// instead.
    #[cfg(test)]
    pub(crate) fn candidates_at(&self, task: &Task, decision_time: Timestamp) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.candidates_into(task, decision_time, &mut out);
        out
    }

    /// Every driver who can feasibly serve `task` when the dispatch
    /// decision is made at `decision_time`: she can reach the pickup from
    /// her projected position by the deadline (departing no earlier than
    /// the decision), can still get home afterwards, and is inside her
    /// shift. `out` is cleared and refilled sorted by announced id, each
    /// candidate carrying the Eq. 14 marginal value — callers keep one
    /// scratch vector per replay so the per-decision allocation disappears.
    pub(crate) fn candidates_into(
        &self,
        task: &Task,
        decision_time: Timestamp,
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        #[cfg(any(test, feature = "oracle"))]
        if self.fold {
            out.extend(fold_candidates(self, task, decision_time));
            return;
        }
        probe!(probe::count(Count::Scans, 1));
        if !decidable(task, decision_time) {
            return;
        }

        // Any driver farther than the loosest possible travel budget — she
        // departs no earlier than the decision — cannot arrive in time.
        // One second of slack keeps the prune lossless: travel times round
        // to whole seconds, so a driver fractionally past the exact radius
        // can still round down into the budget. The cover is a superset of
        // the disc (`evaluate` re-checks arrival exactly anyway).
        let table = &self.table;
        let budget = task.pickup_deadline - decision_time + TimeDelta::from_secs(1);
        let radius = self.speed.reachable_km(budget);
        let (rows, cols) = table.grid.cover(task.origin, radius);
        let mut reach = Reach {
            task,
            decision_time,
            pickup_max: budget,
            home_max: table.diagonal,
            pickup: None,
            home: None,
        };
        probe!(let cells = rows.len() * cols.len(););
        probe!(let (mut walked, mut evaluated) = (0, 0););
        for cell in rows.flat_map(|row| cols.clone().map(move |col| CellId::new(row, col))) {
            let walk = table.cell(cell).iter();
            for &(free, d) in walk.take_while(|&&(free, _)| free <= task.pickup_deadline) {
                probe!(walked += 1);
                let d = d as usize;
                if !reach.excludes(self, free, d) {
                    probe!(evaluated += 1);
                    out.extend(self.evaluate(task, decision_time, d));
                }
            }
        }
        probe!(probe::count(Count::Cells, cells as u64));
        probe!(probe::count(Count::Entries, walked));
        probe!(probe::count(Count::Evaluations, evaluated));
        // Announced ids are unique, so the unstable sort's order is the
        // stable one's.
        out.sort_unstable_by_key(|c| c.driver);
        probe!(probe::count(Count::Candidates, out.len() as u64));
    }

    /// Evaluates one *(driver, task)* pair under a decision made at
    /// `decision_time`: `Some(candidate)` iff feasible. This is the exact
    /// per-pair predicate behind [`Fleet::candidates_into`]; batched
    /// dispatch also probes it directly to refresh only the entries of
    /// drivers whose state changed.
    pub(crate) fn candidate_for(
        &self,
        task: &Task,
        decision_time: Timestamp,
        slot: u32,
    ) -> Option<Candidate> {
        if !decidable(task, decision_time) {
            return None;
        }
        self.evaluate(task, decision_time, slot as usize)
    }

    /// When the driver in `slot` is next free: [`Fleet::evaluate`] rejects
    /// her for every order whose pickup deadline precedes it.
    pub(crate) fn available_at(&self, slot: u32) -> Timestamp {
        self.available_at[slot as usize]
    }

    /// The feasibility predicates and Eq. 14 value for one pair
    /// ([`decidable`] is the caller's precondition).
    fn evaluate(&self, task: &Task, decision_time: Timestamp, d: usize) -> Option<Candidate> {
        // Availability pre-reject: `available_at` starts at the shift
        // start and only ever grows, and `depart >= available_at`, so a
        // driver unavailable past the pickup deadline can never arrive in
        // time — settled by one flat-array compare, no distance needed.
        // Under saturation this retires the vast majority of pairs before
        // any trigonometry.
        if self.available_at[d] > task.pickup_deadline {
            return None;
        }
        let speed = self.speed;
        let driver = &self.drivers[d];
        let location = self.locations[d];
        // Departure: not before the order exists, the dispatch decision
        // is made, the driver is free, and her shift has started.
        let depart = self.available_at[d]
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
            driver: driver.id,
            slot: d as u32,
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
    /// Only drivers on shift at publication (`shift_end ≥ publish_time`)
    /// count: one whose shift ended before can never serve the order. That
    /// is a property of the pair, not of when a lane retired her, so every
    /// lane computes the same epoch. Every retired driver fails it, since
    /// [`Fleet::retire_before`]'s floor is at most every held order's
    /// publication, so removing her cell entry cannot move an epoch.
    ///
    /// The search stops at the first point whose epoch reaches `cap` (the
    /// clamp settles the answer there), and reads no point at all when
    /// `publish_time` already reaches it.
    pub(crate) fn latest_decision(&self, task: &Task, cap: Timestamp) -> Timestamp {
        #[cfg(any(test, feature = "oracle"))]
        if self.fold {
            return fold_latest_decision(self, task, cap);
        }
        let speed = self.speed;
        let latest = |loc: GeoPoint| task.pickup_deadline - speed.travel_time(loc, task.origin);
        let on_shift = |d: usize| self.drivers[d].shift_end >= task.publish_time;
        let mut best = task.publish_time;
        probe!(probe::count(Count::Searches, 1));
        if best >= cap {
            return cap;
        }
        // A point beyond the budget left by the best epoch so far has
        // `pickup_deadline − travel < best` and cannot raise it (same 1 s
        // rounding slack as the candidate scan) — from the `publish_time`
        // floor on, and tighter with every nearer point found. So search
        // rings of cells outward from the pickup's, shrink the cover after
        // each, and stop once a ring has passed all four of its sides.
        // Inside a ring the same budget rejects a point as a disc bound,
        // before its travel time, and shrinks with every point that raises
        // the epoch.
        let table = &self.table;
        let budget = |best: Timestamp| {
            (task.pickup_deadline - best + TimeDelta::from_secs(1)).max(TimeDelta::ZERO)
        };
        let mut left = budget(best);
        let mut bound = None;
        let home = table.grid.cell_of(task.origin);
        let (mut rows, mut cols) = table.grid.cover(task.origin, speed.reachable_km(left));
        for ring in 0.. {
            let before = best;
            let cells = ring_cells(home, ring)
                .filter(|cell| rows.contains(&cell.row()) && cols.contains(&cell.col()));
            for &(_, d) in cells.flat_map(|cell| table.cell(cell)) {
                probe!(probe::count(Count::SearchEntries, 1));
                let d = d as usize;
                if !on_shift(d) {
                    continue;
                }
                let point = self.locations[d];
                // Built at the first point, for the widest budget.
                let disc = bound.get_or_insert_with(|| DiscBound::new(task.origin, speed, left));
                if disc.beyond(point, left) {
                    continue;
                }
                let found = latest(point);
                if found > best {
                    // `best` only rises and the result is clamped to `cap`,
                    // so this point settles it. Until now `best < cap`, so
                    // the disc bound, which skips only points below `best`,
                    // skipped none that reaches `cap`.
                    if found >= cap {
                        return cap;
                    }
                    best = found;
                    left = budget(best);
                }
            }
            if best > before {
                (rows, cols) = table.grid.cover(task.origin, speed.reachable_km(left));
            }
            let passed = |at: u16, range: &RangeInclusive<u16>| {
                at.saturating_sub(ring) <= *range.start() && at.saturating_add(ring) >= *range.end()
            };
            if passed(home.row(), &rows) && passed(home.col(), &cols) {
                break;
            }
        }
        best.min(cap)
    }

    /// A driver on shift at `task`'s publication who could still
    /// *interact* with it: reach its pickup within the publish→deadline
    /// lead (the loosest feasibility radius — she departs no earlier than
    /// publication), which is also exactly the radius inside which she
    /// could raise the task's early-flush epoch above its `publish_time`
    /// floor. `None` proves the task is independent of every driver this
    /// fleet holds — the region-sharding proof obligation (`shard.rs`),
    /// the streaming mirror of `disjoint_components`. A driver whose shift
    /// ended before publication counts for neither, so retiring her loses
    /// no evidence, and a vacant slot's stale record never counts: its
    /// shift ended before [`Fleet::retire_before`]'s floor, and every
    /// order still to be checked publishes at or after that floor.
    pub(crate) fn interaction_with(&self, task: &Task) -> Option<DriverId> {
        let budget = task.pickup_deadline - task.publish_time + TimeDelta::from_secs(1);
        let fleet = self.drivers.iter().zip(&self.locations);
        fleet
            .filter(|(driver, _)| driver.shift_end >= task.publish_time)
            .find(|&(_, &loc)| self.speed.travel_time(loc, task.origin) <= budget)
            .map(|(driver, _)| driver.id)
    }

    /// Commits a dispatch: projects the driver in `slot` onto the task's
    /// destination, free at `arrival + duration`, and keeps the indexes in
    /// sync. Returns the deadhead she drives to the pickup, in kilometres.
    pub(crate) fn commit(&mut self, slot: u32, task: &Task, arrival: Timestamp) -> f64 {
        let d = slot as usize;
        let until = arrival + task.duration;
        let from = std::mem::replace(&mut self.locations[d], task.destination);
        let free = std::mem::replace(&mut self.available_at[d], until);
        self.table.remove(from, free, slot);
        self.table.insert(task.destination, until, slot);
        self.speed.driven_km(from, task.origin)
    }
}

/// Covers every driver and task location with a margin; degenerate markets
/// fall back to [`unit_box`].
pub(crate) fn market_bbox(market: &Market) -> BoundingBox {
    let drivers = market.drivers().iter();
    let tasks = market.tasks().iter();
    let points = drivers
        .flat_map(|d| [d.source, d.destination])
        .chain(tasks.flat_map(|t| [t.origin, t.destination]));
    BoundingBox::covering(points, 0.01).unwrap_or_else(unit_box)
}

/// The box a fleet is gridded over when its caller names none. Points
/// outside a box clamp into its border cells, so a box only costs speed.
pub(crate) fn unit_box() -> BoundingBox {
    BoundingBox::new(0.0, 1.0, 0.0, 1.0)
}

/// Every feasible candidate for `task` decided at `decision_time`, by
/// evaluating each live driver, sorted by announced id: the reference
/// [`Fleet::candidates_into`]'s prunes are tested against.
#[cfg(any(test, feature = "oracle"))]
fn fold_candidates(fleet: &Fleet, task: &Task, decision_time: Timestamp) -> Vec<Candidate> {
    let slots = 0..fleet.drivers.len() as u32;
    let mut out: Vec<Candidate> = slots
        .filter(|&d| fleet.available_at[d as usize] != NEVER)
        .filter_map(|d| fleet.candidate_for(task, decision_time, d))
        .collect();
    out.sort_unstable_by_key(|c| c.driver);
    out
}

/// [`Fleet::latest_decision`] by folding the epoch of every driver on shift
/// at `task`'s publication: the reference the ring search is tested
/// against. A vacant slot's stale record is never on shift: its shift
/// ended before [`Fleet::retire_before`]'s floor, and every order still to
/// be decided publishes at or after that floor.
#[cfg(any(test, feature = "oracle"))]
fn fold_latest_decision(fleet: &Fleet, task: &Task, cap: Timestamp) -> Timestamp {
    let residents = fleet.drivers.iter().zip(&fleet.locations);
    let on_shift = residents.filter(|(driver, _)| driver.shift_end >= task.publish_time);
    let latest =
        on_shift.map(|(_, &loc)| task.pickup_deadline - fleet.speed.travel_time(loc, task.origin));
    latest.fold(task.publish_time, Timestamp::max).min(cap)
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

    /// Task indices in publish order.
    fn publish_order(m: &Market) -> Vec<usize> {
        let mut order: Vec<usize> = (0..m.num_tasks()).collect();
        order.sort_by_key(|&t| (m.tasks()[t].publish_time, t));
        order
    }

    /// `fleet`'s early-flush epoch for `task` under `cap`, asserted equal
    /// to the fold's.
    fn epoch_of(fleet: &Fleet, task: &Task, cap: Timestamp) -> Timestamp {
        let epoch = fleet.latest_decision(task, cap);
        let folded = fold_latest_decision(fleet, task, cap);
        assert_eq!(epoch, folded, "task {} cap {cap}", task.id);
        epoch
    }

    #[test]
    fn grid_pruning_is_lossless_at_any_decision_time() {
        // Both questions, index ≡ fold, asked of a fleet that churns the
        // way a stream's does — drivers announced late, into slots retired
        // ones freed, committed, retired by a clock that lags the orders
        // (so some shifts have ended unretired) — over a box that holds every point, over
        // one most points fall outside of, and over one that holds none
        // (every point clamps into a border cell). That last one is the
        // unit box, which a fleet given no box is built over.
        let m = market(71, 240, 40);
        let full = market_bbox(&m);
        let (lat, lon) = (full.center().lat(), full.center().lon());
        let inner = BoundingBox::new(lat - 0.02, lat + 0.02, lon - 0.03, lon + 0.03);
        let empty = BoundingBox::new(0.0, 1.0, 0.0, 1.0);
        assert_eq!(empty, unit_box());
        // Epochs that reached their cap, and epochs that fell short of it.
        let (mut capped, mut short) = (0usize, 0usize);
        for bbox in [full, inner, empty] {
            let mut fleet = Fleet::new(m.speed(), bbox);
            let mut late = m.drivers().iter();
            for (step, &t) in publish_order(&m).iter().enumerate() {
                let task = &m.tasks()[t];
                let publish = task.publish_time;
                if step % 2 == 0 {
                    late.next().into_iter().for_each(|d| fleet.announce(*d));
                }
                if step % 3 == 0 {
                    fleet.retire_before(publish);
                }
                for delay_mins in [0i64, 2, 10, 45] {
                    let at = publish + TimeDelta::from_mins(delay_mins);
                    assert_eq!(
                        fold_candidates(&fleet, task, at),
                        fleet.candidates_at(task, at),
                        "task {t} at {at}"
                    );
                }
                // From the publish instant, where every epoch is the cap,
                // to the deadline no epoch exceeds, where the cap is inert
                // and the nearest point's own epoch is compared.
                let windows = [0i64, 1, 3, 10].map(|mins| publish + TimeDelta::from_mins(mins));
                for cap in windows.into_iter().chain([task.pickup_deadline]) {
                    if epoch_of(&fleet, task, cap) == cap {
                        capped += 1;
                    } else {
                        short += 1;
                    }
                }
                if let Some(c) = fleet.candidates_at(task, publish).first() {
                    fleet.commit(c.slot, task, c.arrival);
                }
            }
            assert_eq!(fleet.announced(), m.num_drivers());
            assert!(fleet.drivers.len() < m.num_drivers(), "no slot was reused");
        }
        assert!(capped > 0 && short > 0, "{capped} capped, {short} short");

        // §V-B's value order, as `decide_each` sees it from
        // `replay_market_by_value`: the whole fleet announced up front,
        // then every task in descending price at its own publish instant —
        // the decision clock runs backwards and nothing retires.
        let mut by_value: Vec<&Task> = m.tasks().iter().collect();
        by_value.sort_by(|a, b| b.price.partial_cmp(&a.price).unwrap().then(a.id.cmp(&b.id)));
        for bbox in [full, inner, empty] {
            let mut fleet = Fleet::new(m.speed(), bbox);
            m.drivers().iter().for_each(|d| fleet.announce(*d));
            let mut committed = 0;
            for task in &by_value {
                let at = task.publish_time;
                let candidates = fleet.candidates_at(task, at);
                assert_eq!(fold_candidates(&fleet, task, at), candidates, "{}", task.id);
                if let Some(c) = candidates.first() {
                    fleet.commit(c.slot, task, c.arrival);
                    committed += 1;
                }
            }
            assert!(committed > 0, "value order never committed");
        }
    }

    #[test]
    fn later_decisions_never_grow_the_candidate_set() {
        // A later decision only delays departures, so feasibility shrinks
        // monotonically (driver states held fixed).
        let m = market(72, 40, 15);
        let fleet = Fleet::for_market(&m);
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let publish = task.publish_time;
            let now = fleet.candidates_at(task, publish);
            let later = fleet.candidates_at(task, publish + TimeDelta::from_mins(5));
            let now_drivers: Vec<DriverId> = now.iter().map(|c| c.driver).collect();
            for c in &later {
                assert!(now_drivers.contains(&c.driver), "candidate appeared late");
            }
        }
    }

    #[test]
    fn decision_past_pickup_deadline_is_empty() {
        let m = market(73, 20, 10);
        let fleet = Fleet::for_market(&m);
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let past = task.pickup_deadline + TimeDelta::from_secs(1);
            assert!(fleet.candidates_at(task, past).is_empty());
            assert_eq!(fleet.candidate_for(task, past, 0), None);
        }
    }

    #[test]
    fn commit_moves_the_driver_and_the_index() {
        let m = market(74, 30, 6);
        let mut fleet = Fleet::for_market(&m);
        let task = &m.tasks()[0];
        let publish = task.publish_time;
        let cands = fleet.candidates_at(task, publish);
        if let Some(c) = cands.first() {
            let d = c.slot as usize;
            assert_eq!(c.driver, m.drivers()[d].id);
            let from = fleet.locations[d];
            let deadhead = fleet.commit(c.slot, task, c.arrival);
            assert_eq!(deadhead, m.speed().driven_km(from, task.origin));
            assert_eq!(fleet.locations[d], task.destination);
            assert_eq!(fleet.available_at[d], c.arrival + task.duration);
            // The index tracked the move: the fold over the moved state
            // agrees with the grid.
            for t in 1..m.num_tasks() {
                let next = &m.tasks()[t];
                let at = next.publish_time;
                assert_eq!(
                    fold_candidates(&fleet, next, at),
                    fleet.candidates_at(next, at)
                );
            }
        }
    }

    #[test]
    fn incremental_driver_onboarding_matches_for_market() {
        // Announcing drivers one by one (the streaming path) yields the
        // same fleet as building from the whole market.
        let m = market(75, 40, 12);
        let batch = Fleet::for_market(&m);
        let mut inc = Fleet::new(m.speed(), market_bbox(&m));
        for d in m.drivers() {
            inc.announce(*d);
        }
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            let at = task.publish_time;
            assert_eq!(
                batch.candidates_at(task, at),
                inc.candidates_at(task, at),
                "task {t}"
            );
        }
    }

    /// An order picked up at `origin`: published at 10:00, to be picked
    /// up within 15 minutes and completed within 40.
    fn order_at(origin: GeoPoint) -> Task {
        let publish = Timestamp::from_hours(10);
        Task {
            id: rideshare_types::TaskId::new(0),
            publish_time: publish,
            origin,
            destination: origin.offset_km(1.0, 1.0),
            pickup_deadline: publish + TimeDelta::from_mins(15),
            completion_deadline: publish + TimeDelta::from_mins(40),
            duration: TimeDelta::from_mins(10),
            price: rideshare_types::Money::new(10.0),
            valuation: rideshare_types::Money::new(12.0),
            service_cost: rideshare_types::Money::new(1.0),
        }
    }

    #[test]
    fn retirement_cannot_move_an_epoch() {
        // A driver whose shift ended before an order published can never
        // serve it, so she does not count for its early-flush epoch, near
        // as she is: not before the clock retires her, not once it has,
        // and not once a driver announced later has taken her slot. So no
        // retirement schedule can move an epoch. One second more shift and
        // she sets it.
        let speed = SpeedModel::urban();
        let origin = GeoPoint::new(41.15, -8.61);
        let task = order_at(origin);
        let near_expired = Driver {
            id: DriverId::new(0),
            source: origin.offset_km(0.3, 0.0), // ~1 min from the pickup
            destination: origin,
            shift_start: Timestamp::EPOCH,
            shift_end: task.publish_time - TimeDelta::from_secs(1),
            model: DriverModel::Hitchhiking,
        };
        let far_live = Driver {
            id: DriverId::new(1),
            source: origin.offset_km(0.0, 4.0), // ~13 min away
            destination: origin.offset_km(0.0, 4.0),
            shift_start: Timestamp::EPOCH,
            shift_end: Timestamp::from_hours(24),
            model: DriverModel::HomeWorkHome,
        };
        let late = Driver {
            id: DriverId::new(2),
            ..far_live
        };
        let cap = task.pickup_deadline;
        let epoch = |d: &Driver| cap - speed.travel_time(d.source, origin);
        assert!(task.publish_time < epoch(&far_live) && epoch(&far_live) < epoch(&near_expired));

        for bbox in [unit_box(), BoundingBox::new(41.0, 41.3, -8.8, -8.3)] {
            let ctx = format!("{bbox:?}");
            let fleet_of = |drivers: &[Driver]| {
                let mut fleet = Fleet::new(speed, bbox);
                drivers.iter().for_each(|d| fleet.announce(*d));
                fleet
            };
            let on_shift = Driver {
                shift_end: task.publish_time,
                ..near_expired
            };
            let fleet = fleet_of(&[on_shift, far_live]);
            assert_eq!(epoch_of(&fleet, &task, cap), epoch(&near_expired), "{ctx}");

            let mut fleet = fleet_of(&[near_expired, far_live]);
            let baseline = epoch(&far_live);
            assert_eq!(epoch_of(&fleet, &task, cap), baseline, "unretired, {ctx}");
            fleet.retire_before(task.publish_time);
            assert_eq!((fleet.freed(), &fleet.vacant[..]), (1, &[0][..]));
            assert_eq!(epoch_of(&fleet, &task, cap), baseline, "retired, {ctx}");
            fleet.announce(late);
            assert_eq!(fleet.drivers, [late, far_live], "the freed slot is reused");
            assert_eq!(epoch_of(&fleet, &task, cap), baseline, "reused, {ctx}");
        }
    }

    #[test]
    fn the_early_flush_search_stops_at_the_first_epoch_that_reaches_the_cap() {
        // The epoch is clamped to the window end (`cap`), so the grid
        // search may stop at the first point whose epoch reaches it. A
        // tripwire — a cell entry naming a driver that does not exist, so
        // a search that reads it panics — shows where it stopped, and
        // every answer equals the fold over the state vectors, which never
        // reads the table.
        let speed = SpeedModel::urban();
        // Cells of 0.01° a side; the pickup sits 0.0005° inside its
        // cell's east edge.
        let bbox = BoundingBox::new(41.0, 41.16, -8.8, -8.64);
        let origin = GeoPoint::new(41.085, -8.7105);
        let driver = |id, at: GeoPoint| Driver {
            id: DriverId::new(id),
            source: at,
            destination: at,
            shift_start: Timestamp::from_hours(6),
            shift_end: Timestamp::from_hours(24),
            model: DriverModel::Hitchhiking,
        };
        // In the pickup's cell but at its far side (~2.3 min away), and
        // just across the cell's east edge (~0.5 min away).
        let far_side = driver(0, origin.offset_km(0.0, -0.7));
        let across = driver(1, origin.offset_km(0.0, 0.15));
        let cells = GridIndex::new(bbox, GRID_ROWS, GRID_COLS);
        let home = cells.cell_of(origin);
        assert_eq!(cells.cell_of(far_side.source), home);
        assert_eq!(
            cells.cell_of(across.source),
            CellId::new(home.row(), home.col() + 1)
        );
        let task = order_at(origin);
        let epoch = |d: &Driver| task.pickup_deadline - speed.travel_time(d.source, origin);
        let fleet_of = |drivers: &[Driver]| {
            let mut fleet = Fleet::new(speed, bbox);
            drivers.iter().for_each(|d| fleet.announce(*d));
            fleet
        };
        let trip_wire = |fleet: &mut Fleet, at: GeoPoint, key: Timestamp| {
            fleet.table.insert(at, key, u32::MAX);
        };

        // The pickup's own cell falls short of the cap; the next cell's
        // driver reaches it, or meets it exactly, and the search stops
        // there, before the tripwire free an hour after her.
        let cap = task.pickup_deadline - TimeDelta::from_mins(1);
        assert!(epoch(&far_side) < cap && cap < epoch(&across));
        let mut fleet = fleet_of(&[far_side, across]);
        trip_wire(&mut fleet, across.source, Timestamp::from_hours(7));
        for cap in [cap, epoch(&across)] {
            assert_eq!(epoch_of(&fleet, &task, cap), cap);
        }

        // No point reaches the cap: the nearest point's own epoch.
        let fleet = fleet_of(&[far_side, across]);
        let just_past = epoch(&across) + TimeDelta::from_secs(1);
        for cap in [just_past, task.pickup_deadline] {
            assert_eq!(epoch_of(&fleet, &task, cap), epoch(&across));
        }

        // An order published at its window end reads no point at all:
        // the tripwire heads the pickup's cell.
        let publish = task.publish_time;
        for drivers in [&[][..], &[far_side, across]] {
            let mut fleet = fleet_of(drivers);
            trip_wire(&mut fleet, origin, Timestamp::EPOCH);
            assert_eq!(epoch_of(&fleet, &task, publish), publish);
        }

        // The driver across the edge, but off shift since before the
        // order published: she does not count, so the pickup's own cell
        // settles the epoch. Unretired, her entry is read and fails the
        // shift compare; retired, her cell holds no entry at all.
        let gone = Driver {
            shift_end: task.publish_time - TimeDelta::from_hours(1),
            ..across
        };
        let mut fleet = fleet_of(&[far_side, gone]);
        assert_eq!(epoch_of(&fleet, &task, cap), epoch(&far_side));
        fleet.retire_before(task.publish_time);
        assert_eq!(fleet.freed(), 1);
        assert!(fleet.table.cell(cells.cell_of(across.source)).is_empty());
        assert_eq!(epoch_of(&fleet, &task, cap), epoch(&far_side));
    }

    #[test]
    fn expiring_a_dead_driver_changes_nothing() {
        // Retire every driver whose shift ended before some cutoff; any
        // task decided after the cutoff sees identical candidates, and
        // `latest_decision` (which counts only drivers on shift) is
        // untouched too.
        let m = market(76, 50, 20);
        let plain = Fleet::for_market(&m);
        let mut expired = Fleet::for_market(&m);
        let cutoff = Timestamp::from_hours(14);
        expired.retire_before(cutoff);
        let ended = m.drivers().iter().filter(|d| d.shift_end < cutoff);
        let gone = expired.freed();
        assert_eq!(gone, ended.count(), "exactly the shifts that ended");
        assert!(gone > 0, "seed must produce an early shift");
        for t in 0..m.num_tasks() {
            let task = &m.tasks()[t];
            if task.publish_time < cutoff {
                continue;
            }
            let at = task.publish_time;
            assert_eq!(
                plain.candidates_at(task, at),
                expired.candidates_at(task, at),
                "task {t}"
            );
            assert_eq!(
                plain.latest_decision(task, at),
                expired.latest_decision(task, at),
            );
        }
    }

    /// The cell table's entries, each cell sorted (the table orders a cell
    /// by `available_at` alone; entries free at the same instant may sit
    /// either way round), and the shift-end heap's pop order.
    type Indexes = (Vec<Vec<(Timestamp, u32)>>, Vec<(i64, usize)>);

    fn indexes(fleet: &Fleet) -> Indexes {
        let table = &fleet.table;
        let sorted = |cell: &Vec<(Timestamp, u32)>| {
            let mut cell = cell.clone();
            cell.sort_unstable();
            cell
        };
        let heap = fleet.shift_ends.clone().into_sorted_vec();
        (
            table.cells.iter().map(sorted).collect(),
            heap.into_iter().rev().map(|Reverse(e)| e).collect(),
        )
    }

    /// The cell table recomputed from the state vectors by brute force —
    /// no index is consulted: every live driver is entered once, in the
    /// cell of her location, under her current `available_at`, and no
    /// vacant slot is; and every cell is ascending as it stands.
    fn assert_grid_is_exact(fleet: &Fleet) {
        let table = &fleet.table;
        let mut members = vec![Vec::new(); table.grid.slot_count()];
        for (d, (&loc, &free)) in fleet.locations.iter().zip(&fleet.available_at).enumerate() {
            if free != NEVER {
                members[table.grid.slot_of(loc)].push((free, d as u32));
            }
        }
        members.iter_mut().for_each(|cell| cell.sort_unstable());
        assert_eq!(indexes(fleet).0, members);
        for cell in &table.cells {
            assert!(
                cell.windows(2).all(|pair| pair[0].0 <= pair[1].0),
                "{cell:?}"
            );
        }
    }

    /// A fresh fleet handed `fleet`'s state, its indexes rebuilt from it.
    fn rebuilt(fleet: &Fleet) -> Fleet {
        let mut fresh = Fleet::new(fleet.speed, fleet.table.grid.bounding_box());
        fresh.drivers.clone_from(&fleet.drivers);
        fresh.locations.clone_from(&fleet.locations);
        fresh.available_at.clone_from(&fleet.available_at);
        fresh.rebuild_indexes();
        fresh
    }

    /// A fresh fleet holding `fleet`'s live drivers in fresh slots, in id
    /// order, its indexes rebuilt from them.
    fn repacked(fleet: &Fleet) -> Fleet {
        let mut fresh = Fleet::new(fleet.speed, fleet.table.grid.bounding_box());
        let mut live: Vec<usize> = (0..fleet.drivers.len())
            .filter(|&d| fleet.available_at[d] != NEVER)
            .collect();
        live.sort_by_key(|&d| fleet.drivers[d].id);
        for d in live {
            fresh.drivers.push(fleet.drivers[d]);
            fresh.locations.push(fleet.locations[d]);
            fresh.available_at.push(fleet.available_at[d]);
        }
        fresh.rebuild_indexes();
        fresh
    }

    /// `fleet`'s live drivers, by id.
    fn live(fleet: &Fleet) -> Vec<Driver> {
        let states = fleet.drivers.iter().zip(&fleet.available_at);
        let mut live: Vec<Driver> = states
            .filter(|&(_, &free)| free != NEVER)
            .map(|(d, _)| *d)
            .collect();
        live.sort_by_key(|d| d.id);
        live
    }

    /// The candidates for `task` decided at its publication, slots aside.
    fn answers(fleet: &Fleet, task: &Task) -> Vec<(DriverId, Timestamp, u64)> {
        let candidates = fleet.candidates_at(task, task.publish_time);
        let answer = |c: &Candidate| (c.driver, c.arrival, c.marginal_value.to_bits());
        candidates.iter().map(answer).collect()
    }

    #[test]
    fn freed_slots_are_reused_and_never_move_an_answer() {
        // Random announce / commit / retire sequences. After every call,
        // retirement has freed exactly the shifts that ended before its
        // floor, the indexes equal a rebuild from the state and the grid
        // is exact, the state vectors are as long as the peak live fleet,
        // and a fleet holding the same drivers in fresh slots, in id order,
        // answers the next orders alike: which slot a driver takes moves
        // nothing.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let m = market(78, 400, 80);
        let order = publish_order(&m);
        let mut reused = 0;
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fleet = Fleet::new(m.speed(), market_bbox(&m));
            let mut late = m.drivers().iter();
            let (mut next, mut peak) = (0, 0);
            while next < order.len() {
                let task = &m.tasks()[order[next]];
                match rng.gen_range(0..3) {
                    0 => {
                        if let Some(d) = late.next() {
                            reused += usize::from(!fleet.vacant.is_empty());
                            fleet.announce(*d);
                        }
                    }
                    1 => {
                        if let Some(c) = fleet.candidates_at(task, task.publish_time).first() {
                            fleet.commit(c.slot, task, c.arrival);
                        }
                        next += 1;
                    }
                    _ => {
                        let floor = task.publish_time;
                        let (before, freed) = (live(&fleet), fleet.freed());
                        fleet.retire_before(floor);
                        let kept: Vec<Driver> = before
                            .iter()
                            .filter(|d| d.shift_end >= floor)
                            .copied()
                            .collect();
                        assert_eq!(live(&fleet), kept, "seed {seed}, order {next}");
                        assert_eq!(fleet.freed(), freed + before.len() - kept.len());
                    }
                }
                peak = peak.max(fleet.resident());
                assert_eq!(fleet.drivers.len(), peak, "seed {seed}, order {next}");
                assert_eq!(indexes(&fleet), indexes(&rebuilt(&fleet)));
                assert_grid_is_exact(&fleet);
                let repacked = repacked(&fleet);
                for &t in &order[next..order.len().min(next + 3)] {
                    let task = &m.tasks()[t];
                    assert_eq!(answers(&fleet, task), answers(&repacked, task), "task {t}");
                    let publish = task.publish_time;
                    let three_mins = publish + TimeDelta::from_mins(3);
                    for cap in [publish, three_mins, task.pickup_deadline] {
                        assert_eq!(
                            fleet.latest_decision(task, cap),
                            repacked.latest_decision(task, cap),
                            "seed {seed}, task {t}, cap {cap}"
                        );
                    }
                }
            }
        }
        assert!(reused > 4, "{reused} slots reused");
    }
}
