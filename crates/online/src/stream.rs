//! The dispatch engine: bounded-memory online dispatch over an event
//! stream.
//!
//! [`StreamEngine`] is the one place in this crate where orders are
//! ordered, held, decided and counted. It consumes an ordered
//! [`StreamEvent`] sequence — shift announcements, published orders, clock
//! ticks — and keeps only what a real dispatch platform would: per-driver
//! projected state plus the orders currently being held for a decision.
//! Everything per driver — state, and the indexes derived from it — lives
//! in the one `Fleet` of `candidates.rs`; the engine itself holds the
//! orders, the hold, the clock and the counters. Resident state is
//! `O(active tasks + live fleet)` under every policy, never `O(trace)`;
//! results leave through a [`StreamSink`] as they are decided. Building a
//! [`Market`] is `O(trace)` memory (its `O(M²)` offline chain arcs are
//! built on first read, and online dispatch never reads them), so
//! million-order days are fed lazily; a market that *is* materialized is
//! fed through the same engine by [`crate::replay_market`].
//!
//! # One engine, two ways to decide
//!
//! - instant mode ([`StreamPolicy::Instant`]) decides each order at its
//!   publish instant: candidate set, [`InstantRule`] choice, commit —
//!   Algs. 3–4,
//! - batched mode ([`StreamPolicy::Batched`]) holds orders for a window
//!   and closes it through the early-flush epochs `batch.rs` documents:
//!   the greedy matcher's from a heap of pairs, the assignment LP's in
//!   rounds.
//!
//! Two details make a stream reproduce what a platform that knows the
//! whole day would decide:
//!
//! - **Driver announcements come early.** A driver whose shift starts
//!   hours from now can legally be dispatched an order published *now*
//!   (she departs when her shift opens). So a stream must announce a
//!   driver before the first order she could feasibly serve; announcing
//!   everyone up front — what [`market_events`] and [`priced_events`]
//!   do — is always valid, and driver state is `O(drivers)` by
//!   design.
//! - **Retirement is lossless.** Once the decision clock passes a
//!   driver's shift end she can never again pass the return-home check,
//!   so the engine retires her: her cell entry goes and her slot is free
//!   for the next driver announced, without any observable difference.
//!   The clock is the only way a driver leaves:
//!   her announced shift says when, so no event does. Held *tasks* retire
//!   at their decision epoch:
//!   instant orders are decided the moment their publish group closes,
//!   batched orders no later than their window end.
//!
//! Same-timestamp orders are decided in task-id order regardless of
//! arrival order, so delivery reordering within one timestamp cannot
//! change results (a property test pins this). The facade's
//! `stream_equivalence` suite pins the front-end against a run that folds
//! over every driver instead of searching the grid, and the plain run
//! against recorded digests; retirement, ticks, the grid's box and
//! sharding are each pinned against the front-end or the plain run.
//!
//! # Examples
//!
//! A materialized market, streamed by hand (gridded over the default unit
//! box) and through the front-end (gridded over the market's own box):
//!
//! ```
//! use rideshare_core::{Market, MarketBuildOptions};
//! use rideshare_online::{
//!     market_events, replay_market, replay_stream, CollectingSink, InstantRule, StreamOptions,
//!     StreamPolicy,
//! };
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let trace = TraceConfig::porto()
//!     .with_seed(9)
//!     .with_task_count(120)
//!     .with_driver_count(15, DriverModel::Hitchhiking)
//!     .generate();
//! let market = Market::from_trace(&trace, &MarketBuildOptions::default());
//!
//! let mut sink = CollectingSink::new();
//! let summary = replay_stream(
//!     market.speed(),
//!     market_events(&market),
//!     StreamPolicy::Instant(InstantRule::MaxMargin),
//!     StreamOptions::default(),
//!     &mut sink,
//! );
//! let streamed = sink.into_result();
//!
//! let materialized = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
//! assert_eq!(streamed.dispatch, materialized.dispatch);
//! assert_eq!(streamed.events, materialized.events);
//! assert_eq!(summary.served, materialized.served);
//! ```

use std::collections::BinaryHeap;

use rideshare_core::{
    Assignment, Driver, DriverRoute, Market, MarketBuildOptions, StreamPricer, Task,
};
use rideshare_geo::{BoundingBox, SpeedModel};
use rideshare_trace::TraceStream;
use rideshare_types::{DriverId, TaskId, TimeDelta, Timestamp};

use crate::batch::{optimal_round, BatchRound, MatcherKind, RankedPair, RoundRule};
use crate::candidates::{unit_box, Fleet};
use crate::market_replay::{DispatchEvent, SimulationResult};
use crate::policy::{Candidate, InstantRule};
#[cfg(feature = "stage-probe")]
use crate::probe::{self, Count, Stage};

/// One event of an ordered market stream.
///
/// Contract (checked by [`StreamEngine::push`]): task events arrive in
/// non-decreasing publish order (ties in any order); a driver is announced
/// before the first task she could feasibly serve (announcing all drivers
/// up front is always valid); [`StreamEvent::EpochTick`] never moves the
/// clock backwards.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StreamEvent {
    /// A driver announces her shift, and leaves when the clock passes its
    /// end. Ids strictly ascend in announcement order; they need not be
    /// dense, since a shard of [`crate::replay_sharded`] sees a subset.
    DriverOnline(Driver),
    /// A customer order is published, priced and timestamped.
    TaskPublished(Task),
    /// Advances the stream clock: asserts every event strictly before the
    /// instant has been delivered, closing publish groups and hold windows
    /// that end before it. Lets quiet periods make progress without
    /// waiting for the next order.
    EpochTick(Timestamp),
}

impl StreamEvent {
    /// The event's own position on the stream clock, if it has one.
    #[must_use]
    pub fn timestamp(&self) -> Option<Timestamp> {
        match self {
            StreamEvent::TaskPublished(t) => Some(t.publish_time),
            StreamEvent::EpochTick(t) => Some(*t),
            StreamEvent::DriverOnline(_) => None,
        }
    }
}

/// The one check on driver ids, made alike by the engine and the sharded
/// router: `id` must exceed `last`, the id announced before it. Returns
/// `id` as the new `last`.
///
/// # Panics
///
/// Panics if `id` does not exceed `last`.
pub(crate) fn next_announced(last: Option<DriverId>, id: DriverId) -> Option<DriverId> {
    if let Some(last) = last {
        assert!(
            id > last,
            "driver ids must ascend in announcement order: {id} after {last}"
        );
    }
    Some(id)
}

/// Where decided orders go. Implementations aggregate (windowed metrics),
/// collect (the oracle tests' [`CollectingSink`]), or forward — the engine
/// itself retains nothing per task once it is decided, which is what keeps
/// replay memory bounded.
pub trait StreamSink {
    /// A driver came online (fires before any dispatch can involve her).
    fn driver_online(&mut self, _driver: &Driver) {}
    /// `task` was dispatched; `event` carries the full operational record
    /// (arrival, decision time, wait, deadhead, Eq. 14 margin).
    fn dispatched(&mut self, _task: &Task, _event: &DispatchEvent) {}
    /// `task` was rejected at `decision_time` (empty candidate set, or
    /// unmatched at its batch epoch).
    fn rejected(&mut self, _task: &Task, _decision_time: Timestamp) {}
    /// A publish group or batch window was fully decided: every
    /// `dispatched`/`rejected` call for it has been delivered, and
    /// decisions are final through `end`. The serve daemon hangs snapshot
    /// and day-rollover logic off this hook because boundaries land on
    /// the *stream* clock — identical across shard counts and ingestion
    /// backends — never on wall time.
    fn window_closed(&mut self, _end: Timestamp) {}
}

/// Options for a streaming replay: the box candidate generation is
/// gridded over, the unit box unless [`StreamOptions::grid`] names one. The
/// box is a speed hint and never changes a result.
#[derive(Clone, Copy, Debug)]
pub struct StreamOptions {
    bbox: BoundingBox,
    #[cfg(any(test, feature = "oracle"))]
    fold: bool,
    /// A round rule that closes every batched epoch in place of the
    /// matcher's own close: the seam the closes' oracles run through.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) rounds: Option<RoundRule>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            bbox: unit_box(),
            #[cfg(any(test, feature = "oracle"))]
            fold: false,
            #[cfg(any(test, feature = "oracle"))]
            rounds: None,
        }
    }
}

impl StreamOptions {
    /// Grids candidate generation over `bbox`, typically the trace's
    /// service area.
    #[must_use]
    pub fn grid(mut self, bbox: BoundingBox) -> Self {
        self.bbox = bbox;
        self
    }

    /// Options whose engine answers every candidate and early-flush
    /// question by folding over all resident drivers, reading no grid:
    /// the reference the replay-level oracle tests compare the grid
    /// against. Compiled only with the `oracle` feature, which only test
    /// targets enable.
    #[doc(hidden)]
    #[cfg(any(test, feature = "oracle"))]
    #[must_use]
    pub fn fold_oracle() -> Self {
        Self {
            fold: true,
            ..Self::default()
        }
    }
}

/// How the stream's orders are decided: one value for the whole stream,
/// owning its rule's state (a clone draws what the original would).
///
/// ```
/// use rideshare_online::{InstantRule, MatcherKind, StreamPolicy};
/// use rideshare_types::TimeDelta;
///
/// let _instant = StreamPolicy::Instant(InstantRule::MaxMargin);
/// let window = TimeDelta::from_mins(3);
/// let _batch_3m = StreamPolicy::Batched { window, matcher: MatcherKind::Greedy };
/// let _batch_opt_3m = StreamPolicy::Batched { window, matcher: MatcherKind::Optimal };
/// ```
#[derive(Clone, Debug)]
pub enum StreamPolicy {
    /// Instant dispatch at publish time under a per-task rule
    /// (Algs. 3–4).
    Instant(InstantRule),
    /// Hold orders for `window` and decide jointly, with early-flush
    /// epochs closed by `matcher` (see `batch.rs`).
    Batched {
        /// The hold window `W ≥ 0`.
        window: TimeDelta,
        /// The per-batch matcher.
        matcher: MatcherKind,
    },
}

/// Aggregate outcome of a streaming replay, including the high-water marks
/// that demonstrate the bounded-memory claim.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct StreamSummary {
    /// Orders consumed from the stream.
    pub tasks: usize,
    /// Orders dispatched to a driver.
    pub served: usize,
    /// Orders rejected.
    pub rejected: usize,
    /// Drivers announced.
    pub drivers: usize,
    /// Drivers whose slots retirement freed: the stream clock passed their
    /// shift end, their cell entries went, and the next driver announced
    /// takes their slot.
    pub compacted_drivers: usize,
    /// High-water mark of simultaneously *held* (published, undecided)
    /// orders. Peak resident state is at most this plus `drivers` — the
    /// `O(active tasks + drivers)` bound, independent of trace length.
    pub peak_held_tasks: usize,
    /// The stream clock when the replay finished.
    pub clock: Timestamp,
}

impl StreamSummary {
    /// An upper bound on peak resident entities: the held orders' peak
    /// plus every driver announced, freed or not. The number the
    /// bounded-memory acceptance criterion is about.
    #[must_use]
    pub fn peak_resident(&self) -> usize {
        self.peak_held_tasks + self.drivers
    }
}

/// What is currently held, and the one statement of when it stops being
/// held: a hold opened by an order publishing at `P` runs through `P`
/// itself (an instant-mode publish group) or through `P + W` (a
/// batched-mode window), and closes when an order publishes, or a tick
/// lands, *strictly after* that end. [`StreamEngine::push`],
/// [`StreamEngine::open_window`] and the shard router — which reproduces
/// the sequential engine's boundaries for all shards — each ask this
/// type, so they cannot disagree about a boundary.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Hold {
    /// Nothing pending.
    Empty,
    /// An instant-mode publish group, all at this timestamp.
    Instant(Timestamp),
    /// A batched-mode hold window closing at this instant.
    Window(Timestamp),
}

impl Hold {
    /// The hold an order publishing at `publish` opens: a window of
    /// length `window`, or (`None`) an instant publish group.
    ///
    /// # Panics
    ///
    /// Panics if the window is negative.
    pub(crate) fn opened_at(publish: Timestamp, window: Option<TimeDelta>) -> Self {
        match window {
            None => Hold::Instant(publish),
            Some(w) => {
                assert!(w.is_non_negative(), "batch window must be non-negative");
                Hold::Window(publish + w)
            }
        }
    }

    /// The instant decisions become final through once this hold closes,
    /// if anything is held.
    pub(crate) fn end(self) -> Option<Timestamp> {
        match self {
            Hold::Empty => None,
            Hold::Instant(end) | Hold::Window(end) => Some(end),
        }
    }

    /// The end of this hold if an order publishing at `at`, or a tick
    /// landing on `at`, closes it.
    pub(crate) fn closed_by(self, at: Timestamp) -> Option<Timestamp> {
        self.end().filter(|&end| at > end)
    }
}

impl StreamPolicy {
    /// The hold window, if this policy batches.
    pub(crate) fn window(&self) -> Option<TimeDelta> {
        match self {
            StreamPolicy::Instant(_) => None,
            StreamPolicy::Batched { window, .. } => Some(*window),
        }
    }

    /// This policy itself: `benchmark/`'s `spec.holder().as_policy()`
    /// calls, kept until that package passes the policy (ROADMAP 4(a)).
    #[doc(hidden)]
    pub fn as_policy(&mut self) -> &mut Self {
        self
    }
}

/// The push-based streaming replay engine. See the module docs for the
/// model; [`replay_stream`] is the pull-everything convenience wrapper.
pub struct StreamEngine {
    /// Everything per driver: state, and the indexes derived from it.
    fleet: Fleet,
    pending: Vec<Task>,
    /// The emptied buffer of the last decided group: it trades places with
    /// `pending` at each flush, so both vectors keep their capacity across
    /// the replay instead of reallocating per publish group.
    spare: Vec<Task>,
    /// Reusable candidate arena for instant-mode dispatch.
    cand_scratch: Vec<Candidate>,
    /// Reusable per-window working memory for batched-mode dispatch.
    win_scratch: WindowScratch,
    hold: Hold,
    #[cfg(any(test, feature = "oracle"))]
    rounds: Option<RoundRule>,
    /// Latest instant through which decisions are final; new tasks must
    /// publish strictly later.
    decided_through: Option<Timestamp>,
    /// Greatest event timestamp seen; `None` until the first timestamped
    /// event (orders may legally publish before the epoch, so zero is not
    /// a valid starting clock).
    clock: Option<Timestamp>,
    served: usize,
    rejected: usize,
    peak_held: usize,
}

impl StreamEngine {
    /// Creates an engine with no drivers and nothing pending.
    #[must_use]
    pub fn new(speed: SpeedModel, options: StreamOptions) -> Self {
        let fleet = Fleet::new(speed, options.bbox);
        #[cfg(any(test, feature = "oracle"))]
        let fleet = fleet.folding(options.fold);
        Self {
            fleet,
            pending: Vec::new(),
            spare: Vec::new(),
            cand_scratch: Vec::new(),
            win_scratch: WindowScratch::default(),
            hold: Hold::Empty,
            #[cfg(any(test, feature = "oracle"))]
            rounds: options.rounds,
            decided_through: None,
            clock: None,
            served: 0,
            rejected: 0,
            peak_held: 0,
        }
    }

    /// Drivers announced so far.
    #[must_use]
    pub fn driver_count(&self) -> usize {
        self.fleet.announced()
    }

    /// Drivers currently resident (announced minus freed) — the number the
    /// bounded-memory claim is really about once fleets churn.
    #[must_use]
    pub fn resident_drivers(&self) -> usize {
        self.fleet.resident()
    }

    /// Feeds one event. Decisions triggered by it (a publish group or hold
    /// window closing) flow into `sink`. Pass the *same* `policy` for the
    /// whole stream — instant and batched holds are not interchangeable
    /// mid-flight.
    ///
    /// # Panics
    ///
    /// Panics when the stream violates its contract: task events out of
    /// publish order (or publishing into an already-decided instant), a
    /// clock tick moving backwards, driver ids that do not ascend, or a
    /// `policy` kind that contradicts the orders currently held.
    pub fn push(
        &mut self,
        event: StreamEvent,
        policy: &mut StreamPolicy,
        sink: &mut dyn StreamSink,
    ) {
        match event {
            StreamEvent::DriverOnline(driver) => {
                self.fleet.announce(driver);
                sink.driver_online(&driver);
            }
            StreamEvent::TaskPublished(task) => {
                let publish = task.publish_time;
                if let Some(done) = self.decided_through {
                    assert!(
                        publish > done,
                        "stream went backwards: order published at {publish} but decisions are \
                         final through {done}"
                    );
                }
                // A tick to `t` promised everything before `t` was already
                // delivered; an order publishing below the clock breaks
                // that promise (and would invalidate clock-based driver
                // expiry). Same-instant arrivals are fine.
                if let Some(clock) = self.clock {
                    assert!(
                        publish >= clock,
                        "stream went backwards: order published at {publish} behind the clock at \
                         {clock}"
                    );
                }
                if self.hold.closed_by(publish).is_some() {
                    self.flush(policy, sink);
                }
                if self.hold == Hold::Empty {
                    self.hold = Hold::opened_at(publish, policy.window());
                }
                self.clock = Some(publish);
                self.pending.push(task);
                self.peak_held = self.peak_held.max(self.pending.len());
            }
            StreamEvent::EpochTick(t) => {
                if let Some(clock) = self.clock {
                    assert!(t >= clock, "clock tick to {t} behind {clock}");
                }
                self.clock = Some(t);
                if self.hold.closed_by(t).is_some() {
                    self.flush(policy, sink);
                }
            }
        }
    }

    /// Closes whatever is still held and returns the replay summary.
    #[must_use]
    pub fn finish(mut self, policy: &mut StreamPolicy, sink: &mut dyn StreamSink) -> StreamSummary {
        if self.hold != Hold::Empty {
            self.flush(policy, sink);
        }
        probe!(probe::flush());
        StreamSummary {
            tasks: self.served + self.rejected,
            served: self.served,
            rejected: self.rejected,
            drivers: self.fleet.announced(),
            compacted_drivers: self.fleet.freed(),
            peak_held_tasks: self.peak_held,
            clock: self.clock.unwrap_or(Timestamp::EPOCH),
        }
    }

    /// Anchors a batched hold window of length `window` opening at `at` —
    /// the region-sharded engine's window-alignment hook. A sequential
    /// engine opens each window at its own first pending order's publish
    /// time; a shard must instead open at the *global* window start
    /// (another shard's order may have opened it), or its hold would close
    /// later than the sequential engine's and decision epochs would drift.
    /// Instant publish groups need no anchor: they are self-aligning
    /// (every member shares one timestamp).
    ///
    /// # Panics
    ///
    /// Panics if a window is already open (close it with
    /// [`StreamEvent::EpochTick`] first), if the clock has passed `at`, or
    /// if the batch window is negative.
    pub(crate) fn open_window(&mut self, at: Timestamp, window: TimeDelta) {
        assert_eq!(
            self.hold,
            Hold::Empty,
            "window anchored while another is open"
        );
        if let Some(clock) = self.clock {
            assert!(
                at >= clock,
                "window anchored at {at} behind the clock {clock}"
            );
        }
        self.clock = Some(at);
        self.hold = Hold::opened_at(at, Some(window));
    }

    /// Orders currently held (published, undecided), for the sharding
    /// validator's re-checks at window boundaries.
    pub(crate) fn pending_tasks(&self) -> &[Task] {
        &self.pending
    }

    /// A driver of this engine who could still interact with `task`, if
    /// any — see [`Fleet::interaction_with`].
    pub(crate) fn interaction_with(&self, task: &Task) -> Option<DriverId> {
        self.fleet.interaction_with(task)
    }

    /// Decides the currently held group/window.
    fn flush(&mut self, policy: &mut StreamPolicy, sink: &mut dyn StreamSink) {
        let hold = std::mem::replace(&mut self.hold, Hold::Empty);
        if self.pending.is_empty() {
            return;
        }
        self.fleet.retire_before(self.pending[0].publish_time);

        // Trade the held group for the spare buffer — both vectors keep
        // their capacity across the whole replay.
        let mut group = std::mem::replace(&mut self.pending, std::mem::take(&mut self.spare));
        match (hold, &mut *policy) {
            (Hold::Instant(at), StreamPolicy::Instant(rule)) => {
                // Same-timestamp orders decide in task-id order, making
                // intra-timestamp delivery order irrelevant.
                group.sort_by_key(|t| t.id.index());
                self.decide_each(&group, rule, sink);
                self.decided_through = Some(at);
            }
            (Hold::Window(end), StreamPolicy::Batched { matcher, .. }) => {
                self.decide_window(&group, end, *matcher, sink);
                self.decided_through = Some(end);
            }
            (held, _) => panic!("policy kind changed mid-stream while holding {held:?}"),
        }
        group.clear();
        self.spare = group;
        // Decisions are now final through `decided_through` (both arms
        // just set it).
        probe!(probe::start());
        if let Some(end) = self.decided_through {
            sink.window_closed(end);
        }
        probe!(probe::lap(Stage::Sink));
    }

    /// Instant dispatch, one order at a time in the order given: generate
    /// the candidate set at the order's publish instant (step (a) of
    /// Algs. 3–4), let `rule` pick, commit the winner; an order without a
    /// candidate is rejected.
    ///
    /// [`StreamEngine::flush`] calls this per publish group, after the
    /// stream clock has retired the drivers it may.
    /// [`crate::replay_market_by_value`] (§V-B) calls it directly with the
    /// whole day in descending-price order: that order runs the clock
    /// backwards, so it must reach neither the publish-order assertions of
    /// [`StreamEngine::push`] nor clock-based expiry, which is lossless
    /// only when no later decision is earlier in time.
    pub(crate) fn decide_each(
        &mut self,
        tasks: &[Task],
        rule: &mut InstantRule,
        sink: &mut dyn StreamSink,
    ) {
        for task in tasks {
            probe!(probe::start());
            let at = task.publish_time;
            self.fleet.candidates_into(task, at, &mut self.cand_scratch);
            probe!(probe::lap(Stage::Scan));
            let pick = (!self.cand_scratch.is_empty()).then(|| rule.choose(&self.cand_scratch));
            probe!(probe::lap(Stage::Choose));
            match pick {
                Some(k) => {
                    let (cand, candidates) = (self.cand_scratch[k], self.cand_scratch.len());
                    self.dispatch(task, cand, at, candidates, sink);
                }
                None => self.reject(task, at, sink),
            }
        }
    }

    /// Decides one closed hold window. `batch` holds its orders in publish
    /// order; `window_end` caps every decision epoch. Dispatches reach the
    /// sink in commit order, then one rejection per order left unmatched at
    /// its epoch.
    fn decide_window(
        &mut self,
        batch: &[Task],
        window_end: Timestamp,
        matcher: MatcherKind,
        sink: &mut dyn StreamSink,
    ) {
        let rule = match matcher {
            MatcherKind::Greedy => None,
            MatcherKind::Optimal => Some(optimal_round as RoundRule),
        };
        #[cfg(any(test, feature = "oracle"))]
        let rule = self.rounds.or(rule);
        probe!(probe::start());
        let mut scratch = std::mem::take(&mut self.win_scratch);
        // Early flush: a task that could not be feasibly dispatched at the
        // window end any more — its pickup deadline minus the closest
        // driver's travel falls inside the window — is decided at that
        // last feasible instant instead of expiring unserved. Sorting the
        // flat (epoch, task id, batch index) triples yields the epochs
        // ascending with each epoch's tasks in ascending task id.
        scratch.epochs.clear();
        for (bi, task) in batch.iter().enumerate() {
            let epoch = self.fleet.latest_decision(task, window_end);
            scratch.epochs.push((epoch, task.id.index(), bi));
        }
        scratch.epochs.sort_unstable();
        probe!(probe::lap(Stage::EarlyFlush));

        let mut e = 0usize;
        while e < scratch.epochs.len() {
            let decision_time = scratch.epochs[e].0;
            scratch.remaining.clear();
            scratch.ids.clear();
            while e < scratch.epochs.len() && scratch.epochs[e].0 == decision_time {
                let (_, id, bi) = scratch.epochs[e];
                scratch.ids.push(id);
                scratch.remaining.push(bi);
                e += 1;
            }
            probe!(probe::count(Count::Epochs, 1));
            match rule {
                None => self.close_from_heap(batch, decision_time, &mut scratch, sink),
                Some(rule) => self.close_in_rounds(batch, decision_time, rule, &mut scratch, sink),
            }
        }
        self.win_scratch = scratch;
    }

    /// Closes one decision epoch, the orders of `scratch.remaining`, in
    /// rounds of `rule`: offer every unmatched order's candidates, commit
    /// the answer, refresh the committed drivers' entries, ask again until
    /// an answer is empty, then reject what is left.
    fn close_in_rounds(
        &mut self,
        batch: &[Task],
        decision_time: Timestamp,
        rule: RoundRule,
        scratch: &mut WindowScratch,
        sink: &mut dyn StreamSink,
    ) {
        // Candidate lists are kept aligned with `remaining` and
        // refreshed incrementally: a round only moves the drivers it
        // commits, so only their entries can go stale.
        debug_assert!(scratch.candidates.is_empty());
        for &bi in &scratch.remaining {
            let mut list = scratch.pool.pop().unwrap_or_default();
            self.fleet
                .candidates_into(&batch[bi], decision_time, &mut list);
            scratch.candidates.push(list);
        }
        probe!(probe::lap(Stage::Scan));
        loop {
            let round = BatchRound {
                tasks: &scratch.ids,
                candidates: &scratch.candidates,
            };
            probe!(let offered = round.candidates.iter().map(Vec::len).sum::<usize>(););
            probe!(probe::count(Count::PairsRead, offered as u64));
            let mut picks = rule(&round);
            picks.sort_unstable();
            probe!(probe::lap(Stage::Choose));
            scratch.committed.clear();
            scratch.used_drivers.clear();
            for (slot, ci) in picks {
                let Some(cands) = scratch.candidates.get(slot) else {
                    continue;
                };
                let Some(&cand) = cands.get(ci) else {
                    continue;
                };
                // Disjointness: first slot wins, as `RoundRule` says.
                let used = scratch.used_drivers.iter().any(|c| c.driver == cand.driver);
                if used || scratch.committed.contains(&slot) {
                    continue;
                }
                let task = &batch[scratch.remaining[slot]];
                self.dispatch(task, cand, decision_time, cands.len(), sink);
                scratch.committed.push(slot);
                scratch.used_drivers.push(cand);
            }
            if scratch.committed.is_empty() {
                break;
            }
            // Drop the committed slots in place (order preserved),
            // keeping the retired lists' capacity in the pool.
            let mut w = 0usize;
            for s in 0..scratch.remaining.len() {
                if scratch.committed.contains(&s) {
                    continue;
                }
                scratch.remaining[w] = scratch.remaining[s];
                scratch.ids[w] = scratch.ids[s];
                scratch.candidates.swap(w, s);
                w += 1;
            }
            scratch.remaining.truncate(w);
            scratch.ids.truncate(w);
            for mut list in scratch.candidates.drain(w..) {
                list.clear();
                scratch.pool.push(list);
            }
            if scratch.remaining.is_empty() {
                break;
            }
            // Refresh exactly the committed drivers' entries; all other
            // pairs are untouched, so this is equivalent to
            // regenerating every list (the property tests pin that).
            // Each list stays sorted by announced id, as
            // `candidates_into` left it.
            for (slot, &bi) in scratch.remaining.iter().enumerate() {
                let task = &batch[bi];
                let list = &mut scratch.candidates[slot];
                for used in &scratch.used_drivers {
                    let at = match list.binary_search_by_key(&used.driver, |c| c.driver) {
                        Ok(at) => {
                            list.remove(at);
                            at
                        }
                        Err(at) => at,
                    };
                    probe!(probe::count(Count::Reevaluations, 1));
                    if let Some(c) = self.fleet.candidate_for(task, decision_time, used.slot) {
                        probe!(probe::count(Count::ReevaluationHits, 1));
                        list.insert(at, c);
                    }
                }
            }
            probe!(probe::lap(Stage::Refresh));
        }
        for &bi in &scratch.remaining {
            self.reject(&batch[bi], decision_time, sink);
        }
        for mut list in scratch.candidates.drain(..) {
            list.clear();
            scratch.pool.push(list);
        }
    }

    /// Closes one decision epoch, the orders of `scratch.remaining`, from a
    /// heap of pairs: the [`MatcherKind::Greedy`] close. It commits what
    /// [`StreamEngine::close_in_rounds`] would under the greedy rule (each
    /// round the one best pair, ranked as [`RankedPair`] ranks), in the
    /// same order and each out of the same number of candidates, then
    /// rejects the unmatched orders in ascending task id.
    ///
    /// Each order is scanned once and each pair pushed. A pair pops live
    /// if its order is unmatched and its driver has not committed since it
    /// was evaluated. A commit moves only its driver, so only her pairs go
    /// stale: she is evaluated again for the unmatched orders whose pickup
    /// deadline is at or after her new availability (`evaluate` rejects
    /// every other order on availability alone), and what she still
    /// reaches is pushed again.
    fn close_from_heap(
        &mut self,
        batch: &[Task],
        decision_time: Timestamp,
        scratch: &mut WindowScratch,
        sink: &mut dyn StreamSink,
    ) {
        let orders = &scratch.remaining;
        let pairs = &mut scratch.pairs;
        pairs.clear();
        for (slot, &bi) in orders.iter().enumerate() {
            let task = &batch[bi];
            self.fleet
                .candidates_into(task, decision_time, &mut pairs.scan);
            pairs.live.push(pairs.scan.len());
            pairs.matched.push(false);
            pairs.by_deadline.push((task.pickup_deadline, slot));
            for k in 0..pairs.scan.len() {
                pairs.push(pairs.scan[k], task.id, slot);
            }
        }
        pairs.by_deadline.sort_unstable();
        probe!(probe::lap(Stage::Scan));
        loop {
            let best = pairs.pop_live();
            probe!(probe::lap(Stage::Choose));
            let Some((slot, cand)) = best else {
                break;
            };
            let task = &batch[orders[slot]];
            self.dispatch(task, cand, decision_time, pairs.live[slot], sink);
            pairs.matched[slot] = true;
            pairs.unlist(cand.slot);
            let free = self.fleet.available_at(cand.slot);
            let from = pairs.by_deadline.partition_point(|&(due, _)| due < free);
            for k in from..pairs.by_deadline.len() {
                let slot = pairs.by_deadline[k].1;
                if pairs.matched[slot] {
                    continue;
                }
                let task = &batch[orders[slot]];
                probe!(probe::count(Count::Reevaluations, 1));
                if let Some(c) = self.fleet.candidate_for(task, decision_time, cand.slot) {
                    probe!(probe::count(Count::ReevaluationHits, 1));
                    pairs.live[slot] += 1;
                    pairs.push(c, task.id, slot);
                }
            }
            probe!(probe::lap(Stage::Refresh));
        }
        for (&bi, &matched) in orders.iter().zip(&pairs.matched) {
            if !matched {
                self.reject(&batch[bi], decision_time, sink);
            }
        }
    }

    /// Commits `cand` to `task`, decided at `decision_time` out of
    /// `candidates` feasible drivers: projects the driver onto the task,
    /// reports the operational record, counts it.
    fn dispatch(
        &mut self,
        task: &Task,
        cand: Candidate,
        decision_time: Timestamp,
        candidates: usize,
        sink: &mut dyn StreamSink,
    ) {
        let deadhead_km = self.fleet.commit(cand.slot, task, cand.arrival);
        probe!(probe::lap(Stage::Commit));
        let event = DispatchEvent {
            task: task.id,
            driver: cand.driver,
            arrival: cand.arrival,
            decision_time,
            wait: cand.arrival - task.publish_time,
            deadhead_km,
            candidates,
            margin: cand.marginal_value,
        };
        sink.dispatched(task, &event);
        probe!(probe::lap(Stage::Sink));
        self.served += 1;
    }

    /// Reports `task` rejected at `decision_time` and counts it.
    fn reject(&mut self, task: &Task, decision_time: Timestamp, sink: &mut dyn StreamSink) {
        sink.rejected(task, decision_time);
        probe!(probe::lap(Stage::Sink));
        self.rejected += 1;
    }
}

/// Reusable per-window working memory for batched dispatch. One decision
/// epoch churns through half a dozen short-lived vectors (epoch groups,
/// live slots, candidate lists); holding them on the engine and recycling
/// capacity across windows keeps the batched hot path allocation-free in
/// the steady state. Purely scratch — contents are meaningless between
/// windows.
#[derive(Default)]
struct WindowScratch {
    /// `(decision epoch, task id, batch index)` per window task.
    epochs: Vec<(Timestamp, usize, usize)>,
    /// Batch indices still unmatched in the current epoch.
    remaining: Vec<usize>,
    /// Task ids aligned with `remaining`.
    ids: Vec<usize>,
    /// Candidate lists aligned with `remaining`.
    candidates: Vec<Vec<Candidate>>,
    /// Retired candidate lists, kept for their capacity.
    pool: Vec<Vec<Candidate>>,
    /// Slots committed in the current round.
    committed: Vec<usize>,
    /// The candidates committed in the current round.
    used_drivers: Vec<Candidate>,
    /// The pair-heap close's working memory.
    pairs: PairScratch,
}

/// What [`StreamEngine::close_from_heap`] keeps while it closes an epoch.
/// Per-order vectors are indexed by the order's slot in the epoch,
/// per-driver ones by the driver's fleet slot.
#[derive(Default)]
struct PairScratch {
    /// Every pair evaluated this epoch, the best on top; stale pairs are
    /// skipped as they pop.
    heap: BinaryHeap<RankedPair>,
    /// The candidate scan of one order.
    scan: Vec<Candidate>,
    /// Per order: the drivers that are its candidates now, counted.
    live: Vec<usize>,
    /// Per order: whether it has been dispatched.
    matched: Vec<bool>,
    /// `(pickup deadline, order)` per order, ascending.
    by_deadline: Vec<(Timestamp, usize)>,
    /// Per driver: the orders that count her among their candidates.
    listed: Vec<Vec<usize>>,
    /// Per driver: her commits so far, which dates her pairs.
    versions: Vec<u32>,
    /// The drivers whose `listed` this epoch may have filled.
    touched: Vec<u32>,
}

impl PairScratch {
    /// Forgets the last epoch's orders and pairs.
    fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
        self.matched.clear();
        self.by_deadline.clear();
        for d in self.touched.drain(..) {
            self.listed[d as usize].clear();
        }
    }

    /// Records `cand` as a candidate of order `slot` (task `task`).
    fn push(&mut self, cand: Candidate, task: TaskId, slot: usize) {
        let d = cand.slot as usize;
        if self.listed.len() <= d {
            self.listed.resize_with(d + 1, Vec::new);
            self.versions.resize(d + 1, 0);
        }
        if self.listed[d].is_empty() {
            self.touched.push(cand.slot);
        }
        self.listed[d].push(slot);
        let version = self.versions[d];
        let slot = slot as u32;
        self.heap
            .push(RankedPair::new(cand, task.raw(), slot, version));
    }

    /// Pops the best pair still live: its order unmatched, its driver not
    /// committed since the pair was evaluated.
    fn pop_live(&mut self) -> Option<(usize, Candidate)> {
        while let Some(pair) = self.heap.pop() {
            probe!(probe::count(Count::PairsRead, 1));
            let (slot, cand) = (pair.slot as usize, pair.candidate);
            if !self.matched[slot] && pair.version == self.versions[cand.slot as usize] {
                return Some((slot, cand));
            }
        }
        None
    }

    /// The driver in fleet slot `d` has committed: she leaves every order's
    /// candidates, and her pairs on the heap go stale.
    fn unlist(&mut self, d: u32) {
        let d = d as usize;
        for &slot in &self.listed[d] {
            self.live[slot] -= 1;
        }
        self.listed[d].clear();
        self.versions[d] = self.versions[d].wrapping_add(1);
    }
}

/// Replays a whole event stream through `policy` into `sink` — the
/// one-call form of [`StreamEngine`]. Memory stays
/// `O(active tasks + drivers)` no matter how long `events` runs; see
/// [`StreamSummary::peak_resident`] for the realised high-water mark.
///
/// # Panics
///
/// Panics when the stream violates the ordering contract (see
/// [`StreamEngine::push`]).
pub fn replay_stream<I>(
    speed: SpeedModel,
    events: I,
    mut policy: StreamPolicy,
    options: StreamOptions,
    sink: &mut dyn StreamSink,
) -> StreamSummary
where
    I: IntoIterator<Item = StreamEvent>,
{
    let mut engine = StreamEngine::new(speed, options);
    for event in events {
        engine.push(event, &mut policy, sink);
    }
    engine.finish(&mut policy, sink)
}

/// The event stream of a materialized market: every driver announced up
/// front (always a valid announcement order), then every task in publish
/// order, both re-labelled positionally — what [`crate::replay_market`]
/// feeds the engine.
#[must_use]
pub fn market_events(market: &Market) -> Vec<StreamEvent> {
    let mut events: Vec<StreamEvent> = market
        .drivers()
        .iter()
        .enumerate()
        .map(|(n, d)| {
            StreamEvent::DriverOnline(Driver {
                id: DriverId::new(n as u32),
                ..*d
            })
        })
        .collect();
    let mut order: Vec<usize> = (0..market.num_tasks()).collect();
    order.sort_by_key(|&t| (market.tasks()[t].publish_time, t));
    events.extend(order.into_iter().map(|t| {
        StreamEvent::TaskPublished(Task {
            id: TaskId::new(t as u32),
            ..market.tasks()[t]
        })
    }));
    events
}

/// The event stream of a generated day, nothing materialised: every shift
/// of `stream` announced up front, then its trips — generated lazily, in
/// publish order — each priced into a task by a [`StreamPricer`] under
/// `build` as it is pulled. This is the only place that sequence is
/// written: `rideshare replay` dispatches it, `rideshare export` writes it
/// down, and the equivalence batteries and examples feed engines with it.
/// Resident state is `O(drivers + surge grid)`, never `O(trace)`.
pub fn priced_events(
    stream: TraceStream,
    build: &MarketBuildOptions,
) -> impl Iterator<Item = StreamEvent> {
    let (bbox, speed) = (stream.bounding_box(), stream.speed());
    let mut pricer = StreamPricer::new(build, bbox, speed, stream.drivers());
    let announcements = stream.drivers().to_vec().into_iter();
    announcements
        .map(StreamEvent::DriverOnline)
        .chain(stream.map(move |trip| StreamEvent::TaskPublished(pricer.price(&trip))))
}

/// A [`StreamSink`] that collects everything into a full
/// [`SimulationResult`] — `O(trace)` memory by definition, so this is for
/// the oracle tests and small runs, not for million-task replays (use an
/// aggregating sink like `rideshare-metrics`'s `StreamMetrics` there).
#[derive(Clone, Debug, Default)]
pub struct CollectingSink {
    routes: Vec<DriverRoute>,
    dispatch: Vec<Option<DriverId>>,
    events: Vec<DispatchEvent>,
    served: usize,
    rejected: usize,
}

impl CollectingSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reserve_task(&mut self, idx: usize) {
        if self.dispatch.len() <= idx {
            self.dispatch.resize(idx + 1, None);
        }
    }

    /// The collected [`SimulationResult`] (validate with
    /// [`crate::validate_online_result`]). `dispatch` reaches as far as
    /// the highest task id seen, and the routes as far as the highest
    /// driver id.
    #[must_use]
    pub fn into_result(self) -> SimulationResult {
        SimulationResult {
            assignment: Assignment::from_routes(self.routes),
            served: self.served,
            rejected: self.rejected,
            dispatch: self.dispatch,
            events: self.events,
        }
    }
}

impl StreamSink for CollectingSink {
    fn driver_online(&mut self, driver: &Driver) {
        self.routes
            .resize_with(driver.id.index() + 1, DriverRoute::default);
    }

    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.reserve_task(task.id.index());
        self.dispatch[task.id.index()] = Some(event.driver);
        self.routes[event.driver.index()].tasks.push(event.task);
        self.events.push(*event);
        self.served += 1;
    }

    fn rejected(&mut self, task: &Task, _decision_time: Timestamp) {
        self.reserve_task(task.id.index());
        self.rejected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market_replay::replay_market;
    use crate::policy::InstantRule;
    use rideshare_core::{Market, MarketBuildOptions};
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    fn assert_same(streamed: &SimulationResult, materialized: &SimulationResult) {
        assert_eq!(streamed.dispatch, materialized.dispatch);
        assert_eq!(streamed.events, materialized.events);
        assert_eq!(streamed.served, materialized.served);
        assert_eq!(streamed.rejected, materialized.rejected);
        assert_eq!(
            streamed.assignment.routes(),
            materialized.assignment.routes()
        );
    }

    #[test]
    fn epoch_ticks_flush_windows_without_changing_results() {
        let m = market(84, 90, 10);
        let window = TimeDelta::from_mins(5);
        // Interleave hourly clock ticks into the stream.
        let mut events = market_events(&m);
        let mut ticked = Vec::new();
        let mut next_tick = Timestamp::from_hours(1);
        for e in events.drain(..) {
            if let Some(at) = e.timestamp() {
                while next_tick <= at {
                    ticked.push(StreamEvent::EpochTick(next_tick));
                    next_tick += TimeDelta::from_hours(1);
                }
            }
            ticked.push(e);
        }
        ticked.push(StreamEvent::EpochTick(Timestamp::from_hours(30)));

        let mut sink = CollectingSink::new();
        let matcher = MatcherKind::Greedy;
        replay_stream(
            m.speed(),
            ticked,
            StreamPolicy::Batched { window, matcher },
            StreamOptions::default(),
            &mut sink,
        );
        let materialized = replay_market(&m, StreamPolicy::Batched { window, matcher });
        assert_same(&sink.into_result(), &materialized);
    }

    #[test]
    fn held_tasks_stay_bounded() {
        let m = market(85, 400, 25);
        let mut sink = CollectingSink::new();
        let summary = replay_stream(
            m.speed(),
            market_events(&m),
            StreamPolicy::Batched {
                window: TimeDelta::from_mins(3),
                matcher: MatcherKind::Greedy,
            },
            StreamOptions::default(),
            &mut sink,
        );
        // Resident state is the held window + drivers, far below the trace.
        assert!(summary.peak_held_tasks > 0);
        assert!(
            summary.peak_held_tasks < m.num_tasks() / 4,
            "peak {} for {} tasks",
            summary.peak_held_tasks,
            m.num_tasks()
        );
        assert_eq!(summary.peak_resident(), summary.peak_held_tasks + 25);
    }

    #[test]
    fn retirement_changes_nothing_instant() {
        // A 30-driver day retires drivers all along: resident drivers
        // shrink, the replay stays byte-identical to the materialized
        // front-end, and events name drivers by their announced ids.
        let m = market(89, 200, 30);
        let porto = StreamOptions::default().grid(rideshare_geo::porto::bounding_box());
        for options in [StreamOptions::fold_oracle(), porto] {
            let mut sink = CollectingSink::new();
            let summary = replay_stream(
                m.speed(),
                market_events(&m),
                StreamPolicy::Instant(InstantRule::MaxMargin),
                options,
                &mut sink,
            );
            let materialized = replay_market(&m, StreamPolicy::Instant(InstantRule::MaxMargin));
            assert_same(&sink.into_result(), &materialized);
            assert!(
                summary.compacted_drivers > 0,
                "no shift ended mid-stream ({options:?})"
            );
        }
    }

    #[test]
    fn retirement_changes_nothing_batched() {
        // Batched mode: an early-flush epoch counts only drivers on shift
        // at the order's publication, and retirement frees only drivers
        // whose shift ended before, so retiring keeps every epoch equal to
        // the materialized front-end's — the rule the fleet's
        // `retirement_cannot_move_an_epoch` isolates, exercised here
        // end-to-end.
        let m = market(90, 200, 30);
        for mins in [2i64, 10] {
            let window = TimeDelta::from_mins(mins);
            let mut sink = CollectingSink::new();
            let matcher = MatcherKind::Greedy;
            let summary = replay_stream(
                m.speed(),
                market_events(&m),
                StreamPolicy::Batched { window, matcher },
                StreamOptions::default(),
                &mut sink,
            );
            let materialized = replay_market(&m, StreamPolicy::Batched { window, matcher });
            assert_same(&sink.into_result(), &materialized);
            assert!(summary.compacted_drivers > 0, "no retirement at W={mins}m");
        }
    }

    #[test]
    fn retirement_shrinks_resident_state() {
        let m = market(95, 150, 25);
        let mut engine = StreamEngine::new(m.speed(), StreamOptions::default());
        let mut policy = StreamPolicy::Instant(InstantRule::MaxMargin);
        let mut sink = CollectingSink::new();
        for e in market_events(&m) {
            engine.push(e, &mut policy, &mut sink);
        }
        assert_eq!(engine.driver_count(), 25);
        assert!(
            engine.resident_drivers() < 25,
            "resident {} of 25 — nothing was freed",
            engine.resident_drivers()
        );
        let summary = engine.finish(&mut policy, &mut sink);
        assert_eq!(summary.drivers, 25, "announced count is never freed away");
        assert!(summary.compacted_drivers > 0);
    }

    /// `m`'s orders, each driver announced just before the first order
    /// published at or after her shift start (or at the end, if none is),
    /// relabelled in announcement order: a fleet that comes and goes.
    fn announced_at_shift_start(m: &Market) -> Vec<StreamEvent> {
        let mut drivers = m.drivers().to_vec();
        drivers.sort_by_key(|d| (d.shift_start, d.id));
        let online = |(n, d): (usize, Driver)| {
            StreamEvent::DriverOnline(Driver {
                id: DriverId::new(n as u32),
                ..d
            })
        };
        let mut drivers = drivers.into_iter().enumerate().peekable();
        let mut events = Vec::new();
        for order in market_events(m) {
            let Some(at) = order.timestamp() else {
                continue;
            };
            while let Some(driver) = drivers.next_if(|(_, d)| d.shift_start <= at) {
                events.push(online(driver));
            }
            events.push(order);
        }
        events.extend(drivers.map(online));
        events
    }

    /// Runs `f` under instant max-margin dispatch, then under `batch-3m`.
    fn under_both_policies(mut f: impl FnMut(&mut StreamPolicy)) {
        f(&mut StreamPolicy::Instant(InstantRule::MaxMargin));
        let (window, matcher) = (TimeDelta::from_mins(3), MatcherKind::Greedy);
        f(&mut StreamPolicy::Batched { window, matcher });
    }

    #[test]
    fn per_driver_memory_is_bounded_by_the_resident_fleet() {
        // Drivers announced as their shifts start take the slots of those
        // already retired, so no per-driver vector or index the engine owns
        // is longer than the peak resident fleet, batched or not, and that
        // is below the drivers announced.
        let m = market(97, 240, 30);
        let events = announced_at_shift_start(&m);
        under_both_policies(|policy| {
            let mut sink = CollectingSink::new();
            let options = StreamOptions::default().grid(rideshare_geo::porto::bounding_box());
            let mut engine = StreamEngine::new(m.speed(), options);
            let mut peak = 0;
            for e in &events {
                engine.push(*e, policy, &mut sink);
                peak = peak.max(engine.resident_drivers());
            }
            assert_eq!(engine.fleet.footprint(), peak);
            assert!(peak < engine.driver_count(), "no slot was reused");
        });
    }

    #[test]
    #[should_panic(expected = "stream went backwards")]
    fn out_of_order_publish_rejected() {
        let m = market(87, 30, 5);
        let mut events = market_events(&m);
        // Swap two task events across different timestamps.
        let tasks: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, StreamEvent::TaskPublished(_)))
            .map(|(i, _)| i)
            .collect();
        events.swap(tasks[0], tasks[tasks.len() - 1]);
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            m.speed(),
            events,
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut sink,
        );
    }

    #[test]
    #[should_panic(expected = "published at 09:59:59 behind the clock at 10:00:00")]
    fn publish_behind_a_tick_rejected() {
        // A tick to `t` promised everything before `t` was delivered; an
        // order at `t − 1` breaks that promise. The expectation spans both
        // timestamps, so the message must read as one sentence.
        let m = market(91, 1, 1);
        let tick = Timestamp::from_hours(10);
        let StreamEvent::TaskPublished(task) = market_events(&m)[1] else {
            panic!("one driver, then one task");
        };
        let late = Task {
            publish_time: tick - TimeDelta::from_secs(1),
            ..task
        };
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            m.speed(),
            [
                StreamEvent::EpochTick(tick),
                StreamEvent::TaskPublished(late),
            ],
            StreamPolicy::Instant(InstantRule::MaxMargin),
            StreamOptions::default(),
            &mut sink,
        );
    }

    #[test]
    fn both_paths_accept_and_refuse_the_same_driver_ids() {
        use crate::shard::{replay_sharded, BoxPartitioner, ShardOptions, ShardPolicySpec};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let m = market(86, 120, 20);
        let partitioner = BoxPartitioner::new(vec![rideshare_geo::porto::bounding_box()]);
        // The sequential engine, then the router's inline and threaded
        // lanes; a refusal comes back as its panic message.
        let runs = |events: &[StreamEvent]| {
            let lanes = [None, Some(true), Some(false)].map(|validate| {
                catch_unwind(AssertUnwindSafe(|| {
                    let mut sink = CollectingSink::new();
                    let events = events.iter().copied();
                    let _ = match validate {
                        None => replay_stream(
                            m.speed(),
                            events,
                            StreamPolicy::Instant(InstantRule::MaxMargin),
                            StreamOptions::default(),
                            &mut sink,
                        ),
                        Some(validate) => replay_sharded(
                            m.speed(),
                            events,
                            ShardPolicySpec::MaxMargin,
                            &partitioner,
                            ShardOptions::new(2).validate(validate),
                            &mut sink,
                        ),
                    };
                    sink.into_result().events
                }))
                .map_err(|panic| *panic.downcast::<String>().expect("a formatted message"))
            });
            let [sequential, inline, threaded] = lanes;
            assert_eq!(sequential, inline);
            assert_eq!(sequential, threaded);
            sequential
        };
        let relabel = |id: fn(u32) -> u32| {
            let mut events = market_events(&m);
            for e in &mut events {
                if let StreamEvent::DriverOnline(d) = e {
                    d.id = DriverId::new(id(d.id.raw()));
                }
            }
            events
        };

        // Ids that ascend but are not dense are labels like any other.
        let dense = runs(&relabel(|id| id)).unwrap();
        let mut sparse = runs(&relabel(|id| 2 * id)).unwrap();
        assert!(!dense.is_empty());
        sparse
            .iter_mut()
            .for_each(|e| e.driver = DriverId::new(e.driver.raw() / 2));
        assert_eq!(sparse, dense);

        // Id 5, then id 1.
        assert_eq!(
            runs(&relabel(|id| if id == 0 { 5 } else { id })),
            Err("driver ids must ascend in announcement order: driver#1 after driver#5".into())
        );
    }
}
