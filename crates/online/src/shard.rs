//! Region-sharded parallel streaming replay.
//!
//! The sequential [`StreamEngine`] tops out around ~200k tasks/s on one
//! core. This module is the ROADMAP's named way past that ceiling: the
//! **online analogue of the paper's lossless disjoint-component
//! decomposition (§IV)**. Offline, `disjoint_components` splits a market
//! into independent sub-markets solvable in parallel with zero loss of
//! optimality. Online, the same idea shards the *live stream* by disjoint
//! service regions: every driver is owned by exactly one shard (the shard
//! of her announce region) and every order is routed to the shard of its
//! pickup region, each shard running an ordinary [`StreamEngine`] over its
//! slice of the stream.
//!
//! # The proof obligation
//!
//! The decomposition is lossless **iff the partition is legal**: no driver
//! of one shard may ever *interact* with a task of another. "Interact"
//! means more than "be a feasible candidate" — batched dispatch's
//! early-flush epoch (`latest_decision`) deliberately ignores feasibility
//! and is raised by any driver within a task's publish→deadline lead
//! radius, expired or not. Both effects share one geometric bound, so a
//! single condition covers them: *every foreign driver stays farther (in
//! travel time from her current projected position) than the task's full
//! publish→deadline lead at every decision epoch.* This is exactly the
//! condition the region-tagged traces (`TraceConfig::with_regions`)
//! guarantee by construction, and the condition the **debug-mode
//! validator** ([`ShardOptions::validate`]) re-checks per task and per
//! window boundary, mirroring what `disjoint_components` proves offline.
//! An illegal partition (e.g. the [`GridHashPartitioner`] over one dense
//! city) does not crash the parallel engine — each shard still makes
//! internally valid dispatches — but results are no longer byte-identical
//! to a sequential replay, and the validator reports the first violating
//! (driver, task) pair.
//!
//! # Determinism: how byte-identity is engineered
//!
//! Three mechanisms make `--shards N` reproduce `--shards 1` exactly
//! (pinned by the facade's `shard_determinism` battery):
//!
//! - **Global window anchoring.** A sequential batched engine opens each
//!   hold window at the first pending order's publish time — a *global*
//!   fact no shard can see alone. The router therefore tracks window
//!   boundaries itself and broadcasts open anchors
//!   ([`StreamEngine::open_window`]) and closing ticks
//!   ([`StreamEvent::EpochTick`]) to every shard, so all shards close the
//!   very same windows the sequential engine would. (Instant-mode publish
//!   groups are self-aligning — every member shares one timestamp — so
//!   they need only the closing tick.)
//! - **Deterministic merge.** Worker shards emit their decisions per
//!   window; the merge stage re-serializes each window into global
//!   `(decision epoch, task id)` order and relabels driver ids back to
//!   their announced (global) identities before the caller's
//!   [`StreamSink`] sees them. Within an instant-mode group this *is* the
//!   sequential emission order; within a batched epoch the sequential
//!   engine emits in matcher-commit order instead, so byte-identity for
//!   batched replays is pinned on the canonical `(epoch, task id)` form.
//! - **Shard-stable policies.** A shard decides its tasks with its own
//!   policy instance, so policy choices must be pure functions of the
//!   candidate set: [`ShardPolicySpec`] covers maxMargin (deterministic
//!   argmax), nearest (decision-local hashed tie-break), and the batched
//!   matchers (deterministic round solutions). Candidate sets themselves
//!   are relabeling-invariant because shard-local driver numbering
//!   preserves the global announce order.
//!
//! Aggregate [`StreamMetrics`]-style accounting survives the reordering
//! because `rideshare-metrics` accumulates in order-independent
//! fixed-point (its `merge` is exact); see that crate's docs.
//!
//! [`StreamMetrics`]: ../../rideshare_metrics/struct.StreamMetrics.html
//!
//! # Example
//!
//! ```
//! use rideshare_core::{Market, MarketBuildOptions};
//! use rideshare_online::{
//!     market_events, replay_sharded, replay_stream, BoxPartitioner, CollectingSink, MaxMargin,
//!     ShardOptions, ShardPolicySpec, StreamOptions, StreamPolicy,
//! };
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let config = TraceConfig::porto()
//!     .with_seed(5)
//!     .with_task_count(120)
//!     .with_driver_count(16, DriverModel::Hitchhiking)
//!     .with_regions(2); // a legal partition by construction
//! let market = Market::from_trace(&config.generate(), &MarketBuildOptions::default());
//! let partitioner = BoxPartitioner::new(config.region_boxes());
//!
//! let mut sharded = CollectingSink::new();
//! let summary = replay_sharded(
//!     market.speed(),
//!     market_events(&market),
//!     ShardPolicySpec::MaxMargin,
//!     &partitioner,
//!     ShardOptions::new(2),
//!     &mut sharded,
//! );
//!
//! let mut sequential = CollectingSink::new();
//! replay_stream(
//!     market.speed(),
//!     market_events(&market),
//!     &mut StreamPolicy::Instant(&mut MaxMargin::new()),
//!     StreamOptions::default(),
//!     &mut sequential,
//! );
//! let (a, b) = (sharded.into_result(), sequential.into_result());
//! assert_eq!(a.dispatch, b.dispatch);
//! assert_eq!(a.events, b.events);
//! assert_eq!(summary.tasks, market.num_tasks());
//! ```

use std::collections::VecDeque;
use std::sync::mpsc;

use rideshare_core::{Driver, Task};
use rideshare_geo::{BoundingBox, GeoPoint, GridIndex, SpeedModel};
use rideshare_types::{ConfigError, DriverId, TimeDelta, Timestamp};

use crate::batch::{BatchMatcher, GreedyPairMatcher, MatcherKind, OptimalAssignmentMatcher};
use crate::policy::{splitmix64, DispatchPolicy, MaxMargin, NearestDriver};
use crate::simulator::DispatchEvent;
use crate::stream::{
    StreamEngine, StreamEvent, StreamOptions, StreamPolicy, StreamSink, StreamSummary,
};

/// Maps locations to disjoint service regions, and regions to shards.
///
/// The engine derives a driver's owning shard from her **announce
/// location** (`Driver::source`) and a task's from its pickup origin. The
/// partitioner carries the proof obligation described in the module docs:
/// sharded replay is byte-identical to sequential replay exactly when no
/// cross-shard (driver, task) pair can ever interact. Implementations
/// cannot promise that in general — the debug validator checks it against
/// the actual stream.
pub trait RegionPartitioner {
    /// Number of region labels this partitioner can produce.
    fn region_count(&self) -> usize;

    /// The region owning `point` (must be `< region_count`).
    fn region_of(&self, point: GeoPoint) -> usize;

    /// Region → shard assignment when regions outnumber shards. The
    /// default folds round-robin, keeping the region-tagged catalog's
    /// `k`-region / `k`-shard case one-to-one.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero — a value [`ShardOptions::try_new`]
    /// rejects as a typed error before any partitioner can see it.
    fn shard_of(&self, region: usize, shards: usize) -> usize {
        assert!(
            shards > 0,
            "shard count must be at least 1 (ShardOptions::try_new rejects 0)"
        );
        region % shards
    }
}

/// The default partitioner: a uniform grid over a bounding box, each cell
/// a region, cells **hashed** across shards (so adjacent cells spread
/// rather than stripe). Legal only for markets whose demand genuinely
/// never crosses cell boundaries within an order's lead radius — for one
/// dense city it is *not* legal, which the debug validator will report.
/// Use [`BoxPartitioner`] with region-tagged traces for provably lossless
/// sharding.
#[derive(Clone, Debug)]
pub struct GridHashPartitioner {
    grid: GridIndex<u32>,
}

impl GridHashPartitioner {
    /// A `rows × cols` cell grid over `bbox`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn new(bbox: BoundingBox, rows: u16, cols: u16) -> Self {
        Self {
            grid: GridIndex::new(bbox, rows, cols),
        }
    }
}

impl RegionPartitioner for GridHashPartitioner {
    fn region_count(&self) -> usize {
        usize::from(self.grid.rows()) * usize::from(self.grid.cols())
    }

    fn region_of(&self, point: GeoPoint) -> usize {
        let cell = self.grid.cell_of(point);
        usize::from(cell.row()) * usize::from(self.grid.cols()) + usize::from(cell.col())
    }

    fn shard_of(&self, region: usize, shards: usize) -> usize {
        assert!(
            shards > 0,
            "shard count must be at least 1 (ShardOptions::try_new rejects 0)"
        );
        (splitmix64(region as u64) % shards as u64) as usize
    }
}

/// A partitioner over explicit region bounding boxes — the natural mate of
/// `TraceConfig::with_regions`' region tags. Points outside every box fall
/// back to the nearest box center (grid-index style clamping), so the
/// mapping is total.
#[derive(Clone, Debug)]
pub struct BoxPartitioner {
    boxes: Vec<BoundingBox>,
}

impl BoxPartitioner {
    /// A partitioner with one region per box.
    ///
    /// # Panics
    ///
    /// Panics if `boxes` is empty.
    #[must_use]
    pub fn new(boxes: Vec<BoundingBox>) -> Self {
        assert!(!boxes.is_empty(), "need at least one region box");
        Self { boxes }
    }
}

impl RegionPartitioner for BoxPartitioner {
    fn region_count(&self) -> usize {
        self.boxes.len()
    }

    fn region_of(&self, point: GeoPoint) -> usize {
        if let Some(r) = self.boxes.iter().position(|b| b.contains(point)) {
            return r;
        }
        // Total fallback: nearest box center.
        self.boxes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = point.equirectangular_km(a.center());
                let db = point.equirectangular_km(b.center());
                da.partial_cmp(&db).expect("finite distance")
            })
            .map(|(r, _)| r)
            .expect("non-empty boxes")
    }
}

/// Which dispatch policy every shard runs. A value (not a `&mut dyn`
/// borrow like [`StreamPolicy`]) because the sharded engine must
/// *instantiate one policy per shard*; the variants are exactly the
/// shard-stable policies (see the module docs — `RandomDispatch`'s shared
/// RNG stream is order-dependent and deliberately absent).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardPolicySpec {
    /// Alg. 4 — maximum marginal value, instant dispatch.
    MaxMargin,
    /// Alg. 3 — nearest driver, instant dispatch, decision-local tie-break.
    Nearest {
        /// Tie-break seed (see [`NearestDriver::with_seed`]).
        seed: u64,
    },
    /// Batched dispatch: hold window + per-round matcher.
    Batched {
        /// The hold window `W ≥ 0`.
        window: TimeDelta,
        /// The per-round matcher.
        matcher: MatcherKind,
    },
}

/// Concrete policy storage materialised from a [`ShardPolicySpec`] — the
/// owner of the boxed policy/matcher a [`StreamPolicy`] borrows from.
/// Public so single-engine callers (the CLI's `--shards 1` path, tests)
/// can run the *same* spec through a sequential [`StreamEngine`] without
/// duplicating the spec→policy construction.
pub enum PolicyHolder {
    /// An instant-dispatch policy.
    Instant(Box<dyn DispatchPolicy + Send>),
    /// A batched hold window and its per-round matcher.
    Batched(TimeDelta, Box<dyn BatchMatcher + Send>),
}

impl ShardPolicySpec {
    /// Materialises one policy instance for one engine (each shard gets
    /// its own — that is the point of a spec over a `&mut dyn` borrow).
    #[must_use]
    pub fn holder(self) -> PolicyHolder {
        match self {
            ShardPolicySpec::MaxMargin => PolicyHolder::Instant(Box::new(MaxMargin::new())),
            ShardPolicySpec::Nearest { seed } => {
                PolicyHolder::Instant(Box::new(NearestDriver::with_seed(seed)))
            }
            ShardPolicySpec::Batched { window, matcher } => PolicyHolder::Batched(
                window,
                match matcher {
                    MatcherKind::Greedy => Box::new(GreedyPairMatcher),
                    MatcherKind::Optimal => Box::new(OptimalAssignmentMatcher),
                },
            ),
        }
    }

    /// The batched hold window, if this is a batched spec.
    fn window(self) -> Option<TimeDelta> {
        match self {
            ShardPolicySpec::Batched { window, .. } => Some(window),
            _ => None,
        }
    }
}

impl PolicyHolder {
    /// The [`StreamPolicy`] view an engine consumes, borrowing this
    /// holder's boxed policy state.
    #[must_use]
    pub fn as_policy(&mut self) -> StreamPolicy<'_> {
        match self {
            PolicyHolder::Instant(p) => StreamPolicy::Instant(p.as_mut()),
            PolicyHolder::Batched(window, matcher) => StreamPolicy::Batched {
                window: *window,
                matcher: matcher.as_mut(),
            },
        }
    }
}

/// Options for a sharded replay.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Per-shard [`StreamEngine`] options (grid pruning, compaction).
    pub stream: StreamOptions,
    /// Run the **sequential debug validator** instead of the parallel
    /// workers: one thread drives all shard engines and re-checks the
    /// partition proof obligation on every task and at every window
    /// boundary, panicking on the first cross-shard interaction. Results
    /// are identical to the parallel path (that's the whole point); only
    /// the wall-clock differs. Defaults to on under `debug_assertions`,
    /// off in release builds.
    pub validate: bool,
    /// Bound of each worker's input queue; backpressure keeps shard skew —
    /// and therefore merge-buffer memory — bounded.
    pub channel_capacity: usize,
}

impl ShardOptions {
    /// Options for `shards` workers with defaults (validator in debug
    /// builds, 1024-event channels, default engine options).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero; [`ShardOptions::try_new`] is the
    /// non-panicking form for validating external input.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::try_new(shards).expect("need at least one shard")
    }

    /// [`ShardOptions::new`] with the zero-shard case rejected as a typed
    /// error instead of a panic — the form CLI / config boundaries should
    /// use. With `shards == 0` no partitioner could place a single
    /// region (`region % 0` divides by zero), so the value is rejected
    /// here, before any engine or partitioner sees it.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroShards`] when `shards` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use rideshare_online::ShardOptions;
    /// use rideshare_types::ConfigError;
    /// assert!(ShardOptions::try_new(2).is_ok());
    /// assert_eq!(ShardOptions::try_new(0).unwrap_err(), ConfigError::ZeroShards);
    /// ```
    pub fn try_new(shards: usize) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(Self {
            shards,
            stream: StreamOptions::default(),
            validate: cfg!(debug_assertions),
            channel_capacity: 1024,
        })
    }

    /// Replaces the per-shard engine options.
    #[must_use]
    pub fn stream(mut self, stream: StreamOptions) -> Self {
        self.stream = stream;
        self
    }

    /// Forces the sequential validating path on or off.
    #[must_use]
    pub fn validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Replaces the worker input-queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        self.channel_capacity = capacity;
        self
    }
}

/// One decided order, as collected inside a shard (driver ids still
/// shard-local) and re-emitted by the merge stage (driver ids global).
#[derive(Clone, Copy)]
enum Decision {
    Dispatched(DispatchEvent),
    Rejected(Timestamp),
}

/// A shard-local sink accumulating the decisions of the current window.
#[derive(Default)]
struct Collector {
    decided: Vec<(Task, Decision)>,
}

impl StreamSink for Collector {
    fn dispatched(&mut self, task: &Task, event: &DispatchEvent) {
        self.decided.push((*task, Decision::Dispatched(*event)));
    }

    fn rejected(&mut self, task: &Task, decision_time: Timestamp) {
        self.decided
            .push((*task, Decision::Rejected(decision_time)));
    }
}

/// The router's view of the global hold/window sequence. Window formation
/// depends only on publish times and `W` — never on decisions — so the
/// router can reproduce the sequential engine's window boundaries exactly
/// and broadcast them to all shards.
struct WindowClock {
    /// `Some(W)` for batched policies, `None` for instant publish groups.
    window: Option<TimeDelta>,
    /// Instant: the open group's timestamp. Batched: the open window end.
    hold_end: Option<Timestamp>,
}

/// What the router must broadcast before delivering the next task.
enum ClockStep {
    /// Deliver directly; the open hold absorbs it.
    Deliver,
    /// Open a batched window at the task's publish instant first.
    Open(Timestamp),
    /// Close the current hold (then, for batched policies, open the next
    /// window at the task's publish instant).
    CloseThenOpen {
        /// The epoch tick that closes every shard's hold.
        tick: Timestamp,
        /// The boundary decisions become final through — what the
        /// sequential engine reports via [`StreamSink::window_closed`].
        end: Timestamp,
        /// For batched policies, where to anchor the next window.
        reopen: Option<Timestamp>,
    },
}

impl WindowClock {
    fn new(window: Option<TimeDelta>) -> Self {
        Self {
            window,
            hold_end: None,
        }
    }

    fn on_task(&mut self, publish: Timestamp) -> ClockStep {
        match (self.hold_end, self.window) {
            (None, None) => {
                self.hold_end = Some(publish);
                ClockStep::Deliver
            }
            (None, Some(w)) => {
                self.hold_end = Some(publish + w);
                ClockStep::Open(publish)
            }
            (Some(end), None) if publish > end => {
                // Close the instant group strictly after it; the next task
                // publishes at `publish ≥ end + 1`, so the tick never
                // outruns the stream.
                self.hold_end = Some(publish);
                ClockStep::CloseThenOpen {
                    tick: end + TimeDelta::from_secs(1),
                    end,
                    reopen: None,
                }
            }
            (Some(end), Some(w)) if publish > end => {
                self.hold_end = Some(publish + w);
                ClockStep::CloseThenOpen {
                    tick: end + TimeDelta::from_secs(1),
                    end,
                    reopen: Some(publish),
                }
            }
            (Some(_), _) => ClockStep::Deliver,
        }
    }

    /// A tick closes the hold only when it passes the hold end — the same
    /// predicate the sequential engine applies. Returns the tick to
    /// broadcast and the boundary decisions become final through.
    fn on_tick(&mut self, t: Timestamp) -> Option<(Timestamp, Timestamp)> {
        match self.hold_end {
            Some(end) if end < t => {
                self.hold_end = None;
                Some((t, end))
            }
            _ => None,
        }
    }

    /// The still-open hold's boundary at end-of-stream, if any — the final
    /// window the shards close in `finish`, which the merge stage must
    /// still announce via [`StreamSink::window_closed`].
    fn final_end(&self) -> Option<Timestamp> {
        self.hold_end
    }
}

/// Messages from the router to a worker shard.
enum ShardMsg {
    Event(StreamEvent),
    /// Anchor a batched window opening at the instant (no-op for instant).
    Open(Timestamp),
    /// Close the current hold via an [`StreamEvent::EpochTick`] and ship
    /// the window's decisions to the merge stage.
    Close(Timestamp),
}

/// Messages from a worker shard to the merge stage.
enum WorkerOut {
    /// The decisions of one closed window, in shard emission order.
    Window(Vec<(Task, Decision)>),
    /// End of stream: the final (unclosed) window plus the shard summary.
    Done(Vec<(Task, Decision)>, StreamSummary),
}

/// The merge stage: per-shard FIFO queues of per-window decision batches.
/// Window `k`'s global decisions exist exactly when every shard has
/// shipped its `k`-th batch; they are then re-serialized into
/// `(decision epoch, task id)` order, relabeled to announced driver ids,
/// and replayed into the caller's sink.
struct Merger<'s> {
    queues: Vec<VecDeque<Vec<(Task, Decision)>>>,
    /// `maps[shard][local_announce_idx]` = the driver's global id.
    maps: Vec<Vec<DriverId>>,
    /// Window boundaries in close order, noted by the router *before* the
    /// shards' batches can arrive; each merged window pops one and fires
    /// [`StreamSink::window_closed`], reproducing the sequential engine's
    /// boundary announcements exactly (same ends, same count, same
    /// position between decision batches).
    boundaries: VecDeque<Timestamp>,
    /// Reusable merge arena: one window's decisions, re-sorted into the
    /// canonical order. Drained on every emit, so only its capacity
    /// persists between windows.
    window: Vec<(usize, Task, Decision)>,
    sink: &'s mut dyn StreamSink,
}

impl<'s> Merger<'s> {
    fn new(shards: usize, sink: &'s mut dyn StreamSink) -> Self {
        Self {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            maps: vec![Vec::new(); shards],
            boundaries: VecDeque::new(),
            window: Vec::new(),
            sink,
        }
    }

    /// Records that the router just closed the global hold at `end`.
    fn note_boundary(&mut self, end: Timestamp) {
        self.boundaries.push_back(end);
    }

    /// Relays a (global) driver announcement to the caller's sink and
    /// registers the shard-local relabeling for later decision remaps.
    /// Returns the driver's shard-local id.
    fn announce(&mut self, shard: usize, driver: &Driver) -> DriverId {
        self.sink.driver_online(driver);
        let local = DriverId::new(self.maps[shard].len() as u32);
        self.maps[shard].push(driver.id);
        local
    }

    fn push_batch(&mut self, shard: usize, batch: Vec<(Task, Decision)>) {
        self.queues[shard].push_back(batch);
        self.emit_ready();
    }

    fn emit_ready(&mut self) {
        while self.queues.iter().all(|q| !q.is_empty()) {
            debug_assert!(self.window.is_empty());
            for (s, q) in self.queues.iter_mut().enumerate() {
                for (task, decision) in q.pop_front().expect("checked non-empty") {
                    self.window.push((s, task, decision));
                }
            }
            // The canonical merge order: decision epoch, then task id.
            self.window.sort_by_key(|(_, task, decision)| {
                let at = match decision {
                    Decision::Dispatched(e) => e.decision_time,
                    Decision::Rejected(at) => *at,
                };
                (at, task.id.index())
            });
            for (s, task, decision) in self.window.drain(..) {
                match decision {
                    Decision::Dispatched(mut event) => {
                        event.driver = self.maps[s][event.driver.index()];
                        self.sink.dispatched(&task, &event);
                    }
                    Decision::Rejected(at) => self.sink.rejected(&task, at),
                }
            }
            // One boundary per real window. The end-of-stream `Done`
            // batches form one extra merged "window" even when the hold
            // was already closed — it is empty then and has no boundary
            // note, so nothing fires (the sequential engine is silent in
            // that case too).
            if let Some(end) = self.boundaries.pop_front() {
                self.sink.window_closed(end);
            }
        }
    }

    /// Emits everything still queued (the per-shard final batches). Only
    /// valid once every shard has delivered its `Done` message, so the
    /// queues are ragged-free.
    fn finish(&mut self) {
        self.emit_ready();
        assert!(
            self.queues.iter().all(VecDeque::is_empty),
            "shards closed an unequal number of windows"
        );
    }
}

/// Folds per-shard summaries into the whole-stream aggregate. Counters are
/// sums and match a sequential replay exactly, except: `expired_drivers` /
/// `compacted_drivers` are work-skipping diagnostics whose timing differs
/// across shard counts, `peak_held_tasks` sums per-shard peaks (an upper
/// bound on the true global peak — shards peak at different instants), and
/// `clock` takes the max.
fn fold_summaries(parts: &[StreamSummary]) -> StreamSummary {
    let mut total = StreamSummary::default();
    for p in parts {
        total.tasks += p.tasks;
        total.served += p.served;
        total.rejected += p.rejected;
        total.drivers += p.drivers;
        total.expired_drivers += p.expired_drivers;
        total.compacted_drivers += p.compacted_drivers;
        total.peak_held_tasks += p.peak_held_tasks;
        total.clock = total.clock.max(p.clock);
    }
    total
}

/// Panics if any *foreign* shard could interact with `task` — the
/// validator's per-task incarnation of the partition proof obligation
/// (see [`StreamEngine`]'s `interaction_with` for the exact radius).
fn check_partition(engines: &[StreamEngine], shard: usize, task: &Task) {
    for (other, engine) in engines.iter().enumerate() {
        if other == shard {
            continue;
        }
        if let Some(driver) = engine.interaction_with(task) {
            panic!(
                "region partition violated: driver {driver} (shard {other}) can interact \
                 with task {} (shard {shard}) — sharded replay would diverge from a \
                 sequential one",
                task.id
            );
        }
    }
}

/// Closes the currently open hold on every shard engine (validator path):
/// re-checks each still-pending task against foreign shards, ticks every
/// engine past the hold end, and ships each shard's window batch to the
/// merge stage.
fn close_all_shards(
    engines: &mut [StreamEngine],
    holders: &mut [PolicyHolder],
    collectors: &mut [Collector],
    merger: &mut Merger<'_>,
    tick: Timestamp,
) {
    for shard in 0..engines.len() {
        for task in engines[shard].pending_tasks().to_vec() {
            check_partition(engines, shard, &task);
        }
    }
    for (shard, engine) in engines.iter_mut().enumerate() {
        let mut policy = holders[shard].as_policy();
        engine.push(
            StreamEvent::EpochTick(tick),
            &mut policy,
            &mut collectors[shard],
        );
    }
    for (shard, c) in collectors.iter_mut().enumerate() {
        merger.push_batch(shard, std::mem::take(&mut c.decided));
    }
}

/// One worker shard: an ordinary [`StreamEngine`] driven off a bounded
/// channel, shipping each closed window's decisions (and finally its
/// summary) to the merge stage.
fn shard_worker(
    shard: usize,
    rx: mpsc::Receiver<ShardMsg>,
    out: &mpsc::Sender<(usize, WorkerOut)>,
    speed: SpeedModel,
    options: StreamOptions,
    spec: ShardPolicySpec,
) {
    let mut holder = spec.holder();
    let mut policy = holder.as_policy();
    let mut engine = StreamEngine::new(speed, options);
    let mut collector = Collector::default();
    for msg in rx {
        match msg {
            ShardMsg::Event(e) => engine.push(e, &mut policy, &mut collector),
            ShardMsg::Open(at) => engine.open_window(at, &policy),
            ShardMsg::Close(tick) => {
                engine.push(StreamEvent::EpochTick(tick), &mut policy, &mut collector);
                let batch = std::mem::take(&mut collector.decided);
                if out.send((shard, WorkerOut::Window(batch))).is_err() {
                    return; // router gone; nothing left to report to
                }
            }
        }
    }
    let summary = engine.finish(&mut policy, &mut collector);
    let _ = out.send((shard, WorkerOut::Done(collector.decided, summary)));
}

/// The region-sharded parallel streaming replay engine: the configuration
/// triple (policy spec, partitioner, options) plus [`replay`] to run a
/// whole stream through it. See the module docs for the decomposition
/// argument and the determinism machinery.
///
/// [`replay`]: ShardedStreamEngine::replay
pub struct ShardedStreamEngine<'p> {
    spec: ShardPolicySpec,
    partitioner: &'p dyn RegionPartitioner,
    options: ShardOptions,
}

impl<'p> ShardedStreamEngine<'p> {
    /// Creates the engine.
    #[must_use]
    pub fn new(
        spec: ShardPolicySpec,
        partitioner: &'p dyn RegionPartitioner,
        options: ShardOptions,
    ) -> Self {
        Self {
            spec,
            partitioner,
            options,
        }
    }

    /// Replays a whole event stream: routes events to shards, anchors
    /// window boundaries globally, merges decisions deterministically into
    /// `sink`, and returns the folded summary (see `fold_summaries`'
    /// caveats on the diagnostic fields).
    ///
    /// With [`ShardOptions::validate`] the replay runs on one thread and
    /// panics on the first partition violation; otherwise each shard is a
    /// worker thread fed through a bounded channel.
    ///
    /// # Panics
    ///
    /// Panics when the stream violates the [`StreamEngine::push`]
    /// contract, when a worker shard panics, or (validator mode) when the
    /// partition proof obligation fails.
    pub fn replay<I>(
        &self,
        speed: SpeedModel,
        events: I,
        sink: &mut dyn StreamSink,
    ) -> StreamSummary
    where
        I: IntoIterator<Item = StreamEvent>,
    {
        if self.options.validate {
            self.replay_validating(speed, events, sink)
        } else {
            self.replay_parallel(speed, events, sink)
        }
    }

    fn shard_of_point(&self, point: GeoPoint) -> usize {
        let region = self.partitioner.region_of(point);
        let shards = self.options.shards;
        let shard = self.partitioner.shard_of(region, shards);
        assert!(
            shard < shards,
            "partitioner produced shard {shard} of {shards}"
        );
        shard
    }

    /// The sequential debug path: one thread owns every shard engine, so
    /// the partition proof obligation can be checked against live foreign
    /// driver state — on every routed task and on every still-pending task
    /// at every window boundary. Compaction is disabled so no interaction
    /// evidence is ever garbage-collected mid-check (results are unchanged
    /// either way — compaction is lossless).
    fn replay_validating<I>(
        &self,
        speed: SpeedModel,
        events: I,
        sink: &mut dyn StreamSink,
    ) -> StreamSummary
    where
        I: IntoIterator<Item = StreamEvent>,
    {
        let shards = self.options.shards;
        let stream_options = self.options.stream.no_compaction();
        let mut engines: Vec<StreamEngine> = (0..shards)
            .map(|_| StreamEngine::new(speed, stream_options))
            .collect();
        let mut holders: Vec<PolicyHolder> = (0..shards).map(|_| self.spec.holder()).collect();
        let mut collectors: Vec<Collector> = (0..shards).map(|_| Collector::default()).collect();
        let mut merger = Merger::new(shards, sink);
        let mut clock = WindowClock::new(self.spec.window());
        // Owning shard and shard-local id of every announced driver.
        let mut homes: Vec<(usize, DriverId)> = Vec::new();

        let open_all =
            |engines: &mut [StreamEngine], holders: &mut [PolicyHolder], at: Timestamp| {
                for (engine, holder) in engines.iter_mut().zip(holders.iter_mut()) {
                    engine.open_window(at, &holder.as_policy());
                }
            };

        for event in events {
            match event {
                StreamEvent::DriverOnline(driver) => {
                    let shard = self.shard_of_point(driver.source);
                    assert_eq!(
                        driver.id.index(),
                        homes.len(),
                        "driver ids must be dense in announcement order"
                    );
                    let local = merger.announce(shard, &driver);
                    homes.push((shard, local));
                    let mut policy = holders[shard].as_policy();
                    engines[shard].push(
                        StreamEvent::DriverOnline(Driver {
                            id: local,
                            ..driver
                        }),
                        &mut policy,
                        &mut collectors[shard],
                    );
                }
                StreamEvent::TaskPublished(task) => {
                    let shard = self.shard_of_point(task.origin);
                    match clock.on_task(task.publish_time) {
                        ClockStep::Deliver => {}
                        ClockStep::Open(at) => open_all(&mut engines, &mut holders, at),
                        ClockStep::CloseThenOpen { tick, end, reopen } => {
                            merger.note_boundary(end);
                            close_all_shards(
                                &mut engines,
                                &mut holders,
                                &mut collectors,
                                &mut merger,
                                tick,
                            );
                            if let Some(at) = reopen {
                                open_all(&mut engines, &mut holders, at);
                            }
                        }
                    }
                    check_partition(&engines, shard, &task);
                    let mut policy = holders[shard].as_policy();
                    engines[shard].push(
                        StreamEvent::TaskPublished(task),
                        &mut policy,
                        &mut collectors[shard],
                    );
                }
                StreamEvent::DriverOffline(id) => {
                    let (shard, local) = homes[id.index()];
                    let mut policy = holders[shard].as_policy();
                    engines[shard].push(
                        StreamEvent::DriverOffline(local),
                        &mut policy,
                        &mut collectors[shard],
                    );
                }
                StreamEvent::EpochTick(t) => {
                    if let Some((tick, end)) = clock.on_tick(t) {
                        merger.note_boundary(end);
                        close_all_shards(
                            &mut engines,
                            &mut holders,
                            &mut collectors,
                            &mut merger,
                            tick,
                        );
                    } else {
                        for (shard, engine) in engines.iter_mut().enumerate() {
                            let mut policy = holders[shard].as_policy();
                            engine.push(
                                StreamEvent::EpochTick(t),
                                &mut policy,
                                &mut collectors[shard],
                            );
                        }
                    }
                }
            }
        }

        // Final (unclosed) windows: check, finish, merge.
        for shard in 0..shards {
            for task in engines[shard].pending_tasks().to_vec() {
                check_partition(&engines, shard, &task);
            }
        }
        if let Some(end) = clock.final_end() {
            merger.note_boundary(end);
        }
        let mut summaries = Vec::with_capacity(shards);
        for (shard, engine) in engines.into_iter().enumerate() {
            let mut policy = holders[shard].as_policy();
            summaries.push(engine.finish(&mut policy, &mut collectors[shard]));
        }
        for (shard, c) in collectors.iter_mut().enumerate() {
            merger.push_batch(shard, std::mem::take(&mut c.decided));
        }
        merger.finish();
        fold_summaries(&summaries)
    }

    /// The parallel path: one worker thread per shard behind a bounded
    /// channel; the caller's thread routes events, broadcasts window
    /// anchors/boundaries, and runs the merge stage — draining worker
    /// output whenever a send would block, so backpressure bounds both the
    /// queues and the merge buffers.
    fn replay_parallel<I>(
        &self,
        speed: SpeedModel,
        events: I,
        sink: &mut dyn StreamSink,
    ) -> StreamSummary
    where
        I: IntoIterator<Item = StreamEvent>,
    {
        let shards = self.options.shards;
        let stream_options = self.options.stream;
        let spec = self.spec;
        let mut merger = Merger::new(shards, sink);
        let mut clock = WindowClock::new(spec.window());
        let mut homes: Vec<(usize, DriverId)> = Vec::new();
        let mut summaries: Vec<Option<StreamSummary>> = vec![None; shards];

        std::thread::scope(|scope| {
            let (out_tx, out_rx) = mpsc::channel::<(usize, WorkerOut)>();
            let mut txs: Vec<mpsc::SyncSender<ShardMsg>> = Vec::with_capacity(shards);
            for shard in 0..shards {
                let (tx, rx) = mpsc::sync_channel::<ShardMsg>(self.options.channel_capacity);
                txs.push(tx);
                let out = out_tx.clone();
                scope.spawn(move || shard_worker(shard, rx, &out, speed, stream_options, spec));
            }
            drop(out_tx);

            fn absorb(
                merger: &mut Merger<'_>,
                summaries: &mut [Option<StreamSummary>],
                shard: usize,
                out: WorkerOut,
            ) {
                match out {
                    WorkerOut::Window(batch) => merger.push_batch(shard, batch),
                    WorkerOut::Done(batch, summary) => {
                        merger.push_batch(shard, batch);
                        summaries[shard] = Some(summary);
                    }
                }
            }
            // Drains whatever the workers have produced so far, without
            // blocking. Called on every routed event (a `try_recv` on an
            // empty channel is a cheap atomic check) so decisions flow to
            // the caller's sink continuously and the merge buffers stay
            // bounded by worker skew — if the drain only happened when an
            // input queue filled up, a router-bound run (lazy generation +
            // pricing upstream) would accumulate every window's decisions
            // until end-of-stream, an O(trace) regression.
            let drain = |merger: &mut Merger<'_>, summaries: &mut [Option<StreamSummary>]| {
                while let Ok((s, out)) = out_rx.try_recv() {
                    absorb(merger, summaries, s, out);
                }
            };
            let send = |merger: &mut Merger<'_>,
                        summaries: &mut [Option<StreamSummary>],
                        shard: usize,
                        mut msg: ShardMsg| {
                loop {
                    match txs[shard].try_send(msg) {
                        Ok(()) => return,
                        Err(mpsc::TrySendError::Full(m)) => {
                            msg = m;
                            // The worker is behind: drain the merge so it
                            // keeps moving, then retry.
                            drain(merger, summaries);
                            std::thread::yield_now();
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            panic!("shard worker {shard} terminated early")
                        }
                    }
                }
            };

            for event in events {
                drain(&mut merger, &mut summaries);
                match event {
                    StreamEvent::DriverOnline(driver) => {
                        let shard = self.shard_of_point(driver.source);
                        assert_eq!(
                            driver.id.index(),
                            homes.len(),
                            "driver ids must be dense in announcement order"
                        );
                        let local = merger.announce(shard, &driver);
                        homes.push((shard, local));
                        send(
                            &mut merger,
                            &mut summaries,
                            shard,
                            ShardMsg::Event(StreamEvent::DriverOnline(Driver {
                                id: local,
                                ..driver
                            })),
                        );
                    }
                    StreamEvent::TaskPublished(task) => {
                        let shard = self.shard_of_point(task.origin);
                        match clock.on_task(task.publish_time) {
                            ClockStep::Deliver => {}
                            ClockStep::Open(at) => {
                                for s in 0..shards {
                                    send(&mut merger, &mut summaries, s, ShardMsg::Open(at));
                                }
                            }
                            ClockStep::CloseThenOpen { tick, end, reopen } => {
                                merger.note_boundary(end);
                                for s in 0..shards {
                                    send(&mut merger, &mut summaries, s, ShardMsg::Close(tick));
                                }
                                if let Some(at) = reopen {
                                    for s in 0..shards {
                                        send(&mut merger, &mut summaries, s, ShardMsg::Open(at));
                                    }
                                }
                            }
                        }
                        send(
                            &mut merger,
                            &mut summaries,
                            shard,
                            ShardMsg::Event(StreamEvent::TaskPublished(task)),
                        );
                    }
                    StreamEvent::DriverOffline(id) => {
                        let (shard, local) = homes[id.index()];
                        send(
                            &mut merger,
                            &mut summaries,
                            shard,
                            ShardMsg::Event(StreamEvent::DriverOffline(local)),
                        );
                    }
                    StreamEvent::EpochTick(t) => {
                        if let Some((tick, end)) = clock.on_tick(t) {
                            merger.note_boundary(end);
                            for s in 0..shards {
                                send(&mut merger, &mut summaries, s, ShardMsg::Close(tick));
                            }
                        } else {
                            for s in 0..shards {
                                send(
                                    &mut merger,
                                    &mut summaries,
                                    s,
                                    ShardMsg::Event(StreamEvent::EpochTick(t)),
                                );
                            }
                        }
                    }
                }
            }

            let _ = &send;
            if let Some(end) = clock.final_end() {
                merger.note_boundary(end);
            }
            drop(txs); // end-of-stream: workers finish and report
            while summaries.iter().any(Option::is_none) {
                match out_rx.recv() {
                    Ok((s, out)) => absorb(&mut merger, &mut summaries, s, out),
                    Err(_) => panic!("a shard worker panicked before finishing"),
                }
            }
            while let Ok((s, out)) = out_rx.try_recv() {
                absorb(&mut merger, &mut summaries, s, out);
            }
        });

        merger.finish();
        let parts: Vec<StreamSummary> = summaries
            .into_iter()
            .map(|s| s.expect("every worker reported"))
            .collect();
        fold_summaries(&parts)
    }
}

/// Replays a whole event stream through a [`ShardedStreamEngine`] — the
/// one-call form mirroring [`crate::replay_stream`]. See the module docs
/// for the legality condition under which this is byte-identical to the
/// sequential replay.
///
/// # Panics
///
/// See [`ShardedStreamEngine::replay`].
pub fn replay_sharded<I>(
    speed: SpeedModel,
    events: I,
    spec: ShardPolicySpec,
    partitioner: &dyn RegionPartitioner,
    options: ShardOptions,
    sink: &mut dyn StreamSink,
) -> StreamSummary
where
    I: IntoIterator<Item = StreamEvent>,
{
    ShardedStreamEngine::new(spec, partitioner, options).replay(speed, events, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{market_events, replay_stream, CollectingSink};
    use crate::MatcherKind;
    use rideshare_core::{Market, MarketBuildOptions};
    use rideshare_trace::{DriverModel, TraceConfig};

    fn regional_config(seed: u64, tasks: usize, drivers: usize, regions: usize) -> TraceConfig {
        TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .with_regions(regions)
    }

    fn sequential(market: &Market, spec: ShardPolicySpec) -> crate::SimulationResult {
        let mut sink = CollectingSink::new();
        let mut holder = spec.holder();
        let mut policy = holder.as_policy();
        let _ = replay_stream(
            market.speed(),
            market_events(market),
            &mut policy,
            StreamOptions::default(),
            &mut sink,
        );
        sink.into_result()
    }

    #[test]
    fn window_clock_reproduces_sequential_boundaries() {
        use rideshare_types::Timestamp as T;
        // Instant: group per timestamp.
        let mut c = WindowClock::new(None);
        assert!(matches!(c.on_task(T::from_secs(10)), ClockStep::Deliver));
        assert!(matches!(c.on_task(T::from_secs(10)), ClockStep::Deliver));
        match c.on_task(T::from_secs(15)) {
            ClockStep::CloseThenOpen {
                tick,
                end,
                reopen: None,
            } => {
                assert_eq!(tick, T::from_secs(11));
                assert_eq!(end, T::from_secs(10));
            }
            other => panic!("unexpected {:?}", std::mem::discriminant(&other)),
        }
        // Batched: window end = open + W; ticks close only past the end.
        let mut c = WindowClock::new(Some(TimeDelta::from_secs(60)));
        match c.on_task(T::from_secs(100)) {
            ClockStep::Open(at) => assert_eq!(at, T::from_secs(100)),
            _ => panic!("expected open"),
        }
        assert!(matches!(c.on_task(T::from_secs(160)), ClockStep::Deliver));
        match c.on_task(T::from_secs(161)) {
            ClockStep::CloseThenOpen {
                tick,
                end,
                reopen: Some(at),
            } => {
                assert_eq!(tick, T::from_secs(161));
                assert_eq!(end, T::from_secs(160));
                assert_eq!(at, T::from_secs(161));
            }
            _ => panic!("expected close+open"),
        }
        assert_eq!(c.on_tick(T::from_secs(200)), None);
        assert_eq!(c.final_end(), Some(T::from_secs(221)));
        assert_eq!(
            c.on_tick(T::from_secs(222)),
            Some((T::from_secs(222), T::from_secs(221)))
        );
        assert_eq!(c.final_end(), None);
        assert_eq!(c.on_tick(T::from_secs(500)), None, "hold already closed");
    }

    #[test]
    fn partitioners_are_total_and_in_range() {
        let bbox = BoundingBox::new(41.0, 41.3, -8.8, -8.3);
        let grid = GridHashPartitioner::new(bbox, 4, 4);
        assert_eq!(grid.region_count(), 16);
        for (u, v) in [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, -1.0)] {
            let p = bbox.lerp(u, v);
            let r = grid.region_of(p);
            assert!(r < grid.region_count());
            assert!(grid.shard_of(r, 3) < 3);
        }
        let boxes = vec![
            BoundingBox::new(41.0, 41.3, -8.8, -8.3),
            BoundingBox::new(41.0, 41.3, -7.0, -6.5),
        ];
        let part = BoxPartitioner::new(boxes.clone());
        assert_eq!(part.region_count(), 2);
        assert_eq!(part.region_of(boxes[0].center()), 0);
        assert_eq!(part.region_of(boxes[1].center()), 1);
        // Outside every box: nearest center wins.
        assert_eq!(part.region_of(GeoPoint::new(41.15, -6.0)), 1);
    }

    #[test]
    fn zero_shards_is_a_typed_error_not_a_division_panic() {
        // Regression: `GridHashPartitioner::shard_of(_, 0)` used to reach
        // `% 0` and die with an unhelpful arithmetic panic; the value is
        // now rejected as ConfigError at option construction.
        assert_eq!(
            ShardOptions::try_new(0).unwrap_err(),
            ConfigError::ZeroShards
        );
        assert!(ShardOptions::try_new(1).is_ok());
        assert_eq!(ShardOptions::try_new(4).unwrap().shards, 4);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn grid_partitioner_names_the_zero_shard_bug() {
        let bbox = BoundingBox::new(41.0, 41.3, -8.8, -8.3);
        let grid = GridHashPartitioner::new(bbox, 2, 2);
        let _ = grid.shard_of(0, 0);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn default_shard_fold_names_the_zero_shard_bug() {
        let part = BoxPartitioner::new(vec![BoundingBox::new(41.0, 41.3, -8.8, -8.3)]);
        let _ = part.shard_of(0, 0);
    }

    #[test]
    fn sharded_replay_matches_sequential_on_regional_market() {
        let config = regional_config(31, 160, 24, 2);
        let market = Market::from_trace(&config.generate(), &MarketBuildOptions::default());
        let partitioner = BoxPartitioner::new(config.region_boxes());
        let expected = sequential(&market, ShardPolicySpec::MaxMargin);
        for shards in [1usize, 2] {
            for validate in [true, false] {
                let mut sink = CollectingSink::new();
                let summary = replay_sharded(
                    market.speed(),
                    market_events(&market),
                    ShardPolicySpec::MaxMargin,
                    &partitioner,
                    ShardOptions::new(shards).validate(validate),
                    &mut sink,
                );
                let got = sink.into_result();
                assert_eq!(got.dispatch, expected.dispatch, "shards={shards}");
                assert_eq!(got.events, expected.events, "shards={shards}");
                assert_eq!(
                    got.assignment.routes(),
                    expected.assignment.routes(),
                    "shards={shards}"
                );
                assert_eq!(summary.tasks, market.num_tasks());
                assert_eq!(summary.served, expected.served);
                assert_eq!(summary.rejected, expected.rejected);
                assert_eq!(summary.drivers, market.num_drivers());
            }
        }
    }

    #[test]
    fn sharded_batched_replay_matches_batch_engine_canonically() {
        let config = regional_config(32, 140, 20, 2);
        let market = Market::from_trace(&config.generate(), &MarketBuildOptions::default());
        let partitioner = BoxPartitioner::new(config.region_boxes());
        let window = TimeDelta::from_mins(3);
        let spec = ShardPolicySpec::Batched {
            window,
            matcher: MatcherKind::Greedy,
        };
        let mut expected = sequential(&market, spec);
        // Canonical form: the merge emits (epoch, task id); the sequential
        // engine emits matcher-commit order inside an epoch.
        expected
            .events
            .sort_by_key(|e| (e.decision_time, e.task.index()));
        for shards in [1usize, 2] {
            let mut sink = CollectingSink::new();
            let _ = replay_sharded(
                market.speed(),
                market_events(&market),
                spec,
                &partitioner,
                ShardOptions::new(shards).validate(shards == 1),
                &mut sink,
            );
            let got = sink.into_result();
            assert_eq!(got.dispatch, expected.dispatch, "shards={shards}");
            assert_eq!(got.events, expected.events, "shards={shards}");
        }
    }

    #[test]
    #[should_panic(expected = "region partition violated")]
    fn validator_rejects_illegal_partition() {
        // One dense city hash-split into grid cells: drivers constantly
        // serve tasks across cell borders, so the proof obligation fails.
        let trace = TraceConfig::porto()
            .with_seed(33)
            .with_task_count(60)
            .with_driver_count(12, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let partitioner = GridHashPartitioner::new(trace.bbox, 4, 4);
        let mut sink = CollectingSink::new();
        let _ = replay_sharded(
            market.speed(),
            market_events(&market),
            ShardPolicySpec::MaxMargin,
            &partitioner,
            ShardOptions::new(2).validate(true),
            &mut sink,
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardOptions::new(0);
    }
}
