//! Region-sharded parallel streaming replay.
//!
//! One [`StreamEngine`] decides on one core (its throughput is in the
//! ledger — `BENCHMARK.json`, `benchmark/README.md`). This module is the
//! way past one core: the **online analogue of the paper's lossless
//! disjoint-component decomposition (§IV)**. Offline, `disjoint_components`
//! splits a market into independent sub-markets solvable in parallel with
//! zero loss of optimality. Online, the same idea shards the *live stream*
//! by disjoint service regions: every driver is owned by exactly one shard
//! (the shard of her announce region) and every order is routed to the
//! shard of its pickup region, each shard running an ordinary
//! [`StreamEngine`] over its slice of the stream.
//!
//! # One router, two lanes
//!
//! [`replay_sharded`] walks the event stream once (`route`): it places
//! each event, steps the global hold (the engine's own hold rule, asked
//! about the whole stream), and emits a sequence of
//! `(one shard | all shards, ShardMsg)` deliveries. Where those go is a
//! lane: worker *threads* behind bounded channels, or — under
//! [`ShardOptions::validate`] — the same shards applied *inline* on the
//! caller's thread with the partition check run before every task, every
//! close and the finish. Both lanes drive a shard through the same
//! `Shard::apply`, so they cannot decide differently.
//!
//! # The proof obligation
//!
//! The decomposition is lossless **iff the partition is legal**: no driver
//! of one shard may ever *interact* with a task of another. "Interact"
//! means more than "be a feasible candidate" — batched dispatch's
//! early-flush epoch (`latest_decision`) is raised by any driver on shift
//! at the task's publication within its publish→deadline lead radius,
//! feasible or not. Both effects share one geometric bound, so a single
//! condition covers them: *every foreign driver still on shift at a task's
//! publication stays farther (in travel time from her current projected
//! position) than the task's full publish→deadline lead at every decision
//! epoch.* This is exactly the
//! condition the region-tagged traces (`TraceConfig::with_regions`)
//! guarantee by construction, and the condition the **debug-mode
//! validator** ([`ShardOptions::validate`]) re-checks per task and per
//! window boundary, mirroring what `disjoint_components` proves offline.
//! An illegal partition (e.g. longitude stripes over one dense city) does
//! not crash the worker threads — each shard still makes internally valid
//! dispatches — but results are no longer byte-identical to a sequential
//! replay, and the validator reports the first violating (driver, task)
//! pair.
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
//!   `(decision epoch, task id)` order before the caller's [`StreamSink`]
//!   sees them. Within an instant-mode group this *is* the
//!   sequential emission order; within a batched epoch the sequential
//!   engine emits in matcher-commit order instead, so byte-identity for
//!   batched replays is pinned on the canonical `(epoch, task id)` form.
//! - **Shard-stable policies.** A shard decides its tasks with its own
//!   policy instance, so policy choices must be pure functions of the
//!   candidate set: [`ShardPolicySpec`] covers maxMargin (deterministic
//!   argmax), nearest (decision-local hashed tie-break), and the batched
//!   matchers (deterministic round solutions). Candidate sets themselves
//!   agree because a shard's engine keeps its drivers' announced ids and
//!   lists candidates by id: a shard's candidate list is the sequential
//!   one, with the same ids, in the same order.
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

use rideshare_core::Task;
use rideshare_geo::{BoundingBox, GeoPoint, SpeedModel};
use rideshare_types::{ConfigError, TimeDelta, Timestamp};

use crate::batch::{BatchMatcher, GreedyPairMatcher, MatcherKind, OptimalAssignmentMatcher};
use crate::policy::{DispatchPolicy, MaxMargin, NearestDriver};
use crate::simulator::DispatchEvent;
use crate::stream::{
    next_announced, Hold, StreamEngine, StreamEvent, StreamOptions, StreamPolicy, StreamSink,
    StreamSummary,
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
    /// The region owning `point`.
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

/// Bound of each worker's input queue; backpressure keeps shard skew — and
/// therefore merge-buffer memory — bounded.
const CHANNEL_CAPACITY: usize = 1024;

/// Most shards one replay may run. Each shard is an OS thread, and a
/// count the OS refuses aborts the process from inside `thread::scope`
/// instead of failing the run, so the count is bounded where it enters.
const MAX_SHARDS: usize = 1024;

/// Options for a sharded replay.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Per-shard [`StreamEngine`] options (the grid's box, a speed hint).
    pub stream: StreamOptions,
    /// Run the **inline validating lane** instead of the worker threads:
    /// the caller's thread applies every delivery to the shard engines
    /// itself and re-checks the partition proof obligation on every task
    /// and at every window boundary, panicking on the first cross-shard
    /// interaction. Results are identical to the threaded lane (that's the
    /// whole point); only the wall-clock differs. Defaults to on under
    /// `debug_assertions`, off in release builds.
    pub validate: bool,
}

impl ShardOptions {
    /// Options for `shards` workers with defaults (validator in debug
    /// builds, default engine options).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or beyond the shard limit;
    /// [`ShardOptions::try_new`] is the non-panicking form for validating
    /// external input.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::try_new(shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardOptions::new`] with an unusable count rejected as a typed
    /// error instead of a panic — the form CLI / config boundaries should
    /// use. With `shards == 0` no partitioner could place a single
    /// region (`region % 0` divides by zero), and a count the OS cannot
    /// give one thread each aborts the process; both are rejected here,
    /// before any engine or partitioner sees them.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroShards`] when `shards` is zero,
    /// [`ConfigError::TooManyShards`] when it exceeds the limit (1024).
    ///
    /// # Examples
    ///
    /// ```
    /// use rideshare_online::ShardOptions;
    /// use rideshare_types::ConfigError;
    /// assert!(ShardOptions::try_new(2).is_ok());
    /// assert_eq!(ShardOptions::try_new(0).unwrap_err(), ConfigError::ZeroShards);
    /// assert!(ShardOptions::try_new(70_000).is_err());
    /// ```
    pub fn try_new(shards: usize) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if shards > MAX_SHARDS {
            return Err(ConfigError::TooManyShards {
                shards,
                max: MAX_SHARDS,
            });
        }
        Ok(Self {
            shards,
            stream: StreamOptions::default(),
            validate: cfg!(debug_assertions),
        })
    }

    /// Replaces the per-shard engine options.
    #[must_use]
    pub fn stream(mut self, stream: StreamOptions) -> Self {
        self.stream = stream;
        self
    }

    /// Forces the inline validating lane on or off.
    #[must_use]
    pub fn validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }
}

/// One decided order, as collected inside a shard and re-emitted by the
/// merge stage.
#[derive(Clone, Copy)]
enum Decision {
    Dispatched(DispatchEvent),
    Rejected(Timestamp),
}

/// One window's decisions from one shard, in shard emission order.
type Batch = Vec<(Task, Decision)>;

/// A shard-local sink accumulating the decisions of the current window.
#[derive(Default)]
struct Collector {
    decided: Batch,
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

/// One delivery from the router to a shard — the whole protocol a lane
/// carries.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ShardMsg {
    Event(StreamEvent),
    /// Anchor a batched window opening at the instant (no-op for instant).
    Open(Timestamp),
    /// Close the current hold via an [`StreamEvent::EpochTick`] and ship
    /// the window's decisions to the merge stage.
    Close(Timestamp),
}

/// Which shards a [`ShardMsg`] is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Target {
    One(usize),
    All,
}

impl Target {
    /// The shard indices addressed, out of `shards`.
    fn of(self, shards: usize) -> std::ops::Range<usize> {
        match self {
            Target::One(shard) => shard..shard + 1,
            Target::All => 0..shards,
        }
    }
}

/// One shard: an ordinary [`StreamEngine`], its own policy instance, and
/// the decisions of its current window. [`Shard::apply`] and
/// [`Shard::finish`] are the only code that drives a shard's engine —
/// the worker thread and the inline lane both go through them.
struct Shard {
    engine: StreamEngine,
    holder: PolicyHolder,
    collector: Collector,
}

impl Shard {
    fn new(speed: SpeedModel, options: StreamOptions, spec: ShardPolicySpec) -> Self {
        Self {
            engine: StreamEngine::new(speed, options),
            holder: spec.holder(),
            collector: Collector::default(),
        }
    }

    /// Applies one delivery; a `Close` returns the closed window's
    /// decisions, in shard emission order.
    fn apply(&mut self, msg: ShardMsg) -> Option<Batch> {
        let mut policy = self.holder.as_policy();
        let (event, closes) = match msg {
            ShardMsg::Event(event) => (event, false),
            ShardMsg::Close(tick) => (StreamEvent::EpochTick(tick), true),
            ShardMsg::Open(at) => {
                self.engine.open_window(at, &policy);
                return None;
            }
        };
        self.engine.push(event, &mut policy, &mut self.collector);
        closes.then(|| std::mem::take(&mut self.collector.decided))
    }

    /// End of stream: the final (unclosed) window plus the shard summary.
    fn finish(mut self) -> (Batch, StreamSummary) {
        let mut policy = self.holder.as_policy();
        let summary = self.engine.finish(&mut policy, &mut self.collector);
        (self.collector.decided, summary)
    }
}

/// The merge stage: per-shard FIFO queues of per-window decision batches.
/// Window `k`'s global decisions exist exactly when every shard has
/// shipped its `k`-th batch; they are then re-serialized into
/// `(decision epoch, task id)` order and replayed into the caller's sink.
struct Merger<'s> {
    queues: Vec<VecDeque<Batch>>,
    /// Window boundaries in close order, noted by the router *before* the
    /// shards' batches can arrive; each merged window pops one and fires
    /// [`StreamSink::window_closed`], reproducing the sequential engine's
    /// boundary announcements exactly (same ends, same count, same
    /// position between decision batches).
    boundaries: VecDeque<Timestamp>,
    /// Reusable merge arena: one window's decisions, re-sorted into the
    /// canonical order. Drained on every emit, so only its capacity
    /// persists between windows.
    window: Vec<(Task, Decision)>,
    sink: &'s mut dyn StreamSink,
}

impl<'s> Merger<'s> {
    fn new(shards: usize, sink: &'s mut dyn StreamSink) -> Self {
        Self {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            boundaries: VecDeque::new(),
            window: Vec::new(),
            sink,
        }
    }

    /// Records that the router just closed the global hold at `end`.
    fn note_boundary(&mut self, end: Timestamp) {
        self.boundaries.push_back(end);
    }

    fn push_batch(&mut self, shard: usize, batch: Batch) {
        self.queues[shard].push_back(batch);
        self.emit_ready();
    }

    fn emit_ready(&mut self) {
        while self.queues.iter().all(|q| !q.is_empty()) {
            debug_assert!(self.window.is_empty());
            for q in &mut self.queues {
                self.window
                    .extend(q.pop_front().expect("checked non-empty"));
            }
            // The canonical merge order: decision epoch, then task id.
            self.window.sort_by_key(|(task, decision)| {
                let at = match decision {
                    Decision::Dispatched(e) => e.decision_time,
                    Decision::Rejected(at) => *at,
                };
                (at, task.id.index())
            });
            for (task, decision) in self.window.drain(..) {
                match decision {
                    Decision::Dispatched(event) => self.sink.dispatched(&task, &event),
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
/// sums and match a sequential replay exactly, except: `compacted_drivers`
/// counts the drivers retirement freed, which happens at each shard's own
/// flushes, so it differs across shard counts; `peak_held_tasks` sums
/// per-shard peaks (an upper bound on the true global peak — shards peak
/// at different instants); and `clock` takes the max.
fn fold_summaries(parts: &[StreamSummary]) -> StreamSummary {
    let mut total = StreamSummary::default();
    for p in parts {
        total.tasks += p.tasks;
        total.served += p.served;
        total.rejected += p.rejected;
        total.drivers += p.drivers;
        total.compacted_drivers += p.compacted_drivers;
        total.peak_held_tasks += p.peak_held_tasks;
        total.clock = total.clock.max(p.clock);
    }
    total
}

/// Where the router's deliveries go: the seam between *what* is sent to
/// which shard (the router, written once) and *how* a shard receives it.
/// Every closed window's [`Batch`] must reach `merger` exactly once per
/// shard, in close order.
trait Lanes {
    /// Delivers `msg` to `to`.
    fn send(&mut self, to: Target, msg: ShardMsg, merger: &mut Merger<'_>);

    /// End of stream: finishes every shard, ships the final batches, and
    /// returns the per-shard summaries.
    fn finish(self, merger: &mut Merger<'_>) -> Vec<StreamSummary>;
}

/// The validating lane: every shard lives on the caller's thread, so the
/// partition proof obligation can be checked against live foreign driver
/// state — before every routed task, and for every still-pending task
/// before every close and before the finish. Retirement runs as it does
/// in the threaded lane: it frees only drivers whose shifts ended before
/// every task still to be checked published, and those interact with
/// none of them.
struct InlineLanes {
    shards: Vec<Shard>,
}

impl InlineLanes {
    /// Panics if any *foreign* shard could interact with `task` — the
    /// per-task incarnation of the partition proof obligation (see
    /// [`StreamEngine`]'s `interaction_with` for the exact radius).
    fn check(&self, home: usize, task: &Task) {
        for (other, shard) in self.shards.iter().enumerate() {
            if other == home {
                continue;
            }
            if let Some(driver) = shard.engine.interaction_with(task) {
                panic!(
                    "region partition violated: driver {driver} (shard {other}) can interact \
                     with task {} (shard {home}) — sharded replay would diverge from a \
                     sequential one",
                    task.id
                );
            }
        }
    }

    fn check_pending(&self) {
        for (home, shard) in self.shards.iter().enumerate() {
            for task in shard.engine.pending_tasks() {
                self.check(home, task);
            }
        }
    }
}

impl Lanes for InlineLanes {
    fn send(&mut self, to: Target, msg: ShardMsg, merger: &mut Merger<'_>) {
        match (to, msg) {
            (Target::One(home), ShardMsg::Event(StreamEvent::TaskPublished(task))) => {
                self.check(home, &task);
            }
            (_, ShardMsg::Close(_)) => self.check_pending(),
            _ => {}
        }
        for shard in to.of(self.shards.len()) {
            if let Some(batch) = self.shards[shard].apply(msg) {
                merger.push_batch(shard, batch);
            }
        }
    }

    fn finish(self, merger: &mut Merger<'_>) -> Vec<StreamSummary> {
        self.check_pending();
        let mut summaries = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.into_iter().enumerate() {
            let (batch, summary) = shard.finish();
            merger.push_batch(s, batch);
            summaries.push(summary);
        }
        summaries
    }
}

/// What a worker reports to the merge stage: its index, one window's
/// decisions, and — with the final (unclosed) window — its summary.
type WorkerOut = (usize, Batch, Option<StreamSummary>);

/// The threaded lane: one worker thread per shard behind a bounded
/// channel. The caller's thread routes and runs the merge stage, draining
/// worker output whenever it sends — so backpressure bounds both the
/// queues and the merge buffers.
struct ThreadLanes {
    txs: Vec<mpsc::SyncSender<ShardMsg>>,
    out_rx: mpsc::Receiver<WorkerOut>,
    summaries: Vec<Option<StreamSummary>>,
}

impl ThreadLanes {
    /// Spawns one worker per shard into `scope`, which joins them.
    fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        shards: usize,
        speed: SpeedModel,
        options: StreamOptions,
        spec: ShardPolicySpec,
    ) -> Self {
        let (out_tx, out_rx) = mpsc::channel::<WorkerOut>();
        let txs = (0..shards)
            .map(|s| {
                let (tx, rx) = mpsc::sync_channel::<ShardMsg>(CHANNEL_CAPACITY);
                let out = out_tx.clone();
                scope.spawn(move || {
                    let mut shard = Shard::new(speed, options, spec);
                    for msg in rx {
                        if let Some(batch) = shard.apply(msg) {
                            if out.send((s, batch, None)).is_err() {
                                return; // router gone; nothing left to report to
                            }
                        }
                    }
                    let (batch, summary) = shard.finish();
                    let _ = out.send((s, batch, Some(summary)));
                });
                tx
            })
            .collect();
        Self {
            txs,
            out_rx,
            summaries: vec![None; shards],
        }
    }

    fn absorb(&mut self, (shard, batch, summary): WorkerOut, merger: &mut Merger<'_>) {
        merger.push_batch(shard, batch);
        if summary.is_some() {
            self.summaries[shard] = summary;
        }
    }

    /// Merges whatever the workers have produced so far, without blocking.
    fn drain(&mut self, merger: &mut Merger<'_>) {
        while let Ok(out) = self.out_rx.try_recv() {
            self.absorb(out, merger);
        }
    }
}

impl Lanes for ThreadLanes {
    fn send(&mut self, to: Target, msg: ShardMsg, merger: &mut Merger<'_>) {
        // Drained on every delivery (a `try_recv` on an empty channel is a
        // cheap atomic check) so decisions flow to the caller's sink
        // continuously and the merge buffers stay bounded by worker skew —
        // if the drain only happened when an input queue filled up, a
        // router-bound run (lazy generation + pricing upstream) would
        // accumulate every window's decisions until end-of-stream, an
        // O(trace) regression.
        self.drain(merger);
        for shard in to.of(self.txs.len()) {
            // The worker is behind while its queue is full: keep the merge
            // moving, then retry.
            while let Err(e) = self.txs[shard].try_send(msg) {
                match e {
                    mpsc::TrySendError::Full(_) => {
                        self.drain(merger);
                        std::thread::yield_now();
                    }
                    mpsc::TrySendError::Disconnected(_) => {
                        panic!("shard worker {shard} terminated early")
                    }
                }
            }
        }
    }

    fn finish(mut self, merger: &mut Merger<'_>) -> Vec<StreamSummary> {
        self.txs.clear(); // end-of-stream: workers finish and report
        while self.summaries.iter().any(Option::is_none) {
            match self.out_rx.recv() {
                Ok(out) => self.absorb(out, merger),
                Err(_) => panic!("a shard worker panicked before finishing"),
            }
        }
        self.drain(merger);
        self.summaries.into_iter().flatten().collect()
    }
}

/// The router: walks the event stream once, places each event on its
/// shard, reproduces the sequential engine's window boundaries by asking
/// the engine's own [`Hold`] rule about the *global* stream — window
/// formation depends only on publish times and `W`, never on decisions —
/// and hands `lanes` the resulting deliveries.
/// Announcements and boundaries are told to `merger` *before* the
/// deliveries they concern, so no lane can ship a batch the merge stage
/// is not ready for.
fn route<L: Lanes>(
    events: impl IntoIterator<Item = StreamEvent>,
    window: Option<TimeDelta>,
    shards: usize,
    partitioner: &dyn RegionPartitioner,
    mut lanes: L,
    merger: &mut Merger<'_>,
) -> Vec<StreamSummary> {
    let shard_of = |point: GeoPoint| {
        let shard = partitioner.shard_of(partitioner.region_of(point), shards);
        assert!(
            shard < shards,
            "partitioner produced shard {shard} of {shards}"
        );
        shard
    };
    // Every global boundary passes through here. Mid-stream it comes with
    // the tick that closes every shard's hold; the hold still open at end
    // of stream closes in the shards' `finish` instead.
    let close = |lanes: &mut L, merger: &mut Merger<'_>, end: Timestamp, tick: Option<_>| {
        merger.note_boundary(end);
        if let Some(tick) = tick {
            lanes.send(Target::All, ShardMsg::Close(tick), merger);
        }
    };
    let mut hold = Hold::Empty;
    // The engine's check on ids, made here on the whole stream, so both
    // paths refuse exactly the same streams.
    let mut last_id = None;

    for event in events {
        match event {
            StreamEvent::DriverOnline(driver) => {
                last_id = next_announced(last_id, driver.id);
                merger.sink.driver_online(&driver);
                let home = shard_of(driver.source);
                lanes.send(Target::One(home), ShardMsg::Event(event), merger);
            }
            StreamEvent::TaskPublished(task) => {
                let publish = task.publish_time;
                if let Some(end) = hold.closed_by(publish) {
                    // Tick one second past the end: the order publishes at
                    // `publish ≥ end + 1`, so the tick never outruns the
                    // stream.
                    let tick = end + TimeDelta::from_secs(1);
                    close(&mut lanes, merger, end, Some(tick));
                    hold = Hold::Empty;
                }
                if hold == Hold::Empty {
                    hold = Hold::opened_at(publish, window);
                    // Instant publish groups are self-aligning; a batched
                    // window is anchored on every shard.
                    if window.is_some() {
                        lanes.send(Target::All, ShardMsg::Open(publish), merger);
                    }
                }
                let home = shard_of(task.origin);
                lanes.send(Target::One(home), ShardMsg::Event(event), merger);
            }
            StreamEvent::EpochTick(t) => match hold.closed_by(t) {
                Some(end) => {
                    close(&mut lanes, merger, end, Some(t));
                    hold = Hold::Empty;
                }
                None => lanes.send(Target::All, ShardMsg::Event(event), merger),
            },
        }
    }
    // The hold still open at end of stream: the shards close it in
    // `finish`, and the merge stage must still announce it.
    if let Some(end) = hold.end() {
        close(&mut lanes, merger, end, None);
    }
    lanes.finish(merger)
}

/// Replays a whole event stream across region shards — the one-call form
/// mirroring [`crate::replay_stream`]: routes events to shards, anchors
/// window boundaries globally, merges decisions deterministically into
/// `sink`, and returns the folded summary (see `fold_summaries`' caveats
/// on the diagnostic fields). See the module docs for the legality
/// condition under which this is byte-identical to the sequential replay.
///
/// With [`ShardOptions::validate`] the shards run inline on the caller's
/// thread and the first partition violation panics; otherwise each shard
/// is a worker thread fed through a bounded channel.
///
/// # Panics
///
/// Panics when the stream violates the [`StreamEngine::push`] contract,
/// when a worker shard panics, or (validating) when the partition proof
/// obligation fails.
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
    let shards = options.shards;
    let mut merger = Merger::new(shards, sink);
    let summaries = if options.validate {
        let lanes = InlineLanes {
            shards: (0..shards)
                .map(|_| Shard::new(speed, options.stream, spec))
                .collect(),
        };
        route(
            events,
            spec.window(),
            shards,
            partitioner,
            lanes,
            &mut merger,
        )
    } else {
        std::thread::scope(|scope| {
            let lanes = ThreadLanes::spawn(scope, shards, speed, options.stream, spec);
            route(
                events,
                spec.window(),
                shards,
                partitioner,
                lanes,
                &mut merger,
            )
        })
    };
    merger.finish();
    fold_summaries(&summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{market_events, replay_stream, CollectingSink};
    use crate::MatcherKind;
    use rideshare_core::{Driver, Market, MarketBuildOptions};
    use rideshare_trace::{DriverModel, TraceConfig};
    use rideshare_types::DriverId;

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

    /// An *illegal* partition: one dense city cut in two at a meridian.
    struct Meridian(f64);

    impl RegionPartitioner for Meridian {
        fn region_of(&self, point: GeoPoint) -> usize {
            usize::from(point.lon() >= self.0)
        }
    }

    fn two_boxes() -> Vec<BoundingBox> {
        vec![
            BoundingBox::new(41.0, 41.3, -8.8, -8.3),
            BoundingBox::new(41.0, 41.3, -7.0, -6.5),
        ]
    }

    #[test]
    fn box_partitioner_is_total() {
        let boxes = two_boxes();
        let part = BoxPartitioner::new(boxes.clone());
        assert_eq!(part.region_of(boxes[0].center()), 0);
        assert_eq!(part.region_of(boxes[1].center()), 1);
        // Outside every box: nearest center wins.
        assert_eq!(part.region_of(GeoPoint::new(41.15, -6.0)), 1);
    }

    #[test]
    fn zero_shards_is_a_typed_error_not_a_division_panic() {
        // Regression: a partitioner's `shard_of(_, 0)` used to reach `% 0`
        // and die with an unhelpful arithmetic panic; the value is
        // rejected as ConfigError at option construction.
        assert_eq!(
            ShardOptions::try_new(0).unwrap_err(),
            ConfigError::ZeroShards
        );
        assert!(ShardOptions::try_new(1).is_ok());
        assert_eq!(ShardOptions::try_new(4).unwrap().shards, 4);
    }

    #[test]
    fn absurd_shard_count_is_a_typed_error_not_a_process_abort() {
        // Regression: `--shards 70000` spawned one OS thread per shard
        // inside `thread::scope`; when the OS refused one the runtime
        // could not even panic ("failed to initiate panic, error 5") and
        // aborted the process.
        assert_eq!(
            ShardOptions::try_new(70_000).unwrap_err(),
            ConfigError::TooManyShards {
                shards: 70_000,
                max: MAX_SHARDS
            }
        );
        assert_eq!(
            ShardOptions::try_new(MAX_SHARDS + 1).unwrap_err(),
            ConfigError::TooManyShards {
                shards: MAX_SHARDS + 1,
                max: MAX_SHARDS
            }
        );
        assert_eq!(
            ShardOptions::try_new(MAX_SHARDS).unwrap().shards,
            MAX_SHARDS
        );
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
    fn sharded_batched_replay_matches_sequential_canonically() {
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
        // One dense city cut down the middle: drivers constantly serve
        // tasks across the cut, so the proof obligation fails.
        let trace = TraceConfig::porto()
            .with_seed(33)
            .with_task_count(60)
            .with_driver_count(12, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let partitioner = Meridian(trace.bbox.center().lon());
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
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_rejected() {
        let _ = ShardOptions::new(0);
    }

    /// A lane that only records what the router asked for.
    impl Lanes for &mut Vec<(Target, ShardMsg)> {
        fn send(&mut self, to: Target, msg: ShardMsg, _: &mut Merger<'_>) {
            self.push((to, msg));
        }

        fn finish(self, _: &mut Merger<'_>) -> Vec<StreamSummary> {
            Vec::new()
        }
    }

    fn driver_at(id: u32, source: GeoPoint) -> Driver {
        Driver {
            id: DriverId::new(id),
            source,
            destination: source,
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(86_400),
            model: DriverModel::HomeWorkHome,
        }
    }

    fn task_at(id: u32, origin: GeoPoint, publish: i64) -> Task {
        Task {
            id: rideshare_types::TaskId::new(id),
            publish_time: Timestamp::from_secs(publish),
            origin,
            destination: origin,
            pickup_deadline: Timestamp::from_secs(publish + 600),
            completion_deadline: Timestamp::from_secs(publish + 3600),
            duration: TimeDelta::from_secs(400),
            price: rideshare_types::Money::new(7.0),
            valuation: rideshare_types::Money::new(8.0),
            service_cost: rideshare_types::Money::new(2.0),
        }
    }

    #[test]
    #[should_panic(expected = "driver driver#2 (shard 1) can interact with task task#0 (shard 0)")]
    fn validator_names_the_announced_driver() {
        // Shard 0 holds drivers 0 and 1, so driver 2 is the first of shard
        // 1's — and the only one, close to the cut, near shard 0's order.
        let cut = -8.6;
        let (west, near_east) = (GeoPoint::new(41.15, -8.7), GeoPoint::new(41.15, -8.595));
        let stream = [
            StreamEvent::DriverOnline(driver_at(0, west)),
            StreamEvent::DriverOnline(driver_at(1, west)),
            StreamEvent::DriverOnline(driver_at(2, near_east)),
            StreamEvent::TaskPublished(task_at(0, GeoPoint::new(41.15, -8.605), 100)),
        ];
        let _ = replay_sharded(
            SpeedModel::urban(),
            stream,
            ShardPolicySpec::MaxMargin,
            &Meridian(cut),
            ShardOptions::new(2).validate(true),
            &mut CollectingSink::new(),
        );
    }

    #[test]
    fn router_emits_the_exact_delivery_sequence() {
        use ShardMsg::{Close, Event, Open};
        use StreamEvent::{DriverOnline, EpochTick, TaskPublished};
        use Target::{All, One};
        let at = Timestamp::from_secs;

        // Region 0 is the west box (shard 0), region 1 the east (shard 1).
        let boxes = two_boxes();
        let (west, east) = (boxes[0].center(), boxes[1].center());
        let partitioner = BoxPartitioner::new(boxes);
        let drivers = [driver_at(0, east), driver_at(1, west), driver_at(2, east)];
        let tasks = [
            task_at(0, west, 100),
            task_at(1, east, 100),
            task_at(2, east, 130),
            task_at(3, west, 400),
            task_at(4, east, 700),
        ];
        let stream = [
            DriverOnline(drivers[0]),
            DriverOnline(drivers[1]),
            DriverOnline(drivers[2]),
            TaskPublished(tasks[0]),
            TaskPublished(tasks[1]),
            EpochTick(at(100)), // does not pass any hold end: a plain tick
            TaskPublished(tasks[2]),
            EpochTick(at(300)), // passes both policies' hold end: closes
            TaskPublished(tasks[3]),
            TaskPublished(tasks[4]),
        ];
        let routed = |spec: ShardPolicySpec| {
            let mut sink = CollectingSink::new();
            let mut merger = Merger::new(2, &mut sink);
            let mut log = Vec::new();
            let _ = route(
                stream,
                spec.window(),
                2,
                &partitioner,
                &mut log,
                &mut merger,
            );
            (log, Vec::from(merger.boundaries))
        };
        // Drivers reach their shard as announced, global ids and all.
        let online = |d: usize| Event(DriverOnline(drivers[d]));
        let announced = [
            (One(1), online(0)),
            (One(0), online(1)),
            (One(1), online(2)),
        ];
        let task = |t: usize| Event(TaskPublished(tasks[t]));
        let plain_tick = (All, Event(EpochTick(at(100))));

        // Instant: every publish timestamp is a group, closed one second
        // past it by the next order, or by a tick that passes it.
        let (log, boundaries) = routed(ShardPolicySpec::MaxMargin);
        let mut expected = announced.to_vec();
        expected.extend([
            (One(0), task(0)),
            (One(1), task(1)),
            plain_tick,
            (All, Close(at(101))),
            (One(1), task(2)),
            (All, Close(at(300))),
            (One(0), task(3)),
            (All, Close(at(401))),
            (One(1), task(4)),
        ]);
        assert_eq!(log, expected);
        assert_eq!(boundaries, [at(100), at(130), at(400), at(700)]);

        // Batched, W = 3 min: windows open at the *global* first publish
        // (shard 1 is told about the window shard 0's order opened) and
        // close at `end + 1s` before the first order past the end.
        let (log, boundaries) = routed(ShardPolicySpec::Batched {
            window: TimeDelta::from_mins(3),
            matcher: MatcherKind::Greedy,
        });
        let mut expected = announced.to_vec();
        expected.extend([
            (All, Open(at(100))),
            (One(0), task(0)),
            (One(1), task(1)),
            plain_tick,
            (One(1), task(2)),
            (All, Close(at(300))),
            (All, Open(at(400))),
            (One(0), task(3)),
            (All, Close(at(581))),
            (All, Open(at(700))),
            (One(1), task(4)),
        ]);
        assert_eq!(log, expected);
        // 280 = 100 + W closed by the tick; 580 by task 4; 880 is the hold
        // still open at end of stream, noted for the shards' `finish`.
        assert_eq!(boundaries, [at(280), at(580), at(880)]);
    }
}
