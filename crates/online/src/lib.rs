//! Online dispatch: the real-time side of the market (§V).
//!
//! In the online setting "the platform and the drivers do not know the time
//! or any other detailed information about a task in advance" and must
//! respond instantly when an order is published. This crate provides:
//!
//! - [`StreamEngine`] / [`replay_stream`]: **the dispatch engine** — the
//!   one loop that orders, holds, decides and counts orders, driven from
//!   an ordered [`StreamEvent`] sequence with resident state
//!   `O(active tasks + drivers)` and results flowing out through a
//!   [`StreamSink`]. It maintains each driver's projected location and
//!   availability (including the paper's early-finish rule — "if a driver
//!   finishes the task m before the estimated finish time t̄⁺ₘ, she can
//!   drive to the source of her next task"), builds the candidate set of
//!   step (a) of Algs. 3–4, and decides under a [`StreamPolicy`]: instant
//!   dispatch through a pluggable [`DispatchPolicy`], or decision-time-
//!   correct batched dispatch — orders held for a window `W`, decided
//!   jointly at the window end (or flushed early when a pickup deadline
//!   would expire), drivers departing no earlier than the decision, with
//!   matching pluggable via [`BatchMatcher`] ([`GreedyPairMatcher`] and
//!   the LP-backed [`OptimalAssignmentMatcher`]); a driver leaves when the
//!   stream clock passes her shift end (no event says so), and the fleet
//!   frees each retired driver's slot at retirement,
//! - [`priced_events`]: the feed of a generated day — every shift of a
//!   `TraceStream` announced, then each trip priced into a task as it is
//!   pulled — the one place that sequence is written; [`market_events`] is
//!   its counterpart for a materialised market,
//! - [`NearestDriver`]: Algorithm 3 — pick the candidate with the earliest
//!   arrival at the pickup, random tie-break,
//! - [`MaxMargin`]: Algorithm 4 — pick the candidate with the largest
//!   marginal value `δₙ,ₘ` (Eq. 14),
//! - [`RandomDispatch`]: a uniform-random baseline for ablations,
//! - [`replay_market`]: the one way to run a materialised market — every
//!   driver announced, every task pushed in publish order through the
//!   given [`StreamPolicy`] (instant or batched), candidates grid-pruned,
//!   the outcome collected into one [`SimulationResult`],
//! - [`replay_sharded`]: **region-sharded parallel streaming** — the
//!   online analogue of the §IV lossless decomposition: one router places
//!   events through a [`RegionPartitioner`] ([`BoxPartitioner`]) onto N
//!   shards each running an unmodified [`StreamEngine`] over drivers under
//!   their announced ids, with globally anchored batch windows and a
//!   deterministic task-id-ordered merge.
//!   The shards are worker threads, or — [`ShardOptions::validate`], the
//!   debug default — run inline under a validator for the
//!   no-cross-shard-interaction proof obligation; byte-identical to
//!   [`replay_stream`] on legal partitions (the `shard_determinism`
//!   battery pins this),
//! - [`ServeDaemon`] / [`IngestSource`]: the **long-running dispatch
//!   daemon** — live ingestion from tailed JSONL/CSV files
//!   ([`FileSource`]), a length-prefixed TCP frame stream ([`TcpSource`]),
//!   or any in-process iterator ([`IterSource`]), with periodic metrics
//!   snapshots and day-rollover hooks on the deterministic stream clock,
//!   hostile-input hardening via typed [`IngestError`]s, and
//!   graceful drain; a decoded `WireEvent` already holds the `Driver` or
//!   `Task` the engine takes, so [`wire_to_event`] relabels and copies no
//!   record; a drained daemon is byte-identical to
//!   [`replay_stream`] / [`replay_sharded`] over the same trace (the
//!   `serve_equivalence` battery pins this),
//! - [`validate_online`]: feasibility checking under *actual* (simulated)
//!   timing rather than the offline task-map deadlines, and
//!   [`validate_online_result`]: the same plus the dispatch-causality law
//!   (no departure may precede its dispatch decision),
//! - [`replay_market_by_value`]: the offline variant of maxMargin (§V-B),
//!   which hands an instant policy the tasks in descending-price order
//!   when the whole day is known in advance,
//! - `probe`, compiled only with the `stage-probe` feature: the engine's
//!   stage probe — exact counts of what candidate scans and early-flush
//!   searches read, and the nanoseconds of each stage under a
//!   caller-installed `StageClock`.
//!
//! # Examples
//!
//! ```
//! use rideshare_core::{Market, MarketBuildOptions, Objective};
//! use rideshare_online::{replay_market, MaxMargin, StreamPolicy};
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let trace = TraceConfig::porto()
//!     .with_seed(4)
//!     .with_task_count(100)
//!     .with_driver_count(12, DriverModel::Hitchhiking)
//!     .generate();
//! let market = Market::from_trace(&trace, &MarketBuildOptions::default());
//! let result = replay_market(&market, &mut StreamPolicy::Instant(&mut MaxMargin::new()));
//! assert_eq!(result.served + result.rejected, market.num_tasks());
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

/// A stage-probe hook: its tokens as written in a `stage-probe` build,
/// nothing otherwise.
#[cfg(feature = "stage-probe")]
macro_rules! probe {
    ($($hook:tt)*) => { $($hook)* };
}
#[cfg(not(feature = "stage-probe"))]
macro_rules! probe {
    ($($hook:tt)*) => {};
}

mod batch;
mod candidates;
mod ingest;
mod policy;
#[cfg(feature = "stage-probe")]
pub mod probe;
mod serve;
mod shard;
mod simulator;
mod stream;
mod validate;

pub use batch::{
    BatchMatcher, BatchRound, GreedyPairMatcher, MatcherKind, OptimalAssignmentMatcher,
};
pub use ingest::{
    event_to_line, event_to_wire, wire_to_event, EventGuard, FileSource, IngestError, IngestFormat,
    IngestSource, IterSource, TcpSource,
};
pub use policy::{Candidate, DispatchPolicy, MaxMargin, NearestDriver, RandomDispatch};
pub use serve::{
    DayPoint, ServeConfig, ServeDaemon, ServeOutcome, ServeReport, ServeStop, SnapshotPoint,
};
pub use shard::{
    replay_sharded, BoxPartitioner, PolicyHolder, RegionPartitioner, ShardOptions, ShardPolicySpec,
};
pub use simulator::{replay_market, replay_market_by_value, DispatchEvent, SimulationResult};
pub use stream::{
    market_events, priced_events, replay_stream, CollectingSink, StreamEngine, StreamEvent,
    StreamOptions, StreamPolicy, StreamSink, StreamSummary,
};
pub use validate::{validate_online, validate_online_result};
