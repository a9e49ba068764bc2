//! **rideshare** — an optimization framework for online ride-sharing
//! markets.
//!
//! A production-quality Rust reproduction of *"An Optimization Framework
//! for Online Ride-sharing Markets"* (Jia, Xu & Liu — ICDCS 2017,
//! arXiv:1612.03797). The facade re-exports every subsystem crate of the
//! workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `rideshare-types` | ids, time, money newtypes |
//! | [`geo`] | `rideshare-geo` | coordinates, distances, speed model, grid index, Porto city model |
//! | [`trace`] | `rideshare-trace` | Porto-calibrated synthetic trace generation + statistics |
//! | [`lp`] | `rideshare-lp` | the packing-LP simplex behind column generation, branch-and-price and batch-opt |
//! | [`core`] | `rideshare-core` | the market model, Eq. 15 pricing with surge multipliers (SM), task maps, GA, `Z_f*`, exact `Z*`, Fig. 2 |
//! | [`online`] | `rideshare-online` | the dispatch engine and its front-ends (`replay_market`, `replay_stream`, `replay_sharded`), Nearest & maxMargin dispatch, batched matchers, the `serve` daemon |
//! | [`metrics`] | `rideshare-metrics` | evaluation metrics and table rendering |
//! | [`tsdb`] | `rideshare-tsdb` | embedded telemetry time-series store: lossless chunks, label index, range queries (`rideshare query`) |
//! | [`bench`](mod@bench) | `rideshare-bench` | scenario catalog, parallel sharded sweep engine, multi-process sweep orchestrator (`rideshare orchestrate`), figure harness |
//!
//! # Quickstart
//!
//! ```
//! use rideshare::prelude::*;
//!
//! // One synthetic day of the Porto market: 200 orders, 25 commuters.
//! let trace = TraceConfig::porto()
//!     .with_seed(42)
//!     .with_task_count(200)
//!     .with_driver_count(25, DriverModel::Hitchhiking)
//!     .generate();
//! let market = Market::from_trace(&trace, &MarketBuildOptions::default());
//!
//! // Offline: the 1/(D+1)-approximate greedy (Alg. 1).
//! let offline = solve_greedy(&market, Objective::Profit);
//!
//! // Online: replay the order stream through maxMargin (Alg. 4).
//! let online = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
//!
//! // Offline information advantage: greedy should not lose to the
//! // online heuristic by much on any seed, and both must be feasible.
//! offline.assignment.validate(&market).unwrap();
//! validate_online(&market, &online.assignment).unwrap();
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

pub use rideshare_bench as bench;
pub use rideshare_core as core;
pub use rideshare_geo as geo;
pub use rideshare_lp as lp;
pub use rideshare_metrics as metrics;
pub use rideshare_online as online;
pub use rideshare_trace as trace;
pub use rideshare_tsdb as tsdb;
pub use rideshare_types as types;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use rideshare_bench::{
        orchestrate, run_sweep, run_worker, OrchestrateOptions, OrchestrateOutcome, PolicySpec,
        Scenario, SweepOptions, SweepReport, WorkerOptions, WorkerOutcome,
    };
    pub use rideshare_core::{
        disjoint_components, lp_upper_bound, performance_ratio, sharded_upper_bound, solve_exact,
        solve_greedy, solve_sharded, Assignment, Driver, DriverRoute, DriverView, Market,
        MarketBuildOptions, Objective, StreamPricer, SurgeConfig, SurgeEngine, Task,
        UpperBoundOptions,
    };
    pub use rideshare_geo::{BoundingBox, GeoPoint, SpeedModel};
    pub use rideshare_metrics::{
        render_series, render_table, MarketMetrics, MetricsJournal, Series, StreamMetrics,
    };
    pub use rideshare_online::{
        market_events, priced_events, replay_market, replay_market_by_value, replay_sharded,
        replay_stream, validate_online, validate_online_result, BoxPartitioner, CollectingSink,
        FileSource, IngestError, IngestFormat, IngestSource, InstantRule, IterSource, MatcherKind,
        RegionPartitioner, ServeConfig, ServeDaemon, ServeOutcome, ServeReport, ServeStop,
        ShardOptions, ShardPolicySpec, SimulationResult, StreamEngine, StreamEvent, StreamOptions,
        StreamPolicy, StreamSink, StreamSummary, TcpSource,
    };
    pub use rideshare_trace::{DriverModel, Trace, TraceConfig, TraceStream, TripRecord};
    pub use rideshare_tsdb::{
        run_query, Agg, LabelFilter, RangeQuery, RunLabels, TsdbRecorder, TsdbStore,
    };
    pub use rideshare_types::{
        ConfigError, DriverId, Money, OrchestrateError, TaskId, TimeDelta, Timestamp,
    };
}
