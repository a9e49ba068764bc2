//! Evaluation metrics and experiment output formatting (§VI).
//!
//! Computes the quantities the paper's evaluation plots:
//!
//! - the **performance ratio** of an algorithm against the LP upper bound
//!   `Z_f*` (or exact `Z*` at small scale) — Fig. 5,
//! - **total market revenue** — Fig. 6,
//! - **rate of served tasks** — Fig. 7,
//! - **average revenue per worker** — Fig. 8,
//! - **average tasks per worker** — Fig. 9,
//!
//! plus plain-text table/series rendering so experiment binaries can print
//! paper-comparable rows without a plotting dependency.
//!
//! # Examples
//!
//! ```
//! use rideshare_core::{solve_greedy, Market, MarketBuildOptions, Objective};
//! use rideshare_metrics::MarketMetrics;
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let trace = TraceConfig::porto()
//!     .with_seed(1)
//!     .with_task_count(100)
//!     .with_driver_count(10, DriverModel::Hitchhiking)
//!     .generate();
//! let market = Market::from_trace(&trace, &MarketBuildOptions::default());
//! let ga = solve_greedy(&market, Objective::Profit);
//! let m = MarketMetrics::of(&market, &ga.assignment);
//! assert!(m.served_rate <= 1.0);
//! assert!(m.avg_tasks_per_worker >= 0.0);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod journal;
mod market_metrics;
mod stream_stats;
mod table;

pub use journal::MetricsJournal;
pub use market_metrics::MarketMetrics;
pub use stream_stats::{
    fixed_to_f64, SnapshotError, StreamBucket, StreamMetrics, FIXED_POINT_SCALE, SNAPSHOT_SCHEMA,
};
pub use table::{render_pivot, render_series, render_table, Series};
