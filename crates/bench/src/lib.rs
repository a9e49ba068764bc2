//! Shared experiment harness for the paper's evaluation (§VI).
//!
//! Every reported number comes from one code path: a market is a
//! [`Scenario`] (or, for Figs. 6–9 and §VI-B, one generated sweep
//! point), an algorithm is a [`PolicySpec`], and [`PolicySpec::assign`]
//! is the one runner — [`run_sweep`] (behind `rideshare sweep`, the
//! orchestrator, the goldens, the performance ledger and
//! [`figures::fig5`]) projects its [`rideshare_core::Assignment`] to
//! profit, served count and ratio against `Z_f*`; Figs. 6–9 and §VI-B
//! read market metrics off the same assignment. [`figures`] holds one
//! function per figure, which the `rideshare` CLI hands its parsed flags
//! and its standard output.
//!
//! ```
//! use rideshare_bench::{PolicySpec, Scenario};
//! use rideshare_core::Objective;
//!
//! // A catalog preset: 80 Porto orders, 10 commuters.
//! let market = Scenario::by_name("tiny-rides").unwrap().build_market();
//! let profit = |p: PolicySpec| {
//!     let assignment = p.assign(&market, None, 1);
//!     assignment.objective_value(&market, Objective::Profit).as_f64()
//! };
//! // The offline greedy sees the whole day; no online policy beats it.
//! let greedy = profit(PolicySpec::Greedy);
//! assert!(profit(PolicySpec::MaxMargin) <= greedy + 1e-9);
//! assert!(profit(PolicySpec::Nearest) <= greedy + 1e-9);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].
#![expect(
    clippy::disallowed_methods,
    reason = "the measurement harness: sweep cells and the orchestrator's worker polls are timed and paced on the wall clock, and no dispatch decision reads it"
)]

pub mod distrib;
pub mod figures;
pub mod scenario;
pub mod sweep;

/// The wall clock of the engine's stage probe, which never reads one
/// itself.
#[cfg(feature = "stage-probe")]
pub mod probe {
    use std::sync::OnceLock;
    use std::time::Instant;

    use rideshare_online::probe::StageClock;

    /// Monotonic nanoseconds since the clock's first read; the CLI
    /// installs it with `rideshare_online::probe::install_clock`.
    pub struct WallClock;

    impl StageClock for WallClock {
        fn now_ns(&self) -> u64 {
            static ORIGIN: OnceLock<Instant> = OnceLock::new();
            let elapsed = ORIGIN.get_or_init(Instant::now).elapsed();
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
        }
    }
}

pub use distrib::{
    orchestrate, run_worker, OrchestrateOptions, OrchestrateOutcome, WorkerOptions, WorkerOutcome,
};
pub use scenario::{Scenario, ScenarioKind};
pub use sweep::{run_sweep, PolicySpec, SweepCell, SweepOptions, SweepReport};

use rideshare_core::{Market, MarketBuildOptions};
use rideshare_trace::{DriverModel, TraceConfig};

/// Builds the evaluation market for one sweep point of Figs. 6–9 and
/// §VI-B.
#[must_use]
pub(crate) fn build_market(seed: u64, tasks: usize, drivers: usize, model: DriverModel) -> Market {
    let trace = TraceConfig::porto()
        .with_seed(seed)
        .with_task_count(tasks)
        .with_driver_count(drivers, model)
        .generate();
    Market::from_trace(&trace, &MarketBuildOptions::default())
}
