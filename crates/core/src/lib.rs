//! The paper's primary contribution: a generalized optimization framework
//! for two-sided ride-sharing / delivery markets.
//!
//! This crate implements §III–§IV of *"An Optimization Framework for Online
//! Ride-sharing Markets"* (ICDCS 2017):
//!
//! - [`Market`]: the two-sided market configuration of §III-A — `N` drivers
//!   with daily travel plans, `M` tasks with deadlines, prices `pₘ`, and
//!   valuations `bₘ` ([`Driver`] and [`Task`], the records
//!   `rideshare-trace` defines and its wire formats carry, re-exported
//!   here) — plus the **task maps** of §III-B (Eqs. 1–3): a
//!   driver-independent pair test for chain arcs and per-driver
//!   reachability views ([`DriverView`]); the solvers' compact task maps
//!   are cut from an arena of only the arcs some driver can use,
//! - [`StreamPricer`]: the one pricing rule, Eq. 15's surge fare
//!   (§VI-A) with its global constants, surge multipliers from a
//!   [`SurgeConfig`] curve over per-cell demand and supply
//!   ([`SurgeEngine`]), and the customers' valuations `bₘ ≥ pₘ`,
//! - [`Assignment`]: a feasible solution (one node-disjoint task list per
//!   driver), with validation of the flow constraints (5a–5f) and
//!   individual rationality (5b), and evaluation of both objectives —
//!   drivers' profit `Z` (Eq. 4) and social welfare `Ẑ` (Eq. 6) via
//!   [`Objective`],
//! - [`solve_greedy`]: the offline greedy **GA** (Alg. 1) with its tight
//!   `1/(D+1)` approximation guarantee, implemented with lazy best-path
//!   re-evaluation,
//! - [`lp_upper_bound`]: the LP-relaxation bound `Z_f*` (§III-E) computed
//!   by column generation over the path formulation (Eq. 9–10), with an
//!   exact longest-path pricing oracle,
//! - [`solve_exact`]: branch-and-price over the same column generation —
//!   the CPLEX stand-in for small-scale exact optima `Z*` (§VI-B),
//! - [`tightness`]: a generator for the Fig. 2 adversarial family showing
//!   the `1/(D+1)` ratio is tight.
//!
//! # Examples
//!
//! ```
//! use rideshare_core::{Market, Objective, solve_greedy};
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let trace = TraceConfig::porto()
//!     .with_seed(1)
//!     .with_task_count(120)
//!     .with_driver_count(15, DriverModel::Hitchhiking)
//!     .generate();
//! let market = Market::from_trace(&trace, &Default::default());
//! let outcome = solve_greedy(&market, Objective::Profit);
//! let assignment = &outcome.assignment;
//! assert!(assignment.validate(&market).is_ok());
//! let profit = assignment.objective_value(&market, Objective::Profit);
//! assert!(profit.as_f64() >= 0.0);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod assignment;
mod exact;
mod greedy;
mod market;
pub mod partition;
mod streaming;
mod summary;
pub mod tightness;
mod upper_bound;
mod view;

pub use assignment::{Assignment, DriverRoute};
pub use exact::{solve_exact, ExactOutcome};
pub use greedy::{solve_greedy, GreedyOutcome};
pub use market::{Market, MarketBuildOptions, Objective};
// The market's two records, defined once in `rideshare-trace` (the lowest
// layer that names them: it generates drivers and owns the wire format of
// both) and re-exported under the names every solver uses.
pub use rideshare_trace::{Driver, Task};

pub use partition::{
    components_upper_bound, disjoint_components, disjoint_components_sharded, sharded_upper_bound,
    solve_components, solve_sharded, SubMarket,
};
pub use streaming::{StreamPricer, SurgeConfig, SurgeEngine};
pub use summary::MarketSummary;
pub use upper_bound::{lp_upper_bound, performance_ratio, UpperBoundOptions, UpperBoundResult};
pub use view::{BestPath, DriverView};
