//! The market's records, a synthetic Porto-calibrated trace of them, and
//! the formats they travel in.
//!
//! §III-A of the paper defines a driver `n` (`sₙ, dₙ, t⁻ₙ, t⁺ₙ`) and a
//! task `m` (`s̄ₘ, d̄ₘ, t̄ₘ, t̄⁻ₘ, t̄⁺ₘ, pₘ, bₘ`) once; so does the
//! workspace, here — [`Driver`] and [`Task`] — because this is the lowest
//! layer that has to name both: the generator emits drivers, and the
//! event [`wire`] formats (binary frames, JSONL, CSV) and the compact
//! [`rtb`] trace carry drivers and *priced* tasks as they are. Everything
//! above (`rideshare-core`'s market and solvers, `rideshare-online`'s
//! engines) uses these same two types, re-exported as
//! `rideshare_core::{Driver, Task}`; a raw, unpriced order is a
//! [`TripRecord`], which `rideshare-core`'s pricer turns into a [`Task`].
//!
//! # The synthetic trace
//!
//! The paper's evaluation (§VI-A) replays one year of trajectories of the
//! 442 taxis of Porto, Portugal (the ECML/PKDD-15 Kaggle dataset). That
//! dataset cannot be redistributed here, so this crate **synthesises a
//! statistically equivalent trace**:
//!
//! - trip *travel distance* and *travel time* follow truncated power-law
//!   (Pareto) marginals — the paper's own Figs. 3–4 report exactly this
//!   shape for the real trace,
//! - pickups cluster around Porto's demand hotspots (downtown, Campanhã
//!   station, the airport) with Gaussian dispersion,
//! - task arrival times follow the double-peaked daily demand profile of
//!   urban taxi markets,
//! - drivers come in the paper's two working models: **home-work-home**
//!   (source = destination, the full-time Uber model) and **hitchhiking**
//!   (random source/destination, the Waze Rider commuter model), generated
//!   by the Monte-Carlo method of §VI-A.
//!
//! Everything is deterministic given a seed, so experiments are exactly
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use rideshare_trace::{DriverModel, TraceConfig};
//!
//! let trace = TraceConfig::porto()
//!     .with_seed(7)
//!     .with_task_count(100)
//!     .with_driver_count(25, DriverModel::Hitchhiking)
//!     .generate();
//! assert_eq!(trace.trips.len(), 100);
//! assert_eq!(trace.drivers.len(), 25);
//! // Trips are sorted by publish time, ready for online replay.
//! assert!(trace
//!     .trips
//!     .windows(2)
//!     .all(|w| w[0].publish_time <= w[1].publish_time));
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod csv;
mod driver;
mod generator;
mod multi_day;
pub mod rtb;
mod sampler;
pub mod stats;
mod stream;
mod task;
mod trip;
pub mod wire;

pub use csv::{drivers_from_csv, drivers_to_csv, trips_from_csv, trips_to_csv};
pub use driver::{Driver, DriverModel};
pub use generator::{Trace, TraceConfig};
pub use multi_day::{generate_days, MultiDayTrace};
pub use sampler::{sample_categorical, LogNormal, TruncatedPareto};
pub use stream::TraceStream;
pub use task::Task;
pub use trip::TripRecord;
