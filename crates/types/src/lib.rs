//! Foundational newtypes for the ride-sharing market framework.
//!
//! This crate defines the identifier, time, and money primitives shared by
//! every other crate in the workspace. It mirrors the notation of the paper
//! *"An Optimization Framework for Online Ride-sharing Markets"* (ICDCS 2017):
//!
//! | Paper | Type here |
//! |---|---|
//! | driver `n ∈ [N]` | [`DriverId`] |
//! | task `m ∈ [M]` | [`TaskId`] |
//! | task-map node in `[M̂] = {−1, 0} ∪ [M]` | [`NodeId`] |
//! | times `t⁻ₙ, t⁺ₙ, t̄ₘ, t̄⁻ₘ, t̄⁺ₘ` | [`Timestamp`] |
//! | durations / travel times `l` | [`TimeDelta`] |
//! | prices, costs, WTP `pₘ, c, bₘ` | [`Money`] |
//!
//! It is also home to [`json`], the one JSON parser, typed reader and
//! string escaper every text format in the workspace goes through, and
//! to [`widen_u64`] / [`widen_usize`], the `as`-free widenings the binary
//! codecs size and offset with.
//!
//! # Examples
//!
//! ```
//! use rideshare_types::{DriverId, Timestamp, TimeDelta, Money};
//!
//! let shift_start = Timestamp::from_secs(8 * 3600);
//! let shift_end = shift_start + TimeDelta::from_mins(4 * 60);
//! assert_eq!(shift_end.as_secs(), 12 * 3600);
//!
//! let fare = Money::from_cents(1250);
//! let cost = Money::from_cents(430);
//! assert!(fare - cost > Money::ZERO);
//! let driver = DriverId::new(7);
//! assert_eq!(driver.index(), 7);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod error;
mod ids;
pub mod json;
mod money;
mod ryu;
mod time;
mod widen;

pub use error::{ConfigError, MarketError, OrchestrateError, Result};
pub use ids::{DriverId, NodeId, TaskId};
pub use money::Money;
pub use time::{TimeDelta, Timestamp};
pub use widen::{widen_u64, widen_usize};
