//! Geospatial substrate for the ride-sharing market framework.
//!
//! The paper estimates travel times as "the estimated distance divided by the
//! average speed of the driver" (§V-A) over latitude/longitude tuples
//! `(u, v)`. This crate provides exactly that substrate:
//!
//! - [`GeoPoint`]: a `(latitude, longitude)` pair in degrees,
//! - great-circle distances ([`GeoPoint::haversine_km`]) and the cheaper
//!   equirectangular approximation used in hot loops,
//! - [`BoundingBox`]: rectangular city regions with uniform sampling support,
//! - [`SpeedModel`]: converts distances to travel times and travel costs
//!   (gasoline cost per km, per the paper's §VI-A cost estimate),
//! - [`GridIndex`]: the geometry of a uniform grid over a bounding box —
//!   a point's cell and a disc's lossless cell cover — behind the online
//!   dispatcher's candidate pruning and the surge engine's regions, and
//!   [`DiscBound`], the same argument applied to one point at a time,
//! - [`porto`]: the Porto, Portugal city model matching the ECML/PKDD-15
//!   trace used by the paper's evaluation.
//!
//! # Examples
//!
//! ```
//! use rideshare_geo::{GeoPoint, SpeedModel};
//!
//! let ribeira = GeoPoint::new(41.1407, -8.6110);
//! let airport = GeoPoint::new(41.2481, -8.6814);
//! let km = ribeira.haversine_km(airport);
//! assert!((11.0..14.5).contains(&km));
//!
//! let speed = SpeedModel::urban();
//! let eta = speed.travel_time(ribeira, airport);
//! assert!(eta.as_mins_f64() > 10.0);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod bbox;
mod grid;
mod point;
pub mod porto;
mod speed;

pub use bbox::BoundingBox;
pub use grid::{CellId, DiscBound, GridIndex};
pub use point::GeoPoint;
pub use speed::SpeedModel;
