//! The surge-multiplier engine.
//!
//! Implements the mechanism the paper describes in §III-A: "the price rate,
//! also named as the Surge Multiplier (SM), increases when demand is higher
//! than supply for a given geographic area". The engine divides the service
//! area into grid cells (shared with [`rideshare_geo::GridIndex`]) and maps
//! each cell's demand/supply ratio through a clamped power curve — the shape
//! Chen & Sheldon measured on the Uber platform: flat at 1× in balance,
//! rising sub-linearly with excess demand, capped by policy.

use rideshare_geo::CellId;
use std::collections::BTreeMap;

/// Parameters of the surge curve `α = clamp((D / max(S, 1))^exponent, 1, cap)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SurgeConfig {
    /// Exponent of the demand/supply ratio (0 disables surge entirely).
    pub exponent: f64,
    /// Upper cap on the multiplier (Uber historically capped surges around
    /// 3–5× outside emergencies).
    pub cap: f64,
}

impl SurgeConfig {
    /// Uber-like default: square-root response capped at 3×.
    #[must_use]
    pub fn uber_like() -> Self {
        Self {
            exponent: 0.5,
            cap: 3.0,
        }
    }

    /// Evaluates the curve for explicit counts:
    /// `clamp((demand / max(supply, 1))^exponent, 1, cap)`.
    ///
    /// This is the pure form of [`SurgeEngine::multiplier`], usable without
    /// engine state (e.g. for publish-time repricing from a rolling
    /// window).
    #[must_use]
    pub fn multiplier_for(&self, demand: u32, supply: u32) -> f64 {
        let d = f64::from(demand);
        if d == 0.0 || self.exponent == 0.0 {
            return 1.0;
        }
        let s = f64::from(supply.max(1));
        (d / s).powf(self.exponent).clamp(1.0, self.cap)
    }

    /// Disables surge: every multiplier is exactly 1.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            exponent: 0.0,
            cap: 1.0,
        }
    }
}

impl Default for SurgeConfig {
    fn default() -> Self {
        Self::uber_like()
    }
}

/// Tracks per-cell open demand and idle supply and produces multipliers.
///
/// The pricer calls [`SurgeEngine::add_demand`] for each task published in
/// a cell and [`SurgeEngine::add_supply`] for each driver idling in one.
///
/// # Examples
///
/// ```
/// use rideshare_geo::CellId;
/// use rideshare_pricing::{SurgeConfig, SurgeEngine};
///
/// let mut surge = SurgeEngine::new(SurgeConfig::uber_like());
/// let cell = CellId::new(3, 4);
/// assert_eq!(surge.multiplier(cell), 1.0); // balanced by default
/// for _ in 0..9 {
///     surge.add_demand(cell);
/// }
/// surge.add_supply(cell);
/// // ratio 9: sqrt(9) = 3, at the cap.
/// assert_eq!(surge.multiplier(cell), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct SurgeEngine {
    config: SurgeConfig,
    demand: BTreeMap<CellId, u32>,
    supply: BTreeMap<CellId, u32>,
}

impl SurgeEngine {
    /// Creates an engine with the given curve.
    ///
    /// # Panics
    ///
    /// Panics if `exponent < 0` or `cap < 1`.
    #[must_use]
    pub fn new(config: SurgeConfig) -> Self {
        assert!(config.exponent >= 0.0, "negative surge exponent");
        assert!(config.cap >= 1.0, "surge cap below 1");
        Self {
            config,
            demand: BTreeMap::new(),
            supply: BTreeMap::new(),
        }
    }

    /// The configured curve.
    #[must_use]
    pub fn config(&self) -> SurgeConfig {
        self.config
    }

    /// Registers one open task in `cell`.
    pub fn add_demand(&mut self, cell: CellId) {
        *self.demand.entry(cell).or_insert(0) += 1;
    }

    /// Registers one idle driver in `cell`.
    pub fn add_supply(&mut self, cell: CellId) {
        *self.supply.entry(cell).or_insert(0) += 1;
    }

    /// Current open demand in `cell`.
    #[must_use]
    pub fn demand(&self, cell: CellId) -> u32 {
        self.demand.get(&cell).copied().unwrap_or(0)
    }

    /// Current idle supply in `cell`.
    #[must_use]
    pub fn supply(&self, cell: CellId) -> u32 {
        self.supply.get(&cell).copied().unwrap_or(0)
    }

    /// The surge multiplier for `cell`:
    /// `clamp((D / max(S, 1))^exponent, 1, cap)`.
    ///
    /// A cell with no demand is never surged; supply is floored at one
    /// virtual driver so empty cells do not divide by zero.
    #[must_use]
    pub fn multiplier(&self, cell: CellId) -> f64 {
        self.config
            .multiplier_for(self.demand(cell), self.supply(cell))
    }

    /// Clears all counts (e.g. at a time-bucket boundary).
    pub fn reset(&mut self) {
        self.demand.clear();
        self.supply.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellId {
        CellId::new(1, 1)
    }

    #[test]
    fn balanced_market_no_surge() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        e.add_demand(cell());
        e.add_supply(cell());
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    fn excess_supply_never_discounts() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        e.add_demand(cell());
        for _ in 0..10 {
            e.add_supply(cell());
        }
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    fn surge_grows_with_imbalance_and_caps() {
        let mut e = SurgeEngine::new(SurgeConfig {
            exponent: 0.5,
            cap: 3.0,
        });
        e.add_supply(cell());
        e.add_demand(cell());
        let mut last = e.multiplier(cell());
        for _ in 0..3 {
            e.add_demand(cell());
            let m = e.multiplier(cell());
            assert!(m >= last, "multiplier must be monotone in demand");
            last = m;
        }
        // D=4, S=1 → sqrt(4) = 2.
        assert!((last - 2.0).abs() < 1e-9);
        for _ in 0..100 {
            e.add_demand(cell());
        }
        assert_eq!(e.multiplier(cell()), 3.0, "cap binds");
    }

    #[test]
    fn empty_cell_is_balanced() {
        let e = SurgeEngine::new(SurgeConfig::uber_like());
        assert_eq!(e.multiplier(cell()), 1.0);
        assert_eq!(e.demand(cell()), 0);
        assert_eq!(e.supply(cell()), 0);
    }

    #[test]
    fn disabled_config_always_one() {
        let mut e = SurgeEngine::new(SurgeConfig::disabled());
        for _ in 0..50 {
            e.add_demand(cell());
        }
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    fn cells_are_independent() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        let hot = CellId::new(0, 0);
        let cold = CellId::new(5, 5);
        for _ in 0..9 {
            e.add_demand(hot);
        }
        assert!(e.multiplier(hot) > 1.0);
        assert_eq!(e.multiplier(cold), 1.0);
    }

    #[test]
    fn reset_clears() {
        let mut e = SurgeEngine::new(SurgeConfig::uber_like());
        for _ in 0..9 {
            e.add_demand(cell());
        }
        e.reset();
        assert_eq!(e.multiplier(cell()), 1.0);
    }

    #[test]
    #[should_panic(expected = "surge cap below 1")]
    fn rejects_sub_unit_cap() {
        let _ = SurgeEngine::new(SurgeConfig {
            exponent: 1.0,
            cap: 0.5,
        });
    }
}
