//! Instance introspection: one-glance summaries of market structure.

use core::fmt;

use crate::market::{Market, Objective};

/// Structural statistics of a market instance.
///
/// # Examples
///
/// ```
/// use rideshare_core::{Market, MarketBuildOptions, MarketSummary};
/// use rideshare_trace::{DriverModel, TraceConfig};
///
/// let trace = TraceConfig::porto()
///     .with_seed(2)
///     .with_task_count(100)
///     .with_driver_count(10, DriverModel::Hitchhiking)
///     .generate();
/// let market = Market::from_trace(&trace, &MarketBuildOptions::default());
/// let s = MarketSummary::of(&market);
/// assert_eq!(s.drivers, 10);
/// assert_eq!(s.tasks, 100);
/// println!("{s}");
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MarketSummary {
    /// Number of drivers `N`.
    pub drivers: usize,
    /// Number of tasks `M`.
    pub tasks: usize,
    /// Chain arcs some driver can use (both tasks in one driver's map).
    pub chain_arcs: usize,
    /// Task-map diameter `D` (Theorem 1's constant): the most tasks one
    /// driver can chain.
    pub diameter: usize,
    /// Average number of tasks feasible per driver (task-map node count).
    pub avg_feasible_tasks: f64,
    /// Fraction of (driver, task) pairs that are feasible.
    pub feasible_density: f64,
    /// Mean profit margin `pₘ − ĉₘ` over tasks.
    pub mean_margin: f64,
    /// Total posted price volume `Σ pₘ`.
    pub total_price_volume: f64,
    /// The worst-case approximation guarantee `1/(D+1)` of Alg. 1.
    pub greedy_guarantee: f64,
}

impl MarketSummary {
    /// Computes the summary from the market's task maps, which it builds
    /// if no solver has yet.
    #[must_use]
    pub fn of(market: &Market) -> Self {
        let n = market.num_drivers();
        let m = market.num_tasks();
        let maps = market.task_maps().iter();
        let feasible_total: usize = maps.map(|map| map.tasks().len()).sum();
        let diameter = market.chain_diameter();
        let mean_margin = if m == 0 {
            0.0
        } else {
            market
                .tasks()
                .iter()
                .map(|t| Objective::Profit.margin(t).as_f64())
                .sum::<f64>()
                / m as f64
        };
        Self {
            drivers: n,
            tasks: m,
            chain_arcs: market.chain_arc_count(),
            diameter,
            avg_feasible_tasks: if n == 0 {
                0.0
            } else {
                feasible_total as f64 / n as f64
            },
            feasible_density: if n * m == 0 {
                0.0
            } else {
                feasible_total as f64 / (n * m) as f64
            },
            mean_margin,
            total_price_volume: market.tasks().iter().map(|t| t.price.as_f64()).sum(),
            greedy_guarantee: 1.0 / (diameter as f64 + 1.0),
        }
    }
}

impl fmt::Display for MarketSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "market: {} drivers × {} tasks, {} chain arcs, diameter D = {}",
            self.drivers, self.tasks, self.chain_arcs, self.diameter
        )?;
        writeln!(
            f,
            "feasibility: {:.1} tasks/driver ({:.1}% of pairs)",
            self.avg_feasible_tasks,
            self.feasible_density * 100.0
        )?;
        write!(
            f,
            "economics: mean margin {:.2}, price volume {:.2}; GA guarantee 1/(D+1) = {:.4}",
            self.mean_margin, self.total_price_volume, self.greedy_guarantee
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(55)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    #[test]
    fn summary_fields_consistent() {
        let m = market(120, 15);
        let s = MarketSummary::of(&m);
        assert_eq!(s.drivers, 15);
        assert_eq!(s.tasks, 120);
        assert_eq!(s.chain_arcs, m.chain_arc_count());
        assert_eq!(s.diameter, m.chain_diameter());
        assert!((s.greedy_guarantee - 1.0 / (s.diameter as f64 + 1.0)).abs() < 1e-12);
        assert!(s.feasible_density <= 1.0);
        assert!(
            (s.avg_feasible_tasks - s.feasible_density * 120.0).abs() < 1e-9,
            "density/average identity"
        );
        assert!(s.mean_margin > 0.0, "porto fares beat fuel costs");
        assert!(s.total_price_volume > 0.0);
    }

    #[test]
    fn empty_market_summary() {
        let m = Market::new(vec![], vec![], rideshare_geo::SpeedModel::urban(), None);
        let s = MarketSummary::of(&m);
        assert_eq!(s.drivers, 0);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.avg_feasible_tasks, 0.0);
        assert_eq!(s.feasible_density, 0.0);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.greedy_guarantee, 1.0);
    }

    #[test]
    fn display_is_three_lines() {
        let s = MarketSummary::of(&market(30, 5));
        let text = s.to_string();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("diameter"));
        assert!(text.contains("GA guarantee"));
    }
}
