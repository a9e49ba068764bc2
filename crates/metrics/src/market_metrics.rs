//! Per-run market metrics (Figs. 6–9).

use rideshare_core::{Assignment, Market, Objective};

use crate::float::ratio;

/// The market-level quantities of §VI-C, computed from one assignment.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MarketMetrics {
    /// Number of drivers in the market (`N`).
    pub drivers: usize,
    /// Number of tasks in the market (`M`).
    pub tasks: usize,
    /// Tasks actually served.
    pub served: usize,
    /// Total revenue paid to drivers, `Σ xₙ,ₘ pₘ` (Fig. 6).
    pub total_revenue: f64,
    /// Drivers' total profit, Eq. 4.
    pub total_profit: f64,
    /// Fraction of tasks served (Fig. 7).
    pub served_rate: f64,
    /// Average revenue per driver (Fig. 8).
    pub avg_revenue_per_worker: f64,
    /// Average tasks per driver (Fig. 9).
    pub avg_tasks_per_worker: f64,
}

impl MarketMetrics {
    /// Computes the metrics of `assignment` on `market`.
    #[must_use]
    pub fn of(market: &Market, assignment: &Assignment) -> Self {
        let drivers = market.num_drivers();
        let tasks = market.num_tasks();
        let served = assignment.served_count();
        let total_revenue = assignment.total_revenue(market).as_f64();
        let total_profit = assignment
            .objective_value(market, Objective::Profit)
            .as_f64();
        let served_rate = if tasks == 0 {
            0.0
        } else {
            ratio(served as f64, tasks as f64)
        };
        let per_worker = |x: f64| {
            if drivers == 0 {
                0.0
            } else {
                ratio(x, drivers as f64)
            }
        };
        Self {
            drivers,
            tasks,
            served,
            total_revenue,
            total_profit,
            served_rate,
            avg_revenue_per_worker: per_worker(total_revenue),
            avg_tasks_per_worker: per_worker(served as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::{solve_greedy, MarketBuildOptions};
    use rideshare_trace::{DriverModel, TraceConfig};

    fn run(drivers: usize) -> (Market, Assignment) {
        let trace = TraceConfig::porto()
            .with_seed(51)
            .with_task_count(150)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let a = solve_greedy(&market, Objective::Profit).assignment;
        (market, a)
    }

    #[test]
    fn consistency_identities() {
        let (market, a) = run(20);
        let m = MarketMetrics::of(&market, &a);
        assert_eq!(m.drivers, 20);
        assert_eq!(m.tasks, 150);
        assert!((m.served_rate - m.served as f64 / 150.0).abs() < 1e-12);
        assert!((m.avg_revenue_per_worker - m.total_revenue / 20.0).abs() < 1e-9);
        assert!((m.avg_tasks_per_worker - m.served as f64 / 20.0).abs() < 1e-9);
        assert!(m.total_revenue >= m.total_profit, "profit nets out costs");
    }

    #[test]
    fn empty_assignment_zeroes() {
        let (market, _) = run(5);
        let m = MarketMetrics::of(&market, &Assignment::empty(5));
        assert_eq!(m.served, 0);
        assert_eq!(m.total_revenue, 0.0);
        assert_eq!(m.served_rate, 0.0);
        assert_eq!(m.avg_tasks_per_worker, 0.0);
    }

    #[test]
    fn market_density_trends() {
        // The §VI-C insight: more drivers → more revenue and service, but
        // less revenue per driver.
        let (small_market, small_a) = run(10);
        let (big_market, big_a) = run(120);
        let small = MarketMetrics::of(&small_market, &small_a);
        let big = MarketMetrics::of(&big_market, &big_a);
        assert!(big.total_revenue > small.total_revenue);
        assert!(big.served_rate > small.served_rate);
        assert!(big.avg_revenue_per_worker < small.avg_revenue_per_worker);
        assert!(big.avg_tasks_per_worker < small.avg_tasks_per_worker);
    }
}
