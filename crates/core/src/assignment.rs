//! Assignments (solutions) and their validation against the model
//! constraints (5a)–(5h).

use rideshare_types::{DriverId, MarketError, Money, Result, TaskId};

use crate::market::{Market, Objective};
use crate::view::DriverView;

/// The true profit `r_π` of an explicit task sequence for `driver`: the
/// commute refund, minus the connection costs (source arc, chain arcs,
/// sink arc), plus the task margins — read from the market alone, so it
/// needs neither a [`DriverView`] nor a task map. The terms are
/// added in path order, the order the path oracle's DP adds them in.
///
/// Does **not** check feasibility; pair with [`Assignment::validate`].
pub(crate) fn path_profit(
    market: &Market,
    objective: Objective,
    driver: usize,
    tasks: impl IntoIterator<Item = usize>,
) -> Money {
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return Money::ZERO;
    };
    let ts = market.tasks();
    let speed = market.speed();
    let d = &market.drivers()[driver];
    let mut total = market.direct_cost(driver).as_f64()
        - speed.travel_cost(d.source, ts[first].origin).as_f64();
    total += objective.margin(&ts[first]).as_f64();
    let mut last = first;
    for next in tasks {
        total -= speed
            .travel_cost(ts[last].destination, ts[next].origin)
            .as_f64();
        total += objective.margin(&ts[next]).as_f64();
        last = next;
    }
    total -= speed
        .travel_cost(ts[last].destination, d.destination)
        .as_f64();
    Money::new(total)
}

/// One driver's task list: the tasks she serves, in service order — a
/// source→sink path in her task map.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DriverRoute {
    /// Tasks in service order; empty means the driver serves no one.
    pub tasks: Vec<TaskId>,
}

/// A full market solution: one route per driver.
///
/// This realises the decision variables of §III-C: `xₙ,ₘ = 1` iff task `m`
/// appears in driver `n`'s route, and `yₙ,ₘ,ₘ'` is the consecutive-pair
/// relation within routes.
#[derive(Clone, PartialEq, Debug)]
pub struct Assignment {
    routes: Vec<DriverRoute>,
}

impl Assignment {
    /// An empty assignment (every driver drives straight home).
    #[must_use]
    pub fn empty(num_drivers: usize) -> Self {
        Self {
            routes: vec![DriverRoute::default(); num_drivers],
        }
    }

    /// Builds from per-driver task lists.
    #[must_use]
    pub fn from_routes(routes: Vec<DriverRoute>) -> Self {
        Self { routes }
    }

    /// The route of each driver, indexed by [`DriverId::index`].
    #[must_use]
    pub fn routes(&self) -> &[DriverRoute] {
        &self.routes
    }

    /// Replaces driver `n`'s route.
    ///
    /// # Panics
    ///
    /// Panics if the driver index is out of range.
    pub fn set_route(&mut self, driver: DriverId, tasks: Vec<TaskId>) {
        self.routes[driver.index()].tasks = tasks;
    }

    /// Appends a task to driver `n`'s route (online dispatch).
    ///
    /// # Panics
    ///
    /// Panics if the driver index is out of range.
    pub fn push_task(&mut self, driver: DriverId, task: TaskId) {
        self.routes[driver.index()].tasks.push(task);
    }

    /// Number of served tasks (`Σ xₙ,ₘ`).
    #[must_use]
    pub fn served_count(&self) -> usize {
        self.routes.iter().map(|r| r.tasks.len()).sum()
    }

    /// Number of drivers serving at least one task.
    #[must_use]
    pub fn active_driver_count(&self) -> usize {
        self.routes.iter().filter(|r| !r.tasks.is_empty()).count()
    }

    /// Total objective value: Eq. 4 (`Objective::Profit`) or Eq. 6
    /// (`Objective::Welfare`) — the sum over drivers of route profits
    /// (task margins minus excess travel cost).
    #[must_use]
    pub fn objective_value(&self, market: &Market, objective: Objective) -> Money {
        (0..self.routes.len())
            .map(|n| self.profit_of(market, objective, n))
            .sum()
    }

    /// The profit of a single driver's route.
    ///
    /// # Panics
    ///
    /// Panics if the driver index is out of range.
    #[must_use]
    pub fn route_profit(&self, market: &Market, objective: Objective, driver: DriverId) -> Money {
        self.profit_of(market, objective, driver.index())
    }

    fn profit_of(&self, market: &Market, objective: Objective, driver: usize) -> Money {
        let tasks = self.routes[driver].tasks.iter();
        path_profit(market, objective, driver, tasks.map(|t| t.index()))
    }

    /// Total revenue paid out to drivers (`Σ xₙ,ₘ pₘ`) — Fig. 6's metric.
    #[must_use]
    pub fn total_revenue(&self, market: &Market) -> Money {
        self.routes
            .iter()
            .flat_map(|r| &r.tasks)
            .map(|t| market.tasks()[t.index()].price)
            .sum()
    }

    /// Validates the constraint system of §III-C:
    ///
    /// - (5a) every task appears in at most one route,
    /// - (5c)–(5f) each route is a feasible source→sink path in its
    ///   driver's task map (every consecutive arc exists),
    /// - (5b) individual rationality: each route's profit is non-negative,
    /// - (7a) customer rationality: every served task has `bₘ ≥ pₘ`.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InfeasibleAssignment`] naming the violated
    /// constraint, or [`MarketError::UnknownTask`] for a dangling task
    /// reference.
    pub fn validate(&self, market: &Market) -> Result<()> {
        if self.routes.len() != market.num_drivers() {
            return Err(MarketError::InfeasibleAssignment {
                reason: format!(
                    "{} routes for {} drivers",
                    self.routes.len(),
                    market.num_drivers()
                ),
            });
        }
        // (5a) node-disjointness.
        let mut seen = vec![false; market.num_tasks()];
        for (n, route) in self.routes.iter().enumerate() {
            if route.tasks.is_empty() {
                continue;
            }
            let view = DriverView::new(market, n);
            let mut prev: Option<usize> = None;
            for t in &route.tasks {
                let m = t.index();
                if m >= market.num_tasks() {
                    return Err(MarketError::UnknownTask(*t));
                }
                if seen[m] {
                    return Err(MarketError::InfeasibleAssignment {
                        reason: format!("(5a) {t} served twice"),
                    });
                }
                seen[m] = true;
                if !view.is_allowed(m) {
                    return Err(MarketError::InfeasibleAssignment {
                        reason: format!("(5c/5d) driver#{n} cannot serve {t}"),
                    });
                }
                if let Some(p) = prev {
                    if !market.has_chain_edge(p, m) {
                        return Err(MarketError::InfeasibleAssignment {
                            reason: format!("(5e/5f) no arc task#{p} → {t} for driver#{n}"),
                        });
                    }
                }
                prev = Some(m);
                // (7a).
                let task = &market.tasks()[m];
                if task.valuation < task.price {
                    return Err(MarketError::InfeasibleAssignment {
                        reason: format!("(7a) {t} has bₘ < pₘ"),
                    });
                }
            }
            // (5b) individual rationality.
            let profit = self.profit_of(market, Objective::Profit, n);
            if profit.is_strictly_negative() {
                return Err(MarketError::InfeasibleAssignment {
                    reason: format!("(5b) driver#{n} route profit {profit} < 0"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use crate::{Driver, Task};
    use rideshare_geo::{GeoPoint, SpeedModel};
    use rideshare_trace::{DriverModel, TraceConfig};
    use rideshare_types::{TimeDelta, Timestamp};

    fn pt(km_east: f64) -> GeoPoint {
        GeoPoint::new(41.15, -8.61).offset_km(0.0, km_east)
    }

    fn task(id: u32, at: f64, start: i64, end: i64, price: f64) -> Task {
        Task {
            id: TaskId::new(id),
            publish_time: Timestamp::from_secs(start - 60),
            origin: pt(at),
            destination: pt(at),
            pickup_deadline: Timestamp::from_secs(start),
            completion_deadline: Timestamp::from_secs(end),
            duration: TimeDelta::from_secs(0),
            price: Money::new(price),
            valuation: Money::new(price + 0.5),
            service_cost: Money::ZERO,
        }
    }

    fn two_task_market() -> Market {
        let d0 = Driver {
            id: DriverId::new(0),
            source: pt(0.0),
            destination: pt(30.0),
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(7200),
            model: DriverModel::Hitchhiking,
        };
        let d1 = Driver {
            id: DriverId::new(1),
            ..d0
        };
        Market::new(
            vec![d0, d1],
            vec![
                task(0, 10.0, 900, 1500, 3.0),
                task(1, 20.0, 2400, 3000, 3.0),
            ],
            SpeedModel::new(60.0, 1.0, 0.1),
            None,
        )
    }

    #[test]
    fn empty_assignment_is_valid_and_worthless() {
        let market = two_task_market();
        let a = Assignment::empty(2);
        a.validate(&market).unwrap();
        assert_eq!(a.objective_value(&market, Objective::Profit), Money::ZERO);
        assert_eq!(a.served_count(), 0);
        assert_eq!(a.active_driver_count(), 0);
    }

    #[test]
    fn valid_chain_route() {
        let market = two_task_market();
        let mut a = Assignment::empty(2);
        a.set_route(DriverId::new(0), vec![TaskId::new(0), TaskId::new(1)]);
        a.validate(&market).unwrap();
        assert_eq!(a.served_count(), 2);
        assert_eq!(a.active_driver_count(), 1);
        let profit = a.objective_value(&market, Objective::Profit);
        assert!(profit.approx_eq(Money::new(6.0)));
        assert!(a.total_revenue(&market).approx_eq(Money::new(6.0)));
        // Welfare counts valuations: +0.5 per task.
        let welfare = a.objective_value(&market, Objective::Welfare);
        assert!(welfare.approx_eq(Money::new(7.0)));
    }

    #[test]
    fn duplicate_task_rejected() {
        let market = two_task_market();
        let mut a = Assignment::empty(2);
        a.set_route(DriverId::new(0), vec![TaskId::new(0)]);
        a.set_route(DriverId::new(1), vec![TaskId::new(0)]);
        let err = a.validate(&market).unwrap_err();
        assert!(err.to_string().contains("(5a)"), "{err}");
    }

    #[test]
    fn backwards_chain_rejected() {
        let market = two_task_market();
        let mut a = Assignment::empty(2);
        a.set_route(DriverId::new(0), vec![TaskId::new(1), TaskId::new(0)]);
        let err = a.validate(&market).unwrap_err();
        assert!(err.to_string().contains("(5e/5f)"), "{err}");
    }

    #[test]
    fn unknown_task_rejected() {
        let market = two_task_market();
        let mut a = Assignment::empty(2);
        a.set_route(DriverId::new(0), vec![TaskId::new(9)]);
        assert!(matches!(
            a.validate(&market),
            Err(MarketError::UnknownTask(_))
        ));
    }

    #[test]
    fn route_count_mismatch_rejected() {
        let market = two_task_market();
        let a = Assignment::empty(1);
        assert!(a.validate(&market).is_err());
    }

    #[test]
    fn individual_rationality_enforced() {
        // A driver pulled 40 km off a zero-length commute for a 1-unit fare.
        let d = Driver {
            id: DriverId::new(0),
            source: pt(0.0),
            destination: pt(0.0),
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(36_000),
            model: DriverModel::HomeWorkHome,
        };
        let market = Market::new(
            vec![d],
            vec![task(0, 40.0, 10_000, 20_000, 1.0)],
            SpeedModel::new(60.0, 1.0, 0.1),
            None,
        );
        let mut a = Assignment::empty(1);
        a.set_route(DriverId::new(0), vec![TaskId::new(0)]);
        let err = a.validate(&market).unwrap_err();
        assert!(err.to_string().contains("(5b)"), "{err}");
    }

    #[test]
    fn a_route_is_charged_its_real_sink_cost() {
        // The driver lives at km 0 and her shift ends at t=3600; the task
        // sits at km 10 and completes at t=3300, ten minutes from home
        // with five to spare — outside her task map. A route through it
        // is infeasible, and its profit is still the real one: 5 − 1.0
        // out − 1.0 back. Read out of a `DriverView`, whose cost vectors
        // hold 0.0 outside the map, it came to 5.0.
        let d = Driver {
            id: DriverId::new(0),
            source: pt(0.0),
            destination: pt(0.0),
            shift_start: Timestamp::from_secs(0),
            shift_end: Timestamp::from_secs(3600),
            model: DriverModel::HomeWorkHome,
        };
        let market = Market::new(
            vec![d],
            vec![task(0, 10.0, 2700, 3300, 5.0)],
            SpeedModel::new(60.0, 1.0, 0.1),
            None,
        );
        assert!(!DriverView::new(&market, 0).is_allowed(0));
        let mut a = Assignment::empty(1);
        a.set_route(DriverId::new(0), vec![TaskId::new(0)]);
        let profit = a.objective_value(&market, Objective::Profit);
        assert!(profit.approx_eq(Money::new(3.0)), "profit {profit}");
        assert_eq!(profit, a.route_profit(&market, Objective::Profit, d.id));
        let err = a.validate(&market).unwrap_err();
        assert!(err.to_string().contains("(5c/5d)"), "{err}");
    }

    #[test]
    fn push_task_appends() {
        let market = two_task_market();
        let mut a = Assignment::empty(2);
        a.push_task(DriverId::new(1), TaskId::new(0));
        a.push_task(DriverId::new(1), TaskId::new(1));
        a.validate(&market).unwrap();
        assert_eq!(a.routes()[1].tasks.len(), 2);
    }

    #[test]
    fn trace_market_round_trip() {
        let trace = TraceConfig::porto()
            .with_seed(21)
            .with_task_count(60)
            .with_driver_count(8, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let a = Assignment::empty(market.num_drivers());
        a.validate(&market).unwrap();
    }
}
