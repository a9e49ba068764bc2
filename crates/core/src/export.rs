//! A driver's task map as a generic [`rideshare_graph::Dag`] — test-only.
//!
//! The market solver keeps each driver's map compact (only the tasks the
//! driver can serve, and the chain arcs between them); this module
//! materialises the paper's *literal* per-driver DAG of §III-B — nodes
//! `{0, −1} ∪ [M]`, profit-weighted, its chain arcs from the market's pair
//! test — so the compact path oracle (`DriverView::task_map`)
//! can be checked, bit for bit, against the generic
//! `Dag::max_profit_path` on the same structure. `rideshare-graph` is
//! that reference implementation and a dev-dependency only: nothing at
//! run time reaches it.

use rideshare_graph::Dag;

use crate::market::{Market, Objective};
use crate::view::DriverView;

/// The materialised task map of one driver.
#[derive(Clone, Debug)]
pub struct TaskMapDag {
    /// The DAG: node `m ∈ 0..M` is task `m` (weight = objective margin),
    /// node `M` is the driver's source (weight = the commute refund
    /// `cₙ,₀,₋₁`), node `M+1` her destination; edge weights are negated
    /// travel costs, so path profit equals the market's `r_π`.
    pub dag: Dag,
    /// Index of the source node (`= M`).
    pub source: usize,
    /// Index of the sink node (`= M + 1`).
    pub sink: usize,
}

/// Materialises driver `driver`'s task map under `objective`.
///
/// Infeasible tasks (per Eqs. 1–2) are present but *disabled*, so node
/// indices always equal task indices.
///
/// # Panics
///
/// Panics if `driver` is out of range.
#[must_use]
pub fn task_map_dag(market: &Market, driver: usize, objective: Objective) -> TaskMapDag {
    let m = market.num_tasks();
    let view = DriverView::new(market, driver);
    let d = &market.drivers()[driver];
    let speed = market.speed();

    let mut dag = Dag::new(m + 2);
    let source = m;
    let sink = m + 1;
    dag.set_node_weight(source, view.direct_cost().as_f64());

    for t in 0..m {
        if !view.is_allowed(t) {
            dag.disable_node(t);
            continue;
        }
        let task = &market.tasks()[t];
        dag.set_node_weight(t, objective.margin(task).as_f64());
        dag.add_edge(
            source,
            t,
            -speed.travel_cost(d.source, task.origin).as_f64(),
        );
        dag.add_edge(
            t,
            sink,
            -speed.travel_cost(task.destination, d.destination).as_f64(),
        );
    }
    let mine: Vec<usize> = (0..m).filter(|&t| view.is_allowed(t)).collect();
    for &t in &mine {
        for &to in &mine {
            if let Some(cost) = market.chain_cost(t, to) {
                dag.add_edge(t, to, -cost);
            }
        }
    }
    // The empty route: drive straight home at the commute cost, netting 0.
    dag.add_edge(source, sink, -view.direct_cost().as_f64());
    TaskMapDag { dag, source, sink }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use crate::view::{task_margins, PathScratch, REMOVED};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    /// The generic longest path over the materialised map: `value` replaces
    /// the task node weights, tasks valued [`REMOVED`] are disabled, and the
    /// sink pays `driver_dual`. Every sum associates as the compact DP's
    /// does, so the two profits are comparable bit for bit.
    fn generic_best(tm: &TaskMapDag, value: &[f64], driver_dual: f64) -> (Vec<u32>, f64) {
        let mut dag = tm.dag.clone();
        for (t, &v) in value.iter().enumerate() {
            if v == REMOVED {
                dag.disable_node(t);
            }
        }
        let direct = dag.node_weight(tm.source);
        let node = |v: usize| match v {
            v if v == tm.source => direct,
            v if v == tm.sink => -driver_dual,
            t => value[t],
        };
        let best = dag
            .max_profit_path_with(tm.source, tm.sink, node, |_, _, w| w)
            .expect("empty route always exists");
        let interior = &best.nodes[1..best.nodes.len() - 1];
        (interior.iter().map(|&t| t as u32).collect(), best.profit)
    }

    #[test]
    fn generic_dag_agrees_with_compact_task_map() {
        // The crown differential test: two completely independent path
        // solvers over the same task map must find the same path at the
        // same value — under Alg. 1's removals and under column
        // generation's duals, with one scratch serving every query.
        let mut scratch = PathScratch::default();
        for seed in [91u64, 92, 93, 94] {
            let m = market(seed, 80, 6);
            let margins = task_margins(&m, Objective::Profit);
            let mut rng = StdRng::seed_from_u64(seed);
            for driver in 0..m.num_drivers() {
                let view = DriverView::new(&m, driver);
                let map = &m.task_maps()[driver];
                let tm = task_map_dag(&m, driver, Objective::Profit);
                for round in 0..6 {
                    let context = format!("seed {seed} driver {driver} round {round}");

                    let removed: Vec<bool> = margins
                        .iter()
                        .map(|_| round > 0 && rng.gen_bool(0.3))
                        .collect();
                    let value: Vec<f64> = margins
                        .iter()
                        .zip(&removed)
                        .map(|(&margin, &gone)| if gone { REMOVED } else { margin })
                        .collect();
                    let fast = view.best_path(&m, Objective::Profit, &removed);
                    let (tasks, profit) = generic_best(&tm, &value, 0.0);
                    assert_eq!(fast.tasks, tasks, "{context}, removals");
                    assert_eq!(fast.profit.to_bits(), profit.to_bits(), "{context}");
                    assert_eq!(fast, map.best_path(&value, 0.0, &mut scratch));

                    let lambda = rng.gen_range(0.25..3.0);
                    let priced_value: Vec<f64> = margins
                        .iter()
                        .map(|margin| margin - rng.gen_range(0.0..8.0))
                        .collect();
                    let priced = map.best_path(&priced_value, lambda, &mut scratch);
                    let (tasks, profit) = generic_best(&tm, &priced_value, lambda);
                    assert_eq!(priced.tasks, tasks, "{context}, priced");
                    assert_eq!(priced.profit.to_bits(), profit.to_bits(), "{context}");
                }
            }
        }
    }

    #[test]
    fn task_map_is_acyclic_and_indexed_by_task() {
        let m = market(95, 60, 2);
        let tm = task_map_dag(&m, 0, Objective::Profit);
        assert!(rideshare_graph::is_acyclic(&tm.dag));
        assert_eq!(tm.dag.node_count(), m.num_tasks() + 2);
        let view = DriverView::new(&m, 0);
        for t in 0..m.num_tasks() {
            assert_eq!(tm.dag.is_enabled(t), view.is_allowed(t));
        }
    }

    #[test]
    fn empty_route_edge_gives_zero_profit_floor() {
        // A market where no task is profitable: the best generic path is
        // the direct source→sink edge with profit exactly 0.
        let m = market(96, 0, 1);
        let tm = task_map_dag(&m, 0, Objective::Profit);
        let p = tm.dag.max_profit_path(tm.source, tm.sink).unwrap();
        assert_eq!(p.nodes, vec![tm.source, tm.sink]);
        assert!(p.profit.abs() < 1e-9);
    }

    #[test]
    fn welfare_map_dominates_profit_map() {
        let m = market(97, 50, 3);
        for driver in 0..m.num_drivers() {
            let p = task_map_dag(&m, driver, Objective::Profit);
            let w = task_map_dag(&m, driver, Objective::Welfare);
            let pp = p.dag.max_profit_path(p.source, p.sink).unwrap().profit;
            let ww = w.dag.max_profit_path(w.source, w.sink).unwrap().profit;
            assert!(ww + 1e-9 >= pp, "welfare {ww} < profit {pp}");
        }
    }
}
