//! Geographic partitioning and disjoint-component sharding — the paper's
//! distributed-deployment story.
//!
//! §I argues the market "can be partitioned … in city's scale" but warns
//! that *within* a big city further partitioning is lossy "because the
//! riders and drivers generally travel across the city". This module makes
//! both halves of that claim testable. Both decompositions are lists of
//! [`SubMarket`]s, and the same two functions solve either list —
//! [`solve_components`] (the greedy on every sub-market, merged into one
//! feasible global assignment) and [`components_upper_bound`]:
//!
//! - **exact — the hot path.** [`disjoint_components`] computes the
//!   *connected components* of the driver–task interaction graph (driver
//!   `n` touches task `m` iff `m` is a node of `n`'s task map). No
//!   feasible path crosses a component boundary, so solving each component
//!   independently loses nothing: [`solve_sharded`] reproduces
//!   [`solve_greedy`]'s assignment and [`sharded_upper_bound`] reproduces
//!   `Z_f*`, while both can fan components out across OS threads
//!   (`std::thread::scope`, no external dependencies) with a
//!   deterministic index-ordered merge. The sweep engine, the goldens and
//!   the performance ledger run on this half.
//! - **lossy — the ablation's.** [`partition_market`] splits a market into
//!   `k × k` grid-cell sub-markets (tasks by pickup cell, drivers by source
//!   cell): the embarrassingly parallel deployment mode §I warns about.
//!   Its one caller outside the tests is `rideshare ablations`, which
//!   reports the *partitioning loss* — global greedy profit against
//!   `solve_components` over the cells.

use rideshare_geo::{BoundingBox, GridIndex};
use rideshare_types::{DriverId, Result, TaskId};

use crate::assignment::Assignment;
use crate::greedy::solve_greedy;
use crate::market::{Market, Objective};
use crate::upper_bound::{lp_upper_bound, UpperBoundOptions, UpperBoundResult};
use crate::view::DriverView;
use crate::{Driver, Task};

/// One grid cell's sub-market, with maps back to global indices.
#[derive(Clone, Debug)]
pub struct SubMarket {
    /// The standalone sub-market (locally re-indexed drivers and tasks).
    pub market: Market,
    /// Global driver index of each local driver.
    pub driver_map: Vec<usize>,
    /// Global task index of each local task.
    pub task_map: Vec<usize>,
}

/// Splits `market` into per-cell sub-markets over a `k × k` grid covering
/// all of its locations.
///
/// A task belongs to the cell of its pickup; a driver to the cell of her
/// source. Empty cells produce no sub-market. The union of all sub-markets
/// covers every driver and task exactly once, so merged solutions satisfy
/// the global node-disjointness constraint (5a) by construction.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn partition_market(market: &Market, k: u16) -> Vec<SubMarket> {
    assert!(k > 0, "need at least one cell");
    // Cover all market locations.
    let sources = market.drivers().iter().map(|d| d.source);
    let origins = market.tasks().iter().map(|t| t.origin);
    let Some(bbox) = BoundingBox::covering(sources.chain(origins), 1e-6) else {
        return Vec::new();
    };
    let grid = GridIndex::new(bbox, k, k);

    let cells = k as usize * k as usize;
    let mut cell_drivers: Vec<Vec<usize>> = vec![Vec::new(); cells];
    let mut cell_tasks: Vec<Vec<usize>> = vec![Vec::new(); cells];
    let flat = |c: rideshare_geo::CellId| c.row() as usize * k as usize + c.col() as usize;
    for (i, d) in market.drivers().iter().enumerate() {
        cell_drivers[flat(grid.cell_of(d.source))].push(i);
    }
    for (i, t) in market.tasks().iter().enumerate() {
        cell_tasks[flat(grid.cell_of(t.origin))].push(i);
    }

    let members = cell_drivers.into_iter().zip(cell_tasks);
    members
        .filter(|(drivers, tasks)| !(drivers.is_empty() && tasks.is_empty()))
        .map(|(drivers, tasks)| sub_market(market, drivers, tasks))
        .collect()
}

/// The standalone market of the drivers `driver_map` and tasks `task_map`
/// (global indices), each renumbered by its position in its map.
fn sub_market(market: &Market, driver_map: Vec<usize>, task_map: Vec<usize>) -> SubMarket {
    let drivers = driver_map.iter().enumerate().map(|(local, &g)| Driver {
        id: DriverId::new(local as u32),
        ..market.drivers()[g]
    });
    let tasks = task_map.iter().enumerate().map(|(local, &g)| Task {
        id: TaskId::new(local as u32),
        ..market.tasks()[g]
    });
    SubMarket {
        market: Market::new(
            drivers.collect(),
            tasks.collect(),
            market.speed(),
            market.max_chain_wait(),
        ),
        driver_map,
        task_map,
    }
}

/// A disjoint-set forest over `n` elements with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so component identity is
            // independent of union order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Splits `market` into the connected components of its driver–task
/// interaction graph: driver `n` and task `m` are joined iff `m` is a node
/// of `n`'s task map ([`DriverView::is_allowed`]).
///
/// Every feasible route lives entirely inside one component — a driver's
/// path may only visit tasks of her own task map — so, unlike the grid
/// partition, this decomposition loses nothing: solving components
/// independently and merging is equivalent to solving globally, for the
/// greedy *and* for the LP bound.
///
/// Components are returned in ascending order of their smallest member
/// (drivers before tasks), so the output order is deterministic. Drivers
/// with an empty task map and tasks no driver can serve form trivial
/// one-sided components; they cannot contribute to any assignment and are
/// omitted from the output (the merged solution leaves them unassigned,
/// exactly as the global solver would).
#[must_use]
pub fn disjoint_components(market: &Market) -> Vec<SubMarket> {
    disjoint_components_sharded(market, 1)
}

/// [`disjoint_components`] with the `O(N·M)` task-map construction pass
/// (the geometry-heavy part) fanned out across `threads` — the
/// decomposition itself is identical for every thread count.
#[must_use]
pub fn disjoint_components_sharded(market: &Market, threads: usize) -> Vec<SubMarket> {
    let n = market.num_drivers();
    let m = market.num_tasks();
    // Element layout: 0..n are drivers, n..n+m are tasks. The per-driver
    // reachability scans dominate; shard them, then union sequentially
    // (cheap, and union order does not affect the result).
    let allowed: Vec<Vec<usize>> = map_sharded((0..n).collect(), threads, |d| {
        let view = DriverView::new(market, d);
        (0..m).filter(|&t| view.is_allowed(t)).collect()
    });
    let mut uf = UnionFind::new(n + m);
    for (d, tasks) in allowed.iter().enumerate() {
        for &t in tasks {
            uf.union(d, n + t);
        }
    }

    // Group members by root, preserving the driver-then-task global order.
    let mut root_slot: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut drivers_of: Vec<Vec<usize>> = Vec::new();
    let mut tasks_of: Vec<Vec<usize>> = Vec::new();
    for d in 0..n {
        let r = uf.find(d);
        let slot = *root_slot.entry(r).or_insert_with(|| {
            drivers_of.push(Vec::new());
            tasks_of.push(Vec::new());
            drivers_of.len() - 1
        });
        drivers_of[slot].push(d);
    }
    for t in 0..m {
        let r = uf.find(n + t);
        let slot = *root_slot.entry(r).or_insert_with(|| {
            drivers_of.push(Vec::new());
            tasks_of.push(Vec::new());
            drivers_of.len() - 1
        });
        tasks_of[slot].push(t);
    }

    let components = drivers_of.into_iter().zip(tasks_of);
    components
        // One-sided components cannot produce assignments.
        .filter(|(drivers, tasks)| !(drivers.is_empty() || tasks.is_empty()))
        .map(|(drivers, tasks)| sub_market(market, drivers, tasks))
        .collect()
}

/// Runs `f` over `items`, fanning contiguous chunks out across up to
/// `threads` scoped OS threads and returning the results in input order.
///
/// With `threads <= 1` (or a single item) everything runs inline on the
/// caller's thread. The output is identical for every thread count: each
/// item is processed independently and results are merged by index. This
/// is the deterministic fan-out primitive behind [`solve_sharded`],
/// [`sharded_upper_bound`], and the scenario sweep engine.
pub fn map_sharded<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Contiguous chunks of near-equal size, one per thread.
    let len = items.len();
    let chunk = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut iter = items.into_iter();
    loop {
        let c: Vec<T> = iter.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        // Joining in spawn order keeps the merge deterministic.
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard thread panicked"))
            .collect()
    })
}

/// Solves the market exactly as [`solve_greedy`] would, but per disjoint
/// component, optionally in parallel, and merges the per-component routes
/// into one global assignment.
///
/// Within a component the greedy sees the same task maps, the same chain
/// arcs, and the same tie-breaking order as the global solver (component
/// extraction preserves relative driver/task order), and no path crosses a
/// component boundary — so the merged assignment **equals** the global
/// greedy's assignment, for every `threads` value. This is the lossless
/// parallel counterpart of the lossy [`partition_market`] cells.
///
/// # Examples
///
/// ```
/// use rideshare_core::{partition::solve_sharded, solve_greedy, Market, MarketBuildOptions, Objective};
/// use rideshare_trace::{DriverModel, TraceConfig};
///
/// let trace = TraceConfig::porto()
///     .with_seed(9)
///     .with_task_count(100)
///     .with_driver_count(12, DriverModel::Hitchhiking)
///     .generate();
/// let market = Market::from_trace(&trace, &MarketBuildOptions::default());
/// let sharded = solve_sharded(&market, Objective::Profit, 4);
/// let global = solve_greedy(&market, Objective::Profit);
/// assert_eq!(sharded, global.assignment);
/// ```
#[must_use]
pub fn solve_sharded(market: &Market, objective: Objective, threads: usize) -> Assignment {
    solve_components(
        market,
        &disjoint_components_sharded(market, threads),
        objective,
        threads,
    )
}

/// [`solve_sharded`] with precomputed components, for callers that reuse
/// one [`disjoint_components`] decomposition across several solves (e.g.
/// the sweep engine solves the greedy *and* the LP bound per scenario).
/// Any sub-markets that hold each driver and task at most once merge to
/// a feasible assignment; over [`partition_market`]'s cells it is the
/// lossy one the partitioning ablation reports.
#[must_use]
pub fn solve_components(
    market: &Market,
    components: &[SubMarket],
    objective: Objective,
    threads: usize,
) -> Assignment {
    let solved = map_sharded(components.iter().collect(), threads, |sub: &SubMarket| {
        solve_greedy(&sub.market, objective).assignment
    });
    let mut merged = Assignment::empty(market.num_drivers());
    for (sub, local) in components.iter().zip(solved) {
        for (local_d, route) in local.routes().iter().enumerate() {
            if route.tasks.is_empty() {
                continue;
            }
            let global_driver = DriverId::new(sub.driver_map[local_d] as u32);
            let tasks: Vec<TaskId> = route
                .tasks
                .iter()
                .map(|t| TaskId::new(sub.task_map[t.index()] as u32))
                .collect();
            merged.set_route(global_driver, tasks);
        }
    }
    merged
}

/// Computes the LP upper bound `Z_f*` per disjoint component, optionally in
/// parallel, and aggregates: the path LP is separable across components
/// (no column spans two), so the sum of per-component bounds *is* the
/// global bound.
///
/// The aggregate reports the summed bound and master objective, the
/// maximum round count, the total column count, and convergence iff every
/// component converged.
///
/// # Errors
///
/// Propagates the first component's LP failure, exactly as the global
/// [`lp_upper_bound`] would surface it.
pub fn sharded_upper_bound(
    market: &Market,
    objective: Objective,
    opts: UpperBoundOptions,
    threads: usize,
) -> Result<UpperBoundResult> {
    components_upper_bound(
        &disjoint_components_sharded(market, threads),
        objective,
        opts,
        threads,
    )
}

/// [`sharded_upper_bound`] with precomputed components (see
/// [`solve_components`]).
///
/// # Errors
///
/// Propagates the first component's LP failure.
pub fn components_upper_bound(
    components: &[SubMarket],
    objective: Objective,
    opts: UpperBoundOptions,
    threads: usize,
) -> Result<UpperBoundResult> {
    let results = map_sharded(components.iter().collect(), threads, |sub: &SubMarket| {
        lp_upper_bound(&sub.market, objective, opts)
    });
    let mut agg = UpperBoundResult {
        bound: 0.0,
        master_objective: 0.0,
        rounds: 0,
        columns: 0,
        converged: true,
    };
    for r in results {
        let r = r?;
        agg.bound += r.bound;
        agg.master_objective += r.master_objective;
        agg.rounds = agg.rounds.max(r.rounds);
        agg.columns += r.columns;
        agg.converged &= r.converged;
    }
    Ok(agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketBuildOptions;
    use rideshare_trace::{DriverModel, TraceConfig};

    fn market(seed: u64, tasks: usize, drivers: usize) -> Market {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, DriverModel::Hitchhiking)
            .generate();
        Market::from_trace(&trace, &MarketBuildOptions::default())
    }

    #[test]
    fn partition_covers_everything_once() {
        let m = market(81, 150, 25);
        for k in [1u16, 2, 4] {
            let subs = partition_market(&m, k);
            let mut seen_d = vec![false; m.num_drivers()];
            let mut seen_t = vec![false; m.num_tasks()];
            for sub in &subs {
                for &d in &sub.driver_map {
                    assert!(!seen_d[d], "driver {d} in two cells");
                    seen_d[d] = true;
                }
                for &t in &sub.task_map {
                    assert!(!seen_t[t], "task {t} in two cells");
                    seen_t[t] = true;
                }
                assert_eq!(sub.market.num_drivers(), sub.driver_map.len());
                assert_eq!(sub.market.num_tasks(), sub.task_map.len());
            }
            assert!(seen_d.iter().all(|&x| x), "driver lost at k={k}");
            assert!(seen_t.iter().all(|&x| x), "task lost at k={k}");
        }
    }

    #[test]
    fn k1_partition_matches_global_greedy() {
        let m = market(82, 100, 15);
        let merged = solve_components(&m, &partition_market(&m, 1), Objective::Profit, 1);
        let global = solve_greedy(&m, Objective::Profit);
        let a = merged.objective_value(&m, Objective::Profit);
        let b = global.assignment.objective_value(&m, Objective::Profit);
        assert!(a.approx_eq(b), "k=1 {a} vs global {b}");
    }

    #[test]
    fn merged_assignment_is_globally_feasible() {
        let m = market(83, 200, 30);
        for k in [2u16, 3, 6] {
            let merged = solve_components(&m, &partition_market(&m, k), Objective::Profit, 1);
            merged.validate(&m).unwrap();
        }
    }

    #[test]
    fn partitioning_is_lossy_within_a_city() {
        // §I's point: fine partitions of one city lose cross-cell matches.
        let m = market(84, 250, 40);
        let global = solve_greedy(&m, Objective::Profit)
            .assignment
            .objective_value(&m, Objective::Profit)
            .as_f64();
        let fine = solve_components(&m, &partition_market(&m, 6), Objective::Profit, 1)
            .objective_value(&m, Objective::Profit)
            .as_f64();
        assert!(fine <= global + 1e-6);
        assert!(
            fine < global * 0.95,
            "expected visible partitioning loss: fine {fine} vs global {global}"
        );
    }

    #[test]
    fn empty_market_partitions_to_nothing() {
        let m = Market::new(vec![], vec![], rideshare_geo::SpeedModel::urban(), None);
        assert!(partition_market(&m, 4).is_empty());
        let a = solve_components(&m, &partition_market(&m, 4), Objective::Profit, 1);
        assert_eq!(a.routes().len(), 0);
    }

    #[test]
    fn components_cover_each_element_at_most_once() {
        let m = market(85, 180, 25);
        let comps = disjoint_components(&m);
        let mut seen_d = vec![false; m.num_drivers()];
        let mut seen_t = vec![false; m.num_tasks()];
        for sub in &comps {
            assert!(!sub.driver_map.is_empty() && !sub.task_map.is_empty());
            for &d in &sub.driver_map {
                assert!(!seen_d[d], "driver {d} in two components");
                seen_d[d] = true;
            }
            for &t in &sub.task_map {
                assert!(!seen_t[t], "task {t} in two components");
                seen_t[t] = true;
            }
            // Local order preserves global order (needed for exactness).
            assert!(sub.driver_map.windows(2).all(|w| w[0] < w[1]));
            assert!(sub.task_map.windows(2).all(|w| w[0] < w[1]));
        }
        // Omitted elements are exactly the one-sided ones: no driver/task
        // that could interact may be missing.
        for (d, seen) in seen_d.iter().enumerate() {
            let view = DriverView::new(&m, d);
            let has_task = (0..m.num_tasks()).any(|t| view.is_allowed(t));
            assert_eq!(*seen, has_task, "driver {d} coverage");
        }
    }

    #[test]
    fn sharded_greedy_equals_global_greedy() {
        for (seed, tasks, drivers) in [(86u64, 120usize, 18usize), (87, 200, 35), (88, 60, 6)] {
            let m = market(seed, tasks, drivers);
            let global = solve_greedy(&m, Objective::Profit).assignment;
            for threads in [1usize, 2, 4] {
                let sharded = solve_sharded(&m, Objective::Profit, threads);
                assert_eq!(sharded, global, "seed {seed} threads {threads}");
            }
            // Welfare objective too.
            let gw = solve_greedy(&m, Objective::Welfare).assignment;
            assert_eq!(solve_sharded(&m, Objective::Welfare, 3), gw);
        }
    }

    #[test]
    fn sharded_bound_matches_global_bound() {
        let m = market(89, 80, 10);
        let global = crate::lp_upper_bound(&m, Objective::Profit, Default::default()).unwrap();
        let sharded = sharded_upper_bound(&m, Objective::Profit, Default::default(), 2).unwrap();
        assert!(global.converged && sharded.converged);
        let rel = (global.bound - sharded.bound).abs() / global.bound.max(1.0);
        assert!(
            rel < 1e-6,
            "global {} vs sharded {}",
            global.bound,
            sharded.bound
        );
    }

    #[test]
    fn sharded_decomposition_is_thread_count_invariant() {
        let m = market(90, 140, 20);
        let seq = disjoint_components(&m);
        for threads in [2usize, 4, 7] {
            let par = disjoint_components_sharded(&m, threads);
            assert_eq!(par.len(), seq.len(), "threads {threads}");
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.driver_map, b.driver_map, "threads {threads}");
                assert_eq!(a.task_map, b.task_map, "threads {threads}");
            }
        }
    }

    #[test]
    fn sharded_solve_empty_market() {
        let m = Market::new(vec![], vec![], rideshare_geo::SpeedModel::urban(), None);
        assert!(disjoint_components(&m).is_empty());
        let a = solve_sharded(&m, Objective::Profit, 4);
        assert_eq!(a.routes().len(), 0);
        let ub = sharded_upper_bound(&m, Objective::Profit, Default::default(), 4).unwrap();
        assert_eq!(ub.bound, 0.0);
        assert!(ub.converged);
    }

    #[test]
    fn map_sharded_preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = map_sharded(items.clone(), threads, |x| x * 2);
            assert_eq!(got, expect, "threads {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map_sharded(empty, 4, |x: usize| x).is_empty());
    }
}
