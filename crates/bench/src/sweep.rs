//! The parallel sharded sweep engine: scenario × policy → one report.
//!
//! [`run_sweep`] evaluates every catalog scenario under every requested
//! policy and emits one machine-readable [`SweepReport`] (JSON or CSV) of
//! `{profit, served, ratio vs Z_f*, wall-time}` per cell. Work is sharded
//! two ways, both with `std::thread::scope` and no external dependencies:
//!
//! - **across scenarios**: each scenario unit (market build, `Z_f*` bound,
//!   and all policy runs) is an independent shard, merged back in catalog
//!   order;
//! - **within a market**: the offline solver and the LP bound run per
//!   disjoint component via [`rideshare_core::solve_sharded`] /
//!   [`rideshare_core::sharded_upper_bound`], the lossless decomposition
//!   of the paper's "partitioned deployment" argument (§I).
//!
//! Every cell is computed by deterministic code on deterministic inputs,
//! and shards are merged by index — so the *results* are byte-identical
//! for every `threads` value; only wall-times vary. [`SweepReport::to_json`]
//! with `with_timing = false` (the *canonical* report) therefore makes a
//! stable regression snapshot, which CI diffs on every push.

use std::fmt::Write as _;
use std::time::Instant;

use rideshare_core::partition::map_sharded;
use rideshare_core::{
    components_upper_bound, disjoint_components_sharded, solve_components, solve_sharded,
    Assignment, Market, Objective, SubMarket, UpperBoundOptions,
};
use rideshare_metrics::render_pivot;
use rideshare_online::{replay_market, MatcherKind, RandomDispatch, ShardPolicySpec, StreamPolicy};
use rideshare_types::json::{self, JsonValue};
use rideshare_types::TimeDelta;

use crate::scenario::Scenario;

/// The longest hold window a label may name: 366 days. A window past the
/// longest pickup lead already holds every order to its early-flush
/// instant, and this bound leaves `timestamp + window` nowhere near
/// `i64::MAX` on any trace the generator or `export` can produce.
const MAX_WINDOW_SECS: i64 = 366 * 86_400;

/// One policy column of the sweep matrix.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PolicySpec {
    /// The offline greedy GA (Alg. 1), solved per disjoint component.
    Greedy,
    /// Online maxMargin dispatch (Alg. 4).
    MaxMargin,
    /// Online nearest-driver dispatch (Alg. 3), tie-break seed 0.
    Nearest,
    /// The uniform-random feasible baseline, seed 0.
    Random,
    /// Batched dispatch with the given hold window (greedy pair matcher,
    /// grid-pruned candidates).
    Batched(TimeDelta),
    /// Batched dispatch with the given hold window and the per-round
    /// optimal assignment matcher (grid-pruned candidates).
    BatchedOptimal(TimeDelta),
}

impl PolicySpec {
    /// The default policy set for reports: offline reference plus the
    /// paper's two online heuristics and the batched mode under both
    /// matchers.
    #[must_use]
    pub fn default_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Greedy,
            PolicySpec::MaxMargin,
            PolicySpec::Nearest,
            PolicySpec::Batched(TimeDelta::from_mins(3)),
            PolicySpec::BatchedOptimal(TimeDelta::from_mins(3)),
        ]
    }

    /// The batching study: the instant baselines plus a sweep of the hold
    /// window `W` under both matchers — the "how much latency buys how much
    /// matching quality" experiment (`rideshare sweep --policies w-sweep`).
    #[must_use]
    pub fn w_sweep_set() -> Vec<PolicySpec> {
        let mut out = vec![PolicySpec::Greedy, PolicySpec::MaxMargin];
        for mins in [0i64, 1, 3, 10] {
            out.push(PolicySpec::Batched(TimeDelta::from_mins(mins)));
        }
        for mins in [1i64, 3, 10] {
            out.push(PolicySpec::BatchedOptimal(TimeDelta::from_mins(mins)));
        }
        out
    }

    /// Stable column label: whole-minute windows label as `"batch-3m"` /
    /// `"batch-opt-3m"`, sub-minute ones as `"batch-90s"` so distinct
    /// windows never collide.
    #[must_use]
    pub fn label(&self) -> String {
        fn window(secs: i64) -> String {
            if secs % 60 == 0 {
                format!("{}m", secs / 60)
            } else {
                format!("{secs}s")
            }
        }
        match self {
            PolicySpec::Greedy => "greedy".into(),
            PolicySpec::MaxMargin => "maxMargin".into(),
            PolicySpec::Nearest => "nearest".into(),
            PolicySpec::Random => "random".into(),
            PolicySpec::Batched(w) => format!("batch-{}", window(w.as_secs())),
            PolicySpec::BatchedOptimal(w) => format!("batch-opt-{}", window(w.as_secs())),
        }
    }

    /// The column as the streaming engine runs it — the one mapping
    /// `sweep`, `simulate`, `replay`, `serve` and the spool workers all
    /// dispatch through — or `None` for the two columns that cannot
    /// dispatch an order stream (`greedy` is offline; `random` draws from
    /// one RNG across decisions, so it is not shard-stable).
    #[must_use]
    pub fn stream_spec(&self) -> Option<ShardPolicySpec> {
        let batched = |window, matcher| ShardPolicySpec::Batched { window, matcher };
        match *self {
            PolicySpec::Greedy | PolicySpec::Random => None,
            PolicySpec::MaxMargin => Some(ShardPolicySpec::MaxMargin),
            PolicySpec::Nearest => Some(ShardPolicySpec::Nearest { seed: 0 }),
            PolicySpec::Batched(w) => Some(batched(w, MatcherKind::Greedy)),
            PolicySpec::BatchedOptimal(w) => Some(batched(w, MatcherKind::Optimal)),
        }
    }

    /// Parses a label as produced by [`PolicySpec::label`]. A hold window
    /// that is negative or longer than 366 days is no label.
    #[must_use]
    pub fn parse(label: &str) -> Option<PolicySpec> {
        fn window(rest: &str) -> Option<TimeDelta> {
            let (digits, unit) = match rest.strip_suffix('m') {
                Some(mins) => (mins, 60),
                None => (rest.strip_suffix('s')?, 1),
            };
            let secs = digits.parse::<i64>().ok()?.checked_mul(unit)?;
            let admitted = (0..=MAX_WINDOW_SECS).contains(&secs);
            admitted.then_some(TimeDelta::from_secs(secs))
        }
        match label {
            "greedy" => Some(PolicySpec::Greedy),
            "maxmargin" | "maxMargin" | "margin" => Some(PolicySpec::MaxMargin),
            "nearest" => Some(PolicySpec::Nearest),
            "random" => Some(PolicySpec::Random),
            _ => {
                if let Some(rest) = label.strip_prefix("batch-opt-") {
                    Some(PolicySpec::BatchedOptimal(window(rest)?))
                } else {
                    Some(PolicySpec::Batched(window(label.strip_prefix("batch-")?)?))
                }
            }
        }
    }

    /// Runs the policy on `market` and returns the [`Assignment`] it
    /// produces — the one runner behind [`run_sweep`]'s cells and the
    /// figure subcommands. `components` is an optional precomputed
    /// [`rideshare_core::disjoint_components`] decomposition, so callers
    /// evaluating several policies (or a policy plus the `Z_f*` bound) on
    /// one market pay for it once; it and `threads` are honoured by the
    /// component-sharded offline solver only — online replays are
    /// inherently sequential per market.
    #[must_use]
    pub fn assign(
        &self,
        market: &Market,
        components: Option<&[SubMarket]>,
        threads: usize,
    ) -> Assignment {
        match (self.stream_spec(), self) {
            (Some(spec), _) => replay_market(market, &mut spec.holder().as_policy()).assignment,
            (None, PolicySpec::Random) => {
                let random = &mut RandomDispatch::with_seed(0);
                replay_market(market, &mut StreamPolicy::Instant(random)).assignment
            }
            (None, _) => match components {
                Some(c) => solve_components(market, c, Objective::Profit, threads),
                None => solve_sharded(market, Objective::Profit, threads),
            },
        }
    }
}

/// Options for [`run_sweep`].
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Total thread budget for both sharding axes.
    pub threads: usize,
    /// Compute the `Z_f*` denominator per scenario (skip for speed).
    pub compute_bound: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            compute_bound: true,
        }
    }
}

/// One `(scenario, policy)` cell of the report.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Scenario name.
    pub scenario: String,
    /// Policy label.
    pub policy: String,
    /// Market size `M` (tasks).
    pub tasks: usize,
    /// Market size `N` (drivers).
    pub drivers: usize,
    /// Tasks served by the policy.
    pub served: usize,
    /// Drivers' total profit (Eq. 4).
    pub profit: f64,
    /// `profit / Z_f*` — the paper's performance ratio; `None` when the
    /// bound was skipped or the scenario is worthless (`Z_f* = 0`).
    ///
    /// Offline policies land in `(0, 1]`, but online policies may
    /// legitimately exceed `1.0` on loose-window workloads: early finishes
    /// create task chains the *offline* task map (whose relaxation `Z_f*`
    /// bounds) does not contain, so `Z_f*` is not an upper bound for
    /// simulated dispatch. A ratio above 1 signals that effect, not a
    /// solver bug.
    pub ratio: Option<f64>,
    /// Wall-clock milliseconds spent running the policy (excludes market
    /// build and bound).
    pub wall_ms: f64,
}

/// The sweep result: one cell per `(scenario, policy)`, in catalog ×
/// policy order.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// All cells, scenario-major.
    pub cells: Vec<SweepCell>,
}

/// Formats a float with fixed precision, trimming `-0.0000` to `0.0000`.
fn fixed(v: f64, decimals: usize) -> String {
    let s = format!("{v:.decimals$}");
    match s.strip_prefix('-') {
        Some(rest) if rest.chars().all(|c| c == '0' || c == '.') => rest.to_string(),
        _ => s,
    }
}

/// Schema tag of a serialised [`SweepReport`].
const SCHEMA: &str = "rideshare-sweep/1";

impl SweepReport {
    /// Serialises the report as JSON (`rideshare-sweep/1` schema). With
    /// `with_timing = false` the output is *canonical*: wall-times are
    /// omitted, so equal results serialise to equal bytes regardless of
    /// thread count or machine — the form CI snapshots.
    #[must_use]
    pub fn to_json(&self, with_timing: bool) -> String {
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let ratio = c.ratio.map_or_else(|| "null".into(), |r| fixed(r, 4));
            let _ = write!(
                out,
                "    {{\"scenario\": \"{}\", \"policy\": \"{}\", \"tasks\": {}, \"drivers\": {}, \
                 \"served\": {}, \"profit\": {}, \"ratio\": {}",
                c.scenario,
                c.policy,
                c.tasks,
                c.drivers,
                c.served,
                fixed(c.profit, 4),
                ratio,
            );
            if with_timing {
                let _ = write!(out, ", \"wall_ms\": {}", fixed(c.wall_ms, 3));
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Reads a report back from [`SweepReport::to_json`]'s output. Wall
    /// times are a property of the run, not of its result, and read as
    /// zero. The canonical form survives the round trip byte for byte:
    /// it prints four fixed decimals, and re-formatting the parsed `f64`
    /// reproduces those digits at these magnitudes.
    ///
    /// # Errors
    ///
    /// A description of the first thing wrong with `text`: malformed
    /// JSON, another schema tag, a missing or mistyped field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        v.expect_schema(SCHEMA)?;
        let cell = |cell: &JsonValue| {
            Ok(SweepCell {
                scenario: cell.str_field("scenario")?.to_string(),
                policy: cell.str_field("policy")?.to_string(),
                tasks: cell.num_field("tasks")?,
                drivers: cell.num_field("drivers")?,
                served: cell.num_field("served")?,
                profit: cell.num_field("profit")?,
                ratio: match cell.get("ratio") {
                    Some(JsonValue::Null) | None => None,
                    Some(_) => Some(cell.num_field("ratio")?),
                },
                wall_ms: 0.0,
            })
        };
        let cells = v.arr_field("cells")?.iter().map(cell);
        Ok(Self {
            cells: cells.collect::<Result<_, String>>()?,
        })
    }

    /// Serialises the report as CSV with a header row. Timing column
    /// included only `with_timing`.
    #[must_use]
    pub fn to_csv(&self, with_timing: bool) -> String {
        let mut out = String::from("scenario,policy,tasks,drivers,served,profit,ratio");
        if with_timing {
            out.push_str(",wall_ms");
        }
        out.push('\n');
        for c in &self.cells {
            let ratio = c.ratio.map_or_else(String::new, |r| fixed(r, 4));
            let _ = write!(
                out,
                "{},{},{},{},{},{},{ratio}",
                c.scenario,
                c.policy,
                c.tasks,
                c.drivers,
                c.served,
                fixed(c.profit, 4),
            );
            if with_timing {
                let _ = write!(out, ",{}", fixed(c.wall_ms, 3));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the scenario × policy profit matrix (ratio in parentheses
    /// when available) as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut scenarios: Vec<&str> = Vec::new();
        let mut policies: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !scenarios.contains(&c.scenario.as_str()) {
                scenarios.push(&c.scenario);
            }
            if !policies.contains(&c.policy.as_str()) {
                policies.push(&c.policy);
            }
        }
        let cells: Vec<Vec<String>> = scenarios
            .iter()
            .map(|s| {
                policies
                    .iter()
                    .map(|p| {
                        self.cells
                            .iter()
                            .find(|c| c.scenario == *s && c.policy == *p)
                            .map_or_else(String::new, |c| match c.ratio {
                                Some(r) => format!("{} ({})", fixed(c.profit, 2), fixed(r, 3)),
                                None => fixed(c.profit, 2),
                            })
                    })
                    .collect()
            })
            .collect();
        render_pivot("scenario", &scenarios, &policies, &cells)
    }
}

/// Runs the scenario × policy sweep.
///
/// Scenario units are sharded across `opts.threads` scoped threads; any
/// leftover budget goes to the within-market component shards. Results are
/// merged by `(scenario, policy)` index, so the report's cells (and its
/// canonical serialisation) are **byte-identical for every thread count**.
///
/// # Examples
///
/// ```
/// use rideshare_bench::{run_sweep, PolicySpec, Scenario, SweepOptions};
///
/// let report = run_sweep(
///     &Scenario::tiny_catalog()[..1],
///     &[PolicySpec::Greedy, PolicySpec::Nearest],
///     SweepOptions { threads: 2, compute_bound: false },
/// );
/// assert_eq!(report.cells.len(), 2);
/// assert_eq!(report.cells[0].policy, "greedy");
/// ```
#[must_use]
pub fn run_sweep(
    scenarios: &[Scenario],
    policies: &[PolicySpec],
    opts: SweepOptions,
) -> SweepReport {
    let threads = opts.threads.max(1);
    // Split the budget: outer shards over scenarios; if scenarios are
    // scarcer than threads, components soak up the rest. The floor split
    // keeps outer × inner within the budget, and any split yields
    // identical results — this only balances wall-time.
    let inner_threads = (threads / scenarios.len().max(1)).max(1);

    let units: Vec<Scenario> = scenarios.to_vec();
    let mut rows = map_sharded(units, threads, |scenario| {
        let market = scenario.build_market();
        // One decomposition serves the bound and every sharded policy run.
        let components = disjoint_components_sharded(&market, inner_threads);
        let bound = opts.compute_bound.then(|| {
            components_upper_bound(
                &components,
                Objective::Profit,
                UpperBoundOptions::default(),
                inner_threads,
            )
            .expect("column generation on a catalog market")
            .bound
        });
        policies
            .iter()
            .map(|p| {
                let start = Instant::now();
                let assignment = p.assign(&market, Some(&components), inner_threads);
                let profit = assignment
                    .objective_value(&market, Objective::Profit)
                    .as_f64();
                let served = assignment.served_count();
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                SweepCell {
                    scenario: scenario.name.to_string(),
                    policy: p.label(),
                    tasks: market.num_tasks(),
                    drivers: market.num_drivers(),
                    served,
                    profit,
                    ratio: bound.and_then(|b| (b > 0.0).then(|| profit / b)),
                    wall_ms,
                }
            })
            .collect::<Vec<SweepCell>>()
    });

    SweepReport {
        cells: rows.drain(..).flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_core::{solve_greedy, DriverView};

    fn tiny_two() -> Vec<Scenario> {
        Scenario::tiny_catalog().into_iter().take(2).collect()
    }

    #[test]
    fn report_shape_matches_matrix() {
        let scenarios = tiny_two();
        let policies = [PolicySpec::Greedy, PolicySpec::Nearest];
        let r = run_sweep(
            &scenarios,
            &policies,
            SweepOptions {
                threads: 1,
                compute_bound: false,
            },
        );
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.cells[0].scenario, scenarios[0].name);
        assert_eq!(r.cells[1].policy, "nearest");
        assert_eq!(r.cells[2].scenario, scenarios[1].name);
        for c in &r.cells {
            assert!(c.served <= c.tasks);
            assert!(c.ratio.is_none());
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let scenarios = tiny_two();
        let policies = [
            PolicySpec::Greedy,
            PolicySpec::MaxMargin,
            PolicySpec::Batched(TimeDelta::from_mins(2)),
        ];
        let seq = run_sweep(
            &scenarios,
            &policies,
            SweepOptions {
                threads: 1,
                compute_bound: true,
            },
        );
        let par = run_sweep(
            &scenarios,
            &policies,
            SweepOptions {
                threads: 4,
                compute_bound: true,
            },
        );
        assert_eq!(seq.to_json(false), par.to_json(false));
        assert_eq!(seq.to_csv(false), par.to_csv(false));
    }

    #[test]
    fn assign_is_the_runner_behind_every_cell() {
        // The harness fold's pin: what a figure binary reads off `assign`
        // is what `run_sweep` prints, and the offline column is Alg. 1
        // itself whether or not it is solved per component.
        let mut policies = PolicySpec::default_set();
        policies.push(PolicySpec::Random);
        let scenarios = Scenario::tiny_catalog();
        let opts = SweepOptions {
            threads: 1,
            compute_bound: false,
        };
        let report = run_sweep(&scenarios, &policies, opts);
        let mut cells = report.cells.iter();
        for scenario in &scenarios {
            let market = scenario.build_market();
            for policy in &policies {
                let context = format!("{} × {}", scenario.name, policy.label());
                let cell = cells.next().expect("one cell per scenario × policy");
                let assignment = policy.assign(&market, None, 1);
                let profit = assignment.objective_value(&market, Objective::Profit);
                assert_eq!(cell.profit, profit.as_f64(), "{context}");
                assert_eq!(cell.served, assignment.served_count(), "{context}");
            }
            let components = disjoint_components_sharded(&market, 1);
            let greedy = PolicySpec::Greedy.assign(&market, None, 1);
            let sharded = PolicySpec::Greedy.assign(&market, Some(&components), 2);
            assert_eq!(greedy, sharded, "{}", scenario.name);
            let alg1 = solve_greedy(&market, Objective::Profit).assignment;
            assert_eq!(greedy, alg1, "{}", scenario.name);
        }
        assert!(cells.next().is_none());
    }

    #[test]
    fn route_profit_is_the_view_based_formula_bit_for_bit() {
        // `route_profit` reads a route's end costs from the market. It
        // used to read them out of an `O(M)` `DriverView`, whose cost
        // vectors hold `0.0` for a task outside the driver's task map.
        // Pinned over every route every policy produces: none leaves its
        // driver's map, so that formula — restated here, `source_cost` /
        // `sink_cost` being the travel costs `DriverView::new` stores —
        // gives the same bits.
        let mut policies = PolicySpec::default_set();
        policies.push(PolicySpec::Random);
        policies.extend(PolicySpec::w_sweep_set());
        let scenarios = Scenario::catalog()
            .into_iter()
            .chain(Scenario::tiny_catalog());
        let mut routes = 0usize;
        for scenario in scenarios.filter(|s| s.name != "porto-large") {
            let market = scenario.build_market();
            let (ts, speed) = (market.tasks(), market.speed());
            let views: Vec<DriverView> = (0..market.num_drivers())
                .map(|n| DriverView::new(&market, n))
                .collect();
            for policy in &policies {
                let context = format!("{} × {}", scenario.name, policy.label());
                let assignment = policy.assign(&market, None, 1);
                for (d, route) in market.drivers().iter().zip(assignment.routes()) {
                    let Some((last, first)) = route.tasks.last().zip(route.tasks.first()) else {
                        continue;
                    };
                    routes += 1;
                    let view = &views[d.id.index()];
                    for t in &route.tasks {
                        assert!(view.is_allowed(t.index()), "{context}: {} serves {t}", d.id);
                    }
                    let mut total = view.direct_cost().as_f64()
                        - speed
                            .travel_cost(d.source, ts[first.index()].origin)
                            .as_f64();
                    for (k, t) in route.tasks.iter().enumerate() {
                        total += Objective::Profit.margin(&ts[t.index()]).as_f64();
                        if let Some(next) = route.tasks.get(k + 1) {
                            total -= speed
                                .travel_cost(ts[t.index()].destination, ts[next.index()].origin)
                                .as_f64();
                        }
                    }
                    total -= speed
                        .travel_cost(ts[last.index()].destination, d.destination)
                        .as_f64();
                    let profit = assignment.route_profit(&market, Objective::Profit, d.id);
                    assert_eq!(
                        profit.as_f64().to_bits(),
                        total.to_bits(),
                        "{context}: {}",
                        d.id
                    );
                }
            }
        }
        assert!(routes > 2000, "{routes} routes");
    }

    #[test]
    fn ratio_uses_the_bound_denominator() {
        let scenarios: Vec<Scenario> = Scenario::tiny_catalog()
            .into_iter()
            .filter(|s| s.name == "tightness-d4")
            .collect();
        let r = run_sweep(
            &scenarios,
            &[PolicySpec::Greedy],
            SweepOptions {
                threads: 1,
                compute_bound: true,
            },
        );
        let cell = &r.cells[0];
        let ratio = cell.ratio.expect("bound computed");
        // Fig. 2 at D=4, ε=0.05: greedy earns 1, Z_f* ≥ (D+1)(1−ε) = 4.75.
        assert!((cell.profit - 1.0).abs() < 1e-6, "profit {}", cell.profit);
        assert!(ratio <= 1.0 / 4.75 + 1e-3, "ratio {ratio} not tight");
        assert!(ratio > 0.0);
    }

    #[test]
    fn every_catalog_scenario_but_porto_large_converges() {
        // `run_sweep` keeps only `.bound`, so a ratio whose denominator
        // silently became the Lagrangian fallback would look like any
        // other. This is the bound exactly as `run_sweep` computes it.
        for scenario in Scenario::catalog() {
            if scenario.name == "porto-large" {
                continue; // slow in a debug build; the nightly job sweeps it
            }
            let market = scenario.build_market();
            let components = disjoint_components_sharded(&market, 1);
            let ub = components_upper_bound(
                &components,
                Objective::Profit,
                UpperBoundOptions::default(),
                1,
            )
            .expect("column generation on a catalog market");
            assert!(
                ub.converged,
                "{}: {} rounds, {} columns and still pricing",
                scenario.name, ub.rounds, ub.columns
            );
        }
    }

    #[test]
    fn serialisations_are_well_formed() {
        let r = run_sweep(
            &tiny_two()[..1],
            &[PolicySpec::Greedy, PolicySpec::Random],
            SweepOptions {
                threads: 1,
                compute_bound: false,
            },
        );
        let json = r.to_json(true);
        assert!(json.contains("\"schema\": \"rideshare-sweep/1\""));
        assert!(json.contains("\"wall_ms\""));
        assert!(!r.to_json(false).contains("wall_ms"));
        let csv = r.to_csv(false);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("scenario,policy,"));
        let table = r.render();
        assert!(table.contains("greedy") && table.contains("random"));
    }

    #[test]
    fn from_json_inverts_the_canonical_form() {
        // The checked-in snapshot survives the round trip byte for byte.
        let snapshot = include_str!("../../../tests/snapshots/sweep_tiny.json");
        let report = SweepReport::from_json(snapshot).expect("snapshot parses");
        assert_eq!(report.to_json(false), snapshot);
        // Timed output reads back to the same cells; so does a skipped
        // bound's `null` ratio.
        let mut unbounded = SweepReport::from_json(&report.to_json(true)).expect("timed form");
        assert_eq!(unbounded.to_json(false), snapshot);
        unbounded.cells[0].ratio = None;
        let text = unbounded.to_json(false);
        let read = SweepReport::from_json(&text).expect("null ratio parses");
        assert_eq!(read.to_json(false), text);

        let other = snapshot.replace(SCHEMA, "rideshare-sweep/2");
        let err = SweepReport::from_json(&other).unwrap_err();
        assert!(err.contains("rideshare-sweep/2"), "{err}");
        let err = SweepReport::from_json(&snapshot.replacen("\"served\"", "\"fed\"", 1));
        assert!(err.unwrap_err().contains("served"));
        assert!(SweepReport::from_json("{").is_err());
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [
            PolicySpec::Greedy,
            PolicySpec::MaxMargin,
            PolicySpec::Nearest,
            PolicySpec::Random,
            PolicySpec::Batched(TimeDelta::from_mins(5)),
            PolicySpec::Batched(TimeDelta::from_secs(90)),
            PolicySpec::BatchedOptimal(TimeDelta::from_mins(5)),
            PolicySpec::BatchedOptimal(TimeDelta::from_secs(90)),
        ] {
            assert_eq!(PolicySpec::parse(&p.label()), Some(p));
        }
        for p in PolicySpec::w_sweep_set() {
            assert_eq!(PolicySpec::parse(&p.label()), Some(p));
        }
        // Distinct sub-minute windows get distinct labels.
        assert_eq!(
            PolicySpec::Batched(TimeDelta::from_secs(150)).label(),
            "batch-150s"
        );
        assert_eq!(
            PolicySpec::Batched(TimeDelta::from_secs(180)).label(),
            "batch-3m"
        );
        assert_eq!(
            PolicySpec::BatchedOptimal(TimeDelta::from_secs(180)).label(),
            "batch-opt-3m"
        );
        assert_eq!(PolicySpec::parse("margin"), Some(PolicySpec::MaxMargin));
        assert!(PolicySpec::parse("batch-xm").is_none());
        assert!(PolicySpec::parse("batch-opt-xm").is_none());
        assert!(PolicySpec::parse("no-such").is_none());
        // A window that overflows the multiply (the first is 2⁶⁴ + 44
        // seconds: it used to run as `batch-44s`), fits `i64` but not
        // `timestamp + window`, or is merely past the bound, is no label.
        for label in [
            "batch-307445734561825861m",
            "batch-opt-153722867280912931m",
            "batch-9223372036854775807s",
            "batch-31622401s",
            "batch-opt-527041m",
            "batch--1m",
        ] {
            assert_eq!(PolicySpec::parse(label), None, "{label}");
        }
        let longest = PolicySpec::Batched(TimeDelta::from_secs(MAX_WINDOW_SECS));
        assert_eq!(longest.label(), "batch-527040m");
        assert_eq!(PolicySpec::parse("batch-527040m"), Some(longest));
        assert_eq!(PolicySpec::parse("batch-31622400s"), Some(longest));
    }
}
