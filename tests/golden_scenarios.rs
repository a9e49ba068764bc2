//! Golden regression tests: exact pinned results for small seeded
//! scenarios.
//!
//! Every number here was produced by the current implementation and is
//! pinned on purpose: any future optimisation that changes *results* (not
//! just speed) must fail these tests loudly and update the goldens in the
//! same commit, with the change called out in review. Determinism across
//! debug/release and thread counts is what makes exact pins possible.

use rideshare::prelude::*;

#[path = "golden_scenarios/digests.rs"]
mod digests;

/// One pinned `(scenario, policy)` outcome.
struct Golden {
    scenario: &'static str,
    policy: PolicySpec,
    served: usize,
    /// Profit rounded to 4 decimals (the report's serialisation precision).
    profit: f64,
    /// Performance ratio vs `Z_f*`, rounded to 4 decimals. Online policies
    /// may legally exceed 1.0: early finishes relax the offline task map.
    ratio: f64,
}

const PROFIT_TOL: f64 = 5e-5;
const RATIO_TOL: f64 = 5e-5;

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            scenario: "tiny-rides",
            policy: PolicySpec::Greedy,
            served: 6,
            profit: 69.4154,
            ratio: 0.9210,
        },
        Golden {
            scenario: "tiny-rides",
            policy: PolicySpec::MaxMargin,
            served: 4,
            profit: 49.6007,
            ratio: 0.6581,
        },
        Golden {
            scenario: "tiny-delivery",
            policy: PolicySpec::Greedy,
            served: 18,
            profit: 806.7679,
            ratio: 0.9728,
        },
        Golden {
            scenario: "tiny-delivery",
            policy: PolicySpec::Nearest,
            served: 36,
            profit: 1091.0402,
            ratio: 1.3156,
        },
        Golden {
            scenario: "tiny-rush",
            policy: PolicySpec::Greedy,
            served: 5,
            profit: 28.5556,
            ratio: 1.0000,
        },
        Golden {
            scenario: "tightness-d4",
            policy: PolicySpec::Greedy,
            served: 4,
            profit: 1.0000,
            // Analytic: greedy earns 1, Z_f* = (D+1)(1−ε) = 4.75 → 1/4.75.
            ratio: 0.2105,
        },
        Golden {
            scenario: "tightness-d4",
            policy: PolicySpec::MaxMargin,
            served: 5,
            profit: 4.7500,
            ratio: 1.0000,
        },
    ]
}

#[test]
fn pinned_scenarios_reproduce_exactly() {
    let scenarios: Vec<Scenario> = Scenario::tiny_catalog();
    let policies = [
        PolicySpec::Greedy,
        PolicySpec::MaxMargin,
        PolicySpec::Nearest,
    ];
    let report = run_sweep(
        &scenarios,
        &policies,
        SweepOptions {
            threads: 1,
            compute_bound: true,
        },
    );
    for g in goldens() {
        let cell = report
            .cells
            .iter()
            .find(|c| c.scenario == g.scenario && c.policy == g.policy.label())
            .unwrap_or_else(|| panic!("missing cell {} × {}", g.scenario, g.policy.label()));
        assert_eq!(
            cell.served,
            g.served,
            "{} × {}: served drifted",
            g.scenario,
            g.policy.label()
        );
        assert!(
            (cell.profit - g.profit).abs() < PROFIT_TOL,
            "{} × {}: profit {} != pinned {}",
            g.scenario,
            g.policy.label(),
            cell.profit,
            g.profit
        );
        let ratio = cell.ratio.expect("bound requested");
        assert!(
            (ratio - g.ratio).abs() < RATIO_TOL,
            "{} × {}: ratio {} != pinned {}",
            g.scenario,
            g.policy.label(),
            ratio,
            g.ratio
        );
    }
}

/// Every pinned online cell through the materialized front-ends
/// (`replay_market`, and `replay_market_by_value` for §V-B's value order):
/// not one decision, timestamp or margin bit may differ from the recorded
/// digests. A deliberate change
/// of results updates `golden_scenarios/digests.rs` from the table this
/// prints.
#[test]
fn online_results_match_the_pinned_digests() {
    let mut computed = Vec::new();
    for scenario in Scenario::tiny_catalog() {
        let market = scenario.build_market();
        let mut runs: Vec<(&str, SimulationResult)> =
            ["maxMargin", "nearest", "batch-3m", "batch-opt-3m"]
                .into_iter()
                .map(|label| {
                    let spec = PolicySpec::parse(label).and_then(|p| p.stream_spec());
                    let spec = spec.expect("an online column");
                    (
                        label,
                        replay_market(&market, &mut spec.holder().as_policy()),
                    )
                })
                .collect();
        if scenario.name == "tiny-rides" {
            let sorted = replay_market_by_value(&market, &mut MaxMargin::new());
            runs.push(("maxMargin/value-sorted", sorted));
        }
        for (policy, result) in runs {
            computed.push((scenario.name, policy, digests::result_digest(&result)));
        }
    }
    let table: Vec<String> = computed
        .iter()
        .map(|(s, p, d)| format!("    (\"{s}\", \"{p}\", {d:#018x}),"))
        .collect();
    for (scenario, policy, digest) in &computed {
        assert_eq!(
            digests::pinned(scenario, policy),
            Some(*digest),
            "{scenario} × {policy} drifted; computed table:\n{}",
            table.join("\n")
        );
    }
    assert_eq!(computed.len(), 17, "a pinned cell was not run");
}

#[test]
fn goldens_are_thread_count_invariant() {
    // The same matrix on 3 threads must reproduce the same pinned numbers
    // (sharding is result-neutral by construction).
    let scenarios = Scenario::tiny_catalog();
    let policies = [PolicySpec::Greedy];
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
            threads: 3,
            compute_bound: true,
        },
    );
    assert_eq!(seq.to_json(false), par.to_json(false));
}

#[test]
fn tightness_family_ratio_is_analytic() {
    // The Fig. 2 family's pinned ratio is not an accident of seeds: it is
    // the theorem's 1/((D+1)(1−ε)), checked here from first principles.
    let inst = rideshare::core::tightness::fig2_instance(4, 0.05);
    let greedy = solve_greedy(&inst.market, Objective::Profit);
    let profit = greedy
        .assignment
        .objective_value(&inst.market, Objective::Profit)
        .as_f64();
    assert!((profit - inst.expected_greedy()).abs() < 1e-6);
    let ub = lp_upper_bound(
        &inst.market,
        Objective::Profit,
        UpperBoundOptions::default(),
    )
    .unwrap();
    assert!(
        (ub.bound - inst.expected_opt()).abs() < 1e-3,
        "Z_f* {} vs analytic optimum {}",
        ub.bound,
        inst.expected_opt()
    );
}
