//! Integration tests of the Fig. 2 adversarial family (Lemma 3): the
//! 1/(D+1) approximation ratio of GA is tight, verified end-to-end on
//! geometric instances through the real solvers.

use rideshare::core::tightness::fig2_instance;
use rideshare::prelude::*;

#[test]
fn greedy_profit_is_one_across_family() {
    for d in 1..=6 {
        for eps in [0.01, 0.05, 0.2] {
            let inst = fig2_instance(d, eps);
            let ga = solve_greedy(&inst.market, Objective::Profit);
            ga.assignment.validate(&inst.market).unwrap();
            let p = ga
                .assignment
                .objective_value(&inst.market, Objective::Profit)
                .as_f64();
            assert!((p - 1.0).abs() < 1e-3, "D={d} eps={eps}: GA profit {p}");
        }
    }
}

#[test]
fn exact_optimum_matches_lemma_three() {
    for d in 1..=3 {
        let inst = fig2_instance(d, 0.1);
        let exact =
            solve_exact(&inst.market, Objective::Profit).expect("small instance solves exactly");
        assert!(exact.proven_optimal);
        exact.assignment.validate(&inst.market).unwrap();
        let want = (d as f64 + 1.0) * 0.9;
        assert!(
            (exact.objective_value - want).abs() < 1e-3,
            "D={d}: Z* = {} want {want}",
            exact.objective_value
        );
        // The optimum spreads work across all D+1 drivers.
        assert_eq!(exact.assignment.active_driver_count(), d + 1);
    }
}

#[test]
fn ratio_converges_to_theoretical_floor_as_eps_shrinks() {
    let d = 3;
    let mut last_gap = f64::INFINITY;
    for eps in [0.2, 0.05, 0.01] {
        let inst = fig2_instance(d, eps);
        let ratio = 1.0 / inst.expected_opt();
        let floor = 1.0 / (d as f64 + 1.0);
        let gap = ratio - floor;
        assert!(gap > 0.0, "ratio must stay above the floor");
        assert!(gap < last_gap, "gap must shrink as eps shrinks");
        last_gap = gap;
    }
}

#[test]
fn lp_bound_brackets_the_family() {
    for d in 1..=4 {
        let inst = fig2_instance(d, 0.05);
        let ub = lp_upper_bound(
            &inst.market,
            Objective::Profit,
            UpperBoundOptions::default(),
        )
        .unwrap();
        assert!(
            ub.bound + 1e-4 >= inst.expected_opt(),
            "D={d}: Z_f* {} below OPT {}",
            ub.bound,
            inst.expected_opt()
        );
    }
}

#[test]
fn online_heuristics_on_adversarial_instance_stay_feasible() {
    // The Fig. 2 instance is an offline construction, but the online
    // simulator must still replay it without violating feasibility.
    let inst = fig2_instance(4, 0.05);
    for rule in [InstantRule::MaxMargin, InstantRule::Nearest { seed: 0 }] {
        let r = replay_market(&inst.market, StreamPolicy::Instant(rule));
        validate_online(&inst.market, &r.assignment).unwrap();
    }
}
