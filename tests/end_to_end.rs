//! End-to-end integration: trace → market → every solver → validation,
//! with the paper's dominance chain `algorithm ≤ Z* ≤ Z_f*` checked on one
//! instance family.

use rideshare::prelude::*;

fn build(seed: u64, tasks: usize, drivers: usize, model: DriverModel) -> Market {
    let trace = TraceConfig::porto()
        .with_seed(seed)
        .with_task_count(tasks)
        .with_driver_count(drivers, model)
        .generate();
    Market::from_trace(&trace, &MarketBuildOptions::default())
}

#[test]
fn dominance_chain_on_small_instances() {
    for seed in [1u64, 2, 3] {
        let market = build(seed, 12, 4, DriverModel::Hitchhiking);

        let greedy = solve_greedy(&market, Objective::Profit);
        greedy.assignment.validate(&market).unwrap();
        let g = greedy
            .assignment
            .objective_value(&market, Objective::Profit)
            .as_f64();

        let exact = solve_exact(&market, Objective::Profit).unwrap();
        assert!(exact.proven_optimal, "seed {seed}");
        exact.assignment.validate(&market).unwrap();

        let ub = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default()).unwrap();
        assert!(ub.converged, "seed {seed}");

        assert!(
            g <= exact.objective_value + 1e-6,
            "seed {seed}: greedy {g} > Z* {}",
            exact.objective_value
        );
        assert!(
            exact.objective_value <= ub.bound + 1e-4,
            "seed {seed}: Z* {} > Z_f* {}",
            exact.objective_value,
            ub.bound
        );

        // Theorem 1: greedy ≥ OPT / (D+1).
        let d = market.chain_diameter() as f64;
        assert!(
            g + 1e-6 >= exact.objective_value / (d + 1.0),
            "seed {seed}: greedy {g} below 1/(D+1) of Z* {}",
            exact.objective_value
        );
    }
}

#[test]
fn online_heuristics_feasible_and_bounded() {
    let market = build(11, 150, 25, DriverModel::Hitchhiking);
    let bound = lp_upper_bound(&market, Objective::Profit, UpperBoundOptions::default())
        .unwrap()
        .bound;
    for rule in [
        InstantRule::MaxMargin,
        InstantRule::Nearest { seed: 1 },
        InstantRule::random(1),
    ] {
        let r = replay_market(&market, StreamPolicy::Instant(rule));
        validate_online(&market, &r.assignment).unwrap();
        assert!(
            r.total_profit(&market).as_f64() <= bound + 1e-6,
            "online profit exceeds Z_f*"
        );
    }
}

#[test]
fn greedy_dominates_online_in_profit() {
    // The offline algorithm sees all tasks in advance; across seeds it
    // should never lose to the online heuristics on total profit.
    for seed in [21u64, 22, 23] {
        let market = build(seed, 200, 30, DriverModel::Hitchhiking);
        let offline = solve_greedy(&market, Objective::Profit)
            .assignment
            .objective_value(&market, Objective::Profit)
            .as_f64();
        let online = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin))
            .total_profit(&market)
            .as_f64();
        assert!(
            offline >= online - 1e-6,
            "seed {seed}: offline {offline} < online {online}"
        );
    }
}

#[test]
fn both_driver_models_run_cleanly() {
    for model in [DriverModel::Hitchhiking, DriverModel::HomeWorkHome] {
        let market = build(31, 100, 15, model);
        let greedy = solve_greedy(&market, Objective::Profit);
        greedy.assignment.validate(&market).unwrap();
        let r = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
        validate_online(&market, &r.assignment).unwrap();
        let m = MarketMetrics::of(&market, &r.assignment);
        assert!(m.served_rate <= 1.0);
    }
}

#[test]
fn welfare_never_below_profit_for_same_assignment() {
    // bₘ ≥ pₘ pointwise, so any fixed assignment's welfare value dominates
    // its profit value.
    let market = build(41, 120, 20, DriverModel::Hitchhiking);
    let a = solve_greedy(&market, Objective::Profit).assignment;
    let p = a.objective_value(&market, Objective::Profit).as_f64();
    let w = a.objective_value(&market, Objective::Welfare).as_f64();
    assert!(w + 1e-9 >= p, "welfare {w} < profit {p}");
}

#[test]
fn facade_prelude_covers_the_pipeline() {
    // Everything used above came through `rideshare::prelude` — this test
    // exists to pin the prelude's surface.
    let market = build(51, 30, 5, DriverModel::Hitchhiking);
    let money: Money = market.tasks()[0].price;
    let _ = money + Money::new(1.0);
    let id: TaskId = market.tasks()[0].id;
    assert_eq!(id.index(), 0);
    let t: Timestamp = market.tasks()[0].publish_time;
    let _ = t + TimeDelta::from_secs(1);
    let d: DriverId = market.drivers()[0].id;
    assert_eq!(d.index(), 0);
}
