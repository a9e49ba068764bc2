//! The spatial grid index is an *index*, not a semantics change: for every
//! market and every policy, `replay_market` — which prunes over the
//! market's box — must produce the same `SimulationResult` as the linear
//! fold (`StreamOptions::fold_oracle()`, compiled for tests only) and as a
//! bare `replay_stream` with `StreamOptions::default()`, whose grid spans
//! the unit box and so holds every Porto point in one border cell.
//!
//! Promoted from a single-seed unit test to a property over random
//! `TraceConfig`s, per the regression-suite charter: any future tuning of
//! the grid (cell counts, radius maths) that drops or reorders a candidate
//! set fails here. §V-B's value order (`replay_market_by_value`) runs the
//! decision clock backwards, which no stream can; its half of the property
//! lives at the fleet level (`candidates.rs`'s
//! `grid_pruning_is_lossless_at_any_decision_time`).

use proptest::prelude::*;

use rideshare::prelude::*;

/// A clone of `policy` over `market` through the front-end, through the
/// fold and through a bare stream over the default box; `true` when every
/// field of all three agrees.
fn grid_matches_scan(market: &Market, policy: &StreamPolicy) -> bool {
    let grid = replay_market(market, policy.clone());
    let stream = |options| {
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            market.speed(),
            market_events(market),
            policy.clone(),
            options,
            &mut sink,
        );
        sink.into_result()
    };
    [StreamOptions::fold_oracle(), StreamOptions::default()]
        .map(stream)
        .iter()
        .all(|run| {
            run.dispatch == grid.dispatch
                && run.served == grid.served
                && run.rejected == grid.rejected
                && run.events == grid.events
                && run.assignment.routes() == grid.assignment.routes()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn grid_and_linear_scan_are_equivalent(
        seed in 0u64..10_000,
        tasks in 1usize..80,
        drivers in 0usize..15,
        hitch in any::<bool>(),
        policy in 0usize..5,
        policy_seed in 0u64..100,
        window_mins in 0i64..30,
    ) {
        let model = if hitch { DriverModel::Hitchhiking } else { DriverModel::HomeWorkHome };
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, model)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let window = TimeDelta::from_mins(window_mins);
        let chosen = match policy {
            0 => StreamPolicy::Instant(InstantRule::MaxMargin),
            1 => StreamPolicy::Instant(InstantRule::Nearest { seed: policy_seed }),
            2 => StreamPolicy::Instant(InstantRule::random(policy_seed)),
            3 => StreamPolicy::Batched { window, matcher: MatcherKind::Greedy },
            _ => StreamPolicy::Batched { window, matcher: MatcherKind::Optimal },
        };
        prop_assert!(
            grid_matches_scan(&market, &chosen),
            "grid/linear divergence at seed {seed}, {tasks}×{drivers}, policy {policy}"
        );
    }
}

#[test]
fn grid_equivalence_on_delivery_and_rush_presets() {
    // The catalog's structurally different workloads (depot clustering,
    // twin peaks) get a deterministic pass of the same property.
    for scenario in Scenario::tiny_catalog() {
        let market = scenario.build_market();
        let ok = grid_matches_scan(&market, &StreamPolicy::Instant(InstantRule::MaxMargin));
        assert!(ok, "grid/linear divergence on {}", scenario.name);
    }
}
