//! Property tests for the batched dispatcher (`replay_market` under a
//! batched policy).
//!
//! Three doc claims of `rideshare-online`'s `batch` module become
//! executable here:
//!
//! 1. every hold window `W ≥ 0`, under either matcher, yields a
//!    `validate_online_result`-clean outcome — online-feasible routes,
//!    full task accounting, **and dispatch causality** (no departure
//!    precedes its dispatch decision; the validator replays every route
//!    with decision-time departures and demands exact agreement),
//! 2. with `W = 0` and distinct publish times (a zero window still batches
//!    same-instant ties), the batched dispatcher degenerates to the
//!    per-task maxMargin dispatch exactly — same dispatch vector, same
//!    profit (also pinned by a fixed-seed regression test below), and
//! 3. grid-pruned candidate generation changes nothing but wall-time: the
//!    full-scan stream and the (always gridded) front-end produce
//!    byte-identical dispatches and events for random traces and windows.

use proptest::prelude::*;

use rideshare::prelude::*;

/// `market` held for `window` and closed by `matcher`.
fn batched(market: &Market, window: TimeDelta, matcher: MatcherKind) -> SimulationResult {
    let spec = ShardPolicySpec::Batched { window, matcher };
    replay_market(market, &mut spec.holder().as_policy())
}

/// `market` under instant maxMargin.
fn max_margin(market: &Market) -> SimulationResult {
    replay_market(market, &mut StreamPolicy::Instant(&mut MaxMargin::new()))
}

fn porto_market(seed: u64, tasks: usize, drivers: usize, hitch: bool) -> Market {
    let model = if hitch {
        DriverModel::Hitchhiking
    } else {
        DriverModel::HomeWorkHome
    };
    let trace = TraceConfig::porto()
        .with_seed(seed)
        .with_task_count(tasks)
        .with_driver_count(drivers, model)
        .generate();
    Market::from_trace(&trace, &MarketBuildOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_window_is_feasible_and_causal(
        seed in 0u64..10_000,
        tasks in 1usize..60,
        drivers in 0usize..8,
        hitch in any::<bool>(),
        window_mins in 0i64..40,
        optimal in any::<bool>(),
    ) {
        let market = porto_market(seed, tasks, drivers, hitch);
        let matcher = if optimal { MatcherKind::Optimal } else { MatcherKind::Greedy };
        let window = TimeDelta::from_mins(window_mins);
        let r = batched(&market, window, matcher);
        // Feasibility + causality in one validator: routes replay cleanly
        // AND departing at each event's recorded decision time reproduces
        // each recorded arrival exactly.
        prop_assert!(validate_online_result(&market, &r).is_ok());
        prop_assert_eq!(r.served + r.rejected, market.num_tasks());
        prop_assert_eq!(r.served, r.assignment.served_count());
        for e in &r.events {
            let task = &market.tasks()[e.task.index()];
            // A task is decided within its own window, never before it is
            // published and never after its pickup deadline.
            prop_assert!(e.decision_time >= task.publish_time);
            prop_assert!(e.decision_time <= (task.publish_time + window).min(task.pickup_deadline));
            prop_assert!(e.arrival >= e.decision_time, "departure predates decision");
            prop_assert!(e.wait.is_non_negative());
        }
    }

    #[test]
    fn zero_window_degenerates_to_max_margin(
        seed in 0u64..10_000,
        tasks in 1usize..60,
        drivers in 0usize..8,
        hitch in any::<bool>(),
    ) {
        let market = porto_market(seed, tasks, drivers, hitch);
        // A zero window still merges same-second publishes into one batch,
        // where joint greedy matching may legitimately differ from
        // task-at-a-time dispatch — the doc claim is about the tie-free
        // case, so skip markets with publish-time collisions.
        let mut publishes: Vec<_> = market.tasks().iter().map(|t| t.publish_time).collect();
        publishes.sort();
        let distinct = publishes.windows(2).all(|w| w[0] != w[1]);
        if distinct {
            let zero = batched(&market, TimeDelta::ZERO, MatcherKind::Greedy);
            let instant = max_margin(&market);
            prop_assert_eq!(&zero.dispatch, &instant.dispatch);
            prop_assert_eq!(zero.served, instant.served);
            prop_assert_eq!(zero.rejected, instant.rejected);
            let pb = zero.total_profit(&market);
            let pi = instant.total_profit(&market);
            prop_assert!(pb.approx_eq(pi), "batched {pb} vs instant {pi}");
        }
    }

    #[test]
    fn grid_pruning_is_result_neutral(
        seed in 0u64..10_000,
        tasks in 1usize..60,
        drivers in 0usize..10,
        window_mins in 0i64..40,
        optimal in any::<bool>(),
    ) {
        let market = porto_market(seed, tasks, drivers, true);
        let matcher = if optimal { MatcherKind::Optimal } else { MatcherKind::Greedy };
        let window = TimeDelta::from_mins(window_mins);
        let spec = ShardPolicySpec::Batched { window, matcher };
        let mut sink = CollectingSink::new();
        let _ = replay_stream(
            market.speed(),
            market_events(&market),
            &mut spec.holder().as_policy(),
            StreamOptions::default(),
            &mut sink,
        );
        let scan = sink.into_result();
        let grid = batched(&market, window, matcher);
        prop_assert_eq!(&scan.dispatch, &grid.dispatch);
        prop_assert_eq!(&scan.events, &grid.events);
        prop_assert_eq!(scan.rejected, grid.rejected);
    }

    #[test]
    fn wider_windows_never_lose_feasibility(
        seed in 0u64..5_000,
        tasks in 1usize..50,
        drivers in 1usize..8,
    ) {
        // Monotonicity is not guaranteed for profit, but feasibility and
        // accounting must hold across the whole window sweep of one market.
        let market = porto_market(seed, tasks, drivers, true);
        for mins in [0i64, 1, 5, 15, 60] {
            let r = batched(&market, TimeDelta::from_mins(mins), MatcherKind::Greedy);
            prop_assert!(validate_online_result(&market, &r).is_ok(), "W = {mins}m");
            prop_assert_eq!(r.served + r.rejected, market.num_tasks());
        }
    }
}

/// Pinned regression (not a property): `W = 0` still degenerates to
/// per-task maxMargin on a fixed, distinct-publish-time market. If the
/// engine's window bucketing or the greedy matcher's tie-break ever drifts,
/// this fails before the sweep snapshot does.
#[test]
fn zero_window_regression_pin() {
    let market = porto_market(63, 150, 25, true);
    let mut publishes: Vec<_> = market.tasks().iter().map(|t| t.publish_time).collect();
    publishes.sort();
    assert!(
        publishes.windows(2).all(|w| w[0] != w[1]),
        "seed 63 must keep distinct publish times for this pin"
    );
    let zero = batched(&market, TimeDelta::ZERO, MatcherKind::Greedy);
    let instant = max_margin(&market);
    assert_eq!(zero.dispatch, instant.dispatch);
    assert_eq!(zero.events, instant.events);
    assert_eq!(zero.served, instant.served);
    assert_eq!(zero.rejected, instant.rejected);
}
