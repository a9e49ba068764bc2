//! The clairvoyance regression suite (the acceptance tests for the batch
//! engine rebuild).
//!
//! The original batch engine computed a batch decision time and then let
//! drivers depart at task *publish* time — dispatching on a decision that
//! did not exist yet. These tests pin the corrected semantics:
//!
//! - a task published at the window start whose only driver is free
//!   immediately still departs no earlier than the batch decision time,
//! - batched profit with `W > 0` never exceeds the same market's offline
//!   greedy (time travel was the only way to beat it from inside a
//!   window),
//! - grid-pruned batch candidate generation (`replay_market`) is
//!   byte-identical to the full-scan path (a bare `replay_stream` with
//!   the test-only `StreamOptions::fold_oracle()`) on catalog scenarios.

use rideshare::prelude::*;

/// `market` held for `window` and closed by `matcher`, through the
/// front-end.
fn batched(market: &Market, window: TimeDelta, matcher: MatcherKind) -> SimulationResult {
    let spec = ShardPolicySpec::Batched { window, matcher };
    replay_market(market, spec.holder())
}

/// The same, through the linear-scan stream (the test-only fold).
fn batched_scan(market: &Market, window: TimeDelta, matcher: MatcherKind) -> SimulationResult {
    let spec = ShardPolicySpec::Batched { window, matcher };
    let mut sink = CollectingSink::new();
    let _ = replay_stream(
        market.speed(),
        market_events(market),
        spec.holder(),
        StreamOptions::fold_oracle(),
        &mut sink,
    );
    sink.into_result()
}

/// One driver sitting exactly on the pickup of one task, both live from
/// t = 0 with deadlines far beyond the window.
fn single_driver_market() -> Market {
    let at = GeoPoint::new(41.15, -8.61);
    let task = rideshare::core::Task {
        id: TaskId::new(0),
        publish_time: Timestamp::from_secs(0),
        origin: at,
        destination: at.offset_km(0.0, 2.0),
        pickup_deadline: Timestamp::from_secs(3_600),
        completion_deadline: Timestamp::from_secs(7_200),
        duration: TimeDelta::from_secs(300),
        price: Money::new(8.0),
        valuation: Money::new(9.0),
        service_cost: Money::ZERO,
    };
    let driver = rideshare::core::Driver {
        id: DriverId::new(0),
        source: at,
        destination: at,
        shift_start: Timestamp::from_secs(0),
        shift_end: Timestamp::from_secs(50_000),
        model: DriverModel::HomeWorkHome,
    };
    Market::new(
        vec![driver],
        vec![task],
        SpeedModel::new(60.0, 1.0, 0.1),
        None,
    )
}

#[test]
fn departure_waits_for_the_batch_decision() {
    // Task published at the window start, driver free immediately *at the
    // pickup*: the clairvoyant engine departed (and arrived) at t = 0.
    // The corrected engine decides at the window end W = 5 min, so the
    // recorded departure/arrival is exactly t = 300.
    let market = single_driver_market();
    let w = TimeDelta::from_mins(5);
    for matcher in [MatcherKind::Greedy, MatcherKind::Optimal] {
        let r = batched(&market, w, matcher);
        assert_eq!(r.served, 1, "{matcher:?}");
        let e = &r.events[0];
        assert_eq!(e.decision_time, Timestamp::from_secs(300), "{matcher:?}");
        assert!(
            e.arrival >= e.decision_time,
            "{matcher:?}: departure at {} predates the decision at {}",
            e.arrival,
            e.decision_time
        );
        assert_eq!(e.arrival, Timestamp::from_secs(300), "{matcher:?}");
        assert_eq!(
            e.wait,
            TimeDelta::from_secs(300),
            "batching pays its latency"
        );
        validate_online_result(&market, &r).unwrap();
    }
    // Instant dispatch on the same market really is instant — the 300 s
    // above is the cost of batching, not an artefact of the market.
    let instant = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
    assert_eq!(instant.events[0].arrival, Timestamp::from_secs(0));
}

#[test]
fn batched_never_beats_offline_greedy() {
    // With honest timing, holding orders can only trade latency for
    // matching quality; it cannot manufacture profit the offline greedy
    // (which sees the whole day) could not reach.
    for seed in [11u64, 23, 47] {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(150)
            .with_driver_count(20, DriverModel::Hitchhiking)
            .generate();
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let offline = solve_greedy(&market, Objective::Profit)
            .assignment
            .objective_value(&market, Objective::Profit)
            .as_f64();
        for mins in [1i64, 3, 10, 30] {
            for matcher in [MatcherKind::Greedy, MatcherKind::Optimal] {
                let profit = batched(&market, TimeDelta::from_mins(mins), matcher)
                    .total_profit(&market)
                    .as_f64();
                assert!(
                    profit <= offline + 1e-6,
                    "seed {seed}, W = {mins}m, {matcher:?}: batched {profit} beats \
                     offline greedy {offline}"
                );
            }
        }
    }
}

#[test]
fn grid_oracle_on_catalog_scenarios() {
    // Grid pruning must be invisible in the results on real catalog
    // markets, not just random miniatures: same dispatch vector, same
    // events, byte for byte.
    for name in ["tiny-rides", "tiny-delivery", "porto-day"] {
        let market = Scenario::by_name(name)
            .expect("catalog name")
            .build_market();
        for matcher in [MatcherKind::Greedy, MatcherKind::Optimal] {
            let window = TimeDelta::from_mins(3);
            let scan = batched_scan(&market, window, matcher);
            let grid = batched(&market, window, matcher);
            assert_eq!(scan.dispatch, grid.dispatch, "{name} {matcher:?}");
            assert_eq!(scan.events, grid.events, "{name} {matcher:?}");
            assert_eq!(scan.rejected, grid.rejected, "{name} {matcher:?}");
        }
    }
}

#[test]
#[ignore = "heavy: run with --ignored for the porto-large oracle"]
fn grid_oracle_on_porto_large() {
    let market = Scenario::by_name("porto-large")
        .expect("catalog name")
        .build_market();
    let window = TimeDelta::from_mins(3);
    let scan = batched_scan(&market, window, MatcherKind::Greedy);
    let grid = batched(&market, window, MatcherKind::Greedy);
    assert_eq!(scan.dispatch, grid.dispatch);
    assert_eq!(scan.events, grid.events);
}
