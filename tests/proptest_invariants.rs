//! Property-based tests of the framework's core invariants.

use proptest::prelude::*;

use rideshare::lp::{Cmp, LinearProgram, PackingLp};
use rideshare::prelude::*;
use rideshare::trace::{trips_from_csv, trips_to_csv};

// ---------------------------------------------------------------------------
// Money / time arithmetic.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn money_addition_commutes(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let (x, y) = (Money::new(a), Money::new(b));
        prop_assert!((x + y).approx_eq(y + x));
        prop_assert!((x - y).approx_eq(-(y - x)));
    }

    #[test]
    fn money_sum_matches_fold(xs in proptest::collection::vec(-1e4f64..1e4, 0..50)) {
        let total: Money = xs.iter().map(|&v| Money::new(v)).sum();
        let fold = xs.iter().fold(0.0, |acc, v| acc + v);
        prop_assert!((total.as_f64() - fold).abs() < 1e-6);
    }

    #[test]
    fn timestamp_delta_round_trip(t in -1_000_000i64..1_000_000, d in -1_000_000i64..1_000_000) {
        let ts = Timestamp::from_secs(t);
        let delta = TimeDelta::from_secs(d);
        prop_assert_eq!((ts + delta) - delta, ts);
        prop_assert_eq!((ts + delta) - ts, delta);
    }
}

// ---------------------------------------------------------------------------
// Packing LP vs dense simplex on random packing instances.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn packing_lp_matches_dense_simplex(
        rows in 2usize..8,
        cols in proptest::collection::vec(
            (0.1f64..10.0, proptest::collection::vec(any::<bool>(), 8)),
            1..16,
        ),
    ) {
        let mut packing = PackingLp::new(rows);
        let mut dense = LinearProgram::maximize();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); rows];
        for (j, (cost, mask)) in cols.iter().enumerate() {
            let mut support: Vec<usize> =
                (0..rows).filter(|&r| mask[r]).collect();
            if support.is_empty() {
                support.push(j % rows);
            }
            packing.add_column(*cost, &support);
            let v = dense.add_var(*cost);
            for &r in &support {
                members[r].push(v);
            }
        }
        for m in members {
            let coeffs = m.into_iter().map(|v| (v, 1.0)).collect();
            dense.add_constraint(coeffs, Cmp::Le, 1.0);
        }
        let p = packing.optimize().unwrap();
        let d = dense.solve().unwrap().objective;
        // One-sided perturbation bound.
        prop_assert!(p + 1e-9 >= d && p - d < 1e-3, "packing {p} vs dense {d}");
    }
}

// ---------------------------------------------------------------------------
// Trace and market invariants on random configurations.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn generated_markets_always_validate(
        seed in 0u64..1000,
        tasks in 1usize..40,
        drivers in 0usize..10,
        hitch in any::<bool>(),
    ) {
        let model = if hitch { DriverModel::Hitchhiking } else { DriverModel::HomeWorkHome };
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .with_driver_count(drivers, model)
            .generate();
        for t in &trace.trips {
            prop_assert!(t.validate().is_ok());
        }
        for d in &trace.drivers {
            prop_assert!(d.validate().is_ok());
        }
        let market = Market::from_trace(&trace, &MarketBuildOptions::default());
        let greedy = solve_greedy(&market, Objective::Profit);
        prop_assert!(greedy.assignment.validate(&market).is_ok());
        // Greedy profit is never negative (it only commits positive paths).
        prop_assert!(
            !greedy
                .assignment
                .objective_value(&market, Objective::Profit)
                .is_strictly_negative()
        );

        let r = replay_market(&market, StreamPolicy::Instant(InstantRule::MaxMargin));
        prop_assert!(validate_online(&market, &r.assignment).is_ok());
    }

    #[test]
    fn trip_csv_round_trips(seed in 0u64..500, tasks in 1usize..30) {
        let trace = TraceConfig::porto()
            .with_seed(seed)
            .with_task_count(tasks)
            .generate();
        let back = trips_from_csv(&trips_to_csv(&trace.trips)).unwrap();
        prop_assert_eq!(back.len(), trace.trips.len());
        for (a, b) in trace.trips.iter().zip(&back) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.publish_time, b.publish_time);
            prop_assert_eq!(a.duration, b.duration);
            prop_assert!(a.origin.haversine_km(b.origin) < 0.01);
        }
    }
}

// ---------------------------------------------------------------------------
// Geometry invariants.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn haversine_triangle_inequality(
        lat_a in 41.0f64..41.4, lon_a in -8.8f64..-8.4,
        lat_b in 41.0f64..41.4, lon_b in -8.8f64..-8.4,
        lat_c in 41.0f64..41.4, lon_c in -8.8f64..-8.4,
    ) {
        let a = GeoPoint::new(lat_a, lon_a);
        let b = GeoPoint::new(lat_b, lon_b);
        let c = GeoPoint::new(lat_c, lon_c);
        prop_assert!(a.haversine_km(c) <= a.haversine_km(b) + b.haversine_km(c) + 1e-9);
        prop_assert!((a.haversine_km(b) - b.haversine_km(a)).abs() < 1e-12);
    }

    #[test]
    fn speed_model_monotone_in_distance(
        km1 in 0.0f64..30.0,
        km2 in 0.0f64..30.0,
    ) {
        let m = SpeedModel::urban();
        let (near, far) = if km1 < km2 { (km1, km2) } else { (km2, km1) };
        prop_assert!(m.travel_time_for_km(near) <= m.travel_time_for_km(far));
        prop_assert!(m.cost_for_km(near) <= m.cost_for_km(far));
    }
}
