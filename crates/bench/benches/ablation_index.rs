//! Ablation bench: spatial grid index vs linear scan for online candidate
//! generation — one `replay_stream` with `StreamOptions::default()` against
//! the same stream with `.grid(bbox)` (identical dispatch decisions — see
//! the facade's `grid_equivalence` suite — different asymptotics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rideshare_bench::build_market;
use rideshare_online::{
    market_events, replay_stream, CollectingSink, MaxMargin, StreamOptions, StreamPolicy,
};
use rideshare_trace::DriverModel;

fn bench_grid_vs_linear(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_search");
    group.sample_size(10);
    let scan = StreamOptions::default();
    let grid = scan.grid(rideshare_geo::porto::bounding_box());
    for &drivers in &[50usize, 200] {
        let market = build_market(3, 400, drivers, DriverModel::Hitchhiking);
        for (label, options) in [("linear", scan), ("grid", grid)] {
            group.bench_with_input(BenchmarkId::new(label, drivers), &market, |b, market| {
                b.iter(|| {
                    let mut sink = CollectingSink::new();
                    black_box(replay_stream(
                        market.speed(),
                        market_events(market),
                        &mut StreamPolicy::Instant(&mut MaxMargin::new()),
                        options,
                        &mut sink,
                    ))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_grid_vs_linear);
criterion_main!(benches);
