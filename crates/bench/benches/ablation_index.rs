//! Ablation bench: the cell table's box for online candidate generation —
//! one `replay_stream` with `StreamOptions::default()`, whose grid spans
//! the unit box and so holds every Porto driver in one border cell,
//! against the same stream gridded 16 × 16 over the Porto box with
//! `.grid(bbox)` (identical dispatch decisions — see the facade's
//! `grid_equivalence` suite — different cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rideshare_bench::build_market;
use rideshare_online::{
    market_events, replay_stream, CollectingSink, MaxMargin, StreamOptions, StreamPolicy,
};
use rideshare_trace::DriverModel;

fn bench_one_cell_vs_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_search");
    group.sample_size(10);
    let one_cell = StreamOptions::default();
    let grid = one_cell.grid(rideshare_geo::porto::bounding_box());
    for &drivers in &[50usize, 200] {
        let market = build_market(3, 400, drivers, DriverModel::Hitchhiking);
        for (label, options) in [("one-cell", one_cell), ("grid", grid)] {
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

criterion_group!(benches, bench_one_cell_vs_grid);
criterion_main!(benches);
