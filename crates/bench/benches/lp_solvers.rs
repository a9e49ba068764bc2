//! Criterion benchmark of the packing LP's warm start, the step column
//! generation repeats every round.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rideshare_lp::PackingLp;

fn bench_packing_warm_start(c: &mut Criterion) {
    c.bench_function("packing_lp_incremental_200cols", |b| {
        b.iter(|| {
            let rows = 40;
            let mut lp = PackingLp::new(rows);
            let mut state = 5u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            // Column-generation-like loop: add a few columns, re-optimise.
            for batch in 0..20 {
                for k in 0..10 {
                    let a = next() % rows;
                    let b2 = next() % rows;
                    let mut support = if a == b2 {
                        vec![a]
                    } else {
                        vec![a.min(b2), a.max(b2)]
                    };
                    support.dedup();
                    lp.add_column(1.0 + ((batch * 10 + k) % 7) as f64, &support);
                }
                lp.optimize().expect("packing LP always solvable");
            }
            black_box(lp.objective())
        });
    });
}

criterion_group!(benches, bench_packing_warm_start);
criterion_main!(benches);
