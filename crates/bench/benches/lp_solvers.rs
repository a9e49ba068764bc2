//! Criterion benchmarks of the hand-rolled LP/MILP substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rideshare_lp::{BranchAndBound, Cmp, LinearProgram, PackingLp};

/// A dense n×n assignment LP (integral relaxation, exercises pivoting).
fn assignment_lp(n: usize) -> LinearProgram {
    let mut lp = LinearProgram::maximize();
    let mut vars = vec![vec![0usize; n]; n];
    let mut state = 123u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for v in vars.iter_mut().flatten() {
        *v = lp.add_var(1.0 + 9.0 * next());
    }
    for (i, row) in vars.iter().enumerate() {
        lp.add_constraint(row.iter().map(|&v| (v, 1.0)).collect(), Cmp::Le, 1.0);
        lp.add_constraint((0..n).map(|j| (vars[j][i], 1.0)).collect(), Cmp::Le, 1.0);
    }
    lp
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_simplex_assignment");
    for &n in &[8usize, 16, 32] {
        let lp = assignment_lp(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &lp, |b, lp| {
            b.iter(|| black_box(lp.solve().expect("solvable")));
        });
    }
    group.finish();
}

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

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_and_bound_knapsack");
    group.sample_size(10);
    for &n in &[10usize, 14] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut lp = LinearProgram::maximize();
                let vars: Vec<usize> = (0..n).map(|i| lp.add_var(10.0 + i as f64)).collect();
                let coeffs: Vec<(usize, f64)> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 11.0 + (i % 5) as f64))
                    .collect();
                lp.add_constraint(coeffs, Cmp::Le, (3 * n) as f64);
                black_box(
                    BranchAndBound::new(lp, vars)
                        .solve()
                        .expect("knapsack solvable"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simplex,
    bench_packing_warm_start,
    bench_branch_and_bound
);
criterion_main!(benches);
