//! Cross-validation of the hand-rolled LP/MILP substrate against classic
//! problems with known optima, plus duality spot-checks — the solvers
//! underpin every `Z_f*`/`Z*` number in EXPERIMENTS.md, so they get their
//! own adversarial suite.

use rideshare::lp::{BranchAndBound, Cmp, LinearProgram, PackingLp};

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a}");
}

#[test]
fn transportation_problem() {
    // Two warehouses (supply 20, 30) → three stores (demand 10, 25, 15),
    // cost-minimising shipment, costs w1: [2, 4, 5], w2: [3, 1, 7].
    // Optimum 125: w2→s2 25 and w2→s1 5 (freeing all of w1's cheap s3
    // capacity), w1→s1 5, w1→s3 15 → 25 + 15 + 10 + 75 = 125.
    let mut lp = LinearProgram::minimize();
    let c = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
    let mut x = [[0usize; 3]; 2];
    for (w, row) in c.iter().enumerate() {
        for (s, &cost) in row.iter().enumerate() {
            x[w][s] = lp.add_var(cost);
        }
    }
    for (w, &supply) in [20.0, 30.0].iter().enumerate() {
        lp.add_constraint((0..3).map(|s| (x[w][s], 1.0)).collect(), Cmp::Le, supply);
    }
    for (s, &demand) in [10.0, 25.0, 15.0].iter().enumerate() {
        lp.add_constraint((0..2).map(|w| (x[w][s], 1.0)).collect(), Cmp::Ge, demand);
    }
    let sol = lp.solve().unwrap();
    assert_close(sol.objective, 125.0, 1e-7);
}

#[test]
fn max_flow_as_lp() {
    // s→a (cap 4), s→b (cap 2), a→b (cap 3), a→t (cap 1), b→t (cap 6).
    // Max s-t flow = 6: route 1 on s-a-t, 3 on s-a-b-t, 2 on s-b-t;
    // the source cut {s→a, s→b} = 4 + 2 certifies optimality.
    let mut lp = LinearProgram::maximize();
    let sa = lp.add_var(0.0);
    let sb = lp.add_var(0.0);
    let ab = lp.add_var(0.0);
    let at = lp.add_var(1.0); // objective counts flow into t
    let bt = lp.add_var(1.0);
    for (v, cap) in [(sa, 4.0), (sb, 2.0), (ab, 3.0), (at, 1.0), (bt, 6.0)] {
        lp.add_constraint(vec![(v, 1.0)], Cmp::Le, cap);
    }
    // Conservation at a and b.
    lp.add_constraint(vec![(sa, 1.0), (ab, -1.0), (at, -1.0)], Cmp::Eq, 0.0);
    lp.add_constraint(vec![(sb, 1.0), (ab, 1.0), (bt, -1.0)], Cmp::Eq, 0.0);
    let sol = lp.solve().unwrap();
    assert_close(sol.objective, 6.0, 1e-7);
}

#[test]
fn weak_duality_on_random_packing_instances() {
    // For max cᵀx, Ax ≤ b: any dual-feasible y gives cᵀx* ≤ yᵀb. The
    // solver's reported duals must certify its own optimum.
    let mut state = 999u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for round in 0..20 {
        let rows = 3 + (round % 5);
        let cols = 4 + (round % 7);
        let mut lp = LinearProgram::maximize();
        let vars: Vec<usize> = (0..cols).map(|_| lp.add_var(0.5 + 5.0 * next())).collect();
        let mut coeffs_by_row = Vec::new();
        for _ in 0..rows {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for &v in &vars {
                if next() < 0.6 {
                    coeffs.push((v, 0.2 + next()));
                }
            }
            let rhs = 1.0 + 3.0 * next();
            lp.add_constraint(coeffs.clone(), Cmp::Le, rhs);
            coeffs_by_row.push((coeffs, rhs));
        }
        let Ok(sol) = lp.solve() else {
            continue; // unbounded (a column hit no rows) — skip
        };
        // Strong duality: yᵀb == objective (the duals certify the optimum;
        // weak duality alone would only give ≥).
        let dual_obj: f64 = sol
            .duals
            .iter()
            .zip(&coeffs_by_row)
            .map(|(y, (_, b))| y * b)
            .sum();
        assert_close(dual_obj, sol.objective, 1e-6);
        // Dual sign feasibility for a max/≤ problem.
        for y in &sol.duals {
            assert!(*y >= -1e-9, "negative dual {y}");
        }
    }
}

#[test]
fn packing_lp_never_exceeds_column_sum_bound() {
    // Trivial safety: the packing optimum is at most Σ max-cost per row
    // (each row serves ≤ ~1 unit) — catches wild over-counting.
    let mut lp = PackingLp::new(4);
    let costs = [3.0, 5.0, 2.0, 8.0, 1.0];
    lp.add_column(costs[0], &[0]);
    lp.add_column(costs[1], &[0, 1]);
    lp.add_column(costs[2], &[2]);
    lp.add_column(costs[3], &[1, 2, 3]);
    lp.add_column(costs[4], &[3]);
    let obj = lp.optimize().unwrap();
    let max_cost = 8.0;
    assert!(obj <= 4.0 * max_cost);
    // Known optimum: {5.0 on rows 0-1? vs 3 + 8 = 11 on rows 0,{1,2,3}}.
    assert_close(obj, 11.0, 1e-3);
}

#[test]
fn branch_and_bound_set_packing() {
    // Set packing with a known optimum: universe {0..5}, sets
    // A={0,1}, B={2,3}, C={4,5}, D={0,2,4} with weights 4, 4, 4, 10.
    // Best: D (10) + nothing touching 1,3,5 except A,B,C all collide with
    // D? A∩D={0}, B∩D={2}, C∩D={4} → D alone = 10 vs A+B+C = 12. Optimum 12.
    let mut lp = LinearProgram::maximize();
    let a = lp.add_var(4.0);
    let b = lp.add_var(4.0);
    let c = lp.add_var(4.0);
    let d = lp.add_var(10.0);
    for (elem_sets, _) in [
        (vec![a, d], 0),
        (vec![a], 1),
        (vec![b, d], 2),
        (vec![b], 3),
        (vec![c, d], 4),
        (vec![c], 5),
    ] {
        lp.add_constraint(
            elem_sets.into_iter().map(|v| (v, 1.0)).collect(),
            Cmp::Le,
            1.0,
        );
    }
    let sol = BranchAndBound::new(lp, vec![a, b, c, d]).solve().unwrap();
    assert_close(sol.objective, 12.0, 1e-6);
    assert!(sol.proven_optimal);
}

#[test]
fn branch_and_bound_agrees_with_exhaustive_search() {
    // Random 0/1 knapsacks, 12 items: B&B vs 2^12 brute force.
    let mut state = 4242u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for _ in 0..5 {
        let n = 12;
        let values: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * next()).collect();
        let weights: Vec<f64> = (0..n).map(|_| 1.0 + 4.0 * next()).collect();
        let cap = weights.iter().sum::<f64>() * 0.4;

        let mut lp = LinearProgram::maximize();
        let vars: Vec<usize> = values.iter().map(|&v| lp.add_var(v)).collect();
        lp.add_constraint(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(),
            Cmp::Le,
            cap,
        );
        let milp = BranchAndBound::new(lp, vars).solve().unwrap();

        let mut brute = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut v, mut w) = (0.0, 0.0);
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    v += values[i];
                    w += weights[i];
                }
            }
            if w <= cap + 1e-9 {
                brute = brute.max(v);
            }
        }
        assert_close(milp.objective, brute, 1e-6);
    }
}
