//! A warm-startable simplex specialised to packing LPs, the master problem
//! of the column-generation upper bound `Z_f*`.
//!
//! The problem shape is `max Σ c_j f_j` subject to `Σ_{j: r ∈ support(j)}
//! f_j ≤ 1` for every row `r`, `f ≥ 0` — exactly the paper's path
//! formulation (Eq. 9–10): one row per driver ("each driver may choose 1 or
//! 0 task list", 10a relaxed to `≤ 1`) and one row per task ("all the paths
//! chosen are node-disjoint", 10b), one column per path.
//!
//! The tableau is stored **column-major** with the slack block kept
//! explicitly; since the slack columns are the running image of `B⁻¹`,
//! appending a generated path column costs `O(m·|support|)` and
//! re-optimisation resumes from the current (still feasible) basis instead
//! of restarting — the property that makes column generation practical.
//!
//! **What a pivot costs.** Storage is dense (`rows` floats per column),
//! but a pivot is not: the elimination changes entry `(i, k)` only where
//! the pivot row is nonzero in column `k` *and* the pivot column is
//! nonzero in row `i`, so it does one strided read per column to find the
//! first set, lists the second once, and touches (nonzeros of the pivot
//! row) × (nonzeros of the pivot column) entries. On path-packing masters
//! both sets are a few percent of the tableau — a path meets a handful of
//! rows, and `B⁻¹` stays close to a permuted identity until the basis
//! fills in — so a pivot costs thousands of steps where a sweep of all
//! `rows × columns` entries costs a million. The skipped entries are
//! exactly those a full sweep would subtract zero from, and the `1e-13`
//! clamp on every touched entry is what keeps cancelled entries exact
//! zeros.
//!
//! **Why [`PackingLp::purge`] remains.** Every column still owns `rows`
//! floats, and every pivot still reads one entry of every column and every
//! entering-column search scans every reduced cost; a long column
//! generation run would otherwise grow all three without bound.

use rideshare_types::{MarketError, Result};

const RC_EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;
/// Per-row RHS perturbation step (see [`PackingLp::new`]).
const PERTURBATION: f64 = 1e-7;

/// A packing linear program with dynamically generated columns.
///
/// # Examples
///
/// ```
/// use rideshare_lp::PackingLp;
///
/// // Two rows; columns {0}, {1}, {0,1}.
/// let mut lp = PackingLp::new(2);
/// let a = lp.add_column(3.0, &[0]);
/// let b = lp.add_column(4.0, &[1]);
/// let both = lp.add_column(5.0, &[0, 1]);
/// let obj = lp.optimize().unwrap();
/// assert!((obj - 7.0).abs() < 1e-4); // pick a and b, not the bundle
/// assert!((lp.primal(a) - 1.0).abs() < 1e-4);
/// assert!(lp.primal(both).abs() < 1e-4);
/// ```
#[derive(Clone, Debug)]
pub struct PackingLp {
    rows: usize,
    /// Internal columns: the first `rows` are slacks, the rest structural.
    /// `cols[k]` is the tableau image `B⁻¹ a_k` of column `k`.
    cols: Vec<Vec<f64>>,
    /// Objective row in `z_j − c_j` form, one entry per internal column.
    obj: Vec<f64>,
    /// Phase-2 cost of each internal column (slacks cost 0).
    costs: Vec<f64>,
    rhs: Vec<f64>,
    /// `basis[i]` = internal column basic in row `i`.
    basis: Vec<usize>,
    /// External id → internal index (None once purged).
    ext2int: Vec<Option<usize>>,
    /// Internal index → external id (`usize::MAX` for slacks).
    int2ext: Vec<usize>,
    pivots: usize,
    /// Scratch of [`Self::pivot`]: the pivot column's `(row, value)`
    /// nonzeros, kept to reuse its allocation.
    pivot_rows: Vec<(usize, f64)>,
}

impl PackingLp {
    /// Creates an empty packing LP with `rows` capacity-one rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "packing LP needs at least one row");
        let mut cols = Vec::with_capacity(rows);
        for r in 0..rows {
            let mut c = vec![0.0; rows];
            c[r] = 1.0;
            cols.push(c);
        }
        // Lexicographic-style anti-degeneracy perturbation: markets with
        // many identical drivers make the unperturbed LP massively
        // degenerate and the simplex stalls for hundreds of thousands of
        // pivots. Nudging each RHS up by a distinct tiny amount breaks the
        // ties; since capacities only grow, the perturbed optimum remains a
        // valid upper bound, inflated by at most `Σ yᵢ·εᵢ` (≲ 1e-4 relative
        // on realistic instances).
        let rhs = (0..rows)
            .map(|i| 1.0 + (i as f64 + 1.0) * PERTURBATION)
            .collect();
        Self {
            rows,
            cols,
            obj: vec![0.0; rows],
            costs: vec![0.0; rows],
            rhs,
            basis: (0..rows).collect(),
            ext2int: Vec::new(),
            int2ext: vec![usize::MAX; rows],
            pivots: 0,
            pivot_rows: Vec::new(),
        }
    }

    /// Number of constraint rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of structural (non-slack) columns ever added and not purged.
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.cols.len() - self.rows
    }

    /// Current dual price of each row (meaningful after [`Self::optimize`]).
    #[must_use]
    pub fn duals(&self) -> &[f64] {
        // The slack columns' `z_j − c_j` entries are the row prices.
        &self.obj[..self.rows]
    }

    /// Current primal value of an external column (0 if purged).
    ///
    /// # Panics
    ///
    /// Panics if `col` was never returned by [`Self::add_column`].
    #[must_use]
    pub fn primal(&self, col: usize) -> f64 {
        match self.ext2int[col] {
            None => 0.0,
            Some(k) => self
                .basis
                .iter()
                .position(|&b| b == k)
                .map_or(0.0, |i| self.rhs[i]),
        }
    }

    /// Every basic structural column with its current value, as `(external
    /// id, value)` in basis-row order, read in one pass over the basis.
    /// Every column not listed is at 0. Reading a whole solution through
    /// [`Self::primal`] instead scans the basis once per column.
    pub fn basic_columns(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.basis
            .iter()
            .zip(&self.rhs)
            .filter(|&(&k, _)| k >= self.rows)
            .map(|(&k, &x)| (self.int2ext[k], x))
    }

    /// Current objective value `Σ c_B · rhs`.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.rhs)
            .map(|(&b, &x)| self.costs[b] * x)
            .sum()
    }

    /// Adds a structural column with the given objective cost and 0/1 row
    /// support, returning its external id.
    ///
    /// `support` must contain strictly increasing row indices `< rows`.
    ///
    /// # Panics
    ///
    /// Panics if `support` is unsorted, contains duplicates, or references a
    /// row out of range.
    pub fn add_column(&mut self, cost: f64, support: &[usize]) -> usize {
        assert!(
            support.windows(2).all(|w| w[0] < w[1]),
            "support must be strictly increasing"
        );
        if let Some(&last) = support.last() {
            assert!(last < self.rows, "support row {last} out of range");
        }
        // Tableau image: B⁻¹ a = Σ_{r ∈ support} (B⁻¹ e_r) — the slack
        // columns hold exactly those images.
        let mut col = vec![0.0; self.rows];
        let mut z = 0.0;
        for &r in support {
            for (c, s) in col.iter_mut().zip(&self.cols[r]) {
                *c += s;
            }
            z += self.obj[r]; // slack obj entries are the duals y_r
        }
        let ext = self.ext2int.len();
        let int = self.cols.len();
        self.cols.push(col);
        self.obj.push(z - cost);
        self.costs.push(cost);
        self.ext2int.push(Some(int));
        self.int2ext.push(ext);
        ext
    }

    /// Reduced cost (`c_j − y·a_j`) a *candidate* column would have if added
    /// now. Positive means adding it can improve the objective.
    #[must_use]
    pub fn candidate_reduced_cost(&self, cost: f64, support: &[usize]) -> f64 {
        let y_dot_a: f64 = support.iter().map(|&r| self.obj[r]).sum();
        cost - y_dot_a
    }

    /// Runs primal simplex to optimality from the current basis.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::IterationLimit`] if the pivot budget is
    /// exhausted. Packing LPs are always feasible (all-slack) and bounded
    /// (each column's value is capped by its rows), so no other failure is
    /// possible on well-formed input; unboundedness is reported as
    /// [`MarketError::Unbounded`] defensively.
    pub fn optimize(&mut self) -> Result<f64> {
        let max_pivots = self.pivots + 400 * (self.rows + self.cols.len()) + 50_000;
        let dantzig_budget = self.pivots + 100 * (self.rows + self.cols.len()) + 10_000;
        loop {
            if self.pivots > max_pivots {
                return Err(MarketError::IterationLimit { limit: max_pivots });
            }
            let bland = self.pivots > dantzig_budget;
            let entering = if bland {
                (0..self.cols.len()).find(|&j| self.obj[j] < -RC_EPS)
            } else {
                let mut best = None;
                let mut best_val = -RC_EPS;
                for (j, &o) in self.obj.iter().enumerate() {
                    if o < best_val {
                        best_val = o;
                        best = Some(j);
                    }
                }
                best
            };
            let Some(j) = entering else {
                return Ok(self.objective());
            };
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows {
                let a = self.cols[j][i];
                if a > PIVOT_EPS {
                    let ratio = self.rhs[i] / a;
                    let better = match leave {
                        None => true,
                        Some((bi, br)) => {
                            ratio < br - 1e-12
                                || (ratio < br + 1e-12 && self.basis[i] < self.basis[bi])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((r, _)) = leave else {
                return Err(MarketError::Unbounded);
            };
            self.pivot(r, j);
        }
    }

    /// One pivot, at the cost of its nonzeros: a column with an exact zero
    /// in the pivot row is left alone by the elimination, and a row where
    /// the pivot column is zero is left alone in every column, so only the
    /// (pivot-row nonzeros) × (pivot-column nonzeros) block is touched.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.cols[col][row];
        debug_assert!(piv.abs() > PIVOT_EPS);
        let inv = 1.0 / piv;
        // The (pre-scale) pivot column's nonzeros off the pivot row.
        self.pivot_rows.clear();
        for (i, &p) in self.cols[col].iter().enumerate() {
            if p != 0.0 && i != row {
                self.pivot_rows.push((i, p));
            }
        }
        let obj_factor = self.obj[col];
        let rhs_pivot = self.rhs[row] * inv;
        for (c, o) in self.cols.iter_mut().zip(&mut self.obj) {
            if c[row] == 0.0 {
                continue;
            }
            let row_val = c[row] * inv;
            for &(i, p) in &self.pivot_rows {
                let ci = &mut c[i];
                *ci -= p * row_val;
                if ci.abs() < 1e-13 {
                    *ci = 0.0;
                }
            }
            c[row] = row_val;
            *o -= obj_factor * row_val;
            if o.abs() < 1e-13 {
                *o = 0.0;
            }
        }
        for &(i, p) in &self.pivot_rows {
            let r = &mut self.rhs[i];
            *r -= p * rhs_pivot;
            if r.abs() < 1e-12 {
                *r = 0.0;
            }
        }
        self.rhs[row] = rhs_pivot;
        self.basis[row] = col;
    }

    /// Drops non-basic structural columns whose reduced cost is worse than
    /// `threshold` (i.e. `z_j − c_j > threshold`), shrinking the tableau.
    ///
    /// Purged columns report primal value 0 forever; column generation will
    /// simply regenerate them if they become attractive again.
    pub fn purge(&mut self, threshold: f64) {
        let mut basic = vec![false; self.cols.len()];
        for &b in &self.basis {
            basic[b] = true;
        }
        let mut keep: Vec<usize> = Vec::with_capacity(self.cols.len());
        for (k, &is_basic) in basic.iter().enumerate() {
            let is_slack = k < self.rows;
            if is_slack || is_basic || self.obj[k] <= threshold {
                keep.push(k);
            } else {
                self.ext2int[self.int2ext[k]] = None;
            }
        }
        if keep.len() == self.cols.len() {
            return;
        }
        let mut remap = vec![usize::MAX; self.cols.len()];
        for (new_k, &old_k) in keep.iter().enumerate() {
            remap[old_k] = new_k;
        }
        let take = |v: &mut Vec<_>| {
            let mut out = Vec::with_capacity(keep.len());
            for &old_k in &keep {
                out.push(std::mem::take(&mut v[old_k]));
            }
            *v = out;
        };
        take(&mut self.cols);
        self.obj = keep.iter().map(|&k| self.obj[k]).collect();
        self.costs = keep.iter().map(|&k| self.costs[k]).collect();
        self.int2ext = keep.iter().map(|&k| self.int2ext[k]).collect();
        for b in &mut self.basis {
            *b = remap[*b];
            debug_assert_ne!(*b, usize::MAX, "basic column purged");
        }
        for e in &mut self.ext2int {
            if let Some(k) = *e {
                *e = if remap[k] == usize::MAX {
                    None
                } else {
                    Some(remap[k])
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        // Tolerance accounts for the anti-degeneracy RHS perturbation.
        assert!((a - b).abs() < 1e-4, "expected {b}, got {a}");
    }

    #[test]
    fn empty_lp_objective_zero() {
        let mut lp = PackingLp::new(3);
        assert_close(lp.optimize().unwrap(), 0.0);
        assert_eq!(lp.duals(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn picks_disjoint_columns_over_bundle() {
        let mut lp = PackingLp::new(2);
        let a = lp.add_column(3.0, &[0]);
        let b = lp.add_column(4.0, &[1]);
        let both = lp.add_column(5.0, &[0, 1]);
        assert_close(lp.optimize().unwrap(), 7.0);
        assert_close(lp.primal(a), 1.0);
        assert_close(lp.primal(b), 1.0);
        assert_close(lp.primal(both), 0.0);
    }

    #[test]
    fn fractional_optimum() {
        // Three rows, columns {0,1}, {1,2}, {0,2} each worth 1:
        // LP optimum is 1.5 with every column at 1/2 (odd cycle).
        let mut lp = PackingLp::new(3);
        let c1 = lp.add_column(1.0, &[0, 1]);
        let c2 = lp.add_column(1.0, &[1, 2]);
        let c3 = lp.add_column(1.0, &[0, 2]);
        assert_close(lp.optimize().unwrap(), 1.5);
        for c in [c1, c2, c3] {
            assert_close(lp.primal(c), 0.5);
        }
    }

    #[test]
    fn warm_start_after_adding_column() {
        let mut lp = PackingLp::new(2);
        let a = lp.add_column(3.0, &[0]);
        assert_close(lp.optimize().unwrap(), 3.0);
        // A better column arrives for row 0: re-optimisation swaps it in.
        let b = lp.add_column(5.0, &[0]);
        assert_close(lp.optimize().unwrap(), 5.0);
        assert_close(lp.primal(a), 0.0);
        assert_close(lp.primal(b), 1.0);
    }

    #[test]
    fn duals_certify_optimality() {
        let mut lp = PackingLp::new(2);
        lp.add_column(3.0, &[0]);
        lp.add_column(4.0, &[1]);
        lp.add_column(5.0, &[0, 1]);
        lp.optimize().unwrap();
        let y = lp.duals();
        // Dual feasibility: y covers every column's cost.
        assert!(y[0] + 1e-9 >= 3.0);
        assert!(y[1] + 1e-9 >= 4.0);
        assert!(y[0] + y[1] + 1e-9 >= 5.0);
        // Strong duality: Σy = objective (all rows binding here).
        assert_close(y[0] + y[1], 7.0);
        // Candidate reduced costs agree with the duals.
        assert_close(lp.candidate_reduced_cost(6.0, &[0]), 6.0 - y[0]);
    }

    #[test]
    fn candidate_reduced_cost_guides_generation() {
        let mut lp = PackingLp::new(2);
        lp.add_column(3.0, &[0]);
        lp.optimize().unwrap();
        // Row 1 is uncovered: a column there has full positive reduced cost.
        assert_close(lp.candidate_reduced_cost(2.0, &[1]), 2.0);
        // Row 0 priced at 3: a cost-2 column there is unattractive.
        assert!(lp.candidate_reduced_cost(2.0, &[0]) < 0.0);
    }

    #[test]
    fn purge_drops_only_unattractive_nonbasic() {
        let mut lp = PackingLp::new(2);
        let a = lp.add_column(3.0, &[0]);
        let b = lp.add_column(1.0, &[0]); // dominated
        lp.optimize().unwrap();
        assert_eq!(lp.num_columns(), 2);
        lp.purge(0.5);
        assert_eq!(lp.num_columns(), 1);
        assert_close(lp.primal(a), 1.0);
        assert_close(lp.primal(b), 0.0); // purged → 0
                                         // Still solvable and correct after purge.
        let c = lp.add_column(4.0, &[1]);
        assert_close(lp.optimize().unwrap(), 7.0);
        assert_close(lp.primal(c), 1.0);
    }

    #[test]
    fn basic_columns_read_what_primal_reads() {
        let mut rng = Lcg(0xba5e);
        let rows = 24;
        let mut lp = PackingLp::new(rows);
        for batch in 0..4 {
            for _ in 0..rows {
                let len = 1 + rng.below(4);
                let mut support: Vec<usize> = (0..len).map(|_| rng.below(rows)).collect();
                support.sort_unstable();
                support.dedup();
                lp.add_column(1.0 + 9.0 * rng.next(), &support);
            }
            lp.optimize().unwrap();
            if batch == 1 {
                lp.purge(1e-6);
            }
            let mut read = vec![0.0; lp.ext2int.len()];
            for (col, value) in lp.basic_columns() {
                read[col] = value;
            }
            for (col, &value) in read.iter().enumerate() {
                assert_eq!(value, lp.primal(col), "batch {batch} column {col}");
            }
        }
    }

    #[test]
    fn empty_support_column_with_positive_cost() {
        // A column using no rows is free profit; it enters unboundedly
        // unless capped — packing rows don't cap it, so expect Unbounded.
        let mut lp = PackingLp::new(1);
        lp.add_column(1.0, &[]);
        assert!(matches!(lp.optimize(), Err(MarketError::Unbounded)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_support() {
        let mut lp = PackingLp::new(3);
        lp.add_column(1.0, &[2, 1]);
    }

    /// Deterministic pseudo-random reals in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as f64 / (1u64 << 31) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() * n as f64) as usize
        }
    }

    /// A packing instance fed to [`PackingLp`] the way column generation
    /// feeds it — in batches, re-optimised in between, regenerating what a
    /// purge dropped — and checked against the general simplex on every
    /// column ever offered.
    struct Checked {
        lp: PackingLp,
        /// `(cost, support, external id)` of every `add_column` call.
        added: Vec<(f64, Vec<usize>, usize)>,
    }

    impl Checked {
        fn new(rows: usize) -> Self {
            Self {
                lp: PackingLp::new(rows),
                added: Vec::new(),
            }
        }

        fn add(&mut self, cost: f64, support: Vec<usize>) {
            let ext = self.lp.add_column(cost, &support);
            self.added.push((cost, support, ext));
        }

        /// Optimises, re-adding any column that prices positive: after
        /// `optimize` no column still in the tableau does, so such a column
        /// was purged and the pricing oracle would have found it again.
        fn optimize(&mut self) -> f64 {
            loop {
                let obj = self.lp.optimize().unwrap();
                let offered = self.added.len();
                for k in 0..offered {
                    let (cost, support, _) = &self.added[k];
                    if self.lp.candidate_reduced_cost(*cost, support) > 1e-7 {
                        let (cost, support) = (*cost, support.clone());
                        self.add(cost, support);
                    }
                }
                if self.added.len() == offered {
                    return obj;
                }
            }
        }

        /// Objective against the dense simplex, dual feasibility for every
        /// column ever added, primal feasibility per row.
        fn check(&self, obj: f64, context: &str) {
            use crate::{Cmp, LinearProgram};
            let rows = self.lp.num_rows();
            let mut dense = LinearProgram::maximize();
            let mut members: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
            let mut used = vec![0.0; rows];
            let y = self.lp.duals();
            for (j, (cost, support, ext)) in self.added.iter().enumerate() {
                let v = dense.add_var(*cost);
                let priced: f64 = support.iter().map(|&r| y[r]).sum();
                assert!(
                    priced >= cost - 1e-7,
                    "{context}: column {j} prices {priced} under its cost {cost}"
                );
                for &r in support {
                    members[r].push((v, 1.0));
                    used[r] += self.lp.primal(*ext);
                }
            }
            for coeffs in members {
                dense.add_constraint(coeffs, Cmp::Le, 1.0);
            }
            let dense_obj = dense.solve().unwrap().objective;
            // The RHS perturbation admits a small one-sided inflation; the
            // objective must never fall below the unperturbed optimum.
            assert!(
                obj + 1e-9 >= dense_obj && obj - dense_obj < 1e-3,
                "{context}: packing {obj} vs dense {dense_obj}"
            );
            for (r, &u) in used.iter().enumerate() {
                let rhs = 1.0 + (r as f64 + 1.0) * PERTURBATION;
                assert!(u <= rhs + 1e-9, "{context}: row {r} carries {u}");
            }
        }
    }

    #[test]
    fn seeded_batches_match_dense_simplex() {
        for seed in 0..60u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let rows = 8 + rng.below(33);
            let mut checked = Checked::new(rows);
            for batch in 0..4 {
                for _ in 0..rows {
                    let len = 1 + rng.below(6);
                    let mut support: Vec<usize> = (0..len).map(|_| rng.below(rows)).collect();
                    support.sort_unstable();
                    support.dedup();
                    checked.add(1.0 + 9.0 * rng.next(), support);
                }
                let obj = checked.optimize();
                checked.check(obj, &format!("seed {seed} batch {batch}"));
                if batch == 1 {
                    checked.lp.purge(1e-6);
                }
            }
        }
    }

    #[test]
    fn chain_overlapping_supports_fill_in() {
        // Interval supports that each overlap their neighbours: every pivot
        // couples a run of rows, so `B⁻¹` (the slack block) fills in and
        // pivots run over nonzero lists far from the all-slack start.
        let rows = 96;
        let mut rng = Lcg(0x5eed);
        let mut checked = Checked::new(rows);
        for batch in 0..6 {
            for start in 0..rows - 1 {
                let len = 2 + rng.below(5);
                let support: Vec<usize> = (start..(start + len).min(rows)).collect();
                let cost = support.len() as f64 * (0.5 + rng.next());
                checked.add(cost, support);
            }
            let obj = checked.optimize();
            checked.check(obj, &format!("batch {batch}"));
        }
        assert!(checked.lp.pivots >= 200, "{} pivots", checked.lp.pivots);
        let inverse_nonzeros: usize = checked.lp.cols[..rows]
            .iter()
            .map(|c| c.iter().filter(|&&x| x != 0.0).count())
            .sum();
        assert!(
            inverse_nonzeros > 4 * rows,
            "B⁻¹ holds {inverse_nonzeros} nonzeros over {rows} rows"
        );
    }
}
