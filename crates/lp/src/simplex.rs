//! A dense two-phase primal simplex solver.
//!
//! Designed for the small-to-medium LPs this framework generates (arc-form
//! relaxations of small markets, branch-and-bound nodes, tests). The
//! column-generation master problem uses the specialised warm-startable
//! [`crate::PackingLp`] instead.
//!
//! Implementation notes:
//!
//! - full tableau with an explicit objective (reduced-cost) row,
//! - phase 1 minimises the sum of artificial variables; redundant rows whose
//!   artificial cannot be driven out are deleted,
//! - Dantzig (most-negative reduced cost) pricing with a permanent switch to
//!   Bland's rule after a pivot budget, guaranteeing termination,
//! - dual prices are read off the objective row under each row's slack,
//!   surplus, or artificial column.

use rideshare_types::{MarketError, Result};

use crate::model::{Cmp, LinearProgram, LpSolution, Sense};

/// Tolerance for reduced-cost optimality tests.
const RC_EPS: f64 = 1e-9;
/// Minimum absolute pivot magnitude.
const PIVOT_EPS: f64 = 1e-7;
/// Feasibility tolerance for the phase-1 objective.
const FEAS_EPS: f64 = 1e-7;

/// Solves `lp` with the two-phase dense simplex.
///
/// See [`LinearProgram::solve`] for the error contract.
pub(crate) fn solve(lp: &LinearProgram) -> Result<LpSolution> {
    let mut t = Tableau::build(lp);
    t.phase_one()?;
    t.phase_two()?;
    Ok(t.extract(lp))
}

/// Which auxiliary column belongs to each original row (for dual recovery).
#[derive(Clone, Copy, Debug)]
struct RowCols {
    /// Slack (`Le`, coefficient +1) or surplus (`Ge`, coefficient −1).
    slack: Option<usize>,
    /// Artificial column (`Ge`/`Eq` rows).
    artificial: Option<usize>,
    /// Whether the row was negated to make its RHS non-negative.
    negated: bool,
}

struct Tableau {
    /// `rows × (ncols)` coefficient matrix.
    a: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    /// Objective row in `z_j − c_j` form.
    obj: Vec<f64>,
    /// Basis: `basis[i]` = column basic in row `i`.
    basis: Vec<usize>,
    /// Phase-2 cost of every column (structural costs; auxiliaries 0).
    costs: Vec<f64>,
    /// Columns that may never enter the basis (artificials in phase 2).
    banned: Vec<bool>,
    n_structural: usize,
    first_artificial: usize,
    row_cols: Vec<RowCols>,
    /// Original row index of each current tableau row (rows can be deleted).
    row_origin: Vec<usize>,
    pivots: usize,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        // Max sense internally; negate costs for min problems.
        let sign = match lp.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };

        // Count auxiliary columns.
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for row in &lp.rows {
            let negated = row.rhs < 0.0;
            let cmp = effective_cmp(row.cmp, negated);
            match cmp {
                Cmp::Le => n_slack += 1,
                Cmp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Cmp::Eq => n_art += 1,
            }
        }
        let first_slack = n;
        let first_artificial = n + n_slack;
        let ncols = n + n_slack + n_art;

        let mut a = vec![vec![0.0; ncols]; m];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];
        let mut row_cols = Vec::with_capacity(m);
        let mut next_slack = first_slack;
        let mut next_art = first_artificial;

        for (i, row) in lp.rows.iter().enumerate() {
            let negated = row.rhs < 0.0;
            let s = if negated { -1.0 } else { 1.0 };
            for &(v, coeff) in &row.coeffs {
                a[i][v] += s * coeff;
            }
            rhs[i] = s * row.rhs;
            let cmp = effective_cmp(row.cmp, negated);
            let mut rc = RowCols {
                slack: None,
                artificial: None,
                negated,
            };
            match cmp {
                Cmp::Le => {
                    a[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    rc.slack = Some(next_slack);
                    next_slack += 1;
                }
                Cmp::Ge => {
                    a[i][next_slack] = -1.0;
                    rc.slack = Some(next_slack);
                    next_slack += 1;
                    a[i][next_art] = 1.0;
                    basis[i] = next_art;
                    rc.artificial = Some(next_art);
                    next_art += 1;
                }
                Cmp::Eq => {
                    a[i][next_art] = 1.0;
                    basis[i] = next_art;
                    rc.artificial = Some(next_art);
                    next_art += 1;
                }
            }
            row_cols.push(rc);
        }

        let mut costs = vec![0.0; ncols];
        for (j, c) in lp.objective.iter().enumerate() {
            costs[j] = sign * c;
        }

        Tableau {
            a,
            rhs,
            obj: vec![0.0; ncols],
            basis,
            costs,
            banned: vec![false; ncols],
            n_structural: n,
            first_artificial,
            row_cols,
            row_origin: (0..m).collect(),
            pivots: 0,
        }
    }

    fn ncols(&self) -> usize {
        self.costs.len()
    }

    fn nrows(&self) -> usize {
        self.a.len()
    }

    /// Rebuilds the objective row `z_j − c_j` for the given cost vector.
    fn price_out(&mut self, cost_of: impl Fn(usize) -> f64) {
        let ncols = self.ncols();
        for j in 0..ncols {
            let mut z = 0.0;
            for (i, row) in self.a.iter().enumerate() {
                let cb = cost_of(self.basis[i]);
                if cb != 0.0 {
                    z += cb * row[j];
                }
            }
            self.obj[j] = z - cost_of(j);
        }
    }

    fn objective_value(&self, cost_of: impl Fn(usize) -> f64) -> f64 {
        self.rhs
            .iter()
            .zip(&self.basis)
            .map(|(&b, &col)| cost_of(col) * b)
            .sum()
    }

    /// Runs primal simplex pivots until optimality for the current
    /// objective row. Returns `Err(Unbounded)` if a column can increase
    /// without bound.
    fn optimize(&mut self) -> Result<()> {
        let max_pivots = 200 * (self.nrows() + self.ncols()) + 20_000;
        let dantzig_budget = 50 * (self.nrows() + self.ncols()) + 5_000;
        loop {
            if self.pivots > max_pivots {
                return Err(MarketError::IterationLimit { limit: max_pivots });
            }
            let bland = self.pivots > dantzig_budget;
            let Some(enter) = self.choose_entering(bland) else {
                return Ok(());
            };
            let Some(leave_row) = self.choose_leaving(enter) else {
                return Err(MarketError::Unbounded);
            };
            self.pivot(leave_row, enter);
        }
    }

    fn choose_entering(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.ncols()).find(|&j| !self.banned[j] && self.obj[j] < -RC_EPS)
        } else {
            let mut best = None;
            let mut best_val = -RC_EPS;
            for j in 0..self.ncols() {
                if !self.banned[j] && self.obj[j] < best_val {
                    best_val = self.obj[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    fn choose_leaving(&self, enter: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.nrows() {
            let coeff = self.a[i][enter];
            if coeff > PIVOT_EPS {
                let ratio = self.rhs[i] / coeff;
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - 1e-12 || (ratio < br + 1e-12 && self.basis[i] < self.basis[bi])
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > PIVOT_EPS);
        let inv = 1.0 / piv;
        for x in self.a[row].iter_mut() {
            *x *= inv;
        }
        self.rhs[row] *= inv;
        // Eliminate the column from every other row and the objective row.
        let pivot_row = self.a[row].clone();
        let pivot_rhs = self.rhs[row];
        for i in 0..self.nrows() {
            if i == row {
                continue;
            }
            let factor = self.a[i][col];
            if factor != 0.0 {
                for (x, &p) in self.a[i].iter_mut().zip(&pivot_row) {
                    *x -= factor * p;
                }
                self.rhs[i] -= factor * pivot_rhs;
                if self.rhs[i].abs() < 1e-12 {
                    self.rhs[i] = 0.0;
                }
            }
        }
        let factor = self.obj[col];
        if factor != 0.0 {
            for (x, &p) in self.obj.iter_mut().zip(&pivot_row) {
                *x -= factor * p;
            }
        }
        self.basis[row] = col;
    }

    fn phase_one(&mut self) -> Result<()> {
        if self.first_artificial == self.ncols() {
            // Pure-`Le` problem with non-negative RHS: slack basis feasible.
            return Ok(());
        }
        let first_art = self.first_artificial;
        let cost = move |j: usize| if j >= first_art { -1.0 } else { 0.0 };
        self.price_out(cost);
        self.optimize()?;
        let z = self.objective_value(cost);
        if z < -FEAS_EPS {
            return Err(MarketError::Infeasible);
        }
        // Drive basic artificials out, deleting redundant rows.
        let mut i = 0;
        while i < self.nrows() {
            if self.basis[i] >= self.first_artificial {
                let enter = (0..self.first_artificial).find(|&j| self.a[i][j].abs() > PIVOT_EPS);
                match enter {
                    Some(j) => self.pivot(i, j),
                    None => {
                        // Redundant constraint: remove the row.
                        self.a.remove(i);
                        self.rhs.remove(i);
                        self.basis.remove(i);
                        self.row_origin.remove(i);
                        continue;
                    }
                }
            }
            i += 1;
        }
        // Ban artificial columns from phase 2 (kept only for dual recovery).
        for j in self.first_artificial..self.ncols() {
            self.banned[j] = true;
        }
        Ok(())
    }

    fn phase_two(&mut self) -> Result<()> {
        let costs = self.costs.clone();
        self.price_out(|j| costs[j]);
        self.optimize()
    }

    fn extract(&self, lp: &LinearProgram) -> LpSolution {
        let sign = match lp.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut values = vec![0.0; self.n_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_structural {
                values[b] = if self.rhs[i].abs() < 1e-11 {
                    0.0
                } else {
                    self.rhs[i]
                };
            }
        }
        let costs = self.costs.clone();
        let objective = sign * self.objective_value(|j| costs[j]);

        // Duals: y_i = obj-row entry under the row's +e_i auxiliary column
        // (negated for surplus columns, which carry −e_i), re-negated if the
        // row itself was negated during standardisation. Deleted (redundant)
        // rows keep dual 0.
        let mut duals = vec![0.0; lp.num_constraints()];
        for (orig, rc) in self.row_cols.iter().enumerate() {
            let y = if let Some(art) = rc.artificial {
                self.obj[art]
            } else if let Some(s) = rc.slack {
                self.obj[s]
            } else {
                0.0
            };
            duals[orig] = if rc.negated { -y } else { y } * sign;
        }
        // Rows deleted as redundant no longer exist in the tableau, but
        // their obj-row entries were kept consistent throughout pivoting,
        // so the recovery above remains valid.
        LpSolution {
            objective,
            values,
            duals,
        }
    }
}

fn effective_cmp(cmp: Cmp, negated: bool) -> Cmp {
    if !negated {
        return cmp;
    }
    match cmp {
        Cmp::Le => Cmp::Ge,
        Cmp::Ge => Cmp::Le,
        Cmp::Eq => Cmp::Eq,
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LinearProgram};
    use rideshare_types::MarketError;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → 36 at (2, 6).
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(3.0);
        let y = lp.add_var(5.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.values[x], 2.0);
        assert_close(sol.values[y], 6.0);
        // Strong duality: y·b = objective.
        let dual_obj = sol.duals[0] * 4.0 + sol.duals[1] * 12.0 + sol.duals[2] * 18.0;
        assert_close(dual_obj, 36.0);
    }

    #[test]
    fn textbook_min_with_ge() {
        // min 0.12x + 0.15y s.t. 60x + 60y >= 300, 12x + 6y >= 36,
        // 10x + 30y >= 90 → 3.15 at (3, 2) (diet problem).
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var(0.12);
        let y = lp.add_var(0.15);
        lp.add_constraint(vec![(x, 60.0), (y, 60.0)], Cmp::Ge, 300.0);
        lp.add_constraint(vec![(x, 12.0), (y, 6.0)], Cmp::Ge, 36.0);
        lp.add_constraint(vec![(x, 10.0), (y, 30.0)], Cmp::Ge, 90.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.66);
        assert_close(sol.values[x], 3.0);
        assert_close(sol.values[y], 2.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 3, x - y = 1 → x=2, y=1, obj 4.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 4.0);
        assert_close(sol.values[x], 2.0);
        assert_close(sol.values[y], 1.0);
    }

    #[test]
    fn negative_rhs_handled() {
        // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5 → 5.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, -1.0)], Cmp::Le, -2.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert!(matches!(lp.solve(), Err(MarketError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        let y = lp.add_var(0.0);
        lp.add_constraint(vec![(x, -1.0), (y, 1.0)], Cmp::Le, 1.0);
        assert!(matches!(lp.solve(), Err(MarketError::Unbounded)));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(10.0);
        let y = lp.add_var(-57.0);
        let z = lp.add_var(9.0);
        let w = lp.add_var(-24.0);
        lp.add_constraint(vec![(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)], Cmp::Le, 0.0);
        lp.add_constraint(vec![(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)], Cmp::Le, 0.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(z, 1.0)], Cmp::Le, 1.0);
        let sol = lp.solve().unwrap();
        // x=1, z=1 (y=w=0): both degenerate rows stay at 0 slack.
        assert_close(sol.objective, 19.0);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; still solvable.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn zero_variable_problem() {
        let mut lp = LinearProgram::maximize();
        lp.add_constraint(vec![], Cmp::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn duplicate_coeffs_summed() {
        // max x s.t. 0.5x + 0.5x <= 3 → 3.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], Cmp::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn assignment_lp_is_integral() {
        // 2x2 assignment problem: LP relaxation is naturally integral.
        // max 5 a11 + 4 a12 + 3 a21 + 6 a22, rows/cols <= 1.
        let mut lp = LinearProgram::maximize();
        let a11 = lp.add_var(5.0);
        let a12 = lp.add_var(4.0);
        let a21 = lp.add_var(3.0);
        let a22 = lp.add_var(6.0);
        lp.add_constraint(vec![(a11, 1.0), (a12, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(a21, 1.0), (a22, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(a11, 1.0), (a21, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(a12, 1.0), (a22, 1.0)], Cmp::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 11.0);
        assert_close(sol.values[a11], 1.0);
        assert_close(sol.values[a22], 1.0);
    }

    #[test]
    fn duals_of_ge_rows() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → (3,1)? obj: prefer x: 2*4=8
        // at (4,0): check constraints: x+y=4 ok, x=4>=1 ok. obj 8.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var(2.0);
        let y = lp.add_var(3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 8.0);
        // Dual of the binding >= row times rhs recovers the objective:
        // y1*4 + y2*1 = 8 with y2 = 0.
        let dual_obj = sol.duals[0] * 4.0 + sol.duals[1] * 1.0;
        assert_close(dual_obj.abs(), 8.0);
    }
}
