//! The LP modelling layer: variables, constraints, senses.

use rideshare_types::{MarketError, Result};

use crate::simplex;

/// Index of a decision variable within a [`LinearProgram`].
pub type VarId = usize;

/// Constraint sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// Objective sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Sense {
    Maximize,
    Minimize,
}

/// A sparse constraint row.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    pub coeffs: Vec<(VarId, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are non-negative reals; add explicit `≤` rows for upper bounds
/// (the framework's packing formulations only need `x ≤ 1`).
///
/// # Examples
///
/// ```
/// use rideshare_lp::{Cmp, LinearProgram};
/// // min x + y  s.t.  x + 2y >= 3,  3x + y >= 4   → obj 2.0 at (1, 1).
/// let mut lp = LinearProgram::minimize();
/// let x = lp.add_var(1.0);
/// let y = lp.add_var(1.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 3.0);
/// lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 4.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct LinearProgram {
    pub(crate) sense: Sense,
    pub(crate) objective: Vec<f64>,
    pub(crate) rows: Vec<Row>,
}

impl LinearProgram {
    /// Creates an empty maximization problem.
    #[must_use]
    pub fn maximize() -> Self {
        Self {
            sense: Sense::Maximize,
            objective: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Creates an empty minimization problem.
    #[must_use]
    pub fn minimize() -> Self {
        Self {
            sense: Sense::Minimize,
            objective: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a non-negative variable with the given objective coefficient and
    /// returns its id.
    pub fn add_var(&mut self, obj_coeff: f64) -> VarId {
        self.objective.push(obj_coeff);
        self.objective.len() - 1
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Adds a sparse constraint `Σ coeffs ⋈ rhs`; returns the row index.
    ///
    /// Duplicate variable entries in `coeffs` are summed.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not exist.
    pub fn add_constraint(&mut self, coeffs: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) -> usize {
        for &(v, _) in &coeffs {
            assert!(v < self.num_vars(), "constraint references unknown var {v}");
        }
        self.rows.push(Row { coeffs, cmp, rhs });
        self.rows.len() - 1
    }

    /// Solves the LP with the two-phase dense simplex.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Infeasible`] or [`MarketError::Unbounded`] for
    /// infeasible/unbounded problems, [`MarketError::IterationLimit`] if the
    /// pivot budget is exhausted, and [`MarketError::InvalidModel`] for
    /// non-finite input data.
    pub fn solve(&self) -> Result<LpSolution> {
        self.validate()?;
        simplex::solve(self)
    }

    fn validate(&self) -> Result<()> {
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err(MarketError::InvalidModel {
                reason: "non-finite objective coefficient".into(),
            });
        }
        for (i, row) in self.rows.iter().enumerate() {
            if !row.rhs.is_finite() || row.coeffs.iter().any(|(_, a)| !a.is_finite()) {
                return Err(MarketError::InvalidModel {
                    reason: format!("non-finite coefficient in row {i}"),
                });
            }
        }
        Ok(())
    }
}

/// The result of solving a [`LinearProgram`].
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value (in the problem's own sense).
    pub objective: f64,
    /// Optimal value of each variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Dual price of each constraint row.
    ///
    /// Signs follow the convention of a maximization problem with `≤` rows:
    /// duals are non-negative for binding `≤` rows. For minimization
    /// problems the duals are those of the equivalent negated maximization.
    pub duals: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_introspect() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        assert_eq!(lp.num_vars(), 2);
        let r = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        assert_eq!(r, 0);
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown var")]
    fn rejects_unknown_var_in_constraint() {
        let mut lp = LinearProgram::maximize();
        lp.add_constraint(vec![(3, 1.0)], Cmp::Le, 1.0);
    }

    #[test]
    fn rejects_non_finite_data() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var(f64::NAN);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        assert!(matches!(lp.solve(), Err(MarketError::InvalidModel { .. })));
    }
}
