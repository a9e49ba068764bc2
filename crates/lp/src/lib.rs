//! Linear-programming substrate, hand-rolled in pure Rust.
//!
//! The paper evaluates its algorithms against the LP-relaxation upper bound
//! `Z_f*` (§III-E) and, at small scale, against the exact integral optimum
//! `Z*` computed with CPLEX/MOSEK (§VI-B). Neither solver is available to a
//! pure-Rust reproduction, and the offline LP crate ecosystem is thin, so
//! this crate implements the one solver those need from scratch.
//!
//! Every LP the workspace solves is a packing LP (`max c·f` s.t. `A f ≤ 1`,
//! `f ≥ 0`, `A ∈ {0,1}`), and [`PackingLp`] solves them: a warm-startable
//! simplex whose tableau carries `B⁻¹` explicitly, so **column
//! generation** can append columns and re-optimise without restarting. It
//! is the master problem of the `Z_f*` bound, of every node of exact
//! `Z*`'s branch-and-price, and of each round of the `batch-opt` matcher's
//! assignment LP.
//!
//! The `oracle` feature (on in this crate's own tests; elsewhere only
//! dev-dependencies enable it) adds the solvers `PackingLp` and
//! branch-and-price are tested against: `LinearProgram`, a small
//! modelling layer (indexed variables, sparse `≤ / = / ≥` rows) over a
//! dense two-phase primal simplex with Bland-rule anti-cycling that
//! returns primal values and dual prices, and `BranchAndBound`, a 0/1
//! MILP solver (LP-relaxation bounding, most-fractional branching). No
//! runtime code calls either.
//!
//! # Examples
//!
//! ```
//! use rideshare_lp::PackingLp;
//!
//! // Two tasks (rows 0, 1) and one driver (row 2) who may serve either:
//! // max 3a + 2b  s.t.  a <= 1,  b <= 1,  a + b <= 1  → obj 3 at a = 1.
//! let mut lp = PackingLp::new(3);
//! let a = lp.add_column(3.0, &[0, 2]);
//! let b = lp.add_column(2.0, &[1, 2]);
//! let obj = lp.optimize().unwrap();
//! assert!((obj - 3.0).abs() < 1e-4);
//! let chosen: Vec<usize> = lp.basic_columns().filter(|&(_, f)| f > 0.5).map(|(j, _)| j).collect();
//! assert_eq!(chosen, [a]);
//! assert!(lp.primal(b) < 1e-4);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

#[cfg(any(test, feature = "oracle"))]
mod branch_bound;
#[cfg(any(test, feature = "oracle"))]
mod model;
mod packing;
#[cfg(any(test, feature = "oracle"))]
mod simplex;

#[cfg(any(test, feature = "oracle"))]
pub use branch_bound::{BranchAndBound, MilpSolution};
#[cfg(any(test, feature = "oracle"))]
pub use model::{Cmp, LinearProgram, LpSolution, VarId};
pub use packing::PackingLp;
