//! Linear- and integer-programming substrate, hand-rolled in pure Rust.
//!
//! The paper evaluates its algorithms against the LP-relaxation upper bound
//! `Z_f*` (§III-E) and, at small scale, against the exact integral optimum
//! `Z*` computed with CPLEX/MOSEK (§VI-B). Neither solver is available to a
//! pure-Rust reproduction, and the offline LP crate ecosystem is thin, so
//! this crate implements the required optimization machinery from scratch:
//!
//! - [`LinearProgram`]: a small modelling layer (indexed variables, sparse
//!   constraint rows, `≤ / = / ≥` senses) over the `simplex` module's
//!   dense two-phase primal simplex with Bland-rule anti-cycling,
//!   returning primal values **and dual prices**,
//! - [`PackingLp`]: a warm-startable simplex specialised to packing LPs
//!   (`max c·f` s.t. `A f ≤ 1`, `f ≥ 0`, `A ∈ {0,1}`) whose tableau carries
//!   `B⁻¹` explicitly so **column generation** can append columns and
//!   re-optimise without restarting — this is the master problem of the
//!   `Z_f*` bound and of every node of exact `Z*`'s branch-and-price,
//! - [`BranchAndBound`]: a 0/1 MILP solver (LP-relaxation bounding,
//!   most-fractional branching), the test oracle of exact `Z*`'s
//!   branch-and-price; no runtime code calls it.
//!
//! # Examples
//!
//! ```
//! use rideshare_lp::{Cmp, LinearProgram};
//!
//! // max 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y >= 0  → obj 10 at (2,2).
//! let mut lp = LinearProgram::maximize();
//! let x = lp.add_var(3.0);
//! let y = lp.add_var(2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], rideshare_lp::Cmp::Le, 4.0);
//! lp.add_constraint(vec![(x, 1.0)], rideshare_lp::Cmp::Le, 2.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 10.0).abs() < 1e-9);
//! assert!((sol.values[x] - 2.0).abs() < 1e-9);
//! # let _ = Cmp::Le;
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod branch_bound;
mod model;
mod packing;
mod simplex;

pub use branch_bound::{BranchAndBound, MilpSolution};
pub use model::{Cmp, LinearProgram, LpSolution, VarId};
pub use packing::PackingLp;
