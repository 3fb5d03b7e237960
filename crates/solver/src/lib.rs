//! # hercules-solver
//!
//! From-scratch optimization solvers for Hercules cluster provisioning
//! (paper Eq. (1)–(3)): a two-phase primal simplex for the LP relaxation,
//! and a branch and bound over it that re-optimizes each node from its
//! parent's tableau by dual simplex and returns the integral optimum once
//! its tree is exhausted. The paper solves the relaxation by interior
//! point (§V); server counts must be integral, and branch and bound finds
//! the best integral counts instead of rounding a relaxed point. No
//! external linear-algebra dependencies.
//!
//! ```
//! use hercules_solver::lp::{LinearProgram, Relation};
//! use hercules_solver::simplex::solve_simplex;
//!
//! // Minimize provisioned power: 200W and 450W server types, >= 900 QPS.
//! let mut lp = LinearProgram::minimize(vec![200.0, 450.0]);
//! lp.constrain(vec![100.0, 300.0], Relation::Ge, 900.0);
//! let sol = solve_simplex(&lp);
//! assert!((sol.objective - 1350.0).abs() < 1e-6);
//! ```

pub mod ilp;
pub mod lp;
pub mod simplex;

pub use ilp::{solve_ilp, IlpOptions, IlpSolution};
pub use lp::{LinearProgram, LpSolution, LpStatus, Relation};
pub use simplex::solve_simplex;
