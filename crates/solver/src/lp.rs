//! Linear-program description shared by the simplex and branch and
//! bound.

use std::fmt;

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs . x <= rhs`
    Le,
    /// `coeffs . x >= rhs`
    Ge,
    /// `coeffs . x == rhs`
    Eq,
}

/// One linear constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Coefficients over the decision variables.
    pub coeffs: Vec<f64>,
    /// The relation.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization LP over non-negative variables:
/// `min c.x  s.t.  constraints, x >= 0`.
///
/// ```
/// use hercules_solver::lp::{LinearProgram, Relation};
///
/// // min x + 2y  s.t.  x + y >= 4, y <= 3, x,y >= 0
/// let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
/// lp.constrain(vec![1.0, 1.0], Relation::Ge, 4.0);
/// lp.constrain(vec![0.0, 1.0], Relation::Le, 3.0);
/// assert_eq!(lp.num_vars(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates `min c.x` with no constraints yet.
    ///
    /// # Panics
    ///
    /// Panics if `c` is empty or contains non-finite entries.
    pub fn minimize(c: Vec<f64>) -> Self {
        assert!(!c.is_empty(), "objective needs at least one variable");
        assert!(c.iter().all(|v| v.is_finite()), "objective must be finite");
        LinearProgram {
            objective: c,
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` does not match the variable count or any
    /// value is non-finite.
    pub fn constrain(&mut self, coeffs: Vec<f64>, relation: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.objective.len(),
            "constraint arity mismatch"
        );
        assert!(
            coeffs.iter().all(|v| v.is_finite()) && rhs.is_finite(),
            "constraint must be finite"
        );
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
        self
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// The objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Objective value at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` mismatches.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Whether `x >= 0` satisfies every constraint within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// Solver verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit",
        };
        f.write_str(s)
    }
}

/// A solver result.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Verdict.
    pub status: LpStatus,
    /// Primal point (meaningful only when `status == Optimal`).
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub objective: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_checks() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![1.0, 1.0], Relation::Ge, 2.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 5.0);
        assert!(lp.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5, 0.5], 1e-9)); // violates Ge
        assert!(!lp.is_feasible(&[6.0, 0.0], 1e-9)); // violates Le
        assert!(!lp.is_feasible(&[-1.0, 4.0], 1e-9)); // negative
        assert_eq!(lp.objective_at(&[1.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_enforced() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![1.0], Relation::Le, 1.0);
    }
}
