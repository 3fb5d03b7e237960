//! Primal-dual path-following interior-point method.
//!
//! The paper's cluster manager "runs an optimizer program that uses an
//! interior-point solver \[12\] to obtain the optimal allocation solution"
//! (§V). This is that solver, built from scratch: constraints are lifted to
//! standard form `min c.x, Ax = b, x >= 0`, and each iteration takes one
//! centering Newton step through the normal equations `A D A^T dy = r`
//! (Cholesky-factorized, with adaptive regularization).

use crate::lp::{LinearProgram, LpSolution, LpStatus, Relation};
use crate::matrix::{dot, Mat};

const MAX_ITERS: usize = 200;
const SIGMA: f64 = 0.15;

/// Solves `lp` with the primal-dual interior-point method.
///
/// Converges to the optimum for feasible bounded problems; returns
/// [`LpStatus::IterationLimit`] when it cannot certify convergence (the
/// caller should fall back to [`crate::simplex::solve_simplex`], which is
/// exactly what the provisioning layer does).
pub fn solve_interior_point(lp: &LinearProgram) -> LpSolution {
    let n_orig = lp.num_vars();
    let cons = lp.constraints();
    let m = cons.len();
    if m == 0 {
        // Defer the trivial case to the simplex logic.
        return crate::simplex::solve_simplex(lp);
    }

    // Standard form: append one slack/surplus per inequality.
    let n_slack = cons
        .iter()
        .filter(|c| matches!(c.relation, Relation::Le | Relation::Ge))
        .count();
    let n = n_orig + n_slack;

    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut b = Vec::with_capacity(m);
    let mut slack = n_orig;
    for c in cons {
        let mut row = vec![0.0; n];
        row[..n_orig].copy_from_slice(&c.coeffs);
        match c.relation {
            Relation::Le => {
                row[slack] = 1.0;
                slack += 1;
            }
            Relation::Ge => {
                row[slack] = -1.0;
                slack += 1;
            }
            Relation::Eq => {}
        }
        rows.push(row);
        b.push(c.rhs);
    }
    let a = Mat::from_rows(&rows);
    let mut c_std = vec![0.0; n];
    c_std[..n_orig].copy_from_slice(lp.objective());

    // Starting point: components scaled to the problem's magnitude.
    let scale = b
        .iter()
        .chain(c_std.iter())
        .fold(1.0f64, |acc, &v| acc.max(v.abs()))
        .sqrt();
    let mut x = vec![scale; n];
    let mut s = vec![scale; n];
    let mut y = vec![0.0; m];

    let norm_b = 1.0 + b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let norm_c = 1.0 + c_std.iter().map(|v| v.abs()).fold(0.0, f64::max);

    for _ in 0..MAX_ITERS {
        // Residuals.
        let ax = a.matvec(&x);
        let rp: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let aty = a.t_matvec(&y);
        let rd: Vec<f64> = (0..n).map(|j| c_std[j] - aty[j] - s[j]).collect();
        let mu = dot(&x, &s) / n as f64;

        let rp_norm = rp.iter().map(|v| v.abs()).fold(0.0, f64::max) / norm_b;
        let rd_norm = rd.iter().map(|v| v.abs()).fold(0.0, f64::max) / norm_c;
        if mu < 1e-10 && rp_norm < 1e-9 && rd_norm < 1e-9 {
            let mut xo = x[..n_orig].to_vec();
            for v in xo.iter_mut() {
                if v.abs() < 1e-9 {
                    *v = 0.0;
                }
            }
            let objective = lp.objective_at(&xo);
            return LpSolution {
                status: LpStatus::Optimal,
                x: xo,
                objective,
            };
        }

        // Newton step on the perturbed KKT system.
        let d: Vec<f64> = (0..n).map(|j| x[j] / s[j]).collect();
        // rhs = rp + A * ( x - (sigma*mu)./s + D.*rd )
        let inner: Vec<f64> = (0..n)
            .map(|j| x[j] - SIGMA * mu / s[j] + d[j] * rd[j])
            .collect();
        let a_inner = a.matvec(&inner);
        let rhs: Vec<f64> = (0..m).map(|i| rp[i] + a_inner[i]).collect();

        // Normal equations with escalating regularization.
        let mut reg = 0.0;
        let dy = loop {
            let mut normal = a.a_d_at(&d);
            if reg > 0.0 {
                for i in 0..m {
                    normal[(i, i)] += reg;
                }
            }
            match normal.cholesky() {
                Ok(ch) => break ch.solve(&rhs),
                Err(_) if reg < 1.0 => {
                    reg = if reg == 0.0 { 1e-10 } else { reg * 100.0 };
                }
                Err(_) => {
                    return LpSolution {
                        status: LpStatus::IterationLimit,
                        x: vec![0.0; n_orig],
                        objective: 0.0,
                    }
                }
            }
        };

        let at_dy = a.t_matvec(&dy);
        let ds: Vec<f64> = (0..n).map(|j| rd[j] - at_dy[j]).collect();
        let dx: Vec<f64> = (0..n)
            .map(|j| SIGMA * mu / s[j] - x[j] - d[j] * ds[j])
            .collect();

        // Step lengths keeping x, s strictly positive.
        let alpha = |v: &[f64], dv: &[f64]| -> f64 {
            let mut a_max = 1.0f64;
            for j in 0..v.len() {
                if dv[j] < 0.0 {
                    a_max = a_max.min(-v[j] / dv[j]);
                }
            }
            (0.995 * a_max).min(1.0)
        };
        let ap = alpha(&x, &dx);
        let ad = alpha(&s, &ds);
        for j in 0..n {
            x[j] += ap * dx[j];
            s[j] += ad * ds[j];
        }
        for i in 0..m {
            y[i] += ad * dy[i];
        }
    }

    LpSolution {
        status: LpStatus::IterationLimit,
        x: vec![0.0; n_orig],
        objective: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LinearProgram, Relation};
    use crate::simplex::solve_simplex;

    fn assert_matches_simplex(lp: &LinearProgram, tol: f64) {
        let sx = solve_simplex(lp);
        assert_eq!(sx.status, LpStatus::Optimal, "simplex must solve this");
        let ip = solve_interior_point(lp);
        assert_eq!(
            ip.status,
            LpStatus::Optimal,
            "interior point must solve this"
        );
        assert!(
            (ip.objective - sx.objective).abs() <= tol * (1.0 + sx.objective.abs()),
            "objectives differ: ip {} vs simplex {}",
            ip.objective,
            sx.objective
        );
        assert!(lp.is_feasible(&ip.x, 1e-6));
    }

    #[test]
    fn matches_simplex_on_textbook_problem() {
        let mut lp = LinearProgram::minimize(vec![-3.0, -5.0]);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.constrain(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.constrain(vec![3.0, 2.0], Relation::Le, 18.0);
        assert_matches_simplex(&lp, 1e-6);
    }

    #[test]
    fn matches_simplex_with_ge_and_eq() {
        let mut lp = LinearProgram::minimize(vec![2.0, 3.0, 1.0]);
        lp.constrain(vec![1.0, 1.0, 0.0], Relation::Ge, 10.0);
        lp.constrain(vec![1.0, 0.0, 0.0], Relation::Le, 8.0);
        lp.constrain(vec![0.0, 1.0, 2.0], Relation::Eq, 7.0);
        assert_matches_simplex(&lp, 1e-6);
    }

    #[test]
    fn provisioning_shaped_problem() {
        // Two workloads x three server types (6 vars): minimize power.
        let qps = [[100.0, 300.0, 500.0], [80.0, 350.0, 400.0]];
        let power = [200.0, 450.0, 700.0];
        let cap = [6.0, 4.0, 2.0];
        let load = [900.0, 700.0];
        // Variables: x[w][t] flattened.
        let mut c = Vec::new();
        for _w in 0..2 {
            c.extend_from_slice(&power);
        }
        let mut lp = LinearProgram::minimize(c);
        for w in 0..2 {
            let mut row = vec![0.0; 6];
            for t in 0..3 {
                row[w * 3 + t] = qps[w][t];
            }
            lp.constrain(row, Relation::Ge, load[w]);
        }
        for t in 0..3 {
            let mut row = vec![0.0; 6];
            row[t] = 1.0;
            row[3 + t] = 1.0;
            lp.constrain(row, Relation::Le, cap[t]);
        }
        assert_matches_simplex(&lp, 1e-5);
    }

    #[test]
    fn random_lps_cross_validate() {
        // Deterministic pseudo-random feasible bounded LPs.
        let mut state = 0x1234_5678_u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for trial in 0..10 {
            let n = 3 + (trial % 3);
            let m = 2 + (trial % 2);
            // Positive costs keep the problem bounded below.
            let c: Vec<f64> = (0..n).map(|_| 0.5 + rnd()).collect();
            let mut lp = LinearProgram::minimize(c);
            for _ in 0..m {
                // a.x >= rhs with positive coefficients is always feasible.
                let row: Vec<f64> = (0..n).map(|_| 0.2 + rnd()).collect();
                let rhs = 1.0 + rnd() * 5.0;
                lp.constrain(row, Relation::Ge, rhs);
            }
            assert_matches_simplex(&lp, 1e-4);
        }
    }

    #[test]
    fn empty_constraint_set_defers() {
        let lp = LinearProgram::minimize(vec![1.0, 1.0]);
        let s = solve_interior_point(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x, vec![0.0, 0.0]);
    }
}
