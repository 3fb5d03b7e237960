//! Two-phase primal simplex with Bland's anti-cycling rule, and the dual
//! simplex that branch and bound re-optimizes children with.
//!
//! Dense tableau implementation sized for the provisioning problems of
//! Eq. (1)–(3): `H x M` variables (≤ a few hundred) and `H + M` constraints.
//! The tableau stores only the nonbasic columns (a basic column is a unit
//! vector), so a bound row appended by branch and bound, whose slack is
//! basic, adds a row and no column.

use crate::lp::{LinearProgram, LpSolution, LpStatus, Relation};

const TOL: f64 = 1e-9;
/// Smallest pivot element the dual simplex accepts.
const PIV_TOL: f64 = 1e-7;
const MAX_ITERS: usize = 50_000;

/// How a dual simplex run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DualStatus {
    /// Primal feasible again: the tableau is optimal.
    Optimal,
    /// A row has no entering column: the program is infeasible.
    Infeasible,
    /// The objective reached the cutoff, so the optimum cannot beat it.
    Cutoff,
    /// Stopped before a verdict: the iteration cap was hit, or the only
    /// pivots left were too small to take safely. Nothing is proven.
    Unfinished,
}

/// A simplex tableau in dictionary form: one row per basic variable, one
/// column per nonbasic variable. Variables are numbered structural first
/// (`0..n`), then one slack per inequality row.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    /// Row-major entries, `nonbasic.len()` per row.
    t: Vec<f64>,
    /// Basic variable per row.
    basis: Vec<usize>,
    /// Nonbasic variable per column.
    nonbasic: Vec<usize>,
    /// The basic variables' values.
    b: Vec<f64>,
    /// Reduced cost per column.
    red: Vec<f64>,
    /// Current objective value.
    obj: f64,
    /// Structural variables.
    n: usize,
    /// Number of the next bound row's slack variable.
    next_var: usize,
    /// The bounds added by [`Tableau::add_bound`], at most one per variable
    /// and direction: `(var, rel, value, slack variable)`.
    bounds: Vec<(usize, Relation, f64, usize)>,
}

impl Tableau {
    fn row(&self, r: usize) -> &[f64] {
        let k = self.nonbasic.len();
        &self.t[r * k..(r + 1) * k]
    }

    /// Exchanges the basic variable of `row` with the nonbasic one of `col`.
    fn pivot(&mut self, row: usize, col: usize) {
        let k = self.nonbasic.len();
        let (before, rest) = self.t.split_at_mut(row * k);
        let (prow, after) = rest.split_at_mut(k);
        let piv = prow[col];
        debug_assert!(piv.abs() > TOL, "pivot too small");
        let inv = 1.0 / piv;
        for v in prow.iter_mut() {
            *v *= inv;
        }
        // The leaving variable takes the entering one's column.
        prow[col] = inv;
        self.b[row] *= inv;
        let b_row = self.b[row];
        let others = before.chunks_exact_mut(k).enumerate().chain(
            after
                .chunks_exact_mut(k)
                .enumerate()
                .map(|(i, a)| (row + 1 + i, a)),
        );
        for (r, arow) in others {
            let f = arow[col];
            if f == 0.0 {
                continue;
            }
            for (v, &p) in arow.iter_mut().zip(prow.iter()) {
                *v -= f * p;
            }
            arow[col] = -f * inv;
            self.b[r] -= f * b_row;
            if self.b[r].abs() < TOL {
                self.b[r] = 0.0;
            }
        }
        let f = self.red[col];
        if f != 0.0 {
            for (v, &p) in self.red.iter_mut().zip(prow.iter()) {
                *v -= f * p;
            }
            self.red[col] = -f * inv;
            // The objective moves by (reduced cost) x (entering step).
            self.obj += f * b_row;
        }
        std::mem::swap(&mut self.basis[row], &mut self.nonbasic[col]);
    }

    /// Recomputes reduced costs and objective for `cost`, indexed by
    /// variable.
    fn price(&mut self, cost: &[f64]) {
        self.red = self.nonbasic.iter().map(|&v| cost[v]).collect();
        self.obj = 0.0;
        for r in 0..self.b.len() {
            let cb = cost[self.basis[r]];
            if cb == 0.0 {
                continue;
            }
            let k = self.nonbasic.len();
            for (d, &a) in self.red.iter_mut().zip(&self.t[r * k..(r + 1) * k]) {
                *d -= cb * a;
            }
            self.obj += cb * self.b[r];
        }
    }

    /// Runs the primal simplex loop with Bland's rule.
    fn optimize(&mut self) -> LpStatus {
        for _ in 0..MAX_ITERS {
            // Bland: entering = lowest-numbered variable with negative
            // reduced cost.
            let Some(col) = (0..self.nonbasic.len())
                .filter(|&c| self.red[c] < -TOL)
                .min_by_key(|&c| self.nonbasic[c])
            else {
                return LpStatus::Optimal;
            };
            // Ratio test; Bland tie-break on lowest basis variable index.
            let k = self.nonbasic.len();
            let mut best: Option<(usize, f64)> = None;
            for r in 0..self.b.len() {
                let a = self.t[r * k + col];
                if a > TOL {
                    let ratio = self.b[r] / a;
                    let better = match best {
                        None => true,
                        Some((br, bratio)) => {
                            ratio < bratio - TOL
                                || ((ratio - bratio).abs() <= TOL && self.basis[r] < self.basis[br])
                        }
                    };
                    if better {
                        best = Some((r, ratio));
                    }
                }
            }
            let Some((row, _)) = best else {
                return LpStatus::Unbounded;
            };
            self.pivot(row, col);
        }
        LpStatus::IterationLimit
    }

    /// Drops the rows and columns of the variables numbered `first` and up.
    fn drop_vars_from(&mut self, first: usize) {
        let cols: Vec<usize> = (0..self.nonbasic.len())
            .filter(|&c| self.nonbasic[c] < first)
            .collect();
        let rows: Vec<usize> = (0..self.b.len())
            .filter(|&r| self.basis[r] < first)
            .collect();
        self.t = rows
            .iter()
            .flat_map(|&r| cols.iter().map(move |&c| (r, c)))
            .map(|(r, c)| self.row(r)[c])
            .collect();
        self.basis = rows.iter().map(|&r| self.basis[r]).collect();
        self.b = rows.iter().map(|&r| self.b[r]).collect();
        self.nonbasic = cols.iter().map(|&c| self.nonbasic[c]).collect();
    }

    /// Solves `lp`, with the extra bounds `x_var (rel) value`, by the
    /// two-phase primal simplex from scratch, and returns the optimal
    /// tableau or the status that stopped it.
    pub(crate) fn solve(
        lp: &LinearProgram,
        bounds: &[(usize, Relation, f64)],
    ) -> Result<Tableau, LpStatus> {
        let n = lp.num_vars();
        let unit = |var: usize| {
            let mut row = vec![0.0; n];
            row[var] = 1.0;
            row
        };
        // Normalize rows so rhs >= 0.
        let rows: Vec<(Vec<f64>, Relation, f64)> = lp
            .constraints()
            .iter()
            .map(|c| (c.coeffs.clone(), c.relation, c.rhs))
            .chain(bounds.iter().map(|&(var, rel, v)| (unit(var), rel, v)))
            .map(|(coeffs, rel, rhs)| {
                if rhs < 0.0 {
                    let flipped = match rel {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    };
                    (coeffs.iter().map(|v| -v).collect(), flipped, -rhs)
                } else {
                    (coeffs, rel, rhs)
                }
            })
            .collect();

        // Variables: structural, then a slack per inequality row, then an
        // artificial per `>=` or `==` row. The slacks of `<=` rows and the
        // artificials start basic; the structurals and the surplus slacks
        // of `>=` rows start nonbasic.
        let n_slack = rows
            .iter()
            .filter(|(_, r, _)| matches!(r, Relation::Le | Relation::Ge))
            .count();
        let art_start = n + n_slack;
        let mut nonbasic: Vec<usize> = (0..n).collect();
        let mut basis = Vec::with_capacity(rows.len());
        let mut surplus = Vec::new();
        let mut bound_rows = Vec::with_capacity(bounds.len());
        let first_bound = lp.constraints().len();
        let (mut slack_idx, mut art_idx) = (n, art_start);
        for (r, &(_, rel, _)) in rows.iter().enumerate() {
            if r >= first_bound {
                let (var, brel, value) = bounds[r - first_bound];
                assert!(
                    brel != Relation::Eq && value >= 0.0,
                    "bounds are non-negative inequalities"
                );
                bound_rows.push((var, brel, value, slack_idx));
            }
            match rel {
                Relation::Le => {
                    basis.push(slack_idx);
                    slack_idx += 1;
                }
                Relation::Ge => {
                    surplus.push(r);
                    nonbasic.push(slack_idx);
                    slack_idx += 1;
                    basis.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    basis.push(art_idx);
                    art_idx += 1;
                }
            }
        }
        let k = nonbasic.len();
        let mut t = vec![0.0; rows.len() * k];
        for (r, (coeffs, _, _)) in rows.iter().enumerate() {
            t[r * k..r * k + n].copy_from_slice(coeffs);
        }
        for (i, &r) in surplus.iter().enumerate() {
            t[r * k + n + i] = -1.0;
        }
        let mut tab = Tableau {
            t,
            basis,
            nonbasic,
            b: rows.iter().map(|&(_, _, rhs)| rhs).collect(),
            red: Vec::new(),
            obj: 0.0,
            n,
            next_var: art_start,
            bounds: bound_rows,
        };

        // Phase 1: minimize the sum of artificials.
        if art_idx > art_start {
            let cost: Vec<f64> = (0..art_idx)
                .map(|v| if v >= art_start { 1.0 } else { 0.0 })
                .collect();
            tab.price(&cost);
            match tab.optimize() {
                LpStatus::Optimal => {}
                other => return Err(other),
            }
            if tab.obj > 1e-7 {
                return Err(LpStatus::Infeasible);
            }
            // Drive remaining artificials out of the basis.
            for r in 0..tab.b.len() {
                if tab.basis[r] >= art_start {
                    let col = (0..tab.nonbasic.len())
                        .filter(|&c| tab.nonbasic[c] < art_start && tab.row(r)[c].abs() > TOL)
                        .min_by_key(|&c| tab.nonbasic[c]);
                    if let Some(col) = col {
                        tab.pivot(r, col);
                    }
                }
            }
            // An artificial still basic sits at zero on a redundant row
            // (no structural or slack entry left): drop the row, and every
            // artificial column.
            tab.drop_vars_from(art_start);
        }

        // Phase 2 with the true objective.
        let mut cost = vec![0.0; art_start];
        cost[..n].copy_from_slice(lp.objective());
        tab.price(&cost);
        match tab.optimize() {
            LpStatus::Optimal => Ok(tab),
            other => Err(other),
        }
    }

    /// Adds the bound `x_var (rel) value` in the current basis: the first
    /// bound on a variable in a direction is appended as one row whose new
    /// slack variable is basic in it; a later one moves that row's
    /// right-hand side, which shifts the basic values along the slack's
    /// column. The tableau stays dual feasible; a basic value turns
    /// negative when the bound cuts off the current point, which
    /// [`Tableau::dual_optimize`] then repairs.
    ///
    /// # Panics
    ///
    /// Panics on [`Relation::Eq`]: branching only adds inequalities.
    pub(crate) fn add_bound(&mut self, var: usize, rel: Relation, value: f64) {
        // `sign * x_var + s = sign * value`, with `s >= 0`.
        let sign = match rel {
            Relation::Le => 1.0,
            Relation::Ge => -1.0,
            Relation::Eq => panic!("a bound row is an inequality"),
        };
        let k = self.nonbasic.len();
        if let Some(i) = self
            .bounds
            .iter()
            .position(|&(v, r, _, _)| v == var && r == rel)
        {
            let (_, _, old, slack) = self.bounds[i];
            let delta = sign * (value - old);
            if let Some(r) = self.basis.iter().position(|&v| v == slack) {
                self.b[r] += delta;
            } else {
                let c = self
                    .nonbasic
                    .iter()
                    .position(|&v| v == slack)
                    .expect("a bound's slack is basic or nonbasic");
                for (r, b) in self.b.iter_mut().enumerate() {
                    *b += delta * self.t[r * k + c];
                }
                self.obj -= delta * self.red[c];
            }
            self.bounds[i].2 = value;
            return;
        }
        let m = self.b.len();
        let rhs = match self.basis.iter().position(|&v| v == var) {
            // Substitute `x_var = b_r - sum_c t_rc x_c` over the nonbasics.
            Some(r) => {
                self.t.extend_from_within(r * k..(r + 1) * k);
                for v in &mut self.t[m * k..] {
                    *v *= -sign;
                }
                sign * (value - self.b[r])
            }
            None => {
                let c = self
                    .nonbasic
                    .iter()
                    .position(|&v| v == var)
                    .expect("a variable is basic or nonbasic");
                self.t.resize((m + 1) * k, 0.0);
                self.t[m * k + c] = sign;
                sign * value
            }
        };
        let slack = self.next_var;
        self.next_var += 1;
        self.b.push(rhs);
        self.basis.push(slack);
        self.bounds.push((var, rel, value, slack));
    }

    /// The bounds added so far, one per variable and direction, as
    /// `(var, rel, value)`.
    pub(crate) fn bounds(&self) -> impl Iterator<Item = (usize, Relation, f64)> + '_ {
        self.bounds.iter().map(|&(v, r, x, _)| (v, r, x))
    }

    /// Runs the dual simplex from a dual-feasible basis until every basic
    /// variable is non-negative, stopping early once the objective, which
    /// only rises, reaches `cutoff`.
    pub(crate) fn dual_optimize(&mut self, cutoff: f64, max_iters: usize) -> DualStatus {
        for _ in 0..max_iters {
            if self.obj >= cutoff {
                return DualStatus::Cutoff;
            }
            // Leaving row: the most negative basic value.
            let mut leave: Option<(usize, f64)> = None;
            for (r, &v) in self.b.iter().enumerate() {
                if v < -TOL && leave.map_or(true, |(_, w)| v < w) {
                    leave = Some((r, v));
                }
            }
            let Some((row, _)) = leave else {
                return DualStatus::Optimal;
            };
            // Entering column: the ratio test over the row's negative
            // entries keeps every reduced cost >= 0. Harris' two passes
            // allow each reduced cost a `TOL` of slack to pick, among the
            // near-minimal ratios, the largest pivot element.
            let prow = self.row(row);
            let candidates = || {
                prow.iter()
                    .enumerate()
                    .filter(|&(_, &a)| a < -PIV_TOL)
                    .map(|(c, &a)| (c, self.red[c].max(0.0), -a))
            };
            let bound = candidates()
                .map(|(_, d, a)| (d + TOL) / a)
                .fold(f64::INFINITY, f64::min);
            let mut enter: Option<(usize, f64)> = None;
            for (c, d, a) in candidates() {
                if d / a <= bound && enter.map_or(true, |(_, best)| a > best) {
                    enter = Some((c, a));
                }
            }
            let Some((col, _)) = enter else {
                // Infeasible only if the row has no negative entry at all.
                return if prow.iter().any(|&a| a < -TOL) {
                    DualStatus::Unfinished
                } else {
                    DualStatus::Infeasible
                };
            };
            self.pivot(row, col);
        }
        DualStatus::Unfinished
    }

    /// The objective at the current basis.
    pub(crate) fn objective(&self) -> f64 {
        self.obj
    }

    /// The structural variables' values at the current basis.
    pub(crate) fn point(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (r, &bv) in self.basis.iter().enumerate() {
            if bv < self.n {
                x[bv] = self.b[r];
            }
        }
        x
    }
}

/// Solves `lp` with the two-phase primal simplex method.
///
/// Variables are implicitly bounded below by zero. The returned
/// [`LpSolution::x`] is the optimal basic feasible solution when the status
/// is [`LpStatus::Optimal`].
pub fn solve_simplex(lp: &LinearProgram) -> LpSolution {
    match Tableau::solve(lp, &[]) {
        Ok(t) => {
            let x = t.point();
            let objective = lp.objective_at(&x);
            LpSolution {
                status: LpStatus::Optimal,
                x,
                objective,
            }
        }
        Err(status) => LpSolution {
            status,
            x: vec![0.0; lp.num_vars()],
            objective: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LinearProgram, Relation};

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        // -> min -3x - 5y; optimum x=2, y=6, obj=-36.
        let mut lp = LinearProgram::minimize(vec![-3.0, -5.0]);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.constrain(vec![0.0, 2.0], Relation::Le, 12.0);
        lp.constrain(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 2.0).abs() < 1e-8);
        assert!((s.x[1] - 6.0).abs() < 1e-8);
        assert!((s.objective + 36.0).abs() < 1e-8);
    }

    #[test]
    fn phase1_handles_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x <= 8 -> x=8, y=2, obj=22.
        let mut lp = LinearProgram::minimize(vec![2.0, 3.0]);
        lp.constrain(vec![1.0, 1.0], Relation::Ge, 10.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 8.0);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 22.0).abs() < 1e-8, "obj {}", s.objective);
        assert!(lp.is_feasible(&s.x, 1e-8));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 6, x >= 0 -> y=3, x=0, obj=3.
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![1.0, 2.0], Relation::Eq, 6.0);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![1.0], Relation::Le, 1.0);
        lp.constrain(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(solve_simplex(&lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x with only x >= 1: unbounded below.
        let mut lp = LinearProgram::minimize(vec![-1.0]);
        lp.constrain(vec![1.0], Relation::Ge, 1.0);
        assert_eq!(solve_simplex(&lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn unconstrained_origin() {
        let lp = LinearProgram::minimize(vec![1.0, 2.0]);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x, vec![0.0, 0.0]);
        let neg = LinearProgram::minimize(vec![-1.0]);
        assert_eq!(solve_simplex(&neg).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2 means y >= x + 2; min y -> x=0, y=2.
        let mut lp = LinearProgram::minimize(vec![0.0, 1.0]);
        lp.constrain(vec![1.0, -1.0], Relation::Le, -2.0);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints at the same vertex.
        let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 1.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 1.0);
        lp.constrain(vec![0.0, 1.0], Relation::Le, 1.0);
        lp.constrain(vec![1.0, 1.0], Relation::Le, 2.0);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 2.0).abs() < 1e-8);
    }

    #[test]
    fn provisioning_shaped_problem() {
        // Two server types, one workload: minimize power subject to QPS.
        // Type A: 100 QPS @ 200 W; type B: 300 QPS @ 450 W; need 900 QPS,
        // at most 5 of each. B is more efficient: expect 3 B servers.
        let mut lp = LinearProgram::minimize(vec![200.0, 450.0]);
        lp.constrain(vec![100.0, 300.0], Relation::Ge, 900.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 5.0);
        lp.constrain(vec![0.0, 1.0], Relation::Le, 5.0);
        let s = solve_simplex(&lp);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.x[0].abs() < 1e-8);
        assert!((s.x[1] - 3.0).abs() < 1e-8);
        assert!((s.objective - 1350.0).abs() < 1e-8);
    }

    #[test]
    fn dual_simplex_reoptimizes_an_added_bound() {
        // The provisioning problem above with b <= 2 added to the optimal
        // tableau: a few dual pivots reach the same point a from-scratch
        // solve of the bounded program finds (a = 3, b = 2, 1500 W).
        let mut lp = LinearProgram::minimize(vec![200.0, 450.0]);
        lp.constrain(vec![100.0, 300.0], Relation::Ge, 900.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 5.0);
        let mut t = Tableau::solve(&lp, &[]).unwrap();
        t.add_bound(1, Relation::Le, 2.0);
        assert_eq!(t.dual_optimize(f64::INFINITY, 100), DualStatus::Optimal);
        assert!((t.objective() - 1500.0).abs() < 1e-9, "{}", t.objective());
        // A cutoff below the optimum stops the re-solve; a bound no point
        // meets proves the node infeasible.
        let mut cut = Tableau::solve(&lp, &[]).unwrap();
        cut.add_bound(1, Relation::Le, 2.0);
        assert_eq!(cut.dual_optimize(1400.0, 100), DualStatus::Cutoff);
        let mut dead = Tableau::solve(&lp, &[]).unwrap();
        dead.add_bound(0, Relation::Ge, 6.0);
        assert_eq!(
            dead.dual_optimize(f64::INFINITY, 100),
            DualStatus::Infeasible
        );
    }

    #[test]
    fn tightened_bounds_match_a_from_scratch_solve() {
        // Each bound is added to the warm tableau (a repeated variable and
        // direction moves its row), re-optimized, and checked against a
        // from-scratch solve of the bounds so far.
        let mut lp = LinearProgram::minimize(vec![200.0, 450.0, 300.0]);
        lp.constrain(vec![100.0, 300.0, 180.0], Relation::Ge, 900.0);
        lp.constrain(vec![1.0, 1.0, 1.0], Relation::Le, 9.0);
        let mut t = Tableau::solve(&lp, &[]).unwrap();
        let steps = [
            (1, Relation::Le, 2.0),
            (0, Relation::Ge, 1.0),
            (1, Relation::Le, 1.0),
            (2, Relation::Le, 2.0),
            (0, Relation::Ge, 3.0),
            (2, Relation::Le, 1.0),
        ];
        for (i, &(var, rel, value)) in steps.iter().enumerate() {
            t.add_bound(var, rel, value);
            assert_eq!(t.dual_optimize(f64::INFINITY, 100), DualStatus::Optimal);
            let bounds: Vec<_> = t.bounds().collect();
            assert!(bounds.len() <= 3, "one row per variable and direction");
            let scratch = Tableau::solve(&lp, &bounds).unwrap();
            assert!(
                (t.objective() - scratch.objective()).abs() < 1e-9,
                "step {i}: {} vs {}",
                t.objective(),
                scratch.objective()
            );
            for (w, s) in t.point().iter().zip(scratch.point()) {
                assert!((w - s).abs() < 1e-9, "step {i}");
            }
        }
    }
}
