//! Branch-and-bound integer programming over the LP relaxation.
//!
//! Server counts `N_{h,m}` are integral; the provisioning layer solves the
//! LP relaxation of Eq. (1)–(3) and branches on fractional counts. Two
//! things keep the tree small and each node cheap:
//!
//! - **Presolve.** Every `>=` row with non-negative coefficients and a
//!   positive right-hand side `b` (a load row) has each coefficient
//!   clamped to `b` and gains the cardinality row
//!   `sum x_j >= ceil(b / max a_j)` over its support. Neither changes the
//!   set of non-negative integer solutions, but both cut fractional points
//!   off the relaxation, so the root bound sits close to the optimum.
//! - **Warm start.** The root is solved once by the two-phase simplex; a
//!   child appends its one bound row to its parent's optimal tableau (or
//!   moves the row an earlier bound on the same variable and direction
//!   added) and re-optimizes with the dual simplex, stopping as soon as
//!   its bound reaches the incumbent. A child whose dual simplex hits its
//!   iteration cap, or whose point fails a check against the rows and
//!   bounds, is solved again from scratch, never pruned unproven.
//!
//! The node cap guards pathological inputs, not the provisioning programs
//! of the paper's setup, whose trees close well inside it: when it trips,
//! the best point found so far comes back with
//! [`LpStatus::IterationLimit`].

use crate::lp::{LinearProgram, LpStatus, Relation};
use crate::simplex::{DualStatus, Tableau};

/// Distance from an integer below which a relaxation value counts as
/// integral.
const INT_TOL: f64 = 1e-8;

/// Tolerance of the feasibility check every returned point passes.
const FEAS_TOL: f64 = 1e-9;

/// Row or bound violation past which a warm node's point counts as
/// drifted. It sits below `INT_TOL`, so a node whose bounds hold never
/// branches on a bound it already has, and the tree stays finite.
const DRIFT_TOL: f64 = 2e-9;

/// Dual simplex pivots one child may take before it is solved from
/// scratch instead.
const DUAL_MAX_ITERS: usize = 1_000;

/// Options for [`solve_ilp`].
#[derive(Debug, Clone)]
pub struct IlpOptions {
    /// Maximum branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// A known integral point. If it is feasible for the program it starts
    /// as the incumbent: nodes whose relaxation cannot beat it are pruned at
    /// once, and if no node beats it, it is the point returned, with
    /// [`LpStatus::Optimal`] once the tree is exhausted. A point that fails
    /// the check is ignored.
    pub incumbent: Option<Vec<f64>>,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            max_nodes: 20_000,
            incumbent: None,
        }
    }
}

/// An integer solution.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Verdict: [`LpStatus::Optimal`] when the tree was exhausted (`x` is
    /// the optimum), [`LpStatus::IterationLimit`] when the search stopped
    /// short of that, at the node cap or on a subtree it could not settle
    /// (`x` is the best point found, empty if none was), and
    /// [`LpStatus::Infeasible`] when no integral point satisfies the
    /// constraints.
    pub status: LpStatus,
    /// The best integral point found (exact integers, feasible for the
    /// program); empty when there is none.
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub objective: f64,
    /// Nodes explored.
    pub nodes: usize,
}

/// The variable farthest from an integer, if any is more than `tol` away.
fn most_fractional(x: &[f64], tol: f64) -> Option<usize> {
    let mut best = None;
    let mut best_frac = tol;
    for (i, &v) in x.iter().enumerate() {
        let frac = (v - v.round()).abs();
        if frac > best_frac {
            best_frac = frac;
            best = Some(i);
        }
    }
    best
}

/// Tightens `lp` without changing its set of non-negative integer
/// solutions. A `>=` row whose coefficients are all non-negative and whose
/// right-hand side `b` is positive is met by an integral point iff it is
/// met with every coefficient clamped to `b` (a variable whose coefficient
/// exceeds `b` meets it alone once it is at least 1), and then at least
/// `ceil(b / max a_j)` units of the row's support are needed. Such a row is
/// also divided by `b`, which puts its coefficients in `[0, 1]` like the
/// capacity and cardinality rows and keeps the tableau well scaled. Other
/// rows are copied unchanged.
fn presolve(lp: &LinearProgram) -> LinearProgram {
    let mut out = LinearProgram::minimize(lp.objective().to_vec());
    for c in lp.constraints() {
        let b = c.rhs;
        if c.relation != Relation::Ge || b <= 0.0 || c.coeffs.iter().any(|&a| a < 0.0) {
            out.constrain(c.coeffs.clone(), c.relation, b);
            continue;
        }
        let top = c.coeffs.iter().fold(0.0, |m: f64, &a| m.max(a.min(b)));
        // The slack keeps float noise from cutting off a point that covers
        // `b` exactly.
        let need = (b / top - 1e-9).ceil();
        out.constrain(
            c.coeffs.iter().map(|&a| a.min(b) / b).collect(),
            Relation::Ge,
            1.0,
        );
        // `need == 1` is implied by the clamped row; an all-zero row is
        // left for the relaxation to find infeasible.
        if top > 0.0 && need >= 2.0 {
            let support = c
                .coeffs
                .iter()
                .map(|&a| if a > 0.0 { 1.0 } else { 0.0 })
                .collect();
            out.constrain(support, Relation::Ge, need);
        }
    }
    out
}

/// Whether the point of a re-optimized tableau meets the presolved rows and
/// the node's bounds; one that misses shows float drift in the warm tableau.
fn holds(work: &LinearProgram, tableau: &Tableau) -> bool {
    let x = tableau.point();
    work.is_feasible(&x, DRIFT_TOL)
        && tableau.bounds().all(|(var, rel, value)| match rel {
            Relation::Le => x[var] <= value + DRIFT_TOL,
            _ => x[var] >= value - DRIFT_TOL,
        })
}

/// One open node: its parent's optimal tableau and the bound that makes it
/// a child, applied when it is explored.
struct Node {
    tableau: Tableau,
    branch: Option<(usize, Relation, f64)>,
}

/// Solves `lp` with all variables required integral (and non-negative).
///
/// Depth-first branch and bound over the presolved program: it branches on
/// the most fractional variable, explores the round-down child first, and
/// prunes every node whose relaxation cannot beat the incumbent.
pub fn solve_ilp(lp: &LinearProgram, opts: &IlpOptions) -> IlpSolution {
    branch_and_bound(lp, opts, DUAL_MAX_ITERS)
}

fn branch_and_bound(lp: &LinearProgram, opts: &IlpOptions, dual_iters: usize) -> IlpSolution {
    let mut best: Option<(Vec<f64>, f64)> = opts
        .incumbent
        .as_ref()
        .filter(|x| x.iter().all(|v| v.fract() == 0.0) && lp.is_feasible(x, FEAS_TOL))
        .map(|x| (x.clone(), lp.objective_at(x)));
    // Prune a node unless its bound beats the incumbent by more than noise.
    let cutoff = |best: &Option<(Vec<f64>, f64)>| {
        best.as_ref()
            .map_or(f64::INFINITY, |&(_, obj)| obj - 1e-10 * obj.abs().max(1.0))
    };
    let work = presolve(lp);
    let mut nodes = 1;
    let mut exhausted = true;
    let mut stack = match Tableau::solve(&work, &[]) {
        Ok(tableau) => vec![Node {
            tableau,
            branch: None,
        }],
        // An unbounded root means an unbounded ILP (or a modeling error);
        // deeper nodes inherit boundedness from it.
        Err(LpStatus::Unbounded) => {
            return IlpSolution {
                status: LpStatus::Unbounded,
                x: Vec::new(),
                objective: 0.0,
                nodes,
            }
        }
        Err(LpStatus::Infeasible) => Vec::new(),
        Err(_) => {
            exhausted = false;
            Vec::new()
        }
    };

    while let Some(Node {
        mut tableau,
        branch,
    }) = stack.pop()
    {
        if let Some((var, rel, value)) = branch {
            if nodes >= opts.max_nodes {
                exhausted = false;
                break;
            }
            nodes += 1;
            tableau.add_bound(var, rel, value);
            let warm = match tableau.dual_optimize(cutoff(&best), dual_iters) {
                DualStatus::Infeasible | DualStatus::Cutoff => continue,
                DualStatus::Optimal => holds(&work, &tableau),
                DualStatus::Unfinished => false,
            };
            // A child the dual simplex could not settle, or whose point
            // float drift has pushed off a row, is solved again from
            // scratch.
            if !warm {
                let bounds: Vec<(usize, Relation, f64)> = tableau.bounds().collect();
                match Tableau::solve(&work, &bounds) {
                    Ok(t) => tableau = t,
                    Err(LpStatus::Infeasible) => continue,
                    Err(_) => {
                        exhausted = false;
                        continue;
                    }
                }
            }
        }
        if tableau.objective() >= cutoff(&best) {
            continue;
        }

        let x = tableau.point();
        let var = match most_fractional(&x, INT_TOL) {
            Some(var) => var,
            None => {
                let rounded: Vec<f64> = x.iter().map(|v| v.round() + 0.0).collect();
                if lp.is_feasible(&rounded, FEAS_TOL) {
                    let obj = lp.objective_at(&rounded);
                    if best.as_ref().map_or(true, |&(_, b)| obj < b) {
                        best = Some((rounded, obj));
                    }
                    continue;
                }
                // Rounding pushed a row past its bound: branch on a value
                // barely off an integer instead, if one is off by more than
                // drift; otherwise this subtree is unproven.
                match most_fractional(&x, DRIFT_TOL) {
                    Some(var) => var,
                    None => {
                        exhausted = false;
                        continue;
                    }
                }
            }
        };
        let v = x[var];
        // Explore the "round down" child first (cheaper for minimization
        // with non-negative costs), by pushing it last; it takes over the
        // parent's tableau, the other child a copy.
        stack.push(Node {
            tableau: tableau.clone(),
            branch: Some((var, Relation::Ge, v.ceil())),
        });
        stack.push(Node {
            tableau,
            branch: Some((var, Relation::Le, v.floor())),
        });
    }

    let status = match (&best, exhausted) {
        (_, false) => LpStatus::IterationLimit,
        (Some(_), true) => LpStatus::Optimal,
        (None, true) => LpStatus::Infeasible,
    };
    let (x, objective) = best.unwrap_or_default();
    IlpSolution {
        status,
        x,
        objective,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LinearProgram;

    /// Exhaustive search over a small box, for cross-validation.
    fn brute_force(lp: &LinearProgram, hi: i64) -> Option<(Vec<f64>, f64)> {
        let n = lp.num_vars();
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut x = vec![0i64; n];
        loop {
            let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            if lp.is_feasible(&xf, 1e-9) {
                let obj = lp.objective_at(&xf);
                if best.as_ref().map_or(true, |(_, b)| obj < b - 1e-12) {
                    best = Some((xf, obj));
                }
            }
            // Increment odometer.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                x[i] += 1;
                if x[i] > hi {
                    x[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Randomized-but-deterministic mini provisioning problems: 2 workloads
    /// x 2 types.
    fn provisioning_instances() -> Vec<LinearProgram> {
        let mut state = 42u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000) as f64 / 1000.0
        };
        (0..8)
            .map(|_| {
                let qps = [
                    [50.0 + 200.0 * rnd(), 50.0 + 200.0 * rnd()],
                    [50.0 + 200.0 * rnd(), 50.0 + 200.0 * rnd()],
                ];
                let power = [100.0 + 300.0 * rnd(), 100.0 + 300.0 * rnd()];
                let cap = [3.0 + (4.0 * rnd()).floor(), 3.0 + (4.0 * rnd()).floor()];
                let load = [150.0 + 250.0 * rnd(), 150.0 + 250.0 * rnd()];
                let mut lp = LinearProgram::minimize(vec![power[0], power[1], power[0], power[1]]);
                for w in 0..2 {
                    let mut row = vec![0.0; 4];
                    row[w * 2] = qps[w][0];
                    row[w * 2 + 1] = qps[w][1];
                    lp.constrain(row, Relation::Ge, load[w]);
                }
                for t in 0..2 {
                    let mut row = vec![0.0; 4];
                    row[t] = 1.0;
                    row[2 + t] = 1.0;
                    lp.constrain(row, Relation::Le, cap[t]);
                }
                lp
            })
            .collect()
    }

    #[test]
    fn knapsack_like_problem() {
        // min 5a + 4b s.t. 2a + 3b >= 12, a <= 4, b <= 4.
        let mut lp = LinearProgram::minimize(vec![5.0, 4.0]);
        lp.constrain(vec![2.0, 3.0], Relation::Ge, 12.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 4.0);
        lp.constrain(vec![0.0, 1.0], Relation::Le, 4.0);
        let s = solve_ilp(&lp, &IlpOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        let (_, brute_obj) = brute_force(&lp, 5).unwrap();
        assert!(
            (s.objective - brute_obj).abs() < 1e-9,
            "{} vs {brute_obj}",
            s.objective
        );
    }

    #[test]
    fn fractional_relaxation_forces_branching() {
        // min a + b s.t. 2a + 2b >= 3: the cardinality row a + b >= 2
        // already makes the root integral.
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![2.0, 2.0], Relation::Ge, 3.0);
        let s = solve_ilp(&lp, &IlpOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.objective - 2.0).abs() < 1e-9,
            "need two units: {}",
            s.objective
        );
        // min 3a + 5b s.t. 2a + 3b >= 7: after presolve (a + b >= 3) the
        // root is still a = 3.5, so the optimum (a, b) = (2, 1) needs
        // branching.
        let mut lp = LinearProgram::minimize(vec![3.0, 5.0]);
        lp.constrain(vec![2.0, 3.0], Relation::Ge, 7.0);
        let s = solve_ilp(&lp, &IlpOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x, vec![2.0, 1.0]);
        assert!((s.objective - 11.0).abs() < 1e-9, "{}", s.objective);
        assert!(s.nodes > 1, "must have branched");
    }

    #[test]
    fn infeasible_integer_program() {
        // 2a == 3 has no integer solution.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![2.0], Relation::Eq, 3.0);
        let s = solve_ilp(&lp, &IlpOptions::default());
        assert_eq!(s.status, LpStatus::Infeasible);
        assert!(s.x.is_empty());
    }

    #[test]
    fn optimal_incumbent_is_returned_as_optimal() {
        // The root bound equals the incumbent's 1350 W, so every node is
        // pruned: the incumbent is the proven optimum, not "infeasible".
        let mut lp = LinearProgram::minimize(vec![200.0, 450.0]);
        lp.constrain(vec![100.0, 300.0], Relation::Ge, 900.0);
        lp.constrain(vec![1.0, 0.0], Relation::Le, 5.0);
        lp.constrain(vec![0.0, 1.0], Relation::Le, 5.0);
        let opts = IlpOptions {
            incumbent: Some(vec![0.0, 3.0]),
            ..IlpOptions::default()
        };
        let s = solve_ilp(&lp, &opts);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x, vec![0.0, 3.0]);
        assert_eq!(s.objective, 1350.0);
        // A worse incumbent is beaten; an infeasible one is ignored.
        for start in [vec![5.0, 2.0], vec![1.0, 1.0], vec![0.5, 3.0]] {
            let opts = IlpOptions {
                incumbent: Some(start),
                ..IlpOptions::default()
            };
            let s = solve_ilp(&lp, &opts);
            assert_eq!(s.status, LpStatus::Optimal);
            assert_eq!(s.x, vec![0.0, 3.0]);
        }
    }

    #[test]
    fn presolve_keeps_mixed_sign_and_le_rows() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![300.0, -100.0], Relation::Ge, 100.0);
        lp.constrain(vec![300.0, 300.0], Relation::Le, 900.0);
        lp.constrain(vec![500.0, 50.0], Relation::Ge, 100.0);
        let p = presolve(&lp);
        let rows = p.constraints();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[..2], lp.constraints()[..2]);
        assert_eq!(rows[2].coeffs, vec![1.0, 0.5]);
        assert_eq!(rows[2].rhs, 1.0);
        // 250 / 60 needs five servers; 300 / 100 exactly three.
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0]);
        lp.constrain(vec![60.0, 0.0, 10.0], Relation::Ge, 250.0);
        lp.constrain(vec![100.0, 100.0, 0.0], Relation::Ge, 300.0);
        let p = presolve(&lp);
        let rows = p.constraints();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].coeffs, vec![0.24, 0.0, 0.04]);
        assert_eq!(rows[1].coeffs, vec![1.0, 0.0, 1.0]);
        assert_eq!(rows[1].rhs, 5.0);
        assert_eq!(rows[3].coeffs, vec![1.0, 1.0, 0.0]);
        assert_eq!(rows[3].rhs, 3.0);
    }

    #[test]
    fn matches_brute_force_on_provisioning_instances() {
        for lp in provisioning_instances() {
            let s = solve_ilp(&lp, &IlpOptions::default());
            let brute = brute_force(&lp, 8);
            match brute {
                Some((_, brute_obj)) => {
                    assert_eq!(s.status, LpStatus::Optimal);
                    assert!(
                        (s.objective - brute_obj).abs() < 1e-6,
                        "ilp {} vs brute {brute_obj}",
                        s.objective
                    );
                }
                None => assert_eq!(s.status, LpStatus::Infeasible),
            }
        }
    }

    #[test]
    fn children_past_the_dual_cap_are_solved_from_scratch() {
        // With no dual pivots allowed, every child that needs one is
        // re-solved from scratch and none is pruned unproven.
        for lp in provisioning_instances() {
            let warm = solve_ilp(&lp, &IlpOptions::default());
            let cold = branch_and_bound(&lp, &IlpOptions::default(), 0);
            assert_eq!(cold.status, warm.status);
            assert!(
                (cold.objective - warm.objective).abs() < 1e-6,
                "{} vs {}",
                cold.objective,
                warm.objective
            );
        }
    }

    #[test]
    fn node_cap_returns_the_best_point_so_far() {
        let mut lp = LinearProgram::minimize(vec![3.0, 5.0]);
        lp.constrain(vec![2.0, 3.0], Relation::Ge, 7.0);
        let capped = IlpOptions {
            max_nodes: 1,
            ..IlpOptions::default()
        };
        let s = solve_ilp(&lp, &capped);
        assert_eq!(s.status, LpStatus::IterationLimit);
        assert!(s.x.is_empty(), "the root alone finds no integral point");
        let opts = IlpOptions {
            incumbent: Some(vec![4.0, 0.0]),
            ..capped
        };
        let s = solve_ilp(&lp, &opts);
        assert_eq!(s.status, LpStatus::IterationLimit);
        assert_eq!(s.x, vec![4.0, 0.0]);
    }

    #[test]
    fn near_integral_point_that_rounds_infeasible_is_branched() {
        // The root puts x at 3 + 5e-9, which counts as integral, but x = 3
        // misses the row: the node branches on it, and x = 4 is proven.
        let mut lp = LinearProgram::minimize(vec![1.0, 0.0]);
        lp.constrain(vec![1e4, -1.0], Relation::Ge, 30_000.000_05);
        lp.constrain(vec![0.0, 1.0], Relation::Le, 0.0);
        let s = solve_ilp(&lp, &IlpOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x, vec![4.0, 0.0]);
        assert!(s.nodes > 1);
    }

    #[test]
    fn integral_solution_is_integral() {
        let mut lp = LinearProgram::minimize(vec![3.0, 2.0, 4.0]);
        lp.constrain(vec![1.0, 1.0, 1.0], Relation::Ge, 7.3);
        lp.constrain(vec![1.0, 0.0, 0.0], Relation::Le, 3.0);
        let s = solve_ilp(&lp, &IlpOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        for v in &s.x {
            assert_eq!(*v, v.round());
        }
        assert!(lp.is_feasible(&s.x, 1e-9));
    }
}
