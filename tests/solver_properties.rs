//! Property-based tests on the optimization stack: the from-scratch solvers
//! must agree with each other and with brute force on randomized
//! provisioning-shaped instances.

use proptest::prelude::*;

use hercules::solver::{
    solve_ilp, solve_interior_point, solve_simplex, IlpOptions, LinearProgram, LpStatus, Relation,
};

/// Builds a random feasible, bounded provisioning LP:
/// `min power . x  s.t.  per-workload QPS >= load, per-type count <= cap`.
fn provisioning_lp(
    qps: Vec<Vec<f64>>,
    power: Vec<f64>,
    caps: Vec<u32>,
    demands: Vec<f64>,
) -> LinearProgram {
    let types = power.len();
    let workloads = qps.len();
    let n = types * workloads;
    let mut cost = Vec::with_capacity(n);
    for _ in 0..workloads {
        cost.extend_from_slice(&power);
    }
    let mut lp = LinearProgram::minimize(cost);
    for (w, q) in qps.iter().enumerate() {
        let mut row = vec![0.0; n];
        for t in 0..types {
            row[w * types + t] = q[t];
        }
        lp.constrain(row, Relation::Ge, demands[w]);
    }
    for (t, &cap) in caps.iter().enumerate() {
        let mut row = vec![0.0; n];
        for w in 0..workloads {
            row[w * types + t] = 1.0;
        }
        lp.constrain(row, Relation::Le, cap as f64);
    }
    lp
}

/// Brute force over a small integral box.
fn brute_force(lp: &LinearProgram, hi: i64) -> Option<f64> {
    let n = lp.num_vars();
    let mut best: Option<f64> = None;
    let mut x = vec![0i64; n];
    loop {
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        if lp.is_feasible(&xf, 1e-9) {
            let obj = lp.objective_at(&xf);
            if best.map_or(true, |b| obj < b - 1e-12) {
                best = Some(obj);
            }
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The LP relaxation is always a lower bound on the ILP optimum, and
    /// both solvers find feasible points.
    #[test]
    fn relaxation_bounds_ilp(
        q in prop::collection::vec(50.0f64..400.0, 2),
        p in prop::collection::vec(100.0f64..500.0, 2),
        caps in prop::collection::vec(2u32..6, 2),
        demand in 100.0f64..600.0,
    ) {
        let lp = provisioning_lp(vec![q], p, caps, vec![demand]);
        let relax = solve_simplex(&lp);
        let ilp = solve_ilp(&lp, &IlpOptions::default());
        match (relax.status, ilp.status) {
            (LpStatus::Optimal, LpStatus::Optimal) => {
                prop_assert!(relax.objective <= ilp.objective + 1e-6,
                    "relaxation {} must lower-bound ILP {}", relax.objective, ilp.objective);
                prop_assert!(lp.is_feasible(&ilp.x, 1e-6));
                for v in &ilp.x {
                    prop_assert_eq!(*v, v.round());
                }
            }
            (LpStatus::Infeasible, s) => prop_assert_eq!(s, LpStatus::Infeasible),
            _ => {}
        }
    }

    /// Interior point and simplex agree on the relaxation optimum.
    #[test]
    fn interior_point_agrees_with_simplex(
        q0 in prop::collection::vec(50.0f64..400.0, 3),
        q1 in prop::collection::vec(50.0f64..400.0, 3),
        p in prop::collection::vec(100.0f64..500.0, 3),
        caps in prop::collection::vec(3u32..8, 3),
        d0 in 100.0f64..500.0,
        d1 in 100.0f64..500.0,
    ) {
        let lp = provisioning_lp(vec![q0, q1], p, caps, vec![d0, d1]);
        let sx = solve_simplex(&lp);
        prop_assume!(sx.status == LpStatus::Optimal);
        let ip = solve_interior_point(&lp);
        prop_assert_eq!(ip.status, LpStatus::Optimal);
        prop_assert!((ip.objective - sx.objective).abs() <= 1e-4 * (1.0 + sx.objective.abs()),
            "ip {} vs simplex {}", ip.objective, sx.objective);
        prop_assert!(lp.is_feasible(&ip.x, 1e-5));
    }

    /// The ILP matches exhaustive search on tiny instances.
    #[test]
    fn ilp_matches_brute_force(
        q in prop::collection::vec(80.0f64..300.0, 2),
        p in prop::collection::vec(100.0f64..400.0, 2),
        demand in 50.0f64..500.0,
    ) {
        let lp = provisioning_lp(vec![q], p, vec![4, 4], vec![demand]);
        let ilp = solve_ilp(&lp, &IlpOptions::default());
        match brute_force(&lp, 5) {
            Some(best) => {
                prop_assert_eq!(ilp.status, LpStatus::Optimal);
                prop_assert!((ilp.objective - best).abs() < 1e-6,
                    "ilp {} vs brute {}", ilp.objective, best);
            }
            None => prop_assert_eq!(ilp.status, LpStatus::Infeasible),
        }
    }

    /// Branch and bound's presolve keeps every integer optimum. Two
    /// workloads share three server types: one type alone covers workload
    /// 0's demand (so its coefficient is clamped), workload 1 needs at
    /// least two servers (so it gains a cardinality row), and a coupling
    /// row with a negative coefficient, where type-1 servers need type-0
    /// ones, must pass through presolve unchanged.
    #[test]
    fn presolve_keeps_coupled_integer_optimum(
        q0 in prop::collection::vec(50.0f64..150.0, 2),
        cover in 1.2f64..3.0,
        q1 in prop::collection::vec(60.0f64..150.0, 3),
        p in prop::collection::vec(100.0f64..500.0, 3),
        caps in prop::collection::vec(2u32..5, 3),
        d0 in 160.0f64..300.0,
        d1 in 160.0f64..450.0,
        ratio in 2u32..4,
    ) {
        let qps0 = vec![q0[0], q0[1], cover * d0];
        let mut lp = provisioning_lp(vec![qps0, q1], p, caps, vec![d0, d1]);
        let k = f64::from(ratio);
        lp.constrain(vec![k, -1.0, 0.0, k, -1.0, 0.0], Relation::Ge, 1.0);
        let ilp = solve_ilp(&lp, &IlpOptions::default());
        match brute_force(&lp, 4) {
            Some(best) => {
                prop_assert_eq!(ilp.status, LpStatus::Optimal);
                prop_assert!((ilp.objective - best).abs() < 1e-6,
                    "ilp {} vs brute {}", ilp.objective, best);
                prop_assert!(lp.is_feasible(&ilp.x, 1e-9));
            }
            None => prop_assert_eq!(ilp.status, LpStatus::Infeasible),
        }
    }
}
