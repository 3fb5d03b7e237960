//! Property-based tests on the optimization stack: on randomized
//! provisioning-shaped instances, the simplex must reach the optimum that
//! vertex enumeration finds, branch and bound the one that brute force
//! over integral points finds, and the Hercules scheduler must never do
//! worse than the priority scheduler.

use proptest::prelude::*;

use hercules::common::units::{Qps, Watts};
use hercules::core::cluster::policies::{HerculesScheduler, PriorityScheduler, SolverChoice};
use hercules::core::cluster::{Allocation, ProvisionRequest, Provisioner};
use hercules::core::profiler::{EfficiencyEntry, EfficiencyTable, RankMetric};
use hercules::hw::server::{Fleet, ServerType};
use hercules::model::zoo::ModelKind;
use hercules::sim::PlacementPlan;
use hercules::solver::{solve_ilp, solve_simplex, IlpOptions, LinearProgram, LpStatus, Relation};

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

/// Solves the square system `coeffs . x = rhs`, one equation per row, by
/// Gauss-Jordan elimination with partial pivoting; `None` when singular.
fn solve_square(rows: &[(&[f64], f64)]) -> Option<Vec<f64>> {
    let n = rows.len();
    let mut a: Vec<Vec<f64>> = rows
        .iter()
        .map(|&(coeffs, rhs)| coeffs.iter().copied().chain([rhs]).collect())
        .collect();
    for col in 0..n {
        let p = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[p][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, p);
        let pivot = a[col].clone();
        for (r, row) in a.iter_mut().enumerate() {
            if r != col {
                let f = row[col] / pivot[col];
                for (v, pv) in row[col..].iter_mut().zip(&pivot[col..]) {
                    *v -= f * pv;
                }
            }
        }
    }
    Some((0..n).map(|i| a[i][n] / a[i][i]).collect())
}

/// The optimum of `lp` by vertex enumeration, sharing no code with the
/// simplex: every choice of `n` active rows among the constraints and the
/// `x >= 0` bounds is solved as an equality system, and the cheapest
/// feasible solution is kept. A feasible LP over `x >= 0` that is bounded
/// below attains its optimum at such a vertex; `None` means no vertex is
/// feasible.
fn best_vertex(lp: &LinearProgram) -> Option<f64> {
    let n = lp.num_vars();
    let unit: Vec<Vec<f64>> = (0..n)
        .map(|j| (0..n).map(|k| if j == k { 1.0 } else { 0.0 }).collect())
        .collect();
    let planes: Vec<(&[f64], f64)> = lp
        .constraints()
        .iter()
        .map(|c| (&c.coeffs[..], c.rhs))
        .chain(unit.iter().map(|e| (&e[..], 0.0)))
        .collect();
    let m = planes.len();
    let mut pick: Vec<usize> = (0..n).collect();
    let mut best: Option<f64> = None;
    loop {
        let rows: Vec<_> = pick.iter().map(|&i| planes[i]).collect();
        if let Some(x) = solve_square(&rows).filter(|x| lp.is_feasible(x, 1e-7)) {
            let obj = lp.objective_at(&x);
            if best.map_or(true, |b| obj < b) {
                best = Some(obj);
            }
        }
        // The next `n`-subset of the `m` planes, in lexicographic order.
        let Some(i) = (0..n).rev().find(|&i| pick[i] < m - n + i) else {
            return best;
        };
        pick[i] += 1;
        for k in i + 1..n {
            pick[k] = pick[k - 1] + 1;
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

    /// The simplex reaches the relaxation optimum that vertex enumeration
    /// finds over two workloads on three server types (5 constraints and
    /// 6 bounds, so 462 candidate vertices), at a feasible point, and
    /// reports infeasibility exactly when no vertex is feasible.
    #[test]
    fn simplex_matches_vertex_enumeration(
        q0 in prop::collection::vec(50.0f64..400.0, 3),
        q1 in prop::collection::vec(50.0f64..400.0, 3),
        p in prop::collection::vec(100.0f64..500.0, 3),
        caps in prop::collection::vec(3u32..8, 3),
        d0 in 100.0f64..500.0,
        d1 in 100.0f64..500.0,
    ) {
        let lp = provisioning_lp(vec![q0, q1], p, caps, vec![d0, d1]);
        let sx = solve_simplex(&lp);
        match best_vertex(&lp) {
            Some(best) => {
                prop_assert_eq!(sx.status, LpStatus::Optimal);
                prop_assert!((sx.objective - best).abs() <= 1e-6 * best.abs().max(1.0),
                    "simplex {} vs best vertex {}", sx.objective, best);
                prop_assert!(lp.is_feasible(&sx.x, 1e-6));
            }
            None => prop_assert_eq!(sx.status, LpStatus::Infeasible),
        }
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

/// The workloads and server types a random provisioning request draws
/// from, in order.
const MODELS: [ModelKind; 4] = [
    ModelKind::DlrmRmc1,
    ModelKind::DlrmRmc2,
    ModelKind::DlrmRmc3,
    ModelKind::MtWnd,
];
const TYPES: [ServerType; 5] = [
    ServerType::T2,
    ServerType::T3,
    ServerType::T6,
    ServerType::T7,
    ServerType::T8,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whenever the priority scheduler meets a request, the Hercules
    /// scheduler meets it too, within the fleet, at no more power. Each
    /// (workload, type) cell is profiled with probability 0.8, and a type
    /// may be absent from the fleet.
    #[test]
    fn hercules_never_loses_to_the_priority_scheduler(
        workloads in 2usize..5,
        types in 3usize..6,
        qps in prop::collection::vec(50.0f64..2000.0, 20),
        power in prop::collection::vec(80.0f64..600.0, 20),
        profiled in prop::collection::vec(0.0f64..1.0, 20),
        caps in prop::collection::vec(0u32..12, 5),
        loads in prop::collection::vec(0.0f64..8000.0, 4),
        over_provision in 0.0f64..0.2,
    ) {
        let models = &MODELS[..workloads];
        let mut fleet = Fleet::empty();
        for (&stype, &cap) in TYPES[..types].iter().zip(&caps) {
            fleet.set(stype, cap);
        }
        let mut table = EfficiencyTable::new();
        for (w, &model) in models.iter().enumerate() {
            for (t, &stype) in TYPES[..types].iter().enumerate() {
                let k = w * TYPES.len() + t;
                let entry = EfficiencyEntry {
                    qps: Qps(qps[k]),
                    power: Watts(power[k]),
                    plan: PlacementPlan::CpuModel {
                        threads: 1,
                        workers: 1,
                        batch: 64,
                    },
                };
                table.insert(model, stype, (profiled[k] < 0.8).then_some(entry));
            }
        }
        let req = ProvisionRequest {
            fleet: &fleet,
            table: &table,
            workloads: models,
            loads: &loads[..workloads],
            over_provision,
        };
        let Ok(priority) = PriorityScheduler::new(RankMetric::QpsPerWatt).provision(&req) else {
            return Ok(());
        };
        let hercules = HerculesScheduler::new(SolverChoice::BranchAndBound).provision(&req);
        prop_assert!(hercules.is_ok(), "priority met the request, Hercules: {hercules:?}");
        let hercules = hercules.unwrap();
        prop_assert!(hercules.satisfies(&req), "{hercules:?}");
        let watts = |a: &Allocation| a.provisioned_power(&table, models).value();
        prop_assert!(
            watts(&hercules) <= watts(&priority) * (1.0 + 1e-9),
            "Hercules {} W above priority {} W",
            watts(&hercules),
            watts(&priority)
        );
    }
}
