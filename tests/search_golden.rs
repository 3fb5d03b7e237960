//! Golden trajectories of Algorithm 1's search and its baselines.
//!
//! Each case runs `hercules_task_search` and then `baseline_search` on one
//! seeded `CachedEvaluator` with plan-day's ladder (batch 256, fusion 2048,
//! 8 host threads, at most 2 co-located GPU instances), and compares each
//! outcome with values recorded before the hill walk and the baseline
//! climbs were rewritten: the best plan, the IEEE-754 bits of its QPS and
//! power, the evaluator's running count, the number of visited plans and a
//! 64-bit FNV-1a digest of the visited plans' `Debug` strings. A change
//! that evaluates another plan, visits plans in another order or takes
//! another step shows up here.
//!
//! The cases span the walk's paths: RMC1 production on T2 (plan-day's CPU
//! cell), DIEN small on T7 (its first plan misses the SLA, then the GPU
//! walks and Baymax's climb run), and DIEN small on T2 (no plan meets the
//! SLA, so the infeasible walk runs until it has no moves).

use hercules::core::eval::{CachedEvaluator, EvalContext};
use hercules::core::search::baselines::baseline_search;
use hercules::core::search::gradient::GradientOptions;
use hercules::core::search::{hercules_task_search, SearchOutcome};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::sim::SlaSpec;

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one search outcome pins.
#[derive(Debug, PartialEq)]
struct Trajectory {
    /// The best plan's `Debug` string and the bits of its QPS and power.
    best: Option<(String, u64, u64)>,
    /// The evaluator's running count when the search ended.
    evaluations: usize,
    /// Plans visited.
    visited: usize,
    /// FNV-1a digest of the visited plans' `Debug` string.
    digest: u64,
}

fn trajectory(out: &SearchOutcome) -> Trajectory {
    Trajectory {
        best: out.best.as_ref().map(|e| {
            (
                format!("{:?}", e.plan),
                e.qps.value().to_bits(),
                e.power.value().to_bits(),
            )
        }),
        evaluations: out.evaluations,
        visited: out.visited.len(),
        digest: fnv1a(&format!("{:?}", out.visited)),
    }
}

fn pinned(
    best: Option<(&str, u64, u64)>,
    evaluations: usize,
    visited: usize,
    digest: u64,
) -> Trajectory {
    Trajectory {
        best: best.map(|(plan, qps, power)| (plan.to_string(), qps, power)),
        evaluations,
        visited,
        digest,
    }
}

/// plan-day's stage-1 ladder.
fn ladder() -> GradientOptions {
    GradientOptions {
        batch_levels: vec![256],
        fusion_levels: vec![2048],
        host_thread_levels: vec![8],
        max_gpu_colocated: 2,
        parallelism: 1,
    }
}

/// Runs both searches on one evaluator and checks them against the pins;
/// returns the evaluator and the task search's outcome for path checks.
fn check(
    name: &str,
    kind: ModelKind,
    scale: ModelScale,
    server: ServerType,
    want_hercules: Trajectory,
    want_baseline: Trajectory,
) -> (CachedEvaluator, SearchOutcome) {
    let model = RecModel::build(kind, scale);
    let sla = SlaSpec::p95(model.default_sla());
    let mut ev = CachedEvaluator::new(EvalContext::new(model, server.spec(), sla).quick(0xFACE));
    let opts = ladder();
    let hercules = hercules_task_search(&mut ev, &opts);
    let baseline = baseline_search(&mut ev, &opts.batch_levels);
    assert_eq!(
        trajectory(&hercules),
        want_hercules,
        "{name}: task search moved"
    );
    assert_eq!(
        trajectory(&baseline),
        want_baseline,
        "{name}: baseline search moved"
    );
    (ev, hercules)
}

#[test]
fn rmc1_production_on_t2() {
    check(
        "rmc1/T2",
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        pinned(
            Some((
                "CpuModel { threads: 5, workers: 4, batch: 256 }",
                4657566439631224832,
                4639128841476344728,
            )),
            78,
            91,
            15632550139657770649,
        ),
        pinned(
            Some((
                "CpuModel { threads: 20, workers: 1, batch: 256 }",
                4655314639817539584,
                4639727513961388578,
            )),
            78,
            1,
            5373908624116085284,
        ),
    );
}

#[test]
fn dien_small_on_t7_starts_infeasible() {
    let (mut ev, out) = check(
        "dien/T7",
        ModelKind::Dien,
        ModelScale::Small,
        ServerType::T7,
        pinned(
            Some((
                "GpuModel { colocated: 2, fusion_limit: Some(2048), host_sparse_threads: 0, host_batch: 256 }",
                4653062840003854336,
                4644952842237378560,
            )),
            178,
            212,
            18169391100965469748,
        ),
        pinned(
            Some((
                "GpuModel { colocated: 8, fusion_limit: None, host_sparse_threads: 10, host_batch: 256 }",
                4648277765399773184,
                4644213471963891584,
            )),
            178,
            9,
            14114230510841899412,
        ),
    );
    assert!(ev.evaluate(&out.visited[0]).is_none());
}

#[test]
fn dien_small_on_t2_never_meets_the_sla() {
    let (mut ev, out) = check(
        "dien/T2",
        ModelKind::Dien,
        ModelScale::Small,
        ServerType::T2,
        pinned(None, 143, 177, 13370335829825277400),
        pinned(None, 143, 1, 5373908624116085284),
    );
    assert!(ev.evaluate(&out.visited[0]).is_none());
}
