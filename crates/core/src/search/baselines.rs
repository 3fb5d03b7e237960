//! Prior-work baseline schedulers reproduced for comparison (paper §III,
//! §VI-A): DeepRecSys \[37\] (data-parallelism only), Baymax \[32\] (model
//! co-location only), and an exhaustive oracle for validating the gradient
//! search.

use hercules_sim::PlacementPlan;

use crate::eval::{CachedEvaluator, Evaluation};
use crate::search::SearchOutcome;

/// Climbs a baseline's one-knob plan ladder in order, keeping the best plan:
/// stops at the first plan that does not beat it, or that misses the SLA
/// after a feasible one (DeepRecSys's hill climbing).
fn climb(
    ev: &mut CachedEvaluator,
    ladder: impl IntoIterator<Item = PlacementPlan>,
) -> SearchOutcome {
    let mut visited = Vec::new();
    let mut best: Option<Evaluation> = None;
    for plan in ladder {
        visited.push(plan);
        match ev.evaluate(&plan) {
            Some(e) if best.as_ref().map_or(true, |b| e.qps > b.qps) => best = Some(e),
            None if best.is_none() => {}
            _ => break,
        }
    }
    SearchOutcome {
        best,
        evaluations: ev.evaluations(),
        visited,
    }
}

/// DeepRecSys-style CPU scheduling: model-based with one inference thread
/// per physical core (`m = cores`, `o = 1`), hill-climbing over the batch
/// size only (`Psp(D)`).
pub fn deeprecsys_search(ev: &mut CachedEvaluator, batch_levels: &[u32]) -> SearchOutcome {
    let threads = ev.ctx().server.cpu.cores;
    let ladder = batch_levels.iter().map(|&batch| PlacementPlan::CpuModel {
        threads,
        workers: 1,
        batch,
    });
    climb(ev, ladder)
}

/// Baymax-style accelerator scheduling: model co-location only (no query
/// fusion) — increase co-located instances while throughput improves. A
/// server without an accelerator gets an empty ladder.
///
/// Production-scale models use a fixed host cold-sparse pool (the baseline
/// did not explore that dimension).
pub fn baymax_search(ev: &mut CachedEvaluator, max_colocated: u32) -> SearchOutcome {
    let host_threads = (ev.ctx().server.cpu.cores / 2).max(1);
    let top = if ev.ctx().server.has_gpu() {
        max_colocated
    } else {
        0
    };
    let ladder = (1..=top).map(|colocated| PlacementPlan::GpuModel {
        colocated,
        fusion_limit: None,
        host_sparse_threads: host_threads,
        host_batch: 256,
    });
    climb(ev, ladder)
}

/// The paper's combined baseline task scheduler: DeepRecSys on the CPU and
/// Baymax on the accelerator, best of the two.
pub fn baseline_search(ev: &mut CachedEvaluator, batch_levels: &[u32]) -> SearchOutcome {
    let cpu = deeprecsys_search(ev, batch_levels);
    if ev.ctx().server.has_gpu() {
        cpu.merge(baymax_search(ev, 8))
    } else {
        cpu
    }
}

/// Exhaustive oracle over CPU model-based configurations (for validating
/// the gradient search on small grids).
pub fn exhaustive_cpu_search(
    ev: &mut CachedEvaluator,
    batch_levels: &[u32],
    max_workers: u32,
) -> SearchOutcome {
    let cores = ev.ctx().server.cpu.cores;
    let mut visited = Vec::new();
    let mut best: Option<Evaluation> = None;
    for workers in 1..=max_workers.min(cores) {
        for threads in 1..=cores / workers {
            for &batch in batch_levels {
                let plan = PlacementPlan::CpuModel {
                    threads,
                    workers,
                    batch,
                };
                visited.push(plan);
                if let Some(e) = ev.evaluate(&plan) {
                    if best.as_ref().map_or(true, |b| e.qps > b.qps) {
                        best = Some(e);
                    }
                }
            }
        }
    }
    SearchOutcome {
        best,
        evaluations: ev.evaluations(),
        visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalContext;
    use crate::search::gradient::{search_cpu_model_based, GradientOptions};
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
    use hercules_sim::SlaSpec;

    fn evaluator(server: ServerType) -> CachedEvaluator {
        let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let sla = SlaSpec::p95(model.default_sla());
        CachedEvaluator::new(EvalContext::new(model, server.spec(), sla).quick(23))
    }

    #[test]
    fn deeprecsys_explores_only_batch() {
        let mut ev = evaluator(ServerType::T2);
        let out = deeprecsys_search(&mut ev, &[64, 128, 256, 512]);
        let best = out.best.expect("baseline feasible");
        match best.plan {
            PlacementPlan::CpuModel {
                threads, workers, ..
            } => {
                assert_eq!(threads, 20);
                assert_eq!(workers, 1);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn baymax_needs_gpu() {
        let mut ev = evaluator(ServerType::T2);
        assert!(baymax_search(&mut ev, 4).best.is_none());
        // On a GPU server the combined baseline merges both searches of one
        // evaluator: its count is that evaluator's, not a sum of totals.
        let mut ev = evaluator(ServerType::T7);
        let out = baseline_search(&mut ev, &[64, 256]);
        assert!(out.best.is_some());
        assert_eq!(out.evaluations, ev.evaluations());
    }

    #[test]
    fn gradient_at_least_matches_exhaustive_nearby() {
        // On a small grid, the gradient search should land within a small
        // margin of the exhaustive optimum (convex space).
        let mut ev = evaluator(ServerType::T2);
        let levels = [64, 256, 1024];
        let exhaustive = exhaustive_cpu_search(&mut ev, &levels, 2)
            .best
            .expect("grid has feasible points");
        let mut ev2 = evaluator(ServerType::T2);
        let opts = GradientOptions {
            batch_levels: levels.to_vec(),
            ..GradientOptions::coarse()
        };
        let gradient = search_cpu_model_based(&mut ev2, &opts)
            .best
            .expect("gradient finds a peak");
        assert!(
            gradient.qps.value() >= 0.85 * exhaustive.qps.value(),
            "gradient {} vs exhaustive {}",
            gradient.qps,
            exhaustive.qps
        );
        // And it should get there with fewer evaluations.
        assert!(ev2.evaluations() <= ev.evaluations());
    }

    #[test]
    fn hercules_beats_deeprecsys_on_cpu() {
        // The headline claim at server level (Fig. 14a): the expanded
        // parallelism space beats Psp(D)-only scheduling.
        let mut ev = evaluator(ServerType::T2);
        let opts = GradientOptions::coarse();
        let baseline = deeprecsys_search(&mut ev, &opts.batch_levels)
            .best
            .expect("baseline feasible");
        let out = crate::search::hercules_task_search(&mut ev, &opts);
        assert_eq!(out.evaluations, ev.evaluations());
        let hercules = out.best.expect("hercules feasible");
        assert!(
            hercules.qps.value() >= baseline.qps.value(),
            "hercules {} vs baseline {}",
            hercules.qps,
            baseline.qps
        );
    }
}
