//! Task-scheduling search over the parallelism space `Psp(M + D + O)`
//! (paper §IV-B, Algorithm 1) plus the prior-work baselines used in the
//! evaluation.

pub mod baselines;
pub mod gradient;

use hercules_sim::PlacementPlan;

use crate::eval::{CachedEvaluator, Evaluation};

/// Result of a search: the best configuration found, the number of
/// simulator evaluations spent, and the visited path (for Fig. 11-style
/// trajectory plots).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best feasible evaluation, if any configuration met the SLA.
    pub best: Option<Evaluation>,
    /// Distinct simulator evaluations the evaluator had run when the
    /// search ended (its running count, so it includes any evaluations
    /// made on the same evaluator before the search).
    pub evaluations: usize,
    /// Plans visited in order.
    pub visited: Vec<PlacementPlan>,
}

impl SearchOutcome {
    /// Merges another outcome of the same evaluator, keeping the
    /// higher-QPS best. `evaluations` is that evaluator's running count, so
    /// the merge keeps the later (larger) total instead of summing.
    pub fn merge(mut self, other: SearchOutcome) -> SearchOutcome {
        self.evaluations = self.evaluations.max(other.evaluations);
        self.visited.extend(other.visited);
        self.best = match (self.best.take(), other.best) {
            (Some(a), Some(b)) => Some(if b.qps > a.qps { b } else { a }),
            (a, b) => a.or(b),
        };
        self
    }
}

/// The Hercules task scheduler's full search: every model-partition
/// strategy crossed with the gradient-based parallelism exploration, best
/// configuration wins (paper: "Hercules performs the parallelism
/// exploration of Psp(M+D+O) for all possible model partition strategies").
///
/// The prior-work baseline configurations (DeepRecSys's fixed
/// `cores x 1` ladder, Baymax's co-location climb) are points *inside*
/// `Psp(M+D+O)`, so they are probed too — Hercules never loses to a
/// baseline it subsumes (the paper's speedups are bounded below by 1.03x).
pub fn hercules_task_search(
    ev: &mut CachedEvaluator,
    opts: &gradient::GradientOptions,
) -> SearchOutcome {
    let mut out = gradient::search_cpu_model_based(ev, opts);
    out = out.merge(gradient::search_cpu_sd_pipeline(ev, opts));
    if ev.ctx().server.has_gpu() {
        out = out.merge(gradient::search_gpu_model_based(ev, opts));
        out = out.merge(gradient::search_hybrid_sd(ev, opts));
    }
    out.merge(baselines::baseline_search(ev, &opts.batch_levels))
}
