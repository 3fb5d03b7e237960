//! Scheduling-candidate evaluation: one point of the parallelism space →
//! `(QPS, tail latency, power)` via the simulator (paper Fig. 9a's
//! "Inference Executor" + "Measured Tail-Latency, QPS, Power" loop).
//!
//! The context owns an explicit [`NmpLutCache`] (shared via `Arc`) that is
//! threaded down through `sim::search` and `sim::service`, replacing the old
//! process-global LUT cache: parallel searches and profilers decide their
//! own sharing, and evaluation carries no hidden global state.

use std::collections::HashMap;
use std::sync::Arc;

use hercules_common::parallel_map;
use hercules_common::units::{Qps, Watts};
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_sim::{
    max_qps_under_sla, NmpLutCache, PlacementPlan, SearchOptions, SimConfig, SimReport, SlaSpec,
};

/// The outcome of evaluating one scheduling configuration at its
/// latency-bounded operating point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The evaluated configuration.
    pub plan: PlacementPlan,
    /// Latency-bounded throughput (`QPS_{h,m}` candidate).
    pub qps: Qps,
    /// Peak power at the operating point (`Power_{h,m}` candidate, the
    /// provisioned power budget).
    pub power: Watts,
    /// Full simulation report at the knee.
    pub report: SimReport,
}

impl Evaluation {
    /// Energy efficiency at the operating point.
    pub fn qps_per_watt(&self) -> f64 {
        if self.power.value() <= 0.0 {
            0.0
        } else {
            self.qps.value() / self.power.value()
        }
    }
}

/// Evaluation context shared by a search: model, server, constraints, and
/// simulation fidelity.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// The workload.
    pub model: RecModel,
    /// The server architecture.
    pub server: ServerSpec,
    /// SLA latency constraint.
    pub sla: SlaSpec,
    /// Simulation controls.
    pub sim: SimConfig,
    /// Rate-search controls.
    pub search: SearchOptions,
    /// NMP LUT reuse for every topology this context builds. Cloning the
    /// context shares the cache; [`EvalContext::with_nmp_cache`] substitutes
    /// a cache shared wider (e.g. across a whole profiling run).
    pub nmp_luts: Arc<NmpLutCache>,
}

impl EvalContext {
    /// A context with default fidelity and a private LUT cache.
    pub fn new(model: RecModel, server: ServerSpec, sla: SlaSpec) -> Self {
        EvalContext {
            model,
            server,
            sla,
            sim: SimConfig::default(),
            search: SearchOptions::default(),
            nmp_luts: Arc::new(NmpLutCache::new()),
        }
    }

    /// Same context with reduced fidelity for fast sweeps.
    pub fn quick(mut self, seed: u64) -> Self {
        self.sim = SimConfig::quick(seed);
        self.search.refine_iters = 4;
        self.search.target_queries = Some(2_500);
        self
    }

    /// Same context drawing NMP LUTs from `luts` (builder style), so many
    /// contexts — e.g. all cells of a profiling sweep — share one cache.
    pub fn with_nmp_cache(mut self, luts: Arc<NmpLutCache>) -> Self {
        self.nmp_luts = luts;
        self
    }
}

/// Evaluates one plan against a context, with no memoization.
///
/// This is the thread-safe kernel behind [`CachedEvaluator`]: it takes the
/// context by shared reference, so batch evaluation can fan it out across
/// scoped worker threads.
pub fn evaluate_plan(ctx: &EvalContext, plan: &PlacementPlan) -> Option<Evaluation> {
    let outcome = max_qps_under_sla(
        &ctx.model,
        &ctx.server,
        plan,
        &ctx.sla,
        &ctx.sim,
        &ctx.search,
        &ctx.nmp_luts,
    )
    .ok()??;
    Some(Evaluation {
        plan: *plan,
        qps: outcome.qps,
        power: outcome.report.peak_power,
        report: outcome.report,
    })
}

/// A memoizing evaluator over [`PlacementPlan`]s.
///
/// Infeasible plans (structurally invalid or SLA-unreachable) evaluate to
/// `None`; results are cached so a search revisiting a configuration pays
/// nothing.
pub struct CachedEvaluator {
    ctx: EvalContext,
    cache: HashMap<PlacementPlan, Option<Evaluation>>,
    evaluations: usize,
}

impl CachedEvaluator {
    /// Creates an evaluator for `ctx`.
    pub fn new(ctx: EvalContext) -> Self {
        CachedEvaluator {
            ctx,
            cache: HashMap::new(),
            evaluations: 0,
        }
    }

    /// The context.
    pub fn ctx(&self) -> &EvalContext {
        &self.ctx
    }

    /// Number of *distinct* simulator-backed evaluations performed (the
    /// search-cost metric; cache hits are free).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Evaluates `plan`, returning `None` when infeasible under the
    /// context's constraints.
    pub fn evaluate(&mut self, plan: &PlacementPlan) -> Option<Evaluation> {
        if let Some(hit) = self.cache.get(plan) {
            return hit.clone();
        }
        self.evaluations += 1;
        let out = evaluate_plan(&self.ctx, plan);
        self.cache.insert(*plan, out.clone());
        out
    }

    /// Evaluates a batch of plans, running cache misses on up to
    /// `parallelism` scoped worker threads.
    ///
    /// Results are returned in input order and inserted into the memo cache
    /// exactly as the equivalent sequence of [`CachedEvaluator::evaluate`]
    /// calls would produce them: every plan's evaluation depends only on the
    /// context (never on other in-flight evaluations), so the parallel path
    /// is bitwise-identical to the serial one.
    pub fn evaluate_batch(
        &mut self,
        plans: &[PlacementPlan],
        parallelism: usize,
    ) -> Vec<Option<Evaluation>> {
        // Distinct plans not yet memoized, in first-seen order.
        let mut misses: Vec<PlacementPlan> = Vec::new();
        for plan in plans {
            if !self.cache.contains_key(plan) && !misses.contains(plan) {
                misses.push(*plan);
            }
        }
        self.evaluations += misses.len();

        let ctx = &self.ctx;
        let results = parallel_map(&misses, parallelism, |plan| evaluate_plan(ctx, plan));
        for (plan, out) in misses.iter().zip(results) {
            self.cache.insert(*plan, out);
        }

        plans
            .iter()
            .map(|plan| self.cache.get(plan).expect("just evaluated").clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::SimDuration;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    fn quick_ctx() -> EvalContext {
        EvalContext::new(
            RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production),
            ServerType::T2.spec(),
            SlaSpec::p95(SimDuration::from_millis(40)),
        )
        .quick(5)
    }

    #[test]
    fn evaluates_and_caches() {
        let mut ev = CachedEvaluator::new(quick_ctx());
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let a = ev.evaluate(&plan).expect("feasible plan");
        assert!(a.qps.value() > 0.0);
        assert!(a.power.value() > 0.0);
        assert_eq!(ev.evaluations(), 1);
        let b = ev.evaluate(&plan).expect("cached");
        assert_eq!(ev.evaluations(), 1, "second call hits the cache");
        assert_eq!(a.qps, b.qps);
    }

    #[test]
    fn structural_infeasibility_is_none() {
        let mut ev = CachedEvaluator::new(quick_ctx());
        let plan = PlacementPlan::CpuModel {
            threads: 40,
            workers: 1,
            batch: 256,
        };
        assert!(ev.evaluate(&plan).is_none());
    }

    #[test]
    fn batch_matches_serial_bitwise() {
        let plans = [
            PlacementPlan::CpuModel {
                threads: 4,
                workers: 1,
                batch: 64,
            },
            PlacementPlan::CpuModel {
                threads: 8,
                workers: 1,
                batch: 64,
            },
            PlacementPlan::CpuModel {
                threads: 40, // infeasible on 20 cores
                workers: 1,
                batch: 64,
            },
            PlacementPlan::CpuModel {
                threads: 4,
                workers: 1,
                batch: 64, // duplicate of the first
            },
        ];
        let mut serial = CachedEvaluator::new(quick_ctx());
        let expect: Vec<_> = plans.iter().map(|p| serial.evaluate(p)).collect();
        let mut parallel = CachedEvaluator::new(quick_ctx());
        let got = parallel.evaluate_batch(&plans, 4);
        assert_eq!(serial.evaluations(), parallel.evaluations());
        for (e, g) in expect.iter().zip(&got) {
            match (e, g) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    assert_eq!(e.qps.value().to_bits(), g.qps.value().to_bits());
                    assert_eq!(e.power.value().to_bits(), g.power.value().to_bits());
                    assert_eq!(e.plan, g.plan);
                }
                other => panic!("feasibility mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn shared_nmp_cache_flows_through_context() {
        let luts = Arc::new(NmpLutCache::new());
        let ctx = quick_ctx().with_nmp_cache(Arc::clone(&luts));
        assert!(Arc::ptr_eq(&ctx.nmp_luts, &luts));
        let cloned = ctx.clone();
        assert!(
            Arc::ptr_eq(&cloned.nmp_luts, &luts),
            "clone shares the cache"
        );
    }
}
