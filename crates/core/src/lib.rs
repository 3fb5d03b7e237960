//! # hercules-core
//!
//! The Hercules scheduler (HPCA 2022): gradient-based task-scheduling
//! search over the `Psp(M + D + O)` parallelism space (Algorithm 1),
//! offline profiling into workload-classification efficiency tables
//! (Fig. 9b), and heterogeneity-aware cluster provisioning as constrained
//! optimization (Eq. 1–3) with NH / greedy / priority / Hercules policies.
//!
//! The two-stage flow:
//!
//! 1. **Offline profiling** — [`profiler::profile`] runs
//!    [`search::hercules_task_search`] for every (model, server-type) pair
//!    and records `(QPS_{h,m}, Power_{h,m})`.
//! 2. **Online serving** — [`cluster::online::run_online`] re-solves the
//!    provisioning problem each interval against diurnal loads using a
//!    [`cluster::Provisioner`] policy.
//!
//! ```no_run
//! use hercules_core::eval::{CachedEvaluator, EvalContext};
//! use hercules_core::search::{gradient::GradientOptions, hercules_task_search};
//! use hercules_hw::server::ServerType;
//! use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
//! use hercules_sim::SlaSpec;
//!
//! let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
//! let sla = SlaSpec::p95(model.default_sla());
//! let ctx = EvalContext::new(model, ServerType::T2.spec(), sla);
//! let mut ev = CachedEvaluator::new(ctx);
//! let best = hercules_task_search(&mut ev, &GradientOptions::default()).best;
//! println!("{:?}", best.map(|b| (b.plan, b.qps, b.power)));
//! ```

pub mod cluster;
pub mod eval;
pub mod profiler;
pub mod search;

pub use cluster::online::{
    run_online, run_online_colocated, ClusterRunReport, ColocationRunReport, WorkloadTrace,
};
pub use cluster::policies::{
    ColocationScheduler, GreedyScheduler, HerculesScheduler, NhScheduler, PriorityScheduler,
    SolverChoice,
};
pub use cluster::{
    Allocation, ColocatedAllocation, ProvisionError, ProvisionRequest, Provisioner, SharedServer,
    TenantShare,
};
pub use eval::{evaluate_plan, CachedEvaluator, EvalContext, Evaluation};
pub use profiler::{
    profile, EfficiencyEntry, EfficiencyTable, ProfilerConfig, RankMetric, Searcher,
};
pub use search::{hercules_task_search, SearchOutcome};
