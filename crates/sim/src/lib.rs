//! # hercules-sim
//!
//! Discrete-event server simulator for recommendation inference serving:
//! query dispatching, sub-query splitting, accelerator query fusion, S-D
//! pipelining, PCIe data loading, and SLA-aware metrics (tail latency,
//! latency-bounded QPS, power). This is the reproduction's stand-in for the
//! paper's real-system measurement harness (Fig. 13).
//!
//! [`engine::Server`] is the workspace's one event loop. It is generic over
//! its [`Serve`] hooks, which make every serving decision; the simulator's
//! hooks price batches with roofline costs and keep exact latency
//! populations, and the serving runtime's virtual clock
//! (`hercules_runtime::VirtStepper`) runs the same loop over its serving
//! pipeline. The stage facts every clock uses — pool sizes, the ingress,
//! the route between pools, each CPU pool's cost function — are the
//! built [`Topology`]'s.
//!
//! ```no_run
//! use hercules_sim::{simulate, PlacementPlan, SimConfig};
//! use hercules_hw::server::ServerType;
//! use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
//! use hercules_common::units::Qps;
//!
//! let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
//! let server = ServerType::T2.spec();
//! let plan = PlacementPlan::CpuModel { threads: 10, workers: 2, batch: 256 };
//! let report = simulate(&model, &server, &plan, Qps(500.0), &SimConfig::default())?;
//! println!("p95 = {}, power = {}", report.p95, report.mean_power);
//! # Ok::<(), hercules_sim::PlanError>(())
//! ```

pub mod colocation;
pub mod config;
// The shared event loop stays short: CI's clippy gate fails any function in
// it over 100 code lines.
#[warn(clippy::too_many_lines)]
pub mod engine;
pub mod metrics;
pub mod search;
pub mod service;

pub use colocation::simulate_colocated;
pub use config::{
    ColocationConfig, PlacementPlan, PlanError, RunWindow, SimConfig, SlaSpec, TenantSpec,
};
pub use engine::{
    probe, simulate, simulate_cached, simulate_with_topology, split, split_iter, summarize_load,
    Buckets, LoadSummary, Serve, Server, SplitIter, Sub, Subs, POWER_BUCKETS,
};
// Re-exported so evaluation layers can own a LUT cache without depending on
// `hercules-hw` directly.
pub use hercules_hw::nmp::NmpLutCache;
pub use metrics::{ColocationReport, LatencyBreakdown, SimReport, Tail};
pub use search::{find_knee, max_qps_under_sla, SearchOptions, SlaSearchOutcome};
pub use service::{build_topology, BackStage, FrontStage, StageKind, StageService, Topology};
