//! # hercules-runtime
//!
//! The live serving runtime: takes the *same* inputs as the discrete-event
//! simulator — a `RecModel`, a `PlacementPlan`, and the deterministic
//! `QueryStream` — and actually executes them. Per-stage worker pools
//! mirror the plan's `Psp(M + D + O)` decomposition (host front pool, host
//! dense pool or accelerator contexts), bounded dispatch queues connect the
//! stages, a dynamic batcher fuses accelerator batches under a
//! size-or-timeout policy, and an SLA-aware admission controller sheds
//! queries whose estimated queue delay would blow the latency budget.
//! Per-worker telemetry (mergeable log-bucket histograms from
//! `hercules_common::stats::LatencyHistogram`) aggregates into the
//! simulator's [`SimReport`](hercules_sim::SimReport) shape, so everything
//! that consumes simulation results — SLA searches, provisioning, plots —
//! can consume runtime measurements unchanged.
//!
//! Service times come from the same `hercules_hw::cost` roofline costs as
//! the simulator: the built topology's
//! [`StageService`](hercules_sim::StageService)s. Every serving decision —
//! admission and splitting, deadline drops, CPU-stage pricing under
//! degradation and injected faults, fused GPU batch accounting,
//! retirement, the observed plane, the report's totals — is made once, by
//! one pipeline, which two interchangeable clock modes drive:
//!
//! - [`ClockMode::Virtual`] — a deterministic virtual clock: the
//!   simulator's own event loop (`sim::engine::Server`) with the pipeline
//!   as its hooks ([`VirtStepper`]). Bitwise-reproducible across runs, and
//!   with a zero batching delay and no faults it agrees with the simulator
//!   to the nanosecond (see `tests/runtime_props.rs`). This is what
//!   searches, tests and the fleet use.
//! - [`ClockMode::Wall`] — a calibrated busy-wait wall clock. Worker
//!   pools are real OS threads that spin for each batch's modeled service
//!   time, so benches observe genuine concurrency effects: queue
//!   contention, batching jitter, and worker wake-ups. With
//!   [`GatherMode::Real`] the front pool additionally executes genuine
//!   memory-bound embedding gathers against a resident synthetic arena
//!   ([`memory`]), optionally NUMA-placed by pinning workers to cores
//!   ([`affinity`]), and the hot path is allocation-free in steady state
//!   (auditable via [`telemetry::CountingAlloc`]).
//!
//! ```no_run
//! use hercules_runtime::{RuntimeConfig, ServingRuntime};
//! use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig};
//! use hercules_hw::server::ServerType;
//! use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
//! use hercules_common::units::Qps;
//!
//! let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
//! let server = ServerType::T2.spec();
//! let plan = PlacementPlan::CpuModel { threads: 10, workers: 2, batch: 256 };
//! let cfg = RuntimeConfig::from_sim(&SimConfig::default());
//! let rt = ServingRuntime::build(&model, server, &plan, cfg, &NmpLutCache::new())?;
//! let report = rt.serve(Qps(400.0));
//! println!("p99 = {}, shed = {}", report.sim.p99, report.shed);
//! # Ok::<(), hercules_sim::PlanError>(())
//! ```

// CI's clippy gate rejects unsafe code without a `SAFETY:` contract.
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod admission;
pub mod affinity;
pub mod config;
pub mod fault;
pub mod memory;
pub mod observe;
pub mod report;
pub mod search;
pub mod serve;
pub mod telemetry;
pub mod trace;

// The executors and the pipeline they share stay short: CI's clippy gate
// fails any function in them over 100 code lines.
#[warn(clippy::too_many_lines)]
mod pipeline;
mod queue;
mod stage;
#[warn(clippy::too_many_lines)]
mod virt;
#[warn(clippy::too_many_lines)]
mod wall;

pub use affinity::PinPolicy;
pub use config::{
    AdmissionPolicy, BatchPolicy, ClockMode, DeadlinePolicy, GatherMode, RuntimeConfig,
    SupervisorPolicy, TraceConfig,
};
pub use fault::FaultPlan;
pub use memory::{
    CacheOutcome, EmbeddingArena, EmbeddingCacheShard, GatherOutcome, GatherScratch, InitPlacement,
};
pub use observe::{
    JsonLines, PlaneSnapshot, PrometheusFile, RuntimeObserver, SnapshotSink, StatusLine,
};
pub use report::RuntimeReport;
pub use search::max_qps_under_sla_live;
pub use serve::ServingRuntime;
pub use telemetry::{thread_allocs, CountingAlloc, StageKind};
pub use trace::{chrome_trace_json, SpanKind, TraceEvent};
pub use virt::VirtStepper;
