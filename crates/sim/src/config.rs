//! Scheduling configurations: the points of the task-scheduling parallelism
//! space `Psp(M + D + O)` the searchers explore (paper §IV-B).

use std::fmt;

use hercules_common::units::{MemBytes, Qps, SimDuration, SimTime};
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;

/// A complete task-scheduling configuration for one server.
///
/// Covers the paper's model-partition strategies (model-based vs. S-D
/// pipeline, Fig. 10) crossed with the three parallelism dimensions:
/// model- (`threads` / `colocated`), op- (`workers`), and data-parallelism
/// (`batch` / `fusion_limit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPlan {
    /// Model-based scheduling on the CPU: `threads` co-located inference
    /// threads, each owning `workers` cores, serving sub-queries of at most
    /// `batch` items.
    CpuModel {
        /// Co-located inference threads (`m`).
        threads: u32,
        /// Cores (operator workers) per thread (`o`).
        workers: u32,
        /// Sub-query batch size (`d`), in items.
        batch: u32,
    },
    /// S-D pipeline on the CPU: SparseNet threads (with op-parallelism)
    /// feed DenseNet threads (one worker each) through a queue.
    CpuSdPipeline {
        /// SparseNet inference threads.
        sparse_threads: u32,
        /// Cores per SparseNet thread.
        sparse_workers: u32,
        /// DenseNet inference threads (single worker each).
        dense_threads: u32,
        /// Sub-query batch size, in items.
        batch: u32,
    },
    /// Model-based scheduling on the accelerator: `colocated` model
    /// instances share the GPU; incoming queries are fused up to
    /// `fusion_limit` items per launched batch. Production-scale models are
    /// hot-partitioned (`Gs.hot + Gd` on the GPU, host threads pre-pool the
    /// cold misses).
    GpuModel {
        /// Co-located model instances on the GPU.
        colocated: u32,
        /// Query-fusion limit in items; `None` disables fusion (one query
        /// per launch, the DeepRecSys baseline behaviour).
        fusion_limit: Option<u32>,
        /// Host-side threads pre-pooling cold embeddings (production models
        /// only; ignored when the model fits the GPU whole).
        host_sparse_threads: u32,
        /// Host sub-query batch for the cold-sparse stage.
        host_batch: u32,
    },
    /// S-D pipeline across host and accelerator: SparseNet on CPU threads,
    /// DenseNet on the GPU with query fusion (Fig. 10c).
    HybridSdPipeline {
        /// SparseNet inference threads on the host.
        sparse_threads: u32,
        /// Cores per SparseNet thread.
        sparse_workers: u32,
        /// Co-located DenseNet instances on the GPU.
        gpu_colocated: u32,
        /// Query-fusion limit for the GPU dense stage, in items.
        fusion_limit: Option<u32>,
        /// Sub-query batch size for the host sparse stage, in items.
        batch: u32,
    },
}

impl PlacementPlan {
    /// Short display string, e.g. `"CPU 10x2 d=256"`.
    pub fn label(&self) -> String {
        match *self {
            PlacementPlan::CpuModel {
                threads,
                workers,
                batch,
            } => format!("CPU {threads}x{workers} d={batch}"),
            PlacementPlan::CpuSdPipeline {
                sparse_threads,
                sparse_workers,
                dense_threads,
                batch,
            } => format!("SD {sparse_threads}x{sparse_workers}::{dense_threads} d={batch}"),
            PlacementPlan::GpuModel {
                colocated,
                fusion_limit,
                ..
            } => format!(
                "GPU g={colocated} F={}",
                fusion_limit.map_or("off".into(), |f| f.to_string())
            ),
            PlacementPlan::HybridSdPipeline {
                sparse_threads,
                sparse_workers,
                gpu_colocated,
                fusion_limit,
                batch,
            } => format!(
                "SD-GPU {sparse_threads}x{sparse_workers}::g{gpu_colocated} F={} d={batch}",
                fusion_limit.map_or("off".into(), |f| f.to_string())
            ),
        }
    }

    /// Host cores consumed by this plan.
    pub fn host_cores(&self) -> u32 {
        match *self {
            PlacementPlan::CpuModel {
                threads, workers, ..
            } => threads * workers,
            PlacementPlan::CpuSdPipeline {
                sparse_threads,
                sparse_workers,
                dense_threads,
                ..
            } => sparse_threads * sparse_workers + dense_threads,
            PlacementPlan::GpuModel {
                host_sparse_threads,
                ..
            } => host_sparse_threads,
            PlacementPlan::HybridSdPipeline {
                sparse_threads,
                sparse_workers,
                ..
            } => sparse_threads * sparse_workers,
        }
    }

    /// Whether the plan uses the accelerator.
    pub fn uses_gpu(&self) -> bool {
        matches!(
            self,
            PlacementPlan::GpuModel { .. } | PlacementPlan::HybridSdPipeline { .. }
        )
    }
}

impl fmt::Display for PlacementPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why a plan is infeasible on a given server/model pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan needs more host cores than the CPU has.
    InsufficientCores {
        /// Cores requested.
        requested: u32,
        /// Cores available.
        available: u32,
    },
    /// The plan targets a GPU the server does not have.
    NoGpu,
    /// The model's tables exceed host memory.
    HostMemory {
        /// Bytes required.
        required: MemBytes,
        /// Bytes available.
        available: MemBytes,
    },
    /// A structural parameter (threads, batch) was zero.
    ZeroParameter,
    /// A co-location config named no tenants.
    NoTenants,
    /// A tenant spec is malformed: its share or offered load is
    /// non-positive or not finite.
    BadTenant {
        /// Index of the offending tenant in the config's tenant list.
        index: usize,
    },
    /// Co-located tenants produced structurally different topologies (e.g.
    /// one model fits the accelerator whole while another needs a host
    /// cold-sparse stage), which the shared-pool engine cannot serve.
    TenantShapeMismatch,
    /// An offered arrival rate is non-positive or not finite.
    BadRate,
    /// A knee search's start or ceiling rate is non-positive or not
    /// finite, or its ceiling lies below its start.
    BadSearchRange,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InsufficientCores {
                requested,
                available,
            } => write!(f, "plan needs {requested} cores, server has {available}"),
            PlanError::NoGpu => write!(f, "plan targets a GPU the server lacks"),
            PlanError::HostMemory {
                required,
                available,
            } => write!(
                f,
                "model needs {required} host memory, server has {available}"
            ),
            PlanError::ZeroParameter => write!(f, "threads, workers, and batch must be positive"),
            PlanError::NoTenants => write!(f, "co-location config names no tenants"),
            PlanError::BadTenant { index } => write!(
                f,
                "tenant {index}: share and offered load must be positive and finite"
            ),
            PlanError::TenantShapeMismatch => write!(
                f,
                "co-located tenants need structurally identical topologies"
            ),
            PlanError::BadRate => write!(f, "offered load must be positive and finite"),
            PlanError::BadSearchRange => write!(
                f,
                "search start and ceiling must be positive and finite, the ceiling at least the start"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Validates `plan` against a server and model.
///
/// # Errors
///
/// Returns a [`PlanError`] naming the violated constraint. GPU *memory* is
/// not an error: production models are hot-partitioned to fit (§IV-B), which
/// the service-model builder performs automatically.
pub fn validate_plan(
    plan: &PlacementPlan,
    server: &ServerSpec,
    model: &RecModel,
) -> Result<(), PlanError> {
    let zero = match *plan {
        PlacementPlan::CpuModel {
            threads,
            workers,
            batch,
        } => threads == 0 || workers == 0 || batch == 0,
        PlacementPlan::CpuSdPipeline {
            sparse_threads,
            sparse_workers,
            dense_threads,
            batch,
        } => sparse_threads == 0 || sparse_workers == 0 || dense_threads == 0 || batch == 0,
        PlacementPlan::GpuModel {
            colocated,
            fusion_limit,
            host_batch,
            ..
        } => colocated == 0 || fusion_limit == Some(0) || host_batch == 0,
        PlacementPlan::HybridSdPipeline {
            sparse_threads,
            sparse_workers,
            gpu_colocated,
            fusion_limit,
            batch,
        } => {
            sparse_threads == 0
                || sparse_workers == 0
                || gpu_colocated == 0
                || fusion_limit == Some(0)
                || batch == 0
        }
    };
    if zero {
        return Err(PlanError::ZeroParameter);
    }

    let cores = plan.host_cores();
    if cores > server.cpu.cores {
        return Err(PlanError::InsufficientCores {
            requested: cores,
            available: server.cpu.cores,
        });
    }

    if plan.uses_gpu() && !server.has_gpu() {
        return Err(PlanError::NoGpu);
    }

    // An embedding-tier cache turns host DRAM into the hot tier of a
    // larger hierarchy: misses fall through to the (modeled) cold tier,
    // so table sets beyond one server's DRAM stay servable.
    let table_bytes = model.total_table_size();
    if server.cache.is_none() && table_bytes > server.host_memory() {
        return Err(PlanError::HostMemory {
            required: table_bytes,
            available: server.host_memory(),
        });
    }

    Ok(())
}

fn positive_finite(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Checks that `rate` can drive an arrival stream: positive and finite.
///
/// # Errors
///
/// [`PlanError::BadRate`] otherwise.
pub(crate) fn check_rate(rate: Qps) -> Result<(), PlanError> {
    if positive_finite(rate.value()) {
        Ok(())
    } else {
        Err(PlanError::BadRate)
    }
}

/// SLA specification for latency-bounded throughput (the paper's
/// `SLA_m` constraint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSpec {
    /// Tail-latency target.
    pub target: SimDuration,
    /// Which latency quantile must meet the target (the paper and
    /// DeepRecSys use p95).
    pub percentile: f64,
}

impl SlaSpec {
    /// A p95 SLA at `target`.
    pub fn p95(target: SimDuration) -> Self {
        SlaSpec {
            target,
            percentile: 0.95,
        }
    }

    /// A p99 SLA at `target`.
    pub fn p99(target: SimDuration) -> Self {
        SlaSpec {
            target,
            percentile: 0.99,
        }
    }
}

/// Simulation controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Leading fraction excluded from metrics (warm-up).
    pub warmup_fraction: f64,
    /// Trailing span excluded from metrics: queries arriving within this
    /// margin of the horizon are served but not measured (they could not
    /// finish before the horizon even when SLA-compliant). Searches set it
    /// to a multiple of the SLA target.
    pub drain_margin: SimDuration,
    /// RNG seed for arrivals and sizes.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: SimDuration::from_secs(4),
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed: 0xC0FFEE,
        }
    }
}

/// A run's measurement window: the horizon, and the arrivals whose
/// latency counts. The warm-up fraction is clamped to 0.9 and the drain
/// margin capped at 40% of the horizon, and the window never inverts. The
/// simulator and both runtime clocks derive their windows here, so they
/// measure the same queries.
#[derive(Debug, Clone, Copy)]
pub struct RunWindow {
    /// End of the served span.
    pub horizon: SimTime,
    /// First measured arrival instant.
    pub warmup_start: SimTime,
    /// Arrivals at or after this instant are served but not measured.
    pub measure_end: SimTime,
}

impl RunWindow {
    /// The window of a `duration`-long run.
    pub fn new(duration: SimDuration, warmup_fraction: f64, drain_margin: SimDuration) -> Self {
        let warmup_start = SimTime::ZERO + duration.mul_f64(warmup_fraction.clamp(0.0, 0.9));
        let margin = drain_margin.min(duration.mul_f64(0.4));
        let measure_end = SimTime::ZERO + duration.saturating_sub(margin);
        RunWindow {
            horizon: SimTime::ZERO + duration,
            warmup_start,
            measure_end: measure_end.max(warmup_start),
        }
    }

    /// Whether a query arriving at `t` is measured.
    pub fn measures(&self, t: SimTime) -> bool {
        t >= self.warmup_start && t < self.measure_end
    }

    /// Length of the measured span in seconds (at least 1 ns, so rates
    /// over it stay finite).
    pub fn seconds(&self) -> f64 {
        self.measure_end
            .saturating_since(self.warmup_start)
            .as_secs_f64()
            .max(1e-9)
    }
}

impl SimConfig {
    /// The run's measurement window.
    pub fn window(&self) -> RunWindow {
        RunWindow::new(self.duration, self.warmup_fraction, self.drain_margin)
    }

    /// A faster, coarser configuration for searches.
    pub fn quick(seed: u64) -> Self {
        SimConfig {
            duration: SimDuration::from_millis(1500),
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed,
        }
    }
}

/// One tenant of a multi-tenant (co-located) server: the model it serves,
/// its offered load, its scheduling weight, and its latency SLA.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The recommendation model this tenant serves.
    pub model: RecModel,
    /// Offered arrival rate for this tenant's query stream.
    pub offered: Qps,
    /// Scheduling weight: the tenant's share of the shared dispatch
    /// bandwidth under weighted round-robin (relative, need not sum to 1).
    pub share: f64,
    /// Per-tenant tail-latency SLA.
    pub sla: SlaSpec,
}

impl TenantSpec {
    /// A tenant at `offered` load with unit share and the model's default
    /// p99 SLA.
    pub fn new(model: RecModel, offered: Qps) -> Self {
        let sla = SlaSpec::p99(model.default_sla());
        TenantSpec {
            model,
            offered,
            share: 1.0,
            sla,
        }
    }

    /// Builder: overrides the scheduling share.
    pub fn with_share(mut self, share: f64) -> Self {
        self.share = share;
        self
    }
}

/// Simulation controls for a multi-tenant run: the shared [`SimConfig`]
/// plus the tenant set co-located on one server.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// Shared simulation controls (duration, warm-up, seed).
    pub sim: SimConfig,
    /// The co-located tenants. Tenant 0's query stream is bit-identical to
    /// the dedicated stream at the same seed.
    pub tenants: Vec<TenantSpec>,
}

impl ColocationConfig {
    /// Bundles simulation controls with a tenant set.
    pub fn new(sim: SimConfig, tenants: Vec<TenantSpec>) -> Self {
        ColocationConfig { sim, tenants }
    }

    /// Validates the tenant set.
    ///
    /// # Errors
    ///
    /// [`PlanError::NoTenants`] for an empty set; [`PlanError::BadTenant`]
    /// naming the tenant whose share or offered load is non-positive (or
    /// not finite).
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.tenants.is_empty() {
            return Err(PlanError::NoTenants);
        }
        for (index, t) in self.tenants.iter().enumerate() {
            let ok = positive_finite(t.share) && check_rate(t.offered).is_ok();
            if !ok {
                return Err(PlanError::BadTenant { index });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    fn rmc1() -> RecModel {
        RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
    }

    #[test]
    fn core_accounting() {
        let p = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        assert_eq!(p.host_cores(), 20);
        let sd = PlacementPlan::CpuSdPipeline {
            sparse_threads: 4,
            sparse_workers: 3,
            dense_threads: 6,
            batch: 128,
        };
        assert_eq!(sd.host_cores(), 18);
        assert!(!p.uses_gpu());
    }

    #[test]
    fn validate_rejects_oversubscription() {
        let server = ServerType::T2.spec(); // 20 cores
        let p = PlacementPlan::CpuModel {
            threads: 21,
            workers: 1,
            batch: 64,
        };
        assert_eq!(
            validate_plan(&p, &server, &rmc1()).unwrap_err(),
            PlanError::InsufficientCores {
                requested: 21,
                available: 20
            }
        );
    }

    #[test]
    fn validate_rejects_gpu_on_cpu_server() {
        let server = ServerType::T2.spec();
        let p = PlacementPlan::GpuModel {
            colocated: 2,
            fusion_limit: Some(1000),
            host_sparse_threads: 2,
            host_batch: 128,
        };
        assert_eq!(
            validate_plan(&p, &server, &rmc1()).unwrap_err(),
            PlanError::NoGpu
        );
    }

    #[test]
    fn validate_rejects_zero_params() {
        let server = ServerType::T2.spec();
        let p = PlacementPlan::CpuModel {
            threads: 0,
            workers: 1,
            batch: 64,
        };
        assert_eq!(
            validate_plan(&p, &server, &rmc1()).unwrap_err(),
            PlanError::ZeroParameter
        );
    }

    #[test]
    fn validate_accepts_sane_plans() {
        let server = ServerType::T7.spec();
        let cpu = PlacementPlan::CpuModel {
            threads: 20,
            workers: 1,
            batch: 256,
        };
        validate_plan(&cpu, &server, &rmc1()).unwrap();
        let gpu = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(2000),
            host_sparse_threads: 4,
            host_batch: 256,
        };
        validate_plan(&gpu, &server, &rmc1()).unwrap();
    }

    #[test]
    fn labels_are_compact() {
        let p = PlacementPlan::HybridSdPipeline {
            sparse_threads: 8,
            sparse_workers: 2,
            gpu_colocated: 2,
            fusion_limit: None,
            batch: 128,
        };
        assert_eq!(p.label(), "SD-GPU 8x2::g2 F=off d=128");
    }

    #[test]
    fn colocation_config_validation() {
        use hercules_common::units::Qps;
        let sim = SimConfig::default();
        assert_eq!(
            ColocationConfig::new(sim, vec![]).validate().unwrap_err(),
            PlanError::NoTenants
        );
        let ok_tenant = TenantSpec::new(rmc1(), Qps(100.0));
        let bad_share = TenantSpec::new(rmc1(), Qps(100.0)).with_share(0.0);
        assert_eq!(
            ColocationConfig::new(sim, vec![ok_tenant, bad_share])
                .validate()
                .unwrap_err(),
            PlanError::BadTenant { index: 1 }
        );
        let inf_load = TenantSpec::new(rmc1(), Qps(f64::INFINITY));
        assert_eq!(
            ColocationConfig::new(sim, vec![inf_load])
                .validate()
                .unwrap_err(),
            PlanError::BadTenant { index: 0 }
        );
        let ok = TenantSpec::new(rmc1(), Qps(100.0)).with_share(2.0);
        assert!(ColocationConfig::new(sim, vec![ok]).validate().is_ok());
    }

    #[test]
    fn tenant_spec_defaults_to_model_sla() {
        use hercules_common::units::Qps;
        let t = TenantSpec::new(rmc1(), Qps(50.0));
        assert_eq!(t.sla.percentile, 0.99);
        assert_eq!(t.sla.target, rmc1().default_sla());
        assert_eq!(t.share, 1.0);
    }

    #[test]
    fn sla_constructors() {
        let s = SlaSpec::p95(SimDuration::from_millis(20));
        assert_eq!(s.percentile, 0.95);
        let s99 = SlaSpec::p99(SimDuration::from_millis(50));
        assert_eq!(s99.percentile, 0.99);
    }
}
