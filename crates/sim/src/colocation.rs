//! Multi-tenant co-location: several recommendation models served from one
//! server over shared inference-thread pools and a shared PCIe link.
//!
//! The paper provisions whole servers per workload; Hera-style multi-tenant
//! serving recovers the stranded capacity by packing tenants onto shared
//! servers at bounded tail-latency cost. The simulator's event loop
//! (`crate::engine`) serves any number of tenants; this module holds what
//! only matters once there are several: per-tenant dispatch queues feed
//! the shared front/back/GPU pools through share-weighted deficit
//! round-robin, and every tenant's service time is derated by
//! [`hercules_hw::cost::colocation_derate`] to model LLC and
//! memory-bandwidth interference between co-located models. The derate is
//! **load-dependent**: each dispatch measures the co-runners' aggregate
//! DRAM-channel intensity (their cumulative `channel_bytes` over elapsed
//! simulated time, as a fraction of peak channel bandwidth), so an idle
//! co-tenant costs only the LLC-pollution floor while a
//! bandwidth-saturating one charges the full per-tenant penalty.
//!
//! A single tenant is a dedicated server: it is never derated, its picker
//! is FIFO, and tenant 0's query stream is the dedicated stream
//! ([`QueryStream::tenant`](hercules_workload::generator::QueryStream::tenant)
//! with index 0).

use hercules_common::units::SimTime;
use hercules_hw::cost::colocation_derate;
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::server::ServerSpec;

use crate::config::{ColocationConfig, PlacementPlan, PlanError};
use crate::engine::{run, TenantRun};
use crate::metrics::ColocationReport;
use crate::service::{build_topology, StageKind, Topology};

/// Share-weighted deficit round-robin over tenant queues.
///
/// Each dispatch consumes one credit; credits refill in proportion to
/// tenant shares once every backlogged tenant is out of credit, so over a
/// busy period tenant `i` receives `share_i / sum(shares)` of the dispatch
/// slots. The event loop's pools pick a lone tenant without it.
#[derive(Debug)]
pub(crate) struct WeightedRr {
    credit: Vec<f64>,
    refill: Vec<f64>,
}

impl WeightedRr {
    pub(crate) fn new(shares: &[f64]) -> Self {
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        // Floor the normalized weights at a positive epsilon so even a
        // tenant with a vanishing share makes progress on every refill.
        let refill: Vec<f64> = shares.iter().map(|s| (s / mean).max(1e-9)).collect();
        WeightedRr {
            credit: refill.clone(),
            refill,
        }
    }

    /// Picks the backlogged tenant with the most credit (ties to the lowest
    /// index), refilling when every backlogged tenant is spent. Returns
    /// `None` when nothing is backlogged.
    pub(crate) fn pick(&mut self, backlogged: impl Fn(usize) -> bool) -> Option<usize> {
        if !(0..self.credit.len()).any(&backlogged) {
            return None;
        }
        loop {
            let mut best: Option<usize> = None;
            for i in 0..self.credit.len() {
                if !backlogged(i) || self.credit[i] <= 0.0 {
                    continue;
                }
                if best.map_or(true, |b| self.credit[i] > self.credit[b]) {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                self.credit[i] -= 1.0;
                return Some(i);
            }
            // Every backlogged tenant is spent: run deficit accumulation.
            // Jumping `rounds` refill steps at once (just enough to lift the
            // closest backlogged tenant above zero) keeps the loop O(1)
            // even under extreme share skew, while preserving exact DRR
            // proportionality: over a busy period tenant `i` receives
            // `share_i / sum(shares)` of the dispatch slots. Idle tenants'
            // deficit resets (classic DRR) so a long-quiet tenant cannot
            // hoard credit and monopolize the pools on return.
            let rounds = (0..self.credit.len())
                .filter(|&i| backlogged(i))
                .map(|i| ((-self.credit[i]) / self.refill[i]).floor() + 1.0)
                .fold(f64::INFINITY, f64::min)
                .max(1.0);
            let mut any_positive = false;
            for i in 0..self.credit.len() {
                if backlogged(i) {
                    self.credit[i] += rounds * self.refill[i];
                    any_positive |= self.credit[i] > 0.0;
                } else {
                    self.credit[i] = self.refill[i];
                }
            }
            if !any_positive {
                // Pathological float rounding: fall back to a hard reset of
                // the backlogged tenants so the scan always terminates.
                for i in 0..self.credit.len() {
                    if backlogged(i) {
                        self.credit[i] = self.refill[i];
                    }
                }
            }
        }
    }
}

/// Load-dependent interference among co-located tenants: each tenant's
/// cumulative host DRAM channel bytes, the basis of its co-runners'
/// derate.
#[derive(Debug)]
pub(crate) struct Interference {
    /// Number of co-located tenants.
    tenants: u32,
    /// Peak DRAM channel bandwidth in bytes/s, the normalizer for the
    /// co-runner memory-intensity estimate.
    peak_chan_bw: f64,
    /// Cumulative channel bytes issued per tenant.
    chan_bytes: Vec<f64>,
}

impl Interference {
    /// Interference among `tenants` sharing `server`; `None` for a lone
    /// tenant, which is never derated.
    pub(crate) fn among(tenants: usize, server: &ServerSpec) -> Option<Self> {
        (tenants > 1).then(|| Interference {
            tenants: tenants as u32,
            peak_chan_bw: server.mem.peak_bw_gbs * 1e9,
            chan_bytes: vec![0.0; tenants],
        })
    }

    /// The interference factor for a batch of `tenant` dispatched at
    /// `now`: co-runner intensity is the *other* tenants' cumulative
    /// channel traffic averaged over elapsed simulated time, as a fraction
    /// of peak channel bandwidth.
    pub(crate) fn factor(&self, tenant: usize, now: SimTime) -> f64 {
        let others: f64 = self
            .chan_bytes
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tenant)
            .map(|(_, b)| b)
            .sum();
        let intensity = others / now.as_secs_f64().max(1e-9) / self.peak_chan_bw;
        colocation_derate(self.tenants, intensity)
    }

    /// Records `bytes` of channel traffic issued by `tenant`.
    pub(crate) fn charge(&mut self, tenant: usize, bytes: f64) {
        self.chan_bytes[tenant] += bytes;
    }
}

/// Structural fingerprint of a topology: where arrivals enter and where
/// the front pool forwards. Tenants sharing pools must agree on it.
fn topo_shape(t: &Topology) -> (StageKind, Option<StageKind>) {
    (t.ingress(), t.after(StageKind::Front))
}

/// Simulates `cfg.tenants` co-located on `server` under the shared `plan`.
///
/// Every tenant's topology is built from its own model against the same
/// placement plan; the event loop then runs per-tenant dispatch queues over
/// the shared thread pools with interference-derated service times. Returns
/// one report per tenant plus the aggregate server view.
///
/// # Errors
///
/// Returns a [`PlanError`] when the tenant set is empty or malformed
/// ([`ColocationConfig::validate`]), when the plan is infeasible for any
/// tenant's model, or when tenants produce structurally different
/// topologies ([`PlanError::TenantShapeMismatch`]).
pub fn simulate_colocated(
    server: &ServerSpec,
    plan: &PlacementPlan,
    cfg: &ColocationConfig,
    luts: &NmpLutCache,
) -> Result<ColocationReport, PlanError> {
    cfg.validate()?;
    let topos: Vec<Topology> = cfg
        .tenants
        .iter()
        .map(|t| build_topology(&t.model, server, plan, luts))
        .collect::<Result<_, _>>()?;
    let shape = topo_shape(&topos[0]);
    if topos.iter().any(|t| topo_shape(t) != shape) {
        return Err(PlanError::TenantShapeMismatch);
    }

    let tenants: Vec<TenantRun<'_>> = topos
        .iter()
        .zip(&cfg.tenants)
        .map(|(topo, t)| TenantRun {
            topo,
            offered: t.offered,
            share: t.share,
        })
        .collect();
    Ok(run(server, &tenants, &cfg.sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, TenantSpec};
    use hercules_common::units::{Qps, SimDuration};
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};

    fn quick() -> SimConfig {
        SimConfig {
            duration: SimDuration::from_secs(2),
            warmup_fraction: 0.15,
            // Trailing arrivals are served but not measured — they cannot
            // finish before the horizon even when SLA-compliant.
            drain_margin: SimDuration::from_millis(200),
            seed: 11,
        }
    }

    fn cpu_plan() -> PlacementPlan {
        PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        }
    }

    fn tenant(kind: ModelKind, qps: f64) -> TenantSpec {
        TenantSpec::new(RecModel::build(kind, ModelScale::Production), Qps(qps))
    }

    #[test]
    fn weighted_rr_is_share_proportional() {
        // Over a busy period, dispatch slots split share_i / sum(shares).
        for (shares, expect) in [
            (vec![4.0, 1.0], [4usize, 1usize]),
            (vec![3.0, 2.0], [3, 2]),
            (vec![1.0, 1.0], [1, 1]),
        ] {
            let mut rr = WeightedRr::new(&shares);
            let mut counts = [0usize; 2];
            for _ in 0..5000 {
                let i = rr.pick(|_| true).expect("always backlogged");
                counts[i] += 1;
            }
            let ratio = counts[0] as f64 / counts[1] as f64;
            let want = expect[0] as f64 / expect[1] as f64;
            assert!(
                (ratio - want).abs() < 0.02 * want,
                "shares {shares:?}: got ratio {ratio}, want {want}"
            );
        }
        // Extreme skew must not hang and must still serve the tiny share.
        let mut rr = WeightedRr::new(&[1e12, 1.0]);
        let mut low = 0;
        for _ in 0..10_000 {
            if rr.pick(|_| true).unwrap() == 1 {
                low += 1;
            }
        }
        assert!(low >= 1, "tiny share must not starve");
    }

    #[test]
    fn two_cpu_tenants_complete_under_light_load() {
        let server = ServerType::T2.spec();
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                tenant(ModelKind::DlrmRmc1, 120.0),
                tenant(ModelKind::DlrmRmc2, 100.0),
            ],
        );
        let r = simulate_colocated(&server, &cpu_plan(), &cfg, &NmpLutCache::new()).unwrap();
        assert_eq!(r.tenants(), 2);
        for t in &r.per_tenant {
            assert_eq!(t.completed, t.measured_arrivals);
            assert!(t.p99 > SimDuration::ZERO);
        }
        assert_eq!(r.total_completed(), r.aggregate.completed);
        assert_eq!(
            r.aggregate.completed_total + r.aggregate.in_flight_at_horizon,
            r.aggregate.total_arrivals
        );
    }

    #[test]
    fn interference_slows_a_tenant_versus_dedicated() {
        let server = ServerType::T2.spec();
        let luts = NmpLutCache::new();
        let solo_cfg = ColocationConfig::new(quick(), vec![tenant(ModelKind::DlrmRmc1, 150.0)]);
        let solo = simulate_colocated(&server, &cpu_plan(), &solo_cfg, &luts).unwrap();
        let duo_cfg = ColocationConfig::new(
            quick(),
            vec![
                tenant(ModelKind::DlrmRmc1, 150.0),
                tenant(ModelKind::DlrmRmc2, 150.0),
            ],
        );
        let duo = simulate_colocated(&server, &cpu_plan(), &duo_cfg, &luts).unwrap();
        assert!(
            duo.per_tenant[0].mean_latency > solo.per_tenant[0].mean_latency,
            "co-location must cost latency: {} vs {}",
            duo.per_tenant[0].mean_latency,
            solo.per_tenant[0].mean_latency
        );
    }

    #[test]
    fn gpu_tenants_share_contexts_and_link() {
        let server = ServerType::T7.spec();
        let plan = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(2000),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small),
                    Qps(800.0),
                ),
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc1, ModelScale::Small),
                    Qps(600.0),
                ),
            ],
        );
        let r = simulate_colocated(&server, &plan, &cfg, &NmpLutCache::new()).unwrap();
        assert!(r.per_tenant.iter().all(|t| t.completed > 0));
        assert!(r.aggregate.gpu_activity > 0.0);
        assert!(r.aggregate.pcie_activity > 0.0);
        assert_eq!(r.total_completed(), r.aggregate.completed);
    }

    #[test]
    fn mismatched_tenant_shapes_rejected() {
        let server = ServerType::T7.spec();
        let plan = PlacementPlan::GpuModel {
            colocated: 2,
            fusion_limit: Some(2000),
            host_sparse_threads: 4,
            host_batch: 256,
        };
        // A small model rides the GPU whole (no host stage); a production
        // model needs the cold-sparse host stage: shapes differ.
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small),
                    Qps(500.0),
                ),
                TenantSpec::new(
                    RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production),
                    Qps(500.0),
                ),
            ],
        );
        let err = simulate_colocated(&server, &plan, &cfg, &NmpLutCache::new()).unwrap_err();
        assert_eq!(err, PlanError::TenantShapeMismatch);
    }

    #[test]
    fn shares_bias_dispatch_under_contention() {
        // At overload, a tenant with 4x the share should complete more
        // queries than its peer with the same offered load.
        let server = ServerType::T2.spec();
        let cfg = ColocationConfig::new(
            quick(),
            vec![
                tenant(ModelKind::DlrmRmc1, 2_500.0).with_share(4.0),
                tenant(ModelKind::DlrmRmc1, 2_500.0).with_share(1.0),
            ],
        );
        let r = simulate_colocated(&server, &cpu_plan(), &cfg, &NmpLutCache::new()).unwrap();
        assert!(
            r.per_tenant[0].completed > r.per_tenant[1].completed,
            "share 4 ({}) should beat share 1 ({})",
            r.per_tenant[0].completed,
            r.per_tenant[1].completed
        );
    }
}
