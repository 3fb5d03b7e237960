//! Heterogeneity-aware cluster provisioning (paper §IV-C): the provisioning
//! problem of Eq. (1)–(3), allocations, and the scheduler policies.

pub mod online;
pub mod policies;

use std::collections::BTreeMap;
use std::fmt;

use hercules_common::units::Watts;
use hercules_hw::server::{Fleet, ServerType};
use hercules_model::zoo::ModelKind;

use crate::profiler::EfficiencyTable;

/// One provisioning decision instant: workloads, their current loads, the
/// fleet, and the classification table.
#[derive(Debug, Clone, Copy)]
pub struct ProvisionRequest<'a> {
    /// Available servers per type (`N_h`, Eq. 3).
    pub fleet: &'a Fleet,
    /// The offline-profiled efficiency tuples (`QPS_{h,m}`, `Power_{h,m}`).
    pub table: &'a EfficiencyTable,
    /// The workloads being served (`G_m`).
    pub workloads: &'a [ModelKind],
    /// Current load per workload, QPS (`load_m(t)`, Eq. 2).
    pub loads: &'a [f64],
    /// Over-provision rate `R` (Eq. 2's `(1 + R%)` headroom).
    pub over_provision: f64,
}

impl ProvisionRequest<'_> {
    /// Load target for workload index `w` including headroom.
    pub fn target(&self, w: usize) -> f64 {
        self.loads[w] * (1.0 + self.over_provision)
    }

    /// Checks that every load and the over-provision rate are finite and
    /// non-negative. Every scheduler runs this first.
    ///
    /// # Errors
    ///
    /// [`ProvisionError::BadLoad`] names the first workload whose load is
    /// negative or not finite; otherwise [`ProvisionError::BadOverProvision`]
    /// when `R` is.
    pub fn check(&self) -> Result<(), ProvisionError> {
        let valid = |v: f64| v.is_finite() && v >= 0.0;
        if let Some((_, &workload)) = self
            .loads
            .iter()
            .zip(self.workloads)
            .find(|&(&load, _)| !valid(load))
        {
            return Err(ProvisionError::BadLoad { workload });
        }
        if !valid(self.over_provision) {
            return Err(ProvisionError::BadOverProvision);
        }
        Ok(())
    }
}

/// Why provisioning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvisionError {
    /// The cluster cannot serve the requested loads even fully activated.
    InsufficientCapacity {
        /// The workload that could not be satisfied.
        workload: ModelKind,
    },
    /// A workload has no feasible server type in the table.
    NoServerFor {
        /// The stranded workload.
        workload: ModelKind,
    },
    /// The optimizer failed to produce a solution.
    SolverFailure,
    /// A workload's load is negative or not finite.
    BadLoad {
        /// The workload with the malformed load.
        workload: ModelKind,
    },
    /// The over-provision rate `R` is negative or not finite.
    BadOverProvision,
}

impl fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvisionError::InsufficientCapacity { workload } => {
                write!(f, "cluster capacity cannot satisfy {workload}")
            }
            ProvisionError::NoServerFor { workload } => {
                write!(f, "no server type can serve {workload}")
            }
            ProvisionError::SolverFailure => write!(f, "provisioning optimizer failed"),
            ProvisionError::BadLoad { workload } => {
                write!(f, "load of {workload} is negative or not finite")
            }
            ProvisionError::BadOverProvision => {
                write!(f, "over-provision rate is negative or not finite")
            }
        }
    }
}

impl std::error::Error for ProvisionError {}

/// An allocation `N_{h,m}`: how many servers of each type serve each
/// workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    counts: BTreeMap<(ServerType, usize), u32>,
}

impl Allocation {
    /// An empty allocation.
    pub fn new() -> Self {
        Allocation::default()
    }

    /// Adds `n` servers of `stype` to workload index `w`.
    pub fn add(&mut self, stype: ServerType, w: usize, n: u32) {
        if n > 0 {
            *self.counts.entry((stype, w)).or_insert(0) += n;
        }
    }

    /// Servers of `stype` assigned to workload `w`.
    pub fn count(&self, stype: ServerType, w: usize) -> u32 {
        self.counts.get(&(stype, w)).copied().unwrap_or(0)
    }

    /// Total activated servers (the paper's *cluster capacity* metric).
    pub fn activated_total(&self) -> u32 {
        self.counts.values().sum()
    }

    /// Activated servers of one type across workloads.
    pub fn activated_of_type(&self, stype: ServerType) -> u32 {
        self.counts
            .iter()
            .filter(|&(&(s, _), _)| s == stype)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Iterates `((server_type, workload_idx), count)`.
    pub fn iter(&self) -> impl Iterator<Item = ((ServerType, usize), u32)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Total provisioned power: `sum N_{h,m} x Power_{h,m}` (Eq. 1).
    pub fn provisioned_power(&self, table: &EfficiencyTable, workloads: &[ModelKind]) -> Watts {
        let mut total = Watts::ZERO;
        for (&(stype, w), &n) in &self.counts {
            if let Some(e) = table.get(workloads[w], stype) {
                total += e.power * n as f64;
            }
        }
        total
    }

    /// Aggregate QPS this allocation provides to workload `w`.
    pub fn served_qps(&self, table: &EfficiencyTable, workloads: &[ModelKind], w: usize) -> f64 {
        self.counts
            .iter()
            .filter(|&(&(_, wi), _)| wi == w)
            .map(|(&(s, _), &n)| {
                table
                    .get(workloads[w], s)
                    .map_or(0.0, |e| e.qps.value() * n as f64)
            })
            .sum()
    }

    /// Whether the allocation satisfies every load target and capacity
    /// limit of `req`.
    pub fn satisfies(&self, req: &ProvisionRequest<'_>) -> bool {
        for (w, _) in req.workloads.iter().enumerate() {
            if self.served_qps(req.table, req.workloads, w) + 1e-9 < req.target(w) {
                return false;
            }
        }
        for (stype, cap) in req.fleet.iter() {
            if self.activated_of_type(stype) > cap {
                return false;
            }
        }
        // No servers of types the fleet does not own.
        for (&(stype, _), &n) in &self.counts {
            if n > 0 && req.fleet.count(stype) == 0 {
                return false;
            }
        }
        true
    }
}

/// One tenant's slice of a shared server in a co-located allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantShare {
    /// Workload index into the request's workload list.
    pub workload: usize,
    /// Fraction of the server granted to this tenant, interference
    /// inflation included (shares on one server sum to at most 1).
    pub share: f64,
    /// QPS delivered to the workload from this server.
    pub qps: f64,
}

/// One activated server and the tenants packed onto it.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedServer {
    /// The server type.
    pub stype: ServerType,
    /// Tenants sharing the server (one entry = dedicated).
    pub tenants: Vec<TenantShare>,
}

impl SharedServer {
    /// Number of co-located tenants.
    pub fn tenant_count(&self) -> u32 {
        self.tenants.len() as u32
    }

    /// Total fraction of the server in use.
    pub fn load_factor(&self) -> f64 {
        self.tenants.iter().map(|t| t.share).sum()
    }

    /// Whether the server runs a single tenant.
    pub fn is_dedicated(&self) -> bool {
        self.tenants.len() == 1
    }
}

/// A multi-tenant allocation: an explicit server list, each hosting one or
/// more tenant shares. Generalizes [`Allocation`], which dedicates whole
/// servers per workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColocatedAllocation {
    /// Activated servers with their tenant placements.
    pub servers: Vec<SharedServer>,
}

impl ColocatedAllocation {
    /// An empty allocation.
    pub fn new() -> Self {
        ColocatedAllocation::default()
    }

    /// Total activated servers (the cluster-capacity metric).
    pub fn activated_total(&self) -> u32 {
        self.servers.len() as u32
    }

    /// Activated servers of one type.
    pub fn activated_of_type(&self, stype: ServerType) -> u32 {
        self.servers.iter().filter(|s| s.stype == stype).count() as u32
    }

    /// Servers hosting two or more tenants.
    pub fn shared_servers(&self) -> u32 {
        self.servers.iter().filter(|s| s.tenants.len() > 1).count() as u32
    }

    /// Aggregate QPS delivered to workload index `w`.
    pub fn served_qps(&self, w: usize) -> f64 {
        self.servers
            .iter()
            .flat_map(|s| &s.tenants)
            .filter(|t| t.workload == w)
            .map(|t| t.qps)
            .sum()
    }

    /// Total provisioned power: each server is budgeted at its most
    /// power-hungry tenant's profiled operating point (a shared server
    /// cannot be provisioned below any tenant's requirement).
    pub fn provisioned_power(&self, table: &EfficiencyTable, workloads: &[ModelKind]) -> Watts {
        let mut total = Watts::ZERO;
        for s in &self.servers {
            let mut peak = Watts::ZERO;
            for t in &s.tenants {
                if let Some(e) = table.get(workloads[t.workload], s.stype) {
                    peak = peak.max(e.power);
                }
            }
            total += peak;
        }
        total
    }

    /// Whether the allocation satisfies every load target, capacity limit,
    /// and per-server share budget of `req`.
    pub fn satisfies(&self, req: &ProvisionRequest<'_>) -> bool {
        for (w, _) in req.workloads.iter().enumerate() {
            if self.served_qps(w) + 1e-9 < req.target(w) {
                return false;
            }
        }
        for (stype, cap) in req.fleet.iter() {
            if self.activated_of_type(stype) > cap {
                return false;
            }
        }
        for s in &self.servers {
            if req.fleet.count(s.stype) == 0 || s.load_factor() > 1.0 + 1e-9 {
                return false;
            }
        }
        true
    }
}

/// A cluster-provisioning policy.
pub trait Provisioner {
    /// Human-readable policy name (used in bench output).
    fn name(&self) -> &'static str;

    /// Computes an allocation for the request.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError`] when the request is malformed
    /// ([`ProvisionRequest::check`]) or its loads cannot be satisfied.
    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::EfficiencyEntry;
    use hercules_common::units::Qps;
    use hercules_sim::PlacementPlan;

    fn entry(qps: f64, power: f64) -> EfficiencyEntry {
        EfficiencyEntry {
            qps: Qps(qps),
            power: Watts(power),
            plan: PlacementPlan::CpuModel {
                threads: 1,
                workers: 1,
                batch: 64,
            },
        }
    }

    fn table() -> EfficiencyTable {
        EfficiencyTable::from_entries([
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 200.0)),
            ((ModelKind::DlrmRmc1, ServerType::T3), entry(2000.0, 250.0)),
        ])
    }

    #[test]
    fn allocation_accounting() {
        let t = table();
        let workloads = [ModelKind::DlrmRmc1];
        let mut a = Allocation::new();
        a.add(ServerType::T2, 0, 3);
        a.add(ServerType::T3, 0, 2);
        a.add(ServerType::T3, 0, 1);
        assert_eq!(a.count(ServerType::T3, 0), 3);
        assert_eq!(a.activated_total(), 6);
        assert_eq!(a.activated_of_type(ServerType::T3), 3);
        assert_eq!(a.served_qps(&t, &workloads, 0), 3.0 * 1000.0 + 3.0 * 2000.0);
        assert_eq!(
            a.provisioned_power(&t, &workloads),
            Watts(3.0 * 200.0 + 3.0 * 250.0)
        );
    }

    #[test]
    fn satisfies_checks_load_and_capacity() {
        let t = table();
        let workloads = [ModelKind::DlrmRmc1];
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 5).set(ServerType::T3, 2);
        let loads = [3000.0];
        let req = ProvisionRequest {
            fleet: &fleet,
            table: &t,
            workloads: &workloads,
            loads: &loads,
            over_provision: 0.0,
        };
        let mut ok = Allocation::new();
        ok.add(ServerType::T2, 0, 1);
        ok.add(ServerType::T3, 0, 1);
        assert!(ok.satisfies(&req));

        let mut short = Allocation::new();
        short.add(ServerType::T2, 0, 2);
        assert!(!short.satisfies(&req));

        let mut over_cap = Allocation::new();
        over_cap.add(ServerType::T3, 0, 3);
        assert!(!over_cap.satisfies(&req));
    }

    #[test]
    fn colocated_allocation_accounting() {
        let t = table();
        let workloads = [ModelKind::DlrmRmc1, ModelKind::DlrmRmc1];
        let alloc = ColocatedAllocation {
            servers: vec![
                SharedServer {
                    stype: ServerType::T2,
                    tenants: vec![TenantShare {
                        workload: 0,
                        share: 1.0,
                        qps: 1000.0,
                    }],
                },
                SharedServer {
                    stype: ServerType::T3,
                    tenants: vec![
                        TenantShare {
                            workload: 0,
                            share: 0.4,
                            qps: 700.0,
                        },
                        TenantShare {
                            workload: 1,
                            share: 0.5,
                            qps: 900.0,
                        },
                    ],
                },
            ],
        };
        assert_eq!(alloc.activated_total(), 2);
        assert_eq!(alloc.activated_of_type(ServerType::T3), 1);
        assert_eq!(alloc.shared_servers(), 1);
        assert!((alloc.served_qps(0) - 1700.0).abs() < 1e-9);
        assert!((alloc.served_qps(1) - 900.0).abs() < 1e-9);
        assert!(alloc.servers[0].is_dedicated());
        assert!(!alloc.servers[1].is_dedicated());
        assert!((alloc.servers[1].load_factor() - 0.9).abs() < 1e-12);
        // Power: dedicated T2 at its point + shared T3 at the max tenant.
        assert_eq!(
            alloc.provisioned_power(&t, &workloads),
            Watts(200.0 + 250.0)
        );
    }

    #[test]
    fn colocated_satisfies_checks_shares_and_capacity() {
        let t = table();
        let workloads = [ModelKind::DlrmRmc1];
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 2);
        let loads = [900.0];
        let req = ProvisionRequest {
            fleet: &fleet,
            table: &t,
            workloads: &workloads,
            loads: &loads,
            over_provision: 0.0,
        };
        let ok = ColocatedAllocation {
            servers: vec![SharedServer {
                stype: ServerType::T2,
                tenants: vec![TenantShare {
                    workload: 0,
                    share: 0.9,
                    qps: 900.0,
                }],
            }],
        };
        assert!(ok.satisfies(&req));
        let mut overloaded = ok.clone();
        overloaded.servers[0].tenants[0].share = 1.2;
        assert!(!overloaded.satisfies(&req), "share budget exceeded");
        let mut short = ok.clone();
        short.servers[0].tenants[0].qps = 500.0;
        assert!(!short.satisfies(&req), "load target missed");
        let mut wrong_type = ok;
        wrong_type.servers[0].stype = ServerType::T7;
        assert!(!wrong_type.satisfies(&req), "type absent from fleet");
    }

    #[test]
    fn over_provision_raises_target() {
        let t = table();
        let workloads = [ModelKind::DlrmRmc1];
        let fleet = Fleet::table_ii();
        let loads = [1000.0];
        let req = ProvisionRequest {
            fleet: &fleet,
            table: &t,
            workloads: &workloads,
            loads: &loads,
            over_provision: 0.10,
        };
        assert!((req.target(0) - 1100.0).abs() < 1e-9);
        let mut exact = Allocation::new();
        exact.add(ServerType::T2, 0, 1);
        assert!(!exact.satisfies(&req), "headroom not met by 1000 QPS");
    }
}
