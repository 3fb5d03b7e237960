//! The four cluster schedulers compared in the paper:
//!
//! - [`NhScheduler`]: heterogeneity-oblivious — random server types.
//! - [`GreedyScheduler`]: heterogeneity-aware greedy (Paragon/Quasar \[8\],
//!   \[9\] style) — always the best-ranked available type, but competing
//!   workloads split contended types arbitrarily.
//! - [`PriorityScheduler`]: §III-C's priority-aware refinement — contended
//!   types go to the workload with the most to lose.
//! - [`HerculesScheduler`]: the constrained-optimization provisioner of
//!   Eq. (1)–(3), solved to the integral optimum by branch and bound.

use hercules_common::rng::SimRng;
use hercules_hw::cost::colocation_derate;
use hercules_hw::server::ServerType;
use hercules_solver::{solve_ilp, solve_simplex, IlpOptions, LinearProgram, LpStatus, Relation};

use crate::cluster::{
    Allocation, ColocatedAllocation, ProvisionError, ProvisionRequest, Provisioner, SharedServer,
    TenantShare,
};
use crate::profiler::RankMetric;

/// Remaining capacity tracker shared by the list-based policies.
struct CapacityPool {
    left: Vec<(ServerType, u32)>,
}

impl CapacityPool {
    fn new(req: &ProvisionRequest<'_>) -> Self {
        CapacityPool {
            left: req.fleet.iter().collect(),
        }
    }

    fn available(&self, stype: ServerType) -> u32 {
        self.left
            .iter()
            .find(|&&(s, _)| s == stype)
            .map_or(0, |&(_, n)| n)
    }

    fn take(&mut self, stype: ServerType) -> bool {
        for entry in self.left.iter_mut() {
            if entry.0 == stype && entry.1 > 0 {
                entry.1 -= 1;
                return true;
            }
        }
        false
    }
}

fn deficit(req: &ProvisionRequest<'_>, alloc: &Allocation, w: usize) -> f64 {
    req.target(w) - alloc.served_qps(req.table, req.workloads, w)
}

/// The heterogeneity-oblivious scheduler: assigns *random* available server
/// types to each workload until its load is met.
#[derive(Debug)]
pub struct NhScheduler {
    rng: SimRng,
}

impl NhScheduler {
    /// Creates the scheduler with a seed (allocation is randomized).
    pub fn new(seed: u64) -> Self {
        NhScheduler {
            rng: SimRng::seed_from(seed),
        }
    }
}

impl Provisioner for NhScheduler {
    fn name(&self) -> &'static str {
        "NH"
    }

    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError> {
        let mut pool = CapacityPool::new(req);
        let mut alloc = Allocation::new();
        for (w, &model) in req.workloads.iter().enumerate() {
            while deficit(req, &alloc, w) > 0.0 {
                // Pick uniformly over the remaining *servers* (so plentiful
                // commodity types dominate, as in a truly random assignment).
                let total: u32 = ServerType::ALL
                    .iter()
                    .filter(|&&s| req.table.get(model, s).is_some())
                    .map(|&s| pool.available(s))
                    .sum();
                if total == 0 {
                    return Err(ProvisionError::InsufficientCapacity { workload: model });
                }
                let mut pick_idx = self.rng.index(total as usize) as u32;
                let mut picked = None;
                for &s in ServerType::ALL.iter() {
                    if req.table.get(model, s).is_none() {
                        continue;
                    }
                    let avail = pool.available(s);
                    if pick_idx < avail {
                        picked = Some(s);
                        break;
                    }
                    pick_idx -= avail;
                }
                let pick = picked.expect("total > 0 guarantees a pick");
                pool.take(pick);
                alloc.add(pick, w, 1);
            }
        }
        Ok(alloc)
    }
}

/// The heterogeneity-aware greedy scheduler of \[8\], \[9\]: each step gives one
/// best-ranked available server to a randomly-chosen unmet workload —
/// faithful to the paper's observation that greedy "randomly divides the
/// highest-ranked servers" among competing workloads.
#[derive(Debug)]
pub struct GreedyScheduler {
    rng: SimRng,
    metric: RankMetric,
}

impl GreedyScheduler {
    /// Creates the scheduler ranking by `metric`.
    pub fn new(seed: u64, metric: RankMetric) -> Self {
        GreedyScheduler {
            rng: SimRng::seed_from(seed),
            metric,
        }
    }
}

impl Provisioner for GreedyScheduler {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError> {
        let mut pool = CapacityPool::new(req);
        let mut alloc = Allocation::new();
        loop {
            let unmet: Vec<usize> = (0..req.workloads.len())
                .filter(|&w| deficit(req, &alloc, w) > 0.0)
                .collect();
            if unmet.is_empty() {
                return Ok(alloc);
            }
            let w = unmet[self.rng.index(unmet.len())];
            let model = req.workloads[w];
            let best = req
                .table
                .ranked_servers(model, self.metric)
                .into_iter()
                .find(|&(s, _)| pool.available(s) > 0);
            match best {
                Some((s, _)) => {
                    pool.take(s);
                    alloc.add(s, w, 1);
                }
                None => {
                    return Err(ProvisionError::InsufficientCapacity { workload: model });
                }
            }
        }
    }
}

/// §III-C's priority-aware scheduler: each step allocates one server to the
/// unmet workload with the largest *marginal efficiency gain* from its best
/// available type (so contended accelerators go where they help most).
#[derive(Debug)]
pub struct PriorityScheduler {
    metric: RankMetric,
}

impl PriorityScheduler {
    /// Creates the scheduler ranking by `metric`.
    pub fn new(metric: RankMetric) -> Self {
        PriorityScheduler { metric }
    }
}

impl Provisioner for PriorityScheduler {
    fn name(&self) -> &'static str {
        "Priority"
    }

    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError> {
        let mut pool = CapacityPool::new(req);
        let mut alloc = Allocation::new();
        loop {
            // For each unmet workload: its best available type and the gain
            // over its next-best alternative.
            let mut best_pick: Option<(usize, ServerType, f64)> = None;
            let mut any_unmet = None;
            for (w, &model) in req.workloads.iter().enumerate() {
                if deficit(req, &alloc, w) <= 0.0 {
                    continue;
                }
                any_unmet = Some(model);
                let ranked: Vec<(ServerType, f64)> = req
                    .table
                    .ranked_servers(model, self.metric)
                    .into_iter()
                    .filter(|&(s, _)| pool.available(s) > 0)
                    .collect();
                let Some(&(first, first_score)) = ranked.first() else {
                    return Err(ProvisionError::InsufficientCapacity { workload: model });
                };
                let second_score = ranked.get(1).map_or(0.0, |&(_, sc)| sc);
                let gain = first_score - second_score;
                if best_pick.as_ref().map_or(true, |&(_, _, g)| gain > g) {
                    best_pick = Some((w, first, gain));
                }
            }
            match (best_pick, any_unmet) {
                (Some((w, s, _)), _) => {
                    pool.take(s);
                    alloc.add(s, w, 1);
                }
                (None, None) => return Ok(alloc),
                (None, Some(model)) => {
                    return Err(ProvisionError::InsufficientCapacity { workload: model })
                }
            }
        }
    }
}

/// Controls for the co-location bin-packer.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocationOptions {
    /// Hard cap on tenants sharing one server.
    pub max_tenants_per_server: u32,
    /// Tolerated tail-latency inflation at the profiled operating point: a
    /// tenant may join a `k`-tenant server only while
    /// `colocation_derate(k, 1.0) <= headroom` (the packer plans against
    /// worst-case memory intensity). Below 1.0 the SLA is infeasible even
    /// dedicated.
    pub sla_headroom: f64,
    /// Per-workload overrides of `sla_headroom`, index-aligned with the
    /// request's workload list (missing indices use the global value).
    pub per_workload_headroom: Vec<f64>,
    /// Server ranking metric used when picking types.
    pub metric: RankMetric,
}

impl Default for ColocationOptions {
    fn default() -> Self {
        ColocationOptions {
            max_tenants_per_server: 4,
            sla_headroom: 1.25,
            per_workload_headroom: Vec::new(),
            metric: RankMetric::QpsPerWatt,
        }
    }
}

impl ColocationOptions {
    fn headroom(&self, w: usize) -> f64 {
        self.per_workload_headroom
            .get(w)
            .copied()
            .unwrap_or(self.sla_headroom)
    }
}

/// The co-location-aware allocation policy: greedy bin-packing of tenant
/// shares onto shared servers.
///
/// Full dedicated servers are provisioned first (a tenant that fills a
/// whole server gains nothing from sharing), then the per-workload
/// remainders — the stranded capacity of dedicated provisioning — are
/// packed onto shared servers, largest first. A remainder joins an open
/// server only if every tenant on it (including the newcomer) tolerates the
/// higher interference derating under its SLA headroom and the derated
/// shares still fit; otherwise it falls back to a dedicated server.
#[derive(Debug, Clone, Default)]
pub struct ColocationScheduler {
    /// Packing controls.
    pub opts: ColocationOptions,
}

impl ColocationScheduler {
    /// Creates the scheduler with the given options.
    pub fn new(opts: ColocationOptions) -> Self {
        ColocationScheduler { opts }
    }

    /// Best-ranked server type for `model` with capacity left in `pool`.
    fn best_available(
        &self,
        req: &ProvisionRequest<'_>,
        pool: &CapacityPool,
        w: usize,
    ) -> Result<(ServerType, f64), ProvisionError> {
        let model = req.workloads[w];
        let ranked = req.table.ranked_servers(model, self.opts.metric);
        if ranked.is_empty() {
            return Err(ProvisionError::NoServerFor { workload: model });
        }
        ranked
            .into_iter()
            .filter_map(|(s, _)| {
                let qps = req.table.get(model, s).map(|e| e.qps.value())?;
                (qps > 0.0 && pool.available(s) > 0).then_some((s, qps))
            })
            .next()
            .ok_or(ProvisionError::InsufficientCapacity { workload: model })
    }

    /// Computes a multi-tenant allocation for the request.
    ///
    /// # Errors
    ///
    /// [`ProvisionError::SlaInfeasible`] when a workload's headroom is below
    /// 1.0 (it cannot meet its SLA even dedicated),
    /// [`ProvisionError::NoServerFor`] when the table has no entry for a
    /// workload, and [`ProvisionError::InsufficientCapacity`] when the fleet
    /// runs out of servers.
    pub fn provision_colocated(
        &self,
        req: &ProvisionRequest<'_>,
    ) -> Result<ColocatedAllocation, ProvisionError> {
        for (w, &model) in req.workloads.iter().enumerate() {
            if self.opts.headroom(w) < 1.0 {
                return Err(ProvisionError::SlaInfeasible { workload: model });
            }
            if req.table.ranked_servers(model, self.opts.metric).is_empty() {
                return Err(ProvisionError::NoServerFor { workload: model });
            }
        }

        let mut pool = CapacityPool::new(req);
        let mut servers: Vec<SharedServer> = Vec::new();
        let mut remainders: Vec<(usize, f64)> = Vec::new();

        // Pass 1: dedicated full servers, best-ranked type first.
        for (w, _) in req.workloads.iter().enumerate() {
            let mut remaining = req.target(w);
            while remaining > 1e-9 {
                let (stype, qps) = self.best_available(req, &pool, w)?;
                if remaining + 1e-9 < qps {
                    break; // less than one server's worth left
                }
                pool.take(stype);
                servers.push(SharedServer {
                    stype,
                    tenants: vec![TenantShare {
                        workload: w,
                        share: 1.0,
                        qps,
                    }],
                });
                remaining -= qps;
            }
            if remaining > 1e-9 {
                remainders.push((w, remaining));
            }
        }

        // Pass 2: pack the remainders — dedicated provisioning's stranded
        // capacity — onto shared servers, largest demand first.
        remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite demands"));
        let mut bins: Vec<SharedServer> = Vec::new();
        for (w, demand) in remainders {
            let model = req.workloads[w];
            let mut placed = false;
            for bin in bins.iter_mut() {
                let k_new = bin.tenant_count() + 1;
                if k_new > self.opts.max_tenants_per_server {
                    continue;
                }
                // Plan against the worst case (co-runners saturating the
                // memory channels): the packer cannot know the realized
                // intensity ahead of time, and an optimistic bound would
                // let a newcomer break an incumbent's SLA under load.
                let derate = colocation_derate(k_new, 1.0);
                // Every tenant on the server must tolerate the higher
                // interference level — else the newcomer would break an
                // incumbent's SLA.
                if derate > self.opts.headroom(w)
                    || bin
                        .tenants
                        .iter()
                        .any(|t| derate > self.opts.headroom(t.workload))
                {
                    continue;
                }
                let Some(e) = req.table.get(model, bin.stype) else {
                    continue;
                };
                if e.qps.value() <= 0.0 {
                    continue;
                }
                let mut load = demand * derate / e.qps.value();
                for t in &bin.tenants {
                    let et = req
                        .table
                        .get(req.workloads[t.workload], bin.stype)
                        .expect("placed tenants have table entries");
                    load += t.qps * derate / et.qps.value();
                }
                if load > 1.0 + 1e-9 {
                    continue;
                }
                // Commit: add the tenant and re-derate every share.
                bin.tenants.push(TenantShare {
                    workload: w,
                    share: 0.0,
                    qps: demand,
                });
                for t in bin.tenants.iter_mut() {
                    let et = req
                        .table
                        .get(req.workloads[t.workload], bin.stype)
                        .expect("placed tenants have table entries");
                    t.share = t.qps * derate / et.qps.value();
                }
                placed = true;
                break;
            }
            if placed {
                continue;
            }
            // No bin fits: open a new server. The best *available* type may
            // be smaller than the one Pass 1 sized the remainder against,
            // so keep buying full dedicated servers until the rest fits a
            // single one; the final slice opens a bin future remainders may
            // join (or, for an SLA-tight tenant, it stays dedicated).
            let mut demand = demand;
            loop {
                let (stype, qps) = self.best_available(req, &pool, w)?;
                pool.take(stype);
                if demand + 1e-9 >= qps {
                    servers.push(SharedServer {
                        stype,
                        tenants: vec![TenantShare {
                            workload: w,
                            share: 1.0,
                            qps,
                        }],
                    });
                    demand -= qps;
                    if demand <= 1e-9 {
                        break;
                    }
                } else {
                    bins.push(SharedServer {
                        stype,
                        tenants: vec![TenantShare {
                            workload: w,
                            share: demand / qps,
                            qps: demand,
                        }],
                    });
                    break;
                }
            }
        }
        servers.extend(bins);
        Ok(ColocatedAllocation { servers })
    }
}

/// LP/ILP engine for [`HerculesScheduler`].
///
/// It has one variant. The paper solves the relaxation of Eq. (1)–(3) with
/// an interior-point solver \[12\], whose fractional point must still be
/// rounded to server counts; branch and bound returns the integral optimum
/// itself, so a rounded relaxation can match it but never beat it. The
/// enum stays so that callers, the repository benchmark among them, keep
/// naming the solver they rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Warm-started branch and bound over the presolved simplex relaxation,
    /// seeded with the rounding heuristic's allocation. The result is the
    /// exact integral optimum whenever the tree is exhausted, which every
    /// Day-D2 interval of the paper's setup does well inside the node cap;
    /// at the cap the scheduler returns the best allocation found so far,
    /// which is never worse than the heuristic's.
    BranchAndBound,
}

/// Branch-and-bound nodes one provisioning call may explore. The largest
/// Day-D2 tree of the paper's setup needs about 24k nodes. Programs of its
/// size take 2–5 µs per node on a 2-vCPU x86-64 host, so the cap stops a
/// pathological call after about half a second.
const NODE_CAP: usize = 100_000;

/// The error for a program with no feasible allocation: it names the first
/// workload whose target exceeds what the whole fleet could serve it alone,
/// or workload 0 when every workload fits on its own and only their joint
/// demand does not.
fn capacity_error(req: &ProvisionRequest<'_>) -> ProvisionError {
    let alone = |w: usize| -> f64 {
        req.fleet
            .iter()
            .filter_map(|(s, cap)| {
                req.table
                    .get(req.workloads[w], s)
                    .map(|e| e.qps.value() * f64::from(cap))
            })
            .sum()
    };
    let w = (0..req.workloads.len())
        .find(|&w| req.target(w) > alone(w))
        .unwrap_or(0);
    ProvisionError::InsufficientCapacity {
        workload: req.workloads[w],
    }
}

/// The Hercules provisioner: minimizes total provisioned power subject to
/// per-workload load satisfaction and per-type capacity (Eq. 1–3).
///
/// When no allocation meets every target, provisioning fails with
/// [`ProvisionError::InsufficientCapacity`] naming the first workload whose
/// target exceeds what the whole fleet could serve it alone; only a joint
/// shortfall, where every workload fits on its own, names workload 0.
#[derive(Debug)]
#[non_exhaustive]
pub struct HerculesScheduler;

impl HerculesScheduler {
    /// Creates the scheduler. [`SolverChoice`] has one variant, so the
    /// scheduler keeps nothing of it.
    pub fn new(_solver: SolverChoice) -> Self {
        HerculesScheduler
    }

    /// Builds the Eq. (1)–(3) program. Variables are the pairs `(h, m)`
    /// with a feasible efficiency entry, in a fixed order.
    fn build_lp(
        req: &ProvisionRequest<'_>,
    ) -> Result<(LinearProgram, Vec<(ServerType, usize)>), ProvisionError> {
        let mut vars: Vec<(ServerType, usize)> = Vec::new();
        for (w, &model) in req.workloads.iter().enumerate() {
            let mut any = false;
            for (stype, _) in req.fleet.iter() {
                if req.table.get(model, stype).is_some() {
                    vars.push((stype, w));
                    any = true;
                }
            }
            if !any {
                return Err(ProvisionError::NoServerFor { workload: model });
            }
        }
        let cost: Vec<f64> = vars
            .iter()
            .map(|&(s, w)| {
                req.table
                    .get(req.workloads[w], s)
                    .expect("vars are feasible pairs")
                    .power
                    .value()
            })
            .collect();
        let n = cost.len();
        let mut lp = LinearProgram::minimize(cost);
        // Eq. (2): per-workload throughput >= load x (1 + R).
        for (w, _) in req.workloads.iter().enumerate() {
            let mut row = vec![0.0; n];
            for (j, &(s, wj)) in vars.iter().enumerate() {
                if wj == w {
                    row[j] = req
                        .table
                        .get(req.workloads[w], s)
                        .expect("feasible pair")
                        .qps
                        .value();
                }
            }
            lp.constrain(row, Relation::Ge, req.target(w));
        }
        // Eq. (3): per-type activation <= availability.
        for (stype, cap) in req.fleet.iter() {
            let mut row = vec![0.0; n];
            let mut used = false;
            for (j, &(s, _)) in vars.iter().enumerate() {
                if s == stype {
                    row[j] = 1.0;
                    used = true;
                }
            }
            if used {
                lp.constrain(row, Relation::Le, cap as f64);
            }
        }
        Ok((lp, vars))
    }

    /// The program's point for `alloc`, in the order of `vars`.
    fn point_of(alloc: &Allocation, vars: &[(ServerType, usize)]) -> Vec<f64> {
        vars.iter()
            .map(|&(s, w)| f64::from(alloc.count(s, w)))
            .collect()
    }

    fn allocation_from(x: &[f64], vars: &[(ServerType, usize)]) -> Allocation {
        let mut alloc = Allocation::new();
        for (j, &(s, w)) in vars.iter().enumerate() {
            let n = x[j].round().max(0.0) as u32;
            alloc.add(s, w, n);
        }
        alloc
    }

    /// Turns a fractional relaxation into a feasible integral allocation:
    /// floor the relaxation (clamping to capacity), greedily fill remaining
    /// deficits with the most power-efficient available types, then trim
    /// overshoot.
    fn round_and_repair(
        req: &ProvisionRequest<'_>,
        x: &[f64],
        vars: &[(ServerType, usize)],
    ) -> Result<Allocation, ProvisionError> {
        let mut counts: Vec<u32> = x.iter().map(|&v| v.max(0.0).floor() as u32).collect();

        let build = |counts: &[u32]| {
            let mut a = Allocation::new();
            for (j, &(s, w)) in vars.iter().enumerate() {
                a.add(s, w, counts[j]);
            }
            a
        };

        // Flooring cannot exceed capacity unless the relaxation itself did
        // (it can, marginally, through solver tolerance): clamp per type.
        for (stype, cap) in req.fleet.iter() {
            loop {
                let used: u32 = vars
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(s, _))| s == stype)
                    .map(|(j, _)| counts[j])
                    .sum();
                if used <= cap {
                    break;
                }
                let j = vars
                    .iter()
                    .enumerate()
                    .filter(|&(j, &(s, _))| s == stype && counts[j] > 0)
                    .map(|(j, _)| j)
                    .next()
                    .expect("used > 0 implies a positive count");
                counts[j] -= 1;
            }
        }

        // Greedy fill: cover each workload's remaining deficit with the
        // lowest watts-per-QPS available type.
        for (w, &model) in req.workloads.iter().enumerate() {
            loop {
                let alloc = build(&counts);
                let short = req.target(w) - alloc.served_qps(req.table, req.workloads, w);
                if short <= 1e-9 {
                    break;
                }
                let mut best: Option<(usize, f64)> = None;
                for (j, &(s, wj)) in vars.iter().enumerate() {
                    if wj != w {
                        continue;
                    }
                    let used = alloc.activated_of_type(s);
                    if used >= req.fleet.count(s) {
                        continue;
                    }
                    let e = req.table.get(model, s).expect("feasible pair");
                    let watts_per_qps = e.power.value() / e.qps.value().max(1e-9);
                    if best.as_ref().map_or(true, |&(_, b)| watts_per_qps < b) {
                        best = Some((j, watts_per_qps));
                    }
                }
                match best {
                    Some((j, _)) => counts[j] += 1,
                    None => return Err(capacity_error(req)),
                }
            }
        }

        // Trim: drop any server whose removal keeps its workload satisfied
        // (undo ceil overshoot), most power-hungry first.
        let mut order: Vec<usize> = (0..vars.len()).collect();
        order.sort_by(|&a, &b| {
            let pa = req
                .table
                .get(req.workloads[vars[a].1], vars[a].0)
                .expect("feasible")
                .power;
            let pb = req
                .table
                .get(req.workloads[vars[b].1], vars[b].0)
                .expect("feasible")
                .power;
            pb.partial_cmp(&pa).expect("finite power")
        });
        loop {
            let alloc = build(&counts);
            let mut trimmed = false;
            for &j in &order {
                if counts[j] == 0 {
                    continue;
                }
                let (s, w) = vars[j];
                let qps = req
                    .table
                    .get(req.workloads[w], s)
                    .expect("feasible pair")
                    .qps
                    .value();
                let slack = alloc.served_qps(req.table, req.workloads, w) - req.target(w);
                if slack - qps >= -1e-9 {
                    counts[j] -= 1;
                    trimmed = true;
                    break;
                }
            }
            if !trimmed {
                break;
            }
        }

        let alloc = build(&counts);
        if alloc.satisfies(req) {
            Ok(alloc)
        } else {
            Err(capacity_error(req))
        }
    }
}

impl Provisioner for HerculesScheduler {
    fn name(&self) -> &'static str {
        "Hercules"
    }

    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError> {
        let (lp, vars) = Self::build_lp(req)?;
        // Seed branch and bound with the rounding heuristic: its
        // allocation is the first incumbent, which prunes the tree from
        // the root and is the answer if nothing beats it.
        let relax = solve_simplex(&lp);
        if relax.status == LpStatus::Infeasible {
            return Err(capacity_error(req));
        }
        let incumbent = if relax.status == LpStatus::Optimal {
            Self::round_and_repair(req, &relax.x, &vars)
                .ok()
                .map(|a| Self::point_of(&a, &vars))
        } else {
            None
        };
        let opts = IlpOptions {
            max_nodes: NODE_CAP,
            incumbent,
        };
        let sol = solve_ilp(&lp, &opts);
        match sol.status {
            LpStatus::Infeasible => Err(capacity_error(req)),
            _ if sol.x.is_empty() => Err(ProvisionError::SolverFailure),
            _ => Ok(Self::allocation_from(&sol.x, &vars)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{EfficiencyEntry, EfficiencyTable};
    use hercules_common::units::{Qps, Watts};
    use hercules_hw::server::Fleet;
    use hercules_model::zoo::ModelKind;
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

    /// The §III-C scenario: two workloads, CPU/NMP/GPU servers; NMP is the
    /// best for both but much better for RMC2.
    fn scenario() -> (Fleet, EfficiencyTable, Vec<ModelKind>) {
        let mut fleet = Fleet::empty();
        fleet
            .set(ServerType::T2, 70)
            .set(ServerType::T3, 15)
            .set(ServerType::T7, 5);
        let table = EfficiencyTable::from_entries([
            // RMC1: NMP 1.75x QPS/W over CPU; GPU between.
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 250.0)), // 4.0 QPS/W
            ((ModelKind::DlrmRmc1, ServerType::T3), entry(1960.0, 280.0)), // 7.0
            ((ModelKind::DlrmRmc1, ServerType::T7), entry(3000.0, 600.0)), // 5.0
            // RMC2: NMP 2.04x over CPU.
            ((ModelKind::DlrmRmc2, ServerType::T2), entry(700.0, 250.0)), // 2.8
            ((ModelKind::DlrmRmc2, ServerType::T3), entry(1600.0, 280.0)), // 5.7
            ((ModelKind::DlrmRmc2, ServerType::T7), entry(2100.0, 600.0)), // 3.5
        ]);
        (fleet, table, vec![ModelKind::DlrmRmc1, ModelKind::DlrmRmc2])
    }

    fn request<'a>(
        fleet: &'a Fleet,
        table: &'a EfficiencyTable,
        workloads: &'a [ModelKind],
        loads: &'a [f64],
    ) -> ProvisionRequest<'a> {
        ProvisionRequest {
            fleet,
            table,
            workloads,
            loads,
            over_provision: 0.0,
        }
    }

    #[test]
    fn all_policies_satisfy_feasible_loads() {
        let (fleet, table, workloads) = scenario();
        let loads = [20_000.0, 15_000.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let mut policies: Vec<Box<dyn Provisioner>> = vec![
            Box::new(NhScheduler::new(1)),
            Box::new(GreedyScheduler::new(2, RankMetric::QpsPerWatt)),
            Box::new(PriorityScheduler::new(RankMetric::QpsPerWatt)),
            Box::new(HerculesScheduler::new(SolverChoice::BranchAndBound)),
        ];
        for p in policies.iter_mut() {
            let alloc = p
                .provision(&req)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(alloc.satisfies(&req), "{} allocation invalid", p.name());
        }
    }

    #[test]
    fn hercules_dominates_greedy_and_nh() {
        // The paper's ordering: NH >= greedy >= Hercules on provisioned
        // power (§VI-C).
        let (fleet, table, workloads) = scenario();
        let loads = [30_000.0, 25_000.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let nh = NhScheduler::new(7).provision(&req).unwrap();
        let greedy = GreedyScheduler::new(7, RankMetric::QpsPerWatt)
            .provision(&req)
            .unwrap();
        let hercules = HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .unwrap();
        let p = |a: &Allocation| a.provisioned_power(&table, &workloads).value();
        assert!(
            p(&hercules) <= p(&greedy) + 1e-6,
            "hercules {} vs greedy {}",
            p(&hercules),
            p(&greedy)
        );
        assert!(
            p(&greedy) <= p(&nh) + 1e-6,
            "greedy {} vs nh {}",
            p(&greedy),
            p(&nh)
        );
    }

    #[test]
    fn hercules_priority_arbitration() {
        // Contended NMP servers should go to RMC2 (larger efficiency gap).
        // With loads sized so NMP can cover only one workload, Hercules
        // must give T3 predominantly to RMC2.
        let (fleet, table, workloads) = scenario();
        let loads = [15_000.0, 20_000.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let alloc = HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .unwrap();
        let t3_rmc2 = alloc.count(ServerType::T3, 1);
        let t3_rmc1 = alloc.count(ServerType::T3, 0);
        assert!(
            t3_rmc2 >= t3_rmc1,
            "NMP to RMC2: got RMC1={t3_rmc1}, RMC2={t3_rmc2}"
        );
    }

    #[test]
    fn infeasible_loads_error() {
        let (fleet, table, workloads) = scenario();
        let loads = [1e9, 1e9];
        let req = request(&fleet, &table, &workloads, &loads);
        for p in [
            &mut NhScheduler::new(1) as &mut dyn Provisioner,
            &mut GreedyScheduler::new(1, RankMetric::QpsPerWatt),
            &mut PriorityScheduler::new(RankMetric::QpsPerWatt),
            &mut HerculesScheduler::new(SolverChoice::BranchAndBound),
        ] {
            assert!(p.provision(&req).is_err(), "{} must fail", p.name());
        }
    }

    #[test]
    fn capacity_errors_name_the_workload_the_fleet_cannot_serve() {
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 10);
        let table = EfficiencyTable::from_entries([
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 250.0)),
            ((ModelKind::DlrmRmc2, ServerType::T2), entry(100.0, 250.0)),
        ]);
        let workloads = [ModelKind::DlrmRmc1, ModelKind::DlrmRmc2];
        let mut hercules = HerculesScheduler::new(SolverChoice::BranchAndBound);
        // RMC2 alone needs 50 servers of the 10.
        let loads = [500.0, 5000.0];
        let req = request(&fleet, &table, &workloads, &loads);
        assert_eq!(
            hercules.provision(&req).unwrap_err(),
            ProvisionError::InsufficientCapacity {
                workload: ModelKind::DlrmRmc2
            }
        );
        // Each fits alone (6 and 5 servers), not both: a joint shortfall
        // names workload 0.
        let loads = [6000.0, 500.0];
        let req = request(&fleet, &table, &workloads, &loads);
        assert_eq!(
            hercules.provision(&req).unwrap_err(),
            ProvisionError::InsufficientCapacity {
                workload: ModelKind::DlrmRmc1
            }
        );
    }

    #[test]
    fn workload_without_servers_errors() {
        let (fleet, table, _) = scenario();
        let workloads = [ModelKind::Dien];
        let loads = [100.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let err = HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .unwrap_err();
        assert_eq!(
            err,
            ProvisionError::NoServerFor {
                workload: ModelKind::Dien
            }
        );
    }

    #[test]
    fn colocation_consolidates_remainders() {
        // Off-peak: each workload needs well under one server. Dedicated
        // provisioning burns one server per workload; co-location packs
        // both remainders onto a single shared server.
        let (fleet, table, workloads) = scenario();
        let loads = [300.0, 260.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let sched = ColocationScheduler::default();
        let alloc = sched.provision_colocated(&req).unwrap();
        assert!(alloc.satisfies(&req), "targets met within share budgets");
        assert_eq!(alloc.shared_servers(), 1);
        let dedicated = HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .unwrap();
        assert!(
            alloc.activated_total() < dedicated.activated_total(),
            "co-location {} vs dedicated {}",
            alloc.activated_total(),
            dedicated.activated_total()
        );
    }

    #[test]
    fn colocation_full_servers_stay_dedicated() {
        let (fleet, table, workloads) = scenario();
        // RMC1 at many times any single server's capacity: most of its
        // allocation must be dedicated full servers.
        let loads = [9_000.0, 400.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let alloc = ColocationScheduler::default()
            .provision_colocated(&req)
            .unwrap();
        assert!(alloc.satisfies(&req));
        let full = alloc
            .servers
            .iter()
            .filter(|s| s.is_dedicated() && s.tenants[0].share == 1.0)
            .count();
        assert!(full >= 4, "expected several full servers, got {full}");
    }

    #[test]
    fn colocation_respects_sla_tight_tenant() {
        // Workload 0 tolerates no interference (headroom 1.0 < derate(2)):
        // it must never share a server, while workload 1 still may.
        let (fleet, table, workloads) = scenario();
        let loads = [500.0, 400.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let opts = ColocationOptions {
            per_workload_headroom: vec![1.0, 1.25],
            ..ColocationOptions::default()
        };
        let alloc = ColocationScheduler::new(opts)
            .provision_colocated(&req)
            .unwrap();
        assert!(alloc.satisfies(&req));
        for s in &alloc.servers {
            if s.tenants.iter().any(|t| t.workload == 0) {
                assert!(
                    s.is_dedicated(),
                    "SLA-tight workload 0 must stay dedicated: {s:?}"
                );
            }
        }
    }

    #[test]
    fn colocation_remainder_larger_than_fallback_type_buys_full_servers() {
        // Pass 1 sizes workload 0's remainder against T2 (its best type),
        // but workload 1 drains the last T2, so Pass 2 must fall back to
        // the smaller T3 — and buy several of them, never oversubscribing
        // a single server past share 1.0.
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 2).set(ServerType::T3, 5);
        let table = EfficiencyTable::from_entries([
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 250.0)),
            ((ModelKind::DlrmRmc1, ServerType::T3), entry(400.0, 280.0)),
            ((ModelKind::DlrmRmc2, ServerType::T2), entry(1000.0, 250.0)),
        ]);
        let workloads = [ModelKind::DlrmRmc1, ModelKind::DlrmRmc2];
        let loads = [1900.0, 1000.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let alloc = ColocationScheduler::default()
            .provision_colocated(&req)
            .unwrap();
        assert!(alloc.satisfies(&req), "allocation must be feasible");
        for s in &alloc.servers {
            assert!(
                s.load_factor() <= 1.0 + 1e-9,
                "oversubscribed server: {s:?}"
            );
        }
    }

    #[test]
    fn colocation_headroom_below_one_is_sla_infeasible() {
        let (fleet, table, workloads) = scenario();
        let loads = [100.0, 100.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let opts = ColocationOptions {
            sla_headroom: 0.9,
            ..ColocationOptions::default()
        };
        let err = ColocationScheduler::new(opts)
            .provision_colocated(&req)
            .unwrap_err();
        assert_eq!(
            err,
            ProvisionError::SlaInfeasible {
                workload: workloads[0]
            }
        );
    }

    #[test]
    fn colocation_errors_are_structured() {
        let (fleet, table, _) = scenario();
        // No table entry at all: NoServerFor.
        let missing = [ModelKind::Dien];
        let loads = [100.0];
        let req = request(&fleet, &table, &missing, &loads);
        assert_eq!(
            ColocationScheduler::default()
                .provision_colocated(&req)
                .unwrap_err(),
            ProvisionError::NoServerFor {
                workload: missing[0]
            }
        );
        // Fleet exhausted: InsufficientCapacity.
        let (_, table, workloads) = scenario();
        let loads = [1e9, 1e9];
        let req = request(&fleet, &table, &workloads, &loads);
        assert!(matches!(
            ColocationScheduler::default()
                .provision_colocated(&req)
                .unwrap_err(),
            ProvisionError::InsufficientCapacity { .. }
        ));
    }

    #[test]
    fn zero_load_zero_allocation() {
        let (fleet, table, workloads) = scenario();
        let loads = [0.0, 0.0];
        let req = request(&fleet, &table, &workloads, &loads);
        let alloc = HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .unwrap();
        assert_eq!(alloc.activated_total(), 0);
    }
}
