//! Online serving: time-stepped cluster provisioning against diurnal loads
//! (paper §IV-C, Fig. 16/17).
//!
//! Every interval (tens of minutes, amortizing the tens-of-seconds workload
//! setup time) the cluster manager re-solves the allocation for the current
//! loads plus the over-provision headroom `R`, which is estimated from the
//! history of load increments over one interval.

use hercules_common::stats::TimeSeries;
use hercules_hw::server::{Fleet, ServerType};
use hercules_model::zoo::ModelKind;
use hercules_workload::diurnal::DiurnalPattern;
use hercules_workload::evolution::EvolutionSchedule;

use crate::cluster::policies::ColocationScheduler;
use crate::cluster::{
    Allocation, ColocatedAllocation, ProvisionError, ProvisionRequest, Provisioner, SharedServer,
    TenantShare,
};
use crate::profiler::EfficiencyTable;

/// One workload's load trace over the serving horizon.
#[derive(Debug, Clone)]
pub struct WorkloadTrace {
    /// The model being served.
    pub model: ModelKind,
    /// `(seconds, qps)` samples at the provisioning interval.
    pub load: TimeSeries,
}

/// Estimates the over-provision rate `R` from load history: the largest
/// relative one-interval load increase across all traces (paper: "R is
/// estimated by profiling history loads changes during the length of
/// time-interval").
pub fn estimate_over_provision(traces: &[WorkloadTrace]) -> f64 {
    let mut r: f64 = 0.0;
    for t in traces {
        let pts = t.load.points();
        for pair in pts.windows(2) {
            let (prev, next) = (pair[0].1, pair[1].1);
            if prev > 0.0 && next > prev {
                r = r.max((next - prev) / prev);
            }
        }
    }
    r
}

/// Which load signal each interval's provisioning request uses.
///
/// The paper's cluster manager provisions against the *offered* load
/// forecast for the interval; a reactive manager only has the load it
/// *observed* over the previous interval. The gap between the two is the
/// cost of reacting late on a rising diurnal edge (covered by the
/// over-provision headroom `R`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProvisionSource {
    /// Provision interval `i` against trace point `i` (the forecast-led
    /// default; [`run_online`] is exactly this path).
    #[default]
    Offered,
    /// Provision interval `i` against trace point `i - 1` (the load the
    /// manager had actually observed when it re-solved). Interval 0 has no
    /// history and uses point 0.
    Observed,
}

impl ProvisionSource {
    /// The trace index interval `i` provisions against.
    fn index(self, i: usize) -> usize {
        match self {
            ProvisionSource::Offered => i,
            ProvisionSource::Observed => i.saturating_sub(1),
        }
    }
}

/// Outcome of one provisioning interval.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// Interval start, seconds.
    pub t_secs: f64,
    /// The allocation chosen. When provisioning failed, the whole fleet:
    /// each server type booked to its most power-hungry profiled workload
    /// (the lowest index on ties; workload 0 when none is profiled on that
    /// type).
    pub allocation: Allocation,
    /// Provisioned power of the allocation.
    pub power_w: f64,
    /// Activated servers of the allocation.
    pub activated: u32,
    /// Whether the policy satisfied the loads this interval.
    pub feasible: bool,
    /// Why provisioning failed when it did (`None` on feasible intervals):
    /// the structured reason — insufficient capacity vs. SLA-infeasible vs.
    /// no feasible server — instead of a bare fallback allocation.
    pub error: Option<ProvisionError>,
}

/// A full online-serving run.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// Policy name.
    pub policy: &'static str,
    /// Per-interval outcomes.
    pub intervals: Vec<IntervalOutcome>,
}

impl ClusterRunReport {
    /// Provisioned power as a time series.
    pub fn power_series(&self) -> TimeSeries {
        self.intervals
            .iter()
            .map(|i| (i.t_secs, i.power_w))
            .collect()
    }

    /// Activated servers as a time series.
    pub fn activated_series(&self) -> TimeSeries {
        self.intervals
            .iter()
            .map(|i| (i.t_secs, i.activated as f64))
            .collect()
    }

    /// Peak provisioned power (kW-scale numbers in the paper's Fig. 17d).
    pub fn peak_power(&self) -> f64 {
        self.power_series().peak().unwrap_or(0.0)
    }

    /// Mean provisioned power.
    pub fn avg_power(&self) -> f64 {
        self.power_series().mean().unwrap_or(0.0)
    }

    /// Peak activated servers (the paper's cluster-capacity metric).
    pub fn peak_activated(&self) -> f64 {
        self.activated_series().peak().unwrap_or(0.0)
    }

    /// Mean activated servers.
    pub fn avg_activated(&self) -> f64 {
        self.activated_series().mean().unwrap_or(0.0)
    }

    /// Intervals the policy failed to satisfy.
    pub fn infeasible_intervals(&self) -> usize {
        self.intervals.iter().filter(|i| !i.feasible).count()
    }

    /// Per-type activation at interval `idx` (for Fig. 17a–c stacked plots).
    pub fn activated_by_type(&self, idx: usize) -> Vec<(ServerType, u32)> {
        ServerType::ALL
            .iter()
            .map(|&s| (s, self.intervals[idx].allocation.activated_of_type(s)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// Runs `policy` over the traces (all traces must share the same time
/// grid).
///
/// `over_provision`: `None` estimates `R` from the traces.
///
/// # Panics
///
/// Panics if traces are empty or their time grids disagree.
pub fn run_online(
    fleet: &Fleet,
    table: &EfficiencyTable,
    traces: &[WorkloadTrace],
    policy: &mut dyn Provisioner,
    over_provision: Option<f64>,
) -> ClusterRunReport {
    run_online_sourced(
        fleet,
        table,
        traces,
        policy,
        over_provision,
        ProvisionSource::Offered,
    )
}

/// Like [`run_online`], but provisioning against the chosen load signal
/// ([`run_online`] is this with [`ProvisionSource::Offered`]).
///
/// # Panics
///
/// Panics if traces are empty or their time grids disagree.
pub fn run_online_sourced(
    fleet: &Fleet,
    table: &EfficiencyTable,
    traces: &[WorkloadTrace],
    policy: &mut dyn Provisioner,
    over_provision: Option<f64>,
    source: ProvisionSource,
) -> ClusterRunReport {
    let (r, workloads) = check_traces(traces, over_provision);
    let intervals = (0..traces[0].load.len())
        .map(|i| {
            let loads = loads_at(traces, source.index(i));
            let req = ProvisionRequest {
                fleet,
                table,
                workloads: &workloads,
                loads: &loads,
                over_provision: r,
            };
            let (allocation, error) = match policy.provision(&req) {
                Ok(allocation) => (allocation, None),
                // Best effort: record the whole fleet as the fallback (the
                // paper's experiments avoid this regime), and keep the
                // structured failure reason alongside it.
                Err(e) => (whole_fleet(fleet, table, &workloads), Some(e)),
            };
            IntervalOutcome {
                t_secs: traces[0].load.points()[i].0,
                power_w: allocation.provisioned_power(table, &workloads).value(),
                activated: allocation.activated_total(),
                allocation,
                feasible: error.is_none(),
                error,
            }
        })
        .collect();
    ClusterRunReport {
        policy: policy.name(),
        intervals,
    }
}

/// Checks that `traces` share one time grid, and returns the over-provision
/// rate `R` (`over_provision`, or estimated from the traces) and the
/// workloads in trace order.
fn check_traces(traces: &[WorkloadTrace], over_provision: Option<f64>) -> (f64, Vec<ModelKind>) {
    assert!(!traces.is_empty(), "need at least one workload trace");
    let steps = traces[0].load.len();
    assert!(
        traces.iter().all(|t| t.load.len() == steps),
        "traces must share a time grid"
    );
    let r = over_provision.unwrap_or_else(|| estimate_over_provision(traces));
    (r, traces.iter().map(|t| t.model).collect())
}

/// Every trace's load at grid point `j`.
fn loads_at(traces: &[WorkloadTrace], j: usize) -> Vec<f64> {
    traces.iter().map(|t| t.load.points()[j].1).collect()
}

/// The allocation an infeasible interval records: the whole `fleet`, each
/// server type booked to its most power-hungry profiled workload (the
/// lowest index on ties; workload 0 when none is profiled on that type), so
/// its power and server count are the whole fleet's.
fn whole_fleet(fleet: &Fleet, table: &EfficiencyTable, workloads: &[ModelKind]) -> Allocation {
    let mut all = Allocation::new();
    for (stype, cap) in fleet.iter() {
        let power = |w: usize| table.get(workloads[w], stype).map(|e| e.power);
        let hungriest =
            (1..workloads.len()).fold(0, |b, w| if power(w) > power(b) { w } else { b });
        all.add(stype, hungriest, cap);
    }
    all
}

/// [`whole_fleet`] as a co-located allocation: every server dedicated to
/// its booked workload at that workload's profiled rate, so it prices and
/// counts as the whole fleet.
fn whole_fleet_dedicated(
    fleet: &Fleet,
    table: &EfficiencyTable,
    workloads: &[ModelKind],
) -> ColocatedAllocation {
    let mut servers = Vec::new();
    for ((stype, workload), n) in whole_fleet(fleet, table, workloads).iter() {
        let qps = table
            .get(workloads[workload], stype)
            .map_or(0.0, |e| e.qps.value());
        let server = SharedServer {
            stype,
            tenants: vec![TenantShare {
                workload,
                share: 1.0,
                qps,
            }],
        };
        servers.extend(std::iter::repeat(server).take(n as usize));
    }
    ColocatedAllocation { servers }
}

/// One interval of a co-located vs. dedicated provisioning comparison.
#[derive(Debug, Clone)]
pub struct ColocatedIntervalOutcome {
    /// Interval start, seconds.
    pub t_secs: f64,
    /// The multi-tenant allocation; when co-location failed, the whole
    /// fleet, each server dedicated to the workload [`run_online`] books
    /// it to in an infeasible interval.
    pub allocation: ColocatedAllocation,
    /// Servers activated by the co-location policy.
    pub colocated_servers: u32,
    /// Servers activated by the dedicated baseline policy at the same
    /// loads (the fleet total when the baseline failed).
    pub dedicated_servers: u32,
    /// Provisioned power of the co-located allocation, watts.
    pub colocated_power_w: f64,
    /// Provisioned power of the dedicated allocation, watts.
    pub dedicated_power_w: f64,
    /// Whether the co-location policy satisfied the loads this interval.
    pub feasible: bool,
    /// Whether the dedicated baseline satisfied the loads this interval
    /// (when `false`, `dedicated_servers` is the full-fleet fallback and
    /// the interval is excluded from the savings metrics).
    pub dedicated_feasible: bool,
    /// The co-location policy's structured failure reason, when any.
    pub error: Option<ProvisionError>,
}

impl ColocatedIntervalOutcome {
    /// Servers saved versus dedicated provisioning this interval.
    pub fn servers_saved(&self) -> i64 {
        self.dedicated_servers as i64 - self.colocated_servers as i64
    }
}

/// A diurnal co-location run: the co-location policy head-to-head against a
/// dedicated baseline on the same traces.
#[derive(Debug, Clone)]
pub struct ColocationRunReport {
    /// The dedicated baseline's policy name.
    pub dedicated_policy: &'static str,
    /// Per-interval outcomes.
    pub intervals: Vec<ColocatedIntervalOutcome>,
}

impl ColocationRunReport {
    /// Intervals where both policies were feasible — the only ones on which
    /// a server-count comparison is meaningful (an infeasible side reports
    /// the full-fleet fallback, not a real allocation).
    fn comparable(&self) -> impl Iterator<Item = &ColocatedIntervalOutcome> {
        self.intervals
            .iter()
            .filter(|i| i.feasible && i.dedicated_feasible)
    }

    /// Feasible intervals where co-location used strictly fewer servers
    /// than dedicated provisioning (the consolidation wins, typically the
    /// off-peak valley).
    pub fn consolidated_intervals(&self) -> usize {
        self.comparable()
            .filter(|i| i.colocated_servers < i.dedicated_servers)
            .count()
    }

    /// Largest per-interval server saving.
    pub fn max_servers_saved(&self) -> i64 {
        self.comparable()
            .map(|i| i.servers_saved())
            .max()
            .unwrap_or(0)
    }

    /// Total server-intervals saved over the run.
    pub fn server_intervals_saved(&self) -> i64 {
        self.comparable().map(|i| i.servers_saved()).sum()
    }

    /// Intervals the co-location policy failed to satisfy.
    pub fn infeasible_intervals(&self) -> usize {
        self.intervals.iter().filter(|i| !i.feasible).count()
    }
}

/// Runs the co-location policy over diurnal `traces`, side by side with a
/// `dedicated` baseline policy, so consolidation savings can be reported
/// per interval. The dedicated side is [`run_online`]'s run of that policy.
///
/// `over_provision`: `None` estimates `R` from the traces, as
/// [`run_online`] does.
///
/// # Panics
///
/// Panics if traces are empty or their time grids disagree.
pub fn run_online_colocated(
    fleet: &Fleet,
    table: &EfficiencyTable,
    traces: &[WorkloadTrace],
    scheduler: &ColocationScheduler,
    dedicated: &mut dyn Provisioner,
    over_provision: Option<f64>,
) -> ColocationRunReport {
    let (r, workloads) = check_traces(traces, over_provision);
    let baseline = run_online(fleet, table, traces, dedicated, Some(r));
    let fallback = whole_fleet_dedicated(fleet, table, &workloads);
    let intervals = baseline
        .intervals
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let loads = loads_at(traces, i);
            let req = ProvisionRequest {
                fleet,
                table,
                workloads: &workloads,
                loads: &loads,
                over_provision: r,
            };
            let (allocation, error) = match scheduler.provision_colocated(&req) {
                Ok(a) => (a, None),
                Err(e) => (fallback.clone(), Some(e)),
            };
            ColocatedIntervalOutcome {
                t_secs: d.t_secs,
                colocated_servers: allocation.activated_total(),
                colocated_power_w: allocation.provisioned_power(table, &workloads).value(),
                allocation,
                dedicated_servers: d.activated,
                dedicated_power_w: d.power_w,
                feasible: error.is_none(),
                dedicated_feasible: d.feasible,
                error,
            }
        })
        .collect();
    ColocationRunReport {
        dedicated_policy: baseline.policy,
        intervals,
    }
}

/// Builds the Fig. 16 model-evolution traces: at `day` into the evolution
/// `schedule`, each model receives its mix share of the aggregate diurnal
/// load.
pub fn evolution_traces(
    schedule: &EvolutionSchedule,
    day: f64,
    aggregate: &DiurnalPattern,
    interval_minutes: u32,
    seed: u64,
) -> Vec<WorkloadTrace> {
    let base = aggregate.sample(1, interval_minutes, 0.02, seed);
    schedule
        .mix_at(day)
        .into_iter()
        .filter(|&(_, share)| share > 0.0)
        .map(|(model, share)| WorkloadTrace {
            model,
            load: base.points().iter().map(|&(t, v)| (t, v * share)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::policies::{GreedyScheduler, HerculesScheduler, SolverChoice};
    use crate::profiler::{EfficiencyEntry, RankMetric};
    use hercules_common::units::{Qps, Watts};
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
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 250.0)),
            ((ModelKind::DlrmRmc1, ServerType::T3), entry(1960.0, 280.0)),
            ((ModelKind::DlrmRmc2, ServerType::T2), entry(700.0, 250.0)),
            ((ModelKind::DlrmRmc2, ServerType::T3), entry(1600.0, 280.0)),
        ])
    }

    fn traces() -> Vec<WorkloadTrace> {
        let a = DiurnalPattern::service_a(Qps(20_000.0));
        let b = DiurnalPattern::service_b(Qps(15_000.0));
        vec![
            WorkloadTrace {
                model: ModelKind::DlrmRmc1,
                load: a.sample(1, 60, 0.0, 1),
            },
            WorkloadTrace {
                model: ModelKind::DlrmRmc2,
                load: b.sample(1, 60, 0.0, 2),
            },
        ]
    }

    #[test]
    fn over_provision_estimate_positive_for_diurnal() {
        let r = estimate_over_provision(&traces());
        assert!(r > 0.0 && r < 0.5, "R = {r}");
    }

    #[test]
    fn online_run_tracks_diurnal_power() {
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 100).set(ServerType::T3, 15);
        let table = table();
        let tr = traces();
        let mut policy = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let report = run_online(&fleet, &table, &tr, &mut policy, None);
        assert_eq!(report.intervals.len(), 24);
        assert_eq!(report.infeasible_intervals(), 0);
        // Power should swing with the diurnal load.
        let peak = report.peak_power();
        let avg = report.avg_power();
        assert!(peak > avg, "peak {peak} vs avg {avg}");
        assert!(report.peak_activated() > report.avg_activated());
    }

    #[test]
    fn hercules_never_worse_than_greedy_online() {
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 100).set(ServerType::T3, 15);
        let table = table();
        let tr = traces();
        let mut greedy = GreedyScheduler::new(3, RankMetric::QpsPerWatt);
        let g = run_online(&fleet, &table, &tr, &mut greedy, Some(0.05));
        let mut hercules = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let h = run_online(&fleet, &table, &tr, &mut hercules, Some(0.05));
        assert!(h.peak_power() <= g.peak_power() + 1e-6);
        assert!(h.avg_power() <= g.avg_power() + 1e-6);
    }

    #[test]
    fn evolution_traces_shift_load() {
        let schedule = EvolutionSchedule::paper();
        let aggregate = DiurnalPattern::service_a(Qps(10_000.0));
        let early = evolution_traces(&schedule, 0.0, &aggregate, 60, 5);
        // Day 0: only old models receive load.
        assert!(early.iter().all(|t| matches!(
            t.model,
            ModelKind::DlrmRmc1 | ModelKind::DlrmRmc2 | ModelKind::DlrmRmc3
        )));
        let late = evolution_traces(&schedule, 10.0, &aggregate, 60, 5);
        assert!(late
            .iter()
            .all(|t| matches!(t.model, ModelKind::Din | ModelKind::Dien | ModelKind::MtWnd)));
        // Mid-cycle: all six, shares summing to the aggregate.
        let mid = evolution_traces(&schedule, 5.0, &aggregate, 60, 5);
        assert_eq!(mid.len(), 6);
        let total_at_0: f64 = mid.iter().map(|t| t.load.points()[0].1).sum();
        let agg_at_0 = {
            let base = aggregate.sample(1, 60, 0.02, 5);
            base.points()[0].1
        };
        assert!((total_at_0 - agg_at_0).abs() / agg_at_0 < 1e-9);
    }

    #[test]
    fn failure_injection_mid_day() {
        // Lose every NMP server for the middle third of the day: the
        // scheduler must fall back to CPU servers (more power). Intervals
        // are provisioned independently, so those intervals provision as
        // they do in a day on the outage fleet.
        let table = table();
        let tr = traces();
        let steps = tr[0].load.len();
        let mut outage = Fleet::empty();
        outage.set(ServerType::T2, 100);
        let mut policy = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let report = run_online(&outage, &table, &tr, &mut policy, Some(0.05));
        assert_eq!(
            report.infeasible_intervals(),
            0,
            "CPU fallback absorbs the loss"
        );
        // During the outage no T3 servers are activated.
        for i in steps / 3..2 * steps / 3 {
            assert_eq!(
                report.intervals[i]
                    .allocation
                    .activated_of_type(ServerType::T3),
                0
            );
        }
        // Power during the outage exceeds the same interval with NMP
        // restored (compare against the unfailed run).
        let mut policy2 = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let mut full_fleet = Fleet::empty();
        full_fleet.set(ServerType::T2, 100).set(ServerType::T3, 15);
        let healthy = run_online(&full_fleet, &table, &tr, &mut policy2, Some(0.05));
        let mid = steps / 2;
        assert!(
            report.intervals[mid].power_w >= healthy.intervals[mid].power_w,
            "outage interval should cost at least as much power"
        );
    }

    #[test]
    fn infeasible_intervals_carry_structured_errors() {
        // A one-server fleet cannot track the diurnal peak: the failing
        // intervals must name the reason, not just flag infeasibility.
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 1);
        let table = table();
        let tr = traces();
        let mut policy = GreedyScheduler::new(5, RankMetric::QpsPerWatt);
        let report = run_online(&fleet, &table, &tr, &mut policy, Some(0.05));
        assert!(report.infeasible_intervals() > 0);
        for i in &report.intervals {
            if i.feasible {
                assert!(i.error.is_none());
            } else {
                assert!(
                    matches!(i.error, Some(ProvisionError::InsufficientCapacity { .. })),
                    "expected a structured capacity error, got {:?}",
                    i.error
                );
            }
        }
    }

    #[test]
    fn colocated_run_consolidates_off_peak() {
        use crate::cluster::policies::{ColocationScheduler, SolverChoice};
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 100).set(ServerType::T3, 15);
        let table = table();
        // Light services: off-peak demand is a fraction of one server, so
        // dedicated provisioning strands most of each server's capacity.
        let a = DiurnalPattern::service_a(Qps(1_500.0));
        let b = DiurnalPattern::service_b(Qps(1_200.0));
        let tr = vec![
            WorkloadTrace {
                model: ModelKind::DlrmRmc1,
                load: a.sample(1, 60, 0.0, 1),
            },
            WorkloadTrace {
                model: ModelKind::DlrmRmc2,
                load: b.sample(1, 60, 0.0, 2),
            },
        ];
        let sched = ColocationScheduler::default();
        let mut dedicated = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let report = run_online_colocated(&fleet, &table, &tr, &sched, &mut dedicated, Some(0.05));
        assert_eq!(report.infeasible_intervals(), 0);
        assert!(
            report.consolidated_intervals() > 0,
            "co-location must beat dedicated on some interval"
        );
        assert!(report.max_servers_saved() >= 1);
        // Savings never go negative on feasible intervals for these loads.
        assert!(report.server_intervals_saved() > 0);
    }

    #[test]
    fn infeasible_intervals_price_the_whole_fleet_alike() {
        use crate::cluster::policies::ColocationScheduler;
        // Workload 0 has no T7 entry: booking the whole fleet to it must
        // not price the T7 at 0 W.
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 1).set(ServerType::T7, 1);
        let table = EfficiencyTable::from_entries([
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 250.0)),
            ((ModelKind::DlrmRmc2, ServerType::T2), entry(700.0, 250.0)),
            ((ModelKind::DlrmRmc2, ServerType::T7), entry(2100.0, 600.0)),
        ]);
        let flat = |model| WorkloadTrace {
            model,
            load: DiurnalPattern::service_a(Qps(1e6)).sample(1, 1440, 0.0, 1),
        };
        let tr = [flat(ModelKind::DlrmRmc1), flat(ModelKind::DlrmRmc2)];
        let mut policy = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let report = run_online(&fleet, &table, &tr, &mut policy, Some(0.0));
        let i = &report.intervals[0];
        assert!(!i.feasible);
        assert_eq!((i.activated, i.power_w), (2, 850.0));
        // The recorded allocation is the fleet it prices: each type booked
        // to its hungriest profiled workload.
        let workloads = [ModelKind::DlrmRmc1, ModelKind::DlrmRmc2];
        assert_eq!(
            i.allocation.provisioned_power(&table, &workloads).value(),
            850.0
        );
        let by_type: u32 = report.activated_by_type(0).iter().map(|&(_, n)| n).sum();
        assert_eq!(by_type, i.activated);
        let report = run_online_colocated(
            &fleet,
            &table,
            &tr,
            &ColocationScheduler::default(),
            &mut policy,
            Some(0.0),
        );
        let i = &report.intervals[0];
        assert!(!i.dedicated_feasible);
        assert_eq!((i.dedicated_servers, i.dedicated_power_w), (2, 850.0));
        // The co-located side falls back to the same fleet, and its
        // allocation prices as it is recorded.
        assert!(!i.feasible);
        assert_eq!((i.colocated_servers, i.colocated_power_w), (2, 850.0));
        assert_eq!(i.allocation.activated_total(), 2);
        assert_eq!(
            i.allocation.provisioned_power(&table, &workloads).value(),
            850.0
        );
    }

    #[test]
    fn report_by_type_breakdown() {
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 100).set(ServerType::T3, 15);
        let table = table();
        let tr = traces();
        let mut policy = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let report = run_online(&fleet, &table, &tr, &mut policy, Some(0.05));
        let by_type = report.activated_by_type(0);
        let total: u32 = by_type.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, report.intervals[0].activated);
    }
}
