//! Simulation metrics: latency-bounded throughput, tail latency, power, and
//! breakdowns (the paper's measured quantities, §V).

use hercules_common::stats::nearest_rank;
use hercules_common::units::{Joules, Qps, SimDuration, Watts};

use crate::config::SlaSpec;

/// The tail quantiles a [`SimReport`] carries. An SLA's percentile is
/// judged by the nearest of them ([`Tail::snap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The median, `SimReport::p50`.
    P50,
    /// `SimReport::p95`.
    P95,
    /// `SimReport::p99`.
    P99,
}

impl Tail {
    /// The reported tail `percentile` snaps to: the nearest of 0.5, 0.95
    /// and 0.99.
    pub fn snap(percentile: f64) -> Tail {
        if percentile <= 0.725 {
            Tail::P50
        } else if percentile <= 0.97 {
            Tail::P95
        } else {
            Tail::P99
        }
    }

    /// The quantile this tail reads.
    pub fn quantile(self) -> f64 {
        match self {
            Tail::P50 => 0.50,
            Tail::P95 => 0.95,
            Tail::P99 => 0.99,
        }
    }
}

impl SlaSpec {
    /// How many of `measured` latency samples may exceed the target while
    /// the snapped tail still meets it: the samples ranked above the
    /// tail's nearest rank. It never falls as `measured` grows, so a run
    /// with `measured` arrivals misses the SLA once more than this many of
    /// its completions exceed the target, however many of the rest
    /// complete.
    pub fn misses_allowed(&self, measured: u64) -> u64 {
        if measured == 0 {
            return 0;
        }
        let q = Tail::snap(self.percentile).quantile();
        measured - nearest_rank(q, measured as usize) as u64
    }
}

/// Mean attribution of end-to-end latency across pipeline phases
/// (paper Fig. 7: queuing / data loading / model inference).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Mean time waiting in queues/buffers, per query.
    pub queuing: SimDuration,
    /// Mean host-to-device loading time, per query.
    pub loading: SimDuration,
    /// Mean inference (service) time, per query.
    pub inference: SimDuration,
}

impl LatencyBreakdown {
    /// Fractions of the three phases, summing to 1 (zeros if all empty).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let q = self.queuing.as_secs_f64();
        let l = self.loading.as_secs_f64();
        let i = self.inference.as_secs_f64();
        let total = q + l + i;
        if total <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (q / total, l / total, i / total)
        }
    }
}

/// Everything a simulation run measures.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Offered arrival rate.
    pub offered: Qps,
    /// Completed-query throughput over the measurement window.
    pub achieved: Qps,
    /// Queries that arrived in the measurement window.
    pub measured_arrivals: u64,
    /// Of those, queries that completed before the horizon.
    pub completed: u64,
    /// All arrivals over the full horizon (including warm-up and drain).
    pub total_arrivals: u64,
    /// Of all arrivals, queries fully served by the horizon (a superset of
    /// `completed`, which is restricted to the measurement window).
    pub completed_total: u64,
    /// Queries still queued or in service when the horizon ended. The
    /// conservation law `completed_total + in_flight_at_horizon ==
    /// total_arrivals` must hold for every run.
    pub in_flight_at_horizon: u64,
    /// Mean end-to-end query latency.
    pub mean_latency: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 95th-percentile latency.
    pub p95: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Time-average server power.
    pub mean_power: Watts,
    /// Peak bucketed power (the provisioned-power budget `Power_{h,m}`).
    pub peak_power: Watts,
    /// Energy per completed query.
    pub energy_per_query: Joules,
    /// Mean fraction of CPU cores busy.
    pub cpu_activity: f64,
    /// Mean DRAM channel-bandwidth utilization.
    pub mem_activity: f64,
    /// Mean GPU utilization.
    pub gpu_activity: f64,
    /// Mean PCIe link utilization.
    pub pcie_activity: f64,
    /// Mean op-worker idle fraction in the host front stage (Fig. 5).
    pub front_idle_fraction: f64,
    /// Latency attribution.
    pub breakdown: LatencyBreakdown,
}

impl SimReport {
    /// The tail latency at `percentile` (supported: 0.5, 0.95, 0.99;
    /// other values snap to the nearest of those, [`Tail::snap`]).
    pub fn tail(&self, percentile: f64) -> SimDuration {
        match Tail::snap(percentile) {
            Tail::P50 => self.p50,
            Tail::P95 => self.p95,
            Tail::P99 => self.p99,
        }
    }

    /// Whether the run satisfies `sla`: the tail is within target *and* the
    /// server kept up with the offered load (no saturation).
    pub fn meets(&self, sla: &SlaSpec) -> bool {
        if self.measured_arrivals == 0 {
            return false;
        }
        let kept_up = self.completed as f64 >= 0.97 * self.measured_arrivals as f64;
        kept_up && self.tail(sla.percentile) <= sla.target
    }

    /// Energy efficiency in queries per second per watt (the paper's
    /// QPS-per-Watt classification metric).
    pub fn qps_per_watt(&self) -> f64 {
        if self.mean_power.value() <= 0.0 {
            0.0
        } else {
            self.achieved.value() / self.mean_power.value()
        }
    }
}

/// Outcome of a multi-tenant (co-located) simulation: one [`SimReport`] per
/// tenant plus the aggregate server view.
///
/// Per-tenant reports carry tenant-local arrival/completion/latency figures;
/// their power and activity fields mirror the *whole shared server* (a
/// tenant cannot dissipate a fraction of the socket on its own), and
/// `energy_per_query` divides server energy by the *aggregate* completion
/// count, so `energy_per_query * completed` summed across tenants recovers
/// the server's energy exactly. The aggregate report sums arrivals and
/// completions across tenants and draws percentiles from the merged latency
/// population.
#[derive(Debug, Clone)]
pub struct ColocationReport {
    /// Tenant-local reports, index-aligned with the config's tenant list.
    pub per_tenant: Vec<SimReport>,
    /// The whole-server view.
    pub aggregate: SimReport,
}

impl ColocationReport {
    /// Number of co-located tenants.
    pub fn tenants(&self) -> usize {
        self.per_tenant.len()
    }

    /// Sum of per-tenant completed counts (must equal
    /// `aggregate.completed`).
    pub fn total_completed(&self) -> u64 {
        self.per_tenant.iter().map(|r| r.completed).sum()
    }

    /// Whether every tenant meets its SLA (`slas` is index-aligned with
    /// the tenant list).
    ///
    /// # Panics
    ///
    /// Panics if `slas` and the tenant list have different lengths.
    pub fn all_meet(&self, slas: &[SlaSpec]) -> bool {
        assert_eq!(slas.len(), self.per_tenant.len(), "one SLA per tenant");
        self.per_tenant
            .iter()
            .zip(slas)
            .all(|(r, sla)| r.meets(sla))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            offered: Qps(1000.0),
            achieved: Qps(990.0),
            measured_arrivals: 1000,
            completed: 990,
            total_arrivals: 1200,
            completed_total: 1180,
            in_flight_at_horizon: 20,
            mean_latency: SimDuration::from_millis(8),
            p50: SimDuration::from_millis(6),
            p95: SimDuration::from_millis(18),
            p99: SimDuration::from_millis(30),
            mean_power: Watts(200.0),
            peak_power: Watts(260.0),
            energy_per_query: Joules(0.2),
            cpu_activity: 0.6,
            mem_activity: 0.4,
            gpu_activity: 0.0,
            pcie_activity: 0.0,
            front_idle_fraction: 0.3,
            breakdown: LatencyBreakdown {
                queuing: SimDuration::from_millis(2),
                loading: SimDuration::from_millis(1),
                inference: SimDuration::from_millis(5),
            },
        }
    }

    #[test]
    fn tail_snaps_to_percentiles() {
        let r = report();
        assert_eq!(r.tail(0.5), SimDuration::from_millis(6));
        assert_eq!(r.tail(0.95), SimDuration::from_millis(18));
        assert_eq!(r.tail(0.99), SimDuration::from_millis(30));
    }

    #[test]
    fn sla_checks_tail_and_saturation() {
        let r = report();
        assert!(r.meets(&SlaSpec::p95(SimDuration::from_millis(20))));
        assert!(!r.meets(&SlaSpec::p95(SimDuration::from_millis(10))));
        let mut saturated = report();
        saturated.completed = 900;
        assert!(!saturated.meets(&SlaSpec::p95(SimDuration::from_millis(20))));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let (q, l, i) = report().breakdown.fractions();
        assert!((q + l + i - 1.0).abs() < 1e-12);
        assert!((q - 0.25).abs() < 1e-12);
        let empty = LatencyBreakdown::default().fractions();
        assert_eq!(empty, (0.0, 0.0, 0.0));
    }

    #[test]
    fn qps_per_watt() {
        assert!((report().qps_per_watt() - 4.95).abs() < 1e-9);
    }

    #[test]
    fn colocation_report_sums_and_sla() {
        let a = report();
        let mut b = report();
        b.completed = 500;
        b.p95 = SimDuration::from_millis(25);
        let mut agg = report();
        agg.completed = a.completed + b.completed;
        let co = ColocationReport {
            per_tenant: vec![a, b],
            aggregate: agg,
        };
        assert_eq!(co.tenants(), 2);
        assert_eq!(co.total_completed(), co.aggregate.completed);
        let loose = SlaSpec::p95(SimDuration::from_millis(30));
        let tight = SlaSpec::p95(SimDuration::from_millis(20));
        assert!(!co.all_meet(&[loose, tight]), "tenant 1 misses 20ms at p95");
        // Tenant 1 completed 500 of 1000 measured arrivals: saturated, so
        // even a loose SLA fails for it.
        assert!(!co.all_meet(&[loose, loose]));
    }
}
