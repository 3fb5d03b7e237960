//! Fig. 17 — cluster capacity and power provisioning of the accelerated
//! cluster on Day-D2, under the NH, greedy, and Hercules schedulers.
//!
//! Paper headline: greedy saves 75.8%/67.4% capacity and 50.8%/42.7% power
//! (peak/average) over NH; Hercules saves a further 47.7%/22.8% capacity
//! and 23.7%/9.1% power over greedy.

use hercules_bench::{banner, bench_profile, f, TableWriter};
use hercules_common::units::Qps;
use hercules_core::cluster::online::{evolution_traces, run_online, ClusterRunReport};
use hercules_core::cluster::policies::{
    GreedyScheduler, HerculesScheduler, NhScheduler, PriorityScheduler, SolverChoice,
};
use hercules_core::cluster::Provisioner;
use hercules_core::profiler::{EfficiencyTable, RankMetric, Searcher};
use hercules_hw::server::{Fleet, ServerType};
use hercules_model::zoo::{ModelKind, ModelScale};
use hercules_workload::diurnal::DiurnalPattern;
use hercules_workload::evolution::EvolutionSchedule;

/// Largest aggregate peak the fleet can serve at the Day-D2 mix, found by
/// binary search over the provisioning LP itself, backed off to 75%.
fn scaled_peak(table: &EfficiencyTable, fleet: &Fleet, shares: &[(ModelKind, f64)]) -> f64 {
    use hercules_core::cluster::ProvisionRequest;
    let workloads: Vec<ModelKind> = shares.iter().map(|&(m, _)| m).collect();
    let feasible = |aggregate: f64| -> bool {
        let loads: Vec<f64> = shares.iter().map(|&(_, s)| s * aggregate).collect();
        let req = ProvisionRequest {
            fleet,
            table,
            workloads: &workloads,
            loads: &loads,
            over_provision: 0.05,
        };
        // Branch and bound starts from the priority allocation, so a load
        // the priority scheduler meets, Hercules meets too: ask it first.
        PriorityScheduler::new(RankMetric::QpsPerWatt)
            .provision(&req)
            .is_ok()
            || HerculesScheduler::new(SolverChoice::BranchAndBound)
                .provision(&req)
                .is_ok()
    };
    let mut hi = 1_000.0;
    while feasible(hi * 2.0) && hi < 1e9 {
        hi *= 2.0;
    }
    let mut lo = hi / 2.0;
    for _ in 0..20 {
        let mid = (lo + hi) / 2.0;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.75 * lo
}

fn summarize(r: &ClusterRunReport) -> (f64, f64, f64, f64) {
    (
        r.peak_activated(),
        r.avg_activated(),
        r.peak_power() / 1000.0,
        r.avg_power() / 1000.0,
    )
}

fn main() {
    banner("Fig. 17: Day-D2 provisioning on the accelerated cluster (Fleet: T2=70)");
    let fleet = Fleet::figure_17();
    let table = bench_profile(
        &ModelKind::ALL,
        &ServerType::ALL,
        ModelScale::Production,
        Searcher::Hercules,
    );
    let schedule = EvolutionSchedule::paper();
    let (_, d2) = schedule.snapshot_days();
    let shares = schedule.mix_at(d2);
    let peak = scaled_peak(&table, &fleet, &shares);
    println!("aggregate diurnal peak sized to {peak:.0} QPS for this fleet");
    let aggregate = DiurnalPattern::service_a(Qps(peak));
    let traces = evolution_traces(&schedule, d2, &aggregate, 60, 17);

    let mut nh = NhScheduler::new(9);
    let mut greedy = GreedyScheduler::new(9, RankMetric::QpsPerWatt);
    let mut hercules = HerculesScheduler::new(SolverChoice::BranchAndBound);
    let runs: Vec<ClusterRunReport> = {
        let policies: Vec<&mut dyn Provisioner> = vec![&mut nh, &mut greedy, &mut hercules];
        policies
            .into_iter()
            .map(|p| run_online(&fleet, &table, &traces, p, Some(0.05)))
            .collect()
    };

    let w = TableWriter::new(&[
        ("Scheduler", 10),
        ("PeakSrv", 8),
        ("AvgSrv", 7),
        ("PeakPwr(kW)", 12),
        ("AvgPwr(kW)", 11),
        ("Infeas", 7),
    ]);
    for r in &runs {
        let (ps, as_, pp, ap) = summarize(r);
        w.row(&[
            r.policy.to_string(),
            f(ps, 0),
            f(as_, 0),
            f(pp, 2),
            f(ap, 2),
            r.infeasible_intervals().to_string(),
        ]);
    }

    println!();
    let (nh_r, greedy_r, hercules_r) = (&runs[0], &runs[1], &runs[2]);
    let pct = |new: f64, old: f64| (1.0 - new / old.max(1e-9)) * 100.0;
    println!(
        "greedy vs NH      : capacity {:.1}% peak / {:.1}% avg; power {:.1}% / {:.1}%",
        pct(greedy_r.peak_activated(), nh_r.peak_activated()),
        pct(greedy_r.avg_activated(), nh_r.avg_activated()),
        pct(greedy_r.peak_power(), nh_r.peak_power()),
        pct(greedy_r.avg_power(), nh_r.avg_power()),
    );
    println!(
        "Hercules vs greedy: capacity {:.1}% peak / {:.1}% avg; power {:.1}% / {:.1}%",
        pct(hercules_r.peak_activated(), greedy_r.peak_activated()),
        pct(hercules_r.avg_activated(), greedy_r.avg_activated()),
        pct(hercules_r.peak_power(), greedy_r.peak_power()),
        pct(hercules_r.avg_power(), greedy_r.avg_power()),
    );
    println!("(paper: greedy/NH 75.8/67.4% cap, 50.8/42.7% pwr; Hercules/greedy 47.7/22.8% cap, 23.7/9.1% pwr)");

    println!();
    println!("Per-type activation at the peak interval (Hercules):");
    let peak_idx = hercules_r
        .intervals
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.power_w.partial_cmp(&b.1.power_w).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    for (stype, n) in hercules_r.activated_by_type(peak_idx) {
        println!("  {:<24} x{n}", stype.label());
    }
}
