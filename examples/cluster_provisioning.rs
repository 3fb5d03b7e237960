//! Cluster provisioning: serve two diurnal workloads on a heterogeneous
//! fleet and compare the NH, greedy, and Hercules schedulers (both solvers)
//! on provisioned power — the paper's online-serving stage in miniature.
//!
//! Run with: `cargo run --release --example cluster_provisioning`

use hercules::common::units::{Qps, Watts};
use hercules::core::cluster::online::{run_online, WorkloadTrace};
use hercules::core::cluster::policies::{
    GreedyScheduler, HerculesScheduler, NhScheduler, SolverChoice,
};
use hercules::core::cluster::Provisioner;
use hercules::core::profiler::{EfficiencyEntry, EfficiencyTable, RankMetric};
use hercules::hw::server::{Fleet, ServerType};
use hercules::model::zoo::ModelKind;
use hercules::sim::PlacementPlan;
use hercules::workload::diurnal::DiurnalPattern;

fn entry(qps: f64, power: f64) -> EfficiencyEntry {
    EfficiencyEntry {
        qps: Qps(qps),
        power: Watts(power),
        plan: PlacementPlan::CpuModel {
            threads: 20,
            workers: 1,
            batch: 256,
        },
    }
}

fn main() {
    // Efficiency tuples as the offline profiler would produce them
    // (see `examples/quickstart.rs` to generate real ones).
    let table = EfficiencyTable::from_entries([
        ((ModelKind::DlrmRmc1, ServerType::T2), entry(2500.0, 150.0)),
        ((ModelKind::DlrmRmc1, ServerType::T3), entry(6400.0, 160.0)),
        ((ModelKind::DlrmRmc1, ServerType::T7), entry(13000.0, 300.0)),
        ((ModelKind::DlrmRmc2, ServerType::T2), entry(80.0, 95.0)),
        ((ModelKind::DlrmRmc2, ServerType::T3), entry(300.0, 160.0)),
        ((ModelKind::DlrmRmc2, ServerType::T7), entry(900.0, 240.0)),
    ]);

    let mut fleet = Fleet::empty();
    fleet
        .set(ServerType::T2, 70)
        .set(ServerType::T3, 15)
        .set(ServerType::T7, 5);

    // Two synchronized diurnal services (Fig. 8b).
    let traces = vec![
        WorkloadTrace {
            model: ModelKind::DlrmRmc1,
            load: DiurnalPattern::service_a(Qps(60_000.0)).sample(1, 30, 0.02, 1),
        },
        WorkloadTrace {
            model: ModelKind::DlrmRmc2,
            load: DiurnalPattern::service_b(Qps(2_500.0)).sample(1, 30, 0.02, 2),
        },
    ];

    println!("fleet: 70x T2 (CPU), 15x T3 (CPU+NMP), 5x T7 (CPU+GPU)");
    println!("loads: RMC1 peaks 60K QPS, RMC2 peaks 2.5K QPS, both diurnal");
    println!();
    println!(
        "{:<18} {:>12} {:>12} {:>9} {:>9}",
        "policy", "peak pwr(kW)", "avg pwr(kW)", "peak srv", "avg srv"
    );

    let mut nh = NhScheduler::new(7);
    let mut greedy = GreedyScheduler::new(7, RankMetric::QpsPerWatt);
    let mut rounded = HerculesScheduler::new(SolverChoice::InteriorPointRounded);
    let mut exact = HerculesScheduler::new(SolverChoice::BranchAndBound);
    let policies: [(&str, &mut dyn Provisioner); 4] = [
        ("NH", &mut nh),
        ("greedy", &mut greedy),
        ("Hercules (IPM)", &mut rounded),
        ("Hercules (B&B)", &mut exact),
    ];
    let mut runs = Vec::new();
    for (label, p) in policies {
        let run = run_online(&fleet, &table, &traces, p, None);
        println!(
            "{:<18} {:>12.2} {:>12.2} {:>9.0} {:>9.0}",
            label,
            run.peak_power() / 1000.0,
            run.avg_power() / 1000.0,
            run.peak_activated(),
            run.avg_activated()
        );
        runs.push(run);
    }
    println!();
    println!("Hercules solves Eq. (1)-(3) each interval: interior point + rounding");
    println!("repair, or branch and bound to the exact integral optimum; the savings");
    println!("over greedy come from arbitrating the contended NMP servers.");

    // The exact optimum is never above a feasible plan: greedy's or the
    // rounded relaxation's.
    let exact = &runs[3];
    for other in [&runs[1], &runs[2]] {
        assert!(
            exact.peak_power() <= other.peak_power() + 1e-6
                && exact.avg_power() <= other.avg_power() + 1e-6,
            "branch and bound above a feasible plan"
        );
    }
}
