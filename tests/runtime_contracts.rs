//! Contracts the serving runtime keeps on both clocks and in the fleet.
//!
//! Entry points reject traces that break the arrival contract
//! (non-decreasing, within the horizon, at least one item per query)
//! instead of returning reports that do not conserve, a GPU fault's
//! derated compute is charged to the queries it delays on the wall clock
//! as on the virtual clock, a zero-length run reports an idle server, as
//! an empty run of positive length does, and a zero-length fleet reports
//! idle replicas.

use hercules::common::units::{Qps, SimDuration, SimTime};
use hercules::fleet::{run_virtual_fleet, FleetConfig};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::{ClockMode, FaultPlan, RuntimeConfig, ServingRuntime};
use hercules::sim::{simulate, NmpLutCache, PlacementPlan, SimConfig, SimReport};
use hercules::workload::query::{Query, QueryId};

fn runtime(
    kind: ModelKind,
    scale: ModelScale,
    server: ServerType,
    plan: PlacementPlan,
    cfg: RuntimeConfig,
) -> ServingRuntime {
    ServingRuntime::build(
        &RecModel::build(kind, scale),
        server.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("feasible plan")
}

/// RMC1 on a T2 under the quickstart plan, over a 2 s horizon.
fn rmc1_t2(clock: ClockMode) -> ServingRuntime {
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_secs(2),
        ..SimConfig::default()
    })
    .with_clock(clock);
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    runtime(
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        plan,
        cfg,
    )
}

/// Queries of 100 items arriving at `ms`, in the given order.
fn trace(ms: &[u64]) -> Vec<Query> {
    ms.iter()
        .enumerate()
        .map(|(i, &t)| Query {
            id: QueryId(i as u64),
            arrival: SimTime::from_millis(t),
            size: 100,
        })
        .collect()
}

#[test]
#[should_panic(expected = "non-decreasing and lie within the configured horizon")]
fn virtual_clock_rejects_arrivals_past_the_horizon() {
    rmc1_t2(ClockMode::Virtual).serve_trace(&trace(&[5000, 1000]), Qps(1.0));
}

#[test]
#[should_panic(expected = "non-decreasing and lie within the configured horizon")]
fn virtual_clock_rejects_decreasing_arrivals() {
    rmc1_t2(ClockMode::Virtual).serve_trace(&trace(&[1000, 500]), Qps(1.0));
}

#[test]
#[should_panic(expected = "non-decreasing and lie within the configured horizon")]
fn wall_clock_rejects_arrivals_past_the_horizon() {
    rmc1_t2(ClockMode::wall()).serve_trace(&trace(&[5000, 1000]), Qps(1.0));
}

#[test]
#[should_panic(expected = "non-decreasing and lie within the configured horizon")]
fn wall_clock_rejects_decreasing_arrivals() {
    rmc1_t2(ClockMode::wall()).serve_trace(&trace(&[1000, 500]), Qps(1.0));
}

#[test]
#[should_panic(expected = "fleet arrivals must be non-decreasing and lie within the horizon")]
fn fleet_rejects_arrivals_past_the_horizon() {
    let pool = [rmc1_t2(ClockMode::Virtual)];
    let cfg = FleetConfig::default();
    run_virtual_fleet(&pool, None, &cfg, &trace(&[1000, 5000]), Qps(1.0));
}

#[test]
#[should_panic(expected = "fleet epoch must be positive")]
fn fleet_rejects_a_zero_epoch() {
    let pool = [rmc1_t2(ClockMode::Virtual)];
    let cfg = FleetConfig {
        epoch: SimDuration::ZERO,
        ..FleetConfig::default()
    };
    run_virtual_fleet(&pool, None, &cfg, &trace(&[1000]), Qps(1.0));
}

/// An empty query at 1 ms, then a query of 100 items at 2 ms: admitted
/// with no sub-queries, the first would never complete nor count in
/// flight.
fn with_empty_query() -> Vec<Query> {
    let mut t = trace(&[1, 2]);
    t[0].size = 0;
    t
}

#[test]
#[should_panic(expected = "with at least one item")]
fn virtual_clock_rejects_empty_queries() {
    rmc1_t2(ClockMode::Virtual).serve_trace(&with_empty_query(), Qps(1.0));
}

#[test]
#[should_panic(expected = "with at least one item")]
fn wall_clock_rejects_empty_queries() {
    rmc1_t2(ClockMode::wall()).serve_trace(&with_empty_query(), Qps(1.0));
}

#[test]
#[should_panic(expected = "with at least one item")]
fn fleet_rejects_empty_queries() {
    let pool = [rmc1_t2(ClockMode::Virtual)];
    let cfg = FleetConfig::default();
    run_virtual_fleet(&pool, None, &cfg, &with_empty_query(), Qps(1.0));
}

/// Mean per-query inference of RMC3-small on a T7 context, with fusion
/// off, at 200 QPS for 800 ms, with context 0 derated by `fault` for the
/// whole run.
fn gpu_inference_ms(clock: ClockMode, fault: Option<f64>) -> f64 {
    let sim = SimConfig {
        duration: SimDuration::from_millis(800),
        seed: 9,
        ..SimConfig::default()
    };
    let faults = fault.map_or(FaultPlan::none(), |factor| {
        FaultPlan::none().with_gpu_fault(0, SimTime::ZERO, SimTime::from_secs(10), factor)
    });
    let cfg = RuntimeConfig::from_sim(&sim)
        .with_clock(clock)
        .with_faults(faults);
    let plan = PlacementPlan::GpuModel {
        colocated: 1,
        fusion_limit: None,
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let rt = runtime(
        ModelKind::DlrmRmc3,
        ModelScale::Small,
        ServerType::T7,
        plan,
        cfg,
    );
    let r = rt.serve(Qps(200.0));
    assert!(r.conserves() && r.shed == 0 && r.sim.completed > 0);
    r.sim.breakdown.inference.as_secs_f64() * 1e3
}

#[test]
fn gpu_fault_derates_attributed_inference_on_both_clocks() {
    for clock in [ClockMode::Virtual, ClockMode::wall()] {
        let clean = gpu_inference_ms(clock, None);
        let faulted = gpu_inference_ms(clock, Some(3.0));
        assert!(
            (faulted / clean - 3.0).abs() < 1e-9,
            "{clock:?}: inference {clean:.4} ms clean vs {faulted:.4} ms under a 3x GPU fault"
        );
    }
}

/// A report's server power and activities.
fn load(r: &SimReport) -> [f64; 6] {
    [
        r.mean_power.value(),
        r.peak_power.value(),
        r.cpu_activity,
        r.mem_activity,
        r.gpu_activity,
        r.pcie_activity,
    ]
}

#[test]
fn zero_length_runs_report_an_idle_server() {
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let sim = |duration| SimConfig {
        duration,
        ..SimConfig::default()
    };
    let virt = |duration| {
        runtime(
            ModelKind::DlrmRmc1,
            ModelScale::Production,
            ServerType::T2,
            plan,
            RuntimeConfig::from_sim(&sim(duration)),
        )
    };
    let idle = load(
        &virt(SimDuration::from_secs(1))
            .serve_trace(&[], Qps(0.0))
            .sim,
    );
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let simulated = simulate(
        &model,
        &ServerType::T2.spec(),
        &plan,
        Qps(400.0),
        &sim(SimDuration::ZERO),
    )
    .expect("feasible plan");
    let zero = virt(SimDuration::ZERO);
    let runs = [
        ("simulator", simulated),
        ("virtual clock", zero.serve(Qps(400.0)).sim),
        (
            "virtual clock, empty trace",
            zero.serve_trace(&[], Qps(0.0)).sim,
        ),
    ];
    for (name, r) in runs {
        assert_eq!(load(&r), idle, "{name}: zero-length run vs empty 1 s run");
    }
}

#[test]
fn zero_length_fleet_reports_idle_replicas() {
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::ZERO,
        ..SimConfig::default()
    });
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let replica = || {
        runtime(
            ModelKind::DlrmRmc1,
            ModelScale::Production,
            ServerType::T2,
            plan,
            cfg,
        )
    };
    let bare = load(&replica().serve_trace(&[], Qps(0.0)).sim);
    let fleet_cfg = FleetConfig {
        initial_replicas: 2,
        ..FleetConfig::default()
    };
    let r = run_virtual_fleet(&[replica(), replica()], None, &fleet_cfg, &[], Qps(0.0));
    assert!(r.conserves());
    assert_eq!(r.replicas.len(), 2);
    for rep in &r.replicas {
        assert_eq!(load(&rep.report.sim), bare, "replica {}", rep.index);
        assert_eq!(rep.snapshots.len(), 1, "replica {}", rep.index);
    }
}
