//! Contracts the serving runtime keeps on both clocks and in the fleet.
//!
//! Entry points reject traces that break the arrival contract
//! (non-decreasing, within the horizon, at least one item per query)
//! instead of returning reports that do not conserve, a GPU fault's
//! derated compute is charged to the queries it delays on the wall clock
//! as on the virtual clock, a zero-length run reports an idle server in
//! the simulator and on both clocks, as an empty run of positive length
//! does, and a zero-length fleet reports idle replicas. The simulator and
//! both knee searches reject malformed rates with a `PlanError` instead of
//! panicking or returning the start rate as a knee, and every provisioning
//! scheduler rejects a malformed load or over-provision rate with a
//! `ProvisionError` instead of panicking or booking the workload nothing.

use hercules::common::units::{Qps, SimDuration, SimTime, Watts};
use hercules::core::cluster::policies::{
    ColocationScheduler, GreedyScheduler, HerculesScheduler, NhScheduler, PriorityScheduler,
    SolverChoice,
};
use hercules::core::cluster::{ProvisionError, ProvisionRequest, Provisioner};
use hercules::core::profiler::{EfficiencyEntry, EfficiencyTable, RankMetric};
use hercules::fleet::{run_virtual_fleet, FleetConfig};
use hercules::hw::server::{Fleet, ServerType};
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::{
    max_qps_under_sla_live, ClockMode, FaultPlan, RuntimeConfig, ServingRuntime,
};
use hercules::sim::{
    build_topology, max_qps_under_sla, simulate, simulate_cached, simulate_with_topology,
    NmpLutCache, PlacementPlan, PlanError, SearchOptions, SimConfig, SimReport, SlaSpec,
};
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
        (
            "wall clock",
            zero.serve_with(Qps(400.0), &zero.config().with_clock(ClockMode::wall()))
                .sim,
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

#[test]
fn malformed_offered_rates_are_plan_errors() {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let server = ServerType::T2.spec();
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let cfg = SimConfig::quick(1);
    let luts = NmpLutCache::new();
    let topo = build_topology(&model, &server, &plan, &luts).expect("feasible plan");
    for rate in [0.0, -5.0, f64::NAN, f64::INFINITY].map(Qps) {
        let runs = [
            simulate(&model, &server, &plan, rate, &cfg),
            simulate_cached(&model, &server, &plan, rate, &cfg, &luts),
            simulate_with_topology(&topo, &server, rate, &cfg),
        ];
        for r in runs {
            assert_eq!(r.map(|_| ()), Err(PlanError::BadRate), "offered {rate}");
        }
    }
}

#[test]
fn malformed_search_ranges_are_plan_errors_on_both_searches() {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let server = ServerType::T2.spec();
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let sla = SlaSpec::p95(model.default_sla());
    let cfg = SimConfig::quick(1);
    let luts = NmpLutCache::new();
    let ranges = [
        (0.0, 1e6),
        (-1.0, 1e6),
        (f64::NAN, 1e6),
        (64.0, f64::NAN),
        (64.0, 0.0),
        (64.0, 32.0),
        (64.0, f64::INFINITY),
    ];
    for (start, ceiling) in ranges {
        let opts = SearchOptions {
            start: Qps(start),
            ceiling: Qps(ceiling),
            ..SearchOptions::default()
        };
        let simulated = max_qps_under_sla(&model, &server, &plan, &sla, &cfg, &opts, &luts);
        let live = max_qps_under_sla_live(
            &model,
            &server,
            &plan,
            &sla,
            &RuntimeConfig::from_sim(&cfg),
            &opts,
            &luts,
        );
        for r in [simulated, live] {
            assert_eq!(
                r.map(|_| ()),
                Err(PlanError::BadSearchRange),
                "start {start}, ceiling {ceiling}"
            );
        }
    }
}

#[test]
fn malformed_provision_requests_are_errors() {
    let mut fleet = Fleet::empty();
    fleet.set(ServerType::T2, 20).set(ServerType::T3, 5);
    let entry = |qps: f64, power: f64| EfficiencyEntry {
        qps: Qps(qps),
        power: Watts(power),
        plan: PlacementPlan::CpuModel {
            threads: 1,
            workers: 1,
            batch: 64,
        },
    };
    let table = EfficiencyTable::from_entries([
        ((ModelKind::DlrmRmc1, ServerType::T2), entry(1000.0, 250.0)),
        ((ModelKind::DlrmRmc1, ServerType::T3), entry(1960.0, 280.0)),
        ((ModelKind::DlrmRmc2, ServerType::T2), entry(700.0, 250.0)),
        ((ModelKind::DlrmRmc2, ServerType::T3), entry(1600.0, 280.0)),
    ]);
    let workloads = [ModelKind::DlrmRmc1, ModelKind::DlrmRmc2];
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0];
    // A bad load, on the second workload, whatever R is; then a bad R.
    let mut cases: Vec<(f64, f64, ProvisionError)> = Vec::new();
    for load in bad {
        for r in [0.0, f64::NAN, -2.0] {
            let err = ProvisionError::BadLoad {
                workload: ModelKind::DlrmRmc2,
            };
            cases.push((load, r, err));
        }
    }
    for r in bad {
        cases.push((1500.0, r, ProvisionError::BadOverProvision));
    }
    for (load, r, want) in cases {
        let loads = [2000.0, load];
        let req = ProvisionRequest {
            fleet: &fleet,
            table: &table,
            workloads: &workloads,
            loads: &loads,
            over_provision: r,
        };
        let schedulers: [&mut dyn Provisioner; 4] = [
            &mut NhScheduler::new(1),
            &mut GreedyScheduler::new(1, RankMetric::QpsPerWatt),
            &mut PriorityScheduler::new(RankMetric::QpsPerWatt),
            &mut HerculesScheduler::new(SolverChoice::BranchAndBound),
        ];
        for policy in schedulers {
            let got = policy.provision(&req);
            assert_eq!(
                got,
                Err(want.clone()),
                "{} at load {load}, R {r}",
                policy.name()
            );
        }
        let colocated = ColocationScheduler::default().provision_colocated(&req);
        assert_eq!(colocated, Err(want), "co-location at load {load}, R {r}");
    }
}
