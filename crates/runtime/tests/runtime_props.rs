//! Runtime acceptance properties: conservation of every arrival
//! (admitted = completed + in-flight, plus shed, across clock modes and
//! plans), bitwise reproducibility of the virtual clock, and
//! cross-validation of the virtual-clock runtime against the
//! discrete-event simulator on the quickstart scenario and every dedicated
//! shape of `tests/engine_golden.rs`.

use proptest::prelude::*;

use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    AdmissionPolicy, BatchPolicy, ClockMode, RuntimeConfig, ServingRuntime, StageKind,
};
use hercules_sim::{simulate, NmpLutCache, PlacementPlan, SimConfig, SimReport, SlaSpec};

/// The quickstart scenario: RMC1 production on a T2 under the canonical
/// CPU plan (what `examples/quickstart.rs` and the README lead with).
fn quickstart_plan() -> PlacementPlan {
    PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    }
}

fn rmc1() -> RecModel {
    RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
}

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        duration: SimDuration::from_secs(2),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    }
}

/// One scenario served by both loops: the simulator and the virtual clock.
struct XvalRow {
    name: &'static str,
    model: RecModel,
    server: ServerType,
    plan: PlacementPlan,
    qps: f64,
    cfg: SimConfig,
}

/// The quickstart scenario plus every dedicated shape of
/// `tests/engine_golden.rs` (same model, server, plan, load, seed and
/// 600 ms configuration).
fn xval_rows() -> Vec<XvalRow> {
    let golden = |seed| SimConfig {
        duration: SimDuration::from_millis(600),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::from_millis(50),
        seed,
    };
    let cpu_sd = PlacementPlan::CpuSdPipeline {
        sparse_threads: 6,
        sparse_workers: 2,
        dense_threads: 8,
        batch: 256,
    };
    let gpu = |colocated, fusion_limit, host_sparse_threads| PlacementPlan::GpuModel {
        colocated,
        fusion_limit,
        host_sparse_threads,
        host_batch: 256,
    };
    let hybrid = PlacementPlan::HybridSdPipeline {
        sparse_threads: 10,
        sparse_workers: 2,
        gpu_colocated: 2,
        fusion_limit: Some(2000),
        batch: 256,
    };
    let rmc2 = RecModel::build(ModelKind::DlrmRmc2, ModelScale::Production);
    let rmc3 = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production);
    let rmc3_small = || RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
    let row = |name, model, server, plan, qps, cfg| XvalRow {
        name,
        model,
        server,
        plan,
        qps,
        cfg,
    };
    vec![
        row(
            "quickstart",
            rmc1(),
            ServerType::T2,
            quickstart_plan(),
            400.0,
            sim_cfg(7),
        ),
        row(
            "cpu_model_t2",
            rmc1(),
            ServerType::T2,
            quickstart_plan(),
            500.0,
            golden(7),
        ),
        row(
            "cpu_model_t2_overloaded",
            rmc1(),
            ServerType::T2,
            quickstart_plan(),
            4000.0,
            golden(21),
        ),
        row(
            "cpu_model_t3_nmp",
            rmc2,
            ServerType::T3,
            quickstart_plan(),
            300.0,
            golden(8),
        ),
        row(
            "cpu_sd_t2",
            rmc1(),
            ServerType::T2,
            cpu_sd,
            400.0,
            golden(9),
        ),
        row(
            "gpu_host_t7",
            rmc3,
            ServerType::T7,
            gpu(2, Some(2000), 8),
            400.0,
            golden(10),
        ),
        row(
            "gpu_no_host_t7",
            rmc3_small(),
            ServerType::T7,
            gpu(3, Some(2048), 0),
            2000.0,
            golden(11),
        ),
        row(
            "gpu_no_fusion_t7",
            rmc3_small(),
            ServerType::T7,
            gpu(3, None, 0),
            2000.0,
            golden(12),
        ),
        row(
            "hybrid_t7",
            rmc1(),
            ServerType::T7,
            hybrid,
            500.0,
            golden(13),
        ),
    ]
}

/// With the batcher's delay at zero the virtual clock serves a run exactly
/// as the simulator does: every count and every phase attribution agree to
/// the nanosecond, the power figures agree up to the order in which
/// per-worker buckets are summed, and each quantile lies within one
/// histogram bucket of the exact order statistic.
#[test]
fn virtual_runtime_cross_validates_against_sim_engine() {
    let resolution = LatencyHistogram::default_latency().resolution();
    for row in xval_rows() {
        let name = row.name;
        let server = row.server.spec();
        let offered = Qps(row.qps);
        let sim = simulate(&row.model, &server, &row.plan, offered, &row.cfg).unwrap();
        let cfg = RuntimeConfig::from_sim(&row.cfg).with_batch(BatchPolicy {
            max_delay: SimDuration::ZERO,
        });
        let rt =
            ServingRuntime::build(&row.model, server, &row.plan, cfg, &NmpLutCache::new()).unwrap();
        let live = rt.serve(offered);
        let (l, s) = (&live.sim, &sim);

        assert_eq!(live.shed, 0, "{name}: no admission budget, nothing sheds");
        let counts = |r: &SimReport| {
            [
                r.total_arrivals,
                r.measured_arrivals,
                r.completed,
                r.completed_total,
                r.in_flight_at_horizon,
            ]
        };
        assert_eq!(counts(l), counts(s), "{name}: counts");
        let nanos = |r: &SimReport| {
            [
                r.mean_latency,
                r.breakdown.queuing,
                r.breakdown.loading,
                r.breakdown.inference,
            ]
            .map(SimDuration::as_nanos)
        };
        assert_eq!(nanos(l), nanos(s), "{name}: mean and breakdown");
        let floats = |r: &SimReport| {
            [
                r.mean_power.value(),
                r.peak_power.value(),
                r.energy_per_query.value(),
                r.cpu_activity,
                r.mem_activity,
                r.gpu_activity,
                r.pcie_activity,
                r.front_idle_fraction,
            ]
        };
        for (i, (a, b)) in floats(l).into_iter().zip(floats(s)).enumerate() {
            let rel = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            assert!(rel <= 1e-12, "{name}: float {i}: runtime {a} vs sim {b}");
        }
        for (a, b, what) in [
            (l.p50, s.p50, "p50"),
            (l.p95, s.p95, "p95"),
            (l.p99, s.p99, "p99"),
        ] {
            let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
            assert!(
                a.max(b) <= resolution * a.min(b),
                "{name}: {what}: runtime {a:.9}s vs sim {b:.9}s"
            );
        }
    }
}

#[test]
fn virtual_clock_is_bitwise_reproducible() {
    let server = ServerType::T2.spec();
    let cfg = RuntimeConfig::from_sim(&sim_cfg(21));
    let luts = NmpLutCache::new();
    let a = ServingRuntime::build(&rmc1(), server.clone(), &quickstart_plan(), cfg, &luts)
        .unwrap()
        .serve(Qps(500.0));
    let b = ServingRuntime::build(&rmc1(), server, &quickstart_plan(), cfg, &luts)
        .unwrap()
        .serve(Qps(500.0));
    assert_eq!(a.sim.completed, b.sim.completed);
    assert_eq!(a.sim.p50, b.sim.p50);
    assert_eq!(a.sim.p95, b.sim.p95);
    assert_eq!(a.sim.p99, b.sim.p99);
    assert_eq!(a.sim.mean_latency, b.sim.mean_latency);
    assert_eq!(
        a.sim.mean_power.value().to_bits(),
        b.sim.mean_power.value().to_bits()
    );
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.sim.in_flight_at_horizon, b.sim.in_flight_at_horizon);
}

#[test]
fn admission_control_sheds_under_overload_and_conserves() {
    let server = ServerType::T2.spec();
    // A tight queue-delay budget at 20x the sustainable load: the
    // controller must shed, and every arrival must still be accounted for.
    let cfg = RuntimeConfig::from_sim(&sim_cfg(3)).with_admission(AdmissionPolicy::for_sla(
        &SlaSpec::p99(SimDuration::from_millis(20)),
        1.0,
    ));
    let rt = ServingRuntime::build(
        &rmc1(),
        server,
        &quickstart_plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .unwrap();
    let r = rt.serve(Qps(12_000.0));
    assert!(r.shed > 0, "overload must shed");
    assert!(r.sim.completed_total > 0, "admitted queries are served");
    assert!(
        r.conserves(),
        "arrivals {} != completed {} + shed {} + in-flight {}",
        r.sim.total_arrivals,
        r.sim.completed_total,
        r.shed,
        r.sim.in_flight_at_horizon
    );
    assert_eq!(r.admitted + r.shed, r.sim.total_arrivals);
    // Shedding keeps the admitted queries' tail bounded: the p99 of served
    // queries stays within a small multiple of the budget even at 20x load.
    assert!(
        r.sim.p99 <= SimDuration::from_millis(100),
        "admission control failed to protect the tail: p99 {}",
        r.sim.p99
    );
}

#[test]
fn wall_clock_serves_and_conserves() {
    let server = ServerType::T2.spec();
    // A short horizon so the test stays quick in real time; compressed 4x.
    let sim = SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 5,
    };
    let cfg = RuntimeConfig::from_sim(&sim).with_clock(ClockMode::Wall { time_scale: 0.25 });
    let rt = ServingRuntime::build(
        &rmc1(),
        server,
        &quickstart_plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .unwrap();
    let r = rt.serve(Qps(300.0));
    assert!(r.conserves());
    assert_eq!(r.sim.in_flight_at_horizon, 0, "wall mode drains fully");
    assert_eq!(r.sim.completed_total + r.shed, r.sim.total_arrivals);
    assert!(r.sim.completed > 0);
    assert!(r.wall_elapsed_s.is_some());
    // Telemetry saw every admitted sub-query.
    let front = r
        .stages
        .iter()
        .find(|s| s.stage == StageKind::Front)
        .expect("CPU plan has a front stage");
    assert!(front.batches >= r.sim.completed_total);
    assert!(front.service_p50 > SimDuration::ZERO);
}

#[test]
fn gpu_plan_with_dynamic_batching_runs_in_both_modes() {
    let server = ServerType::T7.spec();
    let model = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: Some(2000),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let sim = SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 9,
    };
    let cfg = RuntimeConfig::from_sim(&sim).with_batch(BatchPolicy {
        max_delay: SimDuration::from_millis(1),
    });
    let luts = NmpLutCache::new();

    let virt = ServingRuntime::build(&model, server.clone(), &plan, cfg, &luts)
        .unwrap()
        .serve(Qps(2_000.0));
    assert!(virt.conserves());
    assert!(virt.sim.completed > 0);
    assert!(virt.sim.gpu_activity > 0.0);
    assert!(virt.sim.pcie_activity > 0.0);
    assert!(
        virt.sim.breakdown.loading > SimDuration::ZERO,
        "fused batches pay PCIe loading"
    );
    let gpu = virt
        .stages
        .iter()
        .find(|s| s.stage == StageKind::Gpu)
        .expect("GPU plan has a GPU stage");
    assert!(
        gpu.items > gpu.batches,
        "dynamic batching must fuse sub-queries: {} items over {} launches",
        gpu.items,
        gpu.batches
    );

    let wall_cfg = cfg.with_clock(ClockMode::Wall { time_scale: 0.25 });
    let wall = ServingRuntime::build(&model, server, &plan, wall_cfg, &luts)
        .unwrap()
        .serve(Qps(2_000.0));
    assert!(wall.conserves());
    assert!(wall.sim.completed > 0);
    assert!(wall.sim.gpu_activity > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds for every load level and seed, saturated or not:
    /// arrivals = completed + shed + in-flight at the horizon.
    #[test]
    fn conservation_across_loads(
        rate in 50.0f64..6000.0,
        seed in 0u64..40,
        budget_ms in 0u64..40, // 0: no admission budget
    ) {
        let server = ServerType::T2.spec();
        let mut cfg = RuntimeConfig::from_sim(&SimConfig {
            duration: SimDuration::from_millis(700),
            warmup_fraction: 0.1,
            drain_margin: SimDuration::ZERO,
            seed,
        });
        if budget_ms > 0 {
            cfg = cfg.with_admission(AdmissionPolicy {
                budget: Some(SimDuration::from_millis(budget_ms)),
            });
        }
        let rt = ServingRuntime::build(
            &rmc1(),
            server,
            &quickstart_plan(),
            cfg,
            &NmpLutCache::new(),
        ).unwrap();
        let r = rt.serve(Qps(rate));
        prop_assert!(r.conserves());
        prop_assert_eq!(r.admitted + r.shed, r.sim.total_arrivals);
        prop_assert!(r.sim.completed <= r.sim.measured_arrivals);
    }
}
