//! Golden outputs of the discrete-event simulator.
//!
//! Each case runs a short seeded simulation and compares the report, bit
//! for bit, with values recorded from the engine before any refactoring
//! of its event loop. The cases span every pipeline shape the simulator
//! serves: whole-model CPU (DDR and NMP servers), the CPU S-D pipeline, the
//! GPU with and without a host cold-sparse stage and with fusion disabled,
//! the hybrid S-D GPU pipeline, and two-tenant co-location on a CPU server
//! (interference derate above 1) and on a GPU server (shared contexts and
//! PCIe link). A change that reorders events, accumulates floats in another
//! order, or perturbs a service time shows up here as a changed bit.

use hercules::common::units::{Qps, SimDuration};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::sim::{
    simulate_cached, simulate_colocated, ColocationConfig, NmpLutCache, PlacementPlan, SimConfig,
    SimReport, TenantSpec,
};

/// `completed`, `completed_total`, `in_flight_at_horizon`, `mean_latency`,
/// `p50`, `p95`, `p99`, breakdown `queuing`/`loading`/`inference` (all in
/// nanoseconds), then the IEEE-754 bits of `mean_power`, `peak_power` and
/// `energy_per_query`.
type Fingerprint = [u64; 13];

#[rustfmt::skip]
mod golden {
    use super::Fingerprint;

    pub const CPU_MODEL_T2: Fingerprint = [241, 294, 1, 3192261, 3007556, 7909356, 7909356, 5444, 0, 3036656, 4634841201378140647, 4637554755373000762, 4594519555562842511];
    pub const CPU_MODEL_T2_OVERLOADED: Fingerprint = [1253, 1502, 852, 123098707, 116719280, 203346968, 211776103, 119688748, 0, 3189104, 4639464592574805014, 4639841783947458416, 4588587147034392703];
    pub const CPU_MODEL_T3_NMP: Fingerprint = [138, 162, 22, 45948508, 40065293, 90098770, 97530061, 16933635, 0, 26908025, 4638523066679696393, 4639930882405354704, 4601691280669646187];
    pub const CPU_SD_T2: Fingerprint = [193, 234, 2, 4066006, 2574781, 10103962, 10103962, 23332, 0, 3825015, 4634866984592676469, 4636608569829192868, 4595884022847471978];
    pub const GPU_HOST_T7: Fingerprint = [190, 223, 0, 1143200, 1038614, 1984520, 2583788, 28162, 49362, 1012529, 4637830486615582702, 4638710990742599168, 4599039177499472949];
    pub const GPU_NO_HOST_T7: Fingerprint = [973, 1197, 1, 1054673, 906838, 1857057, 2714862, 73402, 64821, 916451, 4639720028899108733, 4640713075690997064, 4590353453241055047];
    pub const GPU_NO_FUSION_T7: Fingerprint = [967, 1163, 1, 1039841, 901717, 1721105, 2327210, 133361, 49209, 857271, 4639565496551052130, 4640522476151872661, 4590228383844514797];
    pub const HYBRID_T7: Fingerprint = [261, 317, 0, 2681988, 1678874, 6346503, 6481591, 1437, 22267, 2534732, 4638475504846931372, 4639111000902751268, 4597602863412666554];
    pub const COLOCATED_T2: [Fingerprint; 3] = [
        [212, 234, 24, 26872840, 18582675, 76852743, 86597696, 23351684, 0, 3298303, 4638733934075736662, 4640361281679785984, 4597373548848543989],
        [65, 71, 12, 52590115, 43460254, 117157929, 142833214, 8125584, 0, 43612458, 4638733934075736662, 4640361281679785984, 4597373548848543989],
        [277, 305, 36, 32907579, 22003460, 86597696, 131993929, 19778772, 0, 12758303, 4638733934075736662, 4640361281679785984, 4597373548848543989],
    ];
    pub const COLOCATED_T7: [Fingerprint; 3] = [
        [375, 487, 0, 983846, 881500, 1517860, 2832240, 17390, 55380, 911076, 4638911514097192388, 4640010080749663640, 4591725807694955653],
        [294, 359, 1, 402401, 310587, 926342, 1308421, 18076, 86855, 297470, 4638911514097192388, 4640010080749663640, 4591725807694955653],
        [669, 846, 1, 728323, 804240, 1300250, 2131506, 17692, 69212, 641420, 4638911514097192388, 4640010080749663640, 4591725807694955653],
    ];
}

fn fingerprint(r: &SimReport) -> Fingerprint {
    [
        r.completed,
        r.completed_total,
        r.in_flight_at_horizon,
        r.mean_latency.as_nanos(),
        r.p50.as_nanos(),
        r.p95.as_nanos(),
        r.p99.as_nanos(),
        r.breakdown.queuing.as_nanos(),
        r.breakdown.loading.as_nanos(),
        r.breakdown.inference.as_nanos(),
        r.mean_power.value().to_bits(),
        r.peak_power.value().to_bits(),
        r.energy_per_query.value().to_bits(),
    ]
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        duration: SimDuration::from_millis(600),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::from_millis(50),
        seed,
    }
}

fn model(kind: ModelKind, scale: ModelScale) -> RecModel {
    RecModel::build(kind, scale)
}

fn check(name: &str, got: Fingerprint, want: Fingerprint) {
    assert_eq!(got, want, "{name}: golden bits changed, got {got:?}");
}

fn check_dedicated(
    name: &str,
    (kind, scale): (ModelKind, ModelScale),
    server: ServerType,
    plan: PlacementPlan,
    qps: f64,
    seed: u64,
    want: Fingerprint,
) {
    let r = simulate_cached(
        &model(kind, scale),
        &server.spec(),
        &plan,
        Qps(qps),
        &cfg(seed),
        &NmpLutCache::new(),
    )
    .expect("feasible plan");
    assert_eq!(
        r.completed_total + r.in_flight_at_horizon,
        r.total_arrivals,
        "{name}: conservation"
    );
    check(name, fingerprint(&r), want);
}

fn check_colocated(
    name: &str,
    server: ServerType,
    plan: PlacementPlan,
    tenants: Vec<TenantSpec>,
    seed: u64,
    want: [Fingerprint; 3],
) {
    let cfg = ColocationConfig::new(cfg(seed), tenants);
    let r = simulate_colocated(&server.spec(), &plan, &cfg, &NmpLutCache::new())
        .expect("feasible plan");
    assert_eq!(r.tenants(), 2);
    check(
        &format!("{name} tenant 0"),
        fingerprint(&r.per_tenant[0]),
        want[0],
    );
    check(
        &format!("{name} tenant 1"),
        fingerprint(&r.per_tenant[1]),
        want[1],
    );
    check(
        &format!("{name} aggregate"),
        fingerprint(&r.aggregate),
        want[2],
    );
}

const RMC1: (ModelKind, ModelScale) = (ModelKind::DlrmRmc1, ModelScale::Production);

const CPU_PLAN: PlacementPlan = PlacementPlan::CpuModel {
    threads: 10,
    workers: 2,
    batch: 256,
};

#[test]
fn cpu_model_on_t2() {
    let want = golden::CPU_MODEL_T2;
    check_dedicated(
        "cpu_model_t2",
        RMC1,
        ServerType::T2,
        CPU_PLAN,
        500.0,
        7,
        want,
    );
}

#[test]
fn cpu_model_on_t2_overloaded() {
    let want = golden::CPU_MODEL_T2_OVERLOADED;
    check_dedicated(
        "cpu_model_t2_overloaded",
        RMC1,
        ServerType::T2,
        CPU_PLAN,
        4000.0,
        21,
        want,
    );
}

#[test]
fn cpu_model_on_t3_nmp() {
    let rmc2 = (ModelKind::DlrmRmc2, ModelScale::Production);
    let want = golden::CPU_MODEL_T3_NMP;
    check_dedicated(
        "cpu_model_t3_nmp",
        rmc2,
        ServerType::T3,
        CPU_PLAN,
        300.0,
        8,
        want,
    );
}

#[test]
fn cpu_sd_pipeline_on_t2() {
    let plan = PlacementPlan::CpuSdPipeline {
        sparse_threads: 6,
        sparse_workers: 2,
        dense_threads: 8,
        batch: 256,
    };
    check_dedicated(
        "cpu_sd_t2",
        RMC1,
        ServerType::T2,
        plan,
        400.0,
        9,
        golden::CPU_SD_T2,
    );
}

#[test]
fn gpu_model_with_host_stage_on_t7() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2000),
        host_sparse_threads: 8,
        host_batch: 256,
    };
    let rmc3 = (ModelKind::DlrmRmc3, ModelScale::Production);
    check_dedicated(
        "gpu_host_t7",
        rmc3,
        ServerType::T7,
        plan,
        400.0,
        10,
        golden::GPU_HOST_T7,
    );
}

#[test]
fn gpu_model_without_host_stage_on_t7() {
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: Some(2048),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let small = (ModelKind::DlrmRmc3, ModelScale::Small);
    let want = golden::GPU_NO_HOST_T7;
    check_dedicated(
        "gpu_no_host_t7",
        small,
        ServerType::T7,
        plan,
        2000.0,
        11,
        want,
    );
}

#[test]
fn gpu_model_without_fusion_on_t7() {
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: None,
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let small = (ModelKind::DlrmRmc3, ModelScale::Small);
    let want = golden::GPU_NO_FUSION_T7;
    check_dedicated(
        "gpu_no_fusion_t7",
        small,
        ServerType::T7,
        plan,
        2000.0,
        12,
        want,
    );
}

#[test]
fn hybrid_sd_pipeline_on_t7() {
    let plan = PlacementPlan::HybridSdPipeline {
        sparse_threads: 10,
        sparse_workers: 2,
        gpu_colocated: 2,
        fusion_limit: Some(2000),
        batch: 256,
    };
    check_dedicated(
        "hybrid_t7",
        RMC1,
        ServerType::T7,
        plan,
        500.0,
        13,
        golden::HYBRID_T7,
    );
}

#[test]
fn two_cpu_tenants_on_t2() {
    let tenants = vec![
        TenantSpec::new(
            model(ModelKind::DlrmRmc1, ModelScale::Production),
            Qps(400.0),
        )
        .with_share(2.0),
        TenantSpec::new(
            model(ModelKind::DlrmRmc2, ModelScale::Production),
            Qps(150.0),
        ),
    ];
    let want = golden::COLOCATED_T2;
    check_colocated("colocated_t2", ServerType::T2, CPU_PLAN, tenants, 14, want);
}

#[test]
fn two_gpu_tenants_on_t7() {
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: Some(2000),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let tenants = vec![
        TenantSpec::new(model(ModelKind::DlrmRmc3, ModelScale::Small), Qps(800.0)),
        TenantSpec::new(model(ModelKind::DlrmRmc1, ModelScale::Small), Qps(600.0)),
    ];
    let want = golden::COLOCATED_T7;
    check_colocated("colocated_t7", ServerType::T7, plan, tenants, 15, want);
}
