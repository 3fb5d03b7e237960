//! Golden outputs of the virtual-clock serving runtime and the fleet.
//!
//! Each case runs a short seeded virtual-clock run and compares a 64-bit
//! FNV-1a digest of the result's `Debug` string (f64 `Debug` round-trips
//! exactly, so the digest covers every bit of every field) with the value
//! recorded before the runtime's executors were refactored. A few readable
//! counts are pinned beside each digest, so a failure says what moved.
//!
//! The cases span the runtime's paths: whole-model CPU light and
//! overloaded (admission and backpressure shedding), the CPU S-D pipeline,
//! the GPU with fusion and a batching delay, with a host cold-sparse stage
//! and with fusion off, supervised deadline-enforcing runs under injected
//! faults, an observed history, a fully traced run, a rate search, a
//! faulted autoscaled fleet with failover, and an epoch-driven stepper
//! replay. Each case asserts that the path it pins actually fired.

use hercules::common::units::{Qps, SimDuration, SimTime};
use hercules::fleet::{run_virtual_fleet, AutoscalerPolicy, FleetConfig};
use hercules::hw::cost::{CacheModel, CacheSpec};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::{
    max_qps_under_sla_live, AdmissionPolicy, BatchPolicy, DeadlinePolicy, FaultPlan, RuntimeConfig,
    RuntimeObserver, RuntimeReport, ServingRuntime, StageKind, SupervisorPolicy, TraceConfig,
};
use hercules::sim::{NmpLutCache, PlacementPlan, SearchOptions, SimConfig, SlaSpec};
use hercules::workload::generator::QueryStream;
use hercules::workload::query::{Query, QueryId};

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(v: &impl std::fmt::Debug) -> u64 {
    fnv1a(&format!("{v:?}"))
}

/// `total_arrivals`, `completed_total`, `shed`, `expired`,
/// `completed_degraded`, `worker_failures`.
type Counts = [u64; 6];

fn counts(r: &RuntimeReport) -> Counts {
    [
        r.sim.total_arrivals,
        r.sim.completed_total,
        r.shed,
        r.expired,
        r.completed_degraded,
        r.worker_failures,
    ]
}

fn check(name: &str, r: &RuntimeReport, want_counts: Counts, want_digest: u64) {
    assert!(r.conserves(), "{name}: report does not conserve");
    assert_eq!(counts(r), want_counts, "{name}: counts changed");
    assert_eq!(digest(r), want_digest, "{name}: golden bits changed");
}

const RMC1: (ModelKind, ModelScale) = (ModelKind::DlrmRmc1, ModelScale::Production);
const RMC3: (ModelKind, ModelScale) = (ModelKind::DlrmRmc3, ModelScale::Production);
const RMC3_SMALL: (ModelKind, ModelScale) = (ModelKind::DlrmRmc3, ModelScale::Small);

const CPU_PLAN: PlacementPlan = PlacementPlan::CpuModel {
    threads: 10,
    workers: 2,
    batch: 256,
};

/// Two front workers: one stalled or slowed worker is half the pool.
const SMALL_CPU_PLAN: PlacementPlan = PlacementPlan::CpuModel {
    threads: 2,
    workers: 2,
    batch: 256,
};

fn cfg(duration_ms: u64, seed: u64) -> RuntimeConfig {
    RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_millis(duration_ms),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::from_millis(50),
        seed,
    })
}

fn build(
    (kind, scale): (ModelKind, ModelScale),
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

fn sla() -> SimDuration {
    RecModel::build(RMC1.0, RMC1.1).default_sla()
}

#[test]
fn cpu_model_light() {
    let r = build(RMC1, ServerType::T2, CPU_PLAN, cfg(800, 7)).serve(Qps(400.0));
    assert_eq!(r.shed, 0);
    check(
        "cpu_model_light",
        &r,
        [316, 313, 0, 0, 0, 0],
        1740998907037077,
    );
}

#[test]
fn cpu_model_overloaded_sheds_on_budget_and_backpressure() {
    let admission = AdmissionPolicy::for_sla(&SlaSpec::p99(sla()), 0.5);
    let base = cfg(600, 21);
    let run = |c: RuntimeConfig| build(RMC1, ServerType::T2, CPU_PLAN, c).serve(Qps(4000.0));
    let both = run(base.with_admission(admission).with_queue_depth(QUEUE_DEPTH));
    let budget_only = run(base.with_admission(admission));
    let depth_only = run(base.with_queue_depth(QUEUE_DEPTH));
    assert!(budget_only.shed > 0, "the admission budget sheds alone");
    assert!(depth_only.shed > 0, "the bounded queue sheds alone");
    assert!(
        both.shed != budget_only.shed && both.shed != depth_only.shed,
        "both limits bind in the combined run"
    );
    check(
        "cpu_model_overloaded",
        &both,
        [2354, 1585, 742, 0, 0, 0],
        2018828640969886269,
    );
}

/// Between the depths at which the two limits bind alone: at 27 queued
/// sub-queries the budget still admits, and a multi-sub query overflows.
const QUEUE_DEPTH: usize = 27;

#[test]
fn cpu_sd_pipeline() {
    let plan = PlacementPlan::CpuSdPipeline {
        sparse_threads: 6,
        sparse_workers: 2,
        dense_threads: 8,
        batch: 256,
    };
    let r = build(RMC1, ServerType::T2, plan, cfg(600, 9)).serve(Qps(400.0));
    assert_eq!(r.stages.len(), 2, "front and back pools");
    check("cpu_sd", &r, [236, 234, 0, 0, 0, 0], 6548339889954827500);
}

#[test]
fn gpu_fused_with_batching_delay() {
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: Some(2048),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let c = cfg(500, 11).with_batch(BatchPolicy {
        max_delay: SimDuration::from_micros(300),
    });
    let r = build(RMC3_SMALL, ServerType::T7, plan, c).serve(Qps(2000.0));
    let gpu = &r.stages[0];
    assert!(gpu.items > gpu.batches, "batches fuse several sub-queries");
    check(
        "gpu_fused_delay",
        &r,
        [1019, 1017, 0, 0, 0, 0],
        2784562184502904354,
    );
}

#[test]
fn gpu_with_host_cold_sparse_stage() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2000),
        host_sparse_threads: 8,
        host_batch: 256,
    };
    let r = build(RMC3, ServerType::T7, plan, cfg(600, 10)).serve(Qps(400.0));
    assert_eq!(r.stages.len(), 2, "host front stage and GPU contexts");
    check("gpu_host", &r, [223, 223, 0, 0, 0, 0], 9155906471233286686);
}

#[test]
fn gpu_without_fusion() {
    let plan = PlacementPlan::GpuModel {
        colocated: 3,
        fusion_limit: None,
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let r = build(RMC3_SMALL, ServerType::T7, plan, cfg(500, 12)).serve(Qps(2000.0));
    check(
        "gpu_no_fusion",
        &r,
        [988, 986, 0, 0, 0, 0],
        15961781107863003741,
    );
}

/// A deadline-enforcing supervised run of `scenario` on `plan`.
fn supervised(
    model: (ModelKind, ModelScale),
    server: ServerType,
    plan: PlacementPlan,
    scenario: &str,
    offered: f64,
    seed: u64,
) -> RuntimeReport {
    let base = cfg(1000, seed);
    let faults = FaultPlan::scenario(scenario, seed, base.duration).expect("known scenario");
    let c = base
        .with_faults(faults)
        .with_deadline(DeadlinePolicy::enforce(sla()))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    build(model, server, plan, c).serve(Qps(offered))
}

#[test]
fn supervised_stall_and_slow_core() {
    let r = supervised(
        RMC1,
        ServerType::T2,
        SMALL_CPU_PLAN,
        "stall+slowcore",
        250.0,
        7,
    );
    assert!(r.expired > 0, "deadline drops fire");
    assert!(r.completed_degraded > 0, "the ladder degrades gathers");
    check(
        "supervised_stall_slowcore",
        &r,
        [237, 197, 37, 3, 69, 0],
        2658944892395388761,
    );
}

#[test]
fn supervised_chaos() {
    let r = supervised(RMC1, ServerType::T2, SMALL_CPU_PLAN, "chaos", 250.0, 3);
    assert!(r.shed > 0, "the ladder sheds at L3");
    assert!(r.expired > 0, "deadline drops fire");
    check(
        "supervised_chaos",
        &r,
        [263, 190, 61, 12, 104, 0],
        4687167383178257557,
    );
}

#[test]
fn supervised_panic() {
    let r = supervised(RMC1, ServerType::T2, SMALL_CPU_PLAN, "panic", 250.0, 5);
    assert_eq!(r.worker_failures, 1, "the injected panic kills one worker");
    check(
        "supervised_panic",
        &r,
        [232, 231, 0, 0, 81, 1],
        6583316878362899478,
    );
}

#[test]
fn supervised_gpu_fault() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2048),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let r = supervised(RMC3_SMALL, ServerType::T7, plan, "gpu", 5000.0, 13);
    let clean = supervised(RMC3_SMALL, ServerType::T7, plan, "none", 5000.0, 13);
    assert_eq!(clean.shed, 0, "the clean run keeps up");
    assert!(r.shed > 0, "the GPU fault drives the ladder to shedding");
    check(
        "supervised_gpu",
        &r,
        [5194, 4258, 920, 0, 0, 0],
        4068256277374758701,
    );
}

fn paper_trace(c: &RuntimeConfig, offered: f64) -> Vec<Query> {
    QueryStream::paper(Qps(offered), c.seed).take_until(SimTime::ZERO + c.duration)
}

#[test]
fn observed_trace_history() {
    let c = cfg(800, 17).with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(5)));
    let rt = build(RMC1, ServerType::T2, SMALL_CPU_PLAN, c);
    let trace = paper_trace(&c, 300.0);
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(40));
    let r = rt.serve_trace_observed(&trace, Qps(300.0), Some(&mut obs));
    assert_eq!(obs.history().len(), 20, "one snapshot per boundary");
    assert!(r.completed_degraded == 0 && r.shed == 0);
    check(
        "observed_report",
        &r,
        [240, 239, 0, 0, 0, 0],
        16977519681068701713,
    );
    assert_eq!(
        digest(&obs.history()),
        5174524341251533731,
        "observed history bits changed"
    );
}

#[test]
fn fully_traced_run() {
    let plan = PlacementPlan::GpuModel {
        colocated: 2,
        fusion_limit: Some(2000),
        host_sparse_threads: 8,
        host_batch: 256,
    };
    let c = cfg(300, 19).with_trace(TraceConfig::one_in(1));
    let r = build(RMC3, ServerType::T7, plan, c).serve(Qps(300.0));
    let spans = r.trace.as_ref().map_or(0, Vec::len);
    assert!(spans > 0, "every query is traced");
    check("traced", &r, [92, 91, 0, 0, 0, 0], 7843363029810047819);
}

#[test]
fn live_rate_search() {
    let opts = SearchOptions {
        refine_iters: 3,
        target_queries: Some(800),
        ..SearchOptions::default()
    };
    let out = max_qps_under_sla_live(
        &RecModel::build(RMC1.0, RMC1.1),
        &ServerType::T2.spec(),
        &SMALL_CPU_PLAN,
        &SlaSpec::p99(sla()),
        &cfg(2000, 23),
        &opts,
        &NmpLutCache::new(),
    )
    .expect("feasible plan")
    .expect("some rate meets the SLA");
    assert_eq!(out.qps.value(), 768.0, "searched rate changed");
    assert_eq!(
        digest(&out),
        14861111210291305249,
        "search outcome bits changed"
    );
}

#[test]
fn faulted_fleet_with_autoscaler_and_failover() {
    let duration = SimDuration::from_millis(1500);
    let seed = 29;
    let base = cfg(1500, seed)
        .with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla()), 0.5))
        .with_deadline(DeadlinePolicy::enforce(sla()))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let at = SimTime::ZERO + duration.mul_f64(0.3);
    let hang = FaultPlan::none()
        .with_stall(StageKind::Front, 0, at, duration.mul_f64(0.5))
        .with_stall(StageKind::Front, 1, at, duration.mul_f64(0.5));
    let pool: Vec<ServingRuntime> = (0..3)
        .map(|i| {
            let c = if i == 0 { base.with_faults(hang) } else { base };
            build(RMC1, ServerType::T2, SMALL_CPU_PLAN, c)
        })
        .collect();
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        shards: 32,
        initial_replicas: 1,
        autoscaler: Some(AutoscalerPolicy {
            max_replicas: 3,
            ..AutoscalerPolicy::default()
        }),
        failover: true,
        drain_after: 1,
    };
    let trace = paper_trace(&base, 250.0);
    let r = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, Qps(250.0));
    assert!(r.conserves());
    assert!(r.drained > 0, "the hung replica drains");
    assert!(r.scale_outs > 0, "the autoscaler adds replicas");
    assert_eq!(
        [r.routed, r.rerouted, r.router_dropped, r.peak_active as u64],
        [352, 215, 0, 2],
        "fleet counts changed"
    );
    assert_eq!(
        digest(&r),
        13565467548255999868,
        "fleet report bits changed"
    );
}

#[test]
fn epoch_driven_stepper_replay() {
    let c = cfg(1000, 31)
        .with_faults(
            FaultPlan::scenario("stall+slowcore", 31, SimDuration::from_millis(1000)).unwrap(),
        )
        .with_deadline(DeadlinePolicy::enforce(sla()))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let rt = build(RMC1, ServerType::T2, SMALL_CPU_PLAN, c);
    let trace = paper_trace(&c, 300.0);
    let epoch = SimDuration::from_millis(50);
    let mut obs = RuntimeObserver::every(epoch);
    let mut stepper = rt.stepper();
    let horizon = stepper.horizon();
    let (mut qi, mut now) = (0, SimTime::ZERO);
    while now < horizon {
        let end = (now + epoch).min(horizon);
        while qi < trace.len()
            && (trace[qi].arrival < end || (end == horizon && trace[qi].arrival <= end))
        {
            stepper.inject(trace[qi]);
            qi += 1;
        }
        stepper.step_until(end);
        if end < horizon {
            stepper.observe(&mut obs, end);
        }
        now = end;
    }
    let r = stepper.finish(Qps(300.0), Some(&mut obs));
    assert!(r.expired > 0, "deadline drops fire");
    check(
        "stepper_replay",
        &r,
        [288, 224, 48, 15, 86, 0],
        15852102989613282397,
    );
    assert_eq!(
        digest(&obs.history()),
        15936638931217778024,
        "stepper history bits changed"
    );
}

/// Load phases of `ms` milliseconds at `qps` each, back to back:
/// seeded Poisson arrivals, ids renumbered in arrival order.
fn phased_trace(phases: &[(u64, f64)], seed: u64) -> Vec<Query> {
    let mut out: Vec<Query> = Vec::new();
    let mut start = SimTime::ZERO;
    for (k, &(ms, qps)) in phases.iter().enumerate() {
        let len = SimDuration::from_millis(ms);
        let mut stream = QueryStream::paper(Qps(qps), seed + k as u64);
        for q in stream.take_until(SimTime::ZERO + len) {
            out.push(Query {
                id: QueryId(out.len() as u64),
                arrival: start + (q.arrival - SimTime::ZERO),
                size: q.size,
            });
        }
        start += len;
    }
    out
}

/// fleet-day in miniature: eight replicas, four active at the start,
/// cache-weighted shard placement, and a load that rises past what four
/// replicas serve and falls back, so the autoscaler scales out and in.
#[test]
fn wide_autoscaled_fleet_with_cache_weighted_shards() {
    let model = RecModel::build(RMC1.0, RMC1.1);
    let c = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_millis(2500),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 37,
    })
    .with_deadline(DeadlinePolicy::track(sla()))
    .with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla()), 1.0));
    let pool: Vec<ServingRuntime> = (0..8)
        .map(|_| build(RMC1, ServerType::T2, SMALL_CPU_PLAN, c))
        .collect();
    let cache = CacheModel::plan(CacheSpec::per_worker_mib(64), &model.tables);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        shards: 256,
        initial_replicas: 4,
        autoscaler: Some(AutoscalerPolicy {
            max_replicas: 8,
            wait_in_s: sla().as_secs_f64() / 2.0,
            ..AutoscalerPolicy::default()
        }),
        ..FleetConfig::default()
    };
    let trace = phased_trace(&[(500, 3000.0), (1000, 9000.0), (1000, 1000.0)], 37);
    let offered = Qps(trace.len() as f64 / 2.5);
    let r = run_virtual_fleet(&pool, Some(&cache), &fleet_cfg, &trace, offered);
    assert!(r.conserves());
    assert!(r.scale_outs > 0, "the autoscaler adds replicas");
    assert!(r.scale_ins > 0, "the autoscaler retires replicas");
    assert!(r.peak_active > 4, "the fleet grows past its start");
    let snapshots: usize = r.replicas.iter().map(|rep| rep.snapshots.len()).sum();
    assert_eq!(
        [
            r.routed,
            r.rerouted,
            r.router_dropped,
            r.peak_active as u64,
            u64::from(r.scale_outs),
            u64::from(r.scale_ins),
        ],
        [11466, 6152, 0, 6, 4, 7],
        "fleet counts changed"
    );
    assert_eq!(
        [r.completed_total(), r.shed(), r.expired(), snapshots as u64],
        [8131, 3327, 0, 351],
        "replica counts changed"
    );
    assert_eq!(
        digest(&r),
        9329159412757656126,
        "wide fleet report bits changed"
    );
}
