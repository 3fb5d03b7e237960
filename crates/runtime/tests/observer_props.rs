//! Observability-plane acceptance properties.
//!
//! The three guarantees the telemetry plane makes:
//!
//! 1. **Non-perturbation** — a virtual-clock run watched by an observer
//!    (with tracing on) produces a report bitwise-identical to the same
//!    run unobserved. Observation boundaries are processed inline between
//!    events, never as heap entries, so event order cannot shift.
//! 2. **Conservation** — windowed snapshot deltas telescope exactly: the
//!    sum of every interval's admitted/shed/completed/batches equals the
//!    end-of-run merged report, under both clocks. No query is counted
//!    twice or lost between windows.
//! 3. **Deterministic tracing** — the 1-in-N sampler is a pure function
//!    of `(seed, query)`, so two identical virtual runs export identical
//!    span streams, and a sampled query's chain is complete
//!    (admit → queue → service → complete).

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    AdmissionPolicy, ClockMode, DeadlinePolicy, FaultPlan, RuntimeConfig, RuntimeObserver,
    ServingRuntime, SpanKind, StageKind, SupervisorPolicy, TraceConfig,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig, SlaSpec};

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

fn build(cfg: RuntimeConfig) -> ServingRuntime {
    ServingRuntime::build(
        &rmc1(),
        ServerType::T2.spec(),
        &quickstart_plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .expect("quickstart plan is feasible")
}

/// Asserts that the snapshot history's windowed deltas sum exactly to the
/// end-of-run report (the telescoping-conservation property).
fn assert_history_conserves(obs: &RuntimeObserver, report: &hercules_runtime::RuntimeReport) {
    let last = obs.history().last().expect("final tick always taken");
    assert_eq!(obs.summed(|s| s.admitted), report.admitted, "admitted");
    assert_eq!(obs.summed(|s| s.shed), report.shed, "shed");
    assert_eq!(last.cum_admitted, report.admitted);
    assert_eq!(last.cum_shed, report.shed);
    assert_eq!(
        obs.summed(|s| s.completed),
        report.sim.completed_total,
        "completed"
    );
    assert_eq!(last.cum_completed, report.sim.completed_total);
    assert_eq!(
        obs.summed(|s| s.completed_degraded),
        report.completed_degraded,
        "completed_degraded"
    );
    assert_eq!(last.cum_completed_degraded, report.completed_degraded);
    assert_eq!(obs.summed(|s| s.expired), report.expired, "expired");
    assert_eq!(last.cum_expired, report.expired);
    assert_eq!(
        obs.summed(|s| s.latency_overflow),
        report.latency_overflow,
        "latency_overflow"
    );
    assert_eq!(last.cum_latency_overflow, report.latency_overflow);
    for stage in &report.stages {
        let windowed: u64 = obs
            .history()
            .iter()
            .flat_map(|snap| snap.stages.iter())
            .filter(|s| s.stage == stage.stage)
            .map(|s| s.batches)
            .sum();
        assert_eq!(windowed, stage.batches, "{:?} batches", stage.stage);
    }
}

#[test]
fn virtual_report_is_bitwise_identical_observed_vs_not() {
    let plain_cfg = RuntimeConfig::from_sim(&sim_cfg(7));
    let traced_cfg = plain_cfg.with_trace(TraceConfig::one_in(64));
    let offered = Qps(500.0);

    let plain = build(plain_cfg).serve(offered);
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
    let watched = build(traced_cfg).serve_observed(offered, &mut obs);

    // Counters.
    assert_eq!(plain.sim.total_arrivals, watched.sim.total_arrivals);
    assert_eq!(plain.sim.completed, watched.sim.completed);
    assert_eq!(plain.sim.completed_total, watched.sim.completed_total);
    assert_eq!(plain.admitted, watched.admitted);
    assert_eq!(plain.shed, watched.shed);
    assert_eq!(
        plain.sim.in_flight_at_horizon,
        watched.sim.in_flight_at_horizon
    );
    // Latency distribution, bit for bit.
    assert_eq!(plain.sim.p50, watched.sim.p50);
    assert_eq!(plain.sim.p95, watched.sim.p95);
    assert_eq!(plain.sim.p99, watched.sim.p99);
    assert_eq!(plain.sim.mean_latency, watched.sim.mean_latency);
    // Power summary flows through f64 accumulation: compare exact bits.
    assert_eq!(
        plain.sim.mean_power.value().to_bits(),
        watched.sim.mean_power.value().to_bits()
    );
    // The observer actually observed something while changing nothing.
    assert!(obs.history().len() >= 2, "mid-run snapshots were taken");
    assert!(watched.trace.is_some(), "tracing was on");
    assert_history_conserves(&obs, &watched);
}

#[test]
fn virtual_snapshot_deltas_conserve_under_shedding() {
    // Overload with a tight budget so shed > 0: the windowed shed counts
    // must still telescope exactly.
    let cfg = RuntimeConfig::from_sim(&sim_cfg(3)).with_admission(AdmissionPolicy::for_sla(
        &SlaSpec::p99(SimDuration::from_millis(20)),
        1.0,
    ));
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(50));
    let report = build(cfg).serve_observed(Qps(12_000.0), &mut obs);
    assert!(report.shed > 0, "overload must shed");
    assert_history_conserves(&obs, &report);
    // Windowed shed is live: at least one mid-run interval saw sheds.
    let mid_shed: u64 = obs.history()[..obs.history().len() - 1]
        .iter()
        .map(|s| s.shed)
        .sum();
    assert!(
        mid_shed > 0,
        "shed counts surface mid-run, not only at the end"
    );
    // Interval QPS is populated and plausible.
    assert!(obs.history().iter().any(|s| s.qps > 0.0));
}

#[test]
fn virtual_snapshot_deltas_conserve_under_degradation_and_expiry() {
    // A supervised, deadline-enforcing run under a stall and a slow core:
    // the ladder degrades gathers and queries blow their deadline, so the
    // degraded and expired windows move and must still telescope exactly.
    let duration = SimDuration::from_millis(2000);
    let seed = 7;
    let model = rmc1();
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration,
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    })
    .with_faults(FaultPlan::scenario("stall+slowcore", seed, duration).expect("known scenario"))
    .with_deadline(DeadlinePolicy::enforce(model.default_sla()))
    .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    };
    let rt = ServingRuntime::build(
        &model,
        ServerType::T2.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("plan is feasible");
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(50));
    let report = rt.serve_observed(Qps(300.0), &mut obs);
    assert!(report.conserves());
    assert!(report.completed_degraded > 0, "the run degrades queries");
    assert!(report.expired > 0, "the run expires queries");
    assert_history_conserves(&obs, &report);
}

#[test]
fn wall_snapshot_deltas_conserve() {
    let sim = SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 5,
    };
    let cfg = RuntimeConfig::from_sim(&sim)
        .with_clock(ClockMode::Wall { time_scale: 0.25 })
        .with_trace(TraceConfig::one_in(16));
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
    let report = build(cfg).serve_observed(Qps(300.0), &mut obs);
    assert!(report.conserves());
    // The final tick happens after every worker joined, so the seqlock
    // slots hold each worker's exact final state: conservation is exact
    // under the wall clock too, not merely approximate.
    assert_history_conserves(&obs, &report);
    assert!(
        obs.history().len() >= 2,
        "observer thread ticked mid-run (history: {})",
        obs.history().len()
    );
    assert!(report.trace.is_some(), "wall runs export traces too");
}

#[test]
fn trace_is_deterministic_and_chains_complete() {
    let cfg = RuntimeConfig::from_sim(&sim_cfg(11)).with_trace(TraceConfig::one_in(64));
    let offered = Qps(500.0);
    let a = build(cfg).serve(offered).trace.expect("tracing on");
    let b = build(cfg).serve(offered).trace.expect("tracing on");
    assert!(!a.is_empty(), "a 2s run at 500 QPS samples some queries");
    assert_eq!(a, b, "identical runs export identical span streams");

    // Every sampled query that completed has a full chain:
    // admit → queue → front service → complete.
    let completed: Vec<u32> = a
        .iter()
        .filter(|e| e.kind == SpanKind::Complete)
        .map(|e| e.query)
        .collect();
    assert!(!completed.is_empty(), "some sampled query completed");
    for q in &completed {
        let kinds: Vec<SpanKind> = a.iter().filter(|e| e.query == *q).map(|e| e.kind).collect();
        assert!(kinds.contains(&SpanKind::Admit), "query {q} missing admit");
        assert!(kinds.contains(&SpanKind::Queue), "query {q} missing queue");
        assert!(
            kinds.contains(&SpanKind::Front),
            "query {q} missing service span"
        );
    }
    // Spans are ordered and the export is well-formed Chrome JSON.
    assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
    let json = hercules_runtime::chrome_trace_json(&a);
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"i\""));

    // An unsampled config exports nothing.
    let off = build(RuntimeConfig::from_sim(&sim_cfg(11))).serve(offered);
    assert!(off.trace.is_none());
}

#[test]
fn gpu_plan_traces_load_and_compute_spans() {
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
    let cfg = RuntimeConfig::from_sim(&sim).with_trace(TraceConfig::one_in(8));
    let rt = ServingRuntime::build(&model, server, &plan, cfg, &NmpLutCache::new()).unwrap();
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(100));
    let report = rt.serve_observed(Qps(2_000.0), &mut obs);
    let trace = report.trace.as_deref().expect("tracing on");
    assert!(trace.iter().any(|e| e.kind == SpanKind::Load));
    assert!(trace.iter().any(|e| e.kind == SpanKind::Gpu));
    // The GPU stage surfaces in snapshots with real utilization.
    let saw_gpu = obs
        .history()
        .iter()
        .flat_map(|s| s.stages.iter())
        .any(|s| s.stage == StageKind::Gpu && s.batches > 0);
    assert!(saw_gpu, "observer saw the GPU stage serve");
    assert_history_conserves(&obs, &report);
}
