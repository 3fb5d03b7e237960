//! Golden outputs of the telemetry exporters.
//!
//! `snapshot_json` and `prometheus_text` render fixed snapshots: the
//! observed histories of two supervised fault runs and of a two-stage
//! pipeline run on the virtual clock, and hand-built snapshots that set
//! what virtual runs leave at zero (gather bandwidth, a cache hit rate,
//! absent and non-finite quantiles, three stages). The NDJSON stream is
//! pinned byte for byte, as a 64-bit FNV-1a digest of its lines plus one
//! literal line. An exposition is pinned up to the order of its families:
//! it is split into families (a HELP line, a TYPE line and the samples in
//! order), which are sorted by name before digesting, so a writer may
//! reorder families but not change one. Readable counts beside each
//! digest say what moved.

use hercules::common::units::{Qps, SimDuration, SimTime};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::observe::{prometheus_text, snapshot_json, StageSnapshot};
use hercules::runtime::{
    DeadlinePolicy, FaultPlan, PlaneSnapshot, RuntimeConfig, RuntimeObserver, ServingRuntime,
    StageKind, SupervisorPolicy,
};
use hercules::sim::{NmpLutCache, PlacementPlan, SimConfig};

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An exposition's families, each its HELP line, its TYPE line and its
/// samples, sorted by family name. Asserts that every family opens with
/// both headers and that its samples carry its name and a number.
fn families(text: &str) -> Vec<(String, Vec<&str>)> {
    let mut out: Vec<(String, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().expect("family name").to_string();
            out.push((name, vec![line]));
            continue;
        }
        let (name, lines) = out.last_mut().expect("a HELP line opens the exposition");
        if lines.len() == 1 {
            let kind = line
                .strip_prefix(&format!("# TYPE {name} "))
                .unwrap_or_else(|| panic!("TYPE line of {name}: {line}"));
            assert!(kind == "counter" || kind == "gauge", "{name}: type {kind}");
        } else {
            let series = line.split([' ', '{']).next().unwrap_or_default();
            assert_eq!(series, name, "sample outside its family: {line}");
            let value = line.rsplit(' ').next().unwrap_or_default();
            assert!(value.parse::<f64>().is_ok(), "sample value: {line}");
        }
        lines.push(line);
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Snapshots, families and samples summed over the expositions, the
/// NDJSON digest and the sorted expositions' digest.
type Pin = [u64; 5];

fn pin(snaps: &[PlaneSnapshot]) -> Pin {
    let ndjson: Vec<String> = snaps.iter().map(snapshot_json).collect();
    let (mut fams, mut samples, mut sorted) = (0, 0, Vec::new());
    for snap in snaps {
        for (_, lines) in families(&prometheus_text(snap)) {
            fams += 1;
            samples += lines.len() as u64 - 2;
            sorted.extend(lines.iter().map(|l| l.to_string()));
        }
        sorted.push(String::new());
    }
    [
        snaps.len() as u64,
        fams,
        samples,
        fnv1a(&ndjson.join("\n")),
        fnv1a(&sorted.join("\n")),
    ]
}

fn check(name: &str, snaps: &[PlaneSnapshot], want: Pin) {
    assert_eq!(pin(snaps), want, "{name}: exporter output changed");
}

/// The history of a supervised, deadline-enforcing run of `scenario`:
/// RMC1 on a T2 with two two-thread workers, seed 7, 2 s, 50 ms ticks.
fn supervised(scenario: &str, offered: f64) -> Vec<PlaneSnapshot> {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let duration = SimDuration::from_secs(2);
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration,
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 7,
    })
    .with_faults(FaultPlan::scenario(scenario, 7, duration).expect("known scenario"))
    .with_deadline(DeadlinePolicy::enforce(model.default_sla()))
    .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    };
    observed(&model, plan, cfg, offered)
}

fn observed(
    model: &RecModel,
    plan: PlacementPlan,
    cfg: RuntimeConfig,
    offered: f64,
) -> Vec<PlaneSnapshot> {
    let rt = ServingRuntime::build(
        model,
        ServerType::T2.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("feasible plan");
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(50));
    rt.serve_observed(Qps(offered), &mut obs);
    obs.into_history()
}

#[test]
fn supervised_stall_and_slow_core() {
    let h = supervised("stall+slowcore", 300.0);
    assert!(h.iter().any(|s| s.degrade_level >= 2 && s.expired > 0));
    check(
        "stall+slowcore",
        &h,
        [40, 658, 653, 14181522706834973944, 17406296533320522060],
    );
}

#[test]
fn supervised_panic() {
    let h = supervised("panic", 250.0);
    assert!(h.iter().any(|s| s.dead_workers > 0));
    check(
        "panic",
        &h,
        [40, 664, 662, 8501023933694131258, 5994696433558117101],
    );
}

#[test]
fn cpu_sd_pipeline() {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_millis(600),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::from_millis(50),
        seed: 9,
    });
    let plan = PlacementPlan::CpuSdPipeline {
        sparse_threads: 6,
        sparse_workers: 2,
        dense_threads: 8,
        batch: 256,
    };
    let h = observed(&model, plan, cfg, 400.0);
    assert!(
        h.iter().all(|s| s.stages.len() == 2),
        "front and back pools"
    );
    check(
        "cpu_sd",
        &h,
        [12, 200, 248, 1482218635620344427, 8560635412081867627],
    );
}

/// A stage with the given windowed and cumulative counts and the rest of
/// its fields idle.
fn stage(stage: StageKind, workers: u32, batches: u64, completed: u64) -> StageSnapshot {
    StageSnapshot {
        stage,
        workers,
        batches,
        items: batches * 24,
        completed,
        completed_degraded: 0,
        expired: 0,
        cum_batches: batches * 9,
        cum_completed: completed * 9,
        queue_depth: 0,
        queue_wait_p50: None,
        queue_wait_p99: None,
        e2e_p50: None,
        e2e_p99: None,
        gather_gbs: 0.0,
        cache_hit_rate: None,
        utilization: 0.0,
    }
}

/// Three stages with what virtual runs leave at zero: a gathering, cached
/// front pool, a back pool with no queue-wait tail, non-finite quantiles;
/// then the same plane idle over the next interval.
fn hand_built() -> [PlaneSnapshot; 2] {
    let front = StageSnapshot {
        completed_degraded: 9,
        expired: 2,
        queue_depth: 7,
        queue_wait_p50: Some(0.000_4),
        queue_wait_p99: Some(0.003_125),
        gather_gbs: 12.75,
        cache_hit_rate: Some(0.8125),
        utilization: 0.937_5,
        ..stage(StageKind::Front, 4, 30, 0)
    };
    let back = StageSnapshot {
        queue_depth: 3,
        queue_wait_p50: Some(f64::NAN),
        e2e_p50: Some(0.0125),
        e2e_p99: Some(0.037_5),
        utilization: 0.5,
        ..stage(StageKind::Back, 2, 30, 100)
    };
    let gpu = StageSnapshot {
        queue_wait_p50: Some(0.001),
        queue_wait_p99: Some(f64::INFINITY),
        e2e_p50: Some(0.02),
        e2e_p99: Some(0.05),
        utilization: 0.25,
        ..stage(StageKind::Gpu, 3, 12, 20)
    };
    let busy = PlaneSnapshot {
        t: SimTime::from_millis(1250),
        interval: SimDuration::from_millis(250),
        stages: vec![front, back, gpu],
        admitted: 130,
        shed: 4,
        cum_admitted: 1200,
        cum_shed: 31,
        completed: 120,
        cum_completed: 1080,
        completed_degraded: 9,
        cum_completed_degraded: 40,
        expired: 2,
        cum_expired: 17,
        latency_overflow: 1,
        cum_latency_overflow: 3,
        suspect_workers: 1,
        dead_workers: 1,
        degrade_level: 2,
        qps: 480.0,
        e2e_p50: Some(0.0125),
        e2e_p99: Some(f64::INFINITY),
    };
    let idle = PlaneSnapshot {
        t: SimTime::from_millis(1500),
        stages: busy
            .stages
            .iter()
            .map(|s| StageSnapshot {
                cum_batches: s.cum_batches,
                cum_completed: s.cum_completed,
                ..stage(s.stage, s.workers, 0, 0)
            })
            .collect(),
        admitted: 0,
        shed: 0,
        completed: 0,
        completed_degraded: 0,
        expired: 0,
        latency_overflow: 0,
        suspect_workers: 0,
        dead_workers: 0,
        degrade_level: 0,
        qps: 0.0,
        e2e_p50: None,
        e2e_p99: None,
        ..busy.clone()
    };
    [busy, idle]
}

/// The busy hand-built snapshot's NDJSON line.
const BUSY_JSON: &str = concat!(
    r#"{"t_s":1.25,"interval_s":0.25,"qps":480.0,"completed":120,"cum_completed":1080,"#,
    r#""admitted":130,"shed":4,"cum_admitted":1200,"cum_shed":31,"completed_degraded":9,"#,
    r#""cum_completed_degraded":40,"expired":2,"cum_expired":17,"latency_overflow":1,"#,
    r#""cum_latency_overflow":3,"suspect_workers":1,"dead_workers":1,"degrade_level":2,"#,
    r#""e2e_p50_s":0.0125,"e2e_p99_s":null,"queue_depth":10,"stages":[{"stage":"front","#,
    r#""workers":4,"batches":30,"items":720,"completed":0,"queue_depth":7,"#,
    r#""queue_wait_p50_s":0.0004,"queue_wait_p99_s":0.003125,"e2e_p50_s":null,"#,
    r#""e2e_p99_s":null,"gather_gbs":12.75,"cache_hit_rate":0.8125,"utilization":0.9375},"#,
    r#"{"stage":"back","workers":2,"batches":30,"items":720,"completed":100,"#,
    r#""queue_depth":3,"queue_wait_p50_s":null,"queue_wait_p99_s":null,"e2e_p50_s":0.0125,"#,
    r#""e2e_p99_s":0.0375,"gather_gbs":0.0,"cache_hit_rate":null,"utilization":0.5},"#,
    r#"{"stage":"gpu","workers":3,"batches":12,"items":288,"completed":20,"queue_depth":0,"#,
    r#""queue_wait_p50_s":0.001,"queue_wait_p99_s":null,"e2e_p50_s":0.02,"e2e_p99_s":0.05,"#,
    r#""gather_gbs":0.0,"cache_hit_rate":null,"utilization":0.25}]}"#,
);

#[test]
fn hand_built_snapshots() {
    let snaps = hand_built();
    assert_eq!(snapshot_json(&snaps[0]), BUSY_JSON);
    check(
        "hand_built",
        &snaps,
        [2, 34, 46, 2597363462018586581, 8158931511669271263],
    );
}
