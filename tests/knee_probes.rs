//! Knee probes decide what full runs decide, for less work.
//!
//! A simulator knee probe (`sim::probe`) stops once more of its measured
//! completions exceed the SLA target than the tail tolerates
//! (`SlaSpec::misses_allowed`), and replays its arrivals from one seed's
//! unit-rate draws (`UnitDraws`) instead of drawing them again. These
//! tests hold the bound tight against `PercentileTracker`, every probe's
//! verdict and report to the full simulation's, and every replay to
//! `QueryStream::paper`.

use std::collections::HashMap;

use hercules::common::stats::PercentileTracker;
use hercules::common::units::{Qps, SimDuration, SimTime};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::sim::{
    build_topology, probe, simulate_with_topology, NmpLutCache, PlacementPlan, SimConfig, SlaSpec,
    Tail,
};
use hercules::workload::generator::{QueryStream, UnitDraws};

/// The largest measured-arrival count the bound is checked at.
const MAX_MEASURED: u64 = 400;

/// `sla`'s tail over a tracker's samples, converted as the simulator's
/// report converts it.
fn tail(sla: &SlaSpec, t: &mut PercentileTracker) -> SimDuration {
    let q = Tail::snap(sla.percentile).quantile();
    SimDuration::from_secs_f64(t.quantile(q).expect("samples recorded"))
}

#[test]
fn the_miss_bound_is_tight_against_the_tracker() {
    // The reported quantiles, and percentiles that snap to each of them.
    for percentile in [0.5, 0.95, 0.99, 0.6, 0.9, 0.98] {
        let sla = SlaSpec {
            target: SimDuration::from_millis(40),
            percentile,
        };
        // Samples exactly at the target meet it; one nanosecond past misses.
        let at = sla.target.as_secs_f64();
        let past = (sla.target + SimDuration::from_nanos(1)).as_secs_f64();
        // The fewest completions, from `over` up, at which `over` of them
        // past the target leave the tail within it (one more than the
        // largest count checked when none does): every count below it
        // misses.
        let mut first_pass = HashMap::new();
        let mut first_pass_of = |over: u64| {
            *first_pass.entry(over).or_insert_with(|| {
                let mut t = PercentileTracker::new();
                (0..over).for_each(|_| t.record(past));
                let mut n = over;
                while n <= MAX_MEASURED && tail(&sla, &mut t) > sla.target {
                    t.record(at);
                    n += 1;
                }
                n
            })
        };
        for measured in 1..=MAX_MEASURED {
            let allowed = sla.misses_allowed(measured);
            assert!(
                first_pass_of(allowed + 1) > measured,
                "p{percentile}: {} misses must fail every run of up to {measured} completions",
                allowed + 1
            );
            let mut t = PercentileTracker::new();
            (0..allowed).for_each(|_| t.record(past));
            (allowed..measured).for_each(|_| t.record(at));
            assert!(
                tail(&sla, &mut t) <= sla.target,
                "p{percentile}: {allowed} misses among {measured} completions must pass"
            );
        }
    }
}

/// Every dedicated plan shape of `tests/engine_golden.rs`.
const SHAPES: [(ModelKind, ModelScale, ServerType, PlacementPlan); 7] = [
    (
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        },
    ),
    (
        ModelKind::DlrmRmc2,
        ModelScale::Production,
        ServerType::T3,
        PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        },
    ),
    (
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        PlacementPlan::CpuSdPipeline {
            sparse_threads: 6,
            sparse_workers: 2,
            dense_threads: 8,
            batch: 256,
        },
    ),
    (
        ModelKind::DlrmRmc3,
        ModelScale::Production,
        ServerType::T7,
        PlacementPlan::GpuModel {
            colocated: 2,
            fusion_limit: Some(2000),
            host_sparse_threads: 8,
            host_batch: 256,
        },
    ),
    (
        ModelKind::DlrmRmc3,
        ModelScale::Small,
        ServerType::T7,
        PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(2048),
            host_sparse_threads: 0,
            host_batch: 256,
        },
    ),
    (
        ModelKind::DlrmRmc3,
        ModelScale::Small,
        ServerType::T7,
        PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: None,
            host_sparse_threads: 0,
            host_batch: 256,
        },
    ),
    (
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T7,
        PlacementPlan::HybridSdPipeline {
            sparse_threads: 10,
            sparse_workers: 2,
            gpu_colocated: 2,
            fusion_limit: Some(2000),
            batch: 256,
        },
    ),
];

#[test]
fn early_verdict_probes_decide_as_full_runs_do() {
    for (i, &(kind, scale, stype, plan)) in SHAPES.iter().enumerate() {
        let model = RecModel::build(kind, scale);
        let server = stype.spec();
        let topo = build_topology(&model, &server, &plan, &NmpLutCache::new()).expect("feasible");
        // Twice the default target, so the heaviest shape (RMC2 on a T3)
        // meets it at the ladder's lowest rate.
        let sla = SlaSpec {
            target: model.default_sla() * 2,
            percentile: [0.5, 0.95, 0.99][i % 3],
        };
        let cfg = SimConfig {
            duration: SimDuration::from_millis(600),
            warmup_fraction: 0.1,
            drain_margin: sla.target * 2,
            seed: 40 + i as u64,
        };
        let mut draws = UnitDraws::paper(cfg.seed);
        let (mut met, mut missed) = (0, 0);
        // A doubling ladder from well under every shape's knee to well
        // over it.
        for k in 0..10 {
            let rate = Qps(100.0 * f64::from(1 << k));
            let full = simulate_with_topology(&topo, &server, rate, &cfg).expect("valid rate");
            let probed = probe(&topo, &server, rate, &cfg, &sla, &mut draws).expect("valid rate");
            let name = format!("{} at {rate}", plan.label());
            match probed {
                None => {
                    assert!(
                        !full.meets(&sla),
                        "{name}: the probe missed a run that meets"
                    );
                    missed += 1;
                }
                Some(report) => {
                    assert!(full.meets(&sla), "{name}: the probe met a run that misses");
                    assert_eq!(format!("{report:?}"), format!("{full:?}"), "{name}");
                    met += 1;
                }
            }
        }
        assert!(
            met > 0 && missed > 0,
            "{}: the ladder must straddle the knee ({met} met, {missed} missed)",
            plan.label()
        );
    }
}

#[test]
fn unit_draws_replay_the_paper_stream_at_any_rate() {
    let horizon = SimTime::from_millis(500);
    let mut draws = UnitDraws::paper(0xFACE);
    let rising = [37.5, 400.0, 3_000.0, 20_000.0];
    for rate in rising.into_iter().chain(rising.into_iter().rev()) {
        let replayed: Vec<_> = draws.replay(Qps(rate), horizon).collect();
        let drawn = QueryStream::paper(Qps(rate), 0xFACE).take_until(horizon);
        assert!(!drawn.is_empty());
        assert_eq!(replayed, drawn, "replay at {rate} QPS");
    }
}
