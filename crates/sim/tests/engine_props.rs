//! Property tests on the discrete-event engine: conservation laws and
//! sanity bounds that must hold for any load level and configuration.

use proptest::prelude::*;

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{simulate, PlacementPlan, SimConfig};

fn quick(seed: u64) -> SimConfig {
    SimConfig {
        duration: SimDuration::from_millis(800),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::ZERO,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: completions never exceed arrivals; throughput never
    /// exceeds offered load (modulo warm-up boundary effects); activities
    /// are valid fractions.
    #[test]
    fn conservation_and_bounds(
        rate in 50.0f64..3000.0,
        threads in 2u32..20,
        workers in 1u32..2,
        batch_pow in 6u32..10,
        seed in 0u64..100,
    ) {
        prop_assume!(threads * workers <= 20);
        let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads,
            workers,
            batch: 1 << batch_pow,
        };
        let r = simulate(&model, &server, &plan, Qps(rate), &quick(seed)).unwrap();
        prop_assert!(r.completed <= r.measured_arrivals);
        // Achieved throughput can exceed offered only by sampling noise.
        prop_assert!(r.achieved.value() <= 1.35 * rate + 50.0);
        for a in [r.cpu_activity, r.mem_activity, r.gpu_activity, r.pcie_activity] {
            prop_assert!((0.0..=1.0).contains(&a), "activity {a}");
        }
        prop_assert!(r.mean_power.value() > 0.0);
        prop_assert!(r.peak_power >= r.mean_power);
        if r.completed > 0 {
            prop_assert!(r.p50 <= r.p95);
            prop_assert!(r.p95 <= r.p99);
            prop_assert!(r.mean_latency > SimDuration::ZERO);
        }
    }

    /// Conservation at the horizon: every arrival is either fully served or
    /// still in flight when the simulation ends — no query vanishes. With
    /// splitting disabled (batch >= the 1000-item size cap, one sub-query
    /// per query) the latency breakdown is exact: queuing + loading +
    /// inference sums to end-to-end latency.
    #[test]
    fn conservation_and_breakdown_sum(
        rate in 100.0f64..6000.0,
        threads in 4u32..16,
        seed in 0u64..100,
    ) {
        let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads,
            workers: 1,
            batch: 1024,
        };
        let r = simulate(&model, &server, &plan, Qps(rate), &quick(seed)).unwrap();
        prop_assert_eq!(
            r.completed_total + r.in_flight_at_horizon,
            r.total_arrivals,
            "arrivals must be completed or queued at the horizon"
        );
        prop_assert!(r.completed <= r.completed_total);
        prop_assert!(r.measured_arrivals <= r.total_arrivals);
        if r.completed > 0 {
            let parts = r.breakdown.queuing.as_secs_f64()
                + r.breakdown.loading.as_secs_f64()
                + r.breakdown.inference.as_secs_f64();
            let mean = r.mean_latency.as_secs_f64();
            prop_assert!(
                (parts - mean).abs() <= 1e-9 + 1e-6 * mean,
                "breakdown {parts} vs end-to-end {mean}"
            );
        }
    }

    /// The latency floor: no query finishes faster than a single-item batch
    /// service time on its fastest path.
    #[test]
    fn latency_floor(seed in 0u64..50) {
        let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 512,
        };
        let r = simulate(&model, &server, &plan, Qps(100.0), &quick(seed)).unwrap();
        prop_assume!(r.completed > 0);
        // A one-item batch through the same topology is the lower bound.
        let topo =
            hercules_sim::build_topology(&model, &server, &plan, &hercules_sim::NmpLutCache::new())
                .unwrap();
        let floor = topo.front.as_ref().unwrap().svc.cost(1).latency;
        prop_assert!(r.p50 >= floor, "p50 {} < floor {}", r.p50, floor);
    }

    /// GPU topologies: fused batches respect the fusion limit (observable
    /// as bounded p95 inflation when the limit shrinks).
    #[test]
    fn gpu_runs_complete(rate in 200.0f64..2000.0, colocated in 1u32..4, seed in 0u64..50) {
        let model = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let server = ServerType::T7.spec();
        let plan = PlacementPlan::GpuModel {
            colocated,
            fusion_limit: Some(2048),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let r = simulate(&model, &server, &plan, Qps(rate), &quick(seed)).unwrap();
        prop_assert!(r.completed <= r.measured_arrivals);
        if r.completed > 0 {
            prop_assert!(r.gpu_activity > 0.0);
            prop_assert!(r.breakdown.loading > SimDuration::ZERO);
        }
    }
}
