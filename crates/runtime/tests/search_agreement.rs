//! The live runtime's latency-bounded throughput search agrees with the
//! simulator's: same oracle, same streams, same knee finder, so the two land
//! on the same operating point within the runtime's histogram resolution
//! and batching differences.

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{max_qps_under_sla_live, RuntimeConfig};
use hercules_sim::{
    max_qps_under_sla, NmpLutCache, PlacementPlan, SearchOptions, SimConfig, SlaSpec,
};

#[test]
fn runtime_search_agrees_with_sim_search() {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let server = ServerType::T2.spec();
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let sla = SlaSpec::p95(SimDuration::from_millis(40));
    let sim = SimConfig::quick(5);
    let opts = SearchOptions {
        refine_iters: 4,
        target_queries: Some(2_500),
        ..SearchOptions::default()
    };
    let luts = NmpLutCache::new();

    let simulated = max_qps_under_sla(&model, &server, &plan, &sla, &sim, &opts, &luts)
        .expect("feasible plan")
        .expect("simulator sustains load");
    let live = max_qps_under_sla_live(
        &model,
        &server,
        &plan,
        &sla,
        &RuntimeConfig::from_sim(&sim),
        &opts,
        &luts,
    )
    .expect("feasible plan")
    .expect("runtime sustains load");

    let ratio = live.qps.value() / simulated.qps.value();
    assert!(
        (0.75..=1.33).contains(&ratio),
        "searches diverge: runtime {} vs sim {} ({ratio}x)",
        live.qps,
        simulated.qps,
    );
    assert!(live.qps > Qps(0.0));
    assert!(live.report.peak_power.value() > 0.0);
}
