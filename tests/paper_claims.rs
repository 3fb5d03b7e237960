//! Qualitative paper claims, asserted as integration tests: these are the
//! "shape" results the reproduction must preserve (the `hercules-bench`
//! targets print the quantitative comparison, one table or figure each).

use hercules::common::units::Qps;
use hercules::core::eval::{CachedEvaluator, EvalContext};
use hercules::core::search::baselines::deeprecsys_search;
use hercules::core::search::gradient::GradientOptions;
use hercules::core::search::hercules_task_search;
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::sim::{simulate, PlacementPlan, SimConfig, SlaSpec};

fn evaluator(kind: ModelKind, scale: ModelScale, server: ServerType, seed: u64) -> CachedEvaluator {
    let model = RecModel::build(kind, scale);
    let sla = SlaSpec::p95(model.default_sla());
    CachedEvaluator::new(EvalContext::new(model, server.spec(), sla).quick(seed))
}

/// §VI-A / Fig. 14: the Hercules task scheduler beats the DeepRecSys
/// baseline on CPU servers for a multi-hot DLRM.
#[test]
fn hercules_beats_deeprecsys_on_cpu_rmc1() {
    let opts = GradientOptions::coarse();
    let mut ev = evaluator(
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        1,
    );
    let base = deeprecsys_search(&mut ev, &opts.batch_levels)
        .best
        .expect("baseline feasible");
    let ours = hercules_task_search(&mut ev, &opts)
        .best
        .expect("hercules feasible");
    assert!(
        ours.qps.value() >= 1.05 * base.qps.value(),
        "expected a real win: {} vs {}",
        ours.qps,
        base.qps
    );
}

/// §III-B / Fig. 6: on the accelerator, co-location + query fusion beats
/// the no-fusion baseline substantially for a compute-dominated model.
#[test]
fn fusion_and_colocation_beat_baseline_on_gpu() {
    let opts = GradientOptions::coarse();
    let mut ev = evaluator(ModelKind::MtWnd, ModelScale::Small, ServerType::T7, 2);
    let no_fusion = ev
        .evaluate(&PlacementPlan::GpuModel {
            colocated: 1,
            fusion_limit: None,
            host_sparse_threads: 0,
            host_batch: 256,
        })
        .expect("bare GPU plan feasible");
    let ours = hercules_task_search(&mut ev, &opts)
        .best
        .expect("hercules feasible");
    assert!(
        ours.qps.value() >= 2.0 * no_fusion.qps.value(),
        "fusion should win big: {} vs {}",
        ours.qps,
        no_fusion.qps
    );
}

/// §VI-B / Fig. 15: NMP raises throughput for the multi-hot
/// (Gather-and-Reduce) model but not for a one-hot model, where it only
/// adds idle power.
#[test]
fn nmp_helps_multi_hot_not_one_hot() {
    let opts = GradientOptions::coarse();
    // RMC1 (multi-hot): T3 (NMPx2) must beat T2 (plain DDR4).
    let mut cpu = evaluator(
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T2,
        3,
    );
    let mut nmp = evaluator(
        ModelKind::DlrmRmc1,
        ModelScale::Production,
        ServerType::T3,
        3,
    );
    let q_cpu = hercules_task_search(&mut cpu, &opts).best.expect("T2 ok");
    let q_nmp = hercules_task_search(&mut nmp, &opts).best.expect("T3 ok");
    assert!(
        q_nmp.qps.value() > 1.2 * q_cpu.qps.value(),
        "NMP speedup for RMC1: {} vs {}",
        q_nmp.qps,
        q_cpu.qps
    );

    // MT-WnD (one-hot): no meaningful NMP throughput gain, worse QPS/W.
    let mut cpu_w = evaluator(ModelKind::MtWnd, ModelScale::Production, ServerType::T2, 4);
    let mut nmp_w = evaluator(ModelKind::MtWnd, ModelScale::Production, ServerType::T3, 4);
    let w_cpu = hercules_task_search(&mut cpu_w, &opts).best.expect("T2 ok");
    let w_nmp = hercules_task_search(&mut nmp_w, &opts).best.expect("T3 ok");
    assert!(
        w_nmp.qps.value() < 1.15 * w_cpu.qps.value(),
        "one-hot NMP gives no real speedup: {} vs {}",
        w_nmp.qps,
        w_cpu.qps
    );
    assert!(
        w_nmp.qps_per_watt() < w_cpu.qps_per_watt(),
        "NMP idle power hurts one-hot efficiency"
    );
}

/// §III-A / Fig. 4: at a tight SLA, 10 threads x 2 cores beats DeepRecSys's
/// 20 x 1 for DLRM-RMC1 on CPU-T2.
#[test]
fn op_parallelism_beats_max_colocation_at_tight_sla() {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let sla = SlaSpec::p95(model.default_sla()); // 20 ms
    let mut ev = CachedEvaluator::new(EvalContext::new(model, ServerType::T2.spec(), sla).quick(5));
    let mut best = |threads: u32, workers: u32| {
        [64u32, 128, 256, 512]
            .iter()
            .filter_map(|&batch| {
                ev.evaluate(&PlacementPlan::CpuModel {
                    threads,
                    workers,
                    batch,
                })
            })
            .map(|e| e.qps.value())
            .fold(0.0_f64, f64::max)
    };
    let q20x1 = best(20, 1);
    let q10x2 = best(10, 2);
    assert!(
        q10x2 >= q20x1,
        "10x2 should not lose at tight SLA: {q10x2} vs {q20x1}"
    );
}

/// §III-B / Fig. 7: the data-loading share of latency is larger for
/// multi-hot DLRM-RMC3 than for one-hot MT-WnD on the GPU.
#[test]
fn rmc3_more_loading_bound_than_mtwnd() {
    let server = ServerType::T7.spec();
    let cfg = SimConfig {
        seed: 9,
        ..SimConfig::default()
    };
    let plan = PlacementPlan::GpuModel {
        colocated: 1,
        fusion_limit: Some(2000),
        host_sparse_threads: 0,
        host_batch: 256,
    };
    let rmc3 = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
    let wnd = RecModel::build(ModelKind::MtWnd, ModelScale::Small);
    let r1 = simulate(&rmc3, &server, &plan, Qps(1_000.0), &cfg).unwrap();
    let r2 = simulate(&wnd, &server, &plan, Qps(1_000.0), &cfg).unwrap();
    let (_, load1, _) = r1.breakdown.fractions();
    let (_, load2, _) = r2.breakdown.fractions();
    assert!(
        load1 > 2.0 * load2,
        "RMC3 loading share {load1:.3} should dwarf MT-WnD's {load2:.3}"
    );
}

/// §II-A: production-scale models exceed accelerator memory, forcing the
/// HW-aware partition; the hot partition keeps the hit rate high thanks to
/// Zipf locality.
#[test]
fn hot_partition_serves_most_traffic_from_accelerator() {
    use hercules::common::units::MemBytes;
    use hercules::model::partition::hot_partition;
    let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production);
    assert!(m.total_table_size() > MemBytes::from_gib(16));
    let p = hot_partition(&m, MemBytes::from_gib(8));
    assert!(
        p.overall_hit_rate > 0.5,
        "Zipf locality should give a high hit rate, got {}",
        p.overall_hit_rate
    );
}
