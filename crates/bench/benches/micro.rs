//! Microbenchmarks for the hot paths: discrete-event simulation, the CPU
//! cost model, the NMP cycle simulator, and the LP solvers. Prints one
//! line per kernel (`hercules_bench::time_kernel`).

use std::hint::black_box;

use hercules_bench::time_kernel;
use hercules_common::units::Qps;
use hercules_hw::cost::{cpu_batch_cost, CpuExecConfig};
use hercules_hw::nmp::{NmpConfig, NmpSimulator};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{simulate_cached, NmpLutCache, PlacementPlan, SimConfig};
use hercules_solver::{
    solve_ilp, solve_interior_point, solve_simplex, IlpOptions, LinearProgram, Relation,
};

fn provisioning_lp() -> LinearProgram {
    // 3 workloads x 4 server types.
    let qps = [
        [900.0, 1800.0, 2400.0, 3000.0],
        [700.0, 1500.0, 2000.0, 2400.0],
        [500.0, 1000.0, 1500.0, 2000.0],
    ];
    let power = [250.0, 280.0, 480.0, 620.0];
    let cap = [80.0, 15.0, 10.0, 5.0];
    let load = [25_000.0, 18_000.0, 9_000.0];
    let mut c = Vec::new();
    for _ in 0..3 {
        c.extend_from_slice(&power);
    }
    let mut lp = LinearProgram::minimize(c);
    for w in 0..3 {
        let mut row = vec![0.0; 12];
        for t in 0..4 {
            row[w * 4 + t] = qps[w][t];
        }
        lp.constrain(row, Relation::Ge, load[w]);
    }
    for t in 0..4 {
        let mut row = vec![0.0; 12];
        for w in 0..3 {
            row[w * 4 + t] = 1.0;
        }
        lp.constrain(row, Relation::Le, cap[t]);
    }
    lp
}

/// Timed samples per kernel.
const SAMPLES: u32 = 10;

fn bench_solvers() {
    let lp = provisioning_lp();
    time_kernel("simplex_provisioning_12var", SAMPLES, || {
        solve_simplex(black_box(&lp))
    });
    time_kernel("interior_point_provisioning_12var", SAMPLES, || {
        solve_interior_point(black_box(&lp))
    });
    time_kernel("bnb_ilp_provisioning_12var", SAMPLES, || {
        solve_ilp(black_box(&lp), &IlpOptions::default())
    });
}

fn bench_cost_model() {
    let server = ServerType::T2.spec();
    let model = RecModel::build(ModelKind::DlrmRmc2, ModelScale::Production);
    let cfg = CpuExecConfig {
        server: &server,
        workers: 2,
        colocated_threads: 10,
        nmp: None,
        cache: None,
    };
    time_kernel("cpu_batch_cost_rmc2_96tables", SAMPLES, || {
        cpu_batch_cost(&model.graph, 256, &model.tables, &cfg)
    });
}

fn bench_nmp() {
    let sim = NmpSimulator::new(NmpConfig::with_ranks(8));
    time_kernel("nmp_gather_64k_accesses", SAMPLES, || {
        sim.gather_reduce(black_box(65_536), 128)
    });
}

fn bench_sim() {
    let server = ServerType::T2.spec();
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let cfg = SimConfig {
        duration: hercules_common::units::SimDuration::from_millis(500),
        warmup_fraction: 0.1,
        drain_margin: hercules_common::units::SimDuration::ZERO,
        seed: 1,
    };
    let luts = NmpLutCache::new();
    time_kernel("des_rmc1_500ms_at_1kqps", SAMPLES, || {
        simulate_cached(&model, &server, &plan, Qps(1000.0), &cfg, &luts).unwrap()
    });
}

fn main() {
    bench_solvers();
    bench_cost_model();
    bench_nmp();
    bench_sim();
}
