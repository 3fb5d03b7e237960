//! Stage 2 on the paper's Day-D2 setup provisions the exact optimum every
//! interval: the branch-and-bound Hercules scheduler, on the Fig. 17 fleet
//! with the 60 frozen efficiency cells the repository benchmark provisions
//! from, must land on the optimum of Eq. (1)–(3) to within 1e-6 W, and never
//! above the greedy or priority plan. Each interval's allocation is pinned
//! too, at seeds 101, 202 and 303, because tied optima leave the choice
//! among them to the warm start.
//!
//! The pinned optima come from an independent solve: a from-scratch branch
//! and bound, which re-solves every node by the two-phase simplex with no
//! warm start, run on the presolved program with no node cap.

use hercules::common::units::{Qps, Watts};
use hercules::core::cluster::online::{evolution_traces, run_online, ClusterRunReport};
use hercules::core::cluster::policies::{
    GreedyScheduler, HerculesScheduler, PriorityScheduler, SolverChoice,
};
use hercules::core::cluster::Provisioner;
use hercules::core::profiler::{EfficiencyEntry, EfficiencyTable, RankMetric};
use hercules::hw::server::{Fleet, ServerType, ServerType::*};
use hercules::model::zoo::{ModelKind, ModelKind::*};
use hercules::sim::PlacementPlan;
use hercules::workload::diurnal::DiurnalPattern;
use hercules::workload::evolution::EvolutionSchedule;

/// The Day-D2 aggregate peak the cells were sized for, QPS.
const PEAK_QPS: f64 = 47999.977111816406;

/// Over-provisioning headroom `R`.
const OVER_PROVISION: f64 = 0.05;

/// One profiled cell: `(QPS, watts)` under the best plan found, or `None`
/// where no plan meets the SLA. Provisioning reads only these two numbers,
/// so the plans themselves are left out.
type Cell = (ModelKind, ServerType, Option<(f64, f64)>);

/// Every (model, server) cell.
#[rustfmt::skip]
const CELLS: [Cell; 60] = [
    (DlrmRmc1, T1, Some((1600.0, 93.88752331593959))),
    (DlrmRmc1, T2, Some((2432.0, 139.97194264744462))),
    (DlrmRmc1, T3, Some((6144.0, 162.4659959822939))),
    (DlrmRmc1, T4, Some((9216.0, 197.3172574078427))),
    (DlrmRmc1, T5, Some((11264.0, 287.6590125412778))),
    (DlrmRmc1, T6, Some((9728.0, 259.75125344))),
    (DlrmRmc1, T7, Some((11264.0, 264.26496771999996))),
    (DlrmRmc1, T8, Some((18432.0, 230.6220280579809))),
    (DlrmRmc1, T9, Some((34816.0, 314.5543003675067))),
    (DlrmRmc1, T10, Some((61440.0, 483.524262032247))),
    (DlrmRmc2, T1, None),
    (DlrmRmc2, T2, None),
    (DlrmRmc2, T3, Some((58.0, 79.2634558648041))),
    (DlrmRmc2, T4, Some((92.0, 116.38842039522179))),
    (DlrmRmc2, T5, Some((120.0, 184.66844181998525))),
    (DlrmRmc2, T6, Some((704.0, 219.47911887932963))),
    (DlrmRmc2, T7, Some((832.0, 233.76100205934074))),
    (DlrmRmc2, T8, Some((2176.0, 237.95002025271324))),
    (DlrmRmc2, T9, Some((4096.0, 340.4785725099505))),
    (DlrmRmc2, T10, Some((7168.0, 546.0715538638781))),
    (DlrmRmc3, T1, None),
    (DlrmRmc3, T2, Some((400.0, 113.11922141355589))),
    (DlrmRmc3, T3, Some((496.0, 139.12301268501028))),
    (DlrmRmc3, T4, Some((512.0, 170.28950109149426))),
    (DlrmRmc3, T5, Some((512.0, 236.09764125087213))),
    (DlrmRmc3, T6, Some((7936.0, 343.5644426044445))),
    (DlrmRmc3, T7, Some((10752.0, 356.8346643179133))),
    (DlrmRmc3, T8, Some((14336.0, 372.65996775376317))),
    (DlrmRmc3, T9, Some((14336.0, 395.2542967178428))),
    (DlrmRmc3, T10, Some((14336.0, 461.48166788595546))),
    (MtWnd, T1, Some((46.0, 71.91557380883991))),
    (MtWnd, T2, Some((216.0, 138.5448187895042))),
    (MtWnd, T3, Some((216.0, 150.5448187895042))),
    (MtWnd, T4, Some((216.0, 184.44494772354994))),
    (MtWnd, T5, Some((216.0, 252.9451646863418))),
    (MtWnd, T6, Some((2944.0, 340.06099585737763))),
    (MtWnd, T7, Some((4864.0, 366.4969163297902))),
    (MtWnd, T8, Some((4864.0, 378.4969163297902))),
    (MtWnd, T9, Some((4864.0, 410.32072291314637))),
    (MtWnd, T10, Some((4864.0, 473.96833607985883))),
    (Din, T1, None),
    (Din, T2, None),
    (Din, T3, None),
    (Din, T4, None),
    (Din, T5, None),
    (Din, T6, Some((2560.0, 336.50537277740375))),
    (Din, T7, Some((3712.0, 356.6856610663577))),
    (Din, T8, Some((3712.0, 368.6856610663577))),
    (Din, T9, Some((3712.0, 398.5887136436764))),
    (Din, T10, Some((3712.0, 458.39481879831374))),
    (Dien, T1, None),
    (Dien, T2, None),
    (Dien, T3, None),
    (Dien, T4, None),
    (Dien, T5, None),
    (Dien, T6, Some((864.0, 335.87766211747316))),
    (Dien, T7, Some((1216.0, 355.5521993144879))),
    (Dien, T8, Some((1216.0, 367.5521993144879))),
    (Dien, T9, Some((1216.0, 397.1842337793871))),
    (Dien, T10, Some((1216.0, 456.4483027091855))),
];

fn table() -> EfficiencyTable {
    let mut table = EfficiencyTable::new();
    for (model, server, cell) in CELLS {
        let entry = cell.map(|(qps, watts)| EfficiencyEntry {
            qps: Qps(qps),
            power: Watts(watts),
            plan: PlacementPlan::CpuModel {
                threads: 1,
                workers: 1,
                batch: 1,
            },
        });
        table.insert(model, server, entry);
    }
    table
}

/// Day-D2 at four-hour intervals for `seed`, under `policy`.
fn day_d2(table: &EfficiencyTable, seed: u64, policy: &mut dyn Provisioner) -> ClusterRunReport {
    let schedule = EvolutionSchedule::paper();
    let (_, d2) = schedule.snapshot_days();
    let aggregate = DiurnalPattern::service_a(Qps(PEAK_QPS));
    let traces = evolution_traces(&schedule, d2, &aggregate, 240, seed);
    run_online(
        &Fleet::figure_17(),
        table,
        &traces,
        policy,
        Some(OVER_PROVISION),
    )
}

fn check_seed(seed: u64, optima: [f64; 6]) {
    let table = table();
    let exact = day_d2(
        &table,
        seed,
        &mut HerculesScheduler::new(SolverChoice::BranchAndBound),
    );
    let others = [
        day_d2(
            &table,
            seed,
            &mut GreedyScheduler::new(9, RankMetric::QpsPerWatt),
        ),
        day_d2(
            &table,
            seed,
            &mut PriorityScheduler::new(RankMetric::QpsPerWatt),
        ),
    ];
    assert_eq!(exact.intervals.len(), optima.len());
    for (i, (interval, optimum)) in exact.intervals.iter().zip(optima).enumerate() {
        assert!(interval.feasible, "seed {seed} interval {i} infeasible");
        assert!(
            (interval.power_w - optimum).abs() <= 1e-6,
            "seed {seed} interval {i}: {} W, optimum {optimum} W",
            interval.power_w
        );
        for other in &others {
            let theirs = &other.intervals[i];
            assert!(theirs.feasible, "{} seed {seed} interval {i}", other.policy);
            assert!(
                interval.power_w <= theirs.power_w + 1e-6,
                "seed {seed} interval {i}: Hercules {} W above {} {} W",
                interval.power_w,
                other.policy,
                theirs.power_w
            );
        }
    }
}

#[test]
fn day_d2_seed_101_is_provisioned_optimally() {
    check_seed(
        101,
        [
            3743.298876752186,
            3308.225470239238,
            4621.669885460412,
            5827.873410426667,
            5827.873410426667,
            4621.669885460412,
        ],
    );
}

#[test]
fn day_d2_seed_202_is_provisioned_optimally() {
    check_seed(
        202,
        [
            3308.225470239238,
            3308.225470239238,
            4621.669885460412,
            5827.873410426667,
            5827.873410426667,
            4621.669885460412,
        ],
    );
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Each Day-D2 interval's branch-and-bound allocation at `seed`: its
/// activated server count and an FNV-1a digest of its `Debug` string.
fn allocations(seed: u64) -> Vec<(u32, u64)> {
    let report = day_d2(
        &table(),
        seed,
        &mut HerculesScheduler::new(SolverChoice::BranchAndBound),
    );
    report
        .intervals
        .iter()
        .map(|i| (i.activated, fnv1a(&format!("{:?}", i.allocation))))
        .collect()
}

/// Branch and bound returns its incumbent whenever no node beats it, so
/// among tied optima the warm start decides which allocation comes back
/// (seed 202's intervals 3 and 4 provision the same power on different
/// servers). The power check above cannot see that choice; this pins it.
#[test]
fn day_d2_allocations_are_pinned() {
    let pinned: [(u64, [(u32, u64); 6]); 3] = [
        (
            101,
            [
                (12, 0x5dfe_038a_e4d8_95d7),
                (10, 0x901c_f2a4_c729_5de6),
                (13, 0xc284_d316_5c2d_af7a),
                (16, 0xcad5_bb32_e27e_8a23),
                (16, 0xcad5_bb32_e27e_8a23),
                (13, 0xea31_ddbf_a8b7_b459),
            ],
        ),
        (
            202,
            [
                (10, 0x901c_f2a4_c729_5de6),
                (10, 0x901c_f2a4_c729_5de6),
                (13, 0xea31_ddbf_a8b7_b459),
                (16, 0x13d1_c396_dd53_e120),
                (16, 0xcad5_bb32_e27e_8a23),
                (13, 0xc284_d316_5c2d_af7a),
            ],
        ),
        (
            303,
            [
                (12, 0x5dfe_038a_e4d8_95d7),
                (12, 0x5dfe_038a_e4d8_95d7),
                (13, 0xc284_d316_5c2d_af7a),
                (16, 0xf1cb_6470_24a6_5b1c),
                (16, 0xe5f5_ea86_b9f2_5208),
                (13, 0xea31_ddbf_a8b7_b459),
            ],
        ),
    ];
    for (seed, want) in pinned {
        assert_eq!(allocations(seed), want, "seed {seed}");
    }
}
