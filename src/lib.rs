//! # Hercules
//!
//! Facade crate for the Hercules reproduction. Re-exports the public API of all
//! subsystem crates. See the README for a tour, and its crate map for which
//! crate holds each part of the paper.
pub use hercules_common as common;
pub use hercules_core as core;
pub use hercules_fleet as fleet;
pub use hercules_hw as hw;
pub use hercules_model as model;
pub use hercules_runtime as runtime;
pub use hercules_sim as sim;
pub use hercules_solver as solver;
pub use hercules_workload as workload;

pub mod scenarios {
    //! Canonical demo scenarios shared by the examples, benches, and
    //! integration tests, so calibrated numbers live in exactly one place.
    //!
    //! The multi-tenant co-location demo: two diurnal services whose
    //! off-peak remainders consolidate onto one shared server.
    //!
    //! The efficiency-table entries are *SLA-bounded capacity consistent
    //! with the simulator*: on a T2 under the `10x2 d=256` CPU plan, RMC1
    //! holds its 20ms p99 to ~600 QPS and RMC3 its 50ms p99 to ~200 QPS
    //! (T3's NMP roughly doubles both). Recalibrate here — the example,
    //! the `fig_colocation` bench, and `tests/colocation_consolidation.rs`
    //! all consume this one definition.

    use hercules_common::units::{Qps, SimDuration, Watts};
    use hercules_core::cluster::online::WorkloadTrace;
    use hercules_core::profiler::{EfficiencyEntry, EfficiencyTable};
    use hercules_hw::server::{Fleet, ServerType};
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
    use hercules_sim::{ColocationConfig, PlacementPlan, SimConfig, SlaSpec, TenantSpec};
    use hercules_workload::diurnal::DiurnalPattern;

    /// Everything the co-location demo runs on.
    pub struct ColocationDemo {
        /// Heterogeneous fleet (CPU T2s + NMP T3s).
        pub fleet: Fleet,
        /// Offline-profiled efficiency tuples for RMC1/RMC3.
        pub table: EfficiencyTable,
        /// One diurnal day of per-workload load traces.
        pub traces: Vec<WorkloadTrace>,
        /// The shared placement plan for the simulated server.
        pub plan: PlacementPlan,
        /// The server type every entry's plan targets.
        pub server: ServerType,
        /// The off-peak tenant set packed onto one shared server.
        pub tenants: Vec<TenantSpec>,
        /// Per-tenant SLAs, index-aligned with `tenants`.
        pub slas: Vec<SlaSpec>,
        /// Simulation controls for the shared-server run.
        pub sim: ColocationConfig,
    }

    /// Builds the calibrated scenario.
    pub fn colocation_demo() -> ColocationDemo {
        let entry = |qps: f64, power: f64| EfficiencyEntry {
            qps: Qps(qps),
            power: Watts(power),
            plan: PlacementPlan::CpuModel {
                threads: 10,
                workers: 2,
                batch: 256,
            },
        };
        let table = EfficiencyTable::from_entries([
            ((ModelKind::DlrmRmc1, ServerType::T2), entry(600.0, 250.0)),
            ((ModelKind::DlrmRmc1, ServerType::T3), entry(1200.0, 280.0)),
            ((ModelKind::DlrmRmc3, ServerType::T2), entry(200.0, 250.0)),
            ((ModelKind::DlrmRmc3, ServerType::T3), entry(400.0, 280.0)),
        ]);
        let mut fleet = Fleet::empty();
        fleet.set(ServerType::T2, 50).set(ServerType::T3, 10);
        let traces = vec![
            WorkloadTrace {
                model: ModelKind::DlrmRmc1,
                load: DiurnalPattern::service_a(Qps(600.0)).sample(1, 60, 0.02, 1),
            },
            WorkloadTrace {
                model: ModelKind::DlrmRmc3,
                load: DiurnalPattern::service_b(Qps(300.0)).sample(1, 60, 0.02, 2),
            },
        ];
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let tenants = vec![
            TenantSpec::new(
                RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production),
                Qps(300.0),
            ),
            TenantSpec::new(
                RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production),
                Qps(100.0),
            ),
        ];
        let slas: Vec<SlaSpec> = tenants.iter().map(|t| t.sla).collect();
        let sim = ColocationConfig::new(
            SimConfig {
                duration: SimDuration::from_secs(4),
                warmup_fraction: 0.15,
                drain_margin: SimDuration::from_millis(300),
                seed: 0xC0FFEE,
            },
            tenants.clone(),
        );
        ColocationDemo {
            fleet,
            table,
            traces,
            plan,
            server: ServerType::T2,
            tenants,
            slas,
            sim,
        }
    }
}
