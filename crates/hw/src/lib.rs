//! # hercules-hw
//!
//! Heterogeneous server models for the Hercules reproduction: the Table-II
//! device zoo (two Xeon generations, DDR4/NMP memory, P100/V100 GPUs), a
//! calibrated roofline cost model, an operator-worker list scheduler, a
//! component-level power model, and a cycle-level NMP DIMM simulator.
//!
//! The paper measures real systems; this crate is the synthetic substitute
//! the README's opening paragraph describes. Calibration constants live in
//! [`calib`].
//!
//! ```
//! use hercules_hw::server::ServerType;
//! use hercules_hw::cost::{cpu_batch_cost, CpuExecConfig};
//! use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
//!
//! let server = ServerType::T2.spec();
//! let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
//! let cfg = CpuExecConfig { server: &server, workers: 2, colocated_threads: 10, nmp: None, cache: None };
//! let cost = cpu_batch_cost(&model.graph, 256, &model.tables, &cfg);
//! assert!(cost.latency.as_millis_f64() > 0.0);
//! ```

pub mod calib;
pub mod cost;
pub mod device;
pub mod nmp;
pub mod power;
pub mod schedule;
pub mod server;

pub use cost::{
    cpu_batch_cost, gpu_batch_cost, pcie_transfer_time, BatchCost, CacheModel, CacheSpec,
};
pub use nmp::{NmpLutCache, NmpLutSet};
pub use power::{Activity, PowerModel};
pub use server::{Fleet, ServerSpec, ServerType};
