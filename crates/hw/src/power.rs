//! Component-level power model (the reproduction's stand-in for RAPL and
//! `nvidia-smi`, §V).
//!
//! Each component draws `idle + activity x (tdp - idle)`. The simulator
//! integrates activity over time to report mean power, and the offline
//! profiler records power at the operating point as the *provisioned power
//! budget* `Power_{h,m}` used by the cluster optimizer (Eq. 1).

use hercules_common::units::Watts;

use crate::calib;
use crate::server::ServerSpec;

/// Instantaneous component activity levels (all in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Activity {
    /// Fraction of CPU cores busy.
    pub cpu: f64,
    /// DRAM channel bandwidth utilization.
    pub mem: f64,
    /// GPU utilization (zero without a GPU).
    pub gpu: f64,
}

impl Activity {
    /// Fully-loaded activity.
    pub const PEAK: Activity = Activity {
        cpu: 1.0,
        mem: 1.0,
        gpu: 1.0,
    };

    /// Validates all fields are in `[0, 1]`, clamping small excursions.
    pub fn clamped(self) -> Activity {
        Activity {
            cpu: self.cpu.clamp(0.0, 1.0),
            mem: self.mem.clamp(0.0, 1.0),
            gpu: self.gpu.clamp(0.0, 1.0),
        }
    }
}

/// Power model for one server.
#[derive(Debug, Clone)]
pub struct PowerModel {
    cpu_idle: Watts,
    cpu_dyn: Watts,
    mem_idle: Watts,
    mem_dyn: Watts,
    gpu_idle: Watts,
    gpu_dyn: Watts,
}

impl PowerModel {
    /// Builds the model for a server spec.
    pub fn new(server: &ServerSpec) -> PowerModel {
        let cpu_idle = server.cpu.tdp * calib::CPU_IDLE_FRACTION;
        let cpu_dyn = server.cpu.tdp * (1.0 - calib::CPU_IDLE_FRACTION);
        let mut mem_idle = server.mem.tdp * calib::MEM_IDLE_FRACTION;
        if server.mem.is_nmp() {
            // NMP processing units leak even when idle (§VI-B: why NMP hurts
            // QPS/W for one-hot models).
            mem_idle += Watts(calib::NMP_IDLE_W_PER_DIMM * server.mem.total_dimms() as f64);
        }
        let mem_dyn = server.mem.tdp * (1.0 - calib::MEM_IDLE_FRACTION);
        let (gpu_idle, gpu_dyn) = match &server.gpu {
            Some(g) => (
                g.tdp * calib::GPU_IDLE_FRACTION,
                g.tdp * (1.0 - calib::GPU_IDLE_FRACTION),
            ),
            None => (Watts::ZERO, Watts::ZERO),
        };
        PowerModel {
            cpu_idle,
            cpu_dyn,
            mem_idle,
            mem_dyn,
            gpu_idle,
            gpu_dyn,
        }
    }

    /// Power drawn with all components idle but powered on.
    pub fn idle_power(&self) -> Watts {
        self.cpu_idle + self.mem_idle + self.gpu_idle
    }

    /// Power drawn at the given activity levels.
    pub fn power_at(&self, activity: Activity) -> Watts {
        let a = activity.clamped();
        self.idle_power() + self.cpu_dyn * a.cpu + self.mem_dyn * a.mem + self.gpu_dyn * a.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerType;

    #[test]
    fn idle_below_full_load() {
        for t in ServerType::ALL {
            let pm = PowerModel::new(&t.spec());
            assert!(pm.idle_power() < pm.power_at(Activity::PEAK), "{t}");
            assert!(pm.idle_power().value() > 0.0);
        }
    }

    #[test]
    fn full_load_near_total_tdp() {
        let spec = ServerType::T7.spec();
        let pm = PowerModel::new(&spec);
        // Full load is about the sum of component TDPs, plus NMP logic.
        let full = pm.power_at(Activity::PEAK).value();
        let tdp = spec.total_tdp().value();
        assert!((full - tdp).abs() / tdp < 0.05, "full {full} vs tdp {tdp}");
    }

    #[test]
    fn power_monotone_in_activity() {
        let pm = PowerModel::new(&ServerType::T2.spec());
        let lo = pm.power_at(Activity {
            cpu: 0.2,
            mem: 0.2,
            gpu: 0.0,
        });
        let hi = pm.power_at(Activity {
            cpu: 0.8,
            mem: 0.6,
            gpu: 0.0,
        });
        assert!(hi > lo);
    }

    #[test]
    fn nmp_servers_pay_idle_overhead() {
        let plain = PowerModel::new(&ServerType::T2.spec());
        let nmp2 = PowerModel::new(&ServerType::T3.spec());
        let nmp8 = PowerModel::new(&ServerType::T5.spec());
        assert!(nmp2.idle_power() > plain.idle_power());
        assert!(nmp8.idle_power() > nmp2.idle_power());
    }

    #[test]
    fn gpu_leakage_visible_at_idle() {
        let cpu_only = PowerModel::new(&ServerType::T2.spec());
        let with_gpu = PowerModel::new(&ServerType::T7.spec());
        let delta = with_gpu.idle_power().value() - cpu_only.idle_power().value();
        assert!(delta > 30.0, "GPU idle leakage {delta}W");
    }

    #[test]
    fn activity_clamps() {
        let a = Activity {
            cpu: 1.5,
            mem: -0.2,
            gpu: 0.5,
        }
        .clamped();
        assert_eq!(a.cpu, 1.0);
        assert_eq!(a.mem, 0.0);
        assert_eq!(a.gpu, 0.5);
    }
}
