//! Server architectures T1–T10 (paper Table II) and fleet availability.

use hercules_common::units::{MemBytes, Watts};

use crate::cost::CacheSpec;
use crate::device::{
    CpuSpec, GpuSpec, MemorySpec, CPU_T1, CPU_T2, DDR4_T1, DDR4_T2, GPU_P100, GPU_V100, NMP_X2,
    NMP_X4, NMP_X8,
};

/// The ten heterogeneous server types of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerType {
    /// CPU-T1 + DDR4.
    T1,
    /// CPU-T2 + DDR4.
    T2,
    /// CPU-T2 + NMPx2.
    T3,
    /// CPU-T2 + NMPx4.
    T4,
    /// CPU-T2 + NMPx8.
    T5,
    /// CPU-T1 + DDR4 + P100.
    T6,
    /// CPU-T2 + DDR4 + V100.
    T7,
    /// CPU-T2 + NMPx2 + V100.
    T8,
    /// CPU-T2 + NMPx4 + V100.
    T9,
    /// CPU-T2 + NMPx8 + V100.
    T10,
}

impl ServerType {
    /// All server types in Table II order.
    pub const ALL: [ServerType; 10] = [
        ServerType::T1,
        ServerType::T2,
        ServerType::T3,
        ServerType::T4,
        ServerType::T5,
        ServerType::T6,
        ServerType::T7,
        ServerType::T8,
        ServerType::T9,
        ServerType::T10,
    ];

    /// Table II default availability (`Nh`): 100, 100, 15, 10, 5, 10, 5, 6,
    /// 4, 2.
    pub fn default_availability(self) -> u32 {
        match self {
            ServerType::T1 => 100,
            ServerType::T2 => 100,
            ServerType::T3 => 15,
            ServerType::T4 => 10,
            ServerType::T5 => 5,
            ServerType::T6 => 10,
            ServerType::T7 => 5,
            ServerType::T8 => 6,
            ServerType::T9 => 4,
            ServerType::T10 => 2,
        }
    }

    /// The server's hardware composition.
    pub fn spec(self) -> ServerSpec {
        let (cpu, mem, gpu) = match self {
            ServerType::T1 => (CPU_T1, DDR4_T1, None),
            ServerType::T2 => (CPU_T2, DDR4_T2, None),
            ServerType::T3 => (CPU_T2, NMP_X2, None),
            ServerType::T4 => (CPU_T2, NMP_X4, None),
            ServerType::T5 => (CPU_T2, NMP_X8, None),
            ServerType::T6 => (CPU_T1, DDR4_T1, Some(GPU_P100)),
            ServerType::T7 => (CPU_T2, DDR4_T2, Some(GPU_V100)),
            ServerType::T8 => (CPU_T2, NMP_X2, Some(GPU_V100)),
            ServerType::T9 => (CPU_T2, NMP_X4, Some(GPU_V100)),
            ServerType::T10 => (CPU_T2, NMP_X8, Some(GPU_V100)),
        };
        ServerSpec {
            stype: self,
            cpu,
            mem,
            gpu,
            cache: None,
            measured_gather_efficiency: None,
        }
    }

    /// Short display name, e.g. `"T3(CPU-T2+NMPx2)"`.
    pub fn label(self) -> String {
        let spec = self.spec();
        let mut s = format!("{:?}({}", self, short_cpu(&spec.cpu));
        if spec.mem.is_nmp() {
            s.push('+');
            s.push_str(spec.mem.name);
        }
        if let Some(g) = &spec.gpu {
            s.push('+');
            s.push_str(short_gpu(g));
        }
        s.push(')');
        s
    }
}

fn short_cpu(c: &CpuSpec) -> &'static str {
    if c.cores == 18 {
        "CPU-T1"
    } else {
        "CPU-T2"
    }
}

fn short_gpu(g: &GpuSpec) -> &'static str {
    if g.sms == 56 {
        "P100"
    } else {
        "V100"
    }
}

impl std::fmt::Display for ServerType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// A fully-specified server: CPU socket, memory subsystem, optional GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Which Table-II type this is.
    pub stype: ServerType,
    /// The CPU socket.
    pub cpu: CpuSpec,
    /// Main memory (possibly NMP-enabled).
    pub mem: MemorySpec,
    /// Discrete accelerator, if any.
    pub gpu: Option<GpuSpec>,
    /// Embedding-tier hot cache provisioned per gathering worker. `None`
    /// (the default for every Table-II spec) means the cache tier does not
    /// exist and every oracle prices gathers exactly as before.
    pub cache: Option<CacheSpec>,
    /// Measured DDR gather efficiency fed back from a live-gather run
    /// (`calib::implied_gather_efficiency`). `None` (default) keeps the
    /// calibrated [`crate::calib::DDR_GATHER_EFFICIENCY`] /
    /// [`crate::calib::PER_CORE_GATHER_GBS`] pair bit-identical.
    pub measured_gather_efficiency: Option<f64>,
}

impl ServerSpec {
    /// Whether this server has a GPU.
    pub fn has_gpu(&self) -> bool {
        self.gpu.is_some()
    }

    /// Whether this server has NMP-enabled memory.
    pub fn has_nmp(&self) -> bool {
        self.mem.is_nmp()
    }

    /// Host memory capacity.
    pub fn host_memory(&self) -> MemBytes {
        self.mem.capacity
    }

    /// Provisions an embedding-tier hot cache on this server (per
    /// gathering worker; see [`CacheSpec`]).
    pub fn with_embedding_cache(mut self, cache: CacheSpec) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Feeds a measured DDR gather efficiency back into the cost model
    /// (closing the `implied_gather_efficiency` loop). Non-finite or
    /// non-positive measurements are ignored; values above 1.0 clamp to
    /// the physical peak.
    pub fn with_measured_gather_efficiency(mut self, eff: f64) -> Self {
        if eff.is_finite() && eff > 0.0 {
            self.measured_gather_efficiency = Some(eff.min(1.0));
        }
        self
    }

    /// Sum of component TDPs: the worst-case power this server can draw
    /// (used as a sanity ceiling on provisioned power).
    pub fn total_tdp(&self) -> Watts {
        let mut t = self.cpu.tdp + self.mem.tdp;
        if let Some(g) = &self.gpu {
            t += g.tdp;
        }
        t
    }
}

/// A named availability table: how many servers of each type the cluster
/// owns (`Nh` in Eq. (3)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fleet {
    counts: [u32; 10],
}

impl Fleet {
    /// Table II's default fleet.
    pub fn table_ii() -> Fleet {
        let mut counts = [0u32; 10];
        for (i, t) in ServerType::ALL.iter().enumerate() {
            counts[i] = t.default_availability();
        }
        Fleet { counts }
    }

    /// The paper's Fig. 17 fleet: T2 availability reduced to 70.
    pub fn figure_17() -> Fleet {
        let mut f = Fleet::table_ii();
        f.set(ServerType::T2, 70);
        f
    }

    /// An empty fleet.
    pub fn empty() -> Fleet {
        Fleet { counts: [0; 10] }
    }

    /// Number of servers of `t`.
    pub fn count(&self, t: ServerType) -> u32 {
        self.counts[index_of(t)]
    }

    /// Sets the number of servers of `t`.
    pub fn set(&mut self, t: ServerType, n: u32) -> &mut Self {
        self.counts[index_of(t)] = n;
        self
    }

    /// Total servers across all types.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Iterates `(type, count)` for types with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (ServerType, u32)> + '_ {
        ServerType::ALL
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
            .filter(|&(_, n)| n > 0)
    }
}

fn index_of(t: ServerType) -> usize {
    ServerType::ALL
        .iter()
        .position(|&x| x == t)
        .expect("all types indexed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_consistent() {
        for t in ServerType::ALL {
            let s = t.spec();
            assert_eq!(s.stype, t);
            assert!(s.total_tdp().value() > 100.0);
        }
    }

    #[test]
    fn gpu_and_nmp_flags() {
        assert!(!ServerType::T2.spec().has_gpu());
        assert!(ServerType::T7.spec().has_gpu());
        assert!(ServerType::T3.spec().has_nmp());
        assert!(ServerType::T10.spec().has_nmp());
        assert!(ServerType::T10.spec().has_gpu());
    }

    #[test]
    fn table_ii_fleet_counts() {
        let f = Fleet::table_ii();
        assert_eq!(f.count(ServerType::T1), 100);
        assert_eq!(f.count(ServerType::T5), 5);
        assert_eq!(f.count(ServerType::T10), 2);
        assert_eq!(f.total(), 257);
    }

    #[test]
    fn figure_17_fleet_reduces_t2() {
        let f = Fleet::figure_17();
        assert_eq!(f.count(ServerType::T2), 70);
        assert_eq!(f.count(ServerType::T1), 100);
    }

    #[test]
    fn fleet_iter_skips_zero() {
        let mut f = Fleet::empty();
        f.set(ServerType::T2, 3);
        let pairs: Vec<_> = f.iter().collect();
        assert_eq!(pairs, vec![(ServerType::T2, 3)]);
    }

    #[test]
    fn labels_mention_components() {
        assert_eq!(ServerType::T1.label(), "T1(CPU-T1)");
        assert_eq!(ServerType::T8.label(), "T8(CPU-T2+NMPx2+V100)");
        assert_eq!(format!("{}", ServerType::T4), "T4");
    }

    #[test]
    fn tdp_composition() {
        // T7 = 125 (CPU) + 50 (DDR4) + 300 (V100).
        assert_eq!(ServerType::T7.spec().total_tdp(), Watts(475.0));
    }

    #[test]
    fn specs_default_cache_free_and_uncalibrated() {
        // Bit-identity of every pre-cache code path depends on these
        // defaults staying `None` for all Table-II types.
        for t in ServerType::ALL {
            let s = t.spec();
            assert!(s.cache.is_none());
            assert!(s.measured_gather_efficiency.is_none());
        }
    }

    #[test]
    fn cache_and_efficiency_builders() {
        let s = ServerType::T2
            .spec()
            .with_embedding_cache(CacheSpec::per_worker_mib(32));
        assert_eq!(s.cache.unwrap().capacity, MemBytes::from_mib(32));

        let s = ServerType::T2.spec().with_measured_gather_efficiency(0.52);
        assert_eq!(s.measured_gather_efficiency, Some(0.52));
        // Bad measurements are dropped; superunity clamps to 1.0.
        assert!(ServerType::T2
            .spec()
            .with_measured_gather_efficiency(f64::NAN)
            .measured_gather_efficiency
            .is_none());
        assert!(ServerType::T2
            .spec()
            .with_measured_gather_efficiency(-0.3)
            .measured_gather_efficiency
            .is_none());
        assert_eq!(
            ServerType::T2
                .spec()
                .with_measured_gather_efficiency(1.7)
                .measured_gather_efficiency,
            Some(1.0)
        );
    }
}
