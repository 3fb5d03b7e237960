//! Device specifications (paper Table II).
//!
//! Two Xeon generations, DDR4 memory at several DIMM populations, a
//! DIMM-based NMP option at x2/x4/x8 rank-level parallelism, and two NVIDIA
//! GPU generations. All numbers are Table II's where given; derived numbers
//! (peak bandwidth, FLOP rates) use public datasheet values.

use hercules_common::units::{MemBytes, Watts};

/// A server-grade CPU socket.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores (hyperthreading unused: the task scheduler pins one
    /// inference/operator worker per physical core, §II-B).
    pub cores: u32,
    /// Base frequency in GHz.
    pub freq_ghz: f64,
    /// Peak single-precision FLOPs per cycle per core (vector width x FMA).
    pub flops_per_cycle: f64,
    /// Last-level cache in MiB.
    pub llc_mib: f64,
    /// Thermal design power.
    pub tdp: Watts,
}

impl CpuSpec {
    /// Peak FLOP/s of one core.
    pub fn core_peak_flops(&self) -> f64 {
        self.freq_ghz * 1e9 * self.flops_per_cycle
    }
}

/// Intel Xeon D-2191 (Table II CPU-T1): 18 cores @ 1.6 GHz, 86 W.
pub const CPU_T1: CpuSpec = CpuSpec {
    name: "Intel Xeon D-2191",
    cores: 18,
    freq_ghz: 1.6,
    flops_per_cycle: 32.0, // one AVX-512 FMA unit
    llc_mib: 24.75,
    tdp: Watts(86.0),
};

/// Intel Xeon Gold 6138 (Table II CPU-T2): 20 cores @ 2.0 GHz, 125 W.
pub const CPU_T2: CpuSpec = CpuSpec {
    name: "Intel Xeon Gold 6138",
    cores: 20,
    freq_ghz: 2.0,
    flops_per_cycle: 64.0, // two AVX-512 FMA units
    llc_mib: 27.5,
    tdp: Watts(125.0),
};

/// Main-memory configuration (Table II memory columns).
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    /// Display name.
    pub name: &'static str,
    /// Memory channels.
    pub channels: u32,
    /// DIMMs per channel.
    pub dimms_per_channel: u32,
    /// Ranks per DIMM.
    pub ranks_per_dimm: u32,
    /// Total capacity.
    pub capacity: MemBytes,
    /// Peak pin bandwidth in GB/s (all channels).
    pub peak_bw_gbs: f64,
    /// DRAM subsystem TDP.
    pub tdp: Watts,
    /// NMP rank-parallelism factor: `Some(n)` means near-memory
    /// gather-reduce units exploit `n`-way rank-level parallelism; `None`
    /// is a regular DIMM.
    pub nmp_ways: Option<u32>,
}

impl MemorySpec {
    /// Total DIMM count.
    pub fn total_dimms(&self) -> u32 {
        self.channels * self.dimms_per_channel
    }

    /// Total rank count (the NMP parallelism resource).
    pub fn total_ranks(&self) -> u32 {
        self.total_dimms() * self.ranks_per_dimm
    }

    /// Whether this memory has near-memory processing units.
    pub fn is_nmp(&self) -> bool {
        self.nmp_ways.is_some()
    }
}

/// DDR4 config paired with CPU-T1: 4 channels x 1 DIMM x 1 rank, 64 GB, 28 W.
pub const DDR4_T1: MemorySpec = MemorySpec {
    name: "DDR4 (CPU-T1)",
    channels: 4,
    dimms_per_channel: 1,
    ranks_per_dimm: 1,
    capacity: MemBytes::from_gib(64),
    peak_bw_gbs: 76.8, // 4 x DDR4-2400
    tdp: Watts(28.0),
    nmp_ways: None,
};

/// DDR4 config paired with CPU-T2: 4 channels x 1 DIMM x 2 ranks, 128 GB, 50 W.
pub const DDR4_T2: MemorySpec = MemorySpec {
    name: "DDR4 (CPU-T2)",
    channels: 4,
    dimms_per_channel: 1,
    ranks_per_dimm: 2,
    capacity: MemBytes::from_gib(128),
    peak_bw_gbs: 85.3, // 4 x DDR4-2666
    tdp: Watts(50.0),
    nmp_ways: None,
};

/// NMP x2: rank-level parallelism of 2 (one DIMM per channel, 2 ranks).
pub const NMP_X2: MemorySpec = MemorySpec {
    name: "NMPx2",
    channels: 4,
    dimms_per_channel: 1,
    ranks_per_dimm: 2,
    capacity: MemBytes::from_gib(128),
    peak_bw_gbs: 85.3,
    tdp: Watts(50.0),
    nmp_ways: Some(2),
};

/// NMP x4: 2 DIMMs per channel, 256 GB, 100 W.
pub const NMP_X4: MemorySpec = MemorySpec {
    name: "NMPx4",
    channels: 4,
    dimms_per_channel: 2,
    ranks_per_dimm: 2,
    capacity: MemBytes::from_gib(256),
    peak_bw_gbs: 85.3,
    tdp: Watts(100.0),
    nmp_ways: Some(4),
};

/// NMP x8: 4 DIMMs per channel, 512 GB, 200 W.
pub const NMP_X8: MemorySpec = MemorySpec {
    name: "NMPx8",
    channels: 4,
    dimms_per_channel: 4,
    ranks_per_dimm: 2,
    capacity: MemBytes::from_gib(512),
    peak_bw_gbs: 85.3,
    tdp: Watts(200.0),
    nmp_ways: Some(8),
};

/// A discrete GPU accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Boost clock in MHz.
    pub boost_mhz: f64,
    /// Peak single-precision TFLOP/s.
    pub peak_tflops: f64,
    /// HBM capacity.
    pub memory: MemBytes,
    /// HBM bandwidth in GB/s.
    pub hbm_bw_gbs: f64,
    /// PCIe host link bandwidth in GB/s.
    pub pcie_bw_gbs: f64,
    /// Thermal design power.
    pub tdp: Watts,
}

/// NVIDIA P100 (Table II): 56 SMs, 16 GB HBM, PCIe Gen3, 300 W.
pub const GPU_P100: GpuSpec = GpuSpec {
    name: "NVIDIA P100",
    sms: 56,
    boost_mhz: 1480.0,
    peak_tflops: 9.5,
    memory: MemBytes::from_gib(16),
    hbm_bw_gbs: 732.0,
    pcie_bw_gbs: 16.0,
    tdp: Watts(300.0),
};

/// NVIDIA V100 (Table II): 80 SMs, 16 GB HBM @ 900 GB/s, PCIe Gen3, 300 W.
pub const GPU_V100: GpuSpec = GpuSpec {
    name: "NVIDIA V100",
    sms: 80,
    boost_mhz: 1530.0,
    peak_tflops: 14.0,
    memory: MemBytes::from_gib(16),
    hbm_bw_gbs: 900.0,
    pcie_bw_gbs: 16.0,
    tdp: Watts(300.0),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_core_counts() {
        assert_eq!(CPU_T1.cores, 18);
        assert_eq!(CPU_T2.cores, 20);
        assert_eq!(CPU_T1.tdp, Watts(86.0));
        assert_eq!(CPU_T2.tdp, Watts(125.0));
    }

    #[test]
    fn peak_flops_sane() {
        // CPU-T2: 2 GHz x 64 = 128 GFLOP/s per core.
        assert!((CPU_T2.core_peak_flops() - 1.28e11).abs() < 1e6);
        assert!(CPU_T2.core_peak_flops() > CPU_T1.core_peak_flops());
    }

    #[test]
    fn memory_rank_math() {
        assert_eq!(DDR4_T1.total_ranks(), 4);
        assert_eq!(DDR4_T2.total_ranks(), 8);
        assert_eq!(NMP_X4.total_dimms(), 8);
        assert_eq!(NMP_X8.total_ranks(), 32);
        assert!(!DDR4_T2.is_nmp());
        assert!(NMP_X2.is_nmp());
    }

    #[test]
    fn table_ii_capacities() {
        assert_eq!(DDR4_T1.capacity, MemBytes::from_gib(64));
        assert_eq!(NMP_X8.capacity, MemBytes::from_gib(512));
        assert_eq!(GPU_P100.memory, MemBytes::from_gib(16));
        assert_eq!(NMP_X8.tdp, Watts(200.0));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // spec-table sanity checks
    fn gpu_generations_ordered() {
        assert!(GPU_V100.peak_tflops > GPU_P100.peak_tflops);
        assert!(GPU_V100.hbm_bw_gbs > GPU_P100.hbm_bw_gbs);
        assert_eq!(GPU_V100.sms, 80);
    }
}
