//! Calibration constants for the performance and power models.
//!
//! The paper measures real Xeon / P100 / V100 systems; this reproduction
//! replaces them with parameterized analytical models. Every fudge factor
//! lives here with its justification, so sensitivity studies (see the
//! ablation benches) can sweep them. The values are chosen so the paper's
//! *qualitative* results hold — who wins, by roughly what factor, where
//! crossovers fall — not to match absolute QPS on hardware we do not have.

/// Fraction of peak DRAM bandwidth achievable by streaming (sequential)
/// access. Typical measured STREAM efficiency on 2-socket Xeons.
pub const DDR_STREAM_EFFICIENCY: f64 = 0.80;

/// Fraction of peak DRAM bandwidth achievable by embedding-gather (random)
/// access. Pointer-chase-like gathers with 64–256 B granules reach well
/// under half of peak on commodity DDR4 (RecNMP \[25\] reports ~2–3x headroom
/// for rank-level parallelism precisely because of this).
pub const DDR_GATHER_EFFICIENCY: f64 = 0.45;

/// Sustainable gather bandwidth of a single CPU core (GB/s), limited by
/// memory-level parallelism (outstanding-miss slots), not the DIMMs.
pub const PER_CORE_GATHER_GBS: f64 = 7.0;

/// Sustainable streaming bandwidth of a single CPU core (GB/s).
pub const PER_CORE_STREAM_GBS: f64 = 14.0;

/// Effective fraction of a core's peak FLOP/s achieved by inference-sized
/// GEMMs (small batch, skinny matrices). Production recommendation FCs run
/// far below vendor GEMM peaks.
pub const CPU_GEMM_EFFICIENCY: f64 = 0.25;

/// Per-operator dispatch overhead on the CPU (framework + scheduling), in
/// microseconds. This is what batching amortizes.
pub const CPU_OP_OVERHEAD_US: f64 = 5.0;

/// Additional per-serial-step overhead for recurrent ops on CPU (loop +
/// cache effects), in microseconds per step.
pub const CPU_SERIAL_STEP_US: f64 = 1.0;

/// LLC/interconnect interference: each additional co-located inference
/// thread slows compute by this fraction of the single-thread rate
/// (saturating; see [`llc_interference_factor`]).
pub const LLC_INTERFERENCE_PER_THREAD: f64 = 0.018;

/// Floor on the compute slowdown from LLC interference.
pub const LLC_INTERFERENCE_FLOOR: f64 = 0.60;

/// GPU kernel launch overhead per operator, in microseconds.
pub const GPU_KERNEL_OVERHEAD_US: f64 = 8.0;

/// GPU batch size at which a GEMM reaches half of its asymptotic
/// utilization (items). Drives the query-fusion benefit: small inference
/// batches leave SMs idle.
pub const GPU_HALF_SAT_BATCH: f64 = 1024.0;

/// Asymptotic fraction of GPU peak FLOP/s reached by recommendation GEMMs.
pub const GPU_GEMM_EFFICIENCY: f64 = 0.55;

/// Fraction of GPU HBM peak bandwidth achieved by embedding gathers.
pub const GPU_GATHER_EFFICIENCY: f64 = 0.35;

/// Effective PCIe efficiency (protocol + pinned-buffer overheads) on the
/// host-to-device path.
pub const PCIE_EFFICIENCY: f64 = 0.70;

/// Per-transfer fixed PCIe/DMA setup latency, in microseconds.
pub const PCIE_SETUP_US: f64 = 12.0;

/// MPS co-location scheduling overhead: each co-located GPU context adds
/// this fractional slowdown to every other context.
pub const GPU_COLOCATION_OVERHEAD: f64 = 0.03;

/// Multi-tenant interference: each additional *model* co-located on a shared
/// server derates every tenant's service time by this fraction. Distinct
/// models thrash the LLC and memory channels with disjoint embedding working
/// sets, which costs more than the same-model thread interference already
/// captured by [`LLC_INTERFERENCE_PER_THREAD`] (Hera reports ~5–10% tail
/// inflation per co-located recommendation model).
pub const TENANT_INTERFERENCE_PER_TENANT: f64 = 0.07;

/// Ceiling on the multi-tenant service-time derating factor: beyond a few
/// tenants the working sets are already fully thrashed and adding more
/// models costs queueing, not additional per-batch slowdown.
pub const TENANT_DERATE_CEILING: f64 = 1.5;

/// Fraction of the per-tenant interference penalty charged even when the
/// co-runners are memory-idle: co-located models still evict each other's
/// LLC lines between batches. The remaining `1 - floor` of the penalty
/// scales with the co-runners' aggregate channel-bandwidth intensity —
/// interference is load-dependent, not a head count
/// (see `cost::colocation_derate`).
pub const TENANT_INTENSITY_FLOOR: f64 = 0.45;

/// Service cost of a hot-tier (cache-resident) embedding row gather as a
/// fraction of the cold-tier DRAM gather cost. Hot shards live in the LLC
/// and near-memory buffers of the gathering core, so a hit avoids the DRAM
/// round trip but still pays index arithmetic, pooling arithmetic, and the
/// (much faster) on-chip access — measured LLC-resident gather kernels run
/// at roughly 5–8x the DRAM-bound rate, hence ~0.15 of the cold cost.
pub const CACHE_HIT_COST_RATIO: f64 = 0.15;

/// CPU idle power as a fraction of TDP.
pub const CPU_IDLE_FRACTION: f64 = 0.30;

/// DRAM idle power as a fraction of DIMM TDP.
pub const MEM_IDLE_FRACTION: f64 = 0.35;

/// GPU idle (leakage + fan) power as a fraction of TDP; the paper notes
/// GPUs' high leakage power constrains their energy-efficiency wins.
pub const GPU_IDLE_FRACTION: f64 = 0.17;

/// NMP processing-unit idle power per DIMM, in watts (extra logic dissipates
/// even when idle — §VI-B's reason NMP hurts QPS/W for one-hot models).
pub const NMP_IDLE_W_PER_DIMM: f64 = 3.0;

/// The DDR gather efficiency a *measured* aggregate gather bandwidth
/// implies: `measured / peak`, clamped to `[0, 1]`.
///
/// Compare the result against [`DDR_GATHER_EFFICIENCY`] to see how far
/// the analytical gather term sits from the machine actually running the
/// runtime's real-gather kernel — the live runtime prints both, and the
/// ratio is the correction a re-calibration would apply. Non-finite or
/// non-positive peaks yield `0.0`.
pub fn implied_gather_efficiency(measured_gbs: f64, peak_gbs: f64) -> f64 {
    if !peak_gbs.is_finite() || peak_gbs <= 0.0 || !measured_gbs.is_finite() {
        return 0.0;
    }
    (measured_gbs / peak_gbs).clamp(0.0, 1.0)
}

/// Computes the compute-rate slowdown from `threads` co-located inference
/// threads sharing the LLC.
///
/// Returns a factor in `[LLC_INTERFERENCE_FLOOR, 1.0]` multiplied into
/// effective FLOP/s.
pub fn llc_interference_factor(threads: u32) -> f64 {
    let t = threads.max(1) as f64;
    (1.0 - LLC_INTERFERENCE_PER_THREAD * (t - 1.0)).max(LLC_INTERFERENCE_FLOOR)
}

/// Computes the GPU utilization factor for a GEMM over `batch` items:
/// `batch / (batch + GPU_HALF_SAT_BATCH)`, the saturating curve behind the
/// query-fusion benefit (Fig. 6/7).
pub fn gpu_batch_utilization(batch: u64) -> f64 {
    let b = batch as f64;
    b / (b + GPU_HALF_SAT_BATCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_monotone_with_floor() {
        let mut last = 2.0;
        for t in 1..=64 {
            let f = llc_interference_factor(t);
            assert!(f <= last);
            assert!(f >= LLC_INTERFERENCE_FLOOR);
            last = f;
        }
        assert_eq!(llc_interference_factor(1), 1.0);
        assert_eq!(llc_interference_factor(0), 1.0);
    }

    #[test]
    fn implied_efficiency_clamps_and_rejects_bad_peaks() {
        assert!((implied_gather_efficiency(45.0, 100.0) - 0.45).abs() < 1e-12);
        assert_eq!(implied_gather_efficiency(200.0, 100.0), 1.0);
        assert_eq!(implied_gather_efficiency(-3.0, 100.0), 0.0);
        assert_eq!(implied_gather_efficiency(10.0, 0.0), 0.0);
        assert_eq!(implied_gather_efficiency(10.0, f64::NAN), 0.0);
        assert_eq!(implied_gather_efficiency(f64::NAN, 100.0), 0.0);
    }

    #[test]
    fn gpu_utilization_saturates() {
        assert!(gpu_batch_utilization(1) < 0.01);
        assert!(gpu_batch_utilization(1024) > 0.45);
        assert!(gpu_batch_utilization(100_000) > 0.95);
        let a = gpu_batch_utilization(512);
        let b = gpu_batch_utilization(2048);
        assert!(b > a);
    }
}
