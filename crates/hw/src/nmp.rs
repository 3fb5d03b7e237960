//! Cycle-level near-memory-processing (NMP) DIMM simulator.
//!
//! Reproduces the paper's evaluation methodology (§V): a RecNMP-style \[25\]
//! DIMM executes embedding Gather-and-Reduce locally, exploiting *rank-level
//! parallelism* — each rank serves gathers independently and only the pooled
//! output vector crosses the channel. The simulator is run ahead of time over
//! a grid of access counts and recorded into a lookup table ([`NmpLut`]);
//! the server simulator then "taxes the latency from the LUT for the current
//! batch's embedding operation" exactly as the paper's dummy SLS-NMP operator
//! does.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hercules_common::units::{Joules, SimDuration};

/// DDR4 device timing parameters (per-rank, in nanoseconds/cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct DdrTiming {
    /// Clock period in ns (DDR4-2666: 0.75 ns).
    pub tck_ns: f64,
    /// CAS latency in cycles.
    pub cl: u32,
    /// RAS-to-CAS delay in cycles.
    pub trcd: u32,
    /// Row precharge in cycles.
    pub trp: u32,
    /// Banks per rank available for overlap.
    pub banks_per_rank: u32,
    /// Bytes delivered per burst (BL8 on a 64-bit rank = 64 B).
    pub burst_bytes: u32,
    /// Cycles a burst occupies the rank's data bus (BL8 = 4 DDR cycles).
    pub burst_cycles: u32,
    /// Command/turnaround gap between consecutive bursts on one rank
    /// (tCCD/tRTR class constraints), in cycles.
    pub bus_gap_cycles: u32,
    /// Probability a random embedding access misses the open row.
    pub row_miss_rate: f64,
}

impl Default for DdrTiming {
    /// DDR4-2666 (19-19-19) — the generation in Table II.
    fn default() -> Self {
        DdrTiming {
            tck_ns: 0.75,
            cl: 19,
            trcd: 19,
            trp: 19,
            banks_per_rank: 16,
            burst_bytes: 64,
            burst_cycles: 4,
            bus_gap_cycles: 4,
            row_miss_rate: 0.9,
        }
    }
}

/// Energy model constants (DDR4 device datasheet ballpark).
#[derive(Debug, Clone, PartialEq)]
pub struct NmpEnergyModel {
    /// Energy per row activation, in nanojoules.
    pub activate_nj: f64,
    /// Energy per 64 B read burst, in nanojoules.
    pub read_burst_nj: f64,
    /// NMP logic overhead per access (index decode + accumulate), in
    /// nanojoules.
    pub nmp_logic_nj: f64,
}

impl Default for NmpEnergyModel {
    fn default() -> Self {
        NmpEnergyModel {
            activate_nj: 1.7,
            read_burst_nj: 0.45,
            nmp_logic_nj: 0.15,
        }
    }
}

/// Configuration of one NMP memory subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct NmpConfig {
    /// Rank-level parallelism (Table II NMPxN).
    pub ranks: u32,
    /// Device timing.
    pub timing: DdrTiming,
    /// Energy constants.
    pub energy: NmpEnergyModel,
}

impl NmpConfig {
    /// An NMPxN configuration with default DDR4-2666 timing.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    pub fn with_ranks(ranks: u32) -> Self {
        assert!(ranks > 0, "NMP needs at least one rank");
        NmpConfig {
            ranks,
            timing: DdrTiming::default(),
            energy: NmpEnergyModel::default(),
        }
    }
}

/// Result of simulating one gather-reduce operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NmpEstimate {
    /// Wall-clock latency of the gather on the DIMM side.
    pub latency: SimDuration,
    /// DRAM + NMP-logic energy.
    pub energy: Joules,
}

/// The cycle-level simulator.
///
/// Models each rank's banks and internal data bus: an access occupies a bank
/// for activate+read+precharge and the rank bus for its bursts; accesses are
/// striped round-robin over ranks then banks (embedding rows hash uniformly).
/// Access `i` goes to rank `i % ranks` and bank `(i / ranks) % banks`, so the
/// `k`-th access of every rank lands on bank `k % banks`: every rank replays
/// the same bank sequence from the same idle state, and one rank's
/// chain of bank and bus state stands for them all.
#[derive(Debug, Clone)]
pub struct NmpSimulator {
    config: NmpConfig,
}

impl NmpSimulator {
    /// Creates a simulator for `config`.
    pub fn new(config: NmpConfig) -> Self {
        NmpSimulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &NmpConfig {
        &self.config
    }

    /// Simulates gathering `accesses` random rows of `row_bytes` each,
    /// reduced on-DIMM (only the pooled result crosses the channel, which is
    /// accounted by the cost model, not here).
    pub fn gather_reduce(&self, accesses: u64, row_bytes: u32) -> NmpEstimate {
        self.estimate(
            &mut RankChain::new(&self.config.timing, row_bytes),
            accesses,
            row_bytes,
        )
    }

    /// The estimate for `accesses` gathers, advancing `chain` (built for
    /// `row_bytes`-wide rows, and no further along than this count's
    /// busiest rank) to it. Rank 0 serves the most accesses, `ceil(accesses
    /// / ranks)`, and its bus frees last: its bus-free time is the gather's
    /// latency.
    fn estimate(&self, chain: &mut RankChain, accesses: u64, row_bytes: u32) -> NmpEstimate {
        let latency_ns = chain.serve(accesses.div_ceil(u64::from(self.config.ranks)));
        let t = &self.config.timing;
        let e = &self.config.energy;
        let per_access_nj = t.row_miss_rate * e.activate_nj
            + bursts(t, row_bytes) * e.read_burst_nj
            + e.nmp_logic_nj;
        let energy_j = accesses as f64 * per_access_nj * 1e-9;

        NmpEstimate {
            latency: SimDuration::from_nanos(latency_ns.round() as u64),
            energy: Joules(energy_j),
        }
    }
}

/// Bursts one `row_bytes`-wide row takes.
fn bursts(t: &DdrTiming, row_bytes: u32) -> f64 {
    row_bytes.div_ceil(t.burst_bytes).max(1) as f64
}

/// One rank's banks and data bus, serving its accesses in order.
#[derive(Debug)]
struct RankChain {
    /// When each bank is next free, in ns.
    bank_free: Vec<f64>,
    /// When the data bus is next free, in ns.
    bus_free: f64,
    /// Accesses served so far.
    served: u64,
    /// A burst train's bus occupancy, in ns.
    burst_ns: f64,
    /// Expected access latency at the configured row-miss rate, in ns.
    access_lat_ns: f64,
    precharge_ns: f64,
}

impl RankChain {
    /// An idle rank serving `row_bytes`-wide rows.
    fn new(t: &DdrTiming, row_bytes: u32) -> Self {
        let hit_lat_ns = t.cl as f64 * t.tck_ns;
        let miss_lat_ns = (t.trp + t.trcd + t.cl) as f64 * t.tck_ns;
        RankChain {
            bank_free: vec![0.0; t.banks_per_rank as usize],
            bus_free: 0.0,
            served: 0,
            burst_ns: bursts(t, row_bytes) * (t.burst_cycles + t.bus_gap_cycles) as f64 * t.tck_ns,
            access_lat_ns: t.row_miss_rate * miss_lat_ns + (1.0 - t.row_miss_rate) * hit_lat_ns,
            precharge_ns: t.trp as f64 * t.tck_ns,
        }
    }

    /// Serves accesses until `n` are served and returns when the data bus
    /// frees after the last.
    fn serve(&mut self, n: u64) -> f64 {
        let banks = self.bank_free.len() as u64;
        while self.served < n {
            let b = (self.served % banks) as usize;
            // The access starts when its bank is free; data return
            // additionally waits for the rank data bus.
            let start = self.bank_free[b];
            let data_start = (start + self.access_lat_ns).max(self.bus_free);
            let done = data_start + self.burst_ns;
            self.bus_free = done;
            self.bank_free[b] = done + self.precharge_ns;
            self.served += 1;
        }
        self.bus_free
    }
}

/// Pre-simulated latency/energy lookup table, linear-interpolated in the
/// access count (the paper's LUT methodology, Fig. 13).
#[derive(Debug, Clone)]
pub struct NmpLut {
    ranks: u32,
    row_bytes: u32,
    /// Sorted `(accesses, estimate)` grid points.
    points: Vec<(u64, NmpEstimate)>,
}

impl NmpLut {
    /// Builds a LUT for `row_bytes`-wide rows by sweeping a log-spaced grid
    /// of access counts on the cycle-level simulator: one sweep of one
    /// rank's chain, read off at each grid point.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes == 0`.
    pub fn build(config: &NmpConfig, row_bytes: u32) -> NmpLut {
        assert!(row_bytes > 0, "rows must have bytes");
        let sim = NmpSimulator::new(config.clone());
        let mut chain = RankChain::new(&config.timing, row_bytes);
        let grid = std::iter::successors(Some(1u64), |a| Some(a * 2));
        let points = grid
            .take_while(|&a| a <= 4_194_304)
            .map(|a| (a, sim.estimate(&mut chain, a, row_bytes)))
            .collect();
        NmpLut {
            ranks: config.ranks,
            row_bytes,
            points,
        }
    }

    /// Rank parallelism this LUT was built for.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Row width this LUT was built for.
    pub fn row_bytes(&self) -> u32 {
        self.row_bytes
    }

    /// Interpolated estimate for `accesses` gathers.
    ///
    /// Below the first grid point the first entry is scaled down linearly;
    /// above the last, extrapolated linearly (gathers are asymptotically
    /// bandwidth-linear).
    pub fn lookup(&self, accesses: u64) -> NmpEstimate {
        if accesses == 0 {
            return NmpEstimate {
                latency: SimDuration::ZERO,
                energy: Joules::ZERO,
            };
        }
        let pts = &self.points;
        let scale = |e: &NmpEstimate, f: f64| NmpEstimate {
            latency: e.latency.mul_f64(f),
            energy: e.energy * f,
        };
        if accesses <= pts[0].0 {
            return scale(&pts[0].1, accesses as f64 / pts[0].0 as f64);
        }
        if accesses >= pts[pts.len() - 1].0 {
            let last = &pts[pts.len() - 1];
            return scale(&last.1, accesses as f64 / last.0 as f64);
        }
        let idx = pts.partition_point(|&(a, _)| a < accesses);
        let (a0, e0) = &pts[idx - 1];
        let (a1, e1) = &pts[idx];
        let f = (accesses - a0) as f64 / (a1 - a0) as f64;
        NmpEstimate {
            latency: SimDuration::from_nanos(
                (e0.latency.as_nanos() as f64
                    + f * (e1.latency.as_nanos() as f64 - e0.latency.as_nanos() as f64))
                    .round() as u64,
            ),
            energy: Joules(e0.energy.value() + f * (e1.energy.value() - e0.energy.value())),
        }
    }
}

/// A family of LUTs over the standard embedding row widths, so the cost
/// model can serve any table dimension.
#[derive(Debug, Clone)]
pub struct NmpLutSet {
    config: NmpConfig,
    luts: Vec<NmpLut>,
}

impl NmpLutSet {
    /// Standard widths covering dim 16–128 f32 embeddings.
    pub const STANDARD_WIDTHS: [u32; 4] = [64, 128, 256, 512];

    /// Builds LUTs for the standard row widths with `total_ranks` rank-level
    /// parallelism (`MemorySpec::total_ranks`).
    pub fn standard(total_ranks: u32) -> NmpLutSet {
        let config = NmpConfig::with_ranks(total_ranks);
        let luts = Self::STANDARD_WIDTHS
            .iter()
            .map(|&w| NmpLut::build(&config, w))
            .collect();
        NmpLutSet { config, luts }
    }

    /// Total ranks the set was built for.
    pub fn ranks(&self) -> u32 {
        self.config.ranks
    }

    /// Estimate for `accesses` gathers of `row_bytes`-wide rows, using the
    /// nearest covering LUT width (scaled by the byte ratio for widths
    /// beyond the grid).
    pub fn estimate(&self, row_bytes: u32, accesses: u64) -> NmpEstimate {
        if let Some(lut) = self.luts.iter().find(|l| l.row_bytes() == row_bytes) {
            return lut.lookup(accesses);
        }
        // Use the smallest width >= requested, else scale the widest.
        if let Some(lut) = self.luts.iter().find(|l| l.row_bytes() >= row_bytes) {
            return lut.lookup(accesses);
        }
        let widest = self.luts.last().expect("standard widths are non-empty");
        let base = widest.lookup(accesses);
        let f = row_bytes as f64 / widest.row_bytes() as f64;
        NmpEstimate {
            latency: base.latency.mul_f64(f),
            energy: base.energy * f,
        }
    }
}

/// An explicit, shareable cache of [`NmpLutSet`]s keyed by total rank count.
///
/// Building a LUT set sweeps the cycle-level simulator, so every
/// `(model, plan)` evaluation against the same memory subsystem should reuse
/// one. The cache used to be a process-global `OnceLock`; it is now owned by
/// whoever drives evaluations (e.g. `hercules-core`'s `EvalContext`) and
/// threaded down explicitly, so parallel profilers can share — or isolate —
/// LUT reuse deliberately. Cloning shares nothing; wrap in [`std::sync::Arc`]
/// to share across threads.
///
/// LUT contents depend only on the rank count, so sharing a cache across
/// threads never changes results — only how often the sweep is paid.
#[derive(Debug, Default)]
pub struct NmpLutCache {
    // Per-key `OnceLock` slots: the map mutex is held only to look up or
    // insert a slot, never across a build, so distinct rank counts build
    // concurrently while same-key requests still dedupe to one sweep.
    sets: Mutex<HashMap<u32, Arc<OnceLock<Arc<NmpLutSet>>>>>,
}

impl NmpLutCache {
    /// An empty cache.
    pub fn new() -> Self {
        NmpLutCache::default()
    }

    /// The LUT set for `total_ranks`, building it on first use.
    ///
    /// Concurrent requests for the same rank count wait on one build;
    /// requests for different rank counts build in parallel.
    pub fn get_or_build(&self, total_ranks: u32) -> Arc<NmpLutSet> {
        let slot = {
            let mut sets = self.sets.lock().expect("nmp lut cache poisoned");
            Arc::clone(sets.entry(total_ranks).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(NmpLutSet::standard(total_ranks))))
    }

    /// Number of distinct rank counts cached (built or building) so far.
    pub fn len(&self) -> usize {
        self.sets.lock().expect("nmp lut cache poisoned").len()
    }

    /// Whether nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulator as first written: every rank's banks and bus, each
    /// access served in order.
    fn all_ranks(config: &NmpConfig, accesses: u64, row_bytes: u32) -> NmpEstimate {
        let t = &config.timing;
        let ranks = config.ranks as usize;
        let banks = t.banks_per_rank as usize;

        let bursts = row_bytes.div_ceil(t.burst_bytes).max(1) as f64;
        let burst_ns = bursts * (t.burst_cycles + t.bus_gap_cycles) as f64 * t.tck_ns;
        let hit_lat_ns = t.cl as f64 * t.tck_ns;
        let miss_lat_ns = (t.trp + t.trcd + t.cl) as f64 * t.tck_ns;
        let access_lat_ns = t.row_miss_rate * miss_lat_ns + (1.0 - t.row_miss_rate) * hit_lat_ns;
        let precharge_ns = t.trp as f64 * t.tck_ns;

        let mut bank_free = vec![vec![0.0f64; banks]; ranks];
        let mut bus_free = vec![0.0f64; ranks];
        for i in 0..accesses {
            let r = (i as usize) % ranks;
            let b = ((i as usize) / ranks) % banks;
            let start = bank_free[r][b];
            let data_start = (start + access_lat_ns).max(bus_free[r]);
            let done = data_start + burst_ns;
            bus_free[r] = done;
            bank_free[r][b] = done + precharge_ns;
        }
        let latency_ns = bus_free.iter().cloned().fold(0.0f64, f64::max);

        let e = &config.energy;
        let per_access_nj =
            t.row_miss_rate * e.activate_nj + bursts * e.read_burst_nj + e.nmp_logic_nj;
        NmpEstimate {
            latency: SimDuration::from_nanos(latency_ns.round() as u64),
            energy: Joules(accesses as f64 * per_access_nj * 1e-9),
        }
    }

    fn same_bits(a: NmpEstimate, b: NmpEstimate) -> bool {
        a.latency == b.latency && a.energy.value().to_bits() == b.energy.value().to_bits()
    }

    #[test]
    fn one_rank_chain_matches_every_rank_bit_for_bit() {
        // Grid points up to 2^12 and counts between them, around the rank
        // count and past a whole bank cycle.
        let grid = (0..=12).map(|k| 1u64 << k);
        let between = [
            0u64, 3, 5, 7, 15, 17, 31, 33, 100, 257, 1000, 1500, 3000, 5001,
        ];
        let counts: Vec<u64> = grid.chain(between).collect();
        for ranks in 1..=32 {
            let config = NmpConfig::with_ranks(ranks);
            let sim = NmpSimulator::new(config.clone());
            for row_bytes in NmpLutSet::STANDARD_WIDTHS.into_iter().chain([100]) {
                let near = [
                    ranks as u64 - 1,
                    ranks as u64,
                    ranks as u64 + 1,
                    16 * ranks as u64 + 1,
                ];
                for &a in counts.iter().chain(&near) {
                    let (got, want) = (
                        sim.gather_reduce(a, row_bytes),
                        all_ranks(&config, a, row_bytes),
                    );
                    assert!(
                        same_bits(got, want),
                        "ranks {ranks}, {row_bytes} B, {a} accesses: {got:?} vs {want:?}"
                    );
                }
                // The LUT's one sweep, at its grid points up to 2^12.
                let lut = NmpLut::build(&config, row_bytes);
                for &(a, got) in lut.points.iter().take(13) {
                    let want = all_ranks(&config, a, row_bytes);
                    assert!(
                        same_bits(got, want),
                        "LUT: ranks {ranks}, {row_bytes} B, {a} accesses"
                    );
                }
            }
        }
        // Every grid point of the sweep, at a few rank counts.
        for ranks in [1, 3, 8] {
            let config = NmpConfig::with_ranks(ranks);
            let lut = NmpLut::build(&config, 128);
            assert_eq!(lut.points.len(), 23);
            for &(a, got) in &lut.points {
                let want = all_ranks(&config, a, 128);
                assert!(same_bits(got, want), "LUT: ranks {ranks}, {a} accesses");
            }
        }
    }

    #[test]
    fn more_ranks_cut_latency() {
        let accesses = 10_000;
        let l2 = NmpSimulator::new(NmpConfig::with_ranks(2))
            .gather_reduce(accesses, 128)
            .latency;
        let l4 = NmpSimulator::new(NmpConfig::with_ranks(4))
            .gather_reduce(accesses, 128)
            .latency;
        let l8 = NmpSimulator::new(NmpConfig::with_ranks(8))
            .gather_reduce(accesses, 128)
            .latency;
        assert!(l4 < l2);
        assert!(l8 < l4);
        // Rank parallelism is nearly linear for large gathers.
        let speedup = l2.as_secs_f64() / l8.as_secs_f64();
        assert!(speedup > 3.0, "x8 over x2 speedup {speedup}");
    }

    #[test]
    fn latency_scales_with_accesses() {
        let sim = NmpSimulator::new(NmpConfig::with_ranks(2));
        let l1 = sim.gather_reduce(1_000, 128).latency;
        let l10 = sim.gather_reduce(10_000, 128).latency;
        let ratio = l10.as_secs_f64() / l1.as_secs_f64();
        assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn energy_scales_linearly() {
        let sim = NmpSimulator::new(NmpConfig::with_ranks(4));
        let e1 = sim.gather_reduce(1_000, 128).energy.value();
        let e2 = sim.gather_reduce(2_000, 128).energy.value();
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wider_rows_cost_more() {
        let sim = NmpSimulator::new(NmpConfig::with_ranks(2));
        let narrow = sim.gather_reduce(5_000, 64);
        let wide = sim.gather_reduce(5_000, 256);
        assert!(wide.latency > narrow.latency);
        assert!(wide.energy > narrow.energy);
    }

    #[test]
    fn lut_matches_simulator_at_grid_points() {
        let cfg = NmpConfig::with_ranks(4);
        let lut = NmpLut::build(&cfg, 128);
        let sim = NmpSimulator::new(cfg);
        for a in [1u64, 64, 4096, 262_144] {
            let direct = sim.gather_reduce(a, 128);
            let cached = lut.lookup(a);
            assert_eq!(direct.latency, cached.latency, "accesses={a}");
        }
    }

    #[test]
    fn lut_interpolates_between_points() {
        let cfg = NmpConfig::with_ranks(2);
        let lut = NmpLut::build(&cfg, 128);
        let lo = lut.lookup(1024).latency.as_nanos();
        let mid = lut.lookup(1536).latency.as_nanos();
        let hi = lut.lookup(2048).latency.as_nanos();
        assert!(lo < mid && mid < hi);
        let expect = (lo + hi) / 2;
        let err = (mid as f64 - expect as f64).abs() / expect as f64;
        assert!(err < 0.05, "interpolation error {err}");
    }

    #[test]
    fn lut_set_covers_widths() {
        let set = NmpLutSet::standard(8);
        assert_eq!(set.ranks(), 8);
        // Exact width.
        let e128 = set.estimate(128, 10_000);
        assert!(e128.latency > SimDuration::ZERO);
        // Unusual width maps to the next width up.
        let e100 = set.estimate(100, 10_000);
        assert_eq!(e100.latency, e128.latency);
        // Beyond the grid scales from the widest.
        let e1024 = set.estimate(1024, 10_000);
        let e512 = set.estimate(512, 10_000);
        let ratio = e1024.latency.as_secs_f64() / e512.latency.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn cache_builds_once_and_shares() {
        let cache = NmpLutCache::new();
        assert!(cache.is_empty());
        let a = cache.get_or_build(4);
        let b = cache.get_or_build(4);
        assert!(Arc::ptr_eq(&a, &b), "same rank count shares one build");
        let c = cache.get_or_build(8);
        assert_eq!(c.ranks(), 8);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(NmpLutCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || cache.get_or_build(2));
            }
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lut_extrapolates_and_handles_zero() {
        let cfg = NmpConfig::with_ranks(2);
        let lut = NmpLut::build(&cfg, 128);
        assert_eq!(lut.lookup(0).latency, SimDuration::ZERO);
        let base = lut.lookup(4_194_304).latency.as_secs_f64();
        let doubled = lut.lookup(8_388_608).latency.as_secs_f64();
        assert!((doubled / base - 2.0).abs() < 0.01);
        assert_eq!(lut.ranks(), 2);
        assert_eq!(lut.row_bytes(), 128);
    }
}
