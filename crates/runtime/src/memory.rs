//! Synthetic embedding arenas: real memory for real gathers.
//!
//! The wall-clock executor's front stages model the sparse phase — the
//! Gather-and-Reduce over embedding tables that makes recommendation
//! inference memory-bound (§IV-B, Fig. 2c). Busy-waiting for the modeled
//! sparse time exercises none of the machine's memory system; this module
//! gives the front pool actual embedding tables to read so the measured
//! service time includes genuine DRAM behaviour (random-access bandwidth,
//! LLC misses, NUMA placement).
//!
//! An [`EmbeddingArena`] backs every table of a model with one contiguous
//! f32 slab. When the full tables exceed the caller's memory budget, each
//! table is *compacted*: it keeps a proportional share of rows and logical
//! Zipf row ranks map onto the allocated rows modulo their count — rank 1
//! (the hottest row) stays rank 1, so the popularity skew the paper's
//! locality analysis depends on survives compaction.
//!
//! Gathers draw their indices from per-table pools pre-sampled from the
//! table's Zipf popularity at build time: sampling rejection-inversion Zipf
//! live would cost more CPU than the gather itself and turn a memory-bound
//! kernel compute-bound. Workers instead pick a random pool offset per
//! sub-query and walk the pool sequentially, so index generation is a few
//! nanoseconds per row while the gathered rows remain maximally scattered.
//! Every gathered row is pooled (summed) into an output vector and folded
//! into a running checksum, so the loads are live data dependencies the
//! optimizer cannot delete.

use hercules_common::arena::ScratchBuf;
use hercules_common::dist::Distribution;
use hercules_common::rng::{mix64, SimRng, GOLDEN_GAMMA};
use hercules_common::units::MemBytes;
use hercules_hw::cost::CacheModel;
use hercules_model::table::EmbeddingTableSpec;

use crate::affinity;

/// Pre-sampled Zipf indices per table. Large enough that the union of hot
/// rows spills the LLC (the gather must hit DRAM), small enough that the
/// one-time rejection-inversion sampling stays in the hundreds of
/// milliseconds.
const INDEX_POOL_LEN: usize = 1 << 18;

/// Floor on rows kept per table under compaction: enough distinct rows
/// that gathers stay random-access rather than cache-resident.
const MIN_ROWS_PER_TABLE: u64 = 4096;

/// How the arena's pages are first-touched at build time. On Linux, pages
/// belong to the NUMA node of the core that first writes them, so the init
/// placement *is* the data placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitPlacement {
    /// One thread fills the whole slab (NUMA-oblivious: all pages land on
    /// the node the builder happens to run on).
    Serial,
    /// The slab is split into one contiguous chunk per listed core and
    /// each chunk is filled by a thread pinned to that core — the cores
    /// the front pool will gather from, so pages land on the gathering
    /// workers' nodes.
    Pinned {
        /// Cores to pin the fill threads to (typically the front pool's
        /// [`CorePlan`](crate::affinity::CorePlan)).
        cores: Vec<usize>,
    },
}

#[derive(Debug)]
struct TableSlot {
    /// Element (not byte) offset of this table in the slab.
    offset: usize,
    /// Rows actually allocated (≤ the spec's row count under compaction).
    rows_alloc: u32,
    /// Embedding dimension.
    dim: u32,
    /// Pooling bounds (rows gathered per item).
    pool_min: u32,
    pool_max: u32,
    /// Pre-sampled Zipf row indices, already mapped into `0..rows_alloc`.
    indices: Vec<u32>,
}

/// Outcome of one gather call: what was read and what it summed to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatherOutcome {
    /// Embedding-table bytes read.
    pub bytes: u64,
    /// Rows gathered across all tables and items.
    pub rows: u64,
    /// Sum of all pooled outputs — a live data dependency on every row
    /// read, and a determinism witness (same seed ⇒ same checksum).
    pub checksum: f64,
}

/// Associativity of the per-table hot-tier cache: 8-way set-associative,
/// matching the organization hardware caches and the HugeCTR-style
/// embedding caches use to bound probe cost while approximating LRU.
const CACHE_WAYS: usize = 8;

/// Sentinel for an empty cache way. Safe: a row index is always
/// `< rows_alloc <= u32::MAX`, so no valid row can equal the sentinel.
const EMPTY_TAG: u32 = u32::MAX;

/// Hit/miss accounting for one [`EmbeddingArena::gather_cached`] call.
///
/// Conservation law: `hits + misses` equals the paired
/// [`GatherOutcome::rows`] exactly — every gathered row is classified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Rows served from the hot tier.
    pub hits: u64,
    /// Rows that fell through to the arena slab.
    pub misses: u64,
    /// Missed rows admitted into the hot tier (always-admit LRU: equals
    /// `misses` whenever the table has a shard at all).
    pub inserted: u64,
}

impl CacheOutcome {
    /// Fraction of gathered rows served by the hot tier (0 when nothing
    /// was gathered).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another outcome (per-worker totals).
    pub fn absorb(&mut self, other: &CacheOutcome) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserted += other.inserted;
    }
}

/// One table's set-associative LRU shard: `sets x CACHE_WAYS` row slots
/// with per-way LRU stamps. `sets == 0` disables caching for the table
/// (its planned hot share rounded to zero rows).
#[derive(Debug)]
struct TableShard {
    sets: u32,
    dim: u32,
    /// Per-table access counter driving LRU stamps.
    tick: u64,
    /// Cached row index per way (`EMPTY_TAG` = vacant).
    tags: Vec<u32>,
    /// Last-touch tick per way.
    stamps: Vec<u64>,
    /// Cached row payloads, exact copies of slab rows.
    data: Vec<f32>,
}

impl TableShard {
    fn with_capacity(hot_rows: u64, dim: u32) -> Self {
        let sets = if hot_rows == 0 {
            0
        } else {
            (hot_rows as usize / CACHE_WAYS).max(1)
        };
        let slots = sets * CACHE_WAYS;
        TableShard {
            sets: sets as u32,
            dim,
            tick: 0,
            tags: vec![EMPTY_TAG; slots],
            stamps: vec![0; slots],
            data: vec![0.0; slots * dim as usize],
        }
    }

    /// Probes the set for `row`; on a hit, refreshes its LRU stamp and
    /// returns the element offset of the cached payload.
    #[inline]
    fn lookup(&mut self, row: u32) -> Option<usize> {
        if self.sets == 0 {
            return None;
        }
        self.tick += 1;
        let base = (row % self.sets) as usize * CACHE_WAYS;
        for way in base..base + CACHE_WAYS {
            if self.tags[way] == row {
                self.stamps[way] = self.tick;
                return Some(way * self.dim as usize);
            }
        }
        None
    }

    /// Admits `row` (always-admit policy), evicting the set's LRU way if
    /// no way is vacant. Returns whether an insert happened.
    #[inline]
    fn insert(&mut self, row: u32, src: &[f32]) -> bool {
        if self.sets == 0 {
            return false;
        }
        let base = (row % self.sets) as usize * CACHE_WAYS;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for way in base..base + CACHE_WAYS {
            if self.tags[way] == EMPTY_TAG {
                victim = way;
                break;
            }
            if self.stamps[way] < oldest {
                oldest = self.stamps[way];
                victim = way;
            }
        }
        self.tags[victim] = row;
        self.stamps[victim] = self.tick;
        let d = self.dim as usize;
        self.data[victim * d..victim * d + d].copy_from_slice(src);
        true
    }
}

/// One worker's hot-tier embedding cache: a per-table set-associative LRU
/// shard sized from a [`CacheModel`] plan, holding exact copies of slab
/// rows.
///
/// Each gathering worker owns its own shard (built inside the worker
/// thread, so first touch places it on the worker's NUMA node) — the
/// runtime analogue of the per-worker [`crate::memory`] capacity the cost
/// model's `CacheSpec` describes. Fully preallocated: lookups and inserts
/// never allocate, keeping the real-gather hot path allocation-free.
#[derive(Debug)]
pub struct EmbeddingCacheShard {
    tables: Vec<TableShard>,
    predicted_hit_rate: f64,
}

impl EmbeddingCacheShard {
    /// The planning model's predicted overall hit rate, carried for
    /// measured-vs-predicted reporting.
    pub fn predicted_hit_rate(&self) -> f64 {
        self.predicted_hit_rate
    }
}

/// Per-worker scratch for [`EmbeddingArena::gather`]: the pooled-output
/// accumulator, reused across calls so steady-state gathers allocate
/// nothing.
#[derive(Debug, Default)]
pub struct GatherScratch {
    pooled: ScratchBuf<f32>,
}

impl GatherScratch {
    /// Scratch pre-sized for tables up to `max_dim` wide.
    pub fn with_dim(max_dim: u32) -> Self {
        GatherScratch {
            pooled: ScratchBuf::with_capacity(max_dim as usize),
        }
    }
}

/// Synthetic embedding tables in real, resident memory.
#[derive(Debug)]
pub struct EmbeddingArena {
    slab: Vec<f32>,
    tables: Vec<TableSlot>,
    resident: MemBytes,
    full_size: MemBytes,
    seed: u64,
    compacted: bool,
}

impl EmbeddingArena {
    /// Builds an arena for `specs`, deterministically filled from `seed`,
    /// holding every table in full if they fit within `budget` and
    /// proportionally compacted rows otherwise.
    pub fn build(
        specs: &[EmbeddingTableSpec],
        budget: MemBytes,
        seed: u64,
        placement: &InitPlacement,
    ) -> Self {
        let full: u64 = specs.iter().map(|t| t.size().as_bytes()).sum();
        let scale = if full <= budget.as_bytes() || full == 0 {
            1.0
        } else {
            budget.as_bytes() as f64 / full as f64
        };
        let compacted = scale < 1.0;

        let mut tables = Vec::with_capacity(specs.len());
        let mut offset = 0usize;
        for spec in specs {
            let rows_alloc = if compacted {
                ((spec.rows as f64 * scale) as u64)
                    .max(MIN_ROWS_PER_TABLE)
                    .min(spec.rows)
            } else {
                spec.rows
            };
            let rows_alloc = u32::try_from(rows_alloc).unwrap_or(u32::MAX);
            let (pool_min, pool_max) = spec.pooling.bounds();
            tables.push(TableSlot {
                offset,
                rows_alloc,
                dim: spec.dim,
                pool_min,
                pool_max,
                indices: Vec::new(),
            });
            offset += rows_alloc as usize * spec.dim as usize;
        }

        // Allocate the slab zeroed (lazy pages), then first-touch it
        // according to the placement plan.
        let mut slab = vec![0.0f32; offset];
        fill_slab(&mut slab, seed, placement);

        // Pre-sample the per-table index pools. Zipf ranks are 1-based,
        // hottest first; under compaction rank r maps to allocated row
        // (r - 1) mod rows_alloc, which is the identity for every hot row
        // that survived.
        let mut rng = SimRng::seed_from(seed ^ 0x45AE_9A14_7C3B_00D7);
        for (slot, spec) in tables.iter_mut().zip(specs) {
            let zipf = spec.popularity();
            let mut pool_rng = rng.fork();
            slot.indices = (0..INDEX_POOL_LEN)
                .map(|_| {
                    let rank = zipf.sample(&mut pool_rng);
                    ((rank - 1) % slot.rows_alloc as u64) as u32
                })
                .collect();
        }

        EmbeddingArena {
            resident: MemBytes::from_bytes(offset as u64 * 4),
            full_size: MemBytes::from_bytes(full),
            slab,
            tables,
            seed,
            compacted,
        }
    }

    /// Gathers embeddings for `items` items across every table: per item
    /// and table, a Zipf-pooled set of rows is read from the slab and
    /// summed into the scratch accumulator. Allocation-free once `scratch`
    /// has reached its high-water mark.
    pub fn gather(
        &self,
        items: u32,
        rng: &mut SimRng,
        scratch: &mut GatherScratch,
    ) -> GatherOutcome {
        self.walk(items, rng, scratch, std::iter::repeat(Slab)).0
    }

    /// The one gather traversal: per table, one random pool offset per
    /// (sub-query, table), then per item a pooled row count. Items walk
    /// the pool sequentially with wraparound, and each row is read through
    /// the table's entry of `sources` and summed into the scratch
    /// accumulator. Monomorphized per row source, so the uncached kernel
    /// carries no per-row cache branch.
    fn walk<S: RowSource>(
        &self,
        items: u32,
        rng: &mut SimRng,
        scratch: &mut GatherScratch,
        sources: impl Iterator<Item = S>,
    ) -> (GatherOutcome, CacheOutcome) {
        let mut out = GatherOutcome::default();
        let mut stats = CacheOutcome::default();
        for (slot, mut source) in self.tables.iter().zip(sources) {
            let dim = slot.dim as usize;
            let table = &self.slab[slot.offset..slot.offset + slot.rows_alloc as usize * dim];
            let pool = &slot.indices[..];
            let mut cursor = rng.index(pool.len());
            let pooled = scratch.pooled.take(dim);
            let mut table_rows = 0u64;
            for _ in 0..items {
                let rows = rng.int_range(slot.pool_min as u64, slot.pool_max as u64) as usize;
                for _ in 0..rows {
                    let row = pool[cursor];
                    cursor += 1;
                    if cursor == pool.len() {
                        cursor = 0;
                    }
                    let src = source.read(row, table, dim, &mut stats);
                    for (acc, &v) in pooled.iter_mut().zip(src) {
                        *acc += v;
                    }
                }
                table_rows += rows as u64;
            }
            out.rows += table_rows;
            out.bytes += table_rows * slot.dim as u64 * 4;
            out.checksum += pooled.iter().map(|&v| v as f64).sum::<f64>();
        }
        (out, stats)
    }

    /// Builds one worker's hot-tier cache shard from a planning model:
    /// table `i` gets a set-associative LRU sized to the plan's
    /// `hot_rows(i)`, clamped to the rows the (possibly compacted) arena
    /// actually allocated.
    pub fn cache_shard(&self, model: &CacheModel) -> EmbeddingCacheShard {
        let tables = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let hot = model.hot_rows(i).min(slot.rows_alloc as u64);
                TableShard::with_capacity(hot, slot.dim)
            })
            .collect();
        EmbeddingCacheShard {
            tables,
            predicted_hit_rate: model.overall_hit_rate(),
        }
    }

    /// [`EmbeddingArena::gather`] through a worker's hot-tier cache
    /// shard, built by this arena's [`cache_shard`](Self::cache_shard):
    /// rows present in the shard are summed from the cached copy (no slab
    /// access), misses read the slab and are admitted via LRU.
    ///
    /// Walks the same traversal as `gather` and the shard holds
    /// exact row copies, so the returned [`GatherOutcome`] — bytes, rows,
    /// checksum — is bitwise equal to an uncached gather of the same
    /// stream; only where the rows were read from differs. The paired
    /// [`CacheOutcome`] classifies every gathered row as hit or miss.
    pub fn gather_cached(
        &self,
        items: u32,
        rng: &mut SimRng,
        scratch: &mut GatherScratch,
        cache: &mut EmbeddingCacheShard,
    ) -> (GatherOutcome, CacheOutcome) {
        self.walk(items, rng, scratch, cache.tables.iter_mut())
    }

    /// Bytes of embedding data resident in the slab.
    pub fn resident(&self) -> MemBytes {
        self.resident
    }

    /// Bytes the full (uncompacted) tables would need.
    pub fn full_size(&self) -> MemBytes {
        self.full_size
    }

    /// Whether the budget forced row compaction.
    pub fn is_compacted(&self) -> bool {
        self.compacted
    }

    /// The seed the slab contents and index pools derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Widest embedding dimension across tables (sizes gather scratch).
    pub fn max_dim(&self) -> u32 {
        self.tables.iter().map(|t| t.dim).max().unwrap_or(0)
    }
}

/// Where the gather walk reads one table's rows from.
trait RowSource {
    /// Row `row` of the table whose slab rows of width `dim` are `table`,
    /// with a cache's hit or miss counted into `stats`.
    fn read<'a>(
        &'a mut self,
        row: u32,
        table: &'a [f32],
        dim: usize,
        stats: &mut CacheOutcome,
    ) -> &'a [f32];
}

/// Every row straight from the slab.
#[derive(Clone, Copy)]
struct Slab;

impl RowSource for Slab {
    #[inline(always)]
    fn read<'a>(
        &'a mut self,
        row: u32,
        table: &'a [f32],
        dim: usize,
        _: &mut CacheOutcome,
    ) -> &'a [f32] {
        &table[row as usize * dim..row as usize * dim + dim]
    }
}

/// A hot-tier shard in front of the slab: hits come from the shard,
/// misses from the slab, and misses are admitted by LRU.
impl RowSource for &mut TableShard {
    #[inline(always)]
    fn read<'a>(
        &'a mut self,
        row: u32,
        table: &'a [f32],
        dim: usize,
        stats: &mut CacheOutcome,
    ) -> &'a [f32] {
        if let Some(base) = self.lookup(row) {
            stats.hits += 1;
            return &self.data[base..base + dim];
        }
        stats.misses += 1;
        let src = &table[row as usize * dim..row as usize * dim + dim];
        if self.insert(row, src) {
            stats.inserted += 1;
        }
        src
    }
}

/// Deterministic f32 in [0, 1) for slab element `idx` under `seed`
/// (SplitMix64 avalanche; chunk-order independent so parallel and serial
/// fills produce identical slabs).
#[inline]
fn element_value(seed: u64, idx: u64) -> f32 {
    let z = mix64(seed ^ idx.wrapping_mul(GOLDEN_GAMMA));
    (z >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

fn fill_chunk(chunk: &mut [f32], seed: u64, base: u64) {
    for (i, v) in chunk.iter_mut().enumerate() {
        *v = element_value(seed, base + i as u64);
    }
}

fn fill_slab(slab: &mut [f32], seed: u64, placement: &InitPlacement) {
    match placement {
        InitPlacement::Serial => fill_chunk(slab, seed, 0),
        InitPlacement::Pinned { cores } if cores.is_empty() => fill_chunk(slab, seed, 0),
        InitPlacement::Pinned { cores } => {
            let n = cores.len();
            let chunk_len = slab.len().div_ceil(n);
            std::thread::scope(|s| {
                for (i, chunk) in slab.chunks_mut(chunk_len.max(1)).enumerate() {
                    let core = cores[i % n];
                    let base = (i * chunk_len) as u64;
                    s.spawn(move || {
                        // Best-effort: an unpinnable core still fills its
                        // chunk, just wherever the OS runs it.
                        let _ = affinity::pin_current_thread(core);
                        fill_chunk(chunk, seed, base);
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_model::table::PoolingSpec;

    fn specs() -> Vec<EmbeddingTableSpec> {
        vec![
            EmbeddingTableSpec::new(100_000, 16, PoolingSpec::multi_hot(4, 12), 0.8),
            EmbeddingTableSpec::new(50_000, 32, PoolingSpec::OneHot, 0.9),
        ]
    }

    #[test]
    fn full_build_when_budget_suffices() {
        let arena =
            EmbeddingArena::build(&specs(), MemBytes::from_gib(1), 7, &InitPlacement::Serial);
        assert!(!arena.is_compacted());
        assert_eq!(arena.resident(), arena.full_size());
        assert_eq!(arena.max_dim(), 32);
    }

    #[test]
    fn compaction_respects_budget_and_floor() {
        let budget = MemBytes::from_mib(2);
        let arena = EmbeddingArena::build(&specs(), budget, 7, &InitPlacement::Serial);
        assert!(arena.is_compacted());
        // Proportional shares can overshoot slightly via the per-table row
        // floor; allow the floor's worth of slack.
        let floor_bytes: u64 = specs()
            .iter()
            .map(|t| MIN_ROWS_PER_TABLE * t.row_bytes())
            .sum();
        assert!(arena.resident().as_bytes() <= budget.as_bytes() + floor_bytes);
        assert!(arena.resident() < arena.full_size());
    }

    #[test]
    fn gather_is_deterministic_per_seed_and_reads_bytes() {
        let arena =
            EmbeddingArena::build(&specs(), MemBytes::from_mib(64), 42, &InitPlacement::Serial);
        let mut scratch = GatherScratch::with_dim(arena.max_dim());
        let mut rng = SimRng::seed_from(5);
        let a = arena.gather(64, &mut rng, &mut scratch);
        let mut rng = SimRng::seed_from(5);
        let b = arena.gather(64, &mut rng, &mut scratch);
        assert_eq!(a, b, "same seed must reproduce bytes, rows, checksum");
        assert!(a.bytes > 0 && a.rows > 0);
        assert!(a.checksum.is_finite() && a.checksum != 0.0);
        // Different rng stream → different draw sequence.
        let mut rng = SimRng::seed_from(6);
        let c = arena.gather(64, &mut rng, &mut scratch);
        assert_ne!(a.checksum, c.checksum);
    }

    #[test]
    fn cached_gather_is_bitwise_equal_and_conserves_rows() {
        use hercules_hw::cost::CacheSpec;
        let specs = specs();
        let arena =
            EmbeddingArena::build(&specs, MemBytes::from_mib(64), 42, &InitPlacement::Serial);
        let model = CacheModel::plan(CacheSpec::per_worker_mib(4), &specs);
        let mut shard = arena.cache_shard(&model);
        let mut scratch = GatherScratch::with_dim(arena.max_dim());

        let mut total = CacheOutcome::default();
        for round in 0..8 {
            // Identical rng stream for the cached and uncached paths.
            let mut rng_a = SimRng::seed_from(round);
            let mut rng_b = SimRng::seed_from(round);
            let plain = arena.gather(64, &mut rng_a, &mut scratch);
            let (cached, stats) = arena.gather_cached(64, &mut rng_b, &mut scratch, &mut shard);
            assert_eq!(
                plain, cached,
                "cache must be a pure service-time optimization"
            );
            assert_eq!(
                stats.hits + stats.misses,
                cached.rows,
                "every gathered row is a hit or a miss"
            );
            assert!(stats.inserted <= stats.misses);
            total.absorb(&stats);
        }
        // Zipf reuse + always-admit LRU: the warmed shard must actually
        // hit, in the same ballpark as the model's prediction.
        assert!(
            total.hit_rate() > 0.2,
            "warmed hot tier too cold: {}",
            total.hit_rate()
        );
        assert!(shard.predicted_hit_rate() > 0.0);
    }

    #[test]
    fn measured_hit_rate_monotone_in_capacity() {
        use hercules_hw::cost::CacheSpec;
        let specs = specs();
        let arena =
            EmbeddingArena::build(&specs, MemBytes::from_mib(64), 42, &InitPlacement::Serial);
        let mut scratch = GatherScratch::with_dim(arena.max_dim());
        let mut last = -1.0;
        for kib in [0u64, 64, 512, 4096] {
            let model = CacheModel::plan(
                CacheSpec {
                    capacity: MemBytes::from_bytes(kib << 10),
                    cold_miss_penalty: hercules_common::units::SimDuration::ZERO,
                },
                &specs,
            );
            let mut shard = arena.cache_shard(&model);
            // Warm to steady state first: the largest shard holds ~52k row
            // slots, so a cold measurement would report the fill curve
            // (identical for every capacity above the traffic volume)
            // rather than capacity-dependent behavior.
            for round in 0..64u64 {
                let mut rng = SimRng::seed_from(round);
                let _ = arena.gather_cached(256, &mut rng, &mut scratch, &mut shard);
            }
            let mut total = CacheOutcome::default();
            for round in 0..8u64 {
                let mut rng = SimRng::seed_from(100 + round);
                let (_, stats) = arena.gather_cached(256, &mut rng, &mut scratch, &mut shard);
                total.absorb(&stats);
            }
            let rate = total.hit_rate();
            assert!(
                rate >= last - 0.02,
                "hit rate should grow with capacity: {rate} after {last} at {kib} KiB"
            );
            last = rate;
        }
        assert!(last > 0.5, "a big cache must mostly hit: {last}");
    }

    #[test]
    fn zero_capacity_shard_never_hits() {
        use hercules_hw::cost::CacheSpec;
        let specs = specs();
        let arena =
            EmbeddingArena::build(&specs, MemBytes::from_mib(64), 7, &InitPlacement::Serial);
        let model = CacheModel::plan(CacheSpec::per_worker_mib(0), &specs);
        let mut shard = arena.cache_shard(&model);
        let mut scratch = GatherScratch::with_dim(arena.max_dim());
        let mut rng = SimRng::seed_from(1);
        let (out, stats) = arena.gather_cached(32, &mut rng, &mut scratch, &mut shard);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.misses, out.rows);
    }

    #[test]
    fn parallel_pinned_fill_matches_serial_fill() {
        let spec = vec![EmbeddingTableSpec::new(10_000, 8, PoolingSpec::OneHot, 0.8)];
        let serial =
            EmbeddingArena::build(&spec, MemBytes::from_mib(64), 3, &InitPlacement::Serial);
        let pinned = EmbeddingArena::build(
            &spec,
            MemBytes::from_mib(64),
            3,
            &InitPlacement::Pinned {
                cores: affinity::online_cores(),
            },
        );
        assert_eq!(serial.slab, pinned.slab, "fill must be placement-invariant");
    }
}
