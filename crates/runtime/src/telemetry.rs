//! Lock-cheap per-worker telemetry.
//!
//! Every worker (and every virtual-clock worker slot) owns its own
//! [`WorkerTelemetry`]: one [`Counters`] record, histograms, and
//! resource-accounting buckets, updated without any cross-thread
//! synchronization on the serving path, then merged once at the end of
//! the run. [`Counters`] is the one declaration of a worker's additive
//! scalars: a watched worker publishes it into its [`TelemetrySlot`] as
//! one word image, and the stage sums, the observer's windows and plane
//! totals, and the report's totals all fold it with [`Counters::add`].
//! The histograms are `hercules_common::stats::LatencyHistogram` — fixed
//! log-scale buckets whose merge is exact in any order — and the resource
//! buckets are the simulator's own [`Buckets`], so the merged run
//! summarizes into power/activity figures exactly the way `sim::engine`
//! does.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{SimDuration, SimTime};
use hercules_hw::cost::BatchCost;

use hercules_sim::Buckets;
pub use hercules_sim::StageKind;

use crate::observe::{TouchedHists, WorkerView};
use crate::stage::QueryPhases;
use crate::trace::{stage_tid, SpanKind, TraceEvent, TraceRing};

/// One worker's measurements over a run.
#[derive(Debug)]
pub struct WorkerTelemetry {
    /// The pool this worker serves in.
    pub stage: StageKind,
    /// Worker index within the pool.
    pub worker: u32,
    /// Every additive scalar this worker counts.
    pub counters: Counters,
    /// Queue wait of each batch's head, at this worker.
    pub queue_wait: LatencyHistogram,
    /// Per-batch service time.
    pub service: LatencyHistogram,
    /// End-to-end latency of queries this worker retired (measurement
    /// window only).
    pub e2e: LatencyHistogram,
    /// The `queue_wait` and `e2e` buckets recorded into since the
    /// virtual clock's observer last took them.
    pub(crate) touched: TouchedHists,
    /// Whether this worker died (injected or contained panic).
    pub failed: bool,
    /// Last heartbeat this worker published (dispatch-time liveness).
    pub last_beat: SimTime,
    /// Bucketed resource accounting (merged into the run summary).
    pub(crate) buckets: Buckets,
    /// Live snapshot slot the worker publishes into at each batch end
    /// (attached only when an observer watches the run).
    pub(crate) slot: Option<Arc<TelemetrySlot>>,
    /// Fixed-capacity flight recorder for sampled query spans (attached
    /// only when tracing is configured).
    pub(crate) trace_ring: Option<TraceRing>,
}

impl WorkerTelemetry {
    pub(crate) fn new(stage: StageKind, worker: u32, duration: SimDuration) -> Self {
        WorkerTelemetry {
            stage,
            worker,
            counters: Counters::default(),
            queue_wait: LatencyHistogram::default_latency(),
            service: LatencyHistogram::default_latency(),
            e2e: LatencyHistogram::default_latency(),
            touched: TouchedHists::default(),
            failed: false,
            last_beat: SimTime::ZERO,
            buckets: Buckets::new(duration),
            slot: None,
            trace_ring: None,
        }
    }

    /// Builder: attaches the live snapshot slot this worker publishes
    /// into (see [`TelemetrySlot`]).
    pub(crate) fn with_slot(mut self, slot: Arc<TelemetrySlot>) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Builder: attaches a trace ring of `capacity` events. The ring
    /// preallocates here — at worker start, before any batch — so the
    /// serving path never grows it.
    pub(crate) fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_ring = Some(TraceRing::with_capacity(capacity));
        self
    }

    /// Records one span event for a sampled query (no-op without a ring;
    /// never allocates with one).
    #[inline]
    pub(crate) fn trace(&mut self, query: u32, kind: SpanKind, start: SimTime, dur: SimDuration) {
        if let Some(ring) = &mut self.trace_ring {
            ring.push(TraceEvent {
                query,
                tid: stage_tid(self.stage, self.worker),
                kind,
                start,
                dur,
            });
        }
    }

    /// Publishes the current counter and histogram state into the
    /// attached snapshot slot (no-op when unobserved). One seqlock write
    /// window of relaxed atomic stores: no locks, no allocation.
    #[inline]
    pub(crate) fn publish(&self) {
        if let Some(slot) = &self.slot {
            slot.publish_from(self);
        }
    }

    /// Records one CPU batch dispatched at `start` after waiting `wait`,
    /// charging the modeled latency as the observed service time.
    /// (Executors call [`Self::record_cpu_measured`] directly; this
    /// shorthand keeps the tests readable.)
    #[cfg(test)]
    pub(crate) fn record_cpu(
        &mut self,
        start: SimTime,
        wait: SimDuration,
        items: u32,
        cost: &BatchCost,
    ) {
        self.record_cpu_measured(start, wait, items, cost, cost.latency);
    }

    /// Records one CPU batch whose *observed* service time (`service`)
    /// differs from the modeled latency — the real-gather path, where the
    /// sparse phase is measured rather than emulated. Resource accounting
    /// (core-seconds, channel bytes, NMP energy) still follows the model,
    /// so power summaries stay comparable across gather modes.
    pub(crate) fn record_cpu_measured(
        &mut self,
        start: SimTime,
        wait: SimDuration,
        items: u32,
        cost: &BatchCost,
        service: SimDuration,
    ) {
        let b = self.record_batch(start, wait, items, service);
        self.buckets.cpu_core_s[b] += cost.busy_core_time.as_secs_f64();
        self.buckets.chan_bytes[b] += cost.channel_bytes;
        self.buckets.nmp_j[b] += cost.nmp_energy.value();
        let c = &mut self.counters;
        c.nmp_j += cost.nmp_energy.value();
        if self.stage == StageKind::Front {
            c.idle_weighted += cost.idle_fraction * cost.busy_core_time.as_secs_f64();
            c.busy_weight += cost.busy_core_time.as_secs_f64();
        }
    }

    /// Records one fused GPU batch computed at `start` after its head
    /// waited `wait` (to the start of loading).
    pub(crate) fn record_gpu(
        &mut self,
        start: SimTime,
        wait: SimDuration,
        items: u32,
        cost: &BatchCost,
        ctxs: u32,
    ) {
        let b = self.record_batch(start, wait, items, cost.latency);
        self.buckets.gpu_s[b] += cost.latency.as_secs_f64() * cost.gpu_util / ctxs.max(1) as f64;
    }

    /// Counts one batch of `items` served in `service` after its head
    /// waited `wait`, and returns the resource bucket of `start`.
    fn record_batch(
        &mut self,
        start: SimTime,
        wait: SimDuration,
        items: u32,
        service: SimDuration,
    ) -> usize {
        self.counters.batches += 1;
        self.counters.items += u64::from(items);
        self.counters.busy_ns += service.as_nanos();
        let i = self.queue_wait.record_bucket(wait.as_secs_f64());
        self.touched.queue_wait.set(i);
        self.service.record(service.as_secs_f64());
        self.buckets.index(start)
    }

    /// Records one PCIe transfer occupying the link from `start`.
    pub(crate) fn record_pcie(&mut self, start: SimTime, dur: SimDuration) {
        let b = self.buckets.index(start);
        self.buckets.pcie_s[b] += dur.as_secs_f64();
    }

    /// Records a query this worker retired as a completion. `degraded`
    /// marks queries that received at least one degraded gather; `on_time`
    /// marks completions that met the deadline budget (pass `true` when no
    /// budget is configured).
    pub(crate) fn record_completion(
        &mut self,
        latency: SimDuration,
        phases: &QueryPhases,
        in_window: bool,
        degraded: bool,
        on_time: bool,
    ) {
        let c = &mut self.counters;
        c.completed_total += 1;
        c.completed_degraded += u64::from(degraded);
        if in_window {
            c.completed += 1;
            c.on_time += u64::from(on_time);
            c.sum_queuing += phases.queuing_s;
            c.sum_loading += phases.loading_s;
            c.sum_inference += phases.inference_s;
            let i = self.e2e.record_bucket(latency.as_secs_f64());
            self.touched.e2e.set(i);
        }
    }

    /// Records a query this worker retired expired (dropped at dequeue).
    /// Expired queries never enter the latency histogram or the completion
    /// counters.
    pub(crate) fn record_expired(&mut self) {
        self.counters.expired += 1;
    }

    /// Publishes a heartbeat: the worker is alive and dispatching at
    /// `now`. One relaxed store into the slot (a single `u64` needs no
    /// seqlock window).
    #[inline]
    pub(crate) fn heartbeat(&mut self, now: SimTime) {
        self.last_beat = now;
        if let Some(slot) = &self.slot {
            slot.beat(now);
        }
    }

    /// Records one real gather's traffic and checksum, plus the wall time
    /// the kernel took.
    pub(crate) fn record_gather(&mut self, outcome: &crate::memory::GatherOutcome, wall_s: f64) {
        let c = &mut self.counters;
        c.gather_bytes += outcome.bytes;
        c.gather_rows += outcome.rows;
        c.gather_wall_s += wall_s;
        c.gather_checksum += outcome.checksum;
    }

    /// Records one cached gather's hit/miss classification.
    pub(crate) fn record_cache(&mut self, outcome: &crate::memory::CacheOutcome) {
        let c = &mut self.counters;
        c.cache_hits += outcome.hits;
        c.cache_misses += outcome.misses;
        c.cache_inserted += outcome.inserted;
    }

    /// Records `allocs` heap allocations observed while serving one
    /// post-warm-up batch.
    pub(crate) fn record_hot_allocs(&mut self, allocs: u64) {
        self.counters.hot_allocs += allocs;
        self.counters.hot_samples += 1;
    }
}

// ---------------------------------------------------------------------------
// Live snapshot publication (the observability plane's write side).

/// A counter's bits as one word of a [`TelemetrySlot`]'s image.
trait Word: Copy {
    fn to_word(self) -> u64;
    fn from_word(word: u64) -> Self;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }

    fn from_word(word: u64) -> Self {
        word
    }
}

impl Word for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }

    fn from_word(word: u64) -> Self {
        f64::from_bits(word)
    }
}

/// Declares [`Counters`] from one field list: the struct, its fold and
/// window, and the word image a [`TelemetrySlot`] publishes. A new
/// counter is one more line here plus the code that records or reads it.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)+) => {
        /// One worker's cumulative additive telemetry, or a sum of several
        /// workers'. Published state is monotone, so an observer
        /// differences two reads to get a window.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: $ty,)+
        }

        impl Counters {
            /// Words in the record's image, one per field.
            const WORDS: usize = [$(stringify!($field)),+].len();

            /// Adds another record field by field. Every fold (a stage's
            /// workers, the plane's stages, a run's workers) goes through
            /// here in pool-then-index order, so its float sums are
            /// reproducible bit for bit.
            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)+
            }

            /// The windowed difference `self - prev`. Exact for every
            /// integer counter, so the telescoping sum of all window deltas
            /// equals the final cumulative state (the conservation property
            /// `tests/observer_props.rs` asserts).
            pub fn since(&self, prev: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - prev.$field,)+
                }
            }

            /// The record as words, floats as their bits.
            fn to_words(self) -> [u64; Counters::WORDS] {
                [$(Word::to_word(self.$field)),+]
            }

            /// The record whose image is `words`.
            fn from_words(words: [u64; Counters::WORDS]) -> Counters {
                let [$($field),+] = words;
                Counters {
                    $($field: Word::from_word($field),)+
                }
            }
        }
    };
}

counters! {
    /// Batches served.
    batches: u64,
    /// Items served (sub-query items summed over batches).
    items: u64,
    /// Total service time spent, in nanoseconds.
    busy_ns: u64,
    /// Queries retired within the measurement window.
    completed: u64,
    /// Queries retired over the whole run.
    completed_total: u64,
    /// Whole-run completions that received at least one degraded gather
    /// (a subset of `completed_total`).
    completed_degraded: u64,
    /// Queries retired expired (dropped at dequeue past their deadline);
    /// disjoint from `completed_total`.
    expired: u64,
    /// In-window completions whose end-to-end latency met the deadline
    /// budget (equals `completed` when no budget is configured).
    on_time: u64,
    /// Sub-queries re-enqueued for siblings after a worker detected its
    /// own stall.
    redistributed: u64,
    /// Queuing-phase seconds of retired in-window queries.
    sum_queuing: f64,
    /// Loading-phase seconds of retired in-window queries.
    sum_loading: f64,
    /// Inference-phase seconds of retired in-window queries.
    sum_inference: f64,
    /// Idle-fraction accounting for the host front stage (Fig. 5 metric).
    idle_weighted: f64,
    /// Busy-time weight behind `idle_weighted`.
    busy_weight: f64,
    /// On-DIMM NMP energy issued (joules).
    nmp_j: f64,
    /// Embedding bytes actually read by real gathers (zero in synthetic
    /// mode).
    gather_bytes: u64,
    /// Rows gathered by real gathers.
    gather_rows: u64,
    /// Wall seconds spent inside real gather kernels.
    gather_wall_s: f64,
    /// Sum of gather checksums: a live use of every byte read, and a
    /// cross-run determinism witness.
    gather_checksum: f64,
    /// Rows served from the hot-tier cache shard (zero when the server
    /// provisions no embedding cache).
    cache_hits: u64,
    /// Rows that missed the hot tier and read the arena slab.
    cache_misses: u64,
    /// Missed rows admitted into the shard by its LRU policy.
    cache_inserted: u64,
    /// Heap allocations observed on the hot path after warm-up (populated
    /// only when a counting allocator is installed; see [`thread_allocs`]).
    hot_allocs: u64,
    /// Batches the hot-allocation count was sampled over.
    hot_samples: u64,
}

/// A consistent copy of one worker's published telemetry state, as the
/// wall clock's observer reads it from the worker's [`TelemetrySlot`].
///
/// Histogram state is the raw bucket counts in
/// [`LatencyHistogram::default_latency`]'s layout, so interval quantiles
/// come from the difference of two reads
/// ([`WindowQuantiles`](hercules_common::stats::WindowQuantiles)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerSnap {
    /// Cumulative scalar counters.
    pub counters: Counters,
    /// Queue-wait histogram bucket counts.
    pub queue_wait: Vec<u64>,
    /// End-to-end latency histogram bucket counts (in-window completions).
    pub e2e: Vec<u64>,
    /// The worker's last heartbeat, read beside the snapshot (it is
    /// published outside the seqlock window).
    pub last_beat: SimTime,
}

impl WorkerSnap {
    /// An all-zero snapshot with histogram vectors of `hist_len` buckets.
    pub fn zeroed(hist_len: usize) -> Self {
        WorkerSnap {
            queue_wait: vec![0; hist_len],
            e2e: vec![0; hist_len],
            ..WorkerSnap::default()
        }
    }
}

impl WorkerView for WorkerTelemetry {
    type Hist = LatencyHistogram;

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn queue_wait(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    fn e2e(&self) -> &LatencyHistogram {
        &self.e2e
    }

    fn last_beat(&self) -> SimTime {
        self.last_beat
    }
}

impl WorkerView for WorkerSnap {
    type Hist = [u64];

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn queue_wait(&self) -> &[u64] {
        &self.queue_wait
    }

    fn e2e(&self) -> &[u64] {
        &self.e2e
    }

    fn last_beat(&self) -> SimTime {
        self.last_beat
    }
}

/// A wait-free single-writer snapshot slot: the worker publishes its
/// telemetry state with one seqlock write window per batch, the observer
/// thread reads a consistent copy without ever blocking the writer.
///
/// All data fields are relaxed atomics (no torn reads are possible even
/// mid-window; the sequence number only guards *cross-field* consistency),
/// so the protocol is sound under the Rust memory model while compiling to
/// plain loads and stores on x86. The writer never waits: an observer
/// reading concurrently simply retries. Publication stores nothing beyond
/// this slot — no locks, no allocation — keeping the serving path's cost
/// to one release-publish per batch (~16 KB of relaxed stores, microseconds
/// against millisecond batches; measured in `BENCH_observer.json`).
#[derive(Debug)]
pub struct TelemetrySlot {
    /// Seqlock sequence: odd while a write window is open.
    seq: AtomicU64,
    /// The worker's [`Counters`] image, floats as their bits.
    counters: [AtomicU64; Counters::WORDS],
    /// Last heartbeat in nanoseconds. Outside the seqlock protocol: a
    /// single `u64` gauge written with one relaxed store at dispatch, so a
    /// stalled worker's staleness is visible even though it publishes no
    /// snapshots while frozen.
    beat_ns: AtomicU64,
    queue_wait: Box<[AtomicU64]>,
    e2e: Box<[AtomicU64]>,
}

impl TelemetrySlot {
    /// A slot whose histogram arrays hold `hist_len` buckets (must match
    /// the publishing worker's histogram layout).
    pub fn new(hist_len: usize) -> Self {
        let zeros = || -> Box<[AtomicU64]> { (0..hist_len).map(|_| AtomicU64::new(0)).collect() };
        TelemetrySlot {
            seq: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            beat_ns: AtomicU64::new(0),
            queue_wait: zeros(),
            e2e: zeros(),
        }
    }

    /// Writer side: copies the worker's current state into the slot under
    /// one seqlock window. Single-writer by construction (each worker owns
    /// its slot).
    pub(crate) fn publish_from(&self, t: &WorkerTelemetry) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        // Order the odd sequence before the data stores.
        fence(Ordering::Release);
        for (dst, src) in self.counters.iter().zip(t.counters.to_words()) {
            dst.store(src, Ordering::Relaxed);
        }
        for (dst, src) in self.queue_wait.iter().zip(t.queue_wait.counts()) {
            dst.store(*src, Ordering::Relaxed);
        }
        for (dst, src) in self.e2e.iter().zip(t.e2e.counts()) {
            dst.store(*src, Ordering::Relaxed);
        }
        // Order the data stores before the even sequence.
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Writer side: publishes a heartbeat. One relaxed store — a single
    /// `u64` cannot tear, so it lives outside the seqlock window and stays
    /// fresh even while the worker is mid-batch (or frozen).
    #[inline]
    pub(crate) fn beat(&self, now: SimTime) {
        self.beat_ns.store(now.as_nanos(), Ordering::Relaxed);
    }

    /// Reader side: the worker's last published heartbeat.
    pub fn last_beat(&self) -> SimTime {
        SimTime::from_nanos(self.beat_ns.load(Ordering::Relaxed))
    }

    /// Reader side: retries until it gets a copy with a stable, even
    /// sequence number. Wait-free for the writer; the reader may allocate
    /// (it runs on the observer thread, off the serving path).
    pub fn read(&self) -> WorkerSnap {
        self.consistent(|| WorkerSnap {
            counters: Counters::from_words(
                self.counters.each_ref().map(|c| c.load(Ordering::Relaxed)),
            ),
            queue_wait: self
                .queue_wait
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            e2e: self.e2e.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            last_beat: self.last_beat(),
        })
    }

    /// Reader side: copies only the queue-wait bucket counts into `into`
    /// (which must hold [`hist_len`](Self::hist_len) buckets), under the
    /// same protocol as [`read`](Self::read), allocating nothing.
    pub(crate) fn read_queue_wait(&self, into: &mut [u64]) {
        self.consistent(|| {
            for (dst, src) in into.iter_mut().zip(&*self.queue_wait) {
                *dst = src.load(Ordering::Relaxed);
            }
        });
    }

    /// Buckets in each of the slot's histograms.
    pub(crate) fn hist_len(&self) -> usize {
        self.queue_wait.len()
    }

    /// Runs `copy` until the sequence number reads the same even value
    /// before and after it, so what it copied comes from one write window.
    fn consistent<T>(&self, mut copy: impl FnMut() -> T) -> T {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let out = copy();
            // Order the data loads before the re-check.
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return out;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hot-path allocation instrumentation.
//
// `CountingAlloc` wraps the system allocator and bumps a thread-local
// counter on every `alloc`/`realloc`. Binaries that want the count install
// it with `#[global_allocator]` (the alloc-guard test and the runtime
// benches do); everywhere else `thread_allocs()` just reads 0 and workers
// report `hot_allocs = 0` with `hot_samples` still counted, which the
// report layer treats as "not instrumented" when no allocator is
// installed. The counter is a `const`-initialized `Cell` so reading or
// bumping it can never itself allocate or run a destructor inside the
// allocator.

thread_local! {
    static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Heap allocations performed by the calling thread since it started, as
/// counted by [`CountingAlloc`] (always 0 unless a binary installs it as
/// the global allocator).
pub fn thread_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// A system-allocator wrapper that counts allocations per thread.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: hercules_runtime::telemetry::CountingAlloc =
///     hercules_runtime::telemetry::CountingAlloc;
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The only other work bumps
// the `ALLOCS` thread-local, which is const-initialized and has no
// destructor, so counting can neither allocate nor recurse into the
// allocator.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout` (non-zero size), which `System` requires.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and every block this allocator hands out is `System`'s.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`, `ptr` is `System`'s block of `layout`;
        // the caller guarantees `new_size` is non-zero and does not
        // overflow when rounded to `layout`'s alignment.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `alloc`, the caller's `layout` has non-zero size.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::Joules;

    fn cost(latency_ms: u64) -> BatchCost {
        BatchCost {
            latency: SimDuration::from_millis(latency_ms),
            busy_core_time: SimDuration::from_millis(latency_ms),
            idle_fraction: 0.25,
            channel_bytes: 1e6,
            nmp_energy: Joules(0.5),
            gpu_busy: SimDuration::ZERO,
            gpu_util: 0.0,
            per_op: Vec::new(),
        }
    }

    #[test]
    fn cpu_accounting_accumulates() {
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1));
        t.record_cpu(
            SimTime::from_millis(100),
            SimDuration::from_micros(50),
            128,
            &cost(4),
        );
        t.record_cpu(
            SimTime::from_millis(200),
            SimDuration::from_micros(150),
            64,
            &cost(2),
        );
        assert_eq!(t.counters.batches, 2);
        assert_eq!(t.counters.items, 192);
        assert_eq!(
            SimDuration::from_nanos(t.counters.busy_ns),
            SimDuration::from_millis(6)
        );
        assert_eq!(t.queue_wait.count(), 2);
        assert!((t.counters.nmp_j - 1.0).abs() < 1e-12);
        assert!(
            t.counters.idle_weighted > 0.0,
            "front stage tracks idle fraction"
        );
        let core_s: f64 = t.buckets.cpu_core_s.iter().sum();
        assert!((core_s - 6e-3).abs() < 1e-12);
    }

    #[test]
    fn back_stage_skips_idle_accounting() {
        let mut t = WorkerTelemetry::new(StageKind::Back, 0, SimDuration::from_secs(1));
        t.record_cpu(SimTime::ZERO, SimDuration::ZERO, 32, &cost(1));
        assert_eq!(t.counters.idle_weighted, 0.0);
        assert_eq!(t.counters.busy_weight, 0.0);
    }

    #[test]
    fn measured_service_overrides_modeled_latency() {
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1));
        t.record_cpu_measured(
            SimTime::from_millis(10),
            SimDuration::ZERO,
            32,
            &cost(4),
            SimDuration::from_millis(9),
        );
        assert_eq!(
            SimDuration::from_nanos(t.counters.busy_ns),
            SimDuration::from_millis(9)
        );
        // Resource accounting still follows the model.
        let core_s: f64 = t.buckets.cpu_core_s.iter().sum();
        assert!((core_s - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn gather_and_alloc_accounting() {
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1));
        let outcome = crate::memory::GatherOutcome {
            bytes: 2_000_000_000,
            rows: 1000,
            checksum: 3.5,
        };
        t.record_gather(&outcome, 1.0);
        t.record_gather(&outcome, 1.0);
        assert_eq!(t.counters.gather_bytes, 4_000_000_000);
        assert_eq!(t.counters.gather_rows, 2000);
        assert!((t.counters.gather_checksum - 7.0).abs() < 1e-12);
        t.record_hot_allocs(0);
        t.record_hot_allocs(3);
        assert_eq!(t.counters.hot_allocs, 3);
        assert_eq!(t.counters.hot_samples, 2);
        // No counting allocator installed in unit tests.
        assert_eq!(thread_allocs(), 0);
    }

    #[test]
    fn snapshot_slot_round_trips_published_state() {
        let hist_len = LatencyHistogram::default_latency().counts().len();
        let slot = Arc::new(TelemetrySlot::new(hist_len));
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1))
            .with_slot(Arc::clone(&slot));
        // Before any publish the slot reads as all-zero.
        assert_eq!(slot.read(), WorkerSnap::zeroed(hist_len));

        t.record_cpu(
            SimTime::from_millis(100),
            SimDuration::from_micros(50),
            128,
            &cost(4),
        );
        let phases = QueryPhases {
            queuing_s: 5e-5,
            loading_s: 0.0,
            inference_s: 4e-3,
        };
        t.record_completion(SimDuration::from_millis(4), &phases, true, false, true);
        t.heartbeat(SimTime::from_millis(104));
        t.publish();
        assert_eq!(slot.last_beat(), SimTime::from_millis(104));
        let first = slot.read();
        assert_eq!(first.counters, t.counters, "slot mirrors the worker");
        assert_eq!(first.queue_wait, t.queue_wait.counts());
        assert_eq!(first.e2e, t.e2e.counts());
        assert_eq!(first.counters.batches, 1);
        assert_eq!(first.counters.completed, 1);
        assert_eq!(first.queue_wait.iter().sum::<u64>(), 1);

        t.record_cpu(
            SimTime::from_millis(200),
            SimDuration::from_micros(80),
            64,
            &cost(2),
        );
        t.publish();
        let second = slot.read();
        // The supervisor's partial read copies the same queue waits.
        let mut queue_wait = vec![u64::MAX; slot.hist_len()];
        slot.read_queue_wait(&mut queue_wait);
        assert_eq!(queue_wait, second.queue_wait);
        let delta = second.counters.since(&first.counters);
        assert_eq!(delta.batches, 1);
        assert_eq!(delta.items, 64);
        assert_eq!(delta.completed, 0);
        assert_eq!(
            second.queue_wait.iter().sum::<u64>() - first.queue_wait.iter().sum::<u64>(),
            1
        );

        // Stage aggregation is exact.
        let mut agg = first.counters;
        agg.add(&delta);
        assert_eq!(agg, second.counters, "first + (second - first) == second");
    }

    /// A record whose every field holds a distinct nonzero value (floats
    /// with fractional bits); records for different `k` differ everywhere.
    fn distinct(k: u64) -> Counters {
        let u = |i: u64| 100 * k + i;
        let f = |i: u64| u(i) as f64 + 0.375;
        Counters {
            batches: u(1),
            items: u(2),
            busy_ns: u(3),
            completed: u(4),
            completed_total: u(5),
            completed_degraded: u(6),
            expired: u(7),
            on_time: u(8),
            redistributed: u(9),
            sum_queuing: f(10),
            sum_loading: f(11),
            sum_inference: f(12),
            idle_weighted: f(13),
            busy_weight: f(14),
            nmp_j: f(15),
            gather_bytes: u(16),
            gather_rows: u(17),
            gather_wall_s: f(18),
            gather_checksum: f(19),
            cache_hits: u(20),
            cache_misses: u(21),
            cache_inserted: u(22),
            hot_allocs: u(23),
            hot_samples: u(24),
        }
    }

    #[test]
    fn every_counter_rides_the_word_image_and_the_fold() {
        let hist_len = LatencyHistogram::default_latency().counts().len();
        let slot = Arc::new(TelemetrySlot::new(hist_len));
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1))
            .with_slot(Arc::clone(&slot));
        let (a, b) = (distinct(1), distinct(2));
        t.counters = a;
        t.publish();
        assert_eq!(slot.read().counters, a, "the slot reads back every field");
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.since(&a), b, "since undoes add in every field");
        assert_eq!(sum.since(&b), a);
    }

    #[test]
    fn concurrent_reads_never_see_a_torn_snapshot() {
        // One writer publishes states that keep cross-field invariants while
        // one reader checks every copy it reads against them: a read that
        // mixed two publishes would break at least one.
        const PUBLISHES: u64 = 5_000;
        let hist_len = LatencyHistogram::default_latency().counts().len();
        let slot = Arc::new(TelemetrySlot::new(hist_len));
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1))
                    .with_slot(Arc::clone(&slot));
                start.wait();
                for i in 0..PUBLISHES {
                    t.counters.batches += 1;
                    t.counters.items += 32;
                    t.counters.busy_ns += 1_000_000;
                    t.counters.completed_total += 1;
                    // Spread waits over many buckets so a torn copy of the
                    // histogram shows in its total.
                    t.queue_wait.record((i % 97) as f64 * 1e-4);
                    t.publish();
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            loop {
                let finished = done.load(Ordering::Acquire);
                let s = slot.read();
                let c = s.counters;
                assert_eq!(c.items, 32 * c.batches);
                assert_eq!(c.busy_ns, 1_000_000 * c.batches);
                assert_eq!(c.completed_total, c.batches);
                assert_eq!(s.queue_wait.iter().sum::<u64>(), c.batches);
                if finished {
                    assert_eq!(c.batches, PUBLISHES);
                    break;
                }
            }
        });
    }

    #[test]
    fn trace_ring_attaches_and_tags_worker_track() {
        let mut t =
            WorkerTelemetry::new(StageKind::Gpu, 2, SimDuration::from_secs(1)).with_trace(8);
        t.trace(
            17,
            crate::trace::SpanKind::Gpu,
            SimTime::from_micros(5),
            SimDuration::from_micros(3),
        );
        let ring = t.trace_ring.as_ref().unwrap();
        let evs = ring.events_in_order();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].tid, crate::trace::stage_tid(StageKind::Gpu, 2));
        assert_eq!(evs[0].query, 17);
        // Without a ring, tracing is a no-op.
        let mut bare = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1));
        bare.trace(
            1,
            crate::trace::SpanKind::Front,
            SimTime::ZERO,
            SimDuration::ZERO,
        );
        assert!(bare.trace_ring.is_none());
    }

    #[test]
    fn completions_respect_measurement_window() {
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1));
        let phases = QueryPhases {
            queuing_s: 1e-3,
            loading_s: 0.0,
            inference_s: 4e-3,
        };
        t.record_completion(SimDuration::from_millis(5), &phases, true, false, true);
        t.record_completion(SimDuration::from_millis(7), &phases, false, false, true);
        assert_eq!(t.counters.completed, 1);
        assert_eq!(t.counters.completed_total, 2);
        assert_eq!(t.e2e.count(), 1);
        assert!((t.counters.sum_inference - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn degraded_expired_and_goodput_accounting() {
        let mut t = WorkerTelemetry::new(StageKind::Front, 0, SimDuration::from_secs(1));
        let phases = QueryPhases {
            queuing_s: 1e-3,
            loading_s: 0.0,
            inference_s: 4e-3,
        };
        // A full on-time completion, a degraded on-time completion, a late
        // full completion, and an expired drop.
        t.record_completion(SimDuration::from_millis(5), &phases, true, false, true);
        t.record_completion(SimDuration::from_millis(6), &phases, true, true, true);
        t.record_completion(SimDuration::from_millis(40), &phases, true, false, false);
        t.record_expired();
        assert_eq!(t.counters.completed, 3);
        assert_eq!(t.counters.completed_total, 3);
        assert_eq!(t.counters.completed_degraded, 1);
        assert_eq!(t.counters.on_time, 2, "the late completion is not goodput");
        assert_eq!(t.counters.expired, 1);
        assert_eq!(
            t.e2e.count(),
            3,
            "expired queries never enter the histogram"
        );

        // The new counters ride the snapshot protocol monotonically.
        let c = t.counters;
        assert_eq!(c.completed_degraded, 1);
        assert_eq!(c.expired, 1);
        let mut agg = Counters::default();
        agg.add(&c);
        assert_eq!(agg.since(&c), Counters::default());
    }
}
