//! The wall-clock threaded driver of the serving [`Pipeline`].
//!
//! Worker pools are real OS threads; each batch's modeled service time is
//! burned with a calibrated busy-wait, so the run exhibits genuine
//! concurrency effects — mutex contention on the dispatch queues, batching
//! jitter, PCIe-lock serialization, worker wake-up latency — that the
//! virtual clock cannot show. Timestamps are taken from the wall and
//! mapped back into virtual time (dividing by the configured
//! `time_scale`), so the report is directly comparable with virtual-clock
//! and simulator runs of the same scenario. This module keeps only what
//! threads need — queues, spin-waits, real gathers, stall re-enqueue and
//! the panic boundary — in one function per stage (the front and back
//! pools share one); every serving decision is the pipeline's, as on the
//! virtual clock.
//!
//! Under [`GatherMode::Real`](crate::config::GatherMode::Real) the front
//! pool goes further than timing emulation: each sub-query performs an
//! actual Gather-and-Reduce against a resident synthetic embedding arena
//! (see [`memory`](crate::memory)), so the sparse phase — the part of
//! recommendation inference that is memory-bound (§IV-B) — costs whatever
//! this machine's memory system charges for it. The modeled cost's dense
//! share is still busy-waited, and the *measured* service time is what
//! enters the latency accounting.
//!
//! The per-batch path is allocation-free in steady state: service costs
//! are lent by reference from a pre-warmed memo, sub-query splitting
//! iterates without collecting, dispatch queues pre-reserve their bound,
//! and fused-batch buffers recycle through a freelist. Binaries that
//! install [`CountingAlloc`](crate::telemetry::CountingAlloc) get the
//! per-worker residual counted into the report.
//!
//! Shutdown cascades stage by stage: the dispatcher closes the ingress
//! queue after the last arrival, each pool drains and exits, and the main
//! thread closes the next stage's queue once every upstream producer has
//! joined — the run therefore drains completely and `in_flight` is zero.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use hercules_common::rng::SimRng;
use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::CacheModel;
use hercules_hw::server::ServerSpec;
use hercules_sim::{split_iter, BackStage, Sub, Topology};
use hercules_workload::query::Query;

use crate::admission::{AdmissionCounters, ServiceEwma};
use crate::affinity::{self, CorePlan};
use crate::config::{ClockMode, RuntimeConfig};
use crate::fault::{degraded_latency, Supervisor, SUPERVISOR_PERIOD};
use crate::memory::{EmbeddingArena, EmbeddingCacheShard, GatherScratch};
use crate::observe::RuntimeObserver;
use crate::pipeline::{CpuJob, Dispatcher, Pipeline, PoolView};
use crate::queue::{PopResult, SyncQueue};
use crate::report::{RuntimeReport, WallTotals};
use crate::telemetry::{thread_allocs, StageKind, TelemetrySlot, WorkerSnap, WorkerTelemetry};
use crate::trace::SpanKind;

/// The calibrated wall clock: converts between virtual time and wall
/// instants, and burns service time by spinning (sleeping only the coarse
/// prefix of long waits, so the tail is cycle-accurate).
#[derive(Debug, Clone, Copy)]
struct WallClock {
    start: Instant,
    scale: f64,
}

/// Below this wall wait, spin; above it, sleep the coarse prefix.
const SPIN_THRESHOLD: Duration = Duration::from_micros(150);

/// Between [`SPIN_THRESHOLD`] and this, yield the core between checks
/// instead of pure spinning: with more workers than cores (and always on
/// small machines) a pure spin steals cycles from the worker whose service
/// burn we are waiting behind. Under this bound, spin — a yield's
/// round-trip through the scheduler costs more than the remaining wait.
const YIELD_THRESHOLD: Duration = Duration::from_micros(20);

impl WallClock {
    fn start(scale: f64) -> Self {
        WallClock {
            start: Instant::now(),
            scale: if scale.is_finite() && scale > 0.0 {
                scale
            } else {
                1.0
            },
        }
    }

    /// Current virtual time.
    fn now(&self) -> SimTime {
        let elapsed = self.start.elapsed().as_secs_f64() / self.scale;
        SimTime::from_nanos((elapsed * 1e9).round() as u64)
    }

    fn wall_target(&self, t: SimTime) -> Instant {
        self.start + Duration::from_secs_f64(t.as_secs_f64() * self.scale)
    }

    /// Busy-waits the *virtual* duration `d` (scaled to wall time).
    fn busy_wait(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let target = Instant::now() + Duration::from_secs_f64(d.as_secs_f64() * self.scale);
        spin_until(target);
    }

    /// Waits until virtual instant `t` (the dispatcher pacing arrivals).
    fn wait_until(&self, t: SimTime) {
        spin_until(self.wall_target(t));
    }
}

fn spin_until(target: Instant) {
    loop {
        let now = Instant::now();
        let Some(left) = target.checked_duration_since(now) else {
            return;
        };
        if left > SPIN_THRESHOLD {
            std::thread::sleep(left - SPIN_THRESHOLD);
        } else if left > YIELD_THRESHOLD {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A fused batch in flight from the batcher to a GPU context. Its `subs`
/// buffer is recycled through a freelist, so steady-state batching
/// allocates nothing.
struct GpuBatch {
    subs: Vec<Sub>,
    items: u32,
}

/// Batches served before a worker starts sampling its hot-path allocation
/// counter: the first iterations legitimately allocate (scratch high-water
/// marks, queue rings reaching depth, freelist population). Kept small so
/// wide pools — a 10-worker front stage splits a short run's batches 10
/// ways — still reach the sampled regime within a bench horizon.
const HOT_WARMUP: u64 = 16;

/// A front worker's real-gather state: its stream of row draws, its
/// scratch buffer and its embedding-cache shard.
struct Gatherer {
    rng: SimRng,
    scratch: GatherScratch,
    cache: Option<EmbeddingCacheShard>,
}

/// Everything one wall-clock run's threads share.
struct Wall<'r, 'a> {
    pipe: &'r Pipeline<'a>,
    clock: WallClock,
    /// Each pool's input queue, in [`StageKind`] order: the front pool's,
    /// the host back pool's, and the GPU fusion queue the batcher drains.
    /// The ingress queue is bounded by the config; internal forwards use
    /// blocking pushes (backpressure, never loss).
    queues: [SyncQueue<Sub>; 3],
    gpu_q: SyncQueue<GpuBatch>,
    /// Recycled `GpuBatch::subs` buffers: sized so every in-flight batch
    /// plus every context's just-finished buffer fits without drops.
    free_q: SyncQueue<Vec<Sub>>,
    pcie: Mutex<()>,
    /// Per-worker seqlock slots, in [`StageKind`] order, read by the
    /// observer and supervisor threads (empty when neither runs).
    slots: [Vec<Arc<TelemetrySlot>>; 3],
    counters: Arc<AdmissionCounters>,
    stop: AtomicBool,
    cores: CorePlan,
    arena: Option<&'r EmbeddingArena>,
    cache_model: Option<&'r CacheModel>,
    /// Under real gathers the measured per-sub service (which the static
    /// model cannot see — it depends on this machine's memory system and
    /// on cache warm-up) feeds the admission controller's delay estimate.
    measured: Option<Arc<ServiceEwma>>,
}

/// Runs the wall-clock executor over an explicit arrival trace and
/// assembles the report.
///
/// # Panics
///
/// Panics unless arrivals are non-decreasing and lie within the horizon
/// (checked before any thread starts).
pub(crate) fn run_trace(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    queries: &[Query],
    offered: Qps,
    arena: Option<&EmbeddingArena>,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let ClockMode::Wall { time_scale } = cfg.clock else {
        unreachable!("wall executor only runs in wall mode");
    };
    let pipe = Pipeline::new(topo, server, cfg, queries);
    let mut prev = SimTime::ZERO;
    for q in queries {
        pipe.check_arrival(prev, q);
        prev = q.arrival;
    }
    prewarm_oracles(topo, queries);
    let mut dispatch = pipe.dispatcher();
    // Embedding-tier cache: planned per-table hot shards when the server
    // is cache-provisioned, materialized per front worker under real
    // gathers.
    let cache_model = topo.front.as_ref().and_then(|f| f.svc.cache_model());
    let measured = arena.map(|_| Arc::new(ServiceEwma::new()));
    if let Some(feed) = &measured {
        dispatch.admission.attach_measured(Arc::clone(feed));
    }
    // The supervisor reads worker heartbeats (and plane state) through the
    // same slots the observer uses, so either consumer materializes them.
    let hist_len = LatencyHistogram::default_latency().counts().len();
    let slots_on = observer.is_some() || pipe.supervised;
    let [front, back, gpu] = topo.workers();
    let wall = Wall {
        pipe: &pipe,
        clock: WallClock::start(time_scale),
        queues: [(); 3].map(|_| SyncQueue::new(cfg.queue_depth)),
        gpu_q: SyncQueue::new(gpu.max(1) as usize * 4),
        free_q: SyncQueue::new(gpu.max(1) as usize * 8),
        pcie: Mutex::new(()),
        slots: topo.workers().map(|n| {
            let n = if slots_on { n } else { 0 };
            (0..n)
                .map(|_| Arc::new(TelemetrySlot::new(hist_len)))
                .collect()
        }),
        counters: dispatch.admission.counters(),
        stop: AtomicBool::new(false),
        cores: CorePlan::plan(cfg.affinity, front as usize, back as usize, gpu as usize),
        arena,
        cache_model,
        measured,
    };
    let started = Instant::now();
    let (workers, join_failures) = wall.serve(&mut dispatch, queries, observer);
    let totals = WallTotals {
        join_failures,
        elapsed_s: Some(started.elapsed().as_secs_f64()),
        arena: arena.map(|a| (a.resident().as_bytes(), a.is_compacted())),
        cache_predicted: arena.and(cache_model).map(CacheModel::overall_hit_rate),
    };
    pipe.report(dispatch, offered, workers, totals)
}

impl Wall<'_, '_> {
    /// Spawns every pool, the batcher, and the supervisor and observer
    /// threads, dispatches the trace on this thread, then shuts the
    /// pipeline down stage by stage. Returns every worker's telemetry in
    /// pool-then-index order, and the threads whose panic escaped.
    fn serve(
        &self,
        dispatch: &mut Dispatcher,
        queries: &[Query],
        observer: Option<&mut RuntimeObserver>,
    ) -> (Vec<WorkerTelemetry>, u64) {
        let mut rng_root = SimRng::seed_from(self.pipe.cfg.seed ^ 0xC0FE_FEED_5EED_1234);
        let [front, back, gpu] = self.pipe.topo.workers();
        std::thread::scope(|scope| {
            let front: Vec<_> = (0..front)
                .map(|w| {
                    let rng = rng_root.fork();
                    scope.spawn(move || self.cpu_worker(StageKind::Front, w, Some(rng)))
                })
                .collect();
            let back: Vec<_> = (0..back)
                .map(|w| scope.spawn(move || self.cpu_worker(StageKind::Back, w, None)))
                .collect();
            let batcher = (gpu > 0).then(|| scope.spawn(|| self.batcher()));
            let gpu: Vec<_> = (0..gpu)
                .map(|ctx| scope.spawn(move || self.gpu_worker(ctx)))
                .collect();
            let sup = self
                .pipe
                .supervisor()
                .map(|s| scope.spawn(move || self.supervise(s)));
            let obs = observer.map(|o| scope.spawn(move || self.observe(o)));

            let ingress = &self.queues[self.pipe.topo.ingress().index()];
            for (i, q) in queries.iter().enumerate() {
                self.clock.wait_until(q.arrival);
                self.pipe.dispatch(
                    dispatch,
                    i as u32,
                    q.arrival,
                    q.size,
                    ingress.depth(),
                    |subs| ingress.try_push_all(subs),
                );
            }

            // Shutdown cascade: close each stage once its producers exit.
            // Joins never panic the run: worker panics are contained inside
            // the pool boundary (the worker returns its telemetry with
            // `failed` set), and anything that still escapes — a panic
            // outside the serving loop — is counted, not propagated, so the
            // report is always assembled.
            let mut failures = 0u64;
            self.queues[StageKind::Front.index()].close();
            let mut workers = joined(front, &mut failures);
            self.queues[StageKind::Back.index()].close();
            self.queues[StageKind::Gpu.index()].close();
            workers.extend(joined(back, &mut failures));
            joined(batcher, &mut failures);
            workers.extend(joined(gpu, &mut failures));
            // Every pool has quiesced; release the observer and supervisor
            // for their final reads.
            self.stop.store(true, Ordering::Release);
            joined(sup, &mut failures);
            joined(obs, &mut failures);
            (workers, failures)
        })
    }

    /// Pins the calling worker thread as the core plan says, and gives it
    /// its telemetry, publishing into its slot when one exists.
    fn start_worker(&self, stage: StageKind, w: u32) -> WorkerTelemetry {
        let i = w as usize;
        let core = match stage {
            StageKind::Front => self.cores.front_core(i),
            StageKind::Back => self.cores.back_core(i),
            StageKind::Gpu => self.cores.gpu_core(i),
        };
        if let Some(core) = core {
            let _ = affinity::pin_current_thread(core);
        }
        let t = self.pipe.telemetry(stage, w);
        match self.slots[stage.index()].get(i) {
            Some(slot) => t.with_slot(Arc::clone(slot)),
            None => t,
        }
    }

    /// One front or host back worker: serves its pool's queue until it
    /// closes. The serving loop runs under a panic boundary: a worker that
    /// panics (injected or genuine) is contained — it marks itself dead and
    /// returns its telemetry, the rest of the pool keeps serving.
    fn cpu_worker(&self, stage: StageKind, w: u32, rng: Option<SimRng>) -> WorkerTelemetry {
        let mut t = self.start_worker(stage, w);
        let mut gatherer = self.arena.zip(rng).map(|(arena, rng)| Gatherer {
            rng,
            scratch: GatherScratch::with_dim(arena.max_dim()),
            cache: self.cache_model.map(|m| arena.cache_shard(m)),
        });
        let (pipe, queue) = (self.pipe, &self.queues[stage.index()]);
        let panic_at = pipe.cfg.faults.panic_at(pipe.pools, stage, w);
        let served = catch_unwind(AssertUnwindSafe(|| {
            while let Some(sub) = queue.pop_wait() {
                let sample = t.counters.batches >= HOT_WARMUP;
                let allocs_before = thread_allocs();
                let mut now = self.clock.now();
                t.heartbeat(now);
                if panic_at.is_some_and(|at| now >= at) {
                    panic!("injected fault: worker panic");
                }
                if let Some(end) = pipe
                    .faulty
                    .then(|| pipe.cfg.faults.stall_end(pipe.pools, stage, w, now))
                    .flatten()
                {
                    // Stalled: hand the sub back to the pool (bounded by the
                    // retry budget; the non-blocking push cannot deadlock
                    // the consumer), then freeze until the stall lifts.
                    let retry = Sub {
                        retries: sub.retries + 1,
                        ..sub
                    };
                    let handed_back = u32::from(sub.retries) < pipe.cfg.deadline.retry_budget()
                        && queue.try_push_all(std::iter::once(retry));
                    self.clock.wait_until(end);
                    if handed_back {
                        t.counters.redistributed += 1;
                        continue;
                    }
                    now = self.clock.now();
                }
                if let Some(job) = pipe.cpu_begin(stage, w, &sub, now, &mut t) {
                    let done = self.serve_cpu(stage, &job, &sub, gatherer.as_mut(), &mut t);
                    match pipe.topo.after(stage) {
                        None => pipe.retire(&sub, done, &mut t),
                        Some(next) => {
                            self.queues[next.index()].push_wait(Sub { ready: done, ..sub });
                        }
                    }
                }
                t.publish();
                if sample {
                    t.record_hot_allocs(thread_allocs() - allocs_before);
                }
            }
        }));
        if served.is_err() {
            t.failed = true;
            pipe.controls.mark_dead(stage, w);
        }
        t.publish();
        t
    }

    /// Serves `job` on this thread and returns when it finished. Under
    /// real gathers the sparse phase is an actual Gather-and-Reduce and
    /// only the modeled dense share is busy-waited; the measured total
    /// replaces the modeled latency in every latency-facing account.
    /// Otherwise the modeled service is busy-waited.
    fn serve_cpu(
        &self,
        stage: StageKind,
        job: &CpuJob<'_>,
        sub: &Sub,
        gatherer: Option<&mut Gatherer>,
        t: &mut WorkerTelemetry,
    ) -> SimTime {
        let (arena, start) = (self.arena, job.now);
        let Some((arena, g)) = arena.zip(gatherer) else {
            self.clock.busy_wait(job.svc);
            let done = self.clock.now();
            self.pipe
                .cpu_end(stage, job, sub, (start, done), job.svc, t);
            return done;
        };
        let kernel_start = Instant::now();
        let (outcome, misses) = match g.cache.as_mut() {
            Some(shard) => {
                let (outcome, stats) =
                    arena.gather_cached(sub.items, &mut g.rng, &mut g.scratch, shard);
                t.record_cache(&stats);
                (outcome, stats.misses)
            }
            None => (arena.gather(sub.items, &mut g.rng, &mut g.scratch), 0),
        };
        let gather_wall_s = kernel_start.elapsed().as_secs_f64();
        t.record_gather(&outcome, gather_wall_s);
        if self.pipe.sampler.sampled(sub.query) {
            let dur = SimDuration::from_secs_f64(gather_wall_s / self.clock.scale);
            t.trace(sub.query, SpanKind::Gather, start, dur);
        }
        // Missed rows pay the modeled cold-tier penalty on top of the DRAM
        // time the gather itself just charged, so the wall run and the cost
        // model charge the same hierarchy — unless the ladder is at L2,
        // where misses are skipped instead of fetched.
        let penalty = match self.cache_model {
            Some(m) if !job.degrade => m.spec().cold_miss_penalty.mul_f64(misses as f64),
            _ => SimDuration::ZERO,
        };
        let residual = degraded_latency(job.cost, 0.0) + penalty;
        self.clock.busy_wait(residual.mul_f64(job.derate));
        let done = self.clock.now();
        let service = done.saturating_since(start);
        self.pipe
            .cpu_end(stage, job, sub, (start, done), service, t);
        if let Some(feed) = &self.measured {
            feed.record(service.as_secs_f64());
        }
        done
    }

    /// The dynamic batcher: fills a fused batch up to the limit, or flushes
    /// once its head has waited out the batch delay.
    fn batcher(&self) {
        let BackStage::Gpu { fusion_limit, .. } = self.pipe.topo.back else {
            unreachable!("the batcher runs only with a GPU stage");
        };
        let fuse_q = &self.queues[StageKind::Gpu.index()];
        let mut pending: Option<Sub> = None;
        while let Some(first) = pending.take().or_else(|| fuse_q.pop_wait()) {
            let mut subs = self
                .free_q
                .try_pop()
                .unwrap_or_else(|| Vec::with_capacity(8));
            subs.push(first);
            let mut items = first.items;
            if let Some(limit) = fusion_limit {
                // The flush deadline is anchored to the head sub's *ready*
                // time (the BatchPolicy contract, matching the virtual
                // clock) — not to when the batcher got around to popping it.
                let deadline = self
                    .clock
                    .wall_target(first.ready + self.pipe.batch_delay());
                while items < limit {
                    let PopResult::Item(next) = fuse_q.pop_deadline(deadline) else {
                        break;
                    };
                    if items + next.items > limit {
                        pending = Some(next);
                        break;
                    }
                    items += next.items;
                    subs.push(next);
                }
            }
            self.gpu_q.push_wait(GpuBatch { subs, items });
        }
        self.gpu_q.close();
    }

    /// One GPU context: loads each fused batch over the shared PCIe link,
    /// then computes it.
    fn gpu_worker(&self, ctx: u32) -> WorkerTelemetry {
        let mut t = self.start_worker(StageKind::Gpu, ctx);
        let pipe = self.pipe;
        while let Some(batch) = self.gpu_q.pop_wait() {
            let sample = t.counters.batches >= HOT_WARMUP;
            let allocs_before = thread_allocs();
            let launch = {
                // The PCIe link is serialized across contexts.
                let _link = self.pcie.lock().expect("pcie lock poisoned");
                let now = self.clock.now();
                let launch = pipe.gpu_launch(ctx, &batch.subs, batch.items, now, &mut t);
                self.clock.busy_wait(launch.load_dur);
                launch
            };
            pipe.gpu_compute(&launch, &batch.subs, self.clock.now(), &mut t);
            self.clock.busy_wait(launch.compute);
            pipe.gpu_done(&launch, &batch.subs, self.clock.now(), &mut t);
            // Recycle the batch buffer; a full freelist just lets this one
            // drop.
            let mut subs = batch.subs;
            subs.clear();
            let _ = self.free_q.try_push_all(std::iter::once(subs));
            t.publish();
            if sample {
                t.record_hot_allocs(thread_allocs() - allocs_before);
            }
        }
        t
    }

    /// Ticks `obs` with the plane at `t`, read from the seqlock slots.
    fn observe_at(&self, obs: &mut RuntimeObserver, t: SimTime) {
        let snaps = self.read_slots();
        obs.tick(|plane| {
            self.pipe
                .read_plane(plane, t, &self.counters, self.views(&snaps), None)
        });
    }

    /// One consistent read of every worker's slot, pool by pool.
    fn read_slots(&self) -> [Vec<WorkerSnap>; 3] {
        [0, 1, 2].map(|i| self.slots[i].iter().map(|s| s.read()).collect())
    }

    /// The pools as read into `snaps`, with their queue depths.
    fn views<'s>(&self, snaps: &'s [Vec<WorkerSnap>; 3]) -> [PoolView<'s, WorkerSnap>; 3] {
        [0, 1, 2].map(|i| (&snaps[i][..], self.queues[i].depth()))
    }

    /// Sleeps toward virtual instant `t` in short chunks, so a stop
    /// request is honored promptly; false when one arrives first.
    fn sleep_until(&self, t: SimTime) -> bool {
        let target = self.clock.wall_target(t);
        while let Some(left) = target.checked_duration_since(Instant::now()) {
            if self.stop.load(Ordering::Acquire) {
                return false;
            }
            std::thread::sleep(left.min(Duration::from_millis(5)));
        }
        true
    }

    /// Ticks `sup` at every supervision boundary until the run stops. The
    /// supervisor reads only the ingress pool's queue waits and the
    /// workers' heartbeats, so a boundary reads just those, into snapshots
    /// sized before the first one: it allocates nothing.
    fn supervise(&self, mut sup: Supervisor) {
        let ingress = self.pipe.topo.ingress().index();
        let mut snaps = self
            .slots
            .each_ref()
            .map(|pool| vec![WorkerSnap::default(); pool.len()]);
        for (slot, snap) in self.slots[ingress].iter().zip(&mut snaps[ingress]) {
            snap.queue_wait = vec![0; slot.hist_len()];
        }
        let mut next = SimTime::ZERO + SUPERVISOR_PERIOD;
        while !self.stop.load(Ordering::Acquire) && self.sleep_until(next) {
            let now = self.clock.now();
            for (i, (slots, snaps)) in self.slots.iter().zip(&mut snaps).enumerate() {
                for (slot, snap) in slots.iter().zip(snaps) {
                    if i == ingress {
                        slot.read_queue_wait(&mut snap.queue_wait);
                    }
                    snap.last_beat = slot.last_beat();
                }
            }
            sup.tick(self.views(&snaps), now);
            next += SUPERVISOR_PERIOD;
        }
    }

    fn observe(&self, obs: &mut RuntimeObserver) {
        let period = obs.period();
        let mut next = SimTime::ZERO + period;
        while !self.stop.load(Ordering::Acquire) && self.sleep_until(next) {
            self.observe_at(obs, next);
            next += period;
        }
        // Workers have quiesced (`stop` is set only after every pool has
        // joined, which also orders their final publishes before this
        // read): one exact end-of-run tick, then flush the sinks.
        self.observe_at(obs, self.clock.now());
        obs.finish();
    }
}

/// Joins `handles`, returning what the threads that finished returned and
/// counting those whose panic escaped into `failures`.
fn joined<'s, T>(
    handles: impl IntoIterator<Item = ScopedJoinHandle<'s, T>>,
    failures: &mut u64,
) -> Vec<T> {
    handles
        .into_iter()
        .filter_map(|h| h.join().map_err(|_| *failures += 1).ok())
        .collect()
}

/// Touches every batch size the run can dispatch through each stage's
/// memoized cost oracle, so steady-state
/// [`StageService::cost`](hercules_sim::StageService::cost) calls are
/// pure memo hits (a cold miss mid-run would price, and heap-allocate, a
/// `BatchCost` on the serving path).
fn prewarm_oracles(topo: &Topology, queries: &[Query]) {
    let mut sizes: Vec<u32> = Vec::new();
    for q in queries {
        for s in split_iter(q.size, topo.split_batch) {
            if !sizes.contains(&s) {
                sizes.push(s);
            }
        }
    }
    for &s in &sizes {
        if let Some(front) = &topo.front {
            let _ = front.svc.cost(s);
        }
        match &topo.back {
            BackStage::HostPool { svc, .. }
            | BackStage::Gpu {
                svc,
                fusion_limit: None,
                ..
            } => {
                let _ = svc.cost(s);
            }
            _ => {}
        }
    }
    if let BackStage::Gpu {
        svc,
        fusion_limit: Some(limit),
        ..
    } = &topo.back
    {
        // Fused batches can land anywhere in (0, limit]; one probe per
        // quantization bucket warms them all.
        let mut items = 1u32;
        while items <= *limit {
            let _ = svc.cost(items);
            items = items.saturating_add(32);
        }
        let _ = svc.cost(*limit);
    }
}
