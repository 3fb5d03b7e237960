//! The deterministic virtual-clock driver of the serving [`Pipeline`].
//!
//! One event loop serves every virtual run: injected arrivals wait beside a
//! time-ordered heap of service events and are served in time order,
//! arrivals first on ties, as `sim::engine` serves them. The loop owns
//! only what a clock owns — the event heap, each pool's queue and free
//! list, the dynamic batcher's flush events, the serialized PCIe link —
//! and asks the pipeline for every serving decision. Every decision is a
//! pure function of the configuration and the arrivals, so runs are
//! bitwise-reproducible: this is the mode searches, tests and the fleet
//! use, and the one cross-validated against `sim::engine`
//! (`tests/runtime_props.rs`). A whole-trace run injects every arrival
//! into a [`VirtStepper`] and finishes it; the fleet steps one epoch at a
//! time.

use std::collections::{BinaryHeap, VecDeque};

use hercules_common::units::{Qps, SimTime};
use hercules_hw::server::ServerSpec;
use hercules_sim::{HeapEntry, Topology};
use hercules_workload::query::Query;

use crate::config::RuntimeConfig;
use crate::fault::Supervisor;
use crate::observe::{PlaneState, RuntimeObserver};
use crate::pipeline::{Dispatcher, GpuLaunch, Pipeline, PoolView};
use crate::report::{RuntimeReport, WallTotals};
use crate::stage::{BackKind, Sub};
use crate::telemetry::{StageKind, WorkerTelemetry};

#[derive(Debug)]
enum Ev {
    /// A front or host back worker finished a sub-query.
    CpuDone {
        stage: StageKind,
        worker: u32,
        sub: Sub,
    },
    /// Dynamic-batching flush deadline for the fusion buffer.
    Flush,
    LoadDone {
        ctx: u32,
        batch: usize,
    },
    GpuDone {
        ctx: u32,
        batch: usize,
    },
}

/// One pool: its queue (the fusion buffer for GPU contexts), its free
/// workers, and every worker's telemetry.
struct Pool {
    queue: VecDeque<Sub>,
    free: Vec<u32>,
    telem: Vec<WorkerTelemetry>,
}

struct Batch {
    subs: Vec<Sub>,
    launch: GpuLaunch,
}

/// The service-event heap, ordered by time then creation.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<HeapEntry<Ev>>,
    seq: u64,
}

impl Events {
    fn push(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            ev,
        });
    }
}

/// Runs the virtual clock over an explicit arrival trace and assembles
/// the report.
///
/// # Panics
///
/// Panics unless arrivals are non-decreasing and lie within the horizon.
pub(crate) fn run_trace(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    queries: &[Query],
    offered: Qps,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let mut stepper = VirtStepper::new(topo, server, cfg);
    stepper.obs_boundary = observer.as_ref().map(|o| SimTime::ZERO + o.period());
    for q in queries {
        stepper.inject(*q);
    }
    stepper.finish(offered, observer)
}

/// The virtual-clock executor, driven incrementally: the fleet router
/// injects arrivals epoch by epoch, advances the clock with
/// [`step_until`](VirtStepper::step_until), samples the control plane
/// between epochs, and assembles the standard [`RuntimeReport`] at the
/// end. [`ServingRuntime::serve`] runs the same loop over a whole trace,
/// so single-replica stepped serving is bitwise identical to it
/// (`crates/fleet/tests/fleet_props.rs` pins this).
///
/// [`ServingRuntime::serve`]: crate::ServingRuntime::serve
pub struct VirtStepper<'a> {
    pipe: Pipeline<'a>,
    server: &'a ServerSpec,
    dispatch: Dispatcher,
    /// Injected arrivals not yet served: query index, arrival, size.
    arrivals: VecDeque<(u32, SimTime, u32)>,
    last_arrival: SimTime,
    events: Events,
    /// Pools in [`StageKind`] order.
    pools: [Pool; 3],
    /// Items buffered for fusion.
    fuse_items: u64,
    /// Deadline of the currently armed flush event, if any (dedupe).
    flush_armed: Option<SimTime>,
    pcie_free: SimTime,
    batches: Vec<Batch>,
    sup: Option<Supervisor>,
    // Observation and supervision boundaries are processed inline before
    // the next arrival or event, NOT as heap entries: heap entries consume
    // `seq` tie-break numbers, so enqueueing them would perturb event
    // ordering and break the bitwise identity of observed vs unobserved
    // (and unfaulted vs `FaultPlan::none()`) runs.
    sup_boundary: Option<SimTime>,
    /// Periodic observer boundaries, for whole-trace runs only (the fleet
    /// observes at its epoch boundaries instead).
    obs_boundary: Option<SimTime>,
}

impl<'a> VirtStepper<'a> {
    pub(crate) fn new(topo: &'a Topology, server: &'a ServerSpec, cfg: &'a RuntimeConfig) -> Self {
        let pipe = Pipeline::new(topo, server, cfg, &[]);
        let pools = StageKind::ALL.map(|stage| {
            let n = pipe.workers[stage.index()];
            Pool {
                queue: VecDeque::new(),
                free: (0..n).collect(),
                telem: (0..n).map(|w| pipe.telemetry(stage, w)).collect(),
            }
        });
        let sup = pipe.supervisor();
        VirtStepper {
            dispatch: pipe.dispatcher(),
            sup_boundary: sup.as_ref().map(|s| SimTime::ZERO + s.period()),
            sup,
            pipe,
            server,
            arrivals: VecDeque::new(),
            last_arrival: SimTime::ZERO,
            events: Events::default(),
            pools,
            fuse_items: 0,
            flush_armed: None,
            pcie_free: SimTime::ZERO,
            batches: Vec::new(),
            obs_boundary: None,
        }
    }

    /// Feeds one query into the ingress. Arrivals must be injected in
    /// non-decreasing arrival order and before the clock passes them
    /// (`step_until` limits must trail injection).
    ///
    /// # Panics
    ///
    /// Panics when the arrival precedes the last one injected or lies past
    /// the horizon.
    pub fn inject(&mut self, q: Query) {
        self.pipe.check_arrival(self.last_arrival, q.arrival);
        self.last_arrival = q.arrival;
        let idx = self.pipe.table.push(q.arrival);
        self.arrivals.push_back((idx, q.arrival, q.size));
    }

    /// Serves every pending arrival and event strictly before `t`, firing
    /// supervision boundaries in time order. Events past the horizon stay
    /// queued (no run serves them).
    pub fn step_until(&mut self, t: SimTime) {
        self.run(Some(t), &mut None);
    }

    /// The event loop: serves arrivals and events in time order (all of
    /// them, or those strictly before `until`), draining observer and
    /// supervisor boundaries before each, and stops at the horizon.
    fn run(&mut self, until: Option<SimTime>, obs: &mut Option<&mut RuntimeObserver>) {
        loop {
            let arrival = self.arrivals.front().map(|a| a.1);
            let event = self.events.heap.peek().map(|e| e.time);
            let Some(now) = arrival.into_iter().chain(event).min() else {
                break;
            };
            if until.is_some_and(|t| now >= t) {
                break;
            }
            self.drain_boundaries(now, obs);
            if now > self.pipe.window.horizon {
                break;
            }
            if arrival == Some(now) {
                let (query, _, size) = self.arrivals.pop_front().expect("peeked arrival");
                self.arrive(query, size, now);
            } else {
                let entry = self.events.heap.pop().expect("peeked event");
                self.handle(entry.ev, now);
            }
        }
        if let Some(t) = until {
            self.drain_boundaries(t, obs);
        }
    }

    /// Fires observer and supervision boundaries strictly before `limit`
    /// and the horizon, in time order (the observer first on ties, so
    /// snapshots never see a post-tick control plane at the same instant).
    /// The plane does not change between the last served event and a
    /// boundary, so draining at an event or at a step limit is the same.
    fn drain_boundaries(&mut self, limit: SimTime, obs: &mut Option<&mut RuntimeObserver>) {
        let end = limit.min(self.pipe.window.horizon);
        loop {
            let ob = self.obs_boundary.filter(|b| *b < end);
            let sb = self.sup_boundary.filter(|b| *b < end);
            match (ob, sb) {
                (Some(b), s) if s.map_or(true, |s| b <= s) => {
                    let o = obs
                        .as_deref_mut()
                        .expect("observer boundaries need an observer");
                    o.tick(self.plane_state(b));
                    self.obs_boundary = Some(b + o.period());
                }
                (_, Some(s)) => {
                    let mut sup = self.sup.take().expect("boundary implies a supervisor");
                    let counters = self.dispatch.admission.counters();
                    self.pipe.supervise(
                        &mut sup,
                        s,
                        &counters,
                        self.views(),
                        WorkerTelemetry::snapshot,
                        |w| w.last_beat,
                    );
                    self.sup_boundary = Some(s + sup.period());
                    self.sup = Some(sup);
                }
                _ => break,
            }
        }
    }

    fn views(&self) -> [PoolView<'_, WorkerTelemetry>; 3] {
        self.pools.each_ref().map(|p| (&p.telem[..], p.queue.len()))
    }

    /// Cumulative state of every stage at boundary `t`, read straight
    /// from the telemetry (the loop owns it, so no seqlock is needed).
    fn plane_state(&self, t: SimTime) -> PlaneState {
        let counters = self.dispatch.admission.counters();
        self.pipe
            .plane_state(t, &counters, self.views(), WorkerTelemetry::snapshot)
    }

    fn arrive(&mut self, query: u32, size: u32, now: SimTime) {
        let ingress = self.pipe.ingress();
        let depth = self.pools[ingress.index()].queue.len();
        let (pools, fuse_items) = (&mut self.pools, &mut self.fuse_items);
        let admitted = self
            .pipe
            .dispatch(&mut self.dispatch, query, now, size, depth, |subs| {
                for sub in subs {
                    enqueue(pools, fuse_items, ingress, sub);
                }
                true
            });
        if admitted {
            self.schedule(ingress, now);
        }
    }

    fn schedule(&mut self, stage: StageKind, now: SimTime) {
        match stage {
            StageKind::Gpu => self.try_launch_gpu(now),
            cpu => self.schedule_cpu(cpu, now),
        }
    }

    /// Starts queued sub-queries on free workers of CPU pool `stage`.
    fn schedule_cpu(&mut self, stage: StageKind, now: SimTime) {
        let pipe = &self.pipe;
        let pool = &mut self.pools[stage.index()];
        if pipe.faulty {
            // Workers whose injected panic has fired leave the pool.
            let mut i = 0;
            while i < pool.free.len() {
                let w = pool.free[i];
                if pipe.book.dead(stage, w, now) {
                    pool.free.swap_remove(i);
                    pipe.controls.mark_dead(stage, w);
                    pool.telem[w as usize].failed = true;
                } else {
                    i += 1;
                }
            }
        }
        while !pool.free.is_empty() && !pool.queue.is_empty() {
            // With no faults and no supervisor this picks the last free
            // worker. Suspect workers are skipped so siblings absorb a
            // stalled worker's queue share.
            let widx = if pipe.faulty {
                let healthy = |&w: &u32| !pipe.controls.is_suspect(stage, w);
                match pool.free.iter().rposition(healthy) {
                    Some(i) => i,
                    None => break,
                }
            } else {
                pool.free.len() - 1
            };
            let sub = pool.queue.pop_front().expect("non-empty");
            let worker = pool.free[widx];
            let t = &mut pool.telem[worker as usize];
            let Some(job) = pipe.cpu_begin(stage, worker, &sub, now, t) else {
                continue;
            };
            pool.free.swap_remove(widx);
            // A dispatch into a stall window is trapped behind the frozen
            // worker: service begins when the stall ends.
            let stall = pipe.faulty.then(|| pipe.book.stall_end(stage, worker, now));
            let start = stall.flatten().unwrap_or(now);
            let end = start + job.svc;
            pipe.cpu_end(stage, &job, &sub, (start, end), job.svc, t);
            self.events.push(end, Ev::CpuDone { stage, worker, sub });
        }
    }

    /// Launches fused batches while a context is free and the batcher's
    /// fill-or-flush condition holds: the buffer can fill a batch, the
    /// head sub has waited out the batch delay, or fusion is disabled.
    /// When it instead decides to wait, it arms a single flush deadline for
    /// the current head (deduplicated, so the heap carries at most one live
    /// flush per distinct head — not one per enqueued sub).
    fn try_launch_gpu(&mut self, now: SimTime) {
        let BackKind::Gpu { fusion_limit, .. } = self.pipe.stages.back else {
            return;
        };
        let max_delay = self.pipe.batch_delay();
        let pool = &mut self.pools[StageKind::Gpu.index()];
        while !pool.free.is_empty() && !pool.queue.is_empty() {
            if let Some(limit) = fusion_limit {
                let head_ready = pool.queue.front().expect("non-empty").ready;
                let filled = self.fuse_items >= limit as u64;
                if !filled && now.saturating_since(head_ready) < max_delay {
                    let deadline = head_ready + max_delay;
                    if self.flush_armed != Some(deadline) {
                        self.flush_armed = Some(deadline);
                        self.events.push(deadline, Ev::Flush);
                    }
                    break;
                }
            }
            let ctx = pool.free.pop().expect("non-empty");
            let mut subs = Vec::new();
            let mut items = 0u32;
            // Fusion off: one sub-query per launch.
            let limit = fusion_limit.unwrap_or(0);
            while let Some(next) = pool.queue.front() {
                if !subs.is_empty() && items + next.items > limit {
                    break;
                }
                items += next.items;
                subs.push(pool.queue.pop_front().expect("non-empty"));
            }
            self.fuse_items -= items as u64;
            let load_start = now.max(self.pcie_free);
            let t = &mut pool.telem[ctx as usize];
            let launch = self.pipe.gpu_launch(ctx, &subs, items, load_start, t);
            self.pcie_free = launch.load_end();
            let batch = self.batches.len();
            self.events
                .push(launch.load_end(), Ev::LoadDone { ctx, batch });
            self.batches.push(Batch { subs, launch });
        }
    }

    fn handle(&mut self, ev: Ev, now: SimTime) {
        let gpu = StageKind::Gpu.index();
        match ev {
            Ev::CpuDone { stage, worker, sub } => {
                let pool = &mut self.pools[stage.index()];
                pool.free.push(worker);
                match self.pipe.stages.after(stage) {
                    None => self
                        .pipe
                        .retire(&sub, now, &mut pool.telem[worker as usize]),
                    Some(next) => {
                        let sub = Sub { ready: now, ..sub };
                        enqueue(&mut self.pools, &mut self.fuse_items, next, sub);
                        self.schedule(next, now);
                    }
                }
                self.schedule_cpu(stage, now);
            }
            Ev::Flush => {
                if self.flush_armed.is_some_and(|t| t <= now) {
                    self.flush_armed = None;
                }
                self.try_launch_gpu(now);
            }
            Ev::LoadDone { ctx, batch } => {
                let Batch { subs, launch } = &self.batches[batch];
                let t = &mut self.pools[gpu].telem[ctx as usize];
                self.pipe.gpu_compute(launch, subs, now, t);
                self.events
                    .push(now + launch.compute, Ev::GpuDone { ctx, batch });
            }
            Ev::GpuDone { ctx, batch } => {
                let pool = &mut self.pools[gpu];
                pool.free.push(ctx);
                let b = &mut self.batches[batch];
                let subs = std::mem::take(&mut b.subs);
                self.pipe
                    .gpu_done(&b.launch, &subs, now, &mut pool.telem[ctx as usize]);
                self.try_launch_gpu(now);
            }
        }
    }

    /// Snapshots the control plane into `obs` at instant `t` (the fleet's
    /// per-replica observer boundary).
    pub fn observe(&mut self, obs: &mut RuntimeObserver, t: SimTime) {
        obs.tick(self.plane_state(t));
    }

    /// Queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.dispatch.admission.admitted()
    }

    /// Queries shed so far (admission + backpressure + forced).
    pub fn shed(&self) -> u64 {
        self.dispatch.admission.shed()
    }

    /// Queries admitted but not yet retired.
    pub fn in_flight(&self) -> u64 {
        self.pipe.table.in_flight()
    }

    pub fn suspect_workers(&self) -> u32 {
        self.pipe.controls.suspect_count()
    }

    pub fn dead_workers(&self) -> u32 {
        self.pipe.controls.dead_count()
    }

    pub fn degrade_level(&self) -> u8 {
        self.pipe.controls.level()
    }

    pub fn horizon(&self) -> SimTime {
        self.pipe.window.horizon
    }

    /// Serves every remaining arrival and event up to the horizon, takes
    /// the final observer boundary at the horizon, and assembles the
    /// standard report. `offered` is recorded verbatim — the caller knows
    /// the per-replica offered share, the stepper only saw arrivals.
    pub fn finish(
        mut self,
        offered: Qps,
        mut observer: Option<&mut RuntimeObserver>,
    ) -> RuntimeReport {
        self.run(None, &mut observer);
        if let Some(o) = observer {
            // The exact end-of-run state, so the history's windowed deltas
            // telescope to the merged report.
            o.tick(self.plane_state(self.pipe.window.horizon));
            o.finish();
        }
        let VirtStepper {
            pipe,
            server,
            dispatch,
            pools,
            ..
        } = self;
        let workers = pools.into_iter().flat_map(|p| p.telem).collect();
        pipe.report(server, dispatch, offered, workers, WallTotals::default())
    }
}

/// Queues `sub` at `stage`, counting fusion-buffer items.
fn enqueue(pools: &mut [Pool; 3], fuse_items: &mut u64, stage: StageKind, sub: Sub) {
    if stage == StageKind::Gpu {
        *fuse_items += sub.items as u64;
    }
    pools[stage.index()].queue.push_back(sub);
}
