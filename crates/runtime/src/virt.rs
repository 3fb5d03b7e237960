//! The deterministic virtual-clock executor.
//!
//! Drives the runtime's components — bounded ingress queue, per-stage
//! worker slots, dynamic batcher, admission controller, per-worker
//! telemetry — with a time-ordered event loop instead of OS threads.
//! Every decision is a pure function of the configuration and the seeded
//! query stream, so runs are bitwise-reproducible: this is the mode
//! searches and tests use, and the one cross-validated against
//! `sim::engine` (`tests/runtime_props.rs`).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::pcie_transfer_time;
use hercules_hw::server::ServerSpec;
use hercules_sim::{split_iter, HeapEntry, Topology};
use hercules_workload::query::Query;

use crate::admission::AdmissionController;
use crate::config::RuntimeConfig;
use crate::fault::{degraded_latency, FaultBook, RuntimeControls, Supervisor};
use crate::observe::{PlaneState, RuntimeObserver, StageState};
use crate::report::{assemble, RunTotals, RuntimeReport};
use crate::serve::{arrivals, RunWindow};
use crate::stage::{BackKind, QueryTable, Stages, Sub, FLAG_DEGRADED, FLAG_EXPIRED};
use crate::telemetry::{StageKind, WorkerTelemetry};
use crate::trace::{SpanKind, TraceEvent, TraceRing, TraceSampler, DISPATCH_TID};

#[derive(Debug)]
enum Ev {
    Arrival(u32),
    FrontDone {
        worker: u32,
        sub: Sub,
    },
    BackDone {
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

struct Batch {
    subs: Vec<Sub>,
    items: u32,
    load_start: SimTime,
    load_dur: SimDuration,
    compute: SimDuration,
}

struct Exec<'a> {
    stages: Stages<'a>,
    cfg: &'a RuntimeConfig,
    window: RunWindow,
    table: QueryTable,
    sizes: Vec<u32>,
    heap: BinaryHeap<HeapEntry<Ev>>,
    seq: u64,
    admission: AdmissionController,
    // Front pool.
    front_queue: VecDeque<Sub>,
    front_free: Vec<u32>,
    front_telem: Vec<WorkerTelemetry>,
    // Host back pool.
    back_queue: VecDeque<Sub>,
    back_free: Vec<u32>,
    back_telem: Vec<WorkerTelemetry>,
    // GPU stage.
    fuse_buf: VecDeque<Sub>,
    fuse_items: u64,
    /// Deadline of the currently armed flush event, if any (dedupe).
    flush_armed: Option<SimTime>,
    gpu_free: Vec<u32>,
    gpu_telem: Vec<WorkerTelemetry>,
    pcie_free: SimTime,
    batches: Vec<Batch>,
    // Observability plane.
    sampler: TraceSampler,
    /// Dispatcher-side ring for admit instants (workers own their rings).
    admit_ring: Option<TraceRing>,
    // Fault plane. `faulty`/`supervised`/`deadline_drop` gate EVERY fault
    // branch: with the default config all three are false, the executor
    // takes exactly the pre-fault code paths (no extra heap events, seq
    // numbers, or RNG draws), and reports stay bitwise-identical.
    book: FaultBook,
    controls: Arc<RuntimeControls>,
    supervisor: Option<Supervisor>,
    faulty: bool,
    supervised: bool,
    deadline_drop: bool,
}

impl<'a> Exec<'a> {
    /// Assembles a quiescent executor over `queries` (which may be empty:
    /// the stepped executor injects arrivals incrementally instead).
    fn build(
        topo: &'a Topology,
        server: &'a ServerSpec,
        cfg: &'a RuntimeConfig,
        queries: &[Query],
    ) -> Exec<'a> {
        let window = RunWindow::of(cfg);
        let table = QueryTable::new(queries);
        let stages = Stages::of(topo, server);

        let (per_sub_s, parallelism) = stages.ingress_estimate();
        let admission = AdmissionController::new(&cfg.admission, per_sub_s, parallelism);

        let front_threads = stages.front.map_or(0, |(_, t)| t);
        let (back_threads, gpu_ctxs) = match stages.back {
            BackKind::None => (0, 0),
            BackKind::Host { threads, .. } => (threads, 0),
            BackKind::Gpu { ctxs, .. } => (0, ctxs),
        };
        let book = FaultBook::build(&cfg.faults, front_threads, back_threads, gpu_ctxs);
        let controls = RuntimeControls::new(cfg.batch.max_delay);
        let supervised = cfg.supervisor.enabled;
        let supervisor = supervised.then(|| {
            Supervisor::new(
                cfg.supervisor,
                Arc::clone(&controls),
                per_sub_s,
                cfg.batch.max_delay,
            )
        });
        let faulty = !book.is_empty() || supervised;
        let deadline_drop = cfg.deadline.drop_expired && cfg.deadline.budget.is_some();

        let tracing = cfg.trace.enabled();
        let telem = |stage: StageKind, n: u32| -> Vec<WorkerTelemetry> {
            (0..n)
                .map(|w| {
                    let t = WorkerTelemetry::new(stage, w, cfg.duration);
                    if tracing {
                        t.with_trace(cfg.trace.ring_capacity as usize)
                    } else {
                        t
                    }
                })
                .collect()
        };

        Exec {
            stages,
            cfg,
            window,
            table,
            sizes: queries.iter().map(|q| q.size).collect(),
            heap: BinaryHeap::new(),
            seq: 0,
            admission,
            front_queue: VecDeque::new(),
            front_free: (0..front_threads).collect(),
            front_telem: telem(StageKind::Front, front_threads),
            back_queue: VecDeque::new(),
            back_free: (0..back_threads).collect(),
            back_telem: telem(StageKind::Back, back_threads),
            fuse_buf: VecDeque::new(),
            fuse_items: 0,
            flush_armed: None,
            gpu_free: (0..gpu_ctxs).collect(),
            gpu_telem: telem(StageKind::Gpu, gpu_ctxs),
            pcie_free: SimTime::ZERO,
            batches: Vec::new(),
            sampler: TraceSampler::new(cfg.seed, cfg.trace.sample_one_in),
            admit_ring: tracing.then(|| TraceRing::with_capacity(cfg.trace.ring_capacity as usize)),
            book,
            controls,
            supervisor,
            faulty,
            supervised,
            deadline_drop,
        }
    }

    fn push(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            ev,
        });
    }

    /// Sub-queries currently queued ahead of the ingress pool.
    fn ingress_depth(&self) -> usize {
        if self.stages.front.is_some() {
            self.front_queue.len()
        } else {
            self.fuse_buf.len()
        }
    }

    fn arrive(&mut self, query: u32, now: SimTime) {
        if self.supervised && self.controls.shedding() {
            // L3: the ladder has decided new work cannot be served usefully.
            self.admission.shed_forced();
            return;
        }
        if !self.admission.admit(self.ingress_depth()) {
            return;
        }
        let sizes = split_iter(self.sizes[query as usize], self.stages.split_batch);
        if self.ingress_depth() + sizes.len() > self.cfg.queue_depth {
            self.admission.shed_backpressure();
            return;
        }
        let n_subs = sizes.len() as u32;
        self.table.admit(query, n_subs);
        if self.sampler.sampled(query) {
            if let Some(ring) = &mut self.admit_ring {
                ring.push(TraceEvent {
                    query,
                    tid: DISPATCH_TID,
                    kind: SpanKind::Admit,
                    start: now,
                    dur: SimDuration::ZERO,
                });
            }
        }
        let subs = sizes.map(|items| Sub {
            query,
            items,
            n_subs,
            ready: now,
            retries: 0,
        });
        if self.stages.front.is_some() {
            self.front_queue.extend(subs);
            self.schedule_front(now);
        } else {
            for sub in subs {
                self.enqueue_fused(sub);
            }
            self.try_launch_gpu(now);
        }
    }

    /// Removes workers whose injected panic has fired from a free list,
    /// marking them dead. Only called on fault-plan runs.
    fn cull_dead(&mut self, stage: StageKind, now: SimTime) {
        let (free, telem) = match stage {
            StageKind::Front => (&mut self.front_free, &mut self.front_telem),
            StageKind::Back => (&mut self.back_free, &mut self.back_telem),
            StageKind::Gpu => return,
        };
        let mut i = 0;
        while i < free.len() {
            let w = free[i];
            if self.book.dead(stage, w, now) {
                free.swap_remove(i);
                self.controls.mark_dead(stage, w);
                telem[w as usize].failed = true;
            } else {
                i += 1;
            }
        }
    }

    /// Deadline enforcement at dequeue: when `sub` has already blown its
    /// budget, retire it expired without consuming a worker. Returns true
    /// when the sub was dropped.
    fn expire_at_dequeue(&mut self, stage: StageKind, sub: &Sub, now: SimTime) -> bool {
        let Some(budget) = self.cfg.deadline.budget else {
            return false;
        };
        if now <= self.table.arrival(sub.query) + budget {
            return false;
        }
        if self.table.drop_expired(sub, now).is_some() {
            let telem = match stage {
                StageKind::Front => &mut self.front_telem[0],
                StageKind::Back => &mut self.back_telem[0],
                StageKind::Gpu => &mut self.gpu_telem[0],
            };
            telem.record_expired();
        }
        true
    }

    fn schedule_front(&mut self, now: SimTime) {
        let Some((oracle, _)) = self.stages.front else {
            return;
        };
        if self.faulty {
            self.cull_dead(StageKind::Front, now);
        }
        while !self.front_free.is_empty() && !self.front_queue.is_empty() {
            // With no faults and no supervisor this picks the last free
            // worker — exactly the old `pop()` — so default runs stay
            // bitwise-identical. Suspect workers are skipped so siblings
            // absorb a stalled worker's queue share.
            let widx = if self.faulty {
                match self
                    .front_free
                    .iter()
                    .rposition(|&w| !self.controls.is_suspect(StageKind::Front, w))
                {
                    Some(i) => i,
                    None => break,
                }
            } else {
                self.front_free.len() - 1
            };
            let sub = self.front_queue.pop_front().expect("non-empty");
            if self.deadline_drop && self.expire_at_dequeue(StageKind::Front, &sub, now) {
                continue;
            }
            let worker = self.front_free.swap_remove(widx);
            let cost = oracle.service_cost(sub.items);
            let wait = now.saturating_since(sub.ready);
            self.table.add_queuing(&sub, wait);
            let mut svc = cost.latency;
            if self.supervised && self.controls.degrade_gather() {
                // L2: serve cache-hit rows only, priced through the oracle.
                svc = degraded_latency(&cost, self.cfg.supervisor.degraded_keep);
                self.table.mark_degraded(&sub);
            }
            // A dispatch into a stall window is trapped behind the frozen
            // worker: service begins when the stall ends.
            let mut start = now;
            if self.faulty {
                let mult = self.book.service_mult(StageKind::Front, worker, now);
                if mult != 1.0 {
                    svc = svc.mul_f64(mult);
                }
                if let Some(end) = self.book.stall_end(StageKind::Front, worker, now) {
                    start = end;
                }
            }
            self.table.add_inference(&sub, svc);
            let telem = &mut self.front_telem[worker as usize];
            telem.heartbeat(now);
            telem.record_cpu_measured(now, wait, sub.items, &cost, svc);
            if self.sampler.sampled(sub.query) {
                telem.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                telem.trace(sub.query, SpanKind::Front, start, svc);
            }
            self.push(start + svc, Ev::FrontDone { worker, sub });
        }
    }

    fn schedule_back(&mut self, now: SimTime) {
        let BackKind::Host { oracle, .. } = self.stages.back else {
            return;
        };
        if self.faulty {
            self.cull_dead(StageKind::Back, now);
        }
        while !self.back_free.is_empty() && !self.back_queue.is_empty() {
            let widx = if self.faulty {
                match self
                    .back_free
                    .iter()
                    .rposition(|&w| !self.controls.is_suspect(StageKind::Back, w))
                {
                    Some(i) => i,
                    None => break,
                }
            } else {
                self.back_free.len() - 1
            };
            let sub = self.back_queue.pop_front().expect("non-empty");
            if self.deadline_drop && self.expire_at_dequeue(StageKind::Back, &sub, now) {
                continue;
            }
            let worker = self.back_free.swap_remove(widx);
            let cost = oracle.service_cost(sub.items);
            let wait = now.saturating_since(sub.ready);
            self.table.add_queuing(&sub, wait);
            let mut svc = cost.latency;
            let mut start = now;
            if self.faulty {
                let mult = self.book.service_mult(StageKind::Back, worker, now);
                if mult != 1.0 {
                    svc = svc.mul_f64(mult);
                }
                if let Some(end) = self.book.stall_end(StageKind::Back, worker, now) {
                    start = end;
                }
            }
            self.table.add_inference(&sub, svc);
            let telem = &mut self.back_telem[worker as usize];
            telem.heartbeat(now);
            telem.record_cpu_measured(now, wait, sub.items, &cost, svc);
            if self.sampler.sampled(sub.query) {
                telem.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                telem.trace(sub.query, SpanKind::Back, start, svc);
            }
            self.push(start + svc, Ev::BackDone { worker, sub });
        }
    }

    /// Adds a sub to the fusion buffer.
    fn enqueue_fused(&mut self, sub: Sub) {
        self.fuse_items += sub.items as u64;
        self.fuse_buf.push_back(sub);
    }

    /// Launches fused batches while a context is free and the batcher's
    /// fill-or-flush condition holds: the buffer can fill a batch, the
    /// head sub has waited out `max_delay`, or fusion is disabled. When it
    /// instead decides to wait, it arms a single flush deadline for the
    /// current head (deduplicated, so the event heap carries at most one
    /// live flush per distinct head — not one per enqueued sub).
    fn try_launch_gpu(&mut self, now: SimTime) {
        let BackKind::Gpu {
            oracle,
            fusion_limit,
            bytes_per_item,
            gpu,
            ..
        } = self.stages.back
        else {
            return;
        };
        // L1 of the ladder tightens the flush deadline through the shared
        // controls; unsupervised runs read the static config value.
        let max_delay = if self.supervised {
            self.controls.batch_delay()
        } else {
            self.cfg.batch.max_delay
        };
        while !self.gpu_free.is_empty() && !self.fuse_buf.is_empty() {
            if let Some(limit) = fusion_limit {
                let head_ready = self.fuse_buf.front().expect("non-empty").ready;
                let filled = self.fuse_items >= limit as u64;
                if !filled && now.saturating_since(head_ready) < max_delay {
                    // Wait for the batch to fill or the deadline to pass.
                    let deadline = head_ready + max_delay;
                    if self.flush_armed != Some(deadline) {
                        self.flush_armed = Some(deadline);
                        self.push(deadline, Ev::Flush);
                    }
                    break;
                }
            }
            let ctx = self.gpu_free.pop().expect("non-empty");
            let mut subs = Vec::new();
            let mut items = 0u32;
            match fusion_limit {
                None => {
                    let sub = self.fuse_buf.pop_front().expect("non-empty");
                    items = sub.items;
                    subs.push(sub);
                }
                Some(limit) => {
                    while let Some(next) = self.fuse_buf.front() {
                        if !subs.is_empty() && items + next.items > limit {
                            break;
                        }
                        let sub = self.fuse_buf.pop_front().expect("non-empty");
                        items += sub.items;
                        subs.push(sub);
                    }
                }
            }
            self.fuse_items -= items as u64;
            let bytes = bytes_per_item * items as f64;
            let load_start = now.max(self.pcie_free);
            let load_dur = pcie_transfer_time(bytes, gpu, 1);
            self.pcie_free = load_start + load_dur;
            self.gpu_telem[ctx as usize].record_pcie(load_start, load_dur);
            let mut compute = oracle.service_cost(items).latency;
            if self.faulty {
                let mult = self.book.gpu_mult(ctx, load_start + load_dur);
                if mult != 1.0 {
                    compute = compute.mul_f64(mult);
                }
            }
            if self.sampler.enabled() {
                for sub in &subs {
                    if self.sampler.sampled(sub.query) {
                        let telem = &mut self.gpu_telem[ctx as usize];
                        let wait = load_start.saturating_since(sub.ready);
                        telem.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                        telem.trace(sub.query, SpanKind::Load, load_start, load_dur);
                        telem.trace(sub.query, SpanKind::Gpu, load_start + load_dur, compute);
                    }
                }
            }
            let batch = self.batches.len();
            self.batches.push(Batch {
                subs,
                items,
                load_start,
                load_dur,
                compute,
            });
            self.push(load_start + load_dur, Ev::LoadDone { ctx, batch });
        }
    }

    fn complete(&mut self, stage: StageKind, worker: u32, sub: &Sub, now: SimTime) {
        if let Some(r) = self.table.complete(sub, now) {
            let in_window = self.window.measures(self.table.arrival(sub.query));
            let on_time = self.cfg.deadline.budget.map_or(true, |b| r.latency <= b);
            let telem = match stage {
                StageKind::Front => &mut self.front_telem[worker as usize],
                StageKind::Back => &mut self.back_telem[worker as usize],
                StageKind::Gpu => &mut self.gpu_telem[worker as usize],
            };
            if r.flags & FLAG_EXPIRED != 0 {
                // A sibling blew the deadline mid-flight: the whole query
                // retires expired, never as a completion.
                telem.record_expired();
            } else {
                let degraded = r.flags & FLAG_DEGRADED != 0;
                telem.record_completion(r.latency, &r.phases, in_window, degraded, on_time);
            }
            if self.sampler.sampled(sub.query) {
                telem.trace(sub.query, SpanKind::Complete, now, SimDuration::ZERO);
            }
        }
    }

    /// Cumulative state of every stage at boundary `t` (read straight from
    /// the telemetry — the virtual observer shares the event loop, so no
    /// seqlock is needed).
    fn plane_state(&self, t: SimTime) -> PlaneState {
        let mut stages = Vec::new();
        let mut add = |telems: &[WorkerTelemetry], stage: StageKind, depth: usize| {
            let Some((first, rest)) = telems.split_first() else {
                return;
            };
            let mut cum = first.snapshot();
            for w in rest {
                cum.absorb(&w.snapshot());
            }
            stages.push(StageState {
                stage,
                workers: telems.len() as u32,
                cum,
                queue_depth: depth,
            });
        };
        add(&self.front_telem, StageKind::Front, self.front_queue.len());
        add(&self.back_telem, StageKind::Back, self.back_queue.len());
        add(&self.gpu_telem, StageKind::Gpu, self.fuse_buf.len());
        PlaneState {
            t,
            stages,
            admitted: self.admission.admitted(),
            shed: self.admission.shed(),
            suspect_workers: self.controls.suspect_count(),
            dead_workers: self.controls.dead_count(),
            degrade_level: self.controls.level(),
        }
    }

    /// One supervisor boundary: feed it the current plane state plus every
    /// CPU worker's last heartbeat.
    fn sup_tick(&self, sup: &mut Supervisor, b: SimTime) {
        let state = self.plane_state(b);
        let front_beats: Vec<SimTime> = self.front_telem.iter().map(|w| w.last_beat).collect();
        let back_beats: Vec<SimTime> = self.back_telem.iter().map(|w| w.last_beat).collect();
        sup.tick(&state, &front_beats, &back_beats, b);
    }

    fn run(&mut self, mut obs: Option<&mut RuntimeObserver>) {
        // Observation and supervision boundaries are processed inline
        // between events, NOT as heap entries: heap entries consume `seq`
        // tie-break numbers, so enqueueing them would perturb event
        // ordering and break the bitwise identity of observed vs
        // unobserved (and unfaulted vs `FaultPlan::none()`) runs.
        let period = obs.as_deref().map(RuntimeObserver::period);
        let mut boundary = period.map(|p| SimTime::ZERO + p);
        let mut sup = self.supervisor.take();
        let sup_period = sup.as_ref().map(Supervisor::period);
        let mut sup_boundary = sup_period.map(|p| SimTime::ZERO + p);
        while let Some(entry) = self.heap.pop() {
            let now = entry.time;
            loop {
                // Drain both boundary streams in time order (observer
                // first on ties, so snapshots never see a post-tick
                // control plane at the same instant).
                let ob = boundary.filter(|b| *b < now && *b < self.window.horizon);
                let sb = sup_boundary.filter(|b| *b < now && *b < self.window.horizon);
                match (ob, sb) {
                    (Some(b), s) if s.map_or(true, |s| b <= s) => {
                        if let Some(o) = obs.as_deref_mut() {
                            o.tick(self.plane_state(b));
                        }
                        boundary = Some(b + period.expect("boundary implies a period"));
                    }
                    (_, Some(s)) => {
                        if let Some(sv) = sup.as_mut() {
                            self.sup_tick(sv, s);
                        }
                        sup_boundary = Some(s + sup_period.expect("boundary implies a period"));
                    }
                    _ => break,
                }
            }
            if now > self.window.horizon {
                break;
            }
            self.handle(entry.ev, now);
        }
        if let Some(o) = obs {
            // Final boundary at the horizon, after the loop quiesces: the
            // exact end-of-run state, so the history's windowed deltas
            // telescope to the merged report.
            o.tick(self.plane_state(self.window.horizon));
            o.finish();
        }
    }

    /// Processes one popped event. Shared by the batch loop ([`Exec::run`])
    /// and the stepped executor ([`VirtStepper`]), so the two cannot drift.
    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Arrival(q) => self.arrive(q, now),
            Ev::FrontDone { worker, sub } => {
                self.front_free.push(worker);
                let forwarded = Sub { ready: now, ..sub };
                match self.stages.back {
                    BackKind::None => self.complete(StageKind::Front, worker, &sub, now),
                    BackKind::Host { .. } => {
                        self.back_queue.push_back(forwarded);
                        self.schedule_back(now);
                    }
                    BackKind::Gpu { .. } => {
                        self.enqueue_fused(forwarded);
                        self.try_launch_gpu(now);
                    }
                }
                self.schedule_front(now);
            }
            Ev::BackDone { worker, sub } => {
                self.back_free.push(worker);
                self.complete(StageKind::Back, worker, &sub, now);
                self.schedule_back(now);
            }
            Ev::Flush => {
                if self.flush_armed.is_some_and(|t| t <= now) {
                    self.flush_armed = None;
                }
                self.try_launch_gpu(now);
            }
            Ev::LoadDone { ctx, batch } => {
                let BackKind::Gpu { ctxs, .. } = self.stages.back else {
                    unreachable!("LoadDone only fires with a GPU stage");
                };
                let b = &self.batches[batch];
                let (items, compute) = (b.items, b.compute);
                let wait = b
                    .load_start
                    .saturating_since(b.subs.first().map_or(b.load_start, |s| s.ready));
                let cost = {
                    let BackKind::Gpu { oracle, .. } = self.stages.back else {
                        unreachable!()
                    };
                    oracle.service_cost(items)
                };
                self.gpu_telem[ctx as usize].record_gpu(now, wait, items, &cost, ctxs);
                self.push(now + compute, Ev::GpuDone { ctx, batch });
            }
            Ev::GpuDone { ctx, batch } => {
                self.gpu_free.push(ctx);
                let load_start = self.batches[batch].load_start;
                let load_dur = self.batches[batch].load_dur;
                let compute = self.batches[batch].compute;
                let subs = std::mem::take(&mut self.batches[batch].subs);
                for sub in &subs {
                    let wait = load_start.saturating_since(sub.ready);
                    self.table.add_queuing(sub, wait);
                    self.table.add_loading(sub, load_dur);
                    self.table.add_inference(sub, compute);
                    self.complete(StageKind::Gpu, ctx, sub, now);
                }
                self.try_launch_gpu(now);
            }
        }
    }
}

/// Runs the virtual-clock executor on the paper-shaped seeded stream and
/// assembles the report.
pub(crate) fn run(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    offered: Qps,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let window = RunWindow::of(cfg);
    let queries = arrivals(cfg, offered, &window);
    run_trace(topo, server, cfg, &queries, offered, observer)
}

/// Runs the virtual-clock executor over an explicit arrival trace (the
/// router's per-replica sub-streams, recorded traces, …) and assembles the
/// report. Arrivals must be non-decreasing and lie within the horizon.
pub(crate) fn run_trace(
    topo: &Topology,
    server: &ServerSpec,
    cfg: &RuntimeConfig,
    queries: &[Query],
    offered: Qps,
    observer: Option<&mut RuntimeObserver>,
) -> RuntimeReport {
    let window = RunWindow::of(cfg);
    assert!(
        queries.last().map_or(true, |q| q.arrival <= window.horizon),
        "trace arrivals must lie within the configured horizon"
    );
    let mut exec = Exec::build(topo, server, cfg, queries);

    let measured_arrivals = queries
        .iter()
        .filter(|q| window.measures(q.arrival))
        .count() as u64;
    for (i, q) in queries.iter().enumerate() {
        exec.push(q.arrival, Ev::Arrival(i as u32));
    }
    exec.run(observer);

    let totals = RunTotals {
        offered,
        total_arrivals: queries.len() as u64,
        measured_arrivals,
        admitted: exec.admission.admitted(),
        shed: exec.admission.shed(),
        in_flight: exec.table.in_flight(),
        wall_elapsed_s: None,
        arena: None,
        cache_predicted: None,
        dispatch_trace: exec.admit_ring.take(),
        join_failures: 0,
    };
    let workers: Vec<WorkerTelemetry> = exec
        .front_telem
        .into_iter()
        .chain(exec.back_telem)
        .chain(exec.gpu_telem)
        .collect();
    assemble(server, cfg, workers, totals)
}

/// Sequence-number floor for service events in the stepped executor.
///
/// The batch loop pushes all N arrivals up front (seqs `1..=N`) before any
/// service event exists, so every arrival outranks every same-instant
/// service event. The stepper receives arrivals incrementally, interleaved
/// with service-event creation; giving arrivals their own low sequence
/// space (injection order, starting at 1) and starting service events here
/// reproduces the same total order — earliest time first, arrivals before
/// same-instant service events, each class in creation order — so a
/// single-replica stepped run is bitwise identical to the batch loop.
const STEP_SVC_SEQ: u64 = 1 << 40;

/// An incrementally-driven virtual-clock executor: the fleet router
/// injects arrivals epoch by epoch, advances the clock with
/// [`step_until`](VirtStepper::step_until), samples the control plane
/// between epochs, and assembles the standard [`RuntimeReport`] at the
/// end. Shares [`Exec::handle`] with the batch loop, so single-replica
/// stepped serving is bitwise identical to [`ServingRuntime::serve`]
/// (`crates/fleet/tests/fleet_props.rs` pins this).
///
/// [`ServingRuntime::serve`]: crate::ServingRuntime::serve
pub struct VirtStepper<'a> {
    exec: Exec<'a>,
    server: &'a ServerSpec,
    sup: Option<Supervisor>,
    sup_period: Option<SimDuration>,
    sup_boundary: Option<SimTime>,
    /// Injection-order sequence for arrivals (low sequence space).
    arrival_seq: u64,
    injected: u64,
    measured: u64,
}

impl<'a> VirtStepper<'a> {
    pub(crate) fn new(topo: &'a Topology, server: &'a ServerSpec, cfg: &'a RuntimeConfig) -> Self {
        let mut exec = Exec::build(topo, server, cfg, &[]);
        exec.seq = STEP_SVC_SEQ;
        // The stepper owns supervision boundaries: the batch loop drains
        // them lazily between events, the stepper at every step limit.
        let sup = exec.supervisor.take();
        let sup_period = sup.as_ref().map(Supervisor::period);
        let sup_boundary = sup_period.map(|p| SimTime::ZERO + p);
        VirtStepper {
            exec,
            server,
            sup,
            sup_period,
            sup_boundary,
            arrival_seq: 0,
            injected: 0,
            measured: 0,
        }
    }

    /// Feeds one query into the ingress. Arrivals must be injected in
    /// non-decreasing arrival order and before the clock passes them
    /// (`step_until` limits must trail injection).
    pub fn inject(&mut self, q: Query) {
        debug_assert!(
            q.arrival <= self.exec.window.horizon,
            "injected arrival past the horizon"
        );
        let idx = self.exec.table.push(q.arrival);
        self.exec.sizes.push(q.size);
        self.arrival_seq += 1;
        self.exec.heap.push(HeapEntry {
            time: q.arrival,
            seq: self.arrival_seq,
            ev: Ev::Arrival(idx),
        });
        self.injected += 1;
        if self.exec.window.measures(q.arrival) {
            self.measured += 1;
        }
    }

    /// Processes every pending event strictly before `t`, firing
    /// supervision boundaries in time order exactly as the batch loop
    /// would. Events at or past the horizon stay queued (the batch loop
    /// never handles them either).
    pub fn step_until(&mut self, t: SimTime) {
        let horizon = self.exec.window.horizon;
        while let Some(head) = self.exec.heap.peek() {
            if head.time >= t || head.time > horizon {
                break;
            }
            let entry = self.exec.heap.pop().expect("peeked entry");
            let now = entry.time;
            self.drain_sup(now);
            self.exec.handle(entry.ev, now);
        }
        let limit = if t < horizon { t } else { horizon };
        self.drain_sup(limit);
    }

    /// Fires supervision boundaries strictly before `limit` (and strictly
    /// before the horizon), matching the batch loop's lazy drain. Safe to
    /// call at step limits as well as event times: the executor state is
    /// unchanged between the last handled event and the boundary, so the
    /// supervisor observes the same plane either way.
    fn drain_sup(&mut self, limit: SimTime) {
        let Some(period) = self.sup_period else {
            return;
        };
        while let Some(b) = self.sup_boundary {
            if b >= limit || b >= self.exec.window.horizon {
                break;
            }
            if let Some(sv) = self.sup.as_mut() {
                self.exec.sup_tick(sv, b);
            }
            self.sup_boundary = Some(b + period);
        }
    }

    /// Snapshots the control plane into `obs` at instant `t` (the fleet's
    /// per-replica observer boundary).
    pub fn observe(&mut self, obs: &mut RuntimeObserver, t: SimTime) {
        obs.tick(self.exec.plane_state(t));
    }

    /// Queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.exec.admission.admitted()
    }

    /// Queries shed so far (admission + backpressure + forced).
    pub fn shed(&self) -> u64 {
        self.exec.admission.shed()
    }

    /// Queries admitted but not yet retired.
    pub fn in_flight(&self) -> u64 {
        self.exec.table.in_flight()
    }

    pub fn suspect_workers(&self) -> u32 {
        self.exec.controls.suspect_count()
    }

    pub fn dead_workers(&self) -> u32 {
        self.exec.controls.dead_count()
    }

    pub fn degrade_level(&self) -> u8 {
        self.exec.controls.level()
    }

    pub fn horizon(&self) -> SimTime {
        self.exec.window.horizon
    }

    /// Drains every remaining event (the batch loop's quiescing tail),
    /// takes the final observer boundary at the horizon, and assembles the
    /// standard report. `offered` is recorded verbatim — the caller knows
    /// the per-replica offered share, the stepper only saw arrivals.
    pub fn finish(mut self, offered: Qps, observer: Option<&mut RuntimeObserver>) -> RuntimeReport {
        let horizon = self.exec.window.horizon;
        while let Some(entry) = self.exec.heap.pop() {
            let now = entry.time;
            self.drain_sup(now);
            if now > horizon {
                break;
            }
            self.exec.handle(entry.ev, now);
        }
        if let Some(o) = observer {
            o.tick(self.exec.plane_state(horizon));
            o.finish();
        }
        let totals = RunTotals {
            offered,
            total_arrivals: self.injected,
            measured_arrivals: self.measured,
            admitted: self.exec.admission.admitted(),
            shed: self.exec.admission.shed(),
            in_flight: self.exec.table.in_flight(),
            wall_elapsed_s: None,
            arena: None,
            cache_predicted: None,
            dispatch_trace: self.exec.admit_ring.take(),
            join_failures: 0,
        };
        let workers: Vec<WorkerTelemetry> = self
            .exec
            .front_telem
            .into_iter()
            .chain(self.exec.back_telem)
            .chain(self.exec.gpu_telem)
            .collect();
        assemble(self.server, self.exec.cfg, workers, totals)
    }
}
