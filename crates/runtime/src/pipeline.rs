//! The serving pipeline both clocks drive.
//!
//! `Psp(M + D + O)` serving makes the same decisions whichever clock runs
//! it: whether an arrival is admitted and how it splits, whether a
//! dequeued sub-query has expired, what a CPU stage charges for a
//! sub-query (oracle cost, the ladder's degraded gathers, injected
//! derates), how a fused GPU batch is priced and attributed, how a
//! retiring query is classified, what the observer and supervisor see, and
//! how the report's totals are formed. [`Pipeline`] makes all of them.
//! The virtual clock (`sim::engine`'s event loop, with this pipeline as
//! its hooks: [`virt`](crate::virt)) and the wall thread pools
//! ([`wall`](crate::wall)) decide only *when*: they own the clock, the
//! queues and the workers, and call in here for everything else, so a
//! serving change is written once and both clocks run it. The stage facts
//! — pool sizes, the ingress, the route between pools, each pool's cost
//! function — are the [`Topology`]'s.

use std::sync::Arc;

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::{pcie_transfer_time, BatchCost};
use hercules_hw::server::ServerSpec;
use hercules_sim::{split, BackStage, RunWindow, StageKind, Sub, Subs, Topology};
use hercules_workload::query::Query;

use crate::admission::{AdmissionController, AdmissionCounters};
use crate::config::RuntimeConfig;
use crate::fault::{degraded_latency, FaultBook, RuntimeControls, Supervisor, DEGRADED_KEEP};
use crate::observe::{PlaneState, WorkerView};
use crate::report::{assemble, RunTotals, RuntimeReport, WallTotals};
use crate::stage::{QueryTable, FLAG_DEGRADED, FLAG_EXPIRED};
use crate::telemetry::WorkerTelemetry;
use crate::trace::{SpanKind, TraceEvent, TraceRing, TraceSampler, DISPATCH_TID};

/// One run's serving decisions over a built topology. Shared read-only by
/// every wall thread; owned by the virtual stepper.
pub(crate) struct Pipeline<'a> {
    pub topo: &'a Topology,
    server: &'a ServerSpec,
    pub cfg: &'a RuntimeConfig,
    pub window: RunWindow,
    pub table: QueryTable,
    pub book: FaultBook,
    pub controls: Arc<RuntimeControls>,
    pub sampler: TraceSampler,
    // `faulty`, `supervised` and `deadline_drop` gate every fault branch.
    // With the default config all three are false: the pipeline takes the
    // fault-free paths (no extra events, sequence numbers or RNG draws),
    // so reports stay bit-identical to a run without the fault plane.
    pub faulty: bool,
    pub supervised: bool,
    deadline_drop: bool,
    /// The ingress pool's per-sub service estimate and parallelism (the
    /// admission controller's and supervisor's queue-delay model).
    per_sub_s: f64,
    parallelism: u32,
}

/// The dispatcher's state: admission, the admit-span ring, and the
/// arrival counts the report's totals need.
pub(crate) struct Dispatcher {
    pub admission: AdmissionController,
    ring: Option<TraceRing>,
    arrivals: u64,
    measured: u64,
}

/// A CPU stage's decision about one dequeued sub-query.
pub(crate) struct CpuJob {
    pub cost: Arc<BatchCost>,
    /// When the sub-query left its queue.
    pub now: SimTime,
    pub wait: SimDuration,
    /// L2 of the ladder: serve cache-hit rows only (front pool).
    pub degrade: bool,
    /// Injected slow-core and gather-spike multiplier.
    pub derate: f64,
    /// Modeled service: the oracle latency, priced degraded under L2,
    /// times the derate.
    pub svc: SimDuration,
}

/// A fused GPU batch's modeled timing: its PCIe slot and its compute.
pub(crate) struct GpuLaunch {
    pub items: u32,
    pub load_start: SimTime,
    pub load_dur: SimDuration,
    /// Compute, derated by any GPU fault active when the load ends.
    pub compute: SimDuration,
    cost: Arc<BatchCost>,
}

/// One pool as the observer and supervisor read it: per-worker telemetry
/// sources (worker telemetry or seqlock slots) and the queue depth ahead.
pub(crate) type PoolView<'p, W> = (&'p [W], usize);

impl<'a> Pipeline<'a> {
    /// The pipeline of one run over `queries` (which may be empty: the
    /// stepper adds arrivals as they are injected).
    pub fn new(
        topo: &'a Topology,
        server: &'a ServerSpec,
        cfg: &'a RuntimeConfig,
        queries: &[Query],
    ) -> Self {
        let workers = topo.workers();
        // The ingress pool's per-sub service estimate, at a typical sub
        // size: the mean paper query (120 items) capped by the split batch.
        let ingress = topo.ingress();
        let svc = match &topo.back {
            BackStage::Gpu { svc, .. } if ingress == StageKind::Gpu => svc,
            _ => topo.cpu_service(ingress),
        };
        let items = topo.split_batch.map_or(120, |b| b.clamp(1, 120));
        let per_sub_s = svc.cost_shared(items).latency.as_secs_f64();
        let [front, back, gpu] = workers;
        let book = FaultBook::build(&cfg.faults, front, back, gpu);
        let supervised = cfg.supervisor.enabled;
        Pipeline {
            topo,
            server,
            cfg,
            window: cfg.window(),
            table: QueryTable::new(queries),
            faulty: !book.is_empty() || supervised,
            book,
            controls: RuntimeControls::new(cfg.batch.max_delay),
            sampler: TraceSampler::new(cfg.seed, cfg.trace.sample_one_in),
            supervised,
            deadline_drop: cfg.deadline.drop_expired && cfg.deadline.budget.is_some(),
            per_sub_s,
            parallelism: workers[ingress.index()],
        }
    }

    /// A fresh telemetry record for `worker` of `stage`, carrying its span
    /// ring when the run traces.
    pub fn telemetry(&self, stage: StageKind, worker: u32) -> WorkerTelemetry {
        let t = WorkerTelemetry::new(stage, worker, self.cfg.duration);
        if self.cfg.trace.enabled() {
            t.with_trace(self.cfg.trace.ring_capacity as usize)
        } else {
            t
        }
    }

    pub fn dispatcher(&self) -> Dispatcher {
        Dispatcher {
            admission: AdmissionController::new(
                &self.cfg.admission,
                self.per_sub_s,
                self.parallelism,
            ),
            ring: self
                .cfg
                .trace
                .enabled()
                .then(|| TraceRing::with_capacity(self.cfg.trace.ring_capacity as usize)),
            arrivals: 0,
            measured: 0,
        }
    }

    /// The run's supervisor, when supervision is configured.
    pub fn supervisor(&self) -> Option<Supervisor> {
        self.supervised.then(|| {
            Supervisor::new(
                self.cfg.supervisor.distress_wait,
                Arc::clone(&self.controls),
                self.per_sub_s,
                self.cfg.batch.max_delay,
            )
        })
    }

    /// How long the head of a partial fused batch may wait: the live value
    /// the ladder's L1 tightens, or the configured one when unsupervised.
    pub fn batch_delay(&self) -> SimDuration {
        if self.supervised {
            self.controls.batch_delay()
        } else {
            self.cfg.batch.max_delay
        }
    }

    /// The serving contract every entry point checks: arrivals are
    /// non-decreasing (`q` follows `prev`) and lie within the horizon, and
    /// every query has at least one item.
    ///
    /// # Panics
    ///
    /// Panics when `q` breaks the contract.
    pub fn check_arrival(&self, prev: SimTime, q: &Query) {
        let (arrival, size) = (q.arrival, q.size);
        assert!(
            prev <= arrival && arrival <= self.window.horizon && size > 0,
            "trace arrivals must be non-decreasing and lie within the configured horizon, \
             with at least one item ({arrival} after {prev}, size {size}, horizon {})",
            self.window.horizon
        );
    }

    /// Dispatches arrival `query` of `size` items at `arrival`, with
    /// `depth` sub-queries queued at the ingress: sheds it at L3 of the
    /// ladder, by the admission budget, or when its sub-queries would
    /// overflow the bounded ingress queue; otherwise admits it, hands its
    /// sub-queries to `enqueue` and records its admit span. `enqueue` reports
    /// whether they fit (a concurrent re-enqueue may have filled the wall
    /// clock's queue); when they do not, the query is shed by backpressure.
    /// Returns whether the query was admitted.
    pub fn dispatch(
        &self,
        d: &mut Dispatcher,
        query: u32,
        arrival: SimTime,
        size: u32,
        depth: usize,
        enqueue: impl FnOnce(Subs) -> bool,
    ) -> bool {
        d.arrivals += 1;
        d.measured += u64::from(self.window.measures(arrival));
        if self.supervised && self.controls.shedding() {
            d.admission.shed_forced();
            return false;
        }
        if !d.admission.admit(depth) {
            return false;
        }
        let subs = split(query, arrival, size, self.topo.split_batch);
        if depth + subs.len() > self.cfg.queue_depth {
            d.admission.shed_backpressure();
            return false;
        }
        self.table.admit(query, subs.len() as u32);
        if !enqueue(subs) {
            self.table.admit(query, 0);
            d.admission.shed_backpressure();
            return false;
        }
        if let Some(ring) = d.ring.as_mut().filter(|_| self.sampler.sampled(query)) {
            ring.push(TraceEvent {
                query,
                tid: DISPATCH_TID,
                kind: SpanKind::Admit,
                start: arrival,
                dur: SimDuration::ZERO,
            });
        }
        true
    }

    /// A CPU pool (front or host back) takes `sub` off its queue at `now`
    /// on `worker`: drops it expired when deadlines are enforced and it
    /// has blown its budget (returns `None`), else charges its queue wait
    /// and prices its service.
    pub fn cpu_begin(
        &self,
        stage: StageKind,
        worker: u32,
        sub: &Sub,
        now: SimTime,
        t: &mut WorkerTelemetry,
    ) -> Option<CpuJob> {
        if self.deadline_drop && self.expired(sub, now, t) {
            return None;
        }
        let cost = self.topo.cpu_service(stage).cost_shared(sub.items);
        let wait = now.saturating_since(sub.ready);
        self.table.add_queuing(sub, wait);
        let degrade =
            stage == StageKind::Front && self.supervised && self.controls.degrade_gather();
        let mut svc = cost.latency;
        if degrade {
            // L2: serve cache-hit rows only, priced through the oracle.
            svc = degraded_latency(&cost, DEGRADED_KEEP);
            self.table.mark_degraded(sub);
        }
        let derate = if self.faulty {
            self.book.service_mult(stage, worker, now)
        } else {
            1.0
        };
        if derate != 1.0 {
            svc = svc.mul_f64(derate);
        }
        t.heartbeat(now);
        Some(CpuJob {
            cost,
            now,
            wait,
            degrade,
            derate,
            svc,
        })
    }

    /// Deadline enforcement at dequeue: when `sub` has blown its budget,
    /// retires it expired without serving it.
    fn expired(&self, sub: &Sub, now: SimTime, t: &mut WorkerTelemetry) -> bool {
        let Some(budget) = self.cfg.deadline.budget else {
            return false;
        };
        if now <= self.table.arrival(sub.query) + budget {
            return false;
        }
        if self.table.drop_expired(sub, now).is_some() {
            t.record_expired();
        }
        true
    }

    /// Accounts `job` served from `start` to `end`, charging `service` to
    /// the query's inference phase and the worker's busy time.
    pub fn cpu_end(
        &self,
        stage: StageKind,
        job: &CpuJob,
        sub: &Sub,
        (start, end): (SimTime, SimTime),
        service: SimDuration,
        t: &mut WorkerTelemetry,
    ) {
        self.table.add_inference(sub, service);
        t.record_cpu_measured(job.now, job.wait, sub.items, &job.cost, service);
        if self.sampler.sampled(sub.query) {
            let kind = match stage {
                StageKind::Front => SpanKind::Front,
                _ => SpanKind::Back,
            };
            t.trace(sub.query, SpanKind::Queue, sub.ready, job.wait);
            t.trace(sub.query, kind, start, end.saturating_since(start));
        }
    }

    /// Prices fused batch `subs` (`items` in all) on GPU context `ctx`,
    /// whose PCIe load starts at `load_start`: records the link busy,
    /// derates the compute by any GPU fault active when the load ends, and
    /// records the sampled sub-queries' queue, load and compute spans.
    pub fn gpu_launch(
        &self,
        ctx: u32,
        subs: &[Sub],
        items: u32,
        load_start: SimTime,
        t: &mut WorkerTelemetry,
    ) -> GpuLaunch {
        let BackStage::Gpu {
            svc,
            bytes_per_item,
            ..
        } = &self.topo.back
        else {
            unreachable!("fused batches launch only on a GPU stage");
        };
        let gpu = self.server.gpu.as_ref().expect("GPU stage on a GPU server");
        let load_dur = pcie_transfer_time(bytes_per_item * items as f64, gpu, 1);
        t.record_pcie(load_start, load_dur);
        let cost = svc.cost_shared(items);
        let mut compute = cost.latency;
        if self.faulty {
            let mult = self.book.gpu_mult(ctx, load_start + load_dur);
            if mult != 1.0 {
                compute = compute.mul_f64(mult);
            }
        }
        if self.sampler.enabled() {
            for sub in subs.iter().filter(|s| self.sampler.sampled(s.query)) {
                let wait = load_start.saturating_since(sub.ready);
                t.trace(sub.query, SpanKind::Queue, sub.ready, wait);
                t.trace(sub.query, SpanKind::Load, load_start, load_dur);
                t.trace(sub.query, SpanKind::Gpu, load_start + load_dur, compute);
            }
        }
        GpuLaunch {
            items,
            load_start,
            load_dur,
            compute,
            cost,
        }
    }

    /// Accounts the batch's compute starting at `now`: GPU busy time and
    /// the head sub-query's wait ahead of the load.
    pub fn gpu_compute(
        &self,
        launch: &GpuLaunch,
        subs: &[Sub],
        now: SimTime,
        t: &mut WorkerTelemetry,
    ) {
        let head_ready = subs.first().map_or(launch.load_start, |s| s.ready);
        let wait = launch.load_start.saturating_since(head_ready);
        t.record_gpu(
            now,
            wait,
            launch.items,
            &launch.cost,
            self.topo.workers()[2],
        );
    }

    /// Completes the batch at `now`: attributes each sub-query's queue
    /// wait, load and derated compute to its query, then retires it.
    pub fn gpu_done(
        &self,
        launch: &GpuLaunch,
        subs: &[Sub],
        now: SimTime,
        t: &mut WorkerTelemetry,
    ) {
        for sub in subs {
            self.table
                .add_queuing(sub, launch.load_start.saturating_since(sub.ready));
            self.table.add_loading(sub, launch.load_dur);
            self.table.add_inference(sub, launch.compute);
            self.retire(sub, now, t);
        }
    }

    /// Retires one served sub-query at `now`. When it was its query's
    /// last, classifies the query into `t`: expired when a sibling expired,
    /// else a (possibly degraded) completion, measured when it arrived in
    /// the window and on time when it met the deadline budget.
    pub fn retire(&self, sub: &Sub, now: SimTime, t: &mut WorkerTelemetry) {
        let Some(r) = self.table.complete(sub, now) else {
            return;
        };
        if r.flags & FLAG_EXPIRED != 0 {
            // A sibling blew the deadline mid-flight: the whole query
            // retires expired, never as a completion.
            t.record_expired();
        } else {
            let in_window = self.window.measures(self.table.arrival(sub.query));
            let on_time = self.cfg.deadline.budget.map_or(true, |b| r.latency <= b);
            let degraded = r.flags & FLAG_DEGRADED != 0;
            t.record_completion(r.latency, &r.phases, in_window, degraded, on_time);
        }
        if self.sampler.sampled(sub.query) {
            t.trace(sub.query, SpanKind::Complete, now, SimDuration::ZERO);
        }
    }

    /// Brings `plane`, the observer's or supervisor's state, up to the
    /// boundary at `t`: each non-empty pool's summed telemetry (`pools` in
    /// [`StageKind`] order) and queue depth with their windows since its
    /// last read, the admission counters, and the control plane.
    pub fn read_plane<W: WorkerView>(
        &self,
        plane: &mut PlaneState,
        t: SimTime,
        counters: &AdmissionCounters,
        pools: [PoolView<'_, W>; 3],
    ) {
        plane.advance(t, counters.admitted(), counters.shed(), pools);
        plane.suspect_workers = self.controls.suspect_count();
        plane.dead_workers = self.controls.dead_count();
        plane.degrade_level = self.controls.level();
    }

    /// One supervision boundary at `t`: the supervisor reads the plane and
    /// every CPU worker's last heartbeat.
    pub fn supervise<W: WorkerView>(
        &self,
        sup: &mut Supervisor,
        t: SimTime,
        counters: &AdmissionCounters,
        pools: [PoolView<'_, W>; 3],
    ) {
        let beats =
            |(workers, _): PoolView<'_, W>| workers.iter().map(W::last_beat).collect::<Vec<_>>();
        let (front, back) = (beats(pools[0]), beats(pools[1]));
        self.read_plane(&mut sup.plane, t, counters, pools);
        sup.tick(&front, &back, t);
    }

    /// Folds the run into its report: `workers` in pool-then-index order,
    /// the dispatcher's counts, and what only the wall clock measures.
    pub fn report(
        &self,
        d: Dispatcher,
        offered: Qps,
        workers: Vec<WorkerTelemetry>,
        wall: WallTotals,
    ) -> RuntimeReport {
        let totals = RunTotals {
            offered,
            total_arrivals: d.arrivals,
            measured_arrivals: d.measured,
            admitted: d.admission.admitted(),
            shed: d.admission.shed(),
            in_flight: self.table.in_flight(),
            dispatch_trace: d.ring,
            wall,
        };
        assemble(self.server, self.cfg, workers, totals)
    }
}
