//! The deterministic virtual clock: `sim::engine`'s event loop with the
//! serving [`Pipeline`] as its hooks.
//!
//! The loop ([`Server`]) owns only what a clock owns — injected arrivals
//! served beside its event heap (arrivals first on ties), each pool's
//! queue and free workers, the batcher's flush deadline, the serialized
//! PCIe link — and asks [`Virt`] for every serving decision, which the
//! pipeline makes. What only the virtual clock keeps stays here: every
//! worker's telemetry, and the supervisor's and observer's boundaries,
//! which [`VirtStepper`] fires by pausing the loop at each one that falls
//! due. Every decision is a pure function of the configuration and the
//! arrivals, so runs are bitwise-reproducible: this is the mode searches,
//! tests and the fleet use. With no faults, no admission budget and a
//! zero batching delay, a run agrees with the simulator's to the
//! nanosecond (`tests/runtime_props.rs`). A whole-trace run injects every
//! arrival into a [`VirtStepper`] and finishes it; the fleet steps one
//! epoch at a time.

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::server::ServerSpec;
use hercules_sim::{Serve, Server, StageKind, Sub, Subs, Topology};
use hercules_workload::query::Query;

use crate::config::RuntimeConfig;
use crate::fault::{Supervisor, SUPERVISOR_PERIOD};
use crate::observe::RuntimeObserver;
use crate::pipeline::{Dispatcher, GpuLaunch, Pipeline, PoolView};
use crate::report::{RuntimeReport, WallTotals};
use crate::telemetry::WorkerTelemetry;

/// Runs the virtual clock over an explicit arrival trace and assembles
/// the report.
///
/// # Panics
///
/// Panics when an arrival breaks the serving contract
/// ([`VirtStepper::inject`]).
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

/// The virtual clock's hooks: the pipeline, its dispatcher, and every
/// worker's telemetry (in [`StageKind`] order), which the loop owns, so no
/// seqlock is needed.
struct Virt<'a> {
    pipe: Pipeline<'a>,
    dispatch: Dispatcher,
    telem: [Vec<WorkerTelemetry>; 3],
}

impl Serve for Virt<'_> {
    type Launch = GpuLaunch;

    #[inline]
    fn admit(
        &mut self,
        query: u32,
        now: SimTime,
        size: u32,
        depth: usize,
    ) -> Option<(usize, Subs)> {
        let mut admitted = None;
        self.pipe
            .dispatch(&mut self.dispatch, query, now, size, depth, |subs| {
                admitted = Some((0, subs));
                true
            });
        admitted
    }

    #[inline]
    fn worker(&mut self, stage: StageKind, free: &mut Vec<u32>, now: SimTime) -> Option<usize> {
        let pipe = &self.pipe;
        if !pipe.faulty {
            return free.len().checked_sub(1);
        }
        // Workers whose injected panic has fired leave the pool.
        let mut i = 0;
        while i < free.len() {
            let w = free[i];
            if pipe.book.dead(stage, w, now) {
                free.swap_remove(i);
                pipe.controls.mark_dead(stage, w);
                self.telem[stage.index()][w as usize].failed = true;
            } else {
                i += 1;
            }
        }
        // Suspect workers are skipped so siblings absorb a stalled
        // worker's queue share.
        free.iter()
            .rposition(|&w| !pipe.controls.is_suspect(stage, w))
    }

    #[inline]
    fn cpu_begin(
        &mut self,
        stage: StageKind,
        _: usize,
        worker: u32,
        sub: &Sub,
        now: SimTime,
    ) -> Option<SimTime> {
        let pipe = &self.pipe;
        let t = &mut self.telem[stage.index()][worker as usize];
        let job = pipe.cpu_begin(stage, worker, sub, now, t)?;
        // A dispatch into a stall window is trapped behind the frozen
        // worker: service begins when the stall ends.
        let stall = pipe.faulty.then(|| pipe.book.stall_end(stage, worker, now));
        let start = stall.flatten().unwrap_or(now);
        let end = start + job.svc;
        pipe.cpu_end(stage, &job, sub, (start, end), job.svc, t);
        Some(end)
    }

    fn tenant(&self, _: &Sub) -> usize {
        0
    }

    #[inline]
    fn retire(&mut self, stage: StageKind, worker: u32, sub: &Sub, now: SimTime) {
        let t = &mut self.telem[stage.index()][worker as usize];
        self.pipe.retire(sub, now, t);
    }

    #[inline]
    fn batch_delay(&self) -> SimDuration {
        self.pipe.batch_delay()
    }

    #[inline]
    fn gpu_launch(
        &mut self,
        ctx: u32,
        _: usize,
        subs: &[Sub],
        items: u32,
        load_start: SimTime,
    ) -> (SimDuration, GpuLaunch) {
        let t = &mut self.telem[StageKind::Gpu.index()][ctx as usize];
        let launch = self.pipe.gpu_launch(ctx, subs, items, load_start, t);
        (launch.load_dur, launch)
    }

    #[inline]
    fn gpu_loaded(
        &mut self,
        ctx: u32,
        _: usize,
        subs: &[Sub],
        launch: &mut GpuLaunch,
        now: SimTime,
    ) -> SimDuration {
        let t = &mut self.telem[StageKind::Gpu.index()][ctx as usize];
        self.pipe.gpu_compute(launch, subs, now, t);
        launch.compute
    }

    #[inline]
    fn gpu_done(&mut self, ctx: u32, subs: &[Sub], launch: &GpuLaunch, now: SimTime) {
        let t = &mut self.telem[StageKind::Gpu.index()][ctx as usize];
        self.pipe.gpu_done(launch, subs, now, t);
    }
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
    server: Server<'a, Virt<'a>>,
    last_arrival: SimTime,
    sup: Option<Supervisor>,
    // Observation and supervision boundaries pause the loop instead of
    // riding the event heap: heap entries consume `seq` tie-break numbers,
    // so enqueueing them would perturb event ordering and break the
    // bitwise identity of observed vs unobserved (and unfaulted vs
    // `FaultPlan::none()`) runs.
    sup_boundary: Option<SimTime>,
    /// Periodic observer boundaries, for whole-trace runs only (the fleet
    /// observes at its epoch boundaries instead).
    obs_boundary: Option<SimTime>,
}

// The fleet steps replicas as values it may move across threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<VirtStepper<'static>>();
};

impl<'a> VirtStepper<'a> {
    pub(crate) fn new(topo: &'a Topology, server: &'a ServerSpec, cfg: &'a RuntimeConfig) -> Self {
        let pipe = Pipeline::new(topo, server, cfg, &[]);
        let telem = StageKind::ALL.map(|stage| {
            let n = topo.workers()[stage.index()];
            (0..n).map(|w| pipe.telemetry(stage, w)).collect()
        });
        let sup = pipe.supervisor();
        let horizon = pipe.window.horizon;
        let hooks = Virt {
            dispatch: pipe.dispatcher(),
            pipe,
            telem,
        };
        VirtStepper {
            server: Server::new(topo, &[1.0], horizon, hooks),
            last_arrival: SimTime::ZERO,
            sup_boundary: sup.as_ref().map(|_| SimTime::ZERO + SUPERVISOR_PERIOD),
            sup,
            obs_boundary: None,
        }
    }

    /// Feeds one query into the ingress. Arrivals must be injected in
    /// non-decreasing arrival order and before the clock passes them
    /// (`step_until` limits must trail injection).
    ///
    /// # Panics
    ///
    /// Panics when the arrival precedes the last one injected, lies past
    /// the horizon, or has no items.
    pub fn inject(&mut self, q: Query) {
        let pipe = &mut self.server.hooks.pipe;
        pipe.check_arrival(self.last_arrival, &q);
        self.last_arrival = q.arrival;
        let idx = pipe.table.push(q.arrival);
        self.server.inject(idx, q.arrival, q.size);
    }

    /// Serves every pending arrival and event strictly before `t`, firing
    /// supervision boundaries in time order. Events past the horizon stay
    /// queued (no run serves them).
    pub fn step_until(&mut self, t: SimTime) {
        self.serve(Some(t), &mut None);
    }

    /// Serves arrivals and events in time order (all of them, or those
    /// strictly before `until`) up to the horizon, firing each observer
    /// and supervision boundary once the loop has served every arrival and
    /// event at or before it (the observer first on ties, so snapshots
    /// never see a post-tick control plane at the same instant). A
    /// whole-trace run fires a boundary only while work remains after it.
    fn serve(&mut self, until: Option<SimTime>, obs: &mut Option<&mut RuntimeObserver>) {
        let end = until.unwrap_or(SimTime::MAX).min(self.horizon());
        loop {
            let ob = self.obs_boundary.filter(|b| *b < end);
            let sb = self.sup_boundary.filter(|b| *b < end);
            let Some(b) = ob.into_iter().chain(sb).min() else {
                break;
            };
            self.server.run(b + SimDuration::from_nanos(1));
            if until.is_none() && !self.server.pending() {
                return;
            }
            if ob == Some(b) {
                let o = obs
                    .as_deref_mut()
                    .expect("observer boundaries need an observer");
                self.observe(o, b);
                self.obs_boundary = Some(b + o.period());
            } else {
                let mut sup = self.sup.take().expect("boundary implies a supervisor");
                let hooks = &self.server.hooks;
                let counters = hooks.dispatch.admission.counters();
                hooks.pipe.supervise(&mut sup, b, &counters, self.views());
                self.sup_boundary = Some(b + SUPERVISOR_PERIOD);
                self.sup = Some(sup);
            }
        }
        self.server.run(until.unwrap_or(SimTime::MAX));
    }

    fn views(&self) -> [PoolView<'_, WorkerTelemetry>; 3] {
        let telem = &self.server.hooks.telem;
        StageKind::ALL.map(|s| (&telem[s.index()][..], self.server.queued(s)))
    }

    /// Snapshots the control plane into `obs` at instant `t` (the fleet's
    /// per-replica observer boundary), reading every stage's cumulative
    /// state straight from the telemetry.
    pub fn observe(&mut self, obs: &mut RuntimeObserver, t: SimTime) {
        let hooks = &self.server.hooks;
        let counters = hooks.dispatch.admission.counters();
        obs.tick(|plane| hooks.pipe.read_plane(plane, t, &counters, self.views()));
    }

    /// Queries shed so far (admission + backpressure + forced).
    pub fn shed(&self) -> u64 {
        self.server.hooks.dispatch.admission.shed()
    }

    pub fn dead_workers(&self) -> u32 {
        self.server.hooks.pipe.controls.dead_count()
    }

    pub fn degrade_level(&self) -> u8 {
        self.server.hooks.pipe.controls.level()
    }

    pub fn horizon(&self) -> SimTime {
        self.server.hooks.pipe.window.horizon
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
        self.serve(None, &mut observer);
        if let Some(o) = observer {
            // The exact end-of-run state, so the history's windowed deltas
            // telescope to the merged report.
            self.observe(o, self.horizon());
            o.finish();
        }
        let Virt {
            pipe,
            dispatch,
            telem,
        } = self.server.hooks;
        let workers = telem.into_iter().flatten().collect();
        pipe.report(dispatch, offered, workers, WallTotals::default())
    }
}
