//! The discrete-event server simulator and the one event loop every
//! virtual-time run serves through.
//!
//! Faithful to the paper's system stack (Fig. 3): a query dispatcher splits
//! arriving queries into sub-queries (data-parallelism on CPUs) or fuses
//! them into large batches (query fusion on accelerators); inference-thread
//! pools serve batches with service times from the roofline cost model; the
//! S-D pipeline forwards pooled sparse outputs through a queue; PCIe loading
//! is a serialized shared link. Tail latency, throughput, utilization, and
//! power are measured over a post-warm-up window.
//!
//! [`Server`] owns only what a clock owns: arrivals served beside an
//! insertion-ordered event heap (arrivals first on ties), each pool's
//! per-tenant queues with the share-weighted deficit round-robin picker
//! (`crate::colocation`) and its free workers, the batcher's flush
//! deadline, the serialized PCIe link and the in-flight fused batches
//! (one slot per busy GPU context: a finished batch's slot is reused).
//! Every serving decision — admission, service time, deadline drops,
//! retirement, GPU load and compute attribution, the batching delay, which
//! worker serves — is asked of its [`Serve`] hooks. The simulator's hooks
//! price batches with the roofline costs, derate co-located tenants for
//! interference, and keep exact latency populations and the power
//! buckets; a dedicated server ([`simulate_with_topology`]) is the
//! one-tenant case, which takes neither the picker's scan nor the derate's
//! arithmetic and keeps no second latency population. The serving
//! runtime's virtual clock is the same loop over the serving pipeline's
//! hooks (`hercules_runtime::VirtStepper`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use hercules_common::stats::PercentileTracker;
use hercules_common::units::{Joules, Qps, SimDuration, SimTime, Watts};
use hercules_hw::cost::pcie_transfer_time;
use hercules_hw::device::GpuSpec;
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::power::{Activity, PowerModel};
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_workload::generator::{QueryStream, UnitDraws};
use hercules_workload::query::Query;

use crate::colocation::{Interference, WeightedRr};
use crate::config::{check_rate, PlacementPlan, PlanError, RunWindow, SimConfig, SlaSpec};
use crate::metrics::{ColocationReport, LatencyBreakdown, SimReport, Tail};
use crate::service::{build_topology, BackStage, StageKind, Topology};

/// Number of coarse accounting buckets used for peak-power estimation.
pub const POWER_BUCKETS: usize = 32;

/// Splits a query of `size` items into sub-query sizes under the plan's
/// data-parallel split batch (`None`: the whole query flows as one unit).
///
/// Shared by the simulator and the live serving runtime, so every
/// execution backend forms identical sub-queries. The iterator is `Copy`
/// and exact-size, so dispatchers form sub-queries without touching the
/// heap.
pub fn split_iter(size: u32, split_batch: Option<u32>) -> SplitIter {
    let chunk = match split_batch {
        None => size.max(1),
        Some(d) => d.max(1),
    };
    SplitIter { left: size, chunk }
}

/// Iterator behind [`split_iter`]. A zero-size query yields nothing.
#[derive(Debug, Clone, Copy)]
pub struct SplitIter {
    left: u32,
    chunk: u32,
}

impl Iterator for SplitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        let take = self.left.min(self.chunk);
        self.left -= take;
        Some(take)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.left as usize).div_ceil(self.chunk as usize);
        (n, Some(n))
    }
}

impl ExactSizeIterator for SplitIter {}

/// Coarse time-bucketed resource accounting: busy core-seconds, channel
/// bytes, GPU-seconds, PCIe-seconds, and NMP energy per bucket. Feeds
/// [`summarize_load`]; shared by the simulator and the live serving
/// runtime so every backend derives power and activity identically.
#[derive(Debug, Clone)]
pub struct Buckets {
    /// Bucket width in seconds (`duration / POWER_BUCKETS`).
    pub width_s: f64,
    /// Busy CPU core-seconds per bucket.
    pub cpu_core_s: Vec<f64>,
    /// DRAM channel bytes per bucket.
    pub chan_bytes: Vec<f64>,
    /// GPU busy-seconds (utilization-weighted) per bucket.
    pub gpu_s: Vec<f64>,
    /// PCIe link busy-seconds per bucket.
    pub pcie_s: Vec<f64>,
    /// On-DIMM NMP energy (joules) per bucket.
    pub nmp_j: Vec<f64>,
}

impl Buckets {
    /// Creates zeroed buckets spanning `duration`.
    pub fn new(duration: SimDuration) -> Self {
        Buckets {
            width_s: duration.as_secs_f64() / POWER_BUCKETS as f64,
            cpu_core_s: vec![0.0; POWER_BUCKETS],
            chan_bytes: vec![0.0; POWER_BUCKETS],
            gpu_s: vec![0.0; POWER_BUCKETS],
            pcie_s: vec![0.0; POWER_BUCKETS],
            nmp_j: vec![0.0; POWER_BUCKETS],
        }
    }

    /// The bucket holding instant `t` (clamped to the last bucket).
    pub fn index(&self, t: SimTime) -> usize {
        ((t.as_secs_f64() / self.width_s) as usize).min(POWER_BUCKETS - 1)
    }

    /// Accumulates another accounting (same width) into this one, so
    /// per-worker buckets can be folded after a multi-threaded run.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &Buckets) {
        assert!(
            self.width_s.to_bits() == other.width_s.to_bits(),
            "cannot merge buckets of different widths"
        );
        let zip = |a: &mut Vec<f64>, b: &[f64]| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        };
        zip(&mut self.cpu_core_s, &other.cpu_core_s);
        zip(&mut self.chan_bytes, &other.chan_bytes);
        zip(&mut self.gpu_s, &other.gpu_s);
        zip(&mut self.pcie_s, &other.pcie_s);
        zip(&mut self.nmp_j, &other.nmp_j);
    }
}

/// Server-level activity and power derived from the bucketed accounting —
/// shared by the simulator and the live serving runtime so their
/// report-assembly paths can never drift.
pub struct LoadSummary {
    /// Mean fraction of CPU cores busy.
    pub cpu_activity: f64,
    /// Mean DRAM channel-bandwidth utilization.
    pub mem_activity: f64,
    /// Mean GPU utilization.
    pub gpu_activity: f64,
    /// Mean PCIe link utilization.
    pub pcie_activity: f64,
    /// Time-average server power.
    pub mean_power: Watts,
    /// Peak bucketed power.
    pub peak_power: Watts,
}

/// Folds bucketed resource accounting into server-level activity and power.
pub fn summarize_load(
    buckets: &Buckets,
    server: &ServerSpec,
    duration_s: f64,
    total_nmp_j: f64,
) -> LoadSummary {
    // A zero-length run did no work: it reads as idle, like an empty run of
    // positive length, rather than 0/0 (NaN power, and full activity once
    // `min` drops the NaN).
    let per = |x: f64, span: f64| if span > 0.0 { x / span } else { 0.0 };
    let cores = server.cpu.cores as f64;
    let cpu_activity = per(buckets.cpu_core_s.iter().sum::<f64>(), duration_s * cores).min(1.0);
    let peak_chan_bw = server.mem.peak_bw_gbs * 1e9;
    let mem_activity =
        (per(buckets.chan_bytes.iter().sum::<f64>(), duration_s) / peak_chan_bw).min(1.0);
    let gpu_activity = per(buckets.gpu_s.iter().sum::<f64>(), duration_s).min(1.0);
    let pcie_activity = per(buckets.pcie_s.iter().sum::<f64>(), duration_s).min(1.0);

    let pm = PowerModel::new(server);
    let mean_power = pm.power_at(Activity {
        cpu: cpu_activity,
        mem: mem_activity,
        gpu: gpu_activity,
    }) + Watts(per(total_nmp_j, duration_s));

    let width = buckets.width_s;
    let mut peak_power = Watts::ZERO;
    for b in 0..POWER_BUCKETS {
        let act = Activity {
            cpu: per(buckets.cpu_core_s[b], width * cores),
            mem: per(buckets.chan_bytes[b], width) / peak_chan_bw,
            gpu: per(buckets.gpu_s[b], width),
        };
        let p = pm.power_at(act) + Watts(per(buckets.nmp_j[b], width));
        peak_power = peak_power.max(p);
    }

    LoadSummary {
        cpu_activity,
        mem_activity,
        gpu_activity,
        pcie_activity,
        mean_power,
        peak_power,
    }
}

/// A sub-query flowing through the pools' queues.
#[derive(Debug, Clone, Copy)]
pub struct Sub {
    /// Index of the parent query in the run's arrival list.
    pub query: u32,
    /// Items in this sub-query.
    pub items: u32,
    /// Sibling count (including this one), for per-query attribution.
    pub n_subs: u32,
    /// When the sub became eligible for its current stage.
    pub ready: SimTime,
    /// Times a stalled wall-clock worker handed this sub back to its pool.
    pub retries: u8,
}

/// The sub-queries one query splits into ([`split`]): exact-size and
/// `Copy`, so dispatchers queue them without touching the heap.
#[derive(Debug, Clone, Copy)]
pub struct Subs {
    sizes: SplitIter,
    sub: Sub,
}

impl Iterator for Subs {
    type Item = Sub;

    #[inline]
    fn next(&mut self) -> Option<Sub> {
        let items = self.sizes.next()?;
        Some(Sub { items, ..self.sub })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.sizes.size_hint()
    }
}

impl ExactSizeIterator for Subs {}

/// Splits `query` of `size` items, ready at `ready`, into sub-queries under
/// the plan's split batch ([`split_iter`]).
#[inline]
pub fn split(query: u32, ready: SimTime, size: u32, split_batch: Option<u32>) -> Subs {
    let sizes = split_iter(size, split_batch);
    let sub = Sub {
        query,
        items: 0,
        n_subs: sizes.len() as u32,
        ready,
        retries: 0,
    };
    Subs { sizes, sub }
}

/// The serving decisions [`Server`] asks for. The simulator implements it
/// once and the serving runtime's virtual clock once; the loop is
/// monomorphized over each, so neither pays for the other's decisions.
pub trait Serve {
    /// What the hooks keep about a fused batch from launch to completion.
    type Launch;

    /// Admits arrival `query` of `size` items at `now`, with `depth`
    /// sub-queries queued at the ingress: its tenant and sub-queries, or
    /// `None` when it is shed.
    fn admit(&mut self, query: u32, now: SimTime, size: u32, depth: usize)
        -> Option<(usize, Subs)>;

    /// Removes the workers of CPU pool `stage` that have died at `now` from
    /// `free`, and picks the one that serves next (an index into `free`),
    /// or `None` when none may.
    fn worker(&mut self, stage: StageKind, free: &mut Vec<u32>, now: SimTime) -> Option<usize>;

    /// `worker` of CPU pool `stage` takes `tenant`'s `sub` off its queue at
    /// `now`: returns when its service ends, or `None` when the sub is
    /// dropped unserved (the worker stays free).
    fn cpu_begin(
        &mut self,
        stage: StageKind,
        tenant: usize,
        worker: u32,
        sub: &Sub,
        now: SimTime,
    ) -> Option<SimTime>;

    /// The tenant whose query `sub` belongs to.
    fn tenant(&self, sub: &Sub) -> usize;

    /// Retires `sub`, last served by `worker` of CPU pool `stage`, at `now`.
    fn retire(&mut self, stage: StageKind, worker: u32, sub: &Sub, now: SimTime);

    /// How long the head of a partial fused batch may wait for it to fill.
    fn batch_delay(&self) -> SimDuration;

    /// Launches `tenant`'s fused batch `subs` (`items` in all) on GPU
    /// context `ctx`, its PCIe load starting at `load_start`: the load's
    /// duration and the batch's state.
    fn gpu_launch(
        &mut self,
        ctx: u32,
        tenant: usize,
        subs: &[Sub],
        items: u32,
        load_start: SimTime,
    ) -> (SimDuration, Self::Launch);

    /// The batch finished loading at `now`: returns its compute time.
    fn gpu_loaded(
        &mut self,
        ctx: u32,
        tenant: usize,
        subs: &[Sub],
        launch: &mut Self::Launch,
        now: SimTime,
    ) -> SimDuration;

    /// The batch finished computing at `now`: attributes and retires its
    /// sub-queries.
    fn gpu_done(&mut self, ctx: u32, subs: &[Sub], launch: &Self::Launch, now: SimTime);

    /// Whether the run's outcome is already decided, so the loop stops:
    /// asked after every arrival and event. The simulator's knee probes
    /// settle once they certainly miss their SLA; no other run does.
    #[inline]
    fn settled(&self) -> bool {
        false
    }
}

/// A service event on the heap; arrivals are served beside it.
enum Ev {
    /// `worker` of CPU pool `stage` finished `sub`.
    Cpu {
        stage: StageKind,
        worker: u32,
        sub: Sub,
    },
    /// The batcher's flush deadline for the fusion buffer's head.
    Flush,
    Load {
        ctx: u32,
        batch: u32,
    },
    Gpu {
        ctx: u32,
        batch: u32,
    },
}

/// An entry of the event heap: pops earliest `time` first, then lowest
/// `seq` (insertion order), so simultaneous events keep the order they
/// were scheduled in.
struct HeapEntry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest time (then lowest seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event heap, ordered by time then insertion.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

impl Events {
    #[inline]
    fn push(&mut self, time: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            ev,
        });
    }
}

/// A query's arrival, waiting beside the heap.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    time: SimTime,
    query: u32,
    size: u32,
}

/// One pool: each tenant's queue (its fusion buffer, for GPU contexts, with
/// the items in it), the picker among backlogged tenants, and the free
/// workers.
struct Pool {
    queues: Vec<VecDeque<Sub>>,
    items: Vec<u64>,
    rr: WeightedRr,
    free: Vec<u32>,
}

impl Pool {
    /// The backlogged tenant served next: a lone tenant is plain FIFO and
    /// skips the picker's credit scan.
    #[inline]
    fn pick(&mut self) -> Option<usize> {
        if let [queue] = &self.queues[..] {
            return (!queue.is_empty()).then_some(0);
        }
        let queues = &self.queues;
        self.rr.pick(|t| !queues[t].is_empty())
    }

    #[inline]
    fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// A fused batch in flight: its tenant, its sub-queries, and the hooks'
/// state for it.
struct Batch<L> {
    tenant: usize,
    subs: Vec<Sub>,
    launch: L,
}

/// The event loop: serves injected arrivals and the events they cause over
/// a topology's pools, asking its hooks for every decision.
pub struct Server<'t, H: Serve> {
    /// The serving hooks.
    pub hooks: H,
    /// The pools' shape; every tenant shares it.
    topo: &'t Topology,
    /// [`Topology::ingress`] and [`Topology::after`] of every pool.
    ingress: StageKind,
    route: [Option<StageKind>; 3],
    horizon: SimTime,
    arrivals: VecDeque<Arrival>,
    events: Events,
    /// Pools in [`StageKind`] order.
    pools: [Pool; 3],
    /// Deadline of the armed flush event, if any (one per distinct head).
    flush_armed: Option<SimTime>,
    pcie_free: SimTime,
    /// Fused batches by handle; a handle in `free_batches` is finished and
    /// its slot (with its sub-query buffer) is reused by the next launch.
    batches: Vec<Batch<H::Launch>>,
    free_batches: Vec<u32>,
}

impl<'t, H: Serve> Server<'t, H> {
    /// A loop over `topo`'s pools serving one tenant per entry of `shares`
    /// (their scheduling weights) up to `horizon`.
    ///
    /// # Panics
    ///
    /// Panics with no tenant.
    pub fn new(topo: &'t Topology, shares: &[f64], horizon: SimTime, hooks: H) -> Self {
        assert!(!shares.is_empty(), "a server serves at least one tenant");
        let workers = topo.workers();
        let pools = workers.map(|n| Pool {
            queues: vec![VecDeque::new(); shares.len()],
            items: vec![0; shares.len()],
            rr: WeightedRr::new(shares),
            free: (0..n).collect(),
        });
        Server {
            hooks,
            topo,
            ingress: topo.ingress(),
            route: StageKind::ALL.map(|s| topo.after(s)),
            horizon,
            arrivals: VecDeque::new(),
            events: Events::default(),
            pools,
            flush_armed: None,
            pcie_free: SimTime::ZERO,
            batches: Vec::new(),
            free_batches: Vec::new(),
        }
    }

    /// Queues arrival `query` of `size` items at `time`. Arrivals must come
    /// in non-decreasing time order, within the horizon and before the
    /// loop has run past them.
    pub fn inject(&mut self, query: u32, time: SimTime, size: u32) {
        self.arrivals.push_back(Arrival { time, query, size });
    }

    /// Whether any arrival or event is still unserved (those past the
    /// horizon included).
    pub fn pending(&self) -> bool {
        !self.arrivals.is_empty() || !self.events.heap.is_empty()
    }

    /// Sub-queries queued at `stage`, over every tenant.
    pub fn queued(&self, stage: StageKind) -> usize {
        self.pools[stage.index()].depth()
    }

    /// Serves arrivals and events in time order — an arrival before an
    /// event at the same instant — while they lie strictly before `before`
    /// and no later than the horizon, until the hooks have
    /// [`settled`](Serve::settled).
    pub fn run(&mut self, before: SimTime) {
        loop {
            let due = self.events.heap.peek().map(|e| e.time);
            let arrival = self
                .arrivals
                .front()
                .filter(|a| due.map_or(true, |t| a.time <= t))
                .copied();
            let Some(now) = arrival.map(|a| a.time).or(due) else {
                break;
            };
            if now >= before || now > self.horizon {
                break;
            }
            if let Some(a) = arrival {
                self.arrivals.pop_front();
                self.arrive(a);
            } else {
                let entry = self.events.heap.pop().expect("peeked event");
                self.handle(entry.ev, now);
            }
            if self.hooks.settled() {
                break;
            }
        }
    }

    fn arrive(&mut self, a: Arrival) {
        let ingress = self.ingress;
        let depth = self.pools[ingress.index()].depth();
        if let Some((tenant, subs)) = self.hooks.admit(a.query, a.time, a.size, depth) {
            for sub in subs {
                self.enqueue(ingress, tenant, sub);
            }
            self.schedule(ingress, a.time);
        }
    }

    fn enqueue(&mut self, stage: StageKind, tenant: usize, sub: Sub) {
        let pool = &mut self.pools[stage.index()];
        if stage == StageKind::Gpu {
            pool.items[tenant] += u64::from(sub.items);
        }
        pool.queues[tenant].push_back(sub);
    }

    fn schedule(&mut self, stage: StageKind, now: SimTime) {
        match stage {
            StageKind::Gpu => self.launch_gpu(now),
            cpu => self.schedule_cpu(cpu, now),
        }
    }

    /// Starts queued sub-queries on free workers of CPU pool `stage`.
    fn schedule_cpu(&mut self, stage: StageKind, now: SimTime) {
        let pool = &mut self.pools[stage.index()];
        while let Some(w) = self.hooks.worker(stage, &mut pool.free, now) {
            let Some(tenant) = pool.pick() else {
                break;
            };
            let sub = pool.queues[tenant].pop_front().expect("backlogged");
            let worker = pool.free[w];
            let Some(end) = self.hooks.cpu_begin(stage, tenant, worker, &sub, now) else {
                continue;
            };
            pool.free.swap_remove(w);
            self.events.push(end, Ev::Cpu { stage, worker, sub });
        }
    }

    /// Launches fused batches while a context is free and the batcher's
    /// fill-or-flush condition holds: the buffer can fill a batch, the head
    /// sub has waited out the batch delay, or fusion is disabled. When it
    /// instead decides to wait, it arms one flush deadline for the head.
    fn launch_gpu(&mut self, now: SimTime) {
        let BackStage::Gpu { fusion_limit, .. } = self.topo.back else {
            return;
        };
        let delay = self.hooks.batch_delay();
        let pool = &mut self.pools[StageKind::Gpu.index()];
        while !pool.free.is_empty() {
            let Some(t) = pool.pick() else {
                break;
            };
            let queue = &mut pool.queues[t];
            if let Some(limit) = fusion_limit {
                let head_ready = queue.front().expect("backlogged").ready;
                let filled = pool.items[t] >= u64::from(limit);
                if !filled && now.saturating_since(head_ready) < delay {
                    let deadline = head_ready + delay;
                    if self.flush_armed != Some(deadline) {
                        self.flush_armed = Some(deadline);
                        self.events.push(deadline, Ev::Flush);
                    }
                    break;
                }
            }
            let ctx = pool.free.pop().expect("non-empty");
            let slot = self.free_batches.pop();
            let mut subs = slot.map_or_else(Vec::new, |b| {
                std::mem::take(&mut self.batches[b as usize].subs)
            });
            subs.clear();
            let mut items = 0u32;
            // Fusion off: one sub-query per launch.
            let limit = fusion_limit.unwrap_or(0);
            while let Some(next) = queue.front() {
                if !subs.is_empty() && items + next.items > limit {
                    break;
                }
                items += next.items;
                subs.push(queue.pop_front().expect("non-empty"));
            }
            pool.items[t] -= u64::from(items);
            // The PCIe link is shared by every context: transfers serialize.
            let load_start = now.max(self.pcie_free);
            let (load, launch) = self.hooks.gpu_launch(ctx, t, &subs, items, load_start);
            self.pcie_free = load_start + load;
            let b = Batch {
                tenant: t,
                subs,
                launch,
            };
            let batch = match slot {
                Some(batch) => {
                    self.batches[batch as usize] = b;
                    batch
                }
                None => {
                    self.batches.push(b);
                    self.batches.len() as u32 - 1
                }
            };
            self.events.push(self.pcie_free, Ev::Load { ctx, batch });
        }
    }

    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Cpu { stage, worker, sub } => {
                self.pools[stage.index()].free.push(worker);
                match self.route[stage.index()] {
                    None => self.hooks.retire(stage, worker, &sub, now),
                    Some(next) => {
                        let tenant = self.hooks.tenant(&sub);
                        self.enqueue(next, tenant, Sub { ready: now, ..sub });
                        self.schedule(next, now);
                    }
                }
                self.schedule_cpu(stage, now);
            }
            Ev::Flush => {
                if self.flush_armed.is_some_and(|t| t <= now) {
                    self.flush_armed = None;
                }
                self.launch_gpu(now);
            }
            Ev::Load { ctx, batch } => {
                let b = &mut self.batches[batch as usize];
                let compute = self
                    .hooks
                    .gpu_loaded(ctx, b.tenant, &b.subs, &mut b.launch, now);
                self.events.push(now + compute, Ev::Gpu { ctx, batch });
            }
            Ev::Gpu { ctx, batch } => {
                self.pools[StageKind::Gpu.index()].free.push(ctx);
                let b = &self.batches[batch as usize];
                self.hooks.gpu_done(ctx, &b.subs, &b.launch, now);
                self.free_batches.push(batch);
                self.launch_gpu(now);
            }
        }
    }
}

/// One tenant of a run: the topology its model was built into, its
/// offered load, and its scheduling share.
pub(crate) struct TenantRun<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) offered: Qps,
    pub(crate) share: f64,
}

#[derive(Debug, Clone, Default)]
struct QueryRec {
    arrival: SimTime,
    tenant: u32,
    remaining: u32,
    queuing: SimDuration,
    loading: SimDuration,
    inference: SimDuration,
}

/// Per-tenant measurement state.
#[derive(Debug, Default)]
struct TenantStats {
    latency: PercentileTracker,
    completed: u64,
    completed_total: u64,
    measured_arrivals: u64,
    total_arrivals: u64,
    sum_queuing: f64,
    sum_loading: f64,
    sum_inference: f64,
}

/// `d` stretched by an interference factor; untouched without one (a
/// lone tenant) and never round-tripped through floats at factor 1.
fn stretch(d: SimDuration, factor: Option<f64>) -> SimDuration {
    match factor {
        Some(f) if f > 1.0 => d.mul_f64(f),
        _ => d,
    }
}

/// A knee probe's early SLA verdict: measured completions over the target,
/// and how many of them the run's tail tolerates.
#[derive(Debug)]
struct Verdict {
    target: SimDuration,
    allowed: u64,
    over: u64,
}

/// A fused batch's timing: its PCIe slot and, once loaded, its compute.
struct Fused {
    items: u32,
    load_start: SimTime,
    load_dur: SimDuration,
    /// Fixed when the load completes: a load-dependent interference factor
    /// evolves while the batch computes, so completion attributes the
    /// duration that was actually scheduled.
    compute: SimDuration,
}

/// The simulator's hooks: roofline costs, the co-location derate, exact
/// latency populations and the power buckets. Nothing is shed, dropped or
/// delayed, and every worker stays healthy.
struct Des<'a> {
    topos: Vec<&'a Topology>,
    gpu: Option<&'a GpuSpec>,
    window: RunWindow,
    queries: Vec<QueryRec>,
    /// Co-runner interference; `None` with one tenant.
    interference: Option<Interference>,
    stats: Vec<TenantStats>,
    /// The merged latency population across tenants; `None` with one
    /// tenant, whose own population is the aggregate.
    agg_latency: Option<PercentileTracker>,
    buckets: Buckets,
    front_idle_weighted: f64,
    front_busy_weight: f64,
    total_nmp_j: f64,
    /// Set on a knee probe (one tenant only).
    verdict: Option<Verdict>,
}

impl Des<'_> {
    /// The interference factor for `tenant`'s batch dispatched at `now`.
    fn derate(&self, tenant: usize, now: SimTime) -> Option<f64> {
        self.interference.as_ref().map(|i| i.factor(tenant, now))
    }

    fn complete_sub(&mut self, sub: &Sub, now: SimTime) {
        let rec = &mut self.queries[sub.query as usize];
        rec.remaining -= 1;
        if rec.remaining == 0 {
            let stats = &mut self.stats[rec.tenant as usize];
            stats.completed_total += 1;
            if self.window.measures(rec.arrival) {
                stats.completed += 1;
                let lat_s = now.saturating_since(rec.arrival).as_secs_f64();
                stats.latency.record(lat_s);
                if let Some(v) = &mut self.verdict {
                    // Converted as the report converts its tail.
                    v.over += u64::from(SimDuration::from_secs_f64(lat_s) > v.target);
                }
                if let Some(agg) = &mut self.agg_latency {
                    agg.record(lat_s);
                }
                stats.sum_queuing += rec.queuing.as_secs_f64();
                stats.sum_loading += rec.loading.as_secs_f64();
                stats.sum_inference += rec.inference.as_secs_f64();
            }
        }
    }
}

impl Serve for Des<'_> {
    type Launch = Fused;

    fn admit(&mut self, query: u32, now: SimTime, size: u32, _: usize) -> Option<(usize, Subs)> {
        let rec = &mut self.queries[query as usize];
        let tenant = rec.tenant as usize;
        let subs = split(query, now, size, self.topos[tenant].split_batch);
        rec.remaining = subs.len() as u32;
        Some((tenant, subs))
    }

    fn worker(&mut self, _: StageKind, free: &mut Vec<u32>, _: SimTime) -> Option<usize> {
        free.len().checked_sub(1)
    }

    /// Charges the sub-query's queue wait and service time to its query,
    /// split evenly over the query's sub-queries, and its resources to the
    /// buckets.
    fn cpu_begin(
        &mut self,
        stage: StageKind,
        tenant: usize,
        _: u32,
        sub: &Sub,
        now: SimTime,
    ) -> Option<SimTime> {
        let cost = self.topos[tenant].cpu_service(stage).cost(sub.items);
        let factor = self.derate(tenant, now);
        let latency = stretch(cost.latency, factor);
        let busy_s = cost.busy_core_time.as_secs_f64();
        let busy_s = factor.map_or(busy_s, |f| busy_s * f);
        let rec = &mut self.queries[sub.query as usize];
        let nsubs = u64::from(sub.n_subs.max(1));
        rec.queuing += now.saturating_since(sub.ready) / nsubs;
        rec.inference += latency / nsubs;
        let b = self.buckets.index(now);
        self.buckets.cpu_core_s[b] += busy_s;
        self.buckets.chan_bytes[b] += cost.channel_bytes;
        if stage == StageKind::Front {
            self.buckets.nmp_j[b] += cost.nmp_energy.value();
            self.total_nmp_j += cost.nmp_energy.value();
            self.front_idle_weighted += cost.idle_fraction * busy_s;
            self.front_busy_weight += busy_s;
        }
        if let Some(i) = &mut self.interference {
            i.charge(tenant, cost.channel_bytes);
        }
        Some(now + latency)
    }

    fn tenant(&self, sub: &Sub) -> usize {
        self.queries[sub.query as usize].tenant as usize
    }

    fn retire(&mut self, _: StageKind, _: u32, sub: &Sub, now: SimTime) {
        self.complete_sub(sub, now);
    }

    fn batch_delay(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn gpu_launch(
        &mut self,
        _: u32,
        tenant: usize,
        _: &[Sub],
        items: u32,
        load_start: SimTime,
    ) -> (SimDuration, Fused) {
        let BackStage::Gpu { bytes_per_item, .. } = self.topos[tenant].back else {
            unreachable!("fused batches launch only on a GPU stage");
        };
        let gpu = self.gpu.expect("gpu topology on gpu server");
        let load_dur = pcie_transfer_time(bytes_per_item * items as f64, gpu, 1);
        let b = self.buckets.index(load_start);
        self.buckets.pcie_s[b] += load_dur.as_secs_f64();
        let fused = Fused {
            items,
            load_start,
            load_dur,
            compute: SimDuration::ZERO,
        };
        (load_dur, fused)
    }

    fn gpu_loaded(
        &mut self,
        _: u32,
        tenant: usize,
        _: &[Sub],
        fused: &mut Fused,
        now: SimTime,
    ) -> SimDuration {
        let BackStage::Gpu { svc, colocated, .. } = &self.topos[tenant].back else {
            unreachable!("loads only run with a GPU stage");
        };
        let cost = svc.cost(fused.items);
        let compute = stretch(cost.latency, self.derate(tenant, now));
        let b = self.buckets.index(now);
        self.buckets.gpu_s[b] += compute.as_secs_f64() * cost.gpu_util / *colocated as f64;
        fused.compute = compute;
        compute
    }

    fn gpu_done(&mut self, _: u32, subs: &[Sub], fused: &Fused, now: SimTime) {
        for sub in subs {
            let rec = &mut self.queries[sub.query as usize];
            let nsubs = u64::from(sub.n_subs.max(1));
            rec.queuing += fused.load_start.saturating_since(sub.ready) / nsubs;
            rec.loading += fused.load_dur / nsubs;
            rec.inference += fused.compute / nsubs;
            self.complete_sub(sub, now);
        }
    }

    /// Settled once more measured completions exceed the target than the
    /// tail tolerates of the measured arrivals: that count only grows, and
    /// fewer completions tolerate no more, so the run misses the SLA
    /// however it would end.
    #[inline]
    fn settled(&self) -> bool {
        self.verdict.as_ref().is_some_and(|v| v.over > v.allowed)
    }
}

/// Server-wide quantities every report of one run shares.
struct Shared {
    load: LoadSummary,
    window_s: f64,
    front_idle_fraction: f64,
    energy_per_query: Joules,
}

fn report(st: &mut TenantStats, offered: Qps, in_flight: u64, shared: &Shared) -> SimReport {
    let completed = st.completed;
    let to_dur = |s: Option<f64>| SimDuration::from_secs_f64(s.unwrap_or(0.0));
    // The mean first: the quantiles sort the samples, which would change
    // the mean's summation order.
    let mean_latency = SimDuration::from_secs_f64(st.latency.mean());
    let mut tail = |t: Tail| to_dur(st.latency.quantile(t.quantile()));
    let (p50, p95, p99) = (tail(Tail::P50), tail(Tail::P95), tail(Tail::P99));
    let per = |sum: f64| {
        if completed == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(sum / completed as f64)
        }
    };
    let load = &shared.load;
    SimReport {
        offered,
        achieved: Qps(completed as f64 / shared.window_s),
        measured_arrivals: st.measured_arrivals,
        completed,
        total_arrivals: st.total_arrivals,
        completed_total: st.completed_total,
        in_flight_at_horizon: in_flight,
        mean_latency,
        p50,
        p95,
        p99,
        mean_power: load.mean_power,
        peak_power: load.peak_power,
        energy_per_query: shared.energy_per_query,
        cpu_activity: load.cpu_activity,
        mem_activity: load.mem_activity,
        gpu_activity: load.gpu_activity,
        pcie_activity: load.pcie_activity,
        front_idle_fraction: shared.front_idle_fraction,
        breakdown: LatencyBreakdown {
            queuing: per(st.sum_queuing),
            loading: per(st.sum_loading),
            inference: per(st.sum_inference),
        },
    }
}

impl Des<'_> {
    /// Folds the run into one report per tenant plus the whole-server
    /// view.
    fn report(
        mut self,
        server: &ServerSpec,
        tenants: &[TenantRun<'_>],
        cfg: &SimConfig,
    ) -> ColocationReport {
        let window_s = self.window.seconds();
        let load = summarize_load(
            &self.buckets,
            server,
            cfg.duration.as_secs_f64(),
            self.total_nmp_j,
        );
        // Whole-server energy is attributed to queries evenly: every tenant's
        // energy_per_query is server energy over *aggregate* completions, so
        // summing `energy_per_query * completed` across tenants recovers the
        // server's energy exactly.
        let agg_completed: u64 = self.stats.iter().map(|s| s.completed).sum();
        let energy_per_query = if agg_completed == 0 {
            Joules::ZERO
        } else {
            Joules(load.mean_power.value() * window_s / agg_completed as f64)
        };
        let shared = Shared {
            front_idle_fraction: if self.front_busy_weight > 0.0 {
                self.front_idle_weighted / self.front_busy_weight
            } else {
                0.0
            },
            load,
            window_s,
            energy_per_query,
        };

        // Every arrival was split (arrivals precede the horizon), so a query
        // with outstanding sub-queries is exactly one still in flight.
        let mut in_flight = vec![0u64; tenants.len()];
        for q in self.queries.iter().filter(|q| q.remaining > 0) {
            in_flight[q.tenant as usize] += 1;
        }
        let per_tenant: Vec<SimReport> = tenants
            .iter()
            .zip(&mut self.stats)
            .zip(&in_flight)
            .map(|((t, st), &inf)| report(st, t.offered, inf, &shared))
            .collect();

        let aggregate = match self.agg_latency.take() {
            None => per_tenant[0].clone(),
            Some(latency) => {
                // Counters fold over the tenants; the latency population was
                // recorded separately (quantiles cannot be merged).
                let mut agg = TenantStats {
                    latency,
                    ..TenantStats::default()
                };
                for st in &self.stats {
                    agg.completed += st.completed;
                    agg.completed_total += st.completed_total;
                    agg.measured_arrivals += st.measured_arrivals;
                    agg.total_arrivals += st.total_arrivals;
                    agg.sum_queuing += st.sum_queuing;
                    agg.sum_loading += st.sum_loading;
                    agg.sum_inference += st.sum_inference;
                }
                let offered = Qps(tenants.iter().map(|t| t.offered.value()).sum());
                report(&mut agg, offered, in_flight.iter().sum(), &shared)
            }
        };
        ColocationReport {
            per_tenant,
            aggregate,
        }
    }
}

/// Runs `tenants` over `server`'s shared pools, sized by the first
/// tenant's topology (all tenants must share its shape). Returns one
/// report per tenant plus the whole-server view; with one tenant the two
/// are the same report.
pub(crate) fn run(
    server: &ServerSpec,
    tenants: &[TenantRun<'_>],
    cfg: &SimConfig,
) -> ColocationReport {
    // Per-tenant arrival streams (tenant 0's is the dedicated stream).
    let horizon = cfg.window().horizon;
    let streams = tenants.iter().enumerate().map(|(i, tenant)| {
        QueryStream::tenant(tenant.offered, cfg.seed, i as u32).take_until(horizon)
    });
    serve(server, tenants, cfg, streams, None).expect("only a verdict stops a run early")
}

/// Serves `streams` (tenant `i`'s arrivals before the horizon, in time
/// order) as [`run`] does. With `sla` (one tenant only), the run stops as
/// soon as it certainly misses `sla`, and returns `None` then.
fn serve<S: IntoIterator<Item = Query>>(
    server: &ServerSpec,
    tenants: &[TenantRun<'_>],
    cfg: &SimConfig,
    streams: impl IntoIterator<Item = S>,
    sla: Option<&SlaSpec>,
) -> Option<ColocationReport> {
    let n = tenants.len();
    debug_assert!(sla.is_none() || n == 1, "a verdict judges one tenant");
    // Queries arriving past the window's end are served but not measured;
    // they could not complete before the horizon even when meeting the SLA.
    let window = cfg.window();
    let mut des = Des {
        topos: tenants.iter().map(|t| t.topo).collect(),
        gpu: server.gpu.as_ref(),
        window,
        queries: Vec::new(),
        interference: Interference::among(n, server),
        stats: Vec::with_capacity(n),
        agg_latency: (n > 1).then(PercentileTracker::new),
        buckets: Buckets::new(cfg.duration),
        front_idle_weighted: 0.0,
        front_busy_weight: 0.0,
        total_nmp_j: 0.0,
        verdict: None,
    };
    // Arrivals are indexed run-wide in tenant order.
    let mut arrivals = Vec::new();
    for (i, stream) in streams.into_iter().enumerate() {
        let mut st = TenantStats::default();
        for q in stream {
            st.measured_arrivals += u64::from(window.measures(q.arrival));
            st.total_arrivals += 1;
            arrivals.push(Arrival {
                time: q.arrival,
                query: des.queries.len() as u32,
                size: q.size,
            });
            des.queries.push(QueryRec {
                arrival: q.arrival,
                tenant: i as u32,
                ..QueryRec::default()
            });
        }
        des.stats.push(st);
    }
    des.verdict = sla.map(|sla| Verdict {
        target: sla.target,
        allowed: sla.misses_allowed(des.stats[0].measured_arrivals),
        over: 0,
    });
    // Simultaneous arrivals go in tenant order, then stream order (the
    // sort is stable); one tenant's stream is already in time order.
    arrivals.sort_by_key(|a| a.time);

    let shares: Vec<f64> = tenants.iter().map(|t| t.share).collect();
    let mut sim = Server::new(tenants[0].topo, &shares, window.horizon, des);
    sim.arrivals = arrivals.into();
    sim.run(SimTime::MAX);
    if sim.hooks.settled() {
        return None;
    }
    Some(sim.hooks.report(server, tenants, cfg))
}

/// One knee probe: [`simulate_with_topology`]'s run at `offered`, with its
/// arrivals replayed from `draws` (the draws of `cfg.seed`), judged against
/// `sla`. Returns the run's report when it meets `sla` and `None` when it
/// misses.
///
/// The run stops once more of its measured completions exceed the target
/// than [`SlaSpec::misses_allowed`] tolerates of its measured arrivals:
/// past that bound it misses however it would end. A report it returns is
/// therefore the whole run's, bit for bit.
///
/// # Errors
///
/// Returns [`PlanError::BadRate`] unless `offered` is positive and finite.
///
/// # Panics
///
/// Panics if `draws` come from another seed than `cfg.seed`.
pub fn probe(
    topo: &Topology,
    server: &ServerSpec,
    offered: Qps,
    cfg: &SimConfig,
    sla: &SlaSpec,
    draws: &mut UnitDraws,
) -> Result<Option<SimReport>, PlanError> {
    check_rate(offered)?;
    assert_eq!(
        draws.seed(),
        cfg.seed,
        "a probe replays its own seed's draws"
    );
    let tenant = TenantRun {
        topo,
        offered,
        share: 1.0,
    };
    let stream = draws.replay(offered, cfg.window().horizon);
    let report = serve(server, &[tenant], cfg, [stream], Some(sla));
    Ok(report.map(|r| r.aggregate).filter(|r| r.meets(sla)))
}

/// Simulates `model` served on `server` under `plan` at `offered` load.
///
/// One-shot convenience: builds the topology against a private NMP LUT
/// cache. Callers running many simulations against the same memory
/// subsystem should use [`simulate_cached`] (or pre-build a topology and
/// call [`simulate_with_topology`]) so the cycle-level LUT sweep is paid
/// once.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model
/// or `offered` is not a positive, finite rate.
pub fn simulate(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    offered: Qps,
    cfg: &SimConfig,
) -> Result<SimReport, PlanError> {
    simulate_cached(model, server, plan, offered, cfg, &NmpLutCache::new())
}

/// [`simulate`] with an explicit, caller-owned NMP LUT cache.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model
/// or `offered` is not a positive, finite rate.
pub fn simulate_cached(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    offered: Qps,
    cfg: &SimConfig,
    luts: &NmpLutCache,
) -> Result<SimReport, PlanError> {
    let topo = build_topology(model, server, plan, luts)?;
    simulate_with_topology(&topo, server, offered, cfg)
}

/// Simulates a pre-built topology (lets searchers reuse cost caches across
/// load levels): the event loop with one tenant.
///
/// # Errors
///
/// Returns [`PlanError::BadRate`] unless `offered` is positive and finite.
pub fn simulate_with_topology(
    topo: &Topology,
    server: &ServerSpec,
    offered: Qps,
    cfg: &SimConfig,
) -> Result<SimReport, PlanError> {
    check_rate(offered)?;
    let tenant = TenantRun {
        topo,
        offered,
        share: 1.0,
    };
    Ok(run(server, &[tenant], cfg).aggregate)
}
#[cfg(test)]
mod tests {
    use super::*;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    fn quick() -> SimConfig {
        SimConfig {
            duration: SimDuration::from_secs(2),
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed: 7,
        }
    }

    fn rmc1() -> RecModel {
        RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
    }

    #[test]
    fn low_load_completes_everything() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let r = simulate(&rmc1(), &server, &plan, Qps(100.0), &quick()).unwrap();
        assert_eq!(r.completed, r.measured_arrivals);
        assert!(r.p99 > SimDuration::ZERO);
        assert!(r.p99 < SimDuration::from_millis(100), "p99 {}", r.p99);
        assert!(r.mean_power.value() > 0.0);
        assert!(r.peak_power >= r.mean_power);
    }

    #[test]
    fn overload_saturates() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let lo = simulate(&rmc1(), &server, &plan, Qps(200.0), &quick()).unwrap();
        let hi = simulate(&rmc1(), &server, &plan, Qps(50_000.0), &quick()).unwrap();
        // At 50K QPS the server cannot keep up: post-warm-up arrivals sit
        // behind an ever-growing queue, so the completion rate collapses
        // far below the offered rate (what the SLA search keys on).
        assert_eq!(lo.completed, lo.measured_arrivals);
        assert!((hi.achieved.value()) < 0.5 * hi.offered.value());
        assert!(hi.completed < hi.measured_arrivals);
    }

    #[test]
    fn latency_grows_with_load() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 16,
            workers: 1,
            batch: 256,
        };
        let m = rmc1();
        let lo = simulate(&m, &server, &plan, Qps(50.0), &quick()).unwrap();
        let hi = simulate(&m, &server, &plan, Qps(1_800.0), &quick()).unwrap();
        assert!(
            hi.mean_latency > lo.mean_latency,
            "queueing delay: {} vs {}",
            hi.mean_latency,
            lo.mean_latency
        );
        assert!(hi.cpu_activity > lo.cpu_activity);
    }

    #[test]
    fn deterministic_given_seed() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 8,
            workers: 2,
            batch: 128,
        };
        let m = rmc1();
        let a = simulate(&m, &server, &plan, Qps(400.0), &quick()).unwrap();
        let b = simulate(&m, &server, &plan, Qps(400.0), &quick()).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.mean_power, b.mean_power);
    }

    #[test]
    fn sd_pipeline_runs() {
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuSdPipeline {
            sparse_threads: 6,
            sparse_workers: 2,
            dense_threads: 8,
            batch: 256,
        };
        let r = simulate(&rmc1(), &server, &plan, Qps(300.0), &quick()).unwrap();
        assert_eq!(r.completed, r.measured_arrivals);
        assert!(r.breakdown.loading == SimDuration::ZERO);
    }

    #[test]
    fn gpu_small_model_with_fusion() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let plan = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(2000),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let r = simulate(&m, &server, &plan, Qps(2_000.0), &quick()).unwrap();
        assert!(r.completed > 0);
        assert!(r.gpu_activity > 0.0);
        assert!(r.pcie_activity > 0.0);
        assert!(r.breakdown.loading > SimDuration::ZERO);
    }

    #[test]
    fn gpu_fusion_beats_no_fusion_at_high_load() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let fused = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: Some(4000),
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let unfused = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: None,
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let rate = Qps(6_000.0);
        let a = simulate(&m, &server, &fused, rate, &quick()).unwrap();
        let b = simulate(&m, &server, &unfused, rate, &quick()).unwrap();
        assert!(
            a.completed as f64 > 1.2 * b.completed as f64,
            "fusion {} vs none {}",
            a.completed,
            b.completed
        );
    }

    #[test]
    fn gpu_batches_reuse_one_slot_per_context() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let plan = PlacementPlan::GpuModel {
            colocated: 3,
            fusion_limit: None,
            host_sparse_threads: 0,
            host_batch: 256,
        };
        let topo = build_topology(&m, &server, &plan, &NmpLutCache::new()).unwrap();
        let cfg = quick();
        let window = cfg.window();
        let queries = QueryStream::paper(Qps(2_000.0), cfg.seed).take_until(window.horizon);
        let des = Des {
            topos: vec![&topo],
            gpu: server.gpu.as_ref(),
            window,
            queries: queries
                .iter()
                .map(|q| QueryRec {
                    arrival: q.arrival,
                    ..QueryRec::default()
                })
                .collect(),
            interference: None,
            stats: vec![TenantStats::default()],
            agg_latency: None,
            buckets: Buckets::new(cfg.duration),
            front_idle_weighted: 0.0,
            front_busy_weight: 0.0,
            total_nmp_j: 0.0,
            verdict: None,
        };
        let mut sim = Server::new(&topo, &[1.0], window.horizon, des);
        for (i, q) in queries.iter().enumerate() {
            sim.inject(i as u32, q.arrival, q.size);
        }
        sim.run(SimTime::MAX);
        // Fusion off launches one batch per sub-query.
        let launched = sim.hooks.stats[0].completed_total;
        assert!(launched > 1_000, "{launched} batches");
        assert!(sim.batches.len() <= topo.workers()[StageKind::Gpu.index()] as usize);
    }

    #[test]
    fn production_model_on_gpu_uses_host_stage() {
        let server = ServerType::T7.spec();
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production);
        let plan = PlacementPlan::GpuModel {
            colocated: 2,
            fusion_limit: Some(2000),
            host_sparse_threads: 8,
            host_batch: 256,
        };
        let r = simulate(&m, &server, &plan, Qps(500.0), &quick()).unwrap();
        assert!(r.completed > 0);
        assert!(r.cpu_activity > 0.0, "host cold-sparse stage active");
        assert!(r.gpu_activity > 0.0);
    }

    #[test]
    fn hybrid_sd_pipeline_runs() {
        let server = ServerType::T7.spec();
        let m = rmc1();
        let plan = PlacementPlan::HybridSdPipeline {
            sparse_threads: 10,
            sparse_workers: 2,
            gpu_colocated: 2,
            fusion_limit: Some(2000),
            batch: 256,
        };
        let r = simulate(&m, &server, &plan, Qps(500.0), &quick()).unwrap();
        assert!(r.completed > 0);
        assert!(r.gpu_activity > 0.0 && r.cpu_activity > 0.0);
    }
}
