//! The discrete-event server simulator.
//!
//! Faithful to the paper's system stack (Fig. 3): a query dispatcher splits
//! arriving queries into sub-queries (data-parallelism on CPUs) or fuses
//! them into large batches (query fusion on accelerators); inference-thread
//! pools serve batches with service times from the roofline cost model; the
//! S-D pipeline forwards pooled sparse outputs through a queue; PCIe loading
//! is a serialized shared link. Tail latency, throughput, utilization, and
//! power are measured over a post-warm-up window.
//!
//! One event loop serves every run. It takes N ≥ 1 tenants over the
//! shared pools: each tenant has its own dispatch queues, the pools pick
//! among backlogged tenants by share-weighted deficit round-robin, and
//! co-located tenants' service times are derated for interference
//! (`crate::colocation`). A dedicated server ([`simulate_with_topology`])
//! is the one-tenant case, which takes neither the picker's scan nor the
//! derate's arithmetic and keeps no second latency population.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use hercules_common::stats::PercentileTracker;
use hercules_common::units::{Joules, Qps, SimDuration, SimTime, Watts};
use hercules_hw::cost::pcie_transfer_time;
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::power::{Activity, PowerModel};
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_workload::generator::QueryStream;

use crate::colocation::{Interference, WeightedRr};
use crate::config::{PlacementPlan, PlanError, RunWindow, SimConfig};
use crate::metrics::{ColocationReport, LatencyBreakdown, SimReport};
use crate::service::{build_topology, BackStage, Topology};

/// Number of coarse accounting buckets used for peak-power estimation.
pub const POWER_BUCKETS: usize = 32;

/// An entry of a discrete-event queue: pops earliest `time` first, then
/// lowest `seq` (insertion order), so simultaneous events keep the order
/// they were scheduled in. Shared with the runtime's virtual clock.
pub struct HeapEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence number, the tie-breaker.
    pub seq: u64,
    /// The event.
    pub ev: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest time (then lowest seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

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
    let cores = server.cpu.cores as f64;
    let cpu_activity = (buckets.cpu_core_s.iter().sum::<f64>() / (duration_s * cores)).min(1.0);
    let peak_chan_bw = server.mem.peak_bw_gbs * 1e9;
    let mem_activity =
        (buckets.chan_bytes.iter().sum::<f64>() / duration_s / peak_chan_bw).min(1.0);
    let gpu_activity = (buckets.gpu_s.iter().sum::<f64>() / duration_s).min(1.0);
    let pcie_activity = (buckets.pcie_s.iter().sum::<f64>() / duration_s).min(1.0);

    let pm = PowerModel::new(server);
    let mean_power = pm.power_at(Activity {
        cpu: cpu_activity,
        mem: mem_activity,
        gpu: gpu_activity,
    }) + Watts(total_nmp_j / duration_s);

    let width = buckets.width_s;
    let mut peak_power = Watts::ZERO;
    for b in 0..POWER_BUCKETS {
        let act = Activity {
            cpu: buckets.cpu_core_s[b] / (width * cores),
            mem: buckets.chan_bytes[b] / width / peak_chan_bw,
            gpu: buckets.gpu_s[b] / width,
        };
        let p = pm.power_at(act) + Watts(buckets.nmp_j[b] / width);
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

/// One tenant of a run: the topology its model was built into, its
/// offered load, and its scheduling share.
pub(crate) struct TenantRun<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) offered: Qps,
    pub(crate) share: f64,
}

/// A query's arrival, in the order the event loop serves arrivals.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    time: SimTime,
    tenant: u32,
    query: u32,
    size: u32,
}

/// A sub-query of `tenant`'s `query` (a run-wide index), queued since
/// `ready`.
#[derive(Debug, Clone, Copy)]
struct Sub {
    tenant: u32,
    query: u32,
    items: u32,
    ready: SimTime,
}

/// A fused accelerator batch.
#[derive(Debug)]
struct FusedBatch {
    tenant: u32,
    subs: Vec<Sub>,
    items: u32,
    load_start: SimTime,
    load_dur: SimDuration,
    /// GPU compute time, fixed when the load completes: a load-dependent
    /// interference factor evolves while the batch computes, so completion
    /// attributes the duration that was actually scheduled.
    compute: SimDuration,
}

/// A completion on the event heap; arrivals are served in time order
/// beside it ([`Engine::run`]).
#[derive(Debug)]
enum Done {
    Front { thread: u32, sub: Sub },
    Back { thread: u32, sub: Sub },
    Load { ctx: u32, batch: usize },
    Gpu { ctx: u32, batch: usize },
}

#[derive(Debug, Clone, Default)]
struct QueryRec {
    arrival: SimTime,
    remaining: u32,
    n_subs: u32,
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

struct Engine<'a> {
    topos: Vec<&'a Topology>,
    server: &'a ServerSpec,
    window: RunWindow,
    heap: BinaryHeap<HeapEntry<Done>>,
    seq: u64,
    queries: Vec<QueryRec>,
    /// Co-runner interference; `None` with one tenant.
    interference: Option<Interference>,
    // Shared host front pool over per-tenant dispatch queues.
    front_queues: Vec<VecDeque<Sub>>,
    front_free: Vec<u32>,
    front_rr: WeightedRr,
    // Shared host back pool (S-D dense stage).
    back_queues: Vec<VecDeque<Sub>>,
    back_free: Vec<u32>,
    back_rr: WeightedRr,
    // Shared GPU stage: per-tenant fusion buffers (fusion never crosses
    // tenants — the batches run different models), shared contexts + link.
    fusion_bufs: Vec<VecDeque<Sub>>,
    gpu_free: Vec<u32>,
    gpu_rr: WeightedRr,
    pcie_free: SimTime,
    batches: Vec<FusedBatch>,
    // Metrics.
    stats: Vec<TenantStats>,
    /// The merged latency population across tenants; `None` with one
    /// tenant, whose own population is the aggregate.
    agg_latency: Option<PercentileTracker>,
    buckets: Buckets,
    front_idle_weighted: f64,
    front_busy_weight: f64,
    total_nmp_j: f64,
}

impl<'a> Engine<'a> {
    fn push(&mut self, time: SimTime, ev: Done) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            ev,
        });
    }

    /// The interference factor for `tenant`'s batch dispatched at `now`.
    fn derate(&self, tenant: usize, now: SimTime) -> Option<f64> {
        self.interference.as_ref().map(|i| i.factor(tenant, now))
    }

    fn arrive(&mut self, a: Arrival, now: SimTime) {
        let t = a.tenant as usize;
        let topo = self.topos[t];
        let sizes = split_iter(a.size, topo.split_batch);
        let rec = &mut self.queries[a.query as usize];
        rec.remaining = sizes.len() as u32;
        rec.n_subs = sizes.len() as u32;
        let subs = sizes.map(|items| Sub {
            tenant: a.tenant,
            query: a.query,
            items,
            ready: now,
        });
        if topo.front.is_some() {
            self.front_queues[t].extend(subs);
            self.schedule_front(now);
        } else {
            self.fusion_bufs[t].extend(subs);
            self.try_launch_gpu(now);
        }
    }

    /// Charges a dispatched sub-query's queue wait and service time to its
    /// query, split evenly over the query's sub-queries.
    fn charge_dispatch(&mut self, sub: &Sub, now: SimTime, service: SimDuration) {
        let rec = &mut self.queries[sub.query as usize];
        let nsubs = rec.n_subs.max(1) as u64;
        rec.queuing += now.saturating_since(sub.ready) / nsubs;
        rec.inference += service / nsubs;
    }

    fn schedule_front(&mut self, now: SimTime) {
        if self.topos[0].front.is_none() {
            return;
        }
        while !self.front_free.is_empty() {
            let queues = &self.front_queues;
            let Some(t) = self.front_rr.pick(|i| !queues[i].is_empty()) else {
                break;
            };
            let thread = self.front_free.pop().expect("non-empty");
            let sub = self.front_queues[t].pop_front().expect("backlogged");
            let topo = self.topos[t];
            let front = topo.front.as_ref().expect("uniform tenant shapes");
            let cost = front.svc.cost_shared(sub.items);
            let factor = self.derate(t, now);
            let latency = stretch(cost.latency, factor);
            let busy_s = cost.busy_core_time.as_secs_f64();
            let busy_s = factor.map_or(busy_s, |f| busy_s * f);
            self.charge_dispatch(&sub, now, latency);
            let b = self.buckets.index(now);
            self.buckets.cpu_core_s[b] += busy_s;
            self.buckets.chan_bytes[b] += cost.channel_bytes;
            self.buckets.nmp_j[b] += cost.nmp_energy.value();
            self.total_nmp_j += cost.nmp_energy.value();
            self.front_idle_weighted += cost.idle_fraction * busy_s;
            self.front_busy_weight += busy_s;
            if let Some(i) = &mut self.interference {
                i.charge(t, cost.channel_bytes);
            }
            self.push(now + latency, Done::Front { thread, sub });
        }
    }

    fn schedule_back(&mut self, now: SimTime) {
        let BackStage::HostPool { .. } = &self.topos[0].back else {
            return;
        };
        while !self.back_free.is_empty() {
            let queues = &self.back_queues;
            let Some(t) = self.back_rr.pick(|i| !queues[i].is_empty()) else {
                break;
            };
            let thread = self.back_free.pop().expect("non-empty");
            let sub = self.back_queues[t].pop_front().expect("backlogged");
            let topo = self.topos[t];
            let BackStage::HostPool { svc, .. } = &topo.back else {
                unreachable!("uniform tenant shapes");
            };
            let cost = svc.cost_shared(sub.items);
            let factor = self.derate(t, now);
            let latency = stretch(cost.latency, factor);
            let busy_s = cost.busy_core_time.as_secs_f64();
            self.charge_dispatch(&sub, now, latency);
            let b = self.buckets.index(now);
            self.buckets.cpu_core_s[b] += factor.map_or(busy_s, |f| busy_s * f);
            self.buckets.chan_bytes[b] += cost.channel_bytes;
            if let Some(i) = &mut self.interference {
                i.charge(t, cost.channel_bytes);
            }
            self.push(now + latency, Done::Back { thread, sub });
        }
    }

    fn try_launch_gpu(&mut self, now: SimTime) {
        let BackStage::Gpu { .. } = &self.topos[0].back else {
            return;
        };
        while !self.gpu_free.is_empty() {
            let bufs = &self.fusion_bufs;
            let Some(t) = self.gpu_rr.pick(|i| !bufs[i].is_empty()) else {
                break;
            };
            let topo = self.topos[t];
            let BackStage::Gpu {
                fusion_limit,
                bytes_per_item,
                ..
            } = &topo.back
            else {
                unreachable!("uniform tenant shapes");
            };
            let ctx = self.gpu_free.pop().expect("non-empty");
            let buf = &mut self.fusion_bufs[t];
            let mut subs = Vec::new();
            let mut items = 0u32;
            match fusion_limit {
                None => {
                    let sub = buf.pop_front().expect("backlogged");
                    items = sub.items;
                    subs.push(sub);
                }
                Some(limit) => {
                    while let Some(next) = buf.front() {
                        if !subs.is_empty() && items + next.items > *limit {
                            break;
                        }
                        let sub = buf.pop_front().expect("non-empty");
                        items += sub.items;
                        subs.push(sub);
                    }
                }
            }
            let gpu = self
                .server
                .gpu
                .as_ref()
                .expect("gpu topology on gpu server");
            // The PCIe link is shared across tenants: transfers serialize.
            let load_start = now.max(self.pcie_free);
            let load_dur = pcie_transfer_time(bytes_per_item * items as f64, gpu, 1);
            self.pcie_free = load_start + load_dur;
            let b = self.buckets.index(load_start);
            self.buckets.pcie_s[b] += load_dur.as_secs_f64();
            let batch = self.batches.len();
            self.batches.push(FusedBatch {
                tenant: t as u32,
                subs,
                items,
                load_start,
                load_dur,
                compute: SimDuration::ZERO,
            });
            self.push(load_start + load_dur, Done::Load { ctx, batch });
        }
    }

    fn complete_sub(&mut self, sub: &Sub, now: SimTime) {
        let rec = &mut self.queries[sub.query as usize];
        rec.remaining -= 1;
        if rec.remaining == 0 {
            let stats = &mut self.stats[sub.tenant as usize];
            stats.completed_total += 1;
            if self.window.measures(rec.arrival) {
                stats.completed += 1;
                let lat_s = now.saturating_since(rec.arrival).as_secs_f64();
                stats.latency.record(lat_s);
                if let Some(agg) = &mut self.agg_latency {
                    agg.record(lat_s);
                }
                stats.sum_queuing += rec.queuing.as_secs_f64();
                stats.sum_loading += rec.loading.as_secs_f64();
                stats.sum_inference += rec.inference.as_secs_f64();
            }
        }
    }

    fn handle(&mut self, done: Done, now: SimTime) {
        match done {
            Done::Front { thread, sub } => {
                self.front_free.push(thread);
                let forwarded = Sub { ready: now, ..sub };
                let t = sub.tenant as usize;
                let topo = self.topos[t];
                match &topo.back {
                    BackStage::None => self.complete_sub(&sub, now),
                    BackStage::HostPool { .. } => {
                        self.back_queues[t].push_back(forwarded);
                        self.schedule_back(now);
                    }
                    BackStage::Gpu { .. } => {
                        self.fusion_bufs[t].push_back(forwarded);
                        self.try_launch_gpu(now);
                    }
                }
                self.schedule_front(now);
            }
            Done::Back { thread, sub } => {
                self.back_free.push(thread);
                self.complete_sub(&sub, now);
                self.schedule_back(now);
            }
            Done::Load { ctx, batch } => {
                let (t, items) = (
                    self.batches[batch].tenant as usize,
                    self.batches[batch].items,
                );
                let topo = self.topos[t];
                let BackStage::Gpu { svc, colocated, .. } = &topo.back else {
                    unreachable!("loads only run with a GPU stage");
                };
                let cost = svc.cost_shared(items);
                let compute = stretch(cost.latency, self.derate(t, now));
                let b = self.buckets.index(now);
                self.buckets.gpu_s[b] += compute.as_secs_f64() * cost.gpu_util / *colocated as f64;
                self.batches[batch].compute = compute;
                self.push(now + compute, Done::Gpu { ctx, batch });
            }
            Done::Gpu { ctx, batch } => {
                self.gpu_free.push(ctx);
                let fused = &mut self.batches[batch];
                let (load_start, load_dur, compute) =
                    (fused.load_start, fused.load_dur, fused.compute);
                let subs = std::mem::take(&mut fused.subs);
                for sub in &subs {
                    let rec = &mut self.queries[sub.query as usize];
                    let nsubs = rec.n_subs.max(1) as u64;
                    rec.queuing += load_start.saturating_since(sub.ready) / nsubs;
                    rec.loading += load_dur / nsubs;
                    rec.inference += compute / nsubs;
                    self.complete_sub(sub, now);
                }
                self.try_launch_gpu(now);
            }
        }
    }

    /// Serves `arrivals` (in time order, all before the horizon) and every
    /// event they cause, up to the horizon. Arrivals stay out of the heap:
    /// one due no later than the earliest pending event goes first, which
    /// is the order a heap pre-loaded with every arrival would pop them in.
    fn run(&mut self, arrivals: &[Arrival]) {
        let mut next = 0;
        loop {
            let due = self.heap.peek().map(|e| e.time);
            match arrivals.get(next) {
                Some(a) if due.map_or(true, |t| a.time <= t) => {
                    next += 1;
                    self.arrive(*a, a.time);
                }
                _ => {
                    let Some(entry) = self.heap.pop() else {
                        break;
                    };
                    if entry.time > self.window.horizon {
                        break;
                    }
                    self.handle(entry.ev, entry.time);
                }
            }
        }
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
    let (p50, p95, p99) = (
        to_dur(st.latency.p50()),
        to_dur(st.latency.p95()),
        to_dur(st.latency.p99()),
    );
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

/// Runs `tenants` over `server`'s shared pools, sized by the first
/// tenant's topology (all tenants must share its shape). Returns one
/// report per tenant plus the whole-server view; with one tenant the two
/// are the same report.
pub(crate) fn run(
    server: &ServerSpec,
    tenants: &[TenantRun<'_>],
    cfg: &SimConfig,
) -> ColocationReport {
    let n = tenants.len();
    // Queries arriving past the window's end are served but not measured;
    // they could not complete before the horizon even when meeting the SLA.
    let window = cfg.window();

    // Per-tenant arrival streams (tenant 0's is the dedicated stream),
    // indexed run-wide in tenant order.
    let mut queries = Vec::new();
    let mut arrivals = Vec::new();
    let mut stats: Vec<TenantStats> = Vec::with_capacity(n);
    for (i, tenant) in tenants.iter().enumerate() {
        let mut st = TenantStats::default();
        for q in QueryStream::tenant(tenant.offered, cfg.seed, i as u32).take_until(window.horizon)
        {
            if window.measures(q.arrival) {
                st.measured_arrivals += 1;
            }
            st.total_arrivals += 1;
            arrivals.push(Arrival {
                time: q.arrival,
                tenant: i as u32,
                query: queries.len() as u32,
                size: q.size,
            });
            queries.push(QueryRec {
                arrival: q.arrival,
                ..QueryRec::default()
            });
        }
        stats.push(st);
    }
    // Simultaneous arrivals go in tenant order, then stream order (the
    // sort is stable); one tenant's stream is already in time order.
    arrivals.sort_by_key(|a| a.time);

    let topo = tenants[0].topo;
    let front_threads = topo.front.as_ref().map_or(0, |f| f.threads);
    let (back_threads, gpu_ctxs) = match &topo.back {
        BackStage::None => (0, 0),
        BackStage::HostPool { threads, .. } => (*threads, 0),
        BackStage::Gpu { colocated, .. } => (0, *colocated),
    };
    let shares: Vec<f64> = tenants.iter().map(|t| t.share).collect();
    let queues = || (0..n).map(|_| VecDeque::new()).collect::<Vec<_>>();

    let mut engine = Engine {
        topos: tenants.iter().map(|t| t.topo).collect(),
        server,
        window,
        heap: BinaryHeap::new(),
        seq: 0,
        queries,
        interference: Interference::among(n, server),
        front_queues: queues(),
        front_free: (0..front_threads).collect(),
        front_rr: WeightedRr::new(&shares),
        back_queues: queues(),
        back_free: (0..back_threads).collect(),
        back_rr: WeightedRr::new(&shares),
        fusion_bufs: queues(),
        gpu_free: (0..gpu_ctxs).collect(),
        gpu_rr: WeightedRr::new(&shares),
        pcie_free: SimTime::ZERO,
        batches: Vec::new(),
        stats,
        agg_latency: (n > 1).then(PercentileTracker::new),
        buckets: Buckets::new(cfg.duration),
        front_idle_weighted: 0.0,
        front_busy_weight: 0.0,
        total_nmp_j: 0.0,
    };
    engine.run(&arrivals);

    // Assemble the reports.
    let window_s = window.seconds();
    let load = summarize_load(
        &engine.buckets,
        server,
        cfg.duration.as_secs_f64(),
        engine.total_nmp_j,
    );
    // Whole-server energy is attributed to queries evenly: every tenant's
    // energy_per_query is server energy over *aggregate* completions, so
    // summing `energy_per_query * completed` across tenants recovers the
    // server's energy exactly.
    let agg_completed: u64 = engine.stats.iter().map(|s| s.completed).sum();
    let energy_per_query = if agg_completed == 0 {
        Joules::ZERO
    } else {
        Joules(load.mean_power.value() * window_s / agg_completed as f64)
    };
    let shared = Shared {
        front_idle_fraction: if engine.front_busy_weight > 0.0 {
            engine.front_idle_weighted / engine.front_busy_weight
        } else {
            0.0
        },
        load,
        window_s,
        energy_per_query,
    };

    // Every arrival was split (arrivals precede the horizon), so a query
    // with outstanding sub-queries is exactly one still in flight.
    let mut in_flight = Vec::with_capacity(n);
    let mut start = 0;
    for st in &engine.stats {
        let end = start + st.total_arrivals as usize;
        let recs = &engine.queries[start..end];
        in_flight.push(recs.iter().filter(|q| q.remaining > 0).count() as u64);
        start = end;
    }
    let per_tenant: Vec<SimReport> = tenants
        .iter()
        .zip(&mut engine.stats)
        .zip(&in_flight)
        .map(|((t, st), &inf)| report(st, t.offered, inf, &shared))
        .collect();

    let aggregate = match engine.agg_latency.take() {
        None => per_tenant[0].clone(),
        Some(latency) => {
            // Counters fold over the tenants; the latency population was
            // recorded separately (quantiles cannot be merged).
            let mut agg = TenantStats {
                latency,
                ..TenantStats::default()
            };
            for st in &engine.stats {
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
/// Returns a [`PlanError`] if the plan is infeasible on this server/model.
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
/// Returns a [`PlanError`] if the plan is infeasible on this server/model.
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
pub fn simulate_with_topology(
    topo: &Topology,
    server: &ServerSpec,
    offered: Qps,
    cfg: &SimConfig,
) -> Result<SimReport, PlanError> {
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
