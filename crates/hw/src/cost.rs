//! Roofline cost model: operator latency and per-batch stage cost on CPUs,
//! GPUs, and NMP-enabled memory.
//!
//! The simulator folds an entire partition stage (graph + device + batch
//! size + op-workers + co-location level) into one [`BatchCost`]; the
//! discrete-event layer then only schedules batch-level events. Operator
//! dependency effects are preserved because the fold runs the
//! [`crate::schedule::list_schedule`] pass internally.

use hercules_common::units::{Joules, MemBytes, SimDuration};
use hercules_model::graph::Graph;
use hercules_model::op::OpKind;
use hercules_model::table::EmbeddingTableSpec;

use crate::calib;
use crate::device::GpuSpec;
use crate::nmp::NmpLutSet;
use crate::schedule::list_schedule;
use crate::server::ServerSpec;

/// Execution context for one CPU inference thread.
#[derive(Debug, Clone, Copy)]
pub struct CpuExecConfig<'a> {
    /// The host server.
    pub server: &'a ServerSpec,
    /// Operator workers (physical cores) owned by this thread (`o`).
    pub workers: u32,
    /// Co-located inference threads on the socket (`m`), including this one.
    pub colocated_threads: u32,
    /// NMP lookup tables when the server has NMP memory (routes reduced
    /// sparse lookups to the DIMM-side units).
    pub nmp: Option<&'a NmpLutSet>,
    /// Embedding-tier cache plan when the server provisions a hot tier
    /// (`ServerSpec::cache`); hits are priced at
    /// [`calib::CACHE_HIT_COST_RATIO`] of the DRAM gather cost and misses
    /// additionally pay the cold-tier penalty.
    pub cache: Option<&'a CacheModel>,
}

/// Execution context for one GPU inference thread (model co-location via
/// MPS-style sharing).
#[derive(Debug, Clone, Copy)]
pub struct GpuExecConfig<'a> {
    /// The accelerator.
    pub gpu: &'a GpuSpec,
    /// Co-located model instances sharing the GPU.
    pub colocated: u32,
}

/// Provisioning of the embedding-tier hot cache: how much fast memory each
/// gathering worker dedicates to popular rows, and what a miss costs
/// beyond the ordinary DRAM gather.
///
/// The hot tier models an LLC-resident / near-core shard of each table's
/// most popular rows (the HugeCTR-style tiered parameter server exploits
/// exactly this Zipf skew). The *cold* tier defaults to local DRAM —
/// `cold_miss_penalty == ZERO` — in which case a miss costs what every
/// gather costs today; a non-zero penalty models a cold tier behind a
/// slower medium (remote host, SSD-backed parameter server), which is what
/// makes table sets larger than one server's DRAM servable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Hot-tier capacity *per gathering worker* (each worker keeps its own
    /// shard, placed on its core at first touch).
    pub capacity: MemBytes,
    /// Extra service time charged per missed row on top of the DRAM gather
    /// cost. `ZERO` means the cold tier is local DRAM.
    pub cold_miss_penalty: SimDuration,
}

impl CacheSpec {
    /// A per-worker hot tier of `mib` MiB with a DRAM cold tier.
    pub fn per_worker_mib(mib: u64) -> CacheSpec {
        CacheSpec {
            capacity: MemBytes::from_mib(mib),
            cold_miss_penalty: SimDuration::ZERO,
        }
    }
}

/// The capacity plan for one table's hot shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableCachePlan {
    /// Rows of this table resident in the hot tier.
    pub hot_rows: u64,
    /// Predicted fraction of row accesses served by the hot tier
    /// (Zipf mass of the `hot_rows` most popular rows).
    pub hit_rate: f64,
}

/// Per-table hit-rate prediction for a [`CacheSpec`] over a model's tables.
///
/// Capacity is split across tables by an iterative proportional fill
/// weighted by each table's DRAM traffic share (`avg_pooling x row_bytes`):
/// tables that saturate (every row hot) release their slack to the rest.
/// Caching the most popular rows is optimal under Zipf popularity, so each
/// shard's predicted hit rate is the popularity mass of its top rows —
/// the same quantity the Fig. 10a embedding partitioner maximizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheModel {
    spec: CacheSpec,
    tables: Vec<TableCachePlan>,
    overall: f64,
}

impl CacheModel {
    /// Plans hot-shard capacities for `tables` under `spec`.
    pub fn plan(spec: CacheSpec, tables: &[EmbeddingTableSpec]) -> CacheModel {
        let weight = |t: &EmbeddingTableSpec| t.avg_pooling() as f64 * t.row_bytes() as f64;
        let mut hot = vec![0u64; tables.len()];
        let mut remaining = spec.capacity.as_bytes();
        let mut open: Vec<usize> = (0..tables.len()).collect();
        loop {
            open.retain(|&i| hot[i] < tables[i].rows);
            let total_w: f64 = open.iter().map(|&i| weight(&tables[i])).sum();
            if remaining == 0 || open.is_empty() || total_w <= 0.0 {
                break;
            }
            let mut spent = 0u64;
            for &i in &open {
                let t = &tables[i];
                let share = (remaining as f64 * weight(t) / total_w) as u64;
                let take = (share / t.row_bytes()).min(t.rows - hot[i]);
                hot[i] += take;
                spent += take * t.row_bytes();
            }
            if spent == 0 {
                // Every open share rounds below one row; capacity exhausted.
                break;
            }
            remaining = remaining.saturating_sub(spent);
        }

        let plans: Vec<TableCachePlan> = tables
            .iter()
            .zip(&hot)
            .map(|(t, &h)| TableCachePlan {
                hot_rows: h,
                hit_rate: t.hit_rate(h),
            })
            .collect();
        // Overall = row-traffic-weighted mean: each table contributes
        // `avg_pooling` gathered rows per item.
        let traffic: f64 = tables.iter().map(|t| t.avg_pooling() as f64).sum();
        let overall = if traffic > 0.0 {
            tables
                .iter()
                .zip(&plans)
                .map(|(t, p)| t.avg_pooling() as f64 * p.hit_rate)
                .sum::<f64>()
                / traffic
        } else {
            0.0
        };
        CacheModel {
            spec,
            tables: plans,
            overall,
        }
    }

    /// The provisioning this plan was built for.
    pub fn spec(&self) -> &CacheSpec {
        &self.spec
    }

    /// Per-table shard plans, in table order.
    pub fn tables(&self) -> &[TableCachePlan] {
        &self.tables
    }

    /// Predicted hit rate for table `index` (0.0 for unknown tables).
    pub fn hit_rate(&self, index: usize) -> f64 {
        self.tables.get(index).map_or(0.0, |p| p.hit_rate)
    }

    /// Hot rows planned for table `index` (0 for unknown tables).
    pub fn hot_rows(&self, index: usize) -> u64 {
        self.tables.get(index).map_or(0, |p| p.hot_rows)
    }

    /// Row-traffic-weighted hit rate across all tables.
    pub fn overall_hit_rate(&self) -> f64 {
        self.overall
    }
}

/// Per-operator slice of a batch timeline (Fig. 5 breakdowns).
#[derive(Debug, Clone, PartialEq)]
pub struct OpTiming {
    /// Operator label (`"FC"`, `"SLS"`, ...).
    pub label: &'static str,
    /// Whether the op belongs to the SparseNet.
    pub sparse: bool,
    /// Execution duration.
    pub duration: SimDuration,
}

/// Cost of executing one batch through one stage (sub)graph.
#[derive(Debug, Clone)]
pub struct BatchCost {
    /// End-to-end stage latency for the batch (list-scheduled makespan on
    /// CPU; serialized kernel stream on GPU).
    pub latency: SimDuration,
    /// Total core-busy time (CPU) across this thread's workers.
    pub busy_core_time: SimDuration,
    /// Idle fraction of the thread's workers over the makespan.
    pub idle_fraction: f64,
    /// Bytes crossing the DRAM channel (NMP keeps gathered rows on-DIMM and
    /// only pooled outputs cross).
    pub channel_bytes: f64,
    /// On-DIMM NMP energy for this batch.
    pub nmp_energy: Joules,
    /// GPU busy time for this batch (zero on CPU).
    pub gpu_busy: SimDuration,
    /// Achieved GPU utilization during `gpu_busy` (zero on CPU).
    pub gpu_util: f64,
    /// Per-op timings in scheduling order.
    pub per_op: Vec<OpTiming>,
}

/// Latency of one operator on one CPU operator worker.
///
/// Roofline: `overhead + max(compute, memory)` where compute runs on a
/// single core derated by GEMM efficiency and LLC interference, and memory
/// bandwidth is the per-core limit or the fair share of the socket's
/// gather/stream bandwidth, whichever binds.
pub fn cpu_op_latency(
    op: &OpKind,
    batch: u64,
    tables: &[EmbeddingTableSpec],
    cfg: &CpuExecConfig<'_>,
) -> SimDuration {
    let c = op.cost(batch, tables);
    let threads = cfg.colocated_threads.max(1);

    let compute_rate = cfg.server.cpu.core_peak_flops()
        * calib::CPU_GEMM_EFFICIENCY
        * calib::llc_interference_factor(threads);
    let compute_s = c.flops / compute_rate;

    let mem_s = match nmp_route(op, tables, cfg) {
        Some((spec, per_item_accesses)) => {
            let accesses = per_item_accesses * batch;
            let set = cfg.nmp.expect("nmp_route only fires with a LUT set");
            let est = set.estimate(spec.dim * 4, accesses);
            // Co-located threads share the NMP subsystem fairly.
            let local_s = est.latency.as_secs_f64() * threads as f64;
            // Only pooled outputs + indices cross the channel.
            let out_bytes = batch as f64 * spec.dim as f64 * 4.0 + accesses as f64 * 8.0;
            let chan_bw =
                cfg.server.mem.peak_bw_gbs * 1e9 * calib::DDR_STREAM_EFFICIENCY / threads as f64;
            local_s.max(out_bytes / chan_bw)
        }
        None => {
            let (eff, per_core_gbs) = if c.random_access {
                gather_calibration(cfg.server)
            } else {
                (calib::DDR_STREAM_EFFICIENCY, calib::PER_CORE_STREAM_GBS)
            };
            // Concurrent bandwidth streams: each co-located thread keeps
            // roughly one memory stream in flight; extra op workers within a
            // thread overlap only about half their gathers with each other
            // (the rest overlaps dense compute), so they count at half
            // weight. This keeps aggregate demand consistent with the socket
            // limit while letting op-parallelism shorten a thread's
            // SparseNet phase.
            let streams = (threads as f64 * (1.0 + 0.5 * (cfg.workers.saturating_sub(1)) as f64))
                .clamp(1.0, cfg.server.cpu.cores as f64);
            let bw = (per_core_gbs * 1e9).min(cfg.server.mem.peak_bw_gbs * 1e9 * eff / streams);
            let mut s = c.total_bytes() / bw;
            // Embedding-tier cache: hits avoid the DRAM round trip (priced
            // at CACHE_HIT_COST_RATIO of the gather cost); misses fall
            // through at full cost plus any cold-tier penalty per row.
            if let (Some(cache), OpKind::SparseLookup { table, .. }) = (cfg.cache, op) {
                let hit = cache.hit_rate(table.index());
                s *= hit * calib::CACHE_HIT_COST_RATIO + (1.0 - hit);
                let missed_rows =
                    batch as f64 * tables[table.index()].avg_pooling() as f64 * (1.0 - hit);
                s += missed_rows * cache.spec().cold_miss_penalty.as_secs_f64();
            }
            s
        }
    };

    let mut overhead_s = calib::CPU_OP_OVERHEAD_US * 1e-6;
    if c.serial_steps > 1 {
        overhead_s += c.serial_steps as f64 * calib::CPU_SERIAL_STEP_US * 1e-6;
    }

    SimDuration::from_secs_f64(overhead_s + compute_s.max(mem_s))
}

/// If `op` is NMP-eligible under `cfg` (a *reduced* sparse lookup on NMP
/// memory — one-hot/unreduced gathers see no benefit, §VI-B), returns the
/// table spec and access count.
fn nmp_route<'t>(
    op: &OpKind,
    tables: &'t [EmbeddingTableSpec],
    cfg: &CpuExecConfig<'_>,
) -> Option<(&'t EmbeddingTableSpec, u64)> {
    let _set = cfg.nmp?;
    if let OpKind::SparseLookup {
        table,
        reduce: true,
    } = *op
    {
        let spec = &tables[table.index()];
        Some((spec, spec.avg_pooling() as u64))
    } else {
        None
    }
}

/// Cost of one batch through a stage graph on a CPU inference thread.
///
/// Operators are list-scheduled across the thread's `workers`; the makespan
/// is the batch latency.
///
/// # Panics
///
/// Panics if `cfg.workers == 0` or the graph is cyclic.
pub fn cpu_batch_cost(
    graph: &Graph,
    batch: u64,
    tables: &[EmbeddingTableSpec],
    cfg: &CpuExecConfig<'_>,
) -> BatchCost {
    let durations: Vec<SimDuration> = graph
        .nodes()
        .map(|(_, n)| cpu_op_latency(&n.op, batch, tables, cfg))
        .collect();
    let schedule = list_schedule(graph, cfg.workers, |id| durations[id.index()]);

    let mut channel_bytes = 0.0;
    let mut nmp_energy = Joules::ZERO;
    for (_, n) in graph.nodes() {
        let c = n.op.cost(batch, tables);
        match nmp_route(&n.op, tables, cfg) {
            Some((spec, per_item_accesses)) => {
                let accesses = per_item_accesses * batch;
                let set = cfg.nmp.expect("route implies set");
                let est = set.estimate(spec.dim * 4, accesses);
                nmp_energy += est.energy;
                channel_bytes += batch as f64 * spec.dim as f64 * 4.0 + accesses as f64 * 8.0;
            }
            None => {
                let mut bytes = c.total_bytes();
                // Hot-tier hits never cross the DRAM channel; only the
                // miss fraction of a cached sparse lookup is charged.
                if let (Some(cache), OpKind::SparseLookup { table, .. }) = (cfg.cache, &n.op) {
                    bytes *= 1.0 - cache.hit_rate(table.index());
                }
                channel_bytes += bytes;
            }
        }
    }

    let per_op = schedule
        .ops
        .iter()
        .map(|s| {
            let node = graph.node(s.node);
            OpTiming {
                label: node.op.label(),
                sparse: node.op.is_sparse(),
                duration: s.duration,
            }
        })
        .collect();

    BatchCost {
        latency: schedule.makespan,
        busy_core_time: schedule.busy,
        idle_fraction: schedule.idle_fraction(),
        channel_bytes,
        nmp_energy,
        gpu_busy: SimDuration::ZERO,
        gpu_util: 0.0,
        per_op,
    }
}

/// Latency of one operator on a GPU thread.
///
/// Compute rate saturates with batch ([`calib::gpu_batch_utilization`]) and
/// is shared across co-located contexts; recurrent ops pay a per-step kernel
/// launch, which is why GPUs need large fused batches for DIEN.
pub fn gpu_op_latency(
    op: &OpKind,
    batch: u64,
    tables: &[EmbeddingTableSpec],
    cfg: &GpuExecConfig<'_>,
) -> SimDuration {
    let c = op.cost(batch, tables);
    let k = cfg.colocated.max(1) as f64;
    let u = calib::gpu_batch_utilization(batch);
    let colocation_drag = 1.0 + calib::GPU_COLOCATION_OVERHEAD * (k - 1.0);

    // Effective share: full utilization-limited rate until co-located demand
    // oversubscribes the device, then a fair 1/k share.
    let share = u.min(1.0 / k);
    let compute_rate =
        cfg.gpu.peak_tflops * 1e12 * calib::GPU_GEMM_EFFICIENCY * share / colocation_drag;
    let compute_s = c.flops / compute_rate;

    // Memory saturates at much smaller batches than compute.
    let u_mem = (batch as f64) / (batch as f64 + 64.0);
    let mem_eff = if c.random_access {
        calib::GPU_GATHER_EFFICIENCY
    } else {
        0.80
    };
    let mem_share = u_mem.min(1.0 / k);
    let bw = cfg.gpu.hbm_bw_gbs * 1e9 * mem_eff * mem_share / colocation_drag / u_mem.max(1e-9);
    let mem_s = c.total_bytes() / bw;

    let launches = c.serial_steps.max(1) as f64;
    let overhead_s = launches * calib::GPU_KERNEL_OVERHEAD_US * 1e-6;

    SimDuration::from_secs_f64(overhead_s + compute_s.max(mem_s))
}

/// Cost of one batch through a stage graph on a GPU thread.
///
/// Kernels within one inference thread serialize on its stream
/// (op-parallelism is CPU-only, §II-B), so the latency is the sum of
/// operator latencies.
pub fn gpu_batch_cost(
    graph: &Graph,
    batch: u64,
    tables: &[EmbeddingTableSpec],
    cfg: &GpuExecConfig<'_>,
) -> BatchCost {
    let mut latency = SimDuration::ZERO;
    let mut per_op = Vec::with_capacity(graph.len());
    let mut channel_bytes = 0.0;
    for (_, n) in graph.nodes() {
        let d = gpu_op_latency(&n.op, batch, tables, cfg);
        latency += d;
        channel_bytes += n.op.cost(batch, tables).total_bytes();
        per_op.push(OpTiming {
            label: n.op.label(),
            sparse: n.op.is_sparse(),
            duration: d,
        });
    }
    let k = cfg.colocated.max(1) as f64;
    let u = calib::gpu_batch_utilization(batch);
    BatchCost {
        latency,
        busy_core_time: SimDuration::ZERO,
        idle_fraction: 0.0,
        channel_bytes,
        nmp_energy: Joules::ZERO,
        gpu_busy: latency,
        gpu_util: (u * k).min(1.0),
        per_op,
    }
}

/// Service-time derating factor for `tenants` co-located *models* sharing
/// one server (multi-tenant interference: LLC and memory-bandwidth
/// contention across disjoint embedding working sets), scaled by how hard
/// the co-runners are actually driving the memory subsystem.
///
/// `corunner_intensity` is the co-located tenants' aggregate DRAM-channel
/// traffic (their `channel_bytes` per second, summed over every tenant
/// *except* the one being derated) as a fraction of the server's peak
/// channel bandwidth, clamped to `[0, 1]`. Idle co-runners only pollute the
/// LLC ([`calib::TENANT_INTENSITY_FLOOR`] of the full per-tenant penalty);
/// bandwidth-saturating co-runners pay the full
/// [`calib::TENANT_INTERFERENCE_PER_TENANT`] per extra tenant.
///
/// Exactly `1.0` for a dedicated server (`tenants <= 1`) at **any**
/// intensity, so a single-tenant co-location run reproduces the dedicated
/// simulation path bit-for-bit; otherwise grows linearly per extra tenant
/// and saturates at [`calib::TENANT_DERATE_CEILING`].
pub fn colocation_derate(tenants: u32, corunner_intensity: f64) -> f64 {
    if tenants <= 1 {
        return 1.0;
    }
    let i = if corunner_intensity.is_finite() {
        corunner_intensity.clamp(0.0, 1.0)
    } else {
        1.0
    };
    let per_tenant = calib::TENANT_INTERFERENCE_PER_TENANT
        * (calib::TENANT_INTENSITY_FLOOR + (1.0 - calib::TENANT_INTENSITY_FLOOR) * i);
    (1.0 + per_tenant * (tenants - 1) as f64).min(calib::TENANT_DERATE_CEILING)
}

/// The cost model's effective *aggregate* embedding-gather bandwidth
/// (GB/s) for `threads` co-located inference threads with `workers`
/// operator workers each — the same stream accounting [`cpu_op_latency`]
/// charges random-access sparse ops with, folded to a single figure.
///
/// This is the model-side number a live gather measurement calibrates
/// against: `measured / modeled` close to 1.0 means the
/// [`calib::DDR_GATHER_EFFICIENCY`] / [`calib::PER_CORE_GATHER_GBS`]
/// pair describes the machine; a large gap is a calibration error the
/// runtime reports (see `serve_live` and the `fig_gather_bw` bench).
pub fn modeled_gather_bw_gbs(server: &ServerSpec, threads: u32, workers: u32) -> f64 {
    let (eff, per_core_gbs) = gather_calibration(server);
    let threads = threads.max(1);
    let streams = (threads as f64 * (1.0 + 0.5 * (workers.max(1) - 1) as f64))
        .clamp(1.0, server.cpu.cores as f64);
    (per_core_gbs * streams).min(server.mem.peak_bw_gbs * eff)
}

/// The `(ddr_gather_efficiency, per_core_gather_gbs)` pair the gather terms
/// use — the calibrated constants, unless the server carries a measured
/// efficiency fed back from a live-gather run
/// (`ServerSpec::with_measured_gather_efficiency`), in which case both
/// scale by `measured / calibrated` so the per-core MLP limit and the
/// socket ceiling move together. The `None` arm returns the constants
/// themselves (not a multiplication by 1.0), so uncalibrated servers are
/// bit-identical to the pre-feedback model.
fn gather_calibration(server: &ServerSpec) -> (f64, f64) {
    match server.measured_gather_efficiency {
        Some(m) => (
            m,
            calib::PER_CORE_GATHER_GBS * m / calib::DDR_GATHER_EFFICIENCY,
        ),
        None => (calib::DDR_GATHER_EFFICIENCY, calib::PER_CORE_GATHER_GBS),
    }
}

/// Host-to-device transfer time for `bytes` over PCIe with `contenders`
/// concurrently-loading threads.
pub fn pcie_transfer_time(bytes: f64, gpu: &GpuSpec, contenders: u32) -> SimDuration {
    let k = contenders.max(1) as f64;
    let bw = gpu.pcie_bw_gbs * 1e9 * calib::PCIE_EFFICIENCY / k;
    SimDuration::from_secs_f64(calib::PCIE_SETUP_US * 1e-6 + bytes / bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::NmpLutSet;
    use crate::server::ServerType;
    use hercules_model::partition::sparse_dense;
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};

    fn t2() -> ServerSpec {
        ServerType::T2.spec()
    }

    fn rmc1() -> RecModel {
        RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
    }

    #[test]
    fn cpu_latency_grows_with_batch() {
        let server = t2();
        let cfg = CpuExecConfig {
            server: &server,
            workers: 1,
            colocated_threads: 1,
            nmp: None,
            cache: None,
        };
        let m = rmc1();
        let small = cpu_batch_cost(&m.graph, 16, &m.tables, &cfg);
        let large = cpu_batch_cost(&m.graph, 256, &m.tables, &cfg);
        assert!(large.latency > small.latency);
        // Per-item latency shrinks: batching amortizes op overheads.
        let per_item_small = small.latency.as_secs_f64() / 16.0;
        let per_item_large = large.latency.as_secs_f64() / 256.0;
        assert!(per_item_large < per_item_small);
    }

    #[test]
    fn colocation_slows_each_thread() {
        let server = t2();
        let m = rmc1();
        let solo = CpuExecConfig {
            server: &server,
            workers: 1,
            colocated_threads: 1,
            nmp: None,
            cache: None,
        };
        let crowded = CpuExecConfig {
            server: &server,
            workers: 1,
            colocated_threads: 20,
            nmp: None,
            cache: None,
        };
        let a = cpu_batch_cost(&m.graph, 128, &m.tables, &solo);
        let b = cpu_batch_cost(&m.graph, 128, &m.tables, &crowded);
        assert!(b.latency > a.latency, "co-location must cost latency");
    }

    #[test]
    fn op_workers_cut_makespan_for_wide_sparsenet() {
        let server = t2();
        let m = rmc1();
        let one = CpuExecConfig {
            server: &server,
            workers: 1,
            colocated_threads: 10,
            nmp: None,
            cache: None,
        };
        let two = CpuExecConfig {
            server: &server,
            workers: 2,
            colocated_threads: 10,
            nmp: None,
            cache: None,
        };
        let c1 = cpu_batch_cost(&m.graph, 256, &m.tables, &one);
        let c2 = cpu_batch_cost(&m.graph, 256, &m.tables, &two);
        assert!(c2.latency < c1.latency, "2 workers overlap SLS ops");
        assert!(c2.idle_fraction > c1.idle_fraction, "but idle appears");
    }

    #[test]
    fn nmp_accelerates_reduced_sls_only() {
        let server3 = ServerType::T3.spec();
        let m = rmc1();
        let sd = sparse_dense(&m);
        let luts = NmpLutSet::standard(server3.mem.total_ranks());
        let plain = CpuExecConfig {
            server: &server3,
            workers: 1,
            colocated_threads: 4,
            nmp: None,
            cache: None,
        };
        let nmp = CpuExecConfig {
            server: &server3,
            workers: 1,
            colocated_threads: 4,
            nmp: Some(&luts),
            cache: None,
        };
        let base = cpu_batch_cost(&sd.sparse, 256, &m.tables, &plain);
        let accel = cpu_batch_cost(&sd.sparse, 256, &m.tables, &nmp);
        assert!(
            accel.latency < base.latency,
            "NMP should speed up gather-reduce: {} vs {}",
            accel.latency,
            base.latency
        );
        assert!(accel.channel_bytes < base.channel_bytes);
        assert!(accel.nmp_energy.value() > 0.0);

        // One-hot models gain nothing (MT-WnD lookups don't reduce).
        let wnd = RecModel::build(ModelKind::MtWnd, ModelScale::Production);
        let sd_wnd = sparse_dense(&wnd);
        let b2 = cpu_batch_cost(&sd_wnd.sparse, 256, &wnd.tables, &plain);
        let a2 = cpu_batch_cost(&sd_wnd.sparse, 256, &wnd.tables, &nmp);
        assert_eq!(a2.latency, b2.latency, "one-hot sees no NMP benefit");
    }

    #[test]
    fn more_nmp_ranks_faster() {
        let m = rmc1();
        let sd = sparse_dense(&m);
        let mk = |stype: ServerType| {
            let server = stype.spec();
            let luts = NmpLutSet::standard(server.mem.total_ranks());
            let cfg = CpuExecConfig {
                server: &server,
                workers: 1,
                colocated_threads: 8,
                nmp: Some(&luts),
                cache: None,
            };
            cpu_batch_cost(&sd.sparse, 512, &m.tables, &cfg).latency
        };
        let x2 = mk(ServerType::T3);
        let x4 = mk(ServerType::T4);
        let x8 = mk(ServerType::T5);
        assert!(x4 < x2);
        assert!(x8 < x4);
    }

    #[test]
    fn gpu_fusion_improves_per_item_latency() {
        let gpu = crate::device::GPU_V100;
        let cfg = GpuExecConfig {
            gpu: &gpu,
            colocated: 1,
        };
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let small = gpu_batch_cost(&m.graph, 64, &m.tables, &cfg);
        let fused = gpu_batch_cost(&m.graph, 4096, &m.tables, &cfg);
        let per_small = small.latency.as_secs_f64() / 64.0;
        let per_fused = fused.latency.as_secs_f64() / 4096.0;
        assert!(
            per_fused < per_small / 4.0,
            "fusion amortizes: {per_small:.2e} vs {per_fused:.2e}"
        );
        assert!(fused.gpu_util > small.gpu_util);
    }

    #[test]
    fn gpu_colocation_increases_aggregate_utilization() {
        let gpu = crate::device::GPU_V100;
        let m = RecModel::build(ModelKind::MtWnd, ModelScale::Small);
        let solo = gpu_batch_cost(
            &m.graph,
            256,
            &m.tables,
            &GpuExecConfig {
                gpu: &gpu,
                colocated: 1,
            },
        );
        let co4 = gpu_batch_cost(
            &m.graph,
            256,
            &m.tables,
            &GpuExecConfig {
                gpu: &gpu,
                colocated: 4,
            },
        );
        assert!(co4.gpu_util > solo.gpu_util);
        // Each context is not much slower while the GPU is undersubscribed.
        let slowdown = co4.latency.as_secs_f64() / solo.latency.as_secs_f64();
        assert!(
            slowdown < 2.0,
            "undersubscribed co-location cheap: {slowdown}"
        );
    }

    #[test]
    fn gru_pays_serial_kernel_launches() {
        let gpu = crate::device::GPU_V100;
        let cfg = GpuExecConfig {
            gpu: &gpu,
            colocated: 1,
        };
        let dien = RecModel::build(ModelKind::Dien, ModelScale::Small);
        let din = RecModel::build(ModelKind::Din, ModelScale::Small);
        let a = gpu_batch_cost(&dien.graph, 8, &dien.tables, &cfg);
        let b = gpu_batch_cost(&din.graph, 8, &din.tables, &cfg);
        // At tiny batch the GRU's per-step launches dominate.
        assert!(a.latency.as_secs_f64() > b.latency.as_secs_f64() + 2e-3);
    }

    #[test]
    fn colocation_derate_is_identity_for_one_tenant() {
        // Bitwise 1.0 at *every* intensity — the single-tenant regression
        // proof depends on it.
        for i in [0.0, 0.3, 1.0, f64::NAN, f64::INFINITY, -2.0] {
            assert_eq!(colocation_derate(0, i).to_bits(), 1.0f64.to_bits());
            assert_eq!(colocation_derate(1, i).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn colocation_derate_monotone_and_capped() {
        for intensity in [0.0, 0.5, 1.0] {
            let mut last = 1.0;
            for n in 1..=32 {
                let d = colocation_derate(n, intensity);
                assert!(d >= last, "derate must be non-decreasing in tenants");
                assert!(d <= crate::calib::TENANT_DERATE_CEILING);
                last = d;
            }
            assert!(colocation_derate(2, intensity) > 1.0);
        }
        assert_eq!(
            colocation_derate(32, 1.0),
            crate::calib::TENANT_DERATE_CEILING
        );
    }

    #[test]
    fn colocation_derate_scales_with_corunner_intensity() {
        // Busier co-runners hurt more; intensity is clamped to [0, 1] and
        // non-finite inputs degrade to the worst case.
        let mut last = 1.0;
        for i in 0..=10 {
            let d = colocation_derate(3, i as f64 / 10.0);
            assert!(d >= last, "derate must be non-decreasing in intensity");
            last = d;
        }
        assert!(colocation_derate(3, 1.0) > colocation_derate(3, 0.0));
        assert_eq!(colocation_derate(3, 2.0), colocation_derate(3, 1.0));
        assert_eq!(colocation_derate(3, -1.0), colocation_derate(3, 0.0));
        assert_eq!(colocation_derate(3, f64::NAN), colocation_derate(3, 1.0));
        // Idle co-runners still pay the LLC-pollution floor.
        assert!(colocation_derate(2, 0.0) > 1.0);
    }

    #[test]
    fn modeled_gather_bw_scales_then_saturates() {
        let server = t2();
        let one = modeled_gather_bw_gbs(&server, 1, 1);
        assert!((one - calib::PER_CORE_GATHER_GBS).abs() < 1e-12);
        let ten = modeled_gather_bw_gbs(&server, 10, 1);
        assert!(ten > one, "more threads sustain more gather streams");
        let cap = server.mem.peak_bw_gbs * calib::DDR_GATHER_EFFICIENCY;
        assert!(ten <= cap + 1e-12);
        // Saturates at the socket's gather-derated peak.
        let many = modeled_gather_bw_gbs(&server, 1000, 4);
        assert!((many - cap).abs() < 1e-9);
        assert_eq!(modeled_gather_bw_gbs(&server, 0, 0), one);
    }

    #[test]
    fn cache_plan_hit_rate_monotone_in_capacity() {
        let m = rmc1();
        let mut last = -1.0;
        for mib in [0u64, 1, 4, 16, 64, 256, 4096] {
            let plan = CacheModel::plan(CacheSpec::per_worker_mib(mib), &m.tables);
            let h = plan.overall_hit_rate();
            assert!(
                h >= last,
                "hit rate must be monotone in capacity: {h} < {last} at {mib} MiB"
            );
            assert!((0.0..=1.0).contains(&h));
            last = h;
        }
        // Zero capacity caches nothing; a cache bigger than the tables
        // holds everything.
        let none = CacheModel::plan(CacheSpec::per_worker_mib(0), &m.tables);
        assert_eq!(none.overall_hit_rate(), 0.0);
        let total_mib = m
            .tables
            .iter()
            .map(|t| t.size().as_bytes())
            .sum::<u64>()
            .div_ceil(1 << 20);
        let all = CacheModel::plan(CacheSpec::per_worker_mib(total_mib + 1), &m.tables);
        assert!((all.overall_hit_rate() - 1.0).abs() < 1e-9);
        for (i, t) in m.tables.iter().enumerate() {
            assert_eq!(all.hot_rows(i), t.rows, "saturated plan holds table {i}");
        }
    }

    #[test]
    fn cache_plan_respects_capacity() {
        let m = rmc1();
        for mib in [1u64, 8, 32, 128] {
            let plan = CacheModel::plan(CacheSpec::per_worker_mib(mib), &m.tables);
            let bytes: u64 = m
                .tables
                .iter()
                .enumerate()
                .map(|(i, t)| plan.hot_rows(i) * t.row_bytes())
                .sum();
            assert!(bytes <= mib << 20, "plan overflows {mib} MiB: {bytes} B");
        }
    }

    #[test]
    fn cache_cuts_sparse_latency_and_channel_bytes() {
        let server = t2();
        let m = rmc1();
        let plan = CacheModel::plan(CacheSpec::per_worker_mib(64), &m.tables);
        assert!(plan.overall_hit_rate() > 0.1, "64 MiB must catch hot mass");
        let cold = CpuExecConfig {
            server: &server,
            workers: 1,
            colocated_threads: 10,
            nmp: None,
            cache: None,
        };
        let warm = CpuExecConfig {
            cache: Some(&plan),
            ..cold
        };
        let a = cpu_batch_cost(&m.graph, 256, &m.tables, &cold);
        let b = cpu_batch_cost(&m.graph, 256, &m.tables, &warm);
        assert!(b.latency < a.latency, "cache hits must shorten the stage");
        assert!(b.channel_bytes < a.channel_bytes, "hits skip the channel");
    }

    #[test]
    fn cold_miss_penalty_charges_missed_rows_only() {
        let server = t2();
        let m = rmc1();
        let base = CacheSpec::per_worker_mib(16);
        let slow = CacheSpec {
            cold_miss_penalty: SimDuration::from_micros(1),
            ..base
        };
        let fast_plan = CacheModel::plan(base, &m.tables);
        let slow_plan = CacheModel::plan(slow, &m.tables);
        let cfg = |plan| CpuExecConfig {
            server: &server,
            workers: 1,
            colocated_threads: 10,
            nmp: None,
            cache: Some(plan),
        };
        let a = cpu_batch_cost(&m.graph, 256, &m.tables, &cfg(&fast_plan));
        let b = cpu_batch_cost(&m.graph, 256, &m.tables, &cfg(&slow_plan));
        assert!(b.latency > a.latency, "cold-tier penalty must cost time");

        // A saturating cache makes the penalty irrelevant: no misses.
        let huge = CacheSpec {
            cold_miss_penalty: SimDuration::from_millis(1),
            ..CacheSpec::per_worker_mib(1 << 14)
        };
        let huge = CacheModel::plan(huge, &m.tables);
        let c = cpu_batch_cost(&m.graph, 256, &m.tables, &cfg(&huge));
        assert!(c.latency < a.latency);
    }

    #[test]
    fn nmp_route_takes_precedence_over_cache() {
        // On NMP servers the DIMM-side units already keep gathers local;
        // the cache multiplier must not double-discount the NMP estimate.
        let server3 = ServerType::T3.spec();
        let m = rmc1();
        let sd = sparse_dense(&m);
        let luts = NmpLutSet::standard(server3.mem.total_ranks());
        let plan = CacheModel::plan(CacheSpec::per_worker_mib(64), &m.tables);
        let without = CpuExecConfig {
            server: &server3,
            workers: 1,
            colocated_threads: 4,
            nmp: Some(&luts),
            cache: None,
        };
        let with = CpuExecConfig {
            cache: Some(&plan),
            ..without
        };
        let a = cpu_batch_cost(&sd.sparse, 256, &m.tables, &without);
        let b = cpu_batch_cost(&sd.sparse, 256, &m.tables, &with);
        assert_eq!(a.latency, b.latency, "NMP-routed ops ignore the cache");
    }

    #[test]
    fn measured_efficiency_recalibrates_gather_bw() {
        let server = t2();
        let base = modeled_gather_bw_gbs(&server, 10, 2);
        // Feeding back the calibrated constant itself is a no-op.
        let same = server
            .clone()
            .with_measured_gather_efficiency(calib::DDR_GATHER_EFFICIENCY);
        assert!((modeled_gather_bw_gbs(&same, 10, 2) - base).abs() < 1e-12);
        // A slower measurement scales the whole curve down.
        let slow = server.clone().with_measured_gather_efficiency(0.30);
        let slow_bw = modeled_gather_bw_gbs(&slow, 10, 2);
        assert!(slow_bw < base);
        assert!((slow_bw / base - 0.30 / calib::DDR_GATHER_EFFICIENCY).abs() < 1e-9);
        // Saturation now sits at the measured socket ceiling.
        assert!(
            (modeled_gather_bw_gbs(&slow, 1000, 4) - server.mem.peak_bw_gbs * 0.30).abs() < 1e-9
        );
        // And sparse stage costs move with it.
        let m = rmc1();
        let sd = sparse_dense(&m);
        let mk = |s: &ServerSpec| {
            let cfg = CpuExecConfig {
                server: s,
                workers: 1,
                colocated_threads: 10,
                nmp: None,
                cache: None,
            };
            cpu_batch_cost(&sd.sparse, 256, &m.tables, &cfg).latency
        };
        assert!(mk(&slow) > mk(&server), "slower gathers cost more");
        assert_eq!(mk(&same), mk(&server), "calibrated feedback is identity");
    }

    #[test]
    fn pcie_contention_scales_transfer() {
        let gpu = crate::device::GPU_V100;
        let t1 = pcie_transfer_time(8e6, &gpu, 1);
        let t4 = pcie_transfer_time(8e6, &gpu, 4);
        assert!(t4 > t1.mul_f64(2.5));
        // Setup cost floors tiny transfers.
        assert!(pcie_transfer_time(1.0, &gpu, 1) >= SimDuration::from_micros(12));
    }
}
