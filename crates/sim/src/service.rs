//! Service-model construction: folds (model, server, placement plan) into
//! per-stage batch-cost functions the event loop's hooks call, and the
//! stage facts every clock reads off the built [`Topology`]: its pools
//! ([`StageKind`]) and their sizes, where arrivals enter, and where each
//! pool forwards.
//!
//! The operator-fusion pass runs here (paper Fig. 9a: fusion happens during
//! HW-aware model partition), hot-embedding partitioning sizes `Gs.hot` to
//! `accelerator memory / co-located threads`, and NMP LUTs are reused via an
//! explicit caller-owned [`NmpLutCache`] — no process-global state, so
//! parallel evaluations decide their own sharing.

use std::sync::{Arc, OnceLock};

use hercules_common::units::MemBytes;
use hercules_hw::cost::{
    cpu_batch_cost, gpu_batch_cost, BatchCost, CacheModel, CpuExecConfig, GpuExecConfig,
};
use hercules_hw::nmp::{NmpLutCache, NmpLutSet};
use hercules_hw::server::ServerSpec;
use hercules_model::fusion::fuse_elementwise;
use hercules_model::graph::Graph;
use hercules_model::partition::{hot_partition, sparse_dense};
use hercules_model::table::{EmbeddingTableSpec, PoolingSpec};
use hercules_model::zoo::RecModel;
use hercules_workload::query::QuerySizeDist;

use crate::config::{validate_plan, PlacementPlan, PlanError};

/// Batch sizes are quantized to this granularity before hitting the cost
/// cache, bounding the distinct cost computations per stage.
const BATCH_QUANTUM: u32 = 32;

/// The quanta a batch of `items` is priced as (at least one): the batch is
/// priced at `quanta(items) * BATCH_QUANTUM` items.
fn quanta(items: u32) -> u32 {
    items.div_ceil(BATCH_QUANTUM).max(1)
}

/// Where a stage executes.
#[derive(Debug, Clone)]
enum StageDevice {
    Cpu {
        server: ServerSpec,
        workers: u32,
        colocated_threads: u32,
        nmp: Option<Arc<NmpLutSet>>,
    },
    Gpu {
        server: ServerSpec,
        colocated: u32,
    },
}

/// A memoized per-batch cost function for one pipeline stage.
///
/// The memo holds one lazily filled slot per batch quantum up to the
/// largest batch the plan forms through the stage, so a lookup is an index
/// and an atomic load, and a cost is lent out by reference for as long as
/// the stage lives. The slots are [`OnceLock`]s, so a built [`Topology`]
/// is `Send + Sync`: parallel searchers can build and drive topologies
/// from worker threads. A larger batch (only a caller's own oversized
/// query reaches one, through a stage that serves whole queries) is priced
/// into an append-only list past the slots.
#[derive(Debug)]
pub struct StageService {
    graph: Graph,
    tables: Vec<EmbeddingTableSpec>,
    device: StageDevice,
    /// Embedding-tier cache plan for CPU stages on cache-provisioned
    /// servers (`ServerSpec::cache`); `None` keeps costs cache-oblivious.
    cache_model: Option<CacheModel>,
    /// Slot `i` holds the cost of `i + 1` quanta.
    slots: Box<[OnceLock<BatchCost>]>,
    overflow: OnceLock<Box<Overflow>>,
}

/// A cost priced past a stage's slots: one node of an append-only list.
#[derive(Debug)]
struct Overflow {
    quanta: u32,
    cost: BatchCost,
    next: OnceLock<Box<Overflow>>,
}

impl StageService {
    /// A stage whose largest planned batch is `largest` items.
    fn new(
        graph: Graph,
        tables: Vec<EmbeddingTableSpec>,
        device: StageDevice,
        largest: u32,
    ) -> Self {
        // The hot tier lives with the gathering CPU workers; GPU stages
        // already model their own hot partition (Fig. 10a).
        let cache_model = match &device {
            StageDevice::Cpu { server, .. } => {
                server.cache.map(|spec| CacheModel::plan(spec, &tables))
            }
            StageDevice::Gpu { .. } => None,
        };
        StageService {
            graph,
            tables,
            device,
            cache_model,
            slots: (0..quanta(largest)).map(|_| OnceLock::new()).collect(),
            overflow: OnceLock::new(),
        }
    }

    /// Cost of one batch of `items` through this stage, quantized and
    /// memoized: once its quantum is priced, a lookup neither locks nor
    /// allocates.
    pub fn cost(&self, items: u32) -> &BatchCost {
        let q = quanta(items);
        match self.slots.get(q as usize - 1) {
            Some(slot) => slot.get_or_init(|| self.price(q)),
            None => self.overflow_cost(q),
        }
    }

    /// Finds or appends `q` quanta's cost in the overflow list. Racing
    /// appenders each fill one link; a loser walks on past the winner.
    fn overflow_cost(&self, q: u32) -> &BatchCost {
        let mut link = &self.overflow;
        loop {
            let node = link.get_or_init(|| {
                Box::new(Overflow {
                    quanta: q,
                    cost: self.price(q),
                    next: OnceLock::new(),
                })
            });
            if node.quanta == q {
                return &node.cost;
            }
            link = &node.next;
        }
    }

    /// Prices a batch of `q` quanta with the roofline model.
    fn price(&self, q: u32) -> BatchCost {
        let batch = u64::from(q) * u64::from(BATCH_QUANTUM);
        match &self.device {
            StageDevice::Cpu {
                server,
                workers,
                colocated_threads,
                nmp,
            } => {
                let cfg = CpuExecConfig {
                    server,
                    workers: *workers,
                    colocated_threads: *colocated_threads,
                    nmp: nmp.as_deref(),
                    cache: self.cache_model.as_ref(),
                };
                cpu_batch_cost(&self.graph, batch, &self.tables, &cfg)
            }
            StageDevice::Gpu { server, colocated } => {
                let gpu = server.gpu.as_ref().expect("gpu stage on gpu server");
                let cfg = GpuExecConfig {
                    gpu,
                    colocated: *colocated,
                };
                gpu_batch_cost(&self.graph, batch, &self.tables, &cfg)
            }
        }
    }

    /// The stage's graph (for inspection/tests).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The embedding tables this stage's graph gathers from (for GPU
    /// hot-partition plans, the front stage sees pooling-scaled *cold*
    /// shares). The live runtime sizes its synthetic gather arenas from
    /// these specs.
    pub fn tables(&self) -> &[EmbeddingTableSpec] {
        &self.tables
    }

    /// The embedding-tier cache plan this stage prices gathers with, when
    /// its server provisions one. The live runtime builds its per-worker
    /// LRU shards from the same plan, so the simulated and measured
    /// hierarchies agree.
    pub fn cache_model(&self) -> Option<&CacheModel> {
        self.cache_model.as_ref()
    }
}

/// The host-side front stage (SparseNet, cold-sparse pre-pooling, or the
/// whole model under CPU model-based scheduling).
#[derive(Debug)]
pub struct FrontStage {
    /// Parallel inference threads in this pool.
    pub threads: u32,
    /// The stage cost function.
    pub svc: StageService,
}

/// What follows the front stage.
#[derive(Debug)]
pub enum BackStage {
    /// Nothing: front-stage completion completes the sub-query.
    None,
    /// A host DenseNet pool (CPU S-D pipeline).
    HostPool {
        /// Parallel dense threads (one operator worker each).
        threads: u32,
        /// Dense-stage cost function.
        svc: StageService,
    },
    /// The accelerator: query fusion + PCIe loading + co-located contexts.
    Gpu {
        /// Co-located model instances.
        colocated: u32,
        /// Fusion limit in items (`None`: one sub-query per launch).
        fusion_limit: Option<u32>,
        /// Host-to-device bytes per batch item.
        bytes_per_item: f64,
        /// GPU-stage cost function.
        svc: StageService,
    },
}

/// Which pool of a topology a worker serves in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Host front pool (SparseNet, cold-sparse pre-pooling, or the whole
    /// model under CPU model-based scheduling).
    Front,
    /// Host dense pool (S-D pipeline back stage).
    Back,
    /// Accelerator contexts (query fusion + PCIe loading).
    Gpu,
}

impl StageKind {
    /// Every pool, in pipeline order.
    pub const ALL: [StageKind; 3] = [StageKind::Front, StageKind::Back, StageKind::Gpu];

    /// Position in [`StageKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::Front => "front",
            StageKind::Back => "back",
            StageKind::Gpu => "gpu",
        }
    }
}

/// A fully-built execution topology for one (model, server, plan) triple.
#[derive(Debug)]
pub struct Topology {
    /// Optional host stage.
    pub front: Option<FrontStage>,
    /// The completing stage.
    pub back: BackStage,
    /// Sub-query split size (`None`: whole queries flow to fusion).
    pub split_batch: Option<u32>,
    /// Fraction of embedding traffic served on-accelerator (1.0 when the
    /// model is fully GPU-resident; relevant for production-scale models).
    pub hot_hit_rate: f64,
}

impl Topology {
    /// Workers per pool, in [`StageKind`] order: front threads, host back
    /// threads, GPU contexts (zero for a pool the plan does not have).
    pub fn workers(&self) -> [u32; 3] {
        let front = self.front.as_ref().map_or(0, |f| f.threads);
        match self.back {
            BackStage::None => [front, 0, 0],
            BackStage::HostPool { threads, .. } => [front, threads, 0],
            BackStage::Gpu { colocated, .. } => [front, 0, colocated],
        }
    }

    /// The pool arrivals enter: the front pool, or the GPU fusion queue
    /// when the plan has no host stage.
    pub fn ingress(&self) -> StageKind {
        if self.front.is_some() {
            StageKind::Front
        } else {
            StageKind::Gpu
        }
    }

    /// Where a sub-query goes once `stage` has served it: the next pool,
    /// or `None` when `stage` completes it.
    pub fn after(&self, stage: StageKind) -> Option<StageKind> {
        match (stage, &self.back) {
            (StageKind::Front, BackStage::HostPool { .. }) => Some(StageKind::Back),
            (StageKind::Front, BackStage::Gpu { .. }) => Some(StageKind::Gpu),
            _ => None,
        }
    }

    /// The cost function of CPU pool `stage`: the front pool, or the host
    /// dense pool of an S-D pipeline.
    ///
    /// # Panics
    ///
    /// Panics when the plan has no such CPU pool.
    #[inline]
    pub fn cpu_service(&self, stage: StageKind) -> &StageService {
        match (stage, &self.front, &self.back) {
            (StageKind::Front, Some(front), _) => &front.svc,
            (StageKind::Back, _, BackStage::HostPool { svc, .. }) => svc,
            _ => panic!("no CPU pool serves the {} stage", stage.label()),
        }
    }
}

/// Scales every table's pooling range by `factor` (used to split gather
/// traffic between hot/GPU and cold/host shares).
fn scale_tables(tables: &[EmbeddingTableSpec], factor: f64) -> Vec<EmbeddingTableSpec> {
    tables
        .iter()
        .map(|t| {
            let pooling = match t.pooling {
                PoolingSpec::OneHot => PoolingSpec::OneHot,
                PoolingSpec::MultiHot { min, max } => {
                    let lo = ((min as f64 * factor).round() as u32).max(1);
                    let hi = ((max as f64 * factor).round() as u32).max(lo);
                    PoolingSpec::MultiHot { min: lo, max: hi }
                }
                PoolingSpec::Sequence { min, max } => {
                    let lo = ((min as f64 * factor).round() as u32).max(1);
                    let hi = ((max as f64 * factor).round() as u32).max(lo);
                    PoolingSpec::Sequence { min: lo, max: hi }
                }
            };
            EmbeddingTableSpec::new(t.rows, t.dim, pooling, t.locality_exponent)
        })
        .collect()
}

/// Builds the execution topology for `plan` on `server` serving `model`.
///
/// NMP LUT reuse flows through `luts`, owned by the caller: searchers and
/// profilers hand the same cache to every build so the cycle-level sweep is
/// paid once per rank count, while independent contexts can keep separate
/// caches without touching global state.
///
/// # Errors
///
/// Returns a [`PlanError`] when the plan is structurally infeasible (see
/// [`validate_plan`]); additionally, a GPU plan for a model that does not
/// fit the accelerator whole requires `host_sparse_threads > 0` for the
/// cold-sparse stage.
pub fn build_topology(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    luts: &NmpLutCache,
) -> Result<Topology, PlanError> {
    validate_plan(plan, server, model)?;
    let nmp = server
        .mem
        .nmp_ways
        .map(|_| luts.get_or_build(server.mem.total_ranks()));
    // One constructor per pool kind: a host CPU pool, whose sub-queries
    // are at most `batch` items, and the GPU stage, which fuses up to its
    // limit but always takes a whole sub-query (or query, when `split` is
    // `None`: the stream's largest).
    let cpu_pool = |threads, graph, tables, workers, colocated_threads, batch| FrontStage {
        threads,
        svc: StageService::new(
            graph,
            tables,
            StageDevice::Cpu {
                server: server.clone(),
                workers,
                colocated_threads,
                nmp: nmp.clone(),
            },
            batch,
        ),
    };
    let gpu_stage = |colocated,
                     fusion_limit: Option<u32>,
                     bytes_per_item,
                     graph,
                     tables,
                     split: Option<u32>| {
        let largest_query = QuerySizeDist::paper().bounds().1;
        let largest = fusion_limit
            .unwrap_or(0)
            .max(split.unwrap_or(largest_query));
        BackStage::Gpu {
            colocated,
            fusion_limit,
            bytes_per_item,
            svc: StageService::new(
                graph,
                tables,
                StageDevice::Gpu {
                    server: server.clone(),
                    colocated,
                },
                largest,
            ),
        }
    };

    match *plan {
        PlacementPlan::CpuModel {
            threads,
            workers,
            batch,
        } => Ok(Topology {
            front: Some(cpu_pool(
                threads,
                fuse_elementwise(&model.graph).0,
                model.tables.clone(),
                workers,
                threads,
                batch,
            )),
            back: BackStage::None,
            split_batch: Some(batch),
            hot_hit_rate: 0.0,
        }),
        PlacementPlan::CpuSdPipeline {
            sparse_threads,
            sparse_workers,
            dense_threads,
            batch,
        } => {
            let sd = sparse_dense(model);
            let total_threads = sparse_threads + dense_threads;
            let front = cpu_pool(
                sparse_threads,
                sd.sparse,
                model.tables.clone(),
                sparse_workers,
                total_threads,
                batch,
            );
            let dense = cpu_pool(
                dense_threads,
                fuse_elementwise(&sd.dense).0,
                model.tables.clone(),
                1,
                total_threads,
                batch,
            );
            Ok(Topology {
                front: Some(front),
                back: BackStage::HostPool {
                    threads: dense.threads,
                    svc: dense.svc,
                },
                split_batch: Some(batch),
                hot_hit_rate: 0.0,
            })
        }
        PlacementPlan::GpuModel {
            colocated,
            fusion_limit,
            host_sparse_threads,
            host_batch,
        } => {
            let gpu = server.gpu.as_ref().expect("validated");
            let fits_whole =
                MemBytes::from_bytes(model.total_table_size().as_bytes() * colocated as u64)
                    <= gpu.memory;
            if !fits_whole && host_sparse_threads == 0 {
                return Err(PlanError::ZeroParameter);
            }
            let (graph, _) = fuse_elementwise(&model.graph);
            if fits_whole {
                let bytes_per_item =
                    model.graph.loading_bytes_per_item(&model.tables) + model.dense_in as f64 * 4.0;
                return Ok(Topology {
                    front: None,
                    back: gpu_stage(
                        colocated,
                        fusion_limit,
                        bytes_per_item,
                        graph,
                        model.tables.clone(),
                        None,
                    ),
                    split_batch: None,
                    hot_hit_rate: 1.0,
                });
            }
            // Capacity budget per thread: memory / co-location, with 10%
            // headroom for dense weights and activations (§IV-B).
            let budget =
                MemBytes::from_bytes((gpu.memory.as_f64() * 0.9 / colocated as f64) as u64);
            let hot = hot_partition(model, budget);
            let hit = hot.overall_hit_rate;
            let bytes_per_item = hot.loading_bytes_per_item + model.dense_in as f64 * 4.0;
            Ok(Topology {
                // Host pre-pools the cold share of the SparseNet.
                front: Some(cpu_pool(
                    host_sparse_threads,
                    hot.gs_hot,
                    scale_tables(&model.tables, 1.0 - hit),
                    1,
                    host_sparse_threads,
                    host_batch,
                )),
                // GPU runs Gs.hot + Gd: the full graph with gather traffic
                // scaled to the hot share.
                back: gpu_stage(
                    colocated,
                    fusion_limit,
                    bytes_per_item,
                    graph,
                    scale_tables(&model.tables, hit),
                    Some(host_batch),
                ),
                split_batch: Some(host_batch),
                hot_hit_rate: hit,
            })
        }
        PlacementPlan::HybridSdPipeline {
            sparse_threads,
            sparse_workers,
            gpu_colocated,
            fusion_limit,
            batch,
        } => {
            let sd = sparse_dense(model);
            let bytes_per_item = sd.cut_bytes_per_item + model.dense_in as f64 * 4.0;
            Ok(Topology {
                front: Some(cpu_pool(
                    sparse_threads,
                    sd.sparse,
                    model.tables.clone(),
                    sparse_workers,
                    sparse_threads,
                    batch,
                )),
                back: gpu_stage(
                    gpu_colocated,
                    fusion_limit,
                    bytes_per_item,
                    fuse_elementwise(&sd.dense).0,
                    model.tables.clone(),
                    Some(batch),
                ),
                split_batch: Some(batch),
                hot_hit_rate: 0.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    /// Test shorthand: build with a fresh, private LUT cache.
    fn build(
        model: &RecModel,
        server: &ServerSpec,
        plan: &PlacementPlan,
    ) -> Result<Topology, PlanError> {
        build_topology(model, server, plan, &NmpLutCache::new())
    }

    #[test]
    fn topology_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Topology>();
        assert_send_sync::<StageService>();
    }

    #[test]
    fn quantization_bounds_cache() {
        assert_eq!(quanta(0), 1);
        assert_eq!(quanta(1), 1);
        assert_eq!(quanta(32), 1);
        assert_eq!(quanta(33), 2);
        assert_eq!(quanta(1000), 32);
        assert_eq!(quanta(u32::MAX), 1 << 27);
    }

    #[test]
    fn cpu_model_topology_shape() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let t = build(
            &m,
            &server,
            &PlacementPlan::CpuModel {
                threads: 10,
                workers: 2,
                batch: 256,
            },
        )
        .unwrap();
        assert!(t.front.is_some());
        assert!(matches!(t.back, BackStage::None));
        assert_eq!(t.split_batch, Some(256));
        let front = t.front.unwrap();
        assert_eq!(front.threads, 10);
        // Fusion removed the stand-alone activations.
        assert!(front.svc.graph().len() < m.graph.len());
    }

    #[test]
    fn sd_topology_splits_graph() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let t = build(
            &m,
            &server,
            &PlacementPlan::CpuSdPipeline {
                sparse_threads: 6,
                sparse_workers: 2,
                dense_threads: 8,
                batch: 128,
            },
        )
        .unwrap();
        let front = t.front.as_ref().unwrap();
        assert_eq!(front.svc.graph().len(), 10); // 10 SLS ops
        match &t.back {
            BackStage::HostPool { threads, svc } => {
                assert_eq!(*threads, 8);
                assert!(!svc.graph().is_empty());
            }
            other => panic!("expected host pool, got {other:?}"),
        }
    }

    #[test]
    fn small_model_rides_gpu_whole() {
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Small);
        let server = ServerType::T7.spec();
        let t = build(
            &m,
            &server,
            &PlacementPlan::GpuModel {
                colocated: 4,
                fusion_limit: Some(2000),
                host_sparse_threads: 0,
                host_batch: 256,
            },
        )
        .unwrap();
        assert!(t.front.is_none(), "small model needs no host stage");
        assert_eq!(t.hot_hit_rate, 1.0);
        assert!(t.split_batch.is_none());
    }

    #[test]
    fn production_model_gets_hot_partition() {
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production);
        let server = ServerType::T7.spec();
        let t = build(
            &m,
            &server,
            &PlacementPlan::GpuModel {
                colocated: 2,
                fusion_limit: Some(4000),
                host_sparse_threads: 6,
                host_batch: 256,
            },
        )
        .unwrap();
        assert!(t.front.is_some(), "prod model needs host cold stage");
        assert!(t.hot_hit_rate > 0.0 && t.hot_hit_rate < 1.0);
        match &t.back {
            BackStage::Gpu { bytes_per_item, .. } => assert!(*bytes_per_item > 0.0),
            other => panic!("expected gpu, got {other:?}"),
        }
    }

    #[test]
    fn production_gpu_plan_requires_host_threads() {
        let m = RecModel::build(ModelKind::DlrmRmc3, ModelScale::Production);
        let server = ServerType::T7.spec();
        let err = build(
            &m,
            &server,
            &PlacementPlan::GpuModel {
                colocated: 2,
                fusion_limit: Some(4000),
                host_sparse_threads: 0,
                host_batch: 256,
            },
        )
        .unwrap_err();
        assert_eq!(err, PlanError::ZeroParameter);
    }

    #[test]
    fn stage_cost_caches_and_scales() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let t = build(
            &m,
            &server,
            &PlacementPlan::CpuModel {
                threads: 4,
                workers: 1,
                batch: 512,
            },
        )
        .unwrap();
        let svc = &t.front.unwrap().svc;
        let a = svc.cost(100);
        let b = svc.cost(128); // same quantization bucket
        assert_eq!(a.latency, b.latency);
        let c = svc.cost(512);
        assert!(c.latency > a.latency);
    }

    #[test]
    fn batches_past_the_slots_price_like_planned_ones() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = |batch| PlacementPlan::CpuModel {
            threads: 4,
            workers: 1,
            batch,
        };
        let small = build(&m, &server, &plan(64)).unwrap();
        let large = build(&m, &server, &plan(2048)).unwrap();
        let (small, large) = (&small.front.unwrap().svc, &large.front.unwrap().svc);
        assert_eq!(small.slots.len(), 2);
        for items in [1000, 65, 2048, 1000, 1500] {
            assert_eq!(small.cost(items).per_op, large.cost(items).per_op);
            assert_eq!(small.cost(items).latency, large.cost(items).latency);
        }
        // One overflow node per distinct quantum, lent out stably.
        assert!(std::ptr::eq(small.cost(993), small.cost(1000)));
        let mut nodes = 0;
        let mut link = &small.overflow;
        while let Some(node) = link.get() {
            nodes += 1;
            link = &node.next;
        }
        assert_eq!(nodes, 4, "quanta 32, 3, 64 and 47");
    }

    #[test]
    fn cache_provisioned_server_prices_cheaper_front_stage() {
        use hercules_hw::cost::CacheSpec;
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let plain = ServerType::T2.spec();
        let cached = ServerType::T2
            .spec()
            .with_embedding_cache(CacheSpec::per_worker_mib(64));
        let a = build(&m, &plain, &plan).unwrap();
        let b = build(&m, &cached, &plan).unwrap();
        let fa = a.front.unwrap();
        let fb = b.front.unwrap();
        assert!(fa.svc.cache_model().is_none());
        let model = fb.svc.cache_model().expect("cache plan built");
        assert!(model.overall_hit_rate() > 0.0);
        assert!(
            fb.svc.cost(256).latency < fa.svc.cost(256).latency,
            "hot-tier hits must shorten the sparse stage"
        );
    }

    #[test]
    fn scale_tables_halves_pooling() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let scaled = scale_tables(&m.tables, 0.5);
        assert_eq!(scaled[0].avg_pooling(), m.tables[0].avg_pooling() / 2);
        // Scaling never reaches zero pooling.
        let tiny = scale_tables(&m.tables, 0.0001);
        assert!(tiny.iter().all(|t| t.avg_pooling() >= 1));
    }
}
