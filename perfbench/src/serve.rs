//! The serving layers, attributed in fleet-day's traced run: one replica
//! (RMC1 on a T2, `CpuModel{2, 2, 256}`) on the wall clock with real
//! embedding gathers from a 1 GiB arena, over three times the host's L3,
//! fed open loop at 60 QPS by the runtime's single dispatcher thread.
//!
//! Wall-clock serving is traced, not an end-to-end workload: on a shared
//! two-core virtual machine its p50 and p99 moved by a third from run to
//! run, beyond any bound a regression check could hold it to. The layer
//! numbers it yields (queue wait, service, gather bandwidth against the
//! isolated kernel, the cache-shard path) are what a kernel change is
//! attributed with.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use hercules_common::rng::SimRng;
use hercules_common::units::{MemBytes, Qps, SimDuration, SimTime};
use hercules_hw::cost::{CacheModel, CacheSpec};
use hercules_hw::server::{ServerSpec, ServerType};
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    AdmissionPolicy, CacheOutcome, ClockMode, DeadlinePolicy, EmbeddingArena, EmbeddingCacheShard,
    GatherMode, GatherScratch, InitPlacement, RuntimeConfig, RuntimeObserver, RuntimeReport,
    ServingRuntime, SpanKind, StageKind, TraceConfig, TraceEvent,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SearchOptions, SimConfig, SlaSpec};
use hercules_workload::generator::QueryStream;
use hercules_workload::query::Query;

use crate::spans::self_time;
use crate::stats::quantile;
use crate::{Ctx, Outcome};

/// Items per gather call in the isolated kernel probes: one sub-query at
/// the plan's batch size.
const PROBE_ITEMS: u32 = 256;

/// Per-worker hot tier of the isolated cache-path probe.
const PROBE_CACHE_MIB: u64 = 128;

/// The fixed kernel probe behind the checksum check: arena budget, seed
/// and gather count never change, so neither does the checksum.
const CHECK_ARENA_MIB: u64 = 64;
const CHECK_SEED: u64 = 7;
const CHECK_GATHERS: usize = 32;
/// `GatherOutcome.checksum` summed over the fixed probe, as recorded from
/// the scalar kernel.
const CHECK_CHECKSUM: f64 = 118381770.11621094;

/// The traced replica's shape.
#[derive(Debug, Clone)]
pub struct Size {
    /// Offered open-loop rate.
    pub rate: f64,
    /// Embedding arena budget.
    pub arena_mib: u64,
    /// Length of the warm-up serve that builds the arena.
    pub warm_s: f64,
    /// Gathers per isolated kernel probe.
    pub probe_gathers: usize,
}

impl Size {
    pub fn full() -> Self {
        Size {
            rate: 60.0,
            arena_mib: 1024,
            warm_s: 0.1,
            probe_gathers: 40,
        }
    }

    /// Seconds-long smoke size.
    pub fn tiny() -> Self {
        Size {
            arena_mib: 32,
            warm_s: 0.05,
            probe_gathers: 2,
            ..Size::full()
        }
    }
}

/// Front workers: the plan's two, but never more than the visible cores.
pub fn front_workers() -> u32 {
    (crate::host::nproc() as u32).clamp(1, 2)
}

/// The replica plan every serving measurement uses.
pub fn plan() -> PlacementPlan {
    PlacementPlan::CpuModel {
        threads: front_workers(),
        workers: 2,
        batch: 256,
    }
}

fn runtime_cfg(size: &Size, seconds: f64, seed: u64, sla: SimDuration) -> RuntimeConfig {
    RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_secs_f64(seconds),
        warmup_fraction: 0.05,
        drain_margin: SimDuration::ZERO,
        seed,
    })
    .with_clock(ClockMode::wall())
    .with_gather(GatherMode::real_mib(size.arena_mib))
    .with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla), 1.0))
    .with_deadline(DeadlinePolicy::track(sla))
}

/// The SLA-bounded rate the runtime's own rate search finds for a plan on
/// the virtual clock: the model's prediction of a replica's capacity.
/// Each probe runs 40k queries, so its p99 rests on hundreds of samples and
/// the knee moves little from seed to seed.
pub fn sla_search_qps(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    seed: u64,
) -> f64 {
    let sla = SlaSpec::p99(model.default_sla());
    let cfg = RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_secs(600),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::ZERO,
        seed,
    });
    let opts = SearchOptions {
        target_queries: Some(40_000),
        ..SearchOptions::default()
    };
    hercules_runtime::max_qps_under_sla_live(
        model,
        server,
        plan,
        &sla,
        &cfg,
        &opts,
        &NmpLutCache::new(),
    )
    .ok()
    .flatten()
    .map_or(0.0, |o| o.qps.value())
}

/// Builds a runtime and serves the warm-up trace through it, which builds
/// the arena (lazily, on the first serve).
fn set_up(model: &RecModel, cfg: RuntimeConfig, warm: &[Query], rate: f64) -> ServingRuntime {
    let rt = ServingRuntime::build(
        model,
        ServerType::T2.spec(),
        &plan(),
        cfg,
        &NmpLutCache::new(),
    )
    .expect("RMC1 on a T2 is a feasible plan");
    rt.serve_trace(warm, Qps(rate));
    rt
}

/// Checks the gather kernel against its recorded output: a fixed probe
/// whose checksum must equal the value the scalar kernel produced.
pub fn check_kernel(out: &mut Outcome) {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let arena = EmbeddingArena::build(
        &model.tables,
        MemBytes::from_mib(CHECK_ARENA_MIB),
        CHECK_SEED,
        &InitPlacement::Serial,
    );
    let mut rng = SimRng::seed_from(CHECK_SEED);
    let mut scratch = GatherScratch::with_dim(arena.max_dim());
    let checksum = (0..CHECK_GATHERS)
        .map(|_| arena.gather(PROBE_ITEMS, &mut rng, &mut scratch).checksum)
        .sum();
    out.check_eq(
        "kernel checksum equals the recorded value",
        checksum,
        CHECK_CHECKSUM,
    );
}

fn common_checks(out: &mut Outcome, rep: &RuntimeReport) {
    out.check("runtime report conserves", rep.conserves());
    out.check("no worker failed", rep.worker_failures == 0);
    out.check(
        "gathers ran",
        rep.gather
            .is_some_and(|g| g.bytes > 0 && g.checksum.is_finite()),
    );
}

/// Mean per-query time in the runtime's own query spans: queue wait,
/// gather, and front service minus the gather it contains.
fn span_means(events: &[TraceEvent]) -> (f64, f64, f64) {
    let queries: BTreeSet<u32> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Front)
        .map(|e| e.query)
        .collect();
    let n = queries.len().max(1) as f64;
    let ms = |e: &TraceEvent| e.dur.as_nanos() as f64 / 1e6;
    let sum = |k: SpanKind| -> f64 { events.iter().filter(|e| e.kind == k).map(ms).sum() };
    let mut gathers: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Gather)
        .collect();
    gathers.sort_by_key(|e| (e.query, e.tid, e.start));
    let front_self: f64 = events
        .iter()
        .filter(|e| e.kind == SpanKind::Front)
        .map(|f| {
            let start = f.start.as_nanos() as f64;
            let end = start + f.dur.as_nanos() as f64;
            let lo = gathers.partition_point(|g| (g.query, g.tid) < (f.query, f.tid));
            let children: Vec<(f64, f64)> = gathers[lo..]
                .iter()
                .take_while(|g| (g.query, g.tid) == (f.query, f.tid))
                .map(|g| {
                    let s = g.start.as_nanos() as f64;
                    (s, s + g.dur.as_nanos() as f64)
                })
                .collect();
            self_time(start, end, &children) / 1e6
        })
        .sum();
    (
        sum(SpanKind::Queue) / n,
        sum(SpanKind::Gather) / n,
        front_self / n,
    )
}

/// How late the dispatcher ran, read at each observer tick: when the
/// first query not yet admitted or shed was due before the tick, the
/// dispatcher is behind by at least the difference. The runtime stamps its
/// admit events with the scheduled arrival, so ticks are where lateness
/// shows; this is a lower bound.
fn dispatch_late_ms(obs: &RuntimeObserver, trace: &[Query]) -> Vec<f64> {
    let ticks = obs.history();
    ticks[..ticks.len().saturating_sub(1)]
        .iter()
        .map(|s| {
            let dispatched = (s.cum_admitted + s.cum_shed) as usize;
            match trace.get(dispatched) {
                Some(q) if q.arrival < s.t => s.t.saturating_since(q.arrival).as_millis_f64(),
                _ => 0.0,
            }
        })
        .collect()
}

/// One stream of `gathers` isolated kernel calls, through `cache` when
/// given: GB/s and the cache's hit/miss accounting.
fn kernel_probe(
    arena: &EmbeddingArena,
    gathers: usize,
    mut cache: Option<&mut EmbeddingCacheShard>,
) -> (f64, CacheOutcome) {
    let mut rng = SimRng::seed_from(CHECK_SEED);
    let mut scratch = GatherScratch::with_dim(arena.max_dim());
    let (mut bytes, mut sum, mut stats) = (0u64, 0.0f64, CacheOutcome::default());
    let t = Instant::now();
    for _ in 0..gathers {
        let outcome = match cache.as_deref_mut() {
            Some(shard) => {
                let (o, c) = arena.gather_cached(PROBE_ITEMS, &mut rng, &mut scratch, shard);
                stats.absorb(&c);
                o
            }
            None => arena.gather(PROBE_ITEMS, &mut rng, &mut scratch),
        };
        bytes += outcome.bytes;
        sum += outcome.checksum;
    }
    black_box(sum);
    (bytes as f64 / t.elapsed().as_secs_f64() / 1e9, stats)
}

/// Serves `seconds` of the seeded trace twice, untraced and then with every
/// query traced (the difference is the tracing overhead), times the
/// isolated kernels, and records the serving layers' metrics.
pub fn trace_layers(ctx: &mut Ctx, size: &Size, seconds: f64, out: &mut Outcome) {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(seconds);
    let trace = QueryStream::paper(Qps(size.rate), ctx.seed).take_until(horizon);
    let warm = QueryStream::paper(Qps(size.rate), ctx.seed ^ 0x5EED_0F3A)
        .take_until(SimTime::ZERO + SimDuration::from_secs_f64(size.warm_s));
    let cfg = runtime_cfg(size, seconds, ctx.seed, model.default_sla());

    let id = ctx.spans.enter("runtime::wall untraced serve");
    let rt = set_up(&model, cfg, &warm, size.rate);
    let mut obs_plain = RuntimeObserver::every(SimDuration::from_secs(1));
    let plain = rt.serve_trace_observed(&trace, Qps(size.rate), Some(&mut obs_plain));
    drop(rt);
    ctx.spans.exit(id);

    let ring = (trace.len() as u32).saturating_mul(8).max(4096);
    let traced_cfg = cfg.with_trace(TraceConfig {
        sample_one_in: 1,
        ring_capacity: ring,
    });
    let id = ctx.spans.enter("runtime::wall traced serve");
    let setup_id = ctx.spans.enter("runtime set-up and warm-up serve");
    let rt = set_up(&model, traced_cfg, &warm, size.rate);
    ctx.spans.exit(setup_id);
    let mut obs = RuntimeObserver::every(SimDuration::from_millis(5));
    let serve_id = ctx.spans.enter("ServingRuntime::serve_trace_observed");
    let offset = ctx.spans.now_us();
    let rep = rt.serve_trace_observed(&trace, Qps(size.rate), Some(&mut obs));
    ctx.spans.exit(serve_id);
    drop(rt);
    ctx.spans.exit(id);
    common_checks(out, &rep);
    common_checks(out, &plain);
    let events = rep.trace.clone().unwrap_or_default();
    out.check("query spans were recorded", !events.is_empty());
    let (queue_ms, gather_ms, front_self_ms) = span_means(&events);
    ctx.spans.add_queries(offset, events);

    let tables = &model.tables;
    let id = ctx.spans.enter("EmbeddingArena::build");
    let t = Instant::now();
    let arena = EmbeddingArena::build(
        tables,
        MemBytes::from_mib(size.arena_mib),
        ctx.seed,
        &InitPlacement::Serial,
    );
    let arena_build_s = t.elapsed().as_secs_f64();
    ctx.spans.exit(id);
    let id = ctx.spans.enter("EmbeddingArena::gather probe");
    let (kernel, _) = kernel_probe(&arena, size.probe_gathers, None);
    ctx.spans.exit(id);
    let id = ctx.spans.enter("EmbeddingArena::gather_cached probe");
    let cache_model = CacheModel::plan(CacheSpec::per_worker_mib(PROBE_CACHE_MIB), tables);
    let mut shard = arena.cache_shard(&cache_model);
    let (cached, cache) = kernel_probe(&arena, size.probe_gathers, Some(&mut shard));
    ctx.spans.exit(id);
    drop(arena);

    let wall = rep.wall_elapsed_s.unwrap_or(0.0);
    if let Some(f) = rep.stages.iter().find(|s| s.stage == StageKind::Front) {
        out.set("wall.queue_wait_p50_ms", f.queue_wait_p50.as_millis_f64());
        out.set("wall.queue_wait_p99_ms", f.queue_wait_p99.as_millis_f64());
        out.set("wall.service_p50_ms", f.service_p50.as_millis_f64());
        out.set("wall.service_p99_ms", f.service_p99.as_millis_f64());
        let busy = f.busy.as_secs_f64();
        out.set(
            "wall.front_util",
            busy / (wall * f.workers as f64).max(1e-9),
        );
        if let Some(g) = rep.gather {
            out.set("memory.gather_share", g.wall_s / busy.max(1e-9));
        }
    }
    let last = trace.last().map_or(0.0, |q| q.arrival.as_secs_f64());
    out.set("wall.drain_s", wall - last);
    let late = dispatch_late_ms(&obs, &trace);
    out.set(
        "wall.dispatch_late_p99_ms",
        quantile(&late, 0.99).unwrap_or(0.0),
    );
    out.set("admission.shed_frac", rep.shed_fraction());
    let gather_gbs = rep.gather.map_or(0.0, |g| g.achieved_gbs());
    out.set("memory.gather_gbs", gather_gbs);
    out.set("memory.kernel_gbs", kernel);
    out.set("memory.kernel_efficiency", gather_gbs / kernel.max(1e-9));
    out.set("memory.arena_build_s", arena_build_s);
    out.set("memory.hit_rate", cache.hit_rate());
    out.set("memory.predicted_hit_rate", cache_model.overall_hit_rate());
    out.set("memory.inserted", cache.inserted as f64);
    out.set("memory.cached_kernel_gbs", cached);
    out.set("span.queue_ms", queue_ms);
    out.set("span.gather_ms", gather_ms);
    out.set("span.front_self_ms", front_self_ms);
    out.set(
        "trace.overhead_frac",
        rep.sim.p50.as_secs_f64() / plain.sim.p50.as_secs_f64().max(1e-12) - 1.0,
    );
}
