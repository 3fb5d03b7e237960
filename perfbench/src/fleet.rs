//! fleet-day: the deterministic virtual fleet replaying one compressed
//! service-A day over a pool of replicas, with cache-weighted shard
//! routing and the autoscaler. No discrete-event simulator and no real
//! memory traffic: its time goes to the virtual stepper, the router and the
//! per-epoch observer snapshots, and its serving outputs are exact.
//!
//! Its traced run also attributes the serving layers on one replica run on
//! the wall clock with real gathers (`serve::trace_layers`).

use std::hint::black_box;
use std::time::Instant;

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_fleet::{run_virtual_fleet, AutoscalerPolicy, FleetConfig, FleetReport, ShardMap};
use hercules_hw::cost::{CacheModel, CacheSpec};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{AdmissionPolicy, DeadlinePolicy, RuntimeConfig, ServingRuntime};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig, SlaSpec};
use hercules_workload::diurnal::DiurnalPattern;
use hercules_workload::generator::QueryStream;
use hercules_workload::query::{Query, QueryId};

use crate::stats::{budget_spent, median, supports_percentile};
use crate::{Ctx, Outcome};

/// One fleet workload's shape.
#[derive(Debug, Clone)]
pub struct Size {
    pub pool: usize,
    pub shards: u32,
    pub epoch_ms: u64,
    pub initial: usize,
    /// Virtual length of the compressed day.
    pub horizon_s: f64,
    pub peak_qps: f64,
    /// Set-ups timed per run (the median is reported).
    pub setup_reps: usize,
    /// The wall-clock replica the traced run attributes serving layers on.
    pub serve: crate::serve::Size,
}

impl Size {
    pub fn full() -> Self {
        Size {
            pool: 64,
            shards: 1024,
            epoch_ms: 50,
            initial: 8,
            horizon_s: 120.0,
            peak_qps: 48_000.0,
            setup_reps: 5,
            serve: crate::serve::Size::full(),
        }
    }

    pub fn tiny() -> Self {
        Size {
            pool: 4,
            shards: 64,
            epoch_ms: 50,
            initial: 1,
            horizon_s: 2.0,
            peak_qps: 2_000.0,
            setup_reps: 1,
            serve: crate::serve::Size::tiny(),
        }
    }
}

fn plan() -> PlacementPlan {
    PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    }
}

/// One service-A day compressed into `horizon`: 24 piecewise-constant
/// hours, each an independent seeded Poisson segment at that hour's rate.
pub fn diurnal_trace(peak: f64, horizon: SimDuration, seed: u64) -> Vec<Query> {
    let pattern = DiurnalPattern::service_a(Qps(peak));
    let hours = 24u64;
    let seg = horizon.mul_f64(1.0 / hours as f64);
    let mut out = Vec::new();
    for h in 0..hours {
        let rate = pattern.load_at_hours(h as f64 + 0.5);
        let start = horizon.mul_f64(h as f64 / hours as f64);
        let mut stream = QueryStream::paper(rate, seed.wrapping_mul(31).wrapping_add(h));
        for q in stream.take_until(SimTime::ZERO + seg) {
            out.push(Query {
                id: QueryId(out.len() as u64),
                arrival: q.arrival + start,
                size: q.size,
            });
        }
    }
    // Segment boundaries can disagree by a rounding nanosecond; the router
    // needs non-decreasing arrivals.
    out.sort_by_key(|q| (q.arrival, q.id.0));
    out
}

fn replica_cfg(horizon: SimDuration, seed: u64, sla: SimDuration) -> RuntimeConfig {
    RuntimeConfig::from_sim(&SimConfig {
        duration: horizon,
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    })
    .with_deadline(DeadlinePolicy::track(sla))
    .with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla), 1.0))
}

/// The fleet's one-time work: the replica pool, the shard-placement cache
/// model, and a warm-up replay of `warm` (the day's first hour), which
/// prices the replicas' cost oracles as the wall-clock runtime does before
/// it serves. The pool alone builds in a fraction of a millisecond, too
/// short to time steadily.
fn set_up(
    size: &Size,
    model: &RecModel,
    cfg: RuntimeConfig,
    fleet_cfg: &FleetConfig,
    warm: &[Query],
) -> (Vec<ServingRuntime>, CacheModel) {
    let luts = NmpLutCache::new();
    let pool: Vec<ServingRuntime> = (0..size.pool)
        .map(|_| {
            ServingRuntime::build(model, ServerType::T2.spec(), &plan(), cfg, &luts)
                .expect("RMC1 on a T2 is a feasible plan")
        })
        .collect();
    let cache = CacheModel::plan(CacheSpec::per_worker_mib(64), &model.tables);
    black_box(run_virtual_fleet(
        &pool,
        Some(&cache),
        fleet_cfg,
        warm,
        Qps(0.0),
    ));
    (pool, cache)
}

/// Bitwise fingerprint of a fleet run, to compare repeats exactly.
fn fingerprint(r: &FleetReport) -> Vec<u64> {
    let mut fp = vec![
        r.routed,
        r.rerouted,
        r.router_dropped,
        u64::from(r.scale_outs),
        u64::from(r.scale_ins),
        u64::from(r.drained),
        r.peak_active as u64,
        r.goodput().value().to_bits(),
    ];
    for rep in &r.replicas {
        let s = &rep.report.sim;
        fp.extend([
            rep.index as u64,
            rep.routed,
            s.completed,
            s.completed_total,
            rep.report.shed,
            rep.report.expired,
            s.p50.as_nanos(),
            s.p99.as_nanos(),
            s.peak_power.value().to_bits(),
            rep.snapshots.len() as u64,
        ]);
    }
    fp
}

/// Queries per second of one replica's stepper replaying its share of the
/// day, epoch by epoch as the fleet drives it, repeated for `secs`.
fn virt_rate(rt: &ServingRuntime, sub: &[Query], epoch: SimDuration, secs: f64) -> f64 {
    let t = Instant::now();
    let mut replayed = 0u64;
    while replayed == 0 || t.elapsed().as_secs_f64() < secs {
        let mut stepper = rt.stepper();
        let horizon = stepper.horizon();
        let mut qi = 0;
        let mut now = SimTime::ZERO;
        while now < horizon {
            let end = (now + epoch).min(horizon);
            while qi < sub.len()
                && (sub[qi].arrival < end || (end == horizon && sub[qi].arrival <= end))
            {
                stepper.inject(sub[qi]);
                qi += 1;
            }
            stepper.step_until(end);
            now = end;
        }
        black_box(stepper.finish(Qps(0.0), None));
        replayed += sub.len() as u64;
    }
    replayed as f64 / t.elapsed().as_secs_f64()
}

pub fn run(ctx: &mut Ctx, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let sla = model.default_sla();
    let horizon = SimDuration::from_secs_f64(size.horizon_s);
    let cfg = replica_cfg(horizon, ctx.seed, sla);

    let trace = diurnal_trace(size.peak_qps, horizon, ctx.seed);
    let offered = Qps(trace.len() as f64 / size.horizon_s);
    let first_hour = SimTime::ZERO + horizon.mul_f64(1.0 / 24.0);
    let warm: Vec<Query> = trace
        .iter()
        .take_while(|q| q.arrival < first_hour)
        .copied()
        .collect();
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(size.epoch_ms),
        shards: size.shards,
        initial_replicas: size.initial,
        autoscaler: Some(AutoscalerPolicy {
            max_replicas: size.pool,
            // Scale in once every replica's queue-wait tail is under half
            // the SLA: at the default 1 ms the day never scales back in.
            wait_in_s: sla.as_secs_f64() / 2.0,
            ..AutoscalerPolicy::default()
        }),
        ..FleetConfig::default()
    };

    let mut setup = Vec::new();
    let mut built = None;
    let id = ctx
        .spans
        .enter("set-up: replica pool and warm-up hour, repeated");
    for _ in 0..size.setup_reps.max(1) {
        drop(built.take());
        let t = Instant::now();
        built = Some(set_up(size, &model, cfg, &fleet_cfg, &warm));
        setup.push(t.elapsed().as_secs_f64());
    }
    ctx.spans.exit(id);
    let (pool, cache) = built.expect("at least one set-up");

    // Timed phase: the day's replay, repeated while the budget allows; the
    // traced run replays twice and spends the rest on the serving layers.
    let phase = Instant::now();
    let mut reps = Vec::new();
    let mut fingerprints = Vec::new();
    let mut report = None;
    loop {
        let id = ctx.spans.enter("fleet::run_virtual_fleet");
        let t = Instant::now();
        let r = run_virtual_fleet(&pool, Some(&cache), &fleet_cfg, &trace, offered);
        reps.push(t.elapsed().as_secs_f64());
        ctx.spans.exit(id);
        fingerprints.push(fingerprint(&r));
        report.get_or_insert(r);
        let done = if ctx.trace {
            reps.len() == 2
        } else {
            budget_spent(phase.elapsed().as_secs_f64(), &reps, ctx.seconds)
        };
        if done {
            break;
        }
    }
    let r = report.expect("one replay");
    eprintln!(
        "fleet-day: {} queries, {} scale-outs, {} scale-ins, peak {} active, {} rerouted, replay {:.2} s",
        r.arrivals, r.scale_outs, r.scale_ins, r.peak_active, r.rerouted, reps[0]
    );
    out.check("fleet report conserves", r.conserves());
    out.check(
        "repeats are bit-identical",
        fingerprints.windows(2).all(|w| w[0] == w[1]),
    );
    out.check(
        "the day scales out and back in",
        r.scale_outs > 0 && r.scale_ins > 0,
    );
    // Replica tails averaged over replicas, weighted by completions, over
    // replicas whose p99 has ten samples beyond it (a replica activated
    // late in the day may complete too few). The worst replica's value, as
    // fig_fleet reports it, sits on a latency-histogram bucket edge and
    // reads the same for most seeds.
    let supported: Vec<&hercules_runtime::RuntimeReport> = r
        .replicas
        .iter()
        .map(|rep| &rep.report)
        .filter(|rep| supports_percentile(rep.sim.completed, 99))
        .collect();
    out.check(
        "some replica's p99 has ten samples beyond it",
        !supported.is_empty(),
    );
    let weighted = |f: fn(&hercules_runtime::RuntimeReport) -> f64| {
        let n: u64 = supported.iter().map(|rep| rep.sim.completed).sum();
        supported
            .iter()
            .map(|rep| f(rep) * rep.sim.completed as f64)
            .sum::<f64>()
            / n.max(1) as f64
    };
    let p50 = weighted(|rep| rep.sim.p50.as_millis_f64());
    let p99 = weighted(|rep| rep.sim.p99.as_millis_f64());

    let id = ctx.spans.enter("runtime::search max_qps_under_sla_live");
    let search = crate::serve::sla_search_qps(&model, &ServerType::T2.spec(), &plan(), ctx.seed);
    ctx.spans.exit(id);
    out.check("virtual rate search found a rate", search > 0.0);

    out.attempted = r.arrivals;
    out.failed = r.shed() + r.expired() + r.router_dropped;
    out.set("goodput_qps", r.goodput().value());
    out.set("p50_ms", p50);
    out.set("p99_ms", p99);
    out.set("run_s", median(&reps).unwrap_or(0.0));
    out.set("setup_s", median(&setup).unwrap_or(0.0));
    out.set(
        "provisioned_kw",
        r.replicas
            .iter()
            .map(|rep| rep.report.sim.peak_power.value())
            .sum::<f64>()
            / 1e3,
    );
    out.set("peak_servers", r.peak_active as f64);
    out.set("search_qps", search);

    if ctx.trace {
        let replay_s = median(&reps).unwrap_or(0.0);
        out.set("fleet.replay_s", replay_s);
        out.set("fleet.queries_per_s", trace.len() as f64 / replay_s);
        out.set("fleet.rerouted", r.rerouted as f64);
        out.set("autoscale.scale_outs", f64::from(r.scale_outs));
        out.set("autoscale.scale_ins", f64::from(r.scale_ins));
        out.set(
            "observe.snapshots",
            r.replicas
                .iter()
                .map(|rep| rep.snapshots.len())
                .sum::<usize>() as f64,
        );

        let id = ctx.spans.enter("fleet::shard ShardMap::route probe");
        let map = ShardMap::place(Some(&cache), size.shards, size.pool);
        let t = Instant::now();
        let mut acc = 0usize;
        for q in &trace {
            acc = acc.wrapping_add(map.route(black_box(q)));
        }
        black_box(acc);
        out.set(
            "shard.route_ns",
            t.elapsed().as_secs_f64() * 1e9 / trace.len().max(1) as f64,
        );
        ctx.spans.exit(id);

        let id = ctx.spans.enter("runtime::virt VirtStepper replay probe");
        let sub: Vec<Query> = trace
            .iter()
            .copied()
            .filter(|q| map.route(q) == 0)
            .collect();
        out.set(
            "virt.queries_per_s",
            virt_rate(&pool[0], &sub, fleet_cfg.epoch, 0.5),
        );
        ctx.spans.exit(id);

        let id = ctx
            .spans
            .enter("serving layers: one replica on the wall clock");
        crate::serve::trace_layers(ctx, &size.serve, ctx.seconds / 2.0, &mut out);
        ctx.spans.exit(id);
    }
    out
}
