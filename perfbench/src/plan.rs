//! plan-day: the paper's two-stage planner, single-threaded.
//!
//! Stage 1 profiles RMC1 on a CPU (T2), an NMP (T3) and a GPU (T7) server
//! with the gradient search. Stage 2 provisions Day-D2, at four-hour
//! intervals, on the Fig. 17 fleet with the branch-and-bound Hercules
//! scheduler, over a table of the stage-1 cells plus the other 57 cells,
//! which were profiled once with the same options and are frozen in
//! `cells.txt`. Greedy runs once as the reference. Both stages together
//! last several seconds, so a run repeats them and reports the median.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hercules_common::units::{Qps, SimDuration, Watts};
use hercules_core::cluster::online::{
    evolution_traces, run_online, ClusterRunReport, WorkloadTrace,
};
use hercules_core::cluster::policies::{GreedyScheduler, HerculesScheduler, SolverChoice};
use hercules_core::cluster::{Allocation, ProvisionError, ProvisionRequest, Provisioner};
use hercules_core::eval::{CachedEvaluator, EvalContext};
use hercules_core::profiler::{
    profile, EfficiencyEntry, EfficiencyTable, ProfilerConfig, RankMetric,
};
use hercules_core::search::gradient::GradientOptions;
use hercules_core::search::hercules_task_search;
use hercules_hw::cost::{cpu_batch_cost, CpuExecConfig};
use hercules_hw::server::{Fleet, ServerType};
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{simulate_cached, NmpLutCache, PlacementPlan, SimConfig, SimReport, SlaSpec};
use hercules_workload::diurnal::DiurnalPattern;
use hercules_workload::evolution::EvolutionSchedule;

use crate::spans::Spans;
use crate::stats::{budget_spent, geomean, median, supports_percentile};
use crate::{Ctx, Outcome};

/// The frozen cells and the Day-D2 peak they were sized for.
const CELLS: &str = include_str!("../cells.txt");

/// Seed of every profiling run, the frozen cells' and stage 1's alike.
/// Searches on different seeds walk different paths and cost up to ~8%
/// more or less time, so a fixed seed keeps stage 1's work the same from
/// run to run; the workload seed drives the Day-D2 load noise and the
/// simulated replica behind the latency percentiles.
const PROFILER_SEED: u64 = 0xFACE;

/// Over-provisioning headroom `R` for every stage-2 run.
const OVER_PROVISION: f64 = 0.05;

/// One planning workload's shape.
#[derive(Debug, Clone)]
pub struct Size {
    pub models: Vec<ModelKind>,
    pub servers: Vec<ServerType>,
    pub gradient: GradientOptions,
    /// Provisioning interval of the Day-D2 traces.
    pub interval_minutes: u32,
    pub setup_reps: usize,
    /// Simulated queries behind plan-day's latency percentiles.
    pub des_queries: u32,
}

/// The search ladder of both stage 1 and the frozen cells.
pub fn ladder() -> GradientOptions {
    GradientOptions {
        batch_levels: vec![256],
        fusion_levels: vec![2048],
        host_thread_levels: vec![8],
        max_gpu_colocated: 2,
        parallelism: 1,
    }
}

impl Size {
    pub fn full() -> Self {
        Size {
            models: vec![ModelKind::DlrmRmc1],
            servers: vec![ServerType::T2, ServerType::T3, ServerType::T7],
            gradient: ladder(),
            interval_minutes: 240,
            setup_reps: 5,
            des_queries: 40_000,
        }
    }

    pub fn tiny() -> Self {
        Size {
            models: vec![ModelKind::DlrmRmc1],
            servers: vec![ServerType::T2],
            gradient: ladder(),
            interval_minutes: 720,
            setup_reps: 1,
            des_queries: 2_000,
        }
    }
}

pub fn profiler_cfg(gradient: &GradientOptions, seed: u64) -> ProfilerConfig {
    ProfilerConfig {
        gradient: gradient.clone(),
        seed,
        ..ProfilerConfig::quick()
    }
    .with_parallelism(1)
}

// ── Frozen cells ───────────────────────────────────────────────────────────

fn model_named(s: &str) -> Option<ModelKind> {
    ModelKind::ALL.into_iter().find(|m| format!("{m:?}") == s)
}

fn server_named(s: &str) -> Option<ServerType> {
    ServerType::ALL.into_iter().find(|t| format!("{t:?}") == s)
}

fn fusion_text(f: Option<u32>) -> String {
    f.map_or("-".to_string(), |f| f.to_string())
}

pub fn plan_text(p: &PlacementPlan) -> String {
    match *p {
        PlacementPlan::CpuModel {
            threads,
            workers,
            batch,
        } => format!("cpu {threads} {workers} {batch}"),
        PlacementPlan::CpuSdPipeline {
            sparse_threads,
            sparse_workers,
            dense_threads,
            batch,
        } => {
            format!("sd {sparse_threads} {sparse_workers} {dense_threads} {batch}")
        }
        PlacementPlan::GpuModel {
            colocated,
            fusion_limit,
            host_sparse_threads,
            host_batch,
        } => format!(
            "gpu {colocated} {} {host_sparse_threads} {host_batch}",
            fusion_text(fusion_limit)
        ),
        PlacementPlan::HybridSdPipeline {
            sparse_threads,
            sparse_workers,
            gpu_colocated,
            fusion_limit,
            batch,
        } => {
            format!(
                "hybrid {sparse_threads} {sparse_workers} {gpu_colocated} {} {batch}",
                fusion_text(fusion_limit)
            )
        }
    }
}

fn parse_plan(words: &[&str]) -> Option<PlacementPlan> {
    let n = |i: usize| words.get(i).and_then(|w| w.parse::<u32>().ok());
    let fusion = |i: usize| match words.get(i) {
        Some(&"-") => Some(None),
        Some(w) => w.parse::<u32>().ok().map(Some),
        None => None,
    };
    Some(match *words.first()? {
        "cpu" => PlacementPlan::CpuModel {
            threads: n(1)?,
            workers: n(2)?,
            batch: n(3)?,
        },
        "sd" => PlacementPlan::CpuSdPipeline {
            sparse_threads: n(1)?,
            sparse_workers: n(2)?,
            dense_threads: n(3)?,
            batch: n(4)?,
        },
        "gpu" => PlacementPlan::GpuModel {
            colocated: n(1)?,
            fusion_limit: fusion(2)?,
            host_sparse_threads: n(3)?,
            host_batch: n(4)?,
        },
        "hybrid" => PlacementPlan::HybridSdPipeline {
            sparse_threads: n(1)?,
            sparse_workers: n(2)?,
            gpu_colocated: n(3)?,
            fusion_limit: fusion(4)?,
            batch: n(5)?,
        },
        _ => return None,
    })
}

/// One cell line: `cell <model> <server> none` or
/// `cell <model> <server> <qps> <watts> <plan...>`.
pub fn cell_line(m: ModelKind, s: ServerType, e: Option<&EfficiencyEntry>) -> String {
    match e {
        None => format!("cell {m:?} {s:?} none"),
        Some(e) => format!(
            "cell {m:?} {s:?} {} {} {}",
            e.qps.value(),
            e.power.value(),
            plan_text(&e.plan)
        ),
    }
}

type Cell = ((ModelKind, ServerType), Option<EfficiencyEntry>);

/// Parses `cells.txt`: the frozen cells and the Day-D2 aggregate peak.
pub fn parse_cells(text: &str) -> Result<(Vec<Cell>, f64), String> {
    let mut cells = Vec::new();
    let mut peak = None;
    for (no, line) in text.lines().enumerate() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("cells.txt line {}: cannot parse `{line}`", no + 1);
        match words.first() {
            None => {}
            Some(w) if w.starts_with('#') => {}
            Some(&"peak_qps") => {
                peak = Some(
                    words
                        .get(1)
                        .and_then(|w| w.parse::<f64>().ok())
                        .ok_or_else(bad)?,
                )
            }
            Some(&"cell") => {
                let m = words.get(1).and_then(|w| model_named(w)).ok_or_else(bad)?;
                let s = words.get(2).and_then(|w| server_named(w)).ok_or_else(bad)?;
                let entry = if words.get(3) == Some(&"none") {
                    None
                } else {
                    let num = |i: usize| words.get(i).and_then(|w| w.parse::<f64>().ok());
                    Some(EfficiencyEntry {
                        qps: Qps(num(3).ok_or_else(bad)?),
                        power: Watts(num(4).ok_or_else(bad)?),
                        plan: parse_plan(&words[5..]).ok_or_else(bad)?,
                    })
                };
                cells.push(((m, s), entry));
            }
            Some(_) => return Err(bad()),
        }
    }
    Ok((cells, peak.ok_or("cells.txt has no peak_qps line")?))
}

/// Largest aggregate Day-D2 peak the fleet serves with `table`, by binary
/// search over the provisioning ILP, backed off to 75% (as Fig. 17 sizes it).
pub fn sized_peak(table: &EfficiencyTable) -> f64 {
    let fleet = Fleet::figure_17();
    let schedule = EvolutionSchedule::paper();
    let shares = schedule.mix_at(schedule.snapshot_days().1);
    let workloads: Vec<ModelKind> = shares.iter().map(|&(m, _)| m).collect();
    let feasible = |aggregate: f64| {
        let loads: Vec<f64> = shares.iter().map(|&(_, s)| s * aggregate).collect();
        let req = ProvisionRequest {
            fleet: &fleet,
            table,
            workloads: &workloads,
            loads: &loads,
            over_provision: OVER_PROVISION,
        };
        HerculesScheduler::new(SolverChoice::BranchAndBound)
            .provision(&req)
            .is_ok()
    };
    let mut hi = 1_000.0;
    while feasible(hi * 2.0) && hi < 1e9 {
        hi *= 2.0;
    }
    let mut lo = hi / 2.0;
    for _ in 0..20 {
        let mid = (lo + hi) / 2.0;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.75 * lo
}

// ── Stage timing ───────────────────────────────────────────────────────────

/// Times every `provision` call of the wrapped scheduler, and records a
/// span around each when tracing.
struct Timed<'a> {
    inner: &'a mut dyn Provisioner,
    spans: &'a mut Spans,
    times_ms: Vec<f64>,
}

impl Provisioner for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn provision(&mut self, req: &ProvisionRequest<'_>) -> Result<Allocation, ProvisionError> {
        let id = self.spans.enter("Provisioner::provision");
        let t = Instant::now();
        let r = self.inner.provision(req);
        self.times_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.spans.exit(id);
        r
    }
}

/// What stage 1 found, per cell, and how the search got there.
struct Stage1 {
    cells: Vec<Cell>,
    secs: f64,
    cell_secs: Vec<f64>,
    evaluations: usize,
    visited: usize,
}

/// Stage 1 through the public `profile()` entry point.
fn stage1_profile(size: &Size, cfg: &ProfilerConfig) -> Stage1 {
    let t = Instant::now();
    let table = profile(&size.models, &size.servers, cfg);
    let secs = t.elapsed().as_secs_f64();
    Stage1 {
        cells: pairs(size)
            .map(|k| (k, table.get(k.0, k.1).copied()))
            .collect(),
        secs,
        cell_secs: Vec::new(),
        evaluations: 0,
        visited: 0,
    }
}

/// Stage 1 cell by cell, as `profile()` runs it at parallelism 1, so each
/// cell's time and its search's evaluation counts can be read.
fn stage1_cells(size: &Size, cfg: &ProfilerConfig, spans: &mut Spans) -> Stage1 {
    let t = Instant::now();
    let luts = Arc::new(NmpLutCache::new());
    let mut out = Stage1 {
        cells: Vec::new(),
        secs: 0.0,
        cell_secs: Vec::new(),
        evaluations: 0,
        visited: 0,
    };
    for (m, s) in pairs(size) {
        let id = spans.enter(&format!("core::search hercules_task_search {m:?}/{s:?}"));
        let tc = Instant::now();
        let rec = RecModel::build(m, cfg.scale);
        let sla = SlaSpec::p95(rec.default_sla());
        let ctx = EvalContext::new(rec, s.spec(), sla)
            .quick(cfg.seed)
            .with_nmp_cache(Arc::clone(&luts));
        let mut ev = CachedEvaluator::new(ctx);
        let outcome = hercules_task_search(&mut ev, &cfg.gradient);
        out.cell_secs.push(tc.elapsed().as_secs_f64());
        // `SearchOutcome::evaluations` sums each sub-search's running
        // total; the evaluator's own count is the distinct evaluations.
        out.evaluations += ev.evaluations();
        out.visited += outcome.visited.len();
        let entry = outcome.best.map(|e| EfficiencyEntry {
            qps: e.qps,
            power: e.power,
            plan: e.plan,
        });
        out.cells.push(((m, s), entry));
        spans.exit(id);
    }
    out.secs = t.elapsed().as_secs_f64();
    out
}

fn pairs(size: &Size) -> impl Iterator<Item = (ModelKind, ServerType)> + '_ {
    size.models
        .iter()
        .flat_map(|&m| size.servers.iter().map(move |&s| (m, s)))
}

fn stage2_table(frozen: &[Cell], stage1: &[Cell]) -> EfficiencyTable {
    let mut table = EfficiencyTable::new();
    for &((m, s), e) in frozen.iter().chain(stage1) {
        table.insert(m, s, e);
    }
    table
}

struct Stage2 {
    report: ClusterRunReport,
    secs: f64,
    interval_ms: Vec<f64>,
}

fn stage2(
    fleet: &Fleet,
    table: &EfficiencyTable,
    traces: &[WorkloadTrace],
    policy: &mut dyn Provisioner,
    spans: &mut Spans,
) -> Stage2 {
    let t = Instant::now();
    let mut timed = Timed {
        inner: policy,
        spans,
        times_ms: Vec::new(),
    };
    let report = run_online(fleet, table, traces, &mut timed, Some(OVER_PROVISION));
    Stage2 {
        report,
        secs: t.elapsed().as_secs_f64(),
        interval_ms: timed.times_ms,
    }
}

/// The planner inputs every repeat starts from.
struct Inputs {
    frozen: Vec<Cell>,
    fleet: Fleet,
    traces: Vec<WorkloadTrace>,
}

/// One-time work before the timed phase: model descriptions, the NMP
/// lookup tables, the frozen table, and the Day-D2 per-model load curves.
fn set_up(size: &Size, seed: u64) -> Inputs {
    for &m in &size.models {
        black_box(RecModel::build(m, ModelScale::Production));
    }
    for s in size
        .servers
        .iter()
        .map(|s| s.spec())
        .filter(|s| s.has_nmp())
    {
        black_box(NmpLutCache::new().get_or_build(s.mem.total_ranks()));
    }
    let (frozen, peak) = parse_cells(CELLS).expect("cells.txt is well formed");
    let schedule = EvolutionSchedule::paper();
    let (_, d2) = schedule.snapshot_days();
    let aggregate = DiurnalPattern::service_a(Qps(peak));
    Inputs {
        frozen,
        fleet: Fleet::figure_17(),
        traces: evolution_traces(&schedule, d2, &aggregate, size.interval_minutes, seed),
    }
}

/// What a repeat decided, so repeats can be compared exactly: the stage-1
/// cells and each interval's power bits, servers and feasibility.
type Decisions = (Vec<Cell>, Vec<(u64, u32, bool)>);

fn decisions(cells: &[Cell], report: &ClusterRunReport) -> Decisions {
    let intervals = report
        .intervals
        .iter()
        .map(|i| (i.power_w.to_bits(), i.activated, i.feasible))
        .collect();
    (cells.to_vec(), intervals)
}

pub fn run(ctx: &mut Ctx, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let cfg = profiler_cfg(&size.gradient, PROFILER_SEED);

    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..size.setup_reps.max(1) {
        let id = ctx
            .spans
            .enter("set-up: models, NMP LUTs, frozen table, Day-D2 traces");
        let t = Instant::now();
        inputs = Some(set_up(size, ctx.seed));
        setup.push(t.elapsed().as_secs_f64());
        ctx.spans.exit(id);
    }
    let inputs = inputs.expect("at least one set-up");

    // Timed phase: stage 1 + stage 2, repeated while the budget allows.
    // In the traced run the first repeat is untraced and goes through
    // `profile()`, the second is traced and searches cell by cell.
    let phase = Instant::now();
    let mut reps: Vec<f64> = Vec::new();
    let mut first: Option<(Stage1, Stage2)> = None;
    let mut traced: Option<(Stage1, Stage2)> = None;
    let mut decided: Vec<Decisions> = Vec::new();
    loop {
        let trace_this = ctx.trace && !reps.is_empty();
        let id = ctx.spans.enter(if trace_this {
            "plan: stage 1 + stage 2 (traced)"
        } else {
            "plan: stage 1 + stage 2"
        });
        let t = Instant::now();
        let s1 = if trace_this {
            stage1_cells(size, &cfg, &mut ctx.spans)
        } else {
            let id = ctx.spans.enter("core::profiler profile");
            let s1 = stage1_profile(size, &cfg);
            ctx.spans.exit(id);
            s1
        };
        let table = stage2_table(&inputs.frozen, &s1.cells);
        let mut hercules = HerculesScheduler::new(SolverChoice::BranchAndBound);
        let id2 = ctx
            .spans
            .enter("core::cluster run_online (Hercules, branch and bound)");
        let s2 = stage2(
            &inputs.fleet,
            &table,
            &inputs.traces,
            &mut hercules,
            &mut ctx.spans,
        );
        ctx.spans.exit(id2);
        reps.push(t.elapsed().as_secs_f64());
        ctx.spans.exit(id);
        eprintln!(
            "plan-day: stage 1 {:.2} s, stage 2 {:.2} s",
            s1.secs, s2.secs
        );
        decided.push(decisions(&s1.cells, &s2.report));
        if trace_this {
            traced = Some((s1, s2));
        } else if first.is_none() {
            first = Some((s1, s2));
        }
        let done = if ctx.trace {
            traced.is_some()
        } else {
            budget_spent(phase.elapsed().as_secs_f64(), &reps, ctx.seconds)
        };
        if done {
            break;
        }
    }
    let (s1, s2) = first.expect("one untraced repeat");
    out.check(
        "repeats are bit-identical",
        decided.windows(2).all(|w| w[0] == w[1]),
    );
    out.check(
        "every stage-1 cell is feasible",
        s1.cells.iter().all(|(_, e)| e.is_some()),
    );
    out.check(
        "every interval is feasible",
        s2.report.infeasible_intervals() == 0,
    );
    let table = stage2_table(&inputs.frozen, &s1.cells);

    // The reference: greedy on the same table and day.
    let id = ctx
        .spans
        .enter("core::cluster run_online (greedy reference)");
    let mut greedy = GreedyScheduler::new(9, RankMetric::QpsPerWatt);
    let g = stage2(
        &inputs.fleet,
        &table,
        &inputs.traces,
        &mut greedy,
        &mut ctx.spans,
    );
    ctx.spans.exit(id);
    out.check(
        "greedy reference is feasible",
        g.report.infeasible_intervals() == 0,
    );

    let id = ctx
        .spans
        .enter("sim::engine simulate_cached (loaded replica)");
    let (des, des_s) = predicted_latency(size.des_queries, ctx.seed);
    ctx.spans.exit(id);
    out.check(
        "simulated p99 has ten samples beyond it",
        supports_percentile(des.completed, 99),
    );

    // Every interval is feasible (checked above), so the plan serves each
    // interval's whole demand; goodput is that demand at the day's peak.
    let report = &s2.report;
    let served = (0..inputs.traces[0].load.len())
        .map(|i| {
            inputs
                .traces
                .iter()
                .map(|t| t.load.points()[i].1)
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    let rated: Vec<f64> = s1
        .cells
        .iter()
        .filter_map(|(_, e)| e.map(|e| e.qps.value()))
        .collect();
    eprintln!(
        "plan-day: Hercules peak {:.2} kW / {} servers; greedy {:.2} kW / {} servers ({:.1}% power, {:.1}% capacity saved)",
        report.peak_power() / 1e3,
        report.peak_activated(),
        g.report.peak_power() / 1e3,
        g.report.peak_activated(),
        (1.0 - report.peak_power() / g.report.peak_power().max(1e-9)) * 100.0,
        (1.0 - report.peak_activated() / g.report.peak_activated().max(1e-9)) * 100.0,
    );

    out.attempted = report.intervals.len() as u64;
    out.failed = report.infeasible_intervals() as u64;
    out.set("goodput_qps", served);
    out.set("p50_ms", des.p50.as_millis_f64());
    out.set("p99_ms", des.p99.as_millis_f64());
    out.set("run_s", median(&reps).unwrap_or(0.0));
    out.set("setup_s", median(&setup).unwrap_or(0.0));
    out.set("provisioned_kw", report.peak_power() / 1e3);
    out.set("peak_servers", report.peak_activated());
    out.set("search_qps", geomean(&rated).unwrap_or(0.0));

    // The traced repeat searched cell by cell; the repeat check above has
    // already held its decisions to `profile()`'s.
    if let Some((t1, t2)) = traced {
        out.set("profiler.profile_s", t1.secs);
        out.set(
            "profiler.cell_s_max",
            t1.cell_secs.iter().copied().fold(0.0, f64::max),
        );
        out.set("search.evaluations", t1.evaluations as f64);
        out.set(
            "search.memo_hit_rate",
            1.0 - t1.evaluations as f64 / (t1.visited.max(1)) as f64,
        );
        out.set(
            "search.evals_per_s",
            t1.evaluations as f64 / t1.secs.max(1e-9),
        );
        out.set("cluster.provision_s", t2.secs);
        out.set(
            "cluster.interval_p50_ms",
            median(&t2.interval_ms).unwrap_or(0.0),
        );
        out.set(
            "cluster.interval_max_ms",
            t2.interval_ms.iter().copied().fold(0.0, f64::max),
        );
        out.set("trace.overhead_frac", reps[1] / reps[0] - 1.0);
    }
    if ctx.trace {
        out.set(
            "sim.des_queries_per_s",
            des.total_arrivals as f64 / des_s.max(1e-9),
        );
        out.set("cluster.greedy_peak_kw", g.report.peak_power() / 1e3);
        out.set("cluster.greedy_peak_servers", g.report.peak_activated());
        let id = ctx.spans.enter("hw::cost cpu_batch_cost probe");
        out.set("cost.batch_cost_per_s", batch_cost_rate(0.3));
        ctx.spans.exit(id);
        let id = ctx.spans.enter("hw::nmp LUT build");
        let t = Instant::now();
        black_box(NmpLutCache::new().get_or_build(ServerType::T3.spec().mem.total_ranks()));
        out.set("nmp.lut_build_s", t.elapsed().as_secs_f64());
        ctx.spans.exit(id);
    }
    out
}

/// The simulator's latency for the replica every serving measurement uses
/// (RMC1 on a T2 under `CpuModel{2, 2, 256}`), loaded to 600 QPS, about
/// three quarters of the rate the SLA search finds for it: the planner's
/// model of a loaded server. Exact for a seed; below that load the median
/// is one query size's service time and reads the same for every seed.
/// Returns the report and the wall seconds the simulation took.
fn predicted_latency(queries: u32, seed: u64) -> (SimReport, f64) {
    const RATE: f64 = 600.0;
    let rec = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    };
    let cfg = SimConfig {
        duration: SimDuration::from_secs_f64(f64::from(queries) / RATE),
        warmup_fraction: 0.1,
        drain_margin: SimDuration::ZERO,
        seed,
    };
    let t = Instant::now();
    let rep = simulate_cached(
        &rec,
        &ServerType::T2.spec(),
        &plan,
        Qps(RATE),
        &cfg,
        &NmpLutCache::new(),
    )
    .expect("RMC1 on a T2 is a feasible plan");
    (rep, t.elapsed().as_secs_f64())
}

/// Isolated `cpu_batch_cost` calls per second (RMC1, batch 256, T2).
fn batch_cost_rate(secs: f64) -> f64 {
    let server = ServerType::T2.spec();
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let cfg = CpuExecConfig {
        server: &server,
        workers: 2,
        colocated_threads: 10,
        nmp: None,
        cache: None,
    };
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_secs_f64() < secs {
        black_box(cpu_batch_cost(
            &model.graph,
            black_box(256),
            &model.tables,
            &cfg,
        ));
        calls += 1;
    }
    calls as f64 / t.elapsed().as_secs_f64()
}

/// Profiles every (model, server) cell with the stage-1 options and writes
/// `cells.txt`, with the Day-D2 peak sized for the whole table. Stage 2
/// uses the frozen cells stage 1 does not profile itself.
pub fn freeze_cells(path: &str) -> std::io::Result<()> {
    // Cells are independent, so two threads give the identical table.
    let cfg = profiler_cfg(&ladder(), PROFILER_SEED).with_parallelism(2);
    let table = profile(&ModelKind::ALL, &ServerType::ALL, &cfg);
    let mut text = String::from(
        "# Frozen stage-2 cells: `profile()` over every (model, server) pair with\n\
         # plan-day's stage-1 ladder at seed 0xFACE, and the Day-D2 aggregate peak\n\
         # sized for this table. Regenerate from the repository root with\n\
         # `cargo run --release --manifest-path perfbench/Cargo.toml -- freeze-cells`.\n",
    );
    text.push_str(&format!("peak_qps {}\n", sized_peak(&table)));
    for m in ModelKind::ALL {
        for s in ServerType::ALL {
            text.push_str(&cell_line(m, s, table.get(m, s)));
            text.push('\n');
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_cells_parse_and_cover_every_pair() {
        let (cells, peak) = parse_cells(CELLS).unwrap();
        assert_eq!(cells.len(), ModelKind::ALL.len() * ServerType::ALL.len());
        assert!(peak > 0.0);
        for m in ModelKind::ALL {
            for s in ServerType::ALL {
                assert!(cells.iter().any(|(c, _)| *c == (m, s)), "{m:?}/{s:?}");
            }
        }
    }

    #[test]
    fn cell_lines_round_trip() {
        let plans = [
            PlacementPlan::CpuModel {
                threads: 10,
                workers: 2,
                batch: 256,
            },
            PlacementPlan::CpuSdPipeline {
                sparse_threads: 4,
                sparse_workers: 2,
                dense_threads: 6,
                batch: 128,
            },
            PlacementPlan::GpuModel {
                colocated: 2,
                fusion_limit: None,
                host_sparse_threads: 8,
                host_batch: 512,
            },
            PlacementPlan::HybridSdPipeline {
                sparse_threads: 8,
                sparse_workers: 1,
                gpu_colocated: 3,
                fusion_limit: Some(4096),
                batch: 128,
            },
        ];
        for plan in plans {
            let e = EfficiencyEntry {
                qps: Qps(1234.5678),
                power: Watts(250.125),
                plan,
            };
            let text = format!(
                "peak_qps 1\n{}\n",
                cell_line(ModelKind::Din, ServerType::T7, Some(&e))
            );
            let (cells, _) = parse_cells(&text).unwrap();
            assert_eq!(cells, vec![((ModelKind::Din, ServerType::T7), Some(e))]);
        }
        let (cells, _) = parse_cells("peak_qps 1\ncell DlrmRmc2 T1 none\n").unwrap();
        assert_eq!(cells, vec![((ModelKind::DlrmRmc2, ServerType::T1), None)]);
        assert!(parse_cells("peak_qps 1\ncell Nope T1 none\n").is_err());
        assert!(parse_cells("cell DlrmRmc2 T1 none\n").is_err());
    }
}
