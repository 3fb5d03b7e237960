//! Live serving: execute the quickstart placement plan on real threads.
//!
//! Where `quickstart` *simulates* the plan, this example *runs* it: worker
//! pools are OS threads, service times are burned with a calibrated
//! busy-wait, queries flow through bounded dispatch queues with SLA-aware
//! admission control, and per-worker histograms merge into the final
//! report. A virtual-clock run of the identical scenario prints alongside,
//! showing the deterministic executor and the threaded one agree.
//!
//! Run with: `cargo run --release --example serve_live [-- --gather real|synthetic]
//! [--cache <MiB>] [--stats <secs>] [--metrics-out <path>] [--trace-out <path>]
//! [--faults <scenario>]`
//!
//! With `--gather real` (or `HERCULES_GATHER=real`) the wall-clock front
//! pool performs genuine memory-bound embedding gathers against a resident
//! synthetic arena instead of busy-waiting the modeled sparse time, and
//! the example prints the measured gather bandwidth next to the cost
//! model's. `HERCULES_GATHER_BUDGET_MB` caps the arena (tables compact to
//! fit). With `--cache <MiB>` (or `HERCULES_CACHE_MB`) the server is
//! provisioned with a per-worker embedding hot tier: planning prices
//! gathers at the predicted hit rate, and under real gathers each front
//! worker serves the Zipf head from a live LRU shard — the example prints
//! the predicted vs measured hit rate. Set `HERCULES_SMOKE=1` for a tiny
//! CI-sized horizon.
//!
//! The observability plane is opt-in per run:
//!
//! * `--stats <secs>` (or `HERCULES_STATS`) attaches a live observer to
//!   the wall-clock run that prints one status line per interval —
//!   interval QPS, e2e p50/p99, queue depth, windowed shed, cache hit
//!   rate and gather bandwidth — read off the workers' seqlock slots.
//! * `--metrics-out <path>` (or `HERCULES_METRICS_OUT`) streams one JSON
//!   snapshot per interval to `path` (NDJSON), or — when the path ends in
//!   `.prom` — rewrites it in Prometheus text exposition format each
//!   interval (the textfile-collector pattern). A path that cannot be
//!   written, one in a missing directory say, panics before the run.
//! * `--trace-out <path>` (or `HERCULES_TRACE_OUT`) enables sampled query
//!   tracing (1-in-`HERCULES_TRACE_SAMPLE`, default 64) and writes the
//!   collected spans as Chrome trace-event JSON after the run — load the
//!   file in `chrome://tracing` or Perfetto.
//!
//! With `--faults <scenario>` (or `HERCULES_FAULTS`) the example instead
//! runs a chaos comparison: the same wall-clock scenario twice under a
//! seeded fault plan (`stall`, `slowcore`, `stall+slowcore`, `spike`,
//! `gpu`, `panic`, `chaos`) — once unprotected (faults only, deadline
//! tracked but not enforced) and once supervised (heartbeat-based worker
//! health, the graceful-degradation ladder, and deadline enforcement) —
//! and prints both goodputs plus a parseable `FAULTS ...` summary line.

use hercules::common::units::{MemBytes, Qps, SimDuration};
use hercules::hw::calib;
use hercules::hw::cost::{modeled_gather_bw_gbs, CacheSpec};
use hercules::hw::server::ServerType;
use hercules::model::zoo::{ModelKind, ModelScale, RecModel};
use hercules::runtime::{
    chrome_trace_json, AdmissionPolicy, ClockMode, DeadlinePolicy, FaultPlan, GatherMode,
    JsonLines, PinPolicy, PrometheusFile, RuntimeConfig, RuntimeObserver, RuntimeReport,
    ServingRuntime, SnapshotSink, StatusLine, SupervisorPolicy, TraceConfig,
};
use hercules::sim::{NmpLutCache, PlacementPlan, SimConfig, SlaSpec};

fn print_report(tag: &str, r: &RuntimeReport) {
    println!(
        "{tag:<14} achieved {:>7.1} QPS  p50 {:>9}  p95 {:>9}  p99 {:>9}  shed {:>4}",
        r.sim.achieved.value(),
        r.sim.p50,
        r.sim.p95,
        r.sim.p99,
        r.shed,
    );
    let (q, l, i) = r.sim.breakdown.fractions();
    println!(
        "{:<14} breakdown: {:.0}% queuing / {:.0}% loading / {:.0}% inference; power {:.0} W",
        "",
        100.0 * q,
        100.0 * l,
        100.0 * i,
        r.sim.mean_power.value()
    );
    for s in &r.stages {
        println!(
            "{:<14} stage {:<6} x{:<3} {:>7} batches {:>9} items  queue-wait p50 {:>9} p99 {:>9}  service p50 {:>9} p99 {:>9}",
            "",
            s.stage.label(),
            s.workers,
            s.batches,
            s.items,
            s.queue_wait_p50,
            s.queue_wait_p99,
            s.service_p50,
            s.service_p99,
        );
    }
    if let Some(wall) = r.wall_elapsed_s {
        println!("{:<14} wall-clock cost: {wall:.2}s", "");
    }
}

/// `--flag <value>` (or `--flag=<value>`) from argv, falling back to the
/// environment variable `env`. Later occurrences win, matching how most
/// CLIs resolve repeated flags.
fn flag_arg(flag: &str, env: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut found = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            found = args.next();
        } else if let Some(v) = a.strip_prefix(&prefix) {
            found = Some(v.to_string());
        }
    }
    found.or_else(|| std::env::var(env).ok())
}

/// `--gather real|synthetic` from argv, falling back to `HERCULES_GATHER`.
fn gather_arg() -> String {
    flag_arg("--gather", "HERCULES_GATHER").unwrap_or_default()
}

/// `--cache <MiB>` from argv, falling back to `HERCULES_CACHE_MB`; `None`
/// (absent or 0) leaves the server cache-free.
fn cache_arg() -> Option<u64> {
    flag_arg("--cache", "HERCULES_CACHE_MB")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&mib| mib > 0)
}

/// `--stats <secs>` from argv, falling back to `HERCULES_STATS`; the live
/// status-line period. `None` (absent or non-positive) disables it.
fn stats_arg() -> Option<f64> {
    flag_arg("--stats", "HERCULES_STATS")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
}

/// `HERCULES_TRACE_SAMPLE`: sample 1-in-N queries when tracing (default
/// 64; clamped to at least 1 so a trace request always records).
fn trace_sample() -> u32 {
    std::env::var("HERCULES_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(64)
        .max(1)
}

/// The chaos comparison behind `--faults <scenario>`: one unprotected run
/// (faults injected, deadline tracked but not enforced, no supervisor)
/// against one supervised run (deadline enforced, heartbeat health, the
/// degradation ladder), both on the wall clock.
fn run_faults(scenario: &str, smoke: bool) {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let server = ServerType::T2.spec();
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let sla = SlaSpec::p95(model.default_sla());
    let offered = Qps(std::env::var("HERCULES_OFFERED_QPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|q| *q > 0.0)
        .unwrap_or(400.0));
    let duration = if smoke {
        SimDuration::from_millis(400)
    } else {
        SimDuration::from_millis(1500)
    };
    let sim_cfg = SimConfig {
        duration,
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 7,
    };
    let faults = FaultPlan::scenario(scenario, sim_cfg.seed, duration).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "fault injection: scenario {scenario:?} (seed {}) on {} under {} at {}",
        sim_cfg.seed,
        server.stype.label(),
        plan.label(),
        offered,
    );
    println!();

    let luts = NmpLutCache::new();
    let base = RuntimeConfig::from_sim(&sim_cfg)
        .with_clock(ClockMode::wall())
        .with_faults(faults);
    let budget = sla.target;

    let unprotected_cfg = base.with_deadline(DeadlinePolicy::track(budget));
    let rt = ServingRuntime::build(&model, server.clone(), &plan, unprotected_cfg, &luts)
        .expect("quickstart plan is feasible on a T2");
    let unprotected = rt.serve(offered);
    print_report("unprotected", &unprotected);
    println!();

    let supervised_cfg = base
        .with_deadline(DeadlinePolicy::enforce(budget))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let rt = ServingRuntime::build(&model, server, &plan, supervised_cfg, &luts)
        .expect("quickstart plan is feasible on a T2");
    let supervised = rt.serve(offered);
    print_report("supervised", &supervised);
    println!();

    assert!(
        unprotected.conserves() && supervised.conserves(),
        "conservation law (arrivals = completed + expired + shed + in-flight)"
    );
    println!(
        "goodput under {scenario:?}: unprotected {:.1} QPS -> supervised {:.1} QPS \
         ({} degraded, {} redistributed, {} dropped past deadline, {} worker failures)",
        unprotected.goodput.value(),
        supervised.goodput.value(),
        supervised.completed_degraded,
        supervised.redistributed,
        supervised.expired,
        supervised.worker_failures + unprotected.worker_failures,
    );
    println!(
        "FAULTS scenario={scenario} unprotected_goodput={:.3} supervised_goodput={:.3} \
         degraded={} redistributed={} expired={} worker_failures={}",
        unprotected.goodput.value(),
        supervised.goodput.value(),
        supervised.completed_degraded,
        supervised.redistributed,
        supervised.expired,
        supervised.worker_failures + unprotected.worker_failures,
    );
}

fn main() {
    let smoke = std::env::var_os("HERCULES_SMOKE").is_some();
    if let Some(scenario) = flag_arg("--faults", "HERCULES_FAULTS") {
        run_faults(&scenario, smoke);
        return;
    }
    let stats = stats_arg();
    let metrics_out = flag_arg("--metrics-out", "HERCULES_METRICS_OUT");
    let trace_out = flag_arg("--trace-out", "HERCULES_TRACE_OUT");
    let gather = match gather_arg().as_str() {
        "real" => {
            let default_mb = if smoke { 64 } else { 1024 };
            let budget_mb = std::env::var("HERCULES_GATHER_BUDGET_MB")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(default_mb);
            GatherMode::Real {
                budget: MemBytes::from_mib(budget_mb),
            }
        }
        "" | "synthetic" => GatherMode::Synthetic,
        other => {
            eprintln!("unknown --gather mode {other:?}; expected real|synthetic");
            std::process::exit(2);
        }
    };

    // The quickstart scenario: RMC1 production on a T2 under the canonical
    // CPU plan, against its paper SLA.
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let mut server = ServerType::T2.spec();
    if let Some(mib) = cache_arg() {
        server = server.with_embedding_cache(CacheSpec::per_worker_mib(mib));
    }
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    let sla = SlaSpec::p95(model.default_sla());
    // `HERCULES_OFFERED_QPS` overrides the offered load — CI smoke boxes
    // may be core-restricted and cannot sustain the default 400 QPS
    // through the (deliberately heavier) cached gather kernel.
    let offered = Qps(std::env::var("HERCULES_OFFERED_QPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|q| *q > 0.0)
        .unwrap_or(400.0));
    let sim_cfg = SimConfig {
        duration: if smoke {
            SimDuration::from_millis(300)
        } else {
            SimDuration::from_millis(1500)
        },
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed: 7,
    };

    println!(
        "serving {} on {} under {} at {} (SLA p95 <= {})",
        model.name(),
        server.stype.label(),
        plan.label(),
        offered,
        sla.target
    );
    println!();

    let luts = NmpLutCache::new();
    let base =
        RuntimeConfig::from_sim(&sim_cfg).with_admission(AdmissionPolicy::for_sla(&sla, 1.0));

    // 1. Wall clock: real worker threads, live queues, and — under
    //    `--gather real` — genuine memory-bound embedding gathers on
    //    compactly-pinned front workers.
    let mut wall_cfg = base
        .with_clock(ClockMode::wall())
        .with_gather(gather)
        .with_affinity(if gather.is_real() {
            PinPolicy::Compact
        } else {
            PinPolicy::None
        });
    if trace_out.is_some() {
        wall_cfg = wall_cfg.with_trace(TraceConfig::one_in(trace_sample()));
    }
    let rt = ServingRuntime::build(&model, server.clone(), &plan, wall_cfg, &luts)
        .expect("quickstart plan is feasible on a T2");

    // An observer attaches when anything wants live snapshots: `--stats`
    // prints status lines, `--metrics-out` streams them to a file. Both
    // share one observer (and one polling period) so the run pays a single
    // read-side thread regardless of sink count.
    let (wall, snapshots) = if stats.is_some() || metrics_out.is_some() {
        let period = SimDuration::from_secs_f64(stats.unwrap_or(1.0));
        let mut obs = RuntimeObserver::every(period);
        if stats.is_some() {
            obs = obs.with_sink(Box::new(StatusLine));
        }
        if let Some(path) = &metrics_out {
            let sink: std::io::Result<Box<dyn SnapshotSink>> = if path.ends_with(".prom") {
                PrometheusFile::create(path).map(|s| Box::new(s) as _)
            } else {
                JsonLines::create(path).map(|s| Box::new(s) as _)
            };
            let sink = sink.unwrap_or_else(|e| panic!("cannot create metrics file {path:?}: {e}"));
            obs = obs.with_sink(sink);
        }
        let report = rt.serve_observed(offered, &mut obs);
        (report, Some(obs.history().len()))
    } else {
        (rt.serve(offered), None)
    };
    print_report("wall clock", &wall);
    if let Some(n) = snapshots {
        println!(
            "{:<14} observability: {n} snapshots at {:.2}s period{}",
            "",
            stats.unwrap_or(1.0),
            metrics_out
                .as_deref()
                .map(|p| format!(", metrics -> {p}"))
                .unwrap_or_default(),
        );
    }
    if let Some(path) = &trace_out {
        let spans = wall.trace.as_deref().unwrap_or(&[]);
        std::fs::write(path, chrome_trace_json(spans))
            .unwrap_or_else(|e| panic!("cannot write trace file {path:?}: {e}"));
        println!(
            "{:<14} trace: {} span events (1-in-{} sampling) -> {path}",
            "",
            spans.len(),
            trace_sample(),
        );
    }
    if let Some(g) = &wall.gather {
        let per_stream = g.achieved_gbs();
        let modeled = modeled_gather_bw_gbs(&server, 10, 2);
        let aggregate = per_stream * 10.0;
        println!(
            "{:<14} real gathers: {:.0} MiB resident{} | {:.2} GB read in-kernel | measured {:.2} GB/s per stream (~{:.1} GB/s aggregate) vs modeled {:.1} GB/s",
            "",
            g.resident_bytes as f64 / (1u64 << 20) as f64,
            if g.compacted { " (compacted)" } else { "" },
            g.bytes as f64 / 1e9,
            per_stream,
            aggregate,
            modeled,
        );
        let implied = calib::implied_gather_efficiency(aggregate, server.mem.peak_bw_gbs);
        println!(
            "{:<14} implied DDR gather efficiency {:.2} (calibrated constant {:.2})",
            "",
            implied,
            calib::DDR_GATHER_EFFICIENCY,
        );
        // Opt-in feedback: a server recalibrated with the measured
        // efficiency re-prices the gather roofline from this machine's
        // numbers instead of the baked-in constant.
        let recal = server.clone().with_measured_gather_efficiency(implied);
        println!(
            "{:<14} recalibrated modeled gather bw: {:.1} GB/s (was {:.1} GB/s)",
            "",
            modeled_gather_bw_gbs(&recal, 10, 2),
            modeled,
        );
    }
    if let Some(c) = &wall.cache {
        println!(
            "{:<14} embedding cache: measured hit rate {:.3} (predicted {:.3}) | {} hits / {} misses / {} inserted",
            "",
            c.hit_rate(),
            c.predicted_hit_rate,
            c.hits,
            c.misses,
            c.inserted,
        );
    }
    if wall.latency_overflow > 0 {
        println!(
            "{:<14} {} latency samples clamped into the histogram's top bucket",
            "", wall.latency_overflow,
        );
    }
    println!();

    // 2. Virtual clock: the same components driven deterministically.
    let rt = ServingRuntime::build(&model, server, &plan, base, &luts).expect("feasible");
    let virt = rt.serve(offered);
    print_report("virtual clock", &virt);
    println!();

    assert!(wall.conserves() && virt.conserves(), "conservation law");
    assert!(
        wall.sim.completed > 0 && virt.sim.completed > 0,
        "both modes must serve queries"
    );
    println!(
        "wall p99 {} vs virtual p99 {} — the runtime meets the SLA: {}",
        wall.sim.p99,
        virt.sim.p99,
        if wall.sim.meets(&sla) && virt.sim.meets(&sla) {
            "yes"
        } else {
            "no"
        }
    );
}
