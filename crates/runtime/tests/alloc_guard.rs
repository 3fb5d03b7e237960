//! Zero-allocation guard for the wall-clock hot path, and an allocation
//! bound for the virtual clock's observer tick.
//!
//! Installs [`CountingAlloc`] as this binary's global allocator and runs a
//! real-gather wall-clock serve. Workers snapshot the thread-local
//! allocation counter around every post-warm-up batch; the report sums
//! the residuals. Any future change that puts the allocator back on the
//! per-query path (cloning a `BatchCost`, growing a queue, collecting
//! split sizes) fails here with the exact count. The observer tick is
//! fenced the same way: after its first, a tick allocates only the
//! snapshot's stage list (and the history's growth, unless pre-sized).

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    thread_allocs, ClockMode, CountingAlloc, GatherMode, RuntimeConfig, RuntimeObserver,
    ServingRuntime, TraceConfig,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig};
use hercules_workload::generator::QueryStream;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn serve(gather: GatherMode, observed: bool) -> hercules_runtime::RuntimeReport {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Small);
    let server = ServerType::T2.spec();
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 1,
        batch: 64,
    };
    let mut sim = SimConfig::quick(17);
    sim.duration = SimDuration::from_millis(1200);
    let mut cfg = RuntimeConfig::from_sim(&sim)
        .with_clock(ClockMode::Wall { time_scale: 0.25 })
        .with_gather(gather);
    if observed {
        cfg = cfg.with_trace(TraceConfig::one_in(16));
    }
    let rt = ServingRuntime::build(&model, server, &plan, cfg, &NmpLutCache::new())
        .expect("plan must be feasible");
    if observed {
        let mut obs = RuntimeObserver::every(SimDuration::from_millis(50));
        let report = rt.serve_observed(Qps(150.0), &mut obs);
        assert!(obs.history().len() >= 2, "observer ticked mid-run");
        report
    } else {
        rt.serve(Qps(150.0))
    }
}

#[test]
fn steady_state_hot_path_allocates_nothing() {
    for gather in [GatherMode::Synthetic, GatherMode::real_mib(32)] {
        let report = serve(gather, false);
        assert!(report.conserves());
        assert!(
            report.hot_samples > 0,
            "{gather:?}: run too short to reach the post-warm-up regime"
        );
        assert_eq!(
            report.hot_allocs,
            0,
            "{gather:?}: {} heap allocations leaked onto the hot path across {} sampled \
             batches ({:.3}/batch)",
            report.hot_allocs,
            report.hot_samples,
            report.allocs_per_sample()
        );
    }
}

/// The observability plane keeps the guarantee: with a live observer
/// polling the seqlock slots and 1-in-16 tracing recording spans, workers
/// still allocate nothing per batch — publication is plain atomic stores
/// and trace rings are preallocated at worker start.
#[test]
fn hot_path_stays_allocation_free_under_observation() {
    for gather in [GatherMode::Synthetic, GatherMode::real_mib(32)] {
        let report = serve(gather, true);
        assert!(report.conserves());
        assert!(report.hot_samples > 0);
        assert!(report.trace.is_some(), "tracing was enabled");
        assert_eq!(
            report.hot_allocs, 0,
            "{gather:?}: observation leaked {} allocations onto the hot path across {} \
             sampled batches",
            report.hot_allocs, report.hot_samples,
        );
    }
}

/// Allocations of each virtual-clock observer tick after the first: RMC1
/// on a T2 at 500 QPS for 2 s, observed every 10 ms, with the observer's
/// history pre-sized for `reserve` snapshots.
fn tick_allocs(reserve: usize) -> Vec<u64> {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    };
    let mut sim = SimConfig::quick(23);
    sim.duration = SimDuration::from_secs(2);
    let cfg = RuntimeConfig::from_sim(&sim);
    let rt = ServingRuntime::build(
        &model,
        ServerType::T2.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("plan must be feasible");
    let trace = QueryStream::paper(Qps(500.0), 23).take_until(SimTime::ZERO + sim.duration);
    let period = SimDuration::from_millis(10);
    let mut obs = RuntimeObserver::every(period);
    obs.reserve(reserve);
    let mut stepper = rt.stepper();
    let mut allocs = Vec::new();
    let (mut qi, mut now) = (0, SimTime::ZERO);
    while now + period < stepper.horizon() {
        now += period;
        while qi < trace.len() && trace[qi].arrival < now {
            stepper.inject(trace[qi]);
            qi += 1;
        }
        stepper.step_until(now);
        let before = thread_allocs();
        stepper.observe(&mut obs, now);
        allocs.push(thread_allocs() - before);
    }
    let served = obs.history().iter().filter(|s| s.completed > 0).count();
    assert!(served > 190, "the windows carry completions: {served}");
    allocs.remove(0);
    allocs
}

#[test]
fn observer_tick_allocates_only_its_snapshot() {
    let presized = tick_allocs(200);
    assert_eq!(presized.len(), 198);
    assert!(
        presized.iter().all(|&n| n == 1),
        "a pre-sized tick allocates its stage list alone: {presized:?}"
    );
    // Unsized, the history grows geometrically: a growth rides along on
    // a handful of ticks.
    let growing = tick_allocs(0);
    let grew = growing.iter().filter(|&&n| n == 2).count();
    assert!(
        growing.iter().all(|&n| n == 1 || n == 2) && grew <= 8,
        "a tick allocates its stage list, plus a history growth on {grew} ticks: {growing:?}"
    );
}
