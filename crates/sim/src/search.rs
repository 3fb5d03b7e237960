//! Latency-bounded throughput measurement: the `QPS_{h,m}` half of the
//! efficiency tuple (paper Fig. 9b).
//!
//! Finds the highest Poisson arrival rate a configuration sustains while
//! meeting the SLA, by geometric ramp + binary search over probes: runs of
//! the simulator here, runs of the serving runtime in
//! `hercules_runtime::max_qps_under_sla_live`.

use hercules_common::units::{Qps, SimDuration};
use hercules_hw::nmp::NmpLutCache;
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_workload::generator::UnitDraws;

use crate::config::{check_rate, PlacementPlan, PlanError, SimConfig, SlaSpec};
use crate::engine::probe;
use crate::metrics::SimReport;
use crate::service::build_topology;

/// Result of a latency-bounded throughput search.
#[derive(Debug, Clone)]
pub struct SlaSearchOutcome {
    /// Highest sustainable rate found.
    pub qps: Qps,
    /// The simulation report at that rate.
    pub report: SimReport,
}

/// Options for [`find_knee`] and the searches built on it.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Starting probe rate.
    pub start: Qps,
    /// Binary-search refinement iterations after bracketing.
    pub refine_iters: u32,
    /// Hard ceiling on probed rates.
    pub ceiling: Qps,
    /// When set, each probe runs for as long as this many queries take to
    /// arrive at its rate, clamped to [0.4 s, 900 s], in place of the
    /// configured duration: a 64 QPS probe for 2500 queries runs 39 s,
    /// and a probe above 6250 QPS runs 0.4 s. Tail percentiles are then
    /// sampled about equally at every rate.
    pub target_queries: Option<u32>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            start: Qps(64.0),
            refine_iters: 6,
            ceiling: Qps(4_000_000.0),
            target_queries: Some(4_000),
        }
    }
}

/// Finds the maximum arrival rate under `sla` for `(model, server, plan)`.
///
/// The topology is built once against the caller-owned `luts` cache and
/// reused across every probed rate, so searchers sharing a cache (e.g. all
/// plans of one evaluation context, or all cells of a parallel profile) pay
/// the NMP LUT sweep once per rank count. The seed's arrival stream is
/// drawn once too ([`UnitDraws`]), and every probe replays it at its own
/// rate and stops as soon as it certainly misses the SLA ([`probe`]).
///
/// Returns `Ok(None)` when even the starting probe rate violates the SLA
/// (the configuration cannot serve meaningful load within target).
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model,
/// or [`PlanError::BadSearchRange`] for options [`find_knee`] rejects.
pub fn max_qps_under_sla(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    sla: &SlaSpec,
    cfg: &SimConfig,
    opts: &SearchOptions,
    luts: &NmpLutCache,
) -> Result<Option<SlaSearchOutcome>, PlanError> {
    let topo = build_topology(model, server, plan, luts)?;
    let mut draws = UnitDraws::paper(cfg.seed);
    find_knee(
        sla,
        opts,
        cfg.duration,
        cfg.drain_margin,
        |rate, duration, drain_margin| {
            let run_cfg = SimConfig {
                duration,
                drain_margin,
                ..*cfg
            };
            probe(&topo, server, rate, &run_cfg, sla, &mut draws)
                .expect("find_knee probes positive, finite rates")
        },
    )
}

/// The knee finder behind every latency-bounded throughput search: a
/// geometric ramp from `opts.start` brackets the highest rate that meets
/// `sla`, then `opts.refine_iters` bisection steps refine it.
///
/// `measure(rate, duration, drain_margin)` probes one rate, by simulation
/// or on a serving runtime: it returns the probe's report, or `None` when
/// the probe certainly misses `sla` (a report that misses counts the
/// same). Each probe runs for `duration` (or, with `opts.target_queries`,
/// long enough for about that many queries) and leaves at least two SLA
/// targets of drain margin unmeasured.
///
/// Returns `Ok(None)` when even a whisper of load (`opts.start / 8`)
/// violates the SLA.
///
/// # Errors
///
/// Returns [`PlanError::BadSearchRange`] unless every probed rate, from
/// `opts.start / 8` up to `opts.ceiling`, is positive and finite and the
/// ceiling is at least the start.
pub fn find_knee(
    sla: &SlaSpec,
    opts: &SearchOptions,
    duration: SimDuration,
    drain_margin: SimDuration,
    mut measure: impl FnMut(Qps, SimDuration, SimDuration) -> Option<SimReport>,
) -> Result<Option<SlaSearchOutcome>, PlanError> {
    let whisper = Qps(opts.start.value() / 8.0);
    let ceiling = opts.ceiling.value();
    if check_rate(whisper).is_err() || !(ceiling.is_finite() && ceiling >= opts.start.value()) {
        return Err(PlanError::BadSearchRange);
    }
    // The report at `rate` when it meets the SLA.
    let mut eval = |rate: Qps| {
        // Size the run by query count, not wall time: every probe serves
        // about the same number of arrivals, keeping tail-percentile
        // estimates equally sampled at every rate.
        let duration = opts.target_queries.map_or(duration, |target| {
            SimDuration::from_secs_f64((target as f64 / rate.value()).clamp(0.4, 900.0))
        });
        // SLA-compliant queries arriving within ~2 targets of the horizon
        // could not drain in time; exclude them from measurement so low-rate
        // probes are not penalized for end-of-run truncation.
        measure(rate, duration, drain_margin.max(sla.target * 2)).filter(|r| r.meets(sla))
    };

    // Geometric ramp to bracket the knee. Some heavy models legitimately
    // serve only tens of QPS: before giving up, try a whisper of load.
    let mut lo = match eval(opts.start) {
        Some(report) => (opts.start, report),
        None => match eval(whisper) {
            Some(report) => (whisper, report),
            None => return Ok(None),
        },
    };
    let mut hi = None;
    let mut rate = Qps(lo.0.value() * 2.0);
    while rate.value() <= ceiling {
        let Some(report) = eval(rate) else {
            hi = Some(rate);
            break;
        };
        lo = (rate, report);
        rate = Qps(rate.value() * 2.0);
    }

    // Binary refinement, unless nothing up to the ceiling missed.
    if let Some(mut hi) = hi {
        for _ in 0..opts.refine_iters {
            let mid = Qps((lo.0.value() + hi.value()) / 2.0);
            match eval(mid) {
                Some(report) => lo = (mid, report),
                None => hi = mid,
            }
        }
    }

    let (qps, report) = lo;
    Ok(Some(SlaSearchOutcome { qps, report }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale};

    fn cfg() -> SimConfig {
        SimConfig {
            duration: SimDuration::from_millis(1200),
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed: 3,
        }
    }

    fn opts() -> SearchOptions {
        SearchOptions {
            start: Qps(64.0),
            refine_iters: 4,
            ceiling: Qps(1_000_000.0),
            target_queries: Some(2_000),
        }
    }

    #[test]
    fn finds_a_positive_knee() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 10,
            workers: 2,
            batch: 256,
        };
        let out = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_millis(40)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap()
        .expect("reasonable config sustains load");
        assert!(out.qps.value() > 64.0, "qps {}", out.qps);
        assert!(out
            .report
            .meets(&SlaSpec::p95(SimDuration::from_millis(40))));
    }

    #[test]
    fn looser_sla_never_hurts() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 16,
            workers: 1,
            batch: 128,
        };
        let tight = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_millis(15)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap();
        let loose = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_millis(120)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap()
        .expect("loose SLA feasible");
        if let Some(t) = tight {
            assert!(loose.qps.value() >= 0.8 * t.qps.value());
        }
    }

    #[test]
    fn impossible_sla_returns_none() {
        let m = RecModel::build(ModelKind::DlrmRmc2, ModelScale::Production);
        let server = ServerType::T2.spec();
        let plan = PlacementPlan::CpuModel {
            threads: 4,
            workers: 1,
            batch: 1024,
        };
        // 100us SLA is unachievable for a heavy sparse model on CPU.
        let out = max_qps_under_sla(
            &m,
            &server,
            &plan,
            &SlaSpec::p95(SimDuration::from_micros(100)),
            &cfg(),
            &opts(),
            &NmpLutCache::new(),
        )
        .unwrap();
        assert!(out.is_none());
    }
}
