//! Latency-bounded throughput measurement against the *live runtime*:
//! the simulator's knee finder ([`hercules_sim::find_knee`]), with every
//! probe executing the placement plan on the runtime instead of the
//! discrete-event engine.
//!
//! Probes should use the virtual clock (the default of
//! [`RuntimeConfig::from_sim`]): deterministic, and orders of magnitude
//! faster than real time. The wall clock works too, but every probe then
//! costs its simulated duration in wall time.

use hercules_hw::nmp::NmpLutCache;
use hercules_hw::server::ServerSpec;
use hercules_model::zoo::RecModel;
use hercules_sim::{find_knee, PlacementPlan, PlanError, SearchOptions, SlaSearchOutcome, SlaSpec};

use crate::config::RuntimeConfig;
use crate::serve::ServingRuntime;

/// Finds the maximum arrival rate under `sla` for `(model, server, plan)`,
/// measured by the live runtime.
///
/// The topology is built once against the caller-owned `luts` cache and
/// reused across every probed rate. Returns `Ok(None)` when even a whisper
/// of load violates the SLA.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan is infeasible on this server/model,
/// or [`PlanError::BadSearchRange`] for options
/// [`find_knee`] rejects.
pub fn max_qps_under_sla_live(
    model: &RecModel,
    server: &ServerSpec,
    plan: &PlacementPlan,
    sla: &SlaSpec,
    cfg: &RuntimeConfig,
    opts: &SearchOptions,
    luts: &NmpLutCache,
) -> Result<Option<SlaSearchOutcome>, PlanError> {
    let rt = ServingRuntime::build(model, server.clone(), plan, *cfg, luts)?;
    find_knee(
        sla,
        opts,
        cfg.duration,
        cfg.drain_margin,
        |rate, duration, drain_margin| {
            let run_cfg = RuntimeConfig {
                duration,
                drain_margin,
                ..*cfg
            };
            Some(rt.serve_with(rate, &run_cfg).sim)
        },
    )
}
