//! Fleet property suite (ISSUE 10 tentpole deliverable):
//!
//! 1. Fleet-wide conservation — every trace query is accounted for once:
//!    `arrivals = Σ replica (completed + degraded + expired + shed +
//!    in-flight) + router-dropped`.
//! 2. Bitwise determinism — two runs of the same virtual fleet produce
//!    identical reports (Debug-string compare; the report has no
//!    PartialEq precisely so tests must pin the full bit pattern).
//! 3. Single-replica fleet ≡ bare runtime — the stepped executor through
//!    the router reproduces `ServingRuntime::serve` bit for bit, healthy
//!    AND faulted+supervised.
//! 4. Autoscaler monotonicity — more shed never moves the decision toward
//!    scale-in (pure grid), and an overloaded fleet never scales in.
//! 5. Failover drains before expiry — under an injected whole-node hang
//!    (both front workers stalled) and whole-node death (both panicked)
//!    the draining replica's shard traffic re-routes (nonzero rerouted)
//!    and fleet goodput is >= 2x the no-failover fleet.
//! 6. Histories sized once — each replica's snapshot history holds one
//!    snapshot per boundary it saw and carries no spare capacity.

use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_fleet::{run_virtual_fleet, AutoscalerPolicy, FleetConfig, ScaleDecision};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_runtime::{
    AdmissionPolicy, DeadlinePolicy, FaultPlan, RuntimeConfig, ServingRuntime, StageKind,
    SupervisorPolicy,
};
use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig, SlaSpec};
use hercules_workload::generator::QueryStream;
use hercules_workload::query::Query;

fn quickstart_runtime(cfg: RuntimeConfig) -> ServingRuntime {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let plan = PlacementPlan::CpuModel {
        threads: 10,
        workers: 2,
        batch: 256,
    };
    ServingRuntime::build(
        &model,
        ServerType::T2.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("quickstart plan is feasible")
}

/// The small faulted pool from `fig_faults`: two front workers, so the
/// `stall+slowcore` scenario takes out the entire healthy capacity unless
/// the supervisor (single node) or the fleet (failover) reacts.
fn small_runtime(cfg: RuntimeConfig) -> ServingRuntime {
    let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
    let plan = PlacementPlan::CpuModel {
        threads: 2,
        workers: 2,
        batch: 256,
    };
    ServingRuntime::build(
        &model,
        ServerType::T2.spec(),
        &plan,
        cfg,
        &NmpLutCache::new(),
    )
    .expect("small plan is feasible")
}

fn base_cfg(duration_ms: u64, seed: u64) -> RuntimeConfig {
    RuntimeConfig::from_sim(&SimConfig {
        duration: SimDuration::from_millis(duration_ms),
        warmup_fraction: 0.15,
        drain_margin: SimDuration::ZERO,
        seed,
    })
}

fn paper_trace(cfg: &RuntimeConfig, offered: Qps) -> Vec<Query> {
    QueryStream::paper(offered, cfg.seed).take_until(SimTime::ZERO + cfg.duration)
}

#[test]
fn single_replica_fleet_matches_bare_runtime() {
    let cfg = base_cfg(1000, 7);
    let rt = quickstart_runtime(cfg);
    let offered = Qps(400.0);
    let bare = format!("{:?}", rt.serve(offered));

    let trace = paper_trace(&cfg, offered);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        initial_replicas: 1,
        ..FleetConfig::default()
    };
    let pool = [rt];
    let fleet = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered);
    assert!(fleet.conserves());
    assert_eq!(fleet.rerouted, 0);
    assert_eq!(fleet.router_dropped, 0);
    assert_eq!(fleet.replicas.len(), 1);
    let via_fleet = format!("{:?}", fleet.replicas[0].report);
    assert_eq!(
        bare, via_fleet,
        "single-replica fleet must be bitwise identical to the bare runtime"
    );
}

#[test]
fn single_replica_fleet_matches_bare_runtime_under_faults() {
    // Faulted + supervised + deadline-enforced: the stepped executor must
    // reproduce the supervision boundaries and the degradation ladder bit
    // for bit. Failover off, so the fleet never drains the only replica.
    let duration = SimDuration::from_millis(1000);
    let cfg = base_cfg(1000, 7)
        .with_faults(FaultPlan::scenario("stall+slowcore", 7, duration).expect("known scenario"))
        .with_deadline(DeadlinePolicy::enforce(
            RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production).default_sla(),
        ))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    let rt = small_runtime(cfg);
    let offered = Qps(800.0);
    let bare = format!("{:?}", rt.serve(offered));

    let trace = paper_trace(&cfg, offered);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        initial_replicas: 1,
        failover: false,
        ..FleetConfig::default()
    };
    let pool = [rt];
    let fleet = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered);
    assert!(fleet.conserves());
    let via_fleet = format!("{:?}", fleet.replicas[0].report);
    assert_eq!(
        bare, via_fleet,
        "faulted+supervised single-replica fleet must match the bare runtime"
    );
}

#[test]
fn virtual_fleet_is_bitwise_deterministic() {
    let cfg = base_cfg(1000, 11);
    let offered = Qps(1500.0);
    let trace = paper_trace(&cfg, offered);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        initial_replicas: 2,
        autoscaler: Some(AutoscalerPolicy {
            shed_out: 1,
            cooldown_epochs: 2,
            migration_cost_epochs: 1,
            ..AutoscalerPolicy::default()
        }),
        ..FleetConfig::default()
    };
    let run = || {
        let pool: Vec<ServingRuntime> = (0..4).map(|_| quickstart_runtime(cfg)).collect();
        format!(
            "{:?}",
            run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered)
        )
    };
    assert_eq!(run(), run(), "virtual fleet must be bitwise deterministic");
}

#[test]
fn fleet_conservation_holds_across_configs() {
    let cfg = base_cfg(1000, 3);
    for (replicas, initial, offered, autoscale) in [
        (1usize, 1usize, 300.0, false),
        (3, 2, 2500.0, false),
        (4, 1, 3000.0, true),
    ] {
        let pool: Vec<ServingRuntime> = (0..replicas).map(|_| quickstart_runtime(cfg)).collect();
        let offered = Qps(offered);
        let trace = paper_trace(&cfg, offered);
        let fleet_cfg = FleetConfig {
            epoch: SimDuration::from_millis(50),
            initial_replicas: initial,
            autoscaler: autoscale.then(AutoscalerPolicy::default),
            ..FleetConfig::default()
        };
        let report = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered);
        assert!(
            report.conserves(),
            "conservation violated: replicas={replicas} initial={initial} \
             offered={offered:?} autoscale={autoscale}"
        );
        assert_eq!(report.arrivals, trace.len() as u64);
    }
}

/// Every replica's history holds one snapshot per epoch end it saw before
/// the horizon, plus its final one, and was sized for exactly that, so the
/// report carries it without slack; late activations and an epoch that
/// does not divide the horizon included.
#[test]
fn replica_histories_are_sized_exactly() {
    let sla = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production).default_sla();
    let cfg = base_cfg(1000, 5).with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla), 1.0));
    let pool: Vec<ServingRuntime> = (0..4).map(|_| small_runtime(cfg)).collect();
    let offered = Qps(3000.0);
    let trace = paper_trace(&cfg, offered);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(70),
        initial_replicas: 1,
        autoscaler: Some(AutoscalerPolicy::default()),
        ..FleetConfig::default()
    };
    let report = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered);
    assert!(report.scale_outs > 0, "some replicas activate late");
    // 1000 ms in 70 ms epochs: 15 epochs, 14 ends before the horizon.
    assert_eq!(report.replicas[0].snapshots.len(), 15);
    for rep in &report.replicas {
        assert_eq!(
            rep.snapshots.capacity(),
            rep.snapshots.len(),
            "replica {}",
            rep.index
        );
    }
}

#[test]
fn autoscaler_decision_is_monotone_in_shed() {
    let policy = AutoscalerPolicy::default();
    for wait in [None, Some(0.0), Some(5e-4), Some(5e-3), Some(0.5)] {
        let mut prev = policy.decide(0, wait);
        for shed in 1..=32u64 {
            let next = policy.decide(shed, wait);
            assert!(
                next >= prev,
                "decision regressed from {prev:?} to {next:?} at shed={shed} wait={wait:?}"
            );
            prev = next;
        }
    }
    // Anti-monotone in the tail: a larger tail never yields In when a
    // smaller one held.
    for shed in 0..=4u64 {
        let calm = policy.decide(shed, Some(0.0));
        let busy = policy.decide(shed, Some(1.0));
        assert!(busy >= calm || busy != ScaleDecision::In);
    }
}

#[test]
fn overloaded_fleet_never_scales_in() {
    // Offered load far past two quickstart replicas' capacity, with
    // SLA-budgeted admission so overload surfaces as shed (the autoscaler's
    // scale-out signal) rather than silent queue growth: shed stays
    // positive in every window, so scale-in must never fire.
    let sla = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production).default_sla();
    let cfg = base_cfg(1000, 5).with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla), 1.0));
    let pool: Vec<ServingRuntime> = (0..4).map(|_| quickstart_runtime(cfg)).collect();
    let offered = Qps(6000.0);
    let trace = paper_trace(&cfg, offered);
    let fleet_cfg = FleetConfig {
        epoch: SimDuration::from_millis(50),
        initial_replicas: 2,
        autoscaler: Some(AutoscalerPolicy::default()),
        ..FleetConfig::default()
    };
    let report = run_virtual_fleet(&pool, None, &fleet_cfg, &trace, offered);
    assert!(report.conserves());
    assert!(report.shed() > 0, "the overload premise must hold");
    assert_eq!(
        report.scale_ins, 0,
        "more offered load must never scale in under sustained shed"
    );
    assert!(report.scale_outs > 0, "sustained shed must scale out");
}

/// Builds the failover pool: replica 0 carries the injected whole-node
/// fault `plan` with the single-node ladder active (the fleet's health
/// signal source), replica 1 is an identically supervised healthy standby.
///
/// Whole-node faults (every front worker hung or panicked) are the
/// failover-shaped failures: the replica's own ladder and suspect-routing
/// can absorb a single bad worker, but not a node that has stopped
/// serving, so draining and re-routing is the only recovery.
fn failover_pool(plan: FaultPlan, duration: SimDuration, seed: u64) -> Vec<ServingRuntime> {
    let sla = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production).default_sla();
    let base = base_cfg(duration.as_millis_f64() as u64, seed)
        .with_deadline(DeadlinePolicy::enforce(sla))
        .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
    vec![small_runtime(base.with_faults(plan)), small_runtime(base)]
}

/// Both front workers of the 2-worker small plan stall at `0.25*d` for
/// `0.60*d`: the node wedges for most of the run but never dies, so the
/// drain signal is sustained L2+ degrade, not dead workers.
fn node_hang(duration: SimDuration) -> FaultPlan {
    let at = SimTime::ZERO + duration.mul_f64(0.25);
    let span = duration.mul_f64(0.60);
    FaultPlan::none()
        .with_stall(StageKind::Front, 0, at, span)
        .with_stall(StageKind::Front, 1, at, span)
}

/// Both front workers panic at `0.40*d`: the node is permanently dead and
/// the drain signal is the supervisor's dead-worker count.
fn node_death(duration: SimDuration) -> FaultPlan {
    let at = SimTime::ZERO + duration.mul_f64(0.40);
    FaultPlan::none()
        .with_panic(StageKind::Front, 0, at)
        .with_panic(StageKind::Front, 1, at)
}

fn failover_fleet_cfg(failover: bool) -> FleetConfig {
    FleetConfig {
        epoch: SimDuration::from_millis(50),
        initial_replicas: 1,
        failover,
        drain_after: 1,
        ..FleetConfig::default()
    }
}

#[test]
fn failover_reroutes_stalled_replica_traffic() {
    let duration = SimDuration::from_millis(2000);
    let offered = Qps(250.0);
    let pool = failover_pool(node_hang(duration), duration, 7);
    let trace = paper_trace(pool[0].config(), offered);

    let with = run_virtual_fleet(&pool, None, &failover_fleet_cfg(true), &trace, offered);
    let without = run_virtual_fleet(&pool, None, &failover_fleet_cfg(false), &trace, offered);

    assert!(with.conserves() && without.conserves());
    assert_eq!(with.drained, 1, "the hung replica must drain");
    assert!(with.rerouted > 0, "its shard traffic must re-route");
    assert_eq!(with.router_dropped, 0, "the standby must catch every query");
    assert_eq!(without.drained, 0);

    // The drain must land inside the stall window (drain-before-expiry:
    // traffic moves while the node is wedged, not after it recovers).
    let hung = &with.replicas[0];
    assert!(hung.drained);
    let drain_epoch = hung
        .snapshots
        .iter()
        .find(|s| s.degrade_level >= 2)
        .map(|s| s.t)
        .expect("the hang must reach L2");
    assert!(drain_epoch < SimTime::ZERO + duration.mul_f64(0.85));

    let ratio = with.goodput().value() / without.goodput().value().max(1e-9);
    assert!(
        ratio >= 2.0,
        "failover goodput must be >= 2x no-failover under a node hang: \
         {:.1} vs {:.1} ({ratio:.2}x)",
        with.goodput().value(),
        without.goodput().value()
    );
}

#[test]
fn failover_recovers_from_worker_panic() {
    let duration = SimDuration::from_millis(2000);
    let offered = Qps(250.0);
    let pool = failover_pool(node_death(duration), duration, 7);
    let trace = paper_trace(pool[0].config(), offered);

    let with = run_virtual_fleet(&pool, None, &failover_fleet_cfg(true), &trace, offered);
    let without = run_virtual_fleet(&pool, None, &failover_fleet_cfg(false), &trace, offered);

    assert!(with.conserves() && without.conserves());
    assert_eq!(with.drained, 1, "the dead replica must drain");
    assert!(with.rerouted > 0, "its shard traffic must re-route");
    assert_eq!(with.router_dropped, 0);

    // The supervisor must actually see the dead workers (the drain signal
    // here is dead-worker count, not the degrade ladder).
    let dead = &with.replicas[0];
    assert!(dead.snapshots.iter().any(|s| s.dead_workers > 0));

    // Drain-before-expiry: the healthy standby picks the traffic up inside
    // the run, so the fleet keeps completing on time after the fault.
    let spare = with
        .replicas
        .iter()
        .find(|r| r.index == 1)
        .expect("standby must have been promoted");
    assert!(spare.routed > 0);
    assert!(spare.report.goodput.value() > 0.0);

    let ratio = with.goodput().value() / without.goodput().value().max(1e-9);
    assert!(
        ratio >= 2.0,
        "failover goodput must be >= 2x no-failover after node death: \
         {:.1} vs {:.1} ({ratio:.2}x)",
        with.goodput().value(),
        without.goodput().value()
    );
}
