//! The deterministic virtual fleet: an epoch-driven control loop over N
//! stepped serving-runtime replicas.
//!
//! Each control epoch the router appends the epoch's arrivals to their
//! shard owners' inboxes; every live replica then, in one parallel step,
//! injects its inbox, advances its virtual clock to the epoch boundary and
//! snapshots its telemetry; then the control thread applies health-based
//! failover (drain a replica whose supervisor reports dead workers or
//! sustained L2+ degrade, re-route its shards) and lets the autoscaler
//! trade replicas against windowed shed and queue-wait tails. Replicas
//! share nothing inside an epoch, so they step on one crew of threads, one
//! per available core and the control thread among them, that lives for
//! the whole replay (`common::par::with_crew`); routing, its counts,
//! failover and scaling run on the control thread between epochs.
//! Everything is a pure function of the inputs: two runs of the same fleet
//! are bitwise identical whatever the crew size, and a single-replica
//! fleet reproduces the bare runtime's report bit for bit
//! (`tests/fleet_props.rs`).

use std::num::NonZeroUsize;

use hercules_common::par::with_crew;
use hercules_common::units::{Qps, SimDuration, SimTime};
use hercules_hw::cost::CacheModel;
use hercules_runtime::{
    PlaneSnapshot, RuntimeObserver, RuntimeReport, ServingRuntime, VirtStepper,
};
use hercules_workload::query::Query;

use crate::autoscale::{Autoscaler, AutoscalerPolicy, ScaleDecision};
use crate::shard::{shard_of, ShardMap};

/// Fleet control-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Control-epoch length: routing, health checks, and autoscaling all
    /// run at this cadence (also each replica's observer period).
    pub epoch: SimDuration,
    /// Shards the query id space splits into (more shards = finer
    /// placement and cheaper moves).
    pub shards: u32,
    /// Replicas active at start; the rest of the pool is standby.
    pub initial_replicas: usize,
    /// Telemetry-driven scaling, when configured.
    pub autoscaler: Option<AutoscalerPolicy>,
    /// Drain replicas whose control plane reports dead workers or
    /// sustained L2+ degrade, re-routing their shards.
    pub failover: bool,
    /// Consecutive unhealthy epochs before a replica drains.
    pub drain_after: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            epoch: SimDuration::from_millis(100),
            shards: 64,
            initial_replicas: 1,
            autoscaler: None,
            failover: true,
            drain_after: 2,
        }
    }
}

/// One replica's slice of the fleet run.
#[derive(Debug)]
pub struct ReplicaReport {
    /// Index into the replica pool handed to [`run_virtual_fleet`].
    pub index: usize,
    /// Queries the router delivered to this replica.
    pub routed: u64,
    /// Whether the fleet drained this replica (failover or scale-in).
    pub drained: bool,
    /// The replica's standard end-of-run report.
    pub report: RuntimeReport,
    /// The replica's per-epoch telemetry history.
    pub snapshots: Vec<PlaneSnapshot>,
}

/// The fleet run's merged outcome.
#[derive(Debug)]
pub struct FleetReport {
    /// Fleet-wide offered load (recorded verbatim).
    pub offered: Qps,
    /// Queries in the input trace.
    pub arrivals: u64,
    /// Queries delivered to a replica.
    pub routed: u64,
    /// Delivered queries whose shard had moved off its home replica
    /// (failover or rebalance traffic).
    pub rerouted: u64,
    /// Queries with no active replica to receive them (the whole fleet
    /// was draining or dead).
    pub router_dropped: u64,
    /// Autoscaler activations.
    pub scale_outs: u32,
    /// Autoscaler retirements.
    pub scale_ins: u32,
    /// Health-based failover drains.
    pub drained: u32,
    /// Most replicas simultaneously active.
    pub peak_active: usize,
    /// Per-replica outcomes (activated replicas only), pool order.
    pub replicas: Vec<ReplicaReport>,
}

impl FleetReport {
    /// Fleet-wide conservation: every trace query is accounted for exactly
    /// once — delivered to a replica that itself conserves
    /// (`arrivals = Σ replica (completed + expired + shed + in-flight) +
    /// router-dropped`).
    pub fn conserves(&self) -> bool {
        let delivered: u64 = self
            .replicas
            .iter()
            .map(|r| r.report.sim.total_arrivals)
            .sum();
        self.arrivals == self.routed + self.router_dropped
            && self.routed == delivered
            && self.replicas.iter().map(|r| r.routed).sum::<u64>() == self.routed
            && self.replicas.iter().all(|r| r.report.conserves())
    }

    /// Fleet goodput: on-time in-window completions per second, summed
    /// over replicas.
    pub fn goodput(&self) -> Qps {
        Qps(self.replicas.iter().map(|r| r.report.goodput.value()).sum())
    }

    /// Whole-run completions summed over replicas.
    pub fn completed_total(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.report.sim.completed_total)
            .sum()
    }

    /// Whole-run sheds summed over replicas.
    pub fn shed(&self) -> u64 {
        self.replicas.iter().map(|r| r.report.shed).sum()
    }

    /// Whole-run deadline drops summed over replicas.
    pub fn expired(&self) -> u64 {
        self.replicas.iter().map(|r| r.report.expired).sum()
    }
}

/// Per-replica live state inside the control loop, boxed so that a crew
/// round moves a pointer, not the stepper.
struct Slot<'a> {
    stepper: VirtStepper<'a>,
    obs: RuntimeObserver,
    /// This epoch's arrivals, in arrival order: the router appends, the
    /// step injects.
    inbox: Vec<Query>,
    /// The boundary the next step serves up to.
    until: SimTime,
    routed: u64,
    prev_shed: u64,
    unhealthy: u32,
    draining: bool,
    activated_at: u64,
}

impl Slot<'_> {
    /// One epoch of this replica, on whichever crew thread claims it:
    /// injects the inbox, serves up to the boundary, and snapshots there,
    /// except at the horizon, where `finish` takes the last snapshot.
    fn step(&mut self) {
        self.routed += self.inbox.len() as u64;
        for q in self.inbox.drain(..) {
            self.stepper.inject(q);
        }
        self.stepper.step_until(self.until);
        if self.until < self.stepper.horizon() {
            self.stepper.observe(&mut self.obs, self.until);
        }
    }
}

/// Spins up replica `i`'s stepper at boundary `now` (late activations
/// fast-forward so their clock and supervision cadence line up with the
/// fleet's).
fn activate<'a>(
    pool: &'a [ServingRuntime],
    epoch: SimDuration,
    slots: &mut [Option<Box<Slot<'a>>>],
    i: usize,
    now: SimTime,
    epoch_no: u64,
) {
    let mut stepper = pool[i].stepper();
    stepper.step_until(now);
    // The observer snapshots at every epoch end after `now` but the
    // horizon, and once more as the replica finishes: its history is sized
    // once, so the report takes it without slack.
    let (horizon, e) = (stepper.horizon().as_nanos(), epoch.as_nanos());
    let ends = horizon.div_ceil(e).saturating_sub(1);
    let mut obs = RuntimeObserver::every(epoch);
    obs.reserve(ends.saturating_sub(now.as_nanos() / e) as usize + 1);
    slots[i] = Some(Box::new(Slot {
        stepper,
        obs,
        inbox: Vec::new(),
        until: now,
        routed: 0,
        prev_shed: 0,
        unhealthy: 0,
        draining: false,
        activated_at: epoch_no,
    }));
}

/// Indices of replicas currently accepting traffic.
fn active_list(slots: &[Option<Box<Slot<'_>>>]) -> Vec<usize> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.as_ref().is_some_and(|s| !s.draining))
        .map(|(i, _)| i)
        .collect()
}

/// Runs the deterministic virtual fleet over `pool`, routing `queries`.
///
/// `cache` feeds shard placement: shards standing for hot embedding
/// tables weigh more, so placement balances cache value, not raw shard
/// counts. All pool members must share the same run window (duration,
/// warmup fraction, drain margin); they may differ in faults, supervision,
/// or topology.
///
/// # Panics
///
/// Panics when the pool is empty, the epoch is zero, `initial_replicas` is
/// out of range, the pool members disagree on the run window, or arrivals
/// decrease, lie past the horizon or have no items.
pub fn run_virtual_fleet(
    pool: &[ServingRuntime],
    cache: Option<&CacheModel>,
    cfg: &FleetConfig,
    queries: &[Query],
    offered: Qps,
) -> FleetReport {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    replay(pool, cache, cfg, queries, offered, threads)
}

/// [`run_virtual_fleet`] with its replicas stepped on a crew of `crew`
/// threads (at most one per replica); the report does not depend on it.
fn replay(
    pool: &[ServingRuntime],
    cache: Option<&CacheModel>,
    cfg: &FleetConfig,
    queries: &[Query],
    offered: Qps,
    crew: usize,
) -> FleetReport {
    assert!(!pool.is_empty(), "fleet needs at least one replica");
    assert!(
        cfg.epoch > SimDuration::ZERO,
        "fleet epoch must be positive"
    );
    assert!(
        cfg.initial_replicas >= 1 && cfg.initial_replicas <= pool.len(),
        "initial_replicas must be in 1..=pool size"
    );
    let first = pool[0].config();
    assert!(
        pool.iter().all(|rt| rt.config().duration == first.duration
            && rt.config().warmup_fraction == first.warmup_fraction
            && rt.config().drain_margin == first.drain_margin),
        "fleet replicas must share one run window"
    );
    let horizon = SimTime::ZERO + first.duration;
    assert!(
        queries.windows(2).all(|w| w[0].arrival <= w[1].arrival)
            && queries.last().map_or(true, |q| q.arrival <= horizon)
            && queries.iter().all(|q| q.size > 0),
        "fleet arrivals must be non-decreasing and lie within the horizon, with at least one item"
    );

    let mut map = ShardMap::place(cache, cfg.shards, cfg.initial_replicas);
    let mut slots: Vec<Option<Box<Slot<'_>>>> = pool.iter().map(|_| None).collect();
    for i in 0..cfg.initial_replicas {
        activate(pool, cfg.epoch, &mut slots, i, SimTime::ZERO, 0);
    }

    let mut scaler = cfg.autoscaler.map(Autoscaler::new);
    // Rebalances deferred by the migration cost: (epoch due, replica).
    let mut pending_moves: Vec<(u64, usize)> = Vec::new();

    let (mut routed, mut rerouted, mut router_dropped) = (0u64, 0u64, 0u64);
    let (mut scale_outs, mut scale_ins, mut drained) = (0u32, 0u32, 0u32);
    let mut peak_active = cfg.initial_replicas;

    let step = |slot: &mut Box<Slot<'_>>| slot.step();
    with_crew(crew.min(pool.len()), step, |crew| {
        let mut qi = 0usize;
        let mut t = SimTime::ZERO;
        let mut epoch_no = 0u64;
        while t < horizon {
            let end = (t + cfg.epoch).min(horizon);
            let last = end == horizon;

            // Deferred shard migrations whose warm-up elapsed.
            let due_now: Vec<usize> = pending_moves
                .iter()
                .filter(|&&(due, _)| due <= epoch_no)
                .map(|&(_, to)| to)
                .collect();
            pending_moves.retain(|&(due, _)| due > epoch_no);
            for to in due_now {
                let active = active_list(&slots);
                if active.contains(&to) {
                    map.rebalance_into(to, &active);
                }
            }

            // Route this epoch's arrivals into their owners' inboxes (the
            // final epoch includes queries landing exactly on the horizon,
            // as the bare runtime does).
            while qi < queries.len()
                && (queries[qi].arrival < end || (last && queries[qi].arrival <= end))
            {
                let q = queries[qi];
                qi += 1;
                let shard = shard_of(q.id, map.shards());
                match slots[map.owner(shard)].as_deref_mut() {
                    Some(slot) if !slot.draining => {
                        routed += 1;
                        rerouted += u64::from(map.moved(shard));
                        slot.inbox.push(q);
                    }
                    _ => router_dropped += 1,
                }
            }

            // Every live replica (draining ones keep finishing their
            // in-flight work) injects its inbox and steps to the boundary,
            // on whichever crew thread claims it.
            for slot in slots.iter_mut().flatten() {
                slot.until = end;
            }
            crew.round(&mut slots);

            // Health-based failover: drain replicas whose control plane
            // reports dead workers or sustained L2+ degrade.
            if cfg.failover {
                for i in 0..slots.len() {
                    let Some(slot) = slots[i].as_deref_mut().filter(|s| !s.draining) else {
                        continue;
                    };
                    let sick = slot.stepper.dead_workers() > 0 || slot.stepper.degrade_level() >= 2;
                    slot.unhealthy = if sick { slot.unhealthy + 1 } else { 0 };
                    if slot.unhealthy < cfg.drain_after.max(1) {
                        continue;
                    }
                    slot.draining = true;
                    drained += 1;
                    let mut active = active_list(&slots);
                    if active.is_empty() {
                        // Promote the lowest-index standby so the fleet
                        // keeps serving.
                        if let Some(spare) = slots.iter().position(Option::is_none) {
                            activate(pool, cfg.epoch, &mut slots, spare, end, epoch_no);
                            active.push(spare);
                        }
                    }
                    if !active.is_empty() {
                        map.reassign(i, &active);
                    }
                }
            }

            // Telemetry-driven scaling.
            if let Some(scaler) = scaler.as_mut() {
                let (mut active, mut shed_window) = (0usize, 0u64);
                let mut wait_p99: Option<f64> = None;
                for slot in slots.iter_mut().flatten().filter(|s| !s.draining) {
                    active += 1;
                    let shed_now = slot.stepper.shed();
                    shed_window += shed_now - slot.prev_shed;
                    slot.prev_shed = shed_now;
                    let tail = slot.obs.history().last().and_then(|s| {
                        s.stages
                            .iter()
                            .filter_map(|g| g.queue_wait_p99)
                            .fold(None, |a: Option<f64>, w| Some(a.map_or(w, |a| a.max(w))))
                    });
                    wait_p99 = match (wait_p99, tail) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                }
                let standby = slots.iter().filter(|s| s.is_none()).count();
                match scaler.step(shed_window, wait_p99, active, standby) {
                    ScaleDecision::Out => {
                        if let Some(spare) = slots.iter().position(Option::is_none) {
                            activate(pool, cfg.epoch, &mut slots, spare, end, epoch_no);
                            scale_outs += 1;
                            let due = epoch_no + scaler.policy().migration_cost_epochs as u64;
                            pending_moves.push((due, spare));
                        }
                    }
                    ScaleDecision::In => {
                        // Retire the most recently activated replica (ties
                        // to the highest index): the cheapest to migrate
                        // away. The scaler retires only while two are
                        // active, so there is one.
                        let victim = slots
                            .iter_mut()
                            .enumerate()
                            .filter_map(|(i, s)| Some((i, s.as_deref_mut()?)))
                            .filter(|(_, s)| !s.draining)
                            .max_by_key(|(i, s)| (s.activated_at, *i));
                        if let Some((victim, slot)) = victim {
                            slot.draining = true;
                            scale_ins += 1;
                            let remaining = active_list(&slots);
                            if !remaining.is_empty() {
                                map.reassign(victim, &remaining);
                            }
                        }
                    }
                    ScaleDecision::Hold => {}
                }
            }

            let active = slots.iter().flatten().filter(|s| !s.draining).count();
            peak_active = peak_active.max(active);
            t = end;
            epoch_no += 1;
        }
    });

    let replicas: Vec<ReplicaReport> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(index, slot)| slot.map(|s| (index, s)))
        .map(|(index, slot)| {
            let Slot {
                stepper,
                mut obs,
                routed: slot_routed,
                draining,
                ..
            } = *slot;
            let share = if routed > 0 {
                Qps(offered.value() * (slot_routed as f64 / routed as f64))
            } else {
                Qps(0.0)
            };
            let report = stepper.finish(share, Some(&mut obs));
            ReplicaReport {
                index,
                routed: slot_routed,
                drained: draining,
                report,
                snapshots: obs.into_history(),
            }
        })
        .collect();

    FleetReport {
        offered,
        arrivals: queries.len() as u64,
        routed,
        rerouted,
        router_dropped,
        scale_outs,
        scale_ins,
        drained,
        peak_active,
        replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscalerPolicy;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
    use hercules_runtime::{
        AdmissionPolicy, DeadlinePolicy, FaultPlan, RuntimeConfig, StageKind, SupervisorPolicy,
    };
    use hercules_sim::{NmpLutCache, PlacementPlan, SimConfig, SlaSpec};
    use hercules_workload::generator::QueryStream;
    use hercules_workload::query::QueryId;

    /// `phases` of (milliseconds, QPS) back to back, one seeded stream each.
    fn phased_trace(phases: &[(u64, f64)], seed: u64) -> Vec<Query> {
        let mut out: Vec<Query> = Vec::new();
        let mut start = SimTime::ZERO;
        for (k, &(ms, qps)) in phases.iter().enumerate() {
            let len = SimDuration::from_millis(ms);
            let mut stream = QueryStream::paper(Qps(qps), seed + k as u64);
            for q in stream.take_until(SimTime::ZERO + len) {
                out.push(Query {
                    id: QueryId(out.len() as u64),
                    arrival: start + (q.arrival - SimTime::ZERO),
                    size: q.size,
                });
            }
            start += len;
        }
        out
    }

    /// A fleet whose first replica hangs while the load rises past what
    /// two replicas serve and falls back: it drains the hung replica (the
    /// only one supervised, so overload alone drains none), scales out and
    /// scales back in, and every crew size reports it alike.
    #[test]
    fn reports_do_not_depend_on_the_crew_size() {
        let model = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production);
        let sla = model.default_sla();
        let duration = SimDuration::from_millis(2000);
        let healthy = RuntimeConfig::from_sim(&SimConfig {
            duration,
            warmup_fraction: 0.15,
            drain_margin: SimDuration::ZERO,
            seed: 41,
        })
        .with_admission(AdmissionPolicy::for_sla(&SlaSpec::p99(sla), 1.0))
        .with_deadline(DeadlinePolicy::track(sla));
        let (at, span) = (SimTime::ZERO + duration.mul_f64(0.2), duration.mul_f64(0.5));
        let hung = healthy
            .with_faults(
                FaultPlan::none()
                    .with_stall(StageKind::Front, 0, at, span)
                    .with_stall(StageKind::Front, 1, at, span),
            )
            .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(2)));
        let plan = PlacementPlan::CpuModel {
            threads: 2,
            workers: 2,
            batch: 256,
        };
        let luts = NmpLutCache::new();
        let pool: Vec<ServingRuntime> = (0..4)
            .map(|i| {
                let c = if i == 0 { hung } else { healthy };
                ServingRuntime::build(&model, ServerType::T2.spec(), &plan, c, &luts)
                    .expect("a small RMC1 plan on a T2 is feasible")
            })
            .collect();
        let trace = phased_trace(&[(800, 2000.0), (1200, 100.0)], 41);
        let offered = Qps(trace.len() as f64 / duration.as_secs_f64());
        let cfg = FleetConfig {
            epoch: SimDuration::from_millis(50),
            shards: 64,
            initial_replicas: 2,
            autoscaler: Some(AutoscalerPolicy {
                max_replicas: 4,
                wait_in_s: sla.as_secs_f64() / 2.0,
                ..AutoscalerPolicy::default()
            }),
            failover: true,
            drain_after: 1,
        };
        let serial = replay(&pool, None, &cfg, &trace, offered, 1);
        assert!(serial.conserves());
        assert!(
            serial.drained > 0 && serial.scale_outs > 0 && serial.scale_ins > 0,
            "the fleet drains ({}), scales out ({}) and scales in ({})",
            serial.drained,
            serial.scale_outs,
            serial.scale_ins
        );
        let serial = format!("{serial:?}");
        for crew in [2, 3, pool.len() + 2] {
            let report = replay(&pool, None, &cfg, &trace, offered, crew);
            assert!(format!("{report:?}") == serial, "a crew of {crew}");
        }
    }
}
