//! Deterministic fault injection, supervised recovery, and the
//! graceful-degradation ladder.
//!
//! A [`FaultPlan`] is a small, seeded, `Copy` schedule of faults — worker
//! stalls, slow-core derates, gather-latency spikes, batch-scoped GPU
//! faults, and injected worker panics. Both executors consume the same
//! plan: the wall clock realizes faults as real sleeps and derated
//! busy-waits, the virtual clock as identical deterministic events, so
//! every fault scenario is bitwise-reproducible and property-testable.
//! The executors ask the plan itself, against the run's pool sizes, for a
//! worker's service multiplier, stall end and panic time and a GPU
//! context's compute multiplier: a query scans its at most
//! [`MAX_FAULTS`] events. [`FaultPlan::none`] (the default) injects nothing and leaves both
//! clocks bit-identical to a fault-free build: the executors gate every
//! fault branch on the plan being non-empty, adding no heap events, no
//! sequence numbers, and no RNG draws to the default path.
//!
//! Recovery is layered on top:
//!
//! * Workers publish heartbeats through their
//!   [`TelemetrySlot`](crate::telemetry::TelemetrySlot)s. A supervisor
//!   reading the pools' heartbeats and queue depths declares workers whose
//!   beat has gone stale (with work queued behind them) *suspect* and
//!   removes them from virtual-clock dispatch so siblings absorb their
//!   queue share; wall workers that detect their own stall re-enqueue the
//!   sub-query in hand (a bounded retry budget) before sleeping the stall
//!   out.
//! * Under sustained ingress distress the supervisor walks the
//!   degradation ladder: **L1** tighten the dynamic batcher's max delay,
//!   **L2** degraded gathers (serve cache-hit rows only, skip the
//!   cold-miss penalty — priced through the oracle, counted per query),
//!   **L3** shed at dispatch. Recovery steps back down after consecutive
//!   calm windows.
//! * Queries carry deadlines ([`DeadlinePolicy`](crate::config::DeadlinePolicy)):
//!   expired work is dropped at dequeue instead of burning service time,
//!   and the conservation law extends to
//!   `arrivals = completed_full + completed_degraded + expired + shed + in_flight`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use hercules_common::rng::splitmix64;
use hercules_common::stats::LatencyHistogram;
use hercules_common::units::{SimDuration, SimTime};
use hercules_hw::cost::BatchCost;

use crate::observe::{HistSum, WorkerView};
use crate::pipeline::PoolView;
use crate::telemetry::StageKind;

/// Maximum events one plan can hold. The fixed bound keeps [`FaultPlan`]
/// (and therefore [`RuntimeConfig`](crate::config::RuntimeConfig)) `Copy`.
pub const MAX_FAULTS: usize = 8;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The worker freezes — pops nothing, serves nothing — from `at` for
    /// `duration`. Front/back pools only.
    Stall {
        /// Pool the worker serves in.
        stage: StageKind,
        /// Worker index (clamped into the pool by modulo).
        worker: u32,
        /// Stall onset.
        at: SimTime,
        /// Stall length.
        duration: SimDuration,
    },
    /// The worker's service times scale by `factor` for the whole run
    /// (a thermally-throttled or interfered-with core). Front/back only.
    SlowCore {
        /// Pool the worker serves in.
        stage: StageKind,
        /// Worker index (clamped into the pool by modulo).
        worker: u32,
        /// Service-time multiplier (≥ 1 slows, < 1 is clamped to 1).
        factor: f64,
    },
    /// Every front-pool gather pays `factor`× service inside the window
    /// (a memory-bandwidth interference burst).
    GatherSpike {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Service-time multiplier.
        factor: f64,
    },
    /// Batches on GPU context `ctx` compute `factor`× slower inside the
    /// window (ECC scrubbing, clock drop, faulty HBM channel).
    GpuFault {
        /// Context index (clamped into the pool by modulo).
        ctx: u32,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Compute-time multiplier.
        factor: f64,
    },
    /// The worker panics at `at` (wall clock: a real `panic!` caught at
    /// the pool boundary; virtual clock: the worker leaves the dispatch
    /// pool). Front/back pools only — a dead GPU context would strand the
    /// fused-batch queue.
    Panic {
        /// Pool the worker serves in.
        stage: StageKind,
        /// Worker index (clamped into the pool by modulo).
        worker: u32,
        /// Time of death.
        at: SimTime,
    },
}

/// A seeded, reproducible schedule of injected faults.
///
/// Build one with the `with_*` builders or derive a named scenario with
/// [`FaultPlan::scenario`]. The default plan is [`FaultPlan::none`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    events: [Option<FaultSpec>; MAX_FAULTS],
    len: usize,
}

impl FaultPlan {
    /// The empty plan: injects nothing, leaves both clocks bit-identical
    /// to a fault-free build.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduled events, in insertion order.
    pub fn events(&self) -> impl Iterator<Item = &FaultSpec> {
        self.events[..self.len].iter().flatten()
    }

    fn push(mut self, spec: FaultSpec) -> Self {
        assert!(
            self.len < MAX_FAULTS,
            "FaultPlan holds at most {MAX_FAULTS} events"
        );
        self.events[self.len] = Some(spec);
        self.len += 1;
        self
    }

    /// Builder: adds a worker stall.
    pub fn with_stall(
        self,
        stage: StageKind,
        worker: u32,
        at: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.push(FaultSpec::Stall {
            stage,
            worker,
            at,
            duration,
        })
    }

    /// Builder: adds a whole-run slow-core derate.
    pub fn with_slow_core(self, stage: StageKind, worker: u32, factor: f64) -> Self {
        self.push(FaultSpec::SlowCore {
            stage,
            worker,
            factor,
        })
    }

    /// Builder: adds a gather-latency spike window.
    pub fn with_gather_spike(self, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.push(FaultSpec::GatherSpike {
            from,
            until,
            factor,
        })
    }

    /// Builder: adds a batch-scoped GPU fault window.
    pub fn with_gpu_fault(self, ctx: u32, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.push(FaultSpec::GpuFault {
            ctx,
            from,
            until,
            factor,
        })
    }

    /// Builder: adds an injected worker panic.
    pub fn with_panic(self, stage: StageKind, worker: u32, at: SimTime) -> Self {
        self.push(FaultSpec::Panic { stage, worker, at })
    }

    /// A named scenario, with event parameters (worker choice, derate
    /// factors) derived reproducibly from `seed` and event times placed
    /// relative to the run `duration`.
    ///
    /// Known names: `none`, `stall`, `slowcore`, `stall+slowcore`,
    /// `spike`, `gpu`, `panic`, `chaos`.
    ///
    /// # Errors
    ///
    /// Returns the list of known scenario names when `name` is not one.
    pub fn scenario(name: &str, seed: u64, duration: SimDuration) -> Result<FaultPlan, String> {
        let mut state = seed ^ 0x00FA_017F_A017;
        fn next_u32(state: &mut u64, bound: u32) -> u32 {
            (splitmix64(state) % bound.max(1) as u64) as u32
        }
        fn unit(state: &mut u64, lo: f64, hi: f64) -> f64 {
            lo + (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
        let at = |f: f64| SimTime::ZERO + duration.mul_f64(f);
        let span = |f: f64| duration.mul_f64(f);
        let stall =
            |plan: FaultPlan, w: u32| plan.with_stall(StageKind::Front, w, at(0.25), span(0.30));
        let w = next_u32(&mut state, 16);
        let plan = FaultPlan::none();
        let plan = match name {
            "none" => plan,
            "stall" => stall(plan, w),
            "slowcore" => plan.with_slow_core(StageKind::Front, w, unit(&mut state, 3.0, 5.0)),
            "stall+slowcore" => {
                stall(plan, w).with_slow_core(StageKind::Front, w + 1, unit(&mut state, 3.0, 5.0))
            }
            "spike" => plan.with_gather_spike(at(0.30), at(0.60), unit(&mut state, 2.5, 4.0)),
            "gpu" => plan.with_gpu_fault(
                next_u32(&mut state, 8),
                at(0.30),
                at(0.60),
                unit(&mut state, 2.0, 4.0),
            ),
            "panic" => plan.with_panic(StageKind::Front, w, at(0.40)),
            "chaos" => stall(plan, w)
                .with_slow_core(StageKind::Front, w + 1, unit(&mut state, 2.5, 4.0))
                .with_gather_spike(at(0.55), at(0.80), unit(&mut state, 2.0, 3.0)),
            other => {
                return Err(format!(
                    "unknown fault scenario {other:?}; expected one of \
                     none|stall|slowcore|stall+slowcore|spike|gpu|panic|chaos"
                ))
            }
        };
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// The executors' queries, answered by the plan against a run's pool sizes.

impl FaultPlan {
    /// Service-time multiplier for a batch dispatched on `(stage, worker)`
    /// at `now`, in pools of `pools` workers ([`StageKind`] order): the
    /// worker's slow-core factors, then every active gather spike's (front
    /// pool only), each in plan order and at least 1.
    pub(crate) fn service_mult(
        &self,
        pools: [u32; 3],
        stage: StageKind,
        worker: u32,
        now: SimTime,
    ) -> f64 {
        let slow = self.events().filter_map(|spec| match *spec {
            FaultSpec::SlowCore {
                stage: s,
                worker: w,
                factor,
            } if lands(pools, (s, w), stage, worker) => Some(factor),
            _ => None,
        });
        let spikes = self.events().filter_map(|spec| match *spec {
            FaultSpec::GatherSpike {
                from,
                until,
                factor,
            } if stage == StageKind::Front && now >= from && now < until => Some(factor),
            _ => None,
        });
        slow.chain(spikes).fold(1.0, |m, f| m * f.max(1.0))
    }

    /// Compute-time multiplier for a batch launched on GPU context `ctx`
    /// at `now`: every active GPU fault's factor aimed at it (wrapped into
    /// the pool by modulo), in plan order and at least 1.
    pub(crate) fn gpu_mult(&self, pools: [u32; 3], ctx: u32, now: SimTime) -> f64 {
        let n = pools[StageKind::Gpu.index()];
        self.events()
            .filter_map(|spec| match *spec {
                FaultSpec::GpuFault {
                    ctx: c,
                    from,
                    until,
                    factor,
                } if n > 0 && c % n == ctx && now >= from && now < until => Some(factor),
                _ => None,
            })
            .fold(1.0, |m, f| m * f.max(1.0))
    }

    /// When `(stage, worker)` is inside a stall window at `now`, the end of
    /// the first such window in plan order.
    pub(crate) fn stall_end(
        &self,
        pools: [u32; 3],
        stage: StageKind,
        worker: u32,
        now: SimTime,
    ) -> Option<SimTime> {
        self.events().find_map(|spec| match *spec {
            FaultSpec::Stall {
                stage: s,
                worker: w,
                at,
                duration,
            } if lands(pools, (s, w), stage, worker) && now >= at && now < at + duration => {
                Some(at + duration)
            }
            _ => None,
        })
    }

    /// The earliest injected panic time for `(stage, worker)`, if any. The
    /// virtual clock retires the worker once it passes; wall workers
    /// capture their own and `panic!` when the clock crosses it.
    pub(crate) fn panic_at(
        &self,
        pools: [u32; 3],
        stage: StageKind,
        worker: u32,
    ) -> Option<SimTime> {
        self.events()
            .filter_map(|spec| match *spec {
                FaultSpec::Panic {
                    stage: s,
                    worker: w,
                    at,
                } if lands(pools, (s, w), stage, worker) => Some(at),
                _ => None,
            })
            .min()
    }
}

/// Whether a worker fault aimed at `target` lands on `worker` of `stage`,
/// in pools of `pools` workers: worker faults hit the front and back pools
/// only, and a worker index past its pool wraps into it by modulo.
fn lands(pools: [u32; 3], target: (StageKind, u32), stage: StageKind, worker: u32) -> bool {
    let n = pools[stage.index()];
    target.0 == stage && stage != StageKind::Gpu && n > 0 && target.1 % n == worker
}

// ---------------------------------------------------------------------------
// RuntimeControls: the supervisor's write side, the executors' read side.

/// Shared control plane between the supervisor (writer) and the executors
/// (readers): the degradation-ladder level, the live dynamic-batching
/// delay, and per-stage suspect/dead worker bitmasks. All plain atomics —
/// reading them costs the serving path a relaxed load, and when no
/// supervisor runs every value stays at its configuration default.
#[derive(Debug)]
pub(crate) struct RuntimeControls {
    level: AtomicU8,
    batch_delay_ns: AtomicU64,
    suspect: [AtomicU64; 3],
    dead: [AtomicU64; 3],
}

impl RuntimeControls {
    /// Controls initialized to "no degradation": level 0, the configured
    /// batch delay, no suspects, no dead workers.
    pub fn new(batch_delay: SimDuration) -> Arc<Self> {
        Arc::new(RuntimeControls {
            level: AtomicU8::new(0),
            batch_delay_ns: AtomicU64::new(batch_delay.as_nanos()),
            suspect: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            dead: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// Current ladder level (0 = healthy … 3 = shedding).
    pub fn level(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    pub fn set_level(&self, level: u8) {
        self.level.store(level.min(3), Ordering::Relaxed);
    }

    /// L2+: serve degraded gathers (cache-hit rows only).
    pub fn degrade_gather(&self) -> bool {
        self.level() >= 2
    }

    /// L3: shed new arrivals at dispatch.
    pub fn shedding(&self) -> bool {
        self.level() >= 3
    }

    /// The live dynamic-batching max delay (L1 tightens it).
    pub fn batch_delay(&self) -> SimDuration {
        SimDuration::from_nanos(self.batch_delay_ns.load(Ordering::Relaxed))
    }

    pub fn set_batch_delay(&self, delay: SimDuration) {
        self.batch_delay_ns
            .store(delay.as_nanos(), Ordering::Relaxed);
    }

    pub fn mark_suspect(&self, stage: StageKind, worker: u32) {
        self.suspect[stage.index()].fetch_or(1u64 << (worker & 63), Ordering::Relaxed);
    }

    pub fn clear_suspect(&self, stage: StageKind, worker: u32) {
        self.suspect[stage.index()].fetch_and(!(1u64 << (worker & 63)), Ordering::Relaxed);
    }

    pub fn is_suspect(&self, stage: StageKind, worker: u32) -> bool {
        self.suspect[stage.index()].load(Ordering::Relaxed) & (1u64 << (worker & 63)) != 0
    }

    pub fn mark_dead(&self, stage: StageKind, worker: u32) {
        self.dead[stage.index()].fetch_or(1u64 << (worker & 63), Ordering::Relaxed);
    }

    pub fn is_dead(&self, stage: StageKind, worker: u32) -> bool {
        self.dead[stage.index()].load(Ordering::Relaxed) & (1u64 << (worker & 63)) != 0
    }

    /// Workers currently marked suspect, across stages.
    pub fn suspect_count(&self) -> u32 {
        self.suspect
            .iter()
            .map(|m| m.load(Ordering::Relaxed).count_ones())
            .sum()
    }

    /// Workers marked dead, across stages.
    pub fn dead_count(&self) -> u32 {
        self.dead
            .iter()
            .map(|m| m.load(Ordering::Relaxed).count_ones())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Supervisor: windowed distress detection, the ladder, worker health.

/// The supervision boundary period.
pub(crate) const SUPERVISOR_PERIOD: SimDuration = SimDuration::from_millis(20);
/// A worker whose last heartbeat is older than this — while its pool has
/// queued work — is declared suspect.
const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// Consecutive distressed windows before the ladder escalates a level.
const ESCALATE_AFTER: u32 = 2;
/// Consecutive calm windows before the ladder recovers a level.
const RECOVER_AFTER: u32 = 4;
/// The dynamic-batching max delay L1 tightens to.
const TIGHT_MAX_DELAY: SimDuration = SimDuration::from_micros(50);

/// Windows the ingress pool's queue wait, reads every pool's depth and
/// heartbeats, and drives [`RuntimeControls`]: escalates/recovers the
/// degradation ladder on sustained ingress distress, and marks stalled
/// workers suspect so dispatch routes around them. Runs on the supervisor
/// thread (wall clock) or inline at exact boundaries (virtual clock).
#[derive(Debug)]
pub(crate) struct Supervisor {
    /// Ingress distress threshold (the policy's `distress_wait`).
    distress_wait: SimDuration,
    controls: Arc<RuntimeControls>,
    /// Modeled per-sub service seconds (the admission estimate), for the
    /// backlog-drain distress signal.
    per_sub_s: f64,
    /// The configured batch delay, restored when the ladder steps below L1.
    base_delay: SimDuration,
    /// The pool arrivals enter.
    ingress: StageKind,
    /// The ingress pool's queue-wait histograms summed at the last
    /// boundary, and their window since the one before.
    queue_wait: HistSum,
    layout: LatencyHistogram,
    hot: u32,
    calm: u32,
}

impl Supervisor {
    pub fn new(
        distress_wait: SimDuration,
        controls: Arc<RuntimeControls>,
        per_sub_s: f64,
        base_delay: SimDuration,
        ingress: StageKind,
    ) -> Self {
        let layout = LatencyHistogram::default_latency();
        Supervisor {
            distress_wait,
            controls,
            per_sub_s,
            base_delay,
            ingress,
            queue_wait: HistSum::new(&layout),
            layout,
            hot: 0,
            calm: 0,
        }
    }

    /// One supervision boundary at `now` over `pools` (in [`StageKind`]
    /// order): update the ladder from ingress distress, then re-derive
    /// worker health from heartbeats.
    pub fn tick<W: WorkerView>(&mut self, pools: [PoolView<'_, W>; 3], now: SimTime) {
        let (workers, depth) = pools[self.ingress.index()];
        self.queue_wait
            .advance(workers, W::queue_wait, &self.layout, None);
        if self.ingress_distressed(workers.len(), depth) {
            self.calm = 0;
            self.hot += 1;
            if self.hot >= ESCALATE_AFTER {
                self.hot = 0;
                self.apply(self.controls.level().saturating_add(1));
            }
        } else {
            self.hot = 0;
            self.calm += 1;
            if self.calm >= RECOVER_AFTER {
                self.calm = 0;
                self.apply(self.controls.level().saturating_sub(1));
            }
        }
        for stage in [StageKind::Front, StageKind::Back] {
            let (workers, depth) = pools[stage.index()];
            self.health(stage, workers, depth, now);
        }
    }

    /// Distress = the ingress pool's windowed p99 queue wait exceeds the
    /// threshold, or its current backlog of `depth` sub-queries would take
    /// its `workers` longer than the threshold to drain at the modeled
    /// service rate.
    fn ingress_distressed(&self, workers: usize, depth: usize) -> bool {
        let limit = self.distress_wait.as_secs_f64();
        let [_, p99] = self.queue_wait.quantiles();
        let p99_hot = p99.is_some_and(|v| v > limit);
        let backlog_s = depth as f64 * self.per_sub_s / workers.max(1) as f64;
        p99_hot || backlog_s > limit
    }

    fn apply(&self, level: u8) {
        let level = level.min(3);
        self.controls.set_level(level);
        self.controls.set_batch_delay(if level >= 1 {
            TIGHT_MAX_DELAY
        } else {
            self.base_delay
        });
    }

    /// Marks workers whose heartbeat has gone stale — while work is queued
    /// behind their pool — suspect; clears the mark once they beat again.
    /// Always leaves at least one live worker unmarked so a universally
    /// stale pool (e.g. a cold start) cannot wedge dispatch.
    fn health<W: WorkerView>(&self, stage: StageKind, workers: &[W], backlog: usize, now: SimTime) {
        if workers.is_empty() {
            return;
        }
        let stale = |beat: SimTime| now.saturating_since(beat) > HEARTBEAT_TIMEOUT;
        let beats = workers.iter().map(W::last_beat).enumerate();
        let live = beats
            .clone()
            .filter(|&(w, _)| !self.controls.is_dead(stage, w as u32));
        let all_stale = live.clone().all(|(_, b)| stale(b));
        let freshest = live.max_by_key(|&(_, b)| b).map(|(w, _)| w).unwrap_or(0);
        for (w, beat) in beats {
            if self.controls.is_dead(stage, w as u32) {
                continue;
            }
            let spare = all_stale && w == freshest;
            if stale(beat) && backlog > 0 && !spare {
                self.controls.mark_suspect(stage, w as u32);
            } else {
                self.controls.clear_suspect(stage, w as u32);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded-gather pricing.

/// Fraction of the sparse phase still served by an L2 degraded gather
/// (the cache-resident share; the cold remainder is skipped).
pub(crate) const DEGRADED_KEEP: f64 = 0.25;

/// The oracle-priced latency of a *degraded* gather: serve only the
/// cache-resident share `keep` of the sparse phase and skip the cold-miss
/// penalty, keeping the dense share intact. Mirrors the wall executor's
/// real-gather split (`keep = 0` is the dense residual it still
/// busy-waits): with no per-op breakdown (synthetic test oracles) the full
/// latency is charged.
pub(crate) fn degraded_latency(cost: &BatchCost, keep: f64) -> SimDuration {
    let total: f64 = cost.per_op.iter().map(|o| o.duration.as_secs_f64()).sum();
    if total <= 0.0 {
        return cost.latency;
    }
    let sparse: f64 = cost
        .per_op
        .iter()
        .filter(|o| o.sparse)
        .map(|o| o.duration.as_secs_f64())
        .sum();
    let sparse_frac = (sparse / total).clamp(0.0, 1.0);
    let keep = keep.clamp(0.0, 1.0);
    cost.latency.mul_f64(1.0 - sparse_frac * (1.0 - keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::Joules;
    use hercules_hw::cost::OpTiming;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.events().count(), 0);
        let pools = [4, 2, 1];
        assert_eq!(
            plan.service_mult(pools, StageKind::Front, 0, SimTime::from_millis(10)),
            1.0
        );
        assert_eq!(
            plan.stall_end(pools, StageKind::Front, 0, SimTime::from_millis(10)),
            None
        );
        assert_eq!(plan.panic_at(pools, StageKind::Front, 0), None);
    }

    #[test]
    fn book_resolves_plan_against_pools() {
        let plan = FaultPlan::none()
            .with_stall(
                StageKind::Front,
                5, // clamps to 5 % 2 == 1
                SimTime::from_millis(100),
                SimDuration::from_millis(50),
            )
            .with_slow_core(StageKind::Front, 0, 3.0)
            .with_gather_spike(SimTime::from_millis(10), SimTime::from_millis(20), 2.0)
            .with_gpu_fault(0, SimTime::from_millis(30), SimTime::from_millis(40), 4.0)
            .with_panic(StageKind::Back, 0, SimTime::from_millis(200));
        let pools = [2, 1, 1];
        let dead = |stage, worker, now| {
            plan.panic_at(pools, stage, worker)
                .is_some_and(|at| now >= at)
        };
        assert!(!plan.is_empty());
        // Stall clamped onto front worker 1, active only inside the window.
        assert_eq!(
            plan.stall_end(pools, StageKind::Front, 1, SimTime::from_millis(120)),
            Some(SimTime::from_millis(150))
        );
        assert_eq!(
            plan.stall_end(pools, StageKind::Front, 1, SimTime::from_millis(160)),
            None
        );
        // Derate on worker 0, spike multiplies front service inside its window.
        assert_eq!(
            plan.service_mult(pools, StageKind::Front, 0, SimTime::from_millis(15)),
            6.0
        );
        assert_eq!(
            plan.service_mult(pools, StageKind::Front, 0, SimTime::from_millis(25)),
            3.0
        );
        assert_eq!(
            plan.service_mult(pools, StageKind::Front, 1, SimTime::from_millis(25)),
            1.0
        );
        // GPU window.
        assert_eq!(plan.gpu_mult(pools, 0, SimTime::from_millis(35)), 4.0);
        assert_eq!(plan.gpu_mult(pools, 0, SimTime::from_millis(45)), 1.0);
        // Panic: dead only after `at`.
        assert!(!dead(StageKind::Back, 0, SimTime::from_millis(199)));
        assert!(dead(StageKind::Back, 0, SimTime::from_millis(200)));
        assert_eq!(
            plan.panic_at(pools, StageKind::Back, 0),
            Some(SimTime::from_millis(200))
        );
    }

    /// A seeded plan of 1–8 events of all five kinds. Worker targets reach
    /// past every pool size, worker faults may aim at the GPU stage,
    /// windows overlap, and factors fall below 1 as well as above.
    fn random_plan(s: &mut u64) -> FaultPlan {
        let mut draw = |bound: u64| splitmix64(s) % bound;
        let mut plan = FaultPlan::none();
        for _ in 0..=draw(8) {
            let stage = StageKind::ALL[draw(3) as usize];
            let worker = draw(7) as u32;
            let at = SimTime::from_millis(draw(101));
            let len = SimDuration::from_millis(draw(61));
            let factor = 0.5 + draw(1 << 20) as f64 / (1 << 20) as f64 * 4.5;
            plan = match draw(5) {
                0 => plan.with_stall(stage, worker, at, len),
                1 => plan.with_slow_core(stage, worker, factor),
                2 => plan.with_gather_spike(at, at + len, factor),
                3 => plan.with_gpu_fault(worker, at, at + len, factor),
                _ => plan.with_panic(stage, worker, at),
            };
        }
        plan
    }

    /// Counts, over `plan`'s events against `pools`, the cases the digest
    /// pin must cover: a worker target past its pool, a worker fault aimed
    /// at the GPU stage, a factor below 1, and pairs of overlapping stalls,
    /// of panics and of slow cores aimed at one worker.
    fn cases(plan: &FaultPlan, pools: [u32; 3], seen: &mut [u32; 6]) {
        let aim = |spec: &FaultSpec| match *spec {
            FaultSpec::Stall {
                stage,
                worker,
                at,
                duration,
            } => Some((0usize, stage, worker, at, at + duration)),
            FaultSpec::SlowCore { stage, worker, .. } => {
                Some((1, stage, worker, SimTime::ZERO, SimTime::MAX))
            }
            FaultSpec::Panic { stage, worker, .. } => {
                Some((2, stage, worker, SimTime::ZERO, SimTime::MAX))
            }
            _ => None,
        };
        let events: Vec<FaultSpec> = plan.events().copied().collect();
        for (i, spec) in events.iter().enumerate() {
            if let FaultSpec::SlowCore { factor, .. }
            | FaultSpec::GatherSpike { factor, .. }
            | FaultSpec::GpuFault { factor, .. } = *spec
            {
                seen[2] += u32::from(factor < 1.0);
            }
            let Some((kind, stage, worker, from, until)) = aim(spec) else {
                continue;
            };
            seen[0] += u32::from(worker >= pools[stage.index()]);
            seen[1] += u32::from(stage == StageKind::Gpu);
            for other in &events[i + 1..] {
                if let Some((k, s, w, f, u)) = aim(other) {
                    let overlap = f < until && from < u;
                    seen[3 + kind] += u32::from((k, s, w) == (kind, stage, worker) && overlap);
                }
            }
        }
    }

    /// FNV-1a of `word`'s bytes, continuing from `h`.
    fn fnv1a(h: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Pins every fault query the executors make, on 1000 seeded plans,
    /// each against seeded pool sizes (front 0–4, back 0–3, GPU 0–3): every
    /// worker's service multiplier, stall end and panic time, and every GPU
    /// context's compute multiplier, at 5 ms steps to 110 ms, digested as
    /// `f64` bits and nanoseconds (`u64::MAX` for none).
    #[test]
    fn fault_queries_match_their_pinned_digest() {
        let (mut s, mut h, mut seen) = (0x5EED_FA17u64, 0xcbf2_9ce4_8422_2325u64, [0u32; 6]);
        let nanos = |t: Option<SimTime>| t.map_or(u64::MAX, SimTime::as_nanos);
        for _ in 0..1000 {
            let plan = random_plan(&mut s);
            let pools = [5, 4, 4].map(|n| (splitmix64(&mut s) % n) as u32);
            cases(&plan, pools, &mut seen);
            for step in 0..=22 {
                let now = SimTime::from_millis(5 * step);
                for stage in StageKind::ALL {
                    for w in 0..pools[stage.index()] {
                        h = fnv1a(h, plan.service_mult(pools, stage, w, now).to_bits());
                        h = fnv1a(h, nanos(plan.stall_end(pools, stage, w, now)));
                        h = fnv1a(h, nanos(plan.panic_at(pools, stage, w)));
                    }
                }
                for ctx in 0..pools[2] {
                    h = fnv1a(h, plan.gpu_mult(pools, ctx, now).to_bits());
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "uncovered case: {seen:?}");
        assert_eq!(h, 0x148D_B652_A0F2_C5AE, "{seen:?}");
    }

    #[test]
    fn scenarios_are_reproducible_and_named() {
        let d = SimDuration::from_secs(2);
        let a = FaultPlan::scenario("stall+slowcore", 7, d).unwrap();
        let b = FaultPlan::scenario("stall+slowcore", 7, d).unwrap();
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::scenario("stall+slowcore", 8, d).unwrap());
        assert_eq!(a.events().count(), 2);
        assert!(FaultPlan::scenario("none", 7, d).unwrap().is_empty());
        assert!(FaultPlan::scenario("definitely-not-a-scenario", 7, d).is_err());
        for name in ["stall", "slowcore", "spike", "gpu", "panic", "chaos"] {
            assert!(
                !FaultPlan::scenario(name, 7, d).unwrap().is_empty(),
                "{name}"
            );
        }
    }

    #[test]
    fn controls_track_level_and_worker_health() {
        let c = RuntimeControls::new(SimDuration::from_micros(500));
        assert_eq!(c.level(), 0);
        assert!(!c.degrade_gather() && !c.shedding());
        assert_eq!(c.batch_delay(), SimDuration::from_micros(500));
        c.set_level(2);
        assert!(c.degrade_gather() && !c.shedding());
        c.set_level(9);
        assert_eq!(c.level(), 3, "level clamps at L3");
        assert!(c.shedding());
        c.mark_suspect(StageKind::Front, 1);
        assert!(c.is_suspect(StageKind::Front, 1));
        assert!(!c.is_suspect(StageKind::Back, 1));
        assert_eq!(c.suspect_count(), 1);
        c.clear_suspect(StageKind::Front, 1);
        assert_eq!(c.suspect_count(), 0);
        c.mark_dead(StageKind::Back, 0);
        assert!(c.is_dead(StageKind::Back, 0));
        assert_eq!(c.dead_count(), 1);
    }

    #[test]
    fn degraded_latency_drops_only_the_cold_sparse_share() {
        let sparse_op = |ms: u64, sparse: bool| OpTiming {
            label: "op",
            sparse,
            duration: SimDuration::from_millis(ms),
        };
        let cost = BatchCost {
            latency: SimDuration::from_millis(10),
            busy_core_time: SimDuration::from_millis(10),
            idle_fraction: 0.0,
            channel_bytes: 0.0,
            nmp_energy: Joules(0.0),
            gpu_busy: SimDuration::ZERO,
            gpu_util: 0.0,
            per_op: vec![sparse_op(6, true), sparse_op(4, false)],
        };
        // keep=0: the whole 60% sparse share vanishes.
        assert_eq!(degraded_latency(&cost, 0.0), SimDuration::from_millis(4));
        // keep=0.5: half of it stays.
        assert_eq!(degraded_latency(&cost, 0.5), SimDuration::from_millis(7));
        // keep=1: undegraded.
        assert_eq!(degraded_latency(&cost, 1.0), cost.latency);
        // No per-op breakdown: full latency (nothing to split).
        let bare = BatchCost {
            per_op: Vec::new(),
            ..cost.clone()
        };
        assert_eq!(degraded_latency(&bare, 0.0), bare.latency);
    }
}
