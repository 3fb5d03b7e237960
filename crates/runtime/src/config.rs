//! Runtime controls: clock mode, dynamic-batching policy, SLA-aware
//! admission, and queue bounds.

use hercules_common::units::{MemBytes, SimDuration};
use hercules_sim::{RunWindow, SimConfig, SlaSpec};

pub use crate::affinity::PinPolicy;
pub use crate::fault::FaultPlan;

/// How the runtime advances time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockMode {
    /// Deterministic virtual clock: the runtime's queues, batcher, and
    /// admission controller are driven by a time-ordered event loop.
    /// Bitwise-reproducible across runs; what searches and tests use.
    Virtual,
    /// Calibrated busy-wait wall clock: worker pools are real OS threads
    /// that spin for each batch's modeled service time, so real queue
    /// contention, batching jitter, and wake-up latencies show up in the
    /// measurements.
    Wall {
        /// Wall seconds per simulated second. `1.0` runs in real time;
        /// larger values stretch the run (useful to watch), smaller values
        /// compress it (useful for benches — service times shrink
        /// proportionally, queueing ratios are preserved).
        time_scale: f64,
    },
}

impl ClockMode {
    /// Real-time wall clock.
    pub fn wall() -> Self {
        ClockMode::Wall { time_scale: 1.0 }
    }
}

/// How the wall-clock front pool spends a sub-query's sparse (embedding
/// gather) time.
///
/// Only the wall clock consults this: the virtual clock is a deterministic
/// event loop over modeled costs and produces bit-identical reports
/// regardless of the gather mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GatherMode {
    /// Busy-wait for the modeled sparse time (the seed behaviour). No
    /// memory traffic; pure timing emulation.
    Synthetic,
    /// Execute a real Gather-and-Reduce against a resident synthetic
    /// embedding arena (see [`memory`](crate::memory)); the measured
    /// gather time replaces the modeled sparse share of the service time,
    /// and the dense residual is still busy-waited.
    Real {
        /// Memory budget for the arena. Tables that do not fit are
        /// row-compacted proportionally (Zipf hot rows survive).
        budget: MemBytes,
    },
}

impl GatherMode {
    /// Real gathers under a budget of `mib` MiB.
    pub fn real_mib(mib: u64) -> Self {
        GatherMode::Real {
            budget: MemBytes::from_mib(mib),
        }
    }

    /// Whether this mode executes real memory reads.
    pub fn is_real(&self) -> bool {
        matches!(self, GatherMode::Real { .. })
    }
}

/// Dynamic-batching policy for the accelerator fusion stage.
///
/// The simulator launches a fused batch greedily whenever a GPU context is
/// free; a real serving runtime instead *waits* briefly for the batch to
/// fill, trading a bounded queueing delay for better accelerator
/// utilization (the DeepRecSys batching-queue insight). `max_delay` bounds
/// that wait: a partial batch launches once its oldest sub-query has waited
/// this long. Plans without query fusion ignore the policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum time the head of a partial fused batch may wait for the
    /// batch to fill. [`SimDuration::ZERO`] launches greedily (simulator
    /// behaviour).
    pub max_delay: SimDuration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_delay: SimDuration::from_micros(500),
        }
    }
}

/// SLA-aware admission control: shed queries at dispatch when the
/// estimated queue delay would blow the latency budget.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionPolicy {
    /// Queue-delay budget. A query is shed when the ingress queue's
    /// estimated drain time exceeds it; `None` admits everything (queries
    /// can still be shed by ingress-queue backpressure).
    pub budget: Option<SimDuration>,
}

impl AdmissionPolicy {
    /// A budget of `headroom * sla.target`: with `headroom` below 1 the
    /// controller sheds before the tail SLA is at risk, keeping admitted
    /// queries fast at the cost of availability under overload.
    pub fn for_sla(sla: &SlaSpec, headroom: f64) -> Self {
        AdmissionPolicy {
            budget: Some(sla.target.mul_f64(headroom.max(0.0))),
        }
    }
}

/// Sampled query tracing (the flight recorder; see
/// [`trace`](crate::trace)).
///
/// Off by default: tracing touches the hot path (one stateless hash per
/// sub-query plus a ring write for sampled ones), so it is opt-in even
/// though the measured overhead at 1-in-64 is under the noise floor
/// (`BENCH_observer.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace roughly one query in this many (`0` disables tracing, `1`
    /// traces every query). The decision is a pure function of the run
    /// seed and the query index, so virtual-clock traces are reproducible.
    pub sample_one_in: u32,
    /// Capacity of each worker's span ring; once full, the newest events
    /// overwrite the oldest.
    pub ring_capacity: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_one_in: 0,
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// Tracing one query in `n` with the default ring capacity.
    pub fn one_in(n: u32) -> Self {
        TraceConfig {
            sample_one_in: n,
            ..TraceConfig::default()
        }
    }

    /// Whether any query can be traced.
    pub fn enabled(&self) -> bool {
        self.sample_one_in > 0
    }
}

/// Per-query deadlines and what the runtime does about them.
///
/// Off by default (`budget: None`): every query is served to completion
/// and counted on-time, exactly the pre-fault-plane behaviour. With a
/// budget set the report tracks goodput (on-time completions per second);
/// with `drop_expired` the executors additionally drop expired sub-queries
/// at dequeue instead of burning service time on work nobody can use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlinePolicy {
    /// End-to-end latency budget measured from arrival. `None` disables
    /// deadline tracking entirely.
    pub budget: Option<SimDuration>,
    /// Drop expired sub-queries at dequeue (they retire as `expired`, not
    /// completions). Without this the budget is tracked but not enforced —
    /// useful as an unprotected baseline.
    pub drop_expired: bool,
}

impl DeadlinePolicy {
    /// Track and enforce `budget`: expired work is dropped at dequeue,
    /// with a small stall-retry budget.
    pub fn enforce(budget: SimDuration) -> Self {
        DeadlinePolicy {
            budget: Some(budget),
            drop_expired: true,
        }
    }

    /// Track `budget` for goodput accounting without enforcing it.
    pub fn track(budget: SimDuration) -> Self {
        DeadlinePolicy {
            budget: Some(budget),
            drop_expired: false,
        }
    }

    /// How many times a wall-clock worker that detects its own stall may
    /// re-enqueue the sub-query in hand for a sibling to absorb before it
    /// must serve it late itself: 2 when expired work is dropped, else 0.
    pub(crate) fn retry_budget(&self) -> u32 {
        if self.drop_expired {
            2
        } else {
            0
        }
    }
}

/// The supervised-recovery loop: windowed distress detection, the
/// graceful-degradation ladder, and heartbeat-based worker health.
///
/// Disabled by default. When enabled, a supervisor consumes plane
/// snapshots plus per-worker heartbeats at every supervision boundary,
/// walks the ladder (L1 tighten dynamic batching → L2 degraded gathers →
/// L3 shed) after consecutive distressed windows, steps back down after
/// calm ones, and marks workers whose heartbeat has gone stale (with work
/// queued) suspect so dispatch routes around them.
///
/// Only the distress threshold is set per run. The cadence and the ladder
/// are constants of the [`fault`](crate::fault) module: a 20 ms
/// `SUPERVISOR_PERIOD`, a 50 ms `HEARTBEAT_TIMEOUT`, `ESCALATE_AFTER` = 2
/// distressed windows, `RECOVER_AFTER` = 4 calm ones, L1's 50 µs
/// `TIGHT_MAX_DELAY`, and `DEGRADED_KEEP` = 0.25, the share of the sparse
/// phase an L2 degraded gather still serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorPolicy {
    /// Whether the supervisor runs at all.
    pub enabled: bool,
    /// Ingress distress threshold: windowed p99 queue wait (or the
    /// modeled backlog drain time) beyond this counts the window as
    /// distressed.
    pub distress_wait: SimDuration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            enabled: false,
            distress_wait: SimDuration::from_millis(10),
        }
    }
}

impl SupervisorPolicy {
    /// The disabled policy (the default).
    pub fn off() -> Self {
        SupervisorPolicy::default()
    }

    /// An enabled supervisor that treats queue waits beyond
    /// `distress_wait` as distress.
    pub fn active(distress_wait: SimDuration) -> Self {
        SupervisorPolicy {
            enabled: true,
            distress_wait,
        }
    }
}

/// Everything a runtime run needs beyond the model/server/plan triple.
///
/// The horizon/warm-up/seed fields mirror [`SimConfig`] exactly (and
/// [`RuntimeConfig::from_sim`] converts), so a runtime run and a simulator
/// run of the same scenario measure the same query population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Served horizon in virtual time.
    pub duration: SimDuration,
    /// Leading fraction excluded from metrics (warm-up).
    pub warmup_fraction: f64,
    /// Trailing span excluded from metrics (arrivals that could not drain).
    pub drain_margin: SimDuration,
    /// RNG seed for the query stream.
    pub seed: u64,
    /// Virtual (deterministic) or wall (real threads) execution.
    pub clock: ClockMode,
    /// Bounded depth of the ingress dispatch queue, in sub-queries.
    /// Arrivals that would overflow it are shed (backpressure).
    pub queue_depth: usize,
    /// Dynamic-batching policy for accelerator fusion.
    pub batch: BatchPolicy,
    /// SLA-aware admission control.
    pub admission: AdmissionPolicy,
    /// Sparse-stage execution for the wall clock: timed busy-wait or real
    /// embedding gathers. Ignored by the virtual clock.
    pub gather: GatherMode,
    /// Worker→core placement for the wall clock's stage pools. Ignored by
    /// the virtual clock.
    pub affinity: PinPolicy,
    /// Sampled query tracing (off by default).
    pub trace: TraceConfig,
    /// Seeded fault-injection plan ([`FaultPlan::none`] by default).
    pub faults: FaultPlan,
    /// Per-query deadline policy (off by default).
    pub deadline: DeadlinePolicy,
    /// Supervised recovery and the degradation ladder (off by default).
    pub supervisor: SupervisorPolicy,
}

impl RuntimeConfig {
    /// Adopts a simulator configuration's horizon, warm-up, drain margin,
    /// and seed; defaults to the virtual clock, a deep ingress queue, the
    /// default batch policy, and no admission budget.
    pub fn from_sim(sim: &SimConfig) -> Self {
        RuntimeConfig {
            duration: sim.duration,
            warmup_fraction: sim.warmup_fraction,
            drain_margin: sim.drain_margin,
            seed: sim.seed,
            clock: ClockMode::Virtual,
            queue_depth: 65_536,
            batch: BatchPolicy::default(),
            admission: AdmissionPolicy::default(),
            gather: GatherMode::Synthetic,
            affinity: PinPolicy::None,
            trace: TraceConfig::default(),
            faults: FaultPlan::none(),
            deadline: DeadlinePolicy::default(),
            supervisor: SupervisorPolicy::off(),
        }
    }

    /// The run's measurement window (the simulator's, for the same
    /// horizon, warm-up and drain margin).
    pub(crate) fn window(&self) -> RunWindow {
        RunWindow::new(self.duration, self.warmup_fraction, self.drain_margin)
    }

    /// Builder: sets the clock mode.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }

    /// Builder: sets the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Builder: sets the dynamic-batching policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: sets the ingress queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Builder: sets the wall-clock gather mode.
    pub fn with_gather(mut self, gather: GatherMode) -> Self {
        self.gather = gather;
        self
    }

    /// Builder: sets the wall-clock worker pinning policy.
    pub fn with_affinity(mut self, affinity: PinPolicy) -> Self {
        self.affinity = affinity;
        self
    }

    /// Builder: sets the sampled-tracing configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: sets the per-query deadline policy.
    pub fn with_deadline(mut self, deadline: DeadlinePolicy) -> Self {
        self.deadline = deadline;
        self
    }

    /// Builder: sets the supervisor policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorPolicy) -> Self {
        self.supervisor = supervisor;
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::from_sim(&SimConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sim_mirrors_measurement_window() {
        let sim = SimConfig::quick(9);
        let rt = RuntimeConfig::from_sim(&sim);
        assert_eq!(rt.duration, sim.duration);
        assert_eq!(rt.warmup_fraction, sim.warmup_fraction);
        assert_eq!(rt.seed, sim.seed);
        assert_eq!(rt.clock, ClockMode::Virtual);
        assert_eq!(rt.admission.budget, None);
        assert_eq!(rt.gather, GatherMode::Synthetic);
        assert_eq!(rt.affinity, PinPolicy::None);
    }

    #[test]
    fn gather_mode_builders() {
        let cfg = RuntimeConfig::default()
            .with_gather(GatherMode::real_mib(256))
            .with_affinity(PinPolicy::Compact);
        assert!(cfg.gather.is_real());
        assert_eq!(
            cfg.gather,
            GatherMode::Real {
                budget: MemBytes::from_mib(256)
            }
        );
        assert_eq!(cfg.affinity, PinPolicy::Compact);
        assert!(!GatherMode::Synthetic.is_real());
    }

    #[test]
    fn admission_budget_scales_with_headroom() {
        let sla = SlaSpec::p99(SimDuration::from_millis(20));
        let a = AdmissionPolicy::for_sla(&sla, 0.5);
        assert_eq!(a.budget, Some(SimDuration::from_millis(10)));
        let clamped = AdmissionPolicy::for_sla(&sla, -1.0);
        assert_eq!(clamped.budget, Some(SimDuration::ZERO));
    }

    #[test]
    fn trace_config_defaults_off() {
        let cfg = RuntimeConfig::default();
        assert!(!cfg.trace.enabled());
        let traced = cfg.with_trace(TraceConfig::one_in(64));
        assert!(traced.trace.enabled());
        assert_eq!(traced.trace.sample_one_in, 64);
        assert_eq!(traced.trace.ring_capacity, 4096);
        assert!(!TraceConfig::one_in(0).enabled());
    }

    #[test]
    fn fault_and_recovery_policies_default_off() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.faults.is_empty());
        assert_eq!(cfg.deadline, DeadlinePolicy::default());
        assert_eq!(cfg.deadline.budget, None);
        assert!(!cfg.supervisor.enabled);

        let sla = SimDuration::from_millis(12);
        let protected = cfg
            .with_deadline(DeadlinePolicy::enforce(sla))
            .with_supervisor(SupervisorPolicy::active(SimDuration::from_millis(5)));
        assert_eq!(protected.deadline.budget, Some(sla));
        assert!(protected.deadline.drop_expired);
        assert!(protected.deadline.retry_budget() > 0);
        assert!(protected.supervisor.enabled);
        assert_eq!(
            protected.supervisor.distress_wait,
            SimDuration::from_millis(5)
        );
        let tracked = DeadlinePolicy::track(sla);
        assert!(!tracked.drop_expired);
        assert_eq!(tracked.retry_budget(), 0);
    }

    #[test]
    fn builders_compose() {
        let cfg = RuntimeConfig::default()
            .with_clock(ClockMode::wall())
            .with_queue_depth(0)
            .with_batch(BatchPolicy {
                max_delay: SimDuration::from_millis(1),
            });
        assert_ne!(cfg.clock, ClockMode::Virtual);
        assert_eq!(cfg.queue_depth, 1, "depth clamps to at least one");
        assert_eq!(cfg.batch.max_delay, SimDuration::from_millis(1));
    }
}
