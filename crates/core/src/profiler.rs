//! Offline profiling (paper Fig. 9a/9b): run the task-scheduling search for
//! every workload/server-type pair and record the efficiency tuple
//! `(QPS_{h,m}, Power_{h,m})` used for workload classification and cluster
//! provisioning.

use std::collections::HashMap;
use std::sync::Arc;

use hercules_common::parallel_map;
use hercules_common::units::{Qps, Watts};
use hercules_hw::server::ServerType;
use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
use hercules_sim::{NmpLutCache, PlacementPlan, SlaSpec};

use crate::eval::{CachedEvaluator, EvalContext};
use crate::search::baselines::baseline_search;
use crate::search::gradient::GradientOptions;
use crate::search::hercules_task_search;

/// One cell of the workload-classification table (Fig. 9b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyEntry {
    /// Latency-bounded throughput at the optimal configuration.
    pub qps: Qps,
    /// Provisioned power budget (peak power at the operating point).
    pub power: Watts,
    /// The winning scheduling configuration.
    pub plan: PlacementPlan,
}

impl EfficiencyEntry {
    /// Energy efficiency (the classification metric of §III-C).
    pub fn qps_per_watt(&self) -> f64 {
        if self.power.value() <= 0.0 {
            0.0
        } else {
            self.qps.value() / self.power.value()
        }
    }
}

/// Ranking metric for workload classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankMetric {
    /// Rank by latency-bounded throughput.
    Qps,
    /// Rank by QPS-per-watt (the paper's choice for provisioning).
    QpsPerWatt,
}

/// The full workload/server classification table.
///
/// `None` entries mean no configuration met the SLA on that pair (e.g. the
/// model does not fit, or the server is too slow at any batch size).
#[derive(Debug, Clone, Default)]
pub struct EfficiencyTable {
    entries: HashMap<(ModelKind, ServerType), Option<EfficiencyEntry>>,
}

impl EfficiencyTable {
    /// An empty table.
    pub fn new() -> Self {
        EfficiencyTable::default()
    }

    /// Builds a table from explicit entries (used by tests and the cluster
    /// benches that substitute synthetic tuples).
    pub fn from_entries(
        entries: impl IntoIterator<Item = ((ModelKind, ServerType), EfficiencyEntry)>,
    ) -> Self {
        EfficiencyTable {
            entries: entries.into_iter().map(|(k, v)| (k, Some(v))).collect(),
        }
    }

    /// Records an entry.
    pub fn insert(&mut self, model: ModelKind, server: ServerType, e: Option<EfficiencyEntry>) {
        self.entries.insert((model, server), e);
    }

    /// The entry for a pair, if profiled and feasible.
    pub fn get(&self, model: ModelKind, server: ServerType) -> Option<&EfficiencyEntry> {
        self.entries.get(&(model, server)).and_then(Option::as_ref)
    }

    /// Whether a pair was profiled at all (even if infeasible).
    pub fn profiled(&self, model: ModelKind, server: ServerType) -> bool {
        self.entries.contains_key(&(model, server))
    }

    /// Server types ranked (descending) for `model` by `metric` — the
    /// workload-classification step of §II-C.
    pub fn ranked_servers(&self, model: ModelKind, metric: RankMetric) -> Vec<(ServerType, f64)> {
        let mut out: Vec<(ServerType, f64)> = ServerType::ALL
            .iter()
            .filter_map(|&s| {
                self.get(model, s).map(|e| {
                    let score = match metric {
                        RankMetric::Qps => e.qps.value(),
                        RankMetric::QpsPerWatt => e.qps_per_watt(),
                    };
                    (s, score)
                })
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
        out
    }

    /// Number of recorded (profiled) pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Which task scheduler the profiler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    /// The Hercules gradient search over the full parallelism space.
    Hercules,
    /// The prior-work baseline (DeepRecSys + Baymax).
    Baseline,
}

/// Profiling controls.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Embedding scale to build models at.
    pub scale: ModelScale,
    /// Which searcher produces each tuple.
    pub searcher: Searcher,
    /// Gradient-search granularity.
    pub gradient: GradientOptions,
    /// Base RNG seed.
    pub seed: u64,
    /// OS threads for parallel profiling (pairs are independent).
    pub parallelism: usize,
    /// Override the per-model SLA (None: paper defaults).
    pub sla_override: Option<SlaSpec>,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            scale: ModelScale::Production,
            searcher: Searcher::Hercules,
            gradient: GradientOptions::default(),
            seed: 0xFACE,
            parallelism: std::thread::available_parallelism().map_or(4, |n| n.get()),
            sla_override: None,
        }
    }
}

impl ProfilerConfig {
    /// Coarse, fast profiling (tests and quick benches).
    pub fn quick() -> Self {
        ProfilerConfig {
            gradient: GradientOptions::coarse(),
            ..ProfilerConfig::default()
        }
    }

    /// Builder: profile with up to `n` worker threads (`1` pins the sweep to
    /// the serial path — what tests and benches use as the reference run).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }
}

/// Profiles one (model, server) pair against `luts`, the NMP LUT cache
/// shared by the sweep.
fn profile_pair_in(
    model: ModelKind,
    server: ServerType,
    cfg: &ProfilerConfig,
    luts: &Arc<NmpLutCache>,
) -> Option<EfficiencyEntry> {
    let rec = RecModel::build(model, cfg.scale);
    let sla = cfg
        .sla_override
        .unwrap_or_else(|| SlaSpec::p95(rec.default_sla()));
    let ctx = EvalContext::new(rec, server.spec(), sla)
        .quick(cfg.seed)
        .with_nmp_cache(Arc::clone(luts));
    let mut ev = CachedEvaluator::new(ctx);
    let outcome = match cfg.searcher {
        Searcher::Hercules => hercules_task_search(&mut ev, &cfg.gradient),
        Searcher::Baseline => baseline_search(&mut ev, &cfg.gradient.batch_levels),
    };
    outcome.best.map(|e| EfficiencyEntry {
        qps: e.qps,
        power: e.power,
        plan: e.plan,
    })
}

/// Profiles every (model, server) pair, fanning the cells out over up to
/// [`ProfilerConfig::parallelism`] scoped OS threads.
///
/// Cells are embarrassingly parallel: each builds its own evaluation
/// context from `cfg.seed`, so a cell's tuple never depends on which worker
/// ran it or in what order — the resulting table is bitwise-identical to a
/// `parallelism = 1` sweep. All cells share one [`NmpLutCache`], so the
/// cycle-level LUT sweep is paid once per distinct rank count instead of
/// once per cell.
pub fn profile(
    models: &[ModelKind],
    servers: &[ServerType],
    cfg: &ProfilerConfig,
) -> EfficiencyTable {
    let pairs: Vec<(ModelKind, ServerType)> = models
        .iter()
        .flat_map(|&m| servers.iter().map(move |&s| (m, s)))
        .collect();
    let luts = Arc::new(NmpLutCache::new());

    let entries = parallel_map(&pairs, cfg.parallelism, |&(m, s)| {
        profile_pair_in(m, s, cfg, &luts)
    });

    let mut table = EfficiencyTable::new();
    for (&(m, s), entry) in pairs.iter().zip(entries) {
        table.insert(m, s, entry);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_common::units::SimDuration;

    fn synthetic_entry(qps: f64, power: f64) -> EfficiencyEntry {
        EfficiencyEntry {
            qps: Qps(qps),
            power: Watts(power),
            plan: PlacementPlan::CpuModel {
                threads: 1,
                workers: 1,
                batch: 64,
            },
        }
    }

    #[test]
    fn ranking_orders_by_metric() {
        let table = EfficiencyTable::from_entries([
            (
                (ModelKind::DlrmRmc1, ServerType::T2),
                synthetic_entry(1000.0, 200.0),
            ),
            (
                (ModelKind::DlrmRmc1, ServerType::T3),
                synthetic_entry(1500.0, 220.0),
            ),
            (
                (ModelKind::DlrmRmc1, ServerType::T7),
                synthetic_entry(1200.0, 500.0),
            ),
        ]);
        let by_qps = table.ranked_servers(ModelKind::DlrmRmc1, RankMetric::Qps);
        assert_eq!(by_qps[0].0, ServerType::T3);
        assert_eq!(by_qps[1].0, ServerType::T7);
        let by_eff = table.ranked_servers(ModelKind::DlrmRmc1, RankMetric::QpsPerWatt);
        assert_eq!(by_eff[0].0, ServerType::T3);
        assert_eq!(by_eff[1].0, ServerType::T2); // 5.0 vs 2.4 for T7
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn missing_entries_are_skipped() {
        let mut table = EfficiencyTable::new();
        table.insert(ModelKind::Din, ServerType::T1, None);
        assert!(table.profiled(ModelKind::Din, ServerType::T1));
        assert!(table.get(ModelKind::Din, ServerType::T1).is_none());
        assert!(table
            .ranked_servers(ModelKind::Din, RankMetric::Qps)
            .is_empty());
    }

    #[test]
    fn profile_pair_produces_tuple() {
        let mut cfg = ProfilerConfig::quick();
        cfg.sla_override = Some(SlaSpec::p95(SimDuration::from_millis(50)));
        let table = profile(&[ModelKind::DlrmRmc1], &[ServerType::T2], &cfg);
        let entry = table
            .get(ModelKind::DlrmRmc1, ServerType::T2)
            .expect("RMC1 on T2 feasible");
        assert!(entry.qps.value() > 50.0);
        assert!(entry.power.value() > 50.0);
        assert!(entry.qps_per_watt() > 0.0);
    }

    #[test]
    fn parallel_profile_covers_all_pairs() {
        let cfg = ProfilerConfig {
            searcher: Searcher::Baseline,
            gradient: GradientOptions::coarse(),
            parallelism: 4,
            ..ProfilerConfig::quick()
        };
        let models = [ModelKind::DlrmRmc1];
        let servers = [ServerType::T1, ServerType::T2];
        let table = profile(&models, &servers, &cfg);
        assert_eq!(table.len(), 2);
        assert!(table.profiled(ModelKind::DlrmRmc1, ServerType::T1));
        assert!(table.profiled(ModelKind::DlrmRmc1, ServerType::T2));
    }
}
