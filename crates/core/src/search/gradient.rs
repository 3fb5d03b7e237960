//! The gradient-based search of Algorithm 1.
//!
//! For each op-parallelism choice (`Psp(O)`), a hill walk explores
//! `Psp(M + D)` from the minimal configuration: at every step the three
//! candidate moves — more batch, more threads, or both — are evaluated, the
//! best *improving* candidate under the SLA/power constraints is taken, and
//! the walk terminates when all candidates regress (the space is convex,
//! §IV-B). The outer loop over op-parallelism stops when its per-`o` peak
//! starts decreasing.

use hercules_common::units::MemBytes;
use hercules_sim::PlacementPlan;

use crate::eval::{CachedEvaluator, Evaluation};
use crate::search::SearchOutcome;

/// Granularity knobs for the gradient search.
#[derive(Debug, Clone)]
pub struct GradientOptions {
    /// Ladder of sub-query batch sizes (data-parallelism on CPUs).
    pub batch_levels: Vec<u32>,
    /// Ladder of query-fusion limits (data-parallelism on accelerators);
    /// the walk starts *below* the ladder at "no fusion".
    pub fusion_levels: Vec<u32>,
    /// Host-thread counts tried for the cold-sparse stage of
    /// production-model GPU scheduling (the `Psp(O)` analogue there).
    pub host_thread_levels: Vec<u32>,
    /// Cap on co-located GPU model instances.
    pub max_gpu_colocated: u32,
    /// OS threads evaluating each step's candidate moves concurrently.
    ///
    /// `1` (the default) keeps the walk single-threaded; higher values fan
    /// the per-step candidates out over scoped threads. Results are
    /// bitwise-identical either way — candidates are independent simulator
    /// runs and selection stays in candidate order — so this is purely a
    /// wall-clock knob. Leave at `1` when an outer layer (e.g. the parallel
    /// profiler) already saturates the machine.
    pub parallelism: usize,
}

impl Default for GradientOptions {
    fn default() -> Self {
        GradientOptions {
            batch_levels: vec![32, 64, 128, 256, 512, 1024],
            fusion_levels: vec![256, 512, 1024, 2048, 4096, 8192],
            host_thread_levels: vec![4, 8, 12, 16],
            max_gpu_colocated: 8,
            parallelism: 1,
        }
    }
}

impl GradientOptions {
    /// A coarser ladder for fast tests/benches.
    pub fn coarse() -> Self {
        GradientOptions {
            batch_levels: vec![64, 256, 1024],
            fusion_levels: vec![512, 2048, 8192],
            host_thread_levels: vec![4, 10],
            max_gpu_colocated: 6,
            ..GradientOptions::default()
        }
    }

    /// Builder: evaluate each step's candidates on up to `n` threads.
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }
}

/// Generic hill walk: take the best improving move until none improves.
///
/// When the start point itself cannot meet the SLA (common for heavy
/// production models at minimal parallelism), the walk advances through
/// infeasible territory — any feasible candidate counts as an improvement,
/// and with none it steps to the first candidate move — until it reaches a
/// feasible configuration, then climbs normally. At most 4096 infeasible
/// steps are taken (the move lattice is finite).
///
/// Each step's candidate moves are independent simulator runs, so they are
/// batch-evaluated on up to `parallelism` threads
/// ([`CachedEvaluator::evaluate_batch`]); selection walks the results in
/// candidate order, so the trajectory — and every cached evaluation — is
/// bitwise-identical to the serial walk.
fn hill_walk<S: Clone>(
    ev: &mut CachedEvaluator,
    start: S,
    plan_of: impl Fn(&S) -> PlacementPlan,
    moves: impl Fn(&S) -> Vec<S>,
    visited: &mut Vec<PlacementPlan>,
    parallelism: usize,
) -> Option<Evaluation> {
    let start_plan = plan_of(&start);
    visited.push(start_plan);
    let mut cur = ev.evaluate(&start_plan);
    let mut state = start;
    let mut infeasible_steps = 0;
    loop {
        let cands = moves(&state);
        let plans: Vec<PlacementPlan> = cands.iter().map(&plan_of).collect();
        visited.extend(plans.iter().copied());
        let evals = ev.evaluate_batch(&plans, parallelism);
        let mut best_next: Option<(&S, Evaluation)> = None;
        for (cand, e) in cands.iter().zip(evals) {
            let Some(e) = e else { continue };
            // Beat the best candidate so far, else the current point; while
            // the walk is infeasible there is no point to beat.
            let bar = best_next.as_ref().map(|(_, b)| b).or(cur.as_ref());
            if bar.map_or(true, |b| e.qps > b.qps) {
                best_next = Some((cand, e));
            }
        }
        match (best_next, cands.first()) {
            (Some((next, e)), _) => {
                state = next.clone();
                cur = Some(e);
            }
            // Every candidate regressed or was infeasible: convex peak.
            _ if cur.is_some() => return cur,
            (None, Some(first)) if infeasible_steps < 4096 => {
                infeasible_steps += 1;
                state = first.clone();
            }
            (None, _) => return None,
        }
    }
}

fn next_level(levels: &[u32], current: u32) -> Option<u32> {
    levels.iter().copied().find(|&l| l > current)
}

/// Algorithm 1's outer loop over `Psp(O)`: hill-walks each level in order
/// with `walk`, keeps the best peak, and stops once a level's peak falls
/// below the previous one's, or a level finds nothing after one did.
fn sweep<L>(
    ev: &mut CachedEvaluator,
    levels: impl IntoIterator<Item = L>,
    mut walk: impl FnMut(&mut CachedEvaluator, L, &mut Vec<PlacementPlan>) -> Option<Evaluation>,
) -> SearchOutcome {
    let mut visited = Vec::new();
    let mut best: Option<Evaluation> = None;
    let mut last_peak: Option<f64> = None;
    for level in levels {
        let peak = walk(ev, level, &mut visited);
        let peak_qps = peak.as_ref().map(|e| e.qps.value());
        if let Some(e) = peak {
            if best.as_ref().map_or(true, |b| e.qps > b.qps) {
                best = Some(e);
            }
        }
        match (last_peak, peak_qps) {
            (Some(prev), Some(cur)) if cur < prev => break,
            (Some(_), None) => break,
            _ => {}
        }
        last_peak = peak_qps.or(last_peak);
    }
    SearchOutcome {
        best,
        evaluations: ev.evaluations(),
        visited,
    }
}

/// CPU model-based scheduling: outer loop over op-parallelism `o`, inner
/// gradient walk over `(threads, batch)`.
pub fn search_cpu_model_based(ev: &mut CachedEvaluator, opts: &GradientOptions) -> SearchOutcome {
    let cores = ev.ctx().server.cpu.cores;
    let levels = &opts.batch_levels;
    sweep(ev, 1..=cores, |ev, workers, visited| {
        let max_threads = cores / workers;
        hill_walk(
            ev,
            (1u32, levels[0]),
            |&(m, d)| PlacementPlan::CpuModel {
                threads: m,
                workers,
                batch: d,
            },
            |&(m, d)| {
                let mut c = Vec::new();
                if m < max_threads {
                    c.push((m + 1, d));
                }
                if let Some(d2) = next_level(levels, d) {
                    c.push((m, d2));
                    if m < max_threads {
                        c.push((m + 1, d2));
                    }
                }
                c
            },
            visited,
            opts.parallelism,
        )
    })
}

/// CPU S-D pipeline scheduling: for each sparse op-parallelism, walk
/// `(sparse_threads, dense_threads, batch)` to the pipeline equilibrium
/// (paper Fig. 12a).
pub fn search_cpu_sd_pipeline(ev: &mut CachedEvaluator, opts: &GradientOptions) -> SearchOutcome {
    let cores = ev.ctx().server.cpu.cores;
    let levels = &opts.batch_levels;
    // Each level needs room for one sparse thread per worker plus one
    // dense thread.
    let worker_counts = (1..=4u32.min(cores)).take_while(|&w| w < cores);
    sweep(ev, worker_counts, |ev, workers, visited| {
        let fits = move |s: u32, t: u32| s * workers + t <= cores;
        hill_walk(
            ev,
            (1u32, 1u32, levels[0]),
            |&(s, t, d)| PlacementPlan::CpuSdPipeline {
                sparse_threads: s,
                sparse_workers: workers,
                dense_threads: t,
                batch: d,
            },
            |&(s, t, d)| {
                let mut c = Vec::new();
                if fits(s + 1, t) {
                    c.push((s + 1, t, d));
                }
                if fits(s, t + 1) {
                    c.push((s, t + 1, d));
                }
                if fits(s + 1, t + 1) {
                    c.push((s + 1, t + 1, d));
                }
                if let Some(d2) = next_level(levels, d) {
                    c.push((s, t, d2));
                }
                c
            },
            visited,
            opts.parallelism,
        )
    })
}

/// Whether `model` (times `colocated` replicas) fits the accelerator whole.
fn fits_gpu_whole(ev: &CachedEvaluator, colocated: u32) -> bool {
    let Some(gpu) = &ev.ctx().server.gpu else {
        return false;
    };
    MemBytes::from_bytes(ev.ctx().model.total_table_size().as_bytes() * colocated as u64)
        <= gpu.memory
}

/// GPU model-based scheduling: gradient walk over `(colocated, fusion)`;
/// production-scale models additionally sweep the host cold-sparse thread
/// count as the outer dimension.
pub fn search_gpu_model_based(ev: &mut CachedEvaluator, opts: &GradientOptions) -> SearchOutcome {
    let host_levels: Vec<u32> = if !ev.ctx().server.has_gpu() {
        Vec::new()
    } else if fits_gpu_whole(ev, 1) {
        vec![0]
    } else {
        opts.host_thread_levels
            .iter()
            .copied()
            .filter(|&h| h <= ev.ctx().server.cpu.cores)
            .collect()
    };
    let levels = &opts.fusion_levels;
    let max_g = opts.max_gpu_colocated;
    sweep(ev, host_levels, |ev, host_threads, visited| {
        // Fusion state: None = no fusion; Some(f) = fuse up to f items.
        hill_walk(
            ev,
            (1u32, None::<u32>),
            |&(g, f)| PlacementPlan::GpuModel {
                colocated: g,
                fusion_limit: f,
                host_sparse_threads: host_threads,
                host_batch: 256,
            },
            |&(g, f)| {
                let mut c: Vec<(u32, Option<u32>)> = Vec::new();
                if g < max_g {
                    c.push((g + 1, f));
                }
                let up = match f {
                    None => levels.first().copied(),
                    Some(cur) => next_level(levels, cur),
                };
                if let Some(f2) = up {
                    c.push((g, Some(f2)));
                    if g < max_g {
                        c.push((g + 1, Some(f2)));
                    }
                }
                c
            },
            visited,
            opts.parallelism,
        )
    })
}

/// Hybrid S-D pipeline (SparseNet on host, DenseNet on GPU): walk
/// `(sparse_threads, batch, gpu_colocated, fusion)` — each host-side step
/// lets the accelerator side re-balance (paper Fig. 12b).
pub fn search_hybrid_sd(ev: &mut CachedEvaluator, opts: &GradientOptions) -> SearchOutcome {
    let cores = ev.ctx().server.cpu.cores;
    let max_workers = if ev.ctx().server.has_gpu() {
        4u32.min(cores)
    } else {
        0
    };
    let batch_levels = &opts.batch_levels;
    let fusion_levels = &opts.fusion_levels;
    let max_g = opts.max_gpu_colocated;
    sweep(ev, 1..=max_workers, |ev, workers, visited| {
        let fits = move |s: u32| s * workers <= cores;
        hill_walk(
            ev,
            (1u32, batch_levels[0], 1u32, None::<u32>),
            |&(s, d, g, f)| PlacementPlan::HybridSdPipeline {
                sparse_threads: s,
                sparse_workers: workers,
                gpu_colocated: g,
                fusion_limit: f,
                batch: d,
            },
            |&(s, d, g, f)| {
                let mut c = Vec::new();
                if fits(s + 1) {
                    c.push((s + 1, d, g, f));
                }
                if let Some(d2) = next_level(batch_levels, d) {
                    c.push((s, d2, g, f));
                }
                if g < max_g {
                    c.push((s, d, g + 1, f));
                }
                let up = match f {
                    None => fusion_levels.first().copied(),
                    Some(cur) => next_level(fusion_levels, cur),
                };
                if let Some(f2) = up {
                    c.push((s, d, g, Some(f2)));
                }
                c
            },
            visited,
            opts.parallelism,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalContext;
    use hercules_hw::server::ServerType;
    use hercules_model::zoo::{ModelKind, ModelScale, RecModel};
    use hercules_sim::SlaSpec;

    fn evaluator(kind: ModelKind, scale: ModelScale, server: ServerType) -> CachedEvaluator {
        let model = RecModel::build(kind, scale);
        let sla = SlaSpec::p95(model.default_sla());
        CachedEvaluator::new(EvalContext::new(model, server.spec(), sla).quick(11))
    }

    #[test]
    fn cpu_gradient_finds_feasible_peak() {
        let mut ev = evaluator(ModelKind::DlrmRmc1, ModelScale::Production, ServerType::T2);
        let out = search_cpu_model_based(&mut ev, &GradientOptions::coarse());
        let best = out.best.expect("RMC1 on T2 is servable");
        assert!(best.qps.value() > 100.0, "qps {}", best.qps);
        assert!(!out.visited.is_empty());
        assert!(out.evaluations > 3);
    }

    #[test]
    fn gradient_beats_or_matches_minimal_config() {
        let mut ev = evaluator(ModelKind::DlrmRmc1, ModelScale::Production, ServerType::T2);
        let opts = GradientOptions::coarse();
        let min_plan = hercules_sim::PlacementPlan::CpuModel {
            threads: 1,
            workers: 1,
            batch: opts.batch_levels[0],
        };
        let min_eval = ev.evaluate(&min_plan).expect("minimal plan feasible");
        let out = search_cpu_model_based(&mut ev, &opts);
        assert!(out.best.unwrap().qps >= min_eval.qps);
    }

    #[test]
    fn gpu_search_only_on_gpu_servers() {
        let mut ev = evaluator(ModelKind::DlrmRmc3, ModelScale::Small, ServerType::T2);
        let out = search_gpu_model_based(&mut ev, &GradientOptions::coarse());
        assert!(out.best.is_none());
    }

    #[test]
    fn gpu_search_uses_fusion() {
        let mut ev = evaluator(ModelKind::DlrmRmc3, ModelScale::Small, ServerType::T7);
        let out = search_gpu_model_based(&mut ev, &GradientOptions::coarse());
        let best = out.best.expect("RMC3-small on V100 servable");
        match best.plan {
            hercules_sim::PlacementPlan::GpuModel { .. } => {}
            other => panic!("unexpected plan {other}"),
        }
        assert!(
            best.qps.value() > 500.0,
            "GPU should push QPS: {}",
            best.qps
        );
    }

    #[test]
    fn next_level_walks_ladder() {
        let levels = [32, 64, 128];
        assert_eq!(next_level(&levels, 32), Some(64));
        assert_eq!(next_level(&levels, 128), None);
        assert_eq!(next_level(&levels, 1), Some(32));
    }
}
