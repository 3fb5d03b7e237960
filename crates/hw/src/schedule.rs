//! Operator-worker list scheduling (paper Fig. 5).
//!
//! One inference thread owns `o` operator workers (one physical core each);
//! the graph executor launches ready operators onto free workers. Operator
//! dependencies (Predict-FC waits on Bottom-FC *and* the SparseNet) leave
//! workers idle — the paper measures 25–74% idle cycles at 2–4 workers.
//! [`list_schedule`] reproduces that effect for any graph and duration model.

use hercules_common::units::{SimDuration, SimTime};
use hercules_model::graph::{Graph, NodeId};

/// Placement of one operator in the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// The operator.
    pub node: NodeId,
    /// Worker index it ran on.
    pub worker: u32,
    /// Start time within the batch execution.
    pub start: SimTime,
    /// Execution duration.
    pub duration: SimDuration,
}

/// Result of list-scheduling a graph onto parallel operator workers.
#[derive(Debug, Clone)]
pub struct OpSchedule {
    /// Number of workers used.
    pub workers: u32,
    /// End-to-end makespan (the inference thread's batch latency).
    pub makespan: SimDuration,
    /// Sum of operator durations (total worker-busy time).
    pub busy: SimDuration,
    /// Per-operator placements, in execution order.
    pub ops: Vec<ScheduledOp>,
}

impl OpSchedule {
    /// Fraction of worker-time spent idle: `1 - busy / (workers * makespan)`.
    ///
    /// Zero for an empty graph.
    pub fn idle_fraction(&self) -> f64 {
        if self.makespan == SimDuration::ZERO {
            return 0.0;
        }
        let capacity = self.makespan.as_secs_f64() * self.workers as f64;
        (1.0 - self.busy.as_secs_f64() / capacity).max(0.0)
    }
}

/// Greedily schedules `graph` onto `workers` parallel operator workers.
///
/// Ready operators (all predecessors complete) are placed on the worker that
/// can start them earliest; ties prefer the longest operator (LPT heuristic,
/// which is what makes wide SparseNets pack well while dependency chains
/// serialize).
///
/// # Panics
///
/// Panics if `workers == 0` or the graph contains a cycle.
pub fn list_schedule<F>(graph: &Graph, workers: u32, duration_of: F) -> OpSchedule
where
    F: Fn(NodeId) -> SimDuration,
{
    assert!(workers > 0, "need at least one operator worker");
    let order = graph.topo_order().expect("graph must be acyclic");
    let n = order.len();

    let mut remaining_preds: Vec<usize> = (0..n).map(|_| 0).collect();
    for (id, _) in graph.nodes() {
        remaining_preds[id.index()] = graph.preds(id).len();
    }

    // ready_time[i]: earliest start permitted by dependencies.
    let mut ready_time = vec![SimTime::ZERO; n];
    let mut ready: Vec<NodeId> = graph.roots();
    let mut worker_free = vec![SimTime::ZERO; workers as usize];
    let mut ops: Vec<ScheduledOp> = Vec::with_capacity(n);
    let mut busy = SimDuration::ZERO;

    while !ready.is_empty() {
        // Pick the (op, worker) pair with the earliest feasible start;
        // tie-break on longest duration.
        let mut best: Option<(usize, usize, SimTime, SimDuration)> = None;
        for (ri, &node) in ready.iter().enumerate() {
            let dur = duration_of(node);
            for (wi, &free) in worker_free.iter().enumerate() {
                let start = free.max(ready_time[node.index()]);
                let better = match best {
                    None => true,
                    Some((_, _, bstart, bdur)) => start < bstart || (start == bstart && dur > bdur),
                };
                if better {
                    best = Some((ri, wi, start, dur));
                }
            }
        }
        let (ri, wi, start, dur) = best.expect("ready set is non-empty");
        let node = ready.swap_remove(ri);
        let finish = start + dur;
        worker_free[wi] = finish;
        busy += dur;
        ops.push(ScheduledOp {
            node,
            worker: wi as u32,
            start,
            duration: dur,
        });
        for &succ in graph.succs(node) {
            let s = succ.index();
            remaining_preds[s] -= 1;
            ready_time[s] = ready_time[s].max(finish);
            if remaining_preds[s] == 0 {
                ready.push(succ);
            }
        }
    }

    debug_assert_eq!(ops.len(), n, "all operators scheduled");
    let makespan = ops
        .iter()
        .map(|o| o.start + o.duration)
        .max()
        .map_or(SimDuration::ZERO, |t| t.saturating_since(SimTime::ZERO));

    OpSchedule {
        workers,
        makespan,
        busy,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_model::op::OpKind;

    fn fc() -> OpKind {
        OpKind::Fc {
            in_dim: 1,
            out_dim: 1,
            fused_activation: None,
        }
    }

    /// DLRM-like shape: wide sparse fan-in + serial dense chain.
    fn dlrm_like(sparse_ops: usize) -> Graph {
        let mut g = Graph::new();
        let bot = g.add_node("bot", fc());
        let sls: Vec<NodeId> = (0..sparse_ops)
            .map(|i| g.add_node(format!("sls{i}"), fc()))
            .collect();
        let interact = g.add_node("interact", fc());
        g.add_edge(bot, interact).unwrap();
        for s in sls {
            g.add_edge(s, interact).unwrap();
        }
        let predict = g.add_node("predict", fc());
        g.add_edge(interact, predict).unwrap();
        g
    }

    #[test]
    fn single_worker_serializes() {
        let g = dlrm_like(4);
        let s = list_schedule(&g, 1, |_| SimDuration::from_micros(10));
        assert_eq!(s.makespan, SimDuration::from_micros(70)); // 7 ops x 10us
        assert!((s.idle_fraction()).abs() < 1e-9);
    }

    #[test]
    fn two_workers_shorten_makespan_but_idle() {
        let g = dlrm_like(4);
        let one = list_schedule(&g, 1, |_| SimDuration::from_micros(10));
        let two = list_schedule(&g, 2, |_| SimDuration::from_micros(10));
        assert!(two.makespan < one.makespan);
        // The interact->predict tail keeps one worker idle: idle appears.
        assert!(two.idle_fraction() > 0.1, "idle {}", two.idle_fraction());
        assert_eq!(two.busy, one.busy);
    }

    #[test]
    fn idle_grows_with_workers_like_fig5() {
        let g = dlrm_like(8);
        let mut last_idle = -1.0;
        for w in 1..=4 {
            let s = list_schedule(&g, w, |_| SimDuration::from_micros(10));
            assert!(
                s.idle_fraction() >= last_idle - 1e-9,
                "idle not monotone at {w} workers"
            );
            last_idle = s.idle_fraction();
        }
        assert!(last_idle > 0.25, "4-worker idle {last_idle}");
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let g = dlrm_like(6);
        // Critical path: sls/bot -> interact -> predict = 3 ops.
        let s = list_schedule(&g, 16, |_| SimDuration::from_micros(10));
        assert_eq!(s.makespan, SimDuration::from_micros(30));
    }

    #[test]
    fn respects_dependencies() {
        let g = dlrm_like(4);
        let s = list_schedule(&g, 3, |_| SimDuration::from_micros(7));
        let finish_of = |name: &str| {
            s.ops
                .iter()
                .find(|o| g.node(o.node).name == name)
                .map(|o| o.start + o.duration)
                .unwrap()
        };
        let start_of = |name: &str| {
            s.ops
                .iter()
                .find(|o| g.node(o.node).name == name)
                .map(|o| o.start)
                .unwrap()
        };
        assert!(start_of("interact") >= finish_of("bot"));
        assert!(start_of("predict") >= finish_of("interact"));
    }

    #[test]
    fn no_worker_overlap() {
        let g = dlrm_like(10);
        let s = list_schedule(&g, 3, |n| SimDuration::from_micros(3 + n.index() as u64));
        for w in 0..3 {
            let mut intervals: Vec<(SimTime, SimTime)> = s
                .ops
                .iter()
                .filter(|o| o.worker == w)
                .map(|o| (o.start, o.start + o.duration))
                .collect();
            intervals.sort();
            for pair in intervals.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlap on worker {w}");
            }
        }
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = Graph::new();
        let s = list_schedule(&g, 2, |_| SimDuration::from_micros(1));
        assert_eq!(s.makespan, SimDuration::ZERO);
        assert_eq!(s.idle_fraction(), 0.0);
        assert!(s.ops.is_empty());
    }
}
