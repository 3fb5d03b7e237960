//! Operator fusion (paper §IV-B: "the operator fusion technique \[35\] is also
//! performed in this stage for element-wise operations").
//!
//! [`fuse_elementwise`] merges a stand-alone activation node into its
//! producing FC layer when the activation is the FC's sole consumer. The
//! fused epilogue executes in-register, eliminating one intermediate tensor
//! round trip to memory; FLOPs are preserved.

use std::collections::HashMap;

use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// Statistics from a fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionReport {
    /// Number of activation nodes merged into their producers.
    pub fused: usize,
    /// Nodes in the graph before fusion.
    pub nodes_before: usize,
    /// Nodes in the graph after fusion.
    pub nodes_after: usize,
}

/// Fuses element-wise activations into preceding FC layers.
///
/// An [`OpKind::ActivationOp`] node is fused when:
/// - it has exactly one predecessor,
/// - that predecessor is an [`OpKind::Fc`] without an already-fused epilogue,
/// - the activation is the FC's only successor, and
/// - the dimensions agree.
///
/// Returns the rewritten graph and a [`FusionReport`].
pub fn fuse_elementwise(graph: &Graph) -> (Graph, FusionReport) {
    // Map: activation node -> host FC node.
    let mut merge_into: HashMap<NodeId, NodeId> = HashMap::new();
    for (id, node) in graph.nodes() {
        let OpKind::ActivationOp { dim, kind } = node.op else {
            continue;
        };
        let preds = graph.preds(id);
        if preds.len() != 1 {
            continue;
        }
        let host = preds[0];
        if merge_into.values().any(|&h| h == host) {
            continue; // host already absorbs another activation
        }
        let OpKind::Fc {
            out_dim,
            fused_activation,
            ..
        } = graph.node(host).op
        else {
            continue;
        };
        if fused_activation.is_some() || out_dim != dim {
            continue;
        }
        if graph.succs(host) != [id] {
            continue; // FC output is consumed elsewhere too
        }
        let _ = kind;
        merge_into.insert(id, host);
    }

    // Rebuild the graph without the merged activation nodes.
    let mut out = Graph::new();
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    for (id, node) in graph.nodes() {
        if merge_into.contains_key(&id) {
            continue;
        }
        let op = match (&node.op, find_absorbed(graph, id, &merge_into)) {
            (
                OpKind::Fc {
                    in_dim, out_dim, ..
                },
                Some(kind),
            ) => OpKind::Fc {
                in_dim: *in_dim,
                out_dim: *out_dim,
                fused_activation: Some(kind),
            },
            _ => node.op.clone(),
        };
        let new_id = out.add_node(node.name.clone(), op);
        remap.insert(id, new_id);
    }

    // Re-add edges, redirecting through merged nodes.
    let resolve = |id: NodeId| -> NodeId { *merge_into.get(&id).unwrap_or(&id) };
    for (id, _) in graph.nodes() {
        for &succ in graph.succs(id) {
            let from = resolve(id);
            let to = resolve(succ);
            if from == to {
                continue; // the edge into the fused activation itself
            }
            let (Some(&nf), Some(&nt)) = (remap.get(&from), remap.get(&to)) else {
                continue;
            };
            // Ignore duplicates created by the redirect.
            let _ = out.add_edge(nf, nt);
        }
    }

    let report = FusionReport {
        fused: merge_into.len(),
        nodes_before: graph.len(),
        nodes_after: out.len(),
    };
    (out, report)
}

fn find_absorbed(
    graph: &Graph,
    host: NodeId,
    merge_into: &HashMap<NodeId, NodeId>,
) -> Option<crate::op::Activation> {
    for (&act, &h) in merge_into {
        if h == host {
            if let OpKind::ActivationOp { kind, .. } = graph.node(act).op {
                return Some(kind);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Activation;
    use crate::zoo::{ModelKind, ModelScale, RecModel};

    #[test]
    fn fuses_simple_chain() {
        let mut g = Graph::new();
        let fc = g.add_node(
            "fc",
            OpKind::Fc {
                in_dim: 8,
                out_dim: 4,
                fused_activation: None,
            },
        );
        let act = g.add_node(
            "act",
            OpKind::ActivationOp {
                dim: 4,
                kind: Activation::Relu,
            },
        );
        let next = g.add_node(
            "fc2",
            OpKind::Fc {
                in_dim: 4,
                out_dim: 1,
                fused_activation: None,
            },
        );
        g.add_edge(fc, act).unwrap();
        g.add_edge(act, next).unwrap();

        let (fused, report) = fuse_elementwise(&g);
        assert_eq!(report.fused, 1);
        assert_eq!(fused.len(), 2);
        fused.validate().unwrap();
        // The FC now carries the epilogue and feeds fc2 directly.
        let (_, host) = fused
            .nodes()
            .find(|(_, n)| n.name == "fc")
            .expect("fc kept");
        assert_eq!(
            host.op,
            OpKind::Fc {
                in_dim: 8,
                out_dim: 4,
                fused_activation: Some(Activation::Relu)
            }
        );
        assert_eq!(fused.edge_count(), 1);
    }

    #[test]
    fn does_not_fuse_multi_consumer_fc() {
        let mut g = Graph::new();
        let fc = g.add_node(
            "fc",
            OpKind::Fc {
                in_dim: 8,
                out_dim: 4,
                fused_activation: None,
            },
        );
        let act = g.add_node(
            "act",
            OpKind::ActivationOp {
                dim: 4,
                kind: Activation::Relu,
            },
        );
        let other = g.add_node(
            "other",
            OpKind::Concat {
                inputs: 1,
                total_dim: 4,
            },
        );
        g.add_edge(fc, act).unwrap();
        g.add_edge(fc, other).unwrap();
        let (fused, report) = fuse_elementwise(&g);
        assert_eq!(report.fused, 0);
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn fusion_preserves_flops_and_reduces_bytes() {
        let m = RecModel::build(ModelKind::DlrmRmc1, ModelScale::Small);
        let before = m.graph.total_cost(64, &m.tables);
        let (fused, report) = fuse_elementwise(&m.graph);
        let after = fused.total_cost(64, &m.tables);
        assert!(report.fused > 0, "DLRM has fusable activations");
        assert!((after.flops - before.flops).abs() < 1e-6, "FLOPs preserved");
        assert!(
            after.total_bytes() < before.total_bytes(),
            "fusion removes intermediate traffic"
        );
        fused.validate().unwrap();
    }

    #[test]
    fn fusion_is_idempotent() {
        let m = RecModel::build(ModelKind::MtWnd, ModelScale::Small);
        let (once, r1) = fuse_elementwise(&m.graph);
        let (twice, r2) = fuse_elementwise(&once);
        assert!(r1.fused > 0);
        assert_eq!(r2.fused, 0);
        assert_eq!(once.len(), twice.len());
    }

    #[test]
    fn all_zoo_models_fuse_cleanly() {
        for kind in ModelKind::ALL {
            let m = RecModel::build(kind, ModelScale::Small);
            let (fused, report) = fuse_elementwise(&m.graph);
            fused.validate().unwrap();
            assert_eq!(report.nodes_after, report.nodes_before - report.fused);
        }
    }
}
