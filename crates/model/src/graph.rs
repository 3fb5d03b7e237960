//! Computation graphs.
//!
//! A recommendation model is a DAG of operators ([`OpKind`]); the task
//! scheduler launches whole graphs (`Gm`) or partitioned subgraphs
//! (`Gs`, `Gd`, `Gs.hot`) on inference threads, and the graph executor
//! respects operator dependencies when assigning work to parallel operator
//! workers (§II-B).

use std::collections::HashMap;
use std::fmt;

use crate::op::{OpCost, OpKind};
use crate::table::EmbeddingTableSpec;

/// Identifies one node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Index into the graph's node list.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One operator instance in a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name (`"Bot-FC0"`, `"SLS-3"`, ...).
    pub name: String,
    /// The operator.
    pub op: OpKind,
}

/// Errors from graph construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node that does not exist.
    UnknownNode,
    /// An edge would connect a node to itself.
    SelfEdge,
    /// The identical edge was inserted twice.
    DuplicateEdge,
    /// The graph contains a dependency cycle.
    Cycle,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode => write!(f, "edge references an unknown node"),
            GraphError::SelfEdge => write!(f, "self edges are not allowed"),
            GraphError::DuplicateEdge => write!(f, "duplicate edge"),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic computation graph.
///
/// ```
/// use hercules_model::graph::Graph;
/// use hercules_model::op::OpKind;
///
/// let mut g = Graph::new();
/// let a = g.add_node("fc0", OpKind::Fc { in_dim: 8, out_dim: 4, fused_activation: None });
/// let b = g.add_node("fc1", OpKind::Fc { in_dim: 4, out_dim: 1, fused_activation: None });
/// g.add_edge(a, b)?;
/// assert_eq!(g.topo_order()?, vec![a, b]);
/// # Ok::<(), hercules_model::graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, op: OpKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            op,
        });
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Adds a dependency edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`], [`GraphError::SelfEdge`], or
    /// [`GraphError::DuplicateEdge`]. Cycles are detected lazily by
    /// [`Graph::topo_order`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        if from.0 >= self.nodes.len() || to.0 >= self.nodes.len() {
            return Err(GraphError::UnknownNode);
        }
        if from == to {
            return Err(GraphError::SelfEdge);
        }
        if self.succs[from.0].contains(&to) {
            return Err(GraphError::DuplicateEdge);
        }
        self.succs[from.0].push(to);
        self.preds[to.0].push(from);
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Iterates `(id, node)` pairs in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Direct predecessors of `id`.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.0]
    }

    /// Direct successors of `id`.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.0]
    }

    /// Nodes with no predecessors.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.preds[i].is_empty())
            .map(NodeId)
            .collect()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// A topological ordering of all nodes (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is not a DAG.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).map(NodeId).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &v in &self.succs[u.0] {
                indeg[v.0] -= 1;
                if indeg[v.0] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Validates the graph is a DAG.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if a cycle exists.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.topo_order().map(|_| ())
    }

    /// Aggregate cost of every node at `batch` items.
    ///
    /// `random_access` is set if any constituent op gathers, and
    /// `serial_steps` takes the maximum chain.
    pub fn total_cost(&self, batch: u64, tables: &[EmbeddingTableSpec]) -> OpCost {
        let mut acc = OpCost {
            serial_steps: 1,
            ..OpCost::default()
        };
        for node in &self.nodes {
            let c = node.op.cost(batch, tables);
            acc.flops += c.flops;
            acc.bytes_read += c.bytes_read;
            acc.bytes_written += c.bytes_written;
            acc.random_access |= c.random_access;
            acc.serial_steps = acc.serial_steps.max(c.serial_steps);
        }
        acc
    }

    /// Host-to-device loading bytes per batch item (sparse indices) summed
    /// over all nodes.
    pub fn loading_bytes_per_item(&self, tables: &[EmbeddingTableSpec]) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.op.loading_bytes_per_item(tables))
            .sum()
    }

    /// Builds the induced subgraph over nodes selected by `keep`.
    ///
    /// Edges are preserved when both endpoints are kept; edges crossing the
    /// cut are dropped (they become stage-boundary queues in the pipeline).
    /// Returns the subgraph and the mapping from old to new ids.
    pub fn induced_subgraph<F: Fn(NodeId, &Node) -> bool>(
        &self,
        keep: F,
    ) -> (Graph, HashMap<NodeId, NodeId>) {
        let mut sub = Graph::new();
        let mut map = HashMap::new();
        for (id, node) in self.nodes() {
            if keep(id, node) {
                let new_id = sub.add_node(node.name.clone(), node.op.clone());
                map.insert(id, new_id);
            }
        }
        for (id, _) in self.nodes() {
            if let Some(&new_from) = map.get(&id) {
                for &succ in self.succs(id) {
                    if let Some(&new_to) = map.get(&succ) {
                        sub.add_edge(new_from, new_to)
                            .expect("induced edges are valid");
                    }
                }
            }
        }
        (sub, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc(i: u32, o: u32) -> OpKind {
        OpKind::Fc {
            in_dim: i,
            out_dim: o,
            fused_activation: None,
        }
    }

    fn diamond() -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node("a", fc(1, 1));
        let b = g.add_node("b", fc(1, 1));
        let c = g.add_node("c", fc(1, 1));
        let d = g.add_node("d", fc(1, 1));
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_node("a", fc(1, 1));
        let b = g.add_node("b", fc(1, 1));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        assert_eq!(g.topo_order().unwrap_err(), GraphError::Cycle);
        assert_eq!(g.validate().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn edge_validation() {
        let mut g = Graph::new();
        let a = g.add_node("a", fc(1, 1));
        let b = g.add_node("b", fc(1, 1));
        assert_eq!(g.add_edge(a, a).unwrap_err(), GraphError::SelfEdge);
        g.add_edge(a, b).unwrap();
        assert_eq!(g.add_edge(a, b).unwrap_err(), GraphError::DuplicateEdge);
        let ghost = NodeId(99);
        assert_eq!(g.add_edge(a, ghost).unwrap_err(), GraphError::UnknownNode);
    }

    #[test]
    fn roots_and_leaves() {
        let (g, [a, _, _, _]) = diamond();
        assert_eq!(g.roots(), vec![a]);
    }

    #[test]
    fn induced_subgraph_preserves_internal_edges() {
        let (g, [a, b, c, d]) = diamond();
        let (sub, map) = g.induced_subgraph(|id, _| id != d);
        assert_eq!(sub.len(), 3);
        // a->b and a->c survive; edges into d are cut.
        assert_eq!(sub.edge_count(), 2);
        assert!(map.contains_key(&a) && map.contains_key(&b) && map.contains_key(&c));
        assert!(!map.contains_key(&d));
        sub.validate().unwrap();
    }

    #[test]
    fn total_cost_sums_nodes() {
        let mut g = Graph::new();
        g.add_node("x", fc(10, 10));
        g.add_node("y", fc(10, 10));
        let c = g.total_cost(2, &[]);
        assert_eq!(c.flops, 2.0 * (2.0 * 2.0 * 10.0 * 10.0));
        assert_eq!(c.serial_steps, 1);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.topo_order().unwrap(), vec![]);
        assert_eq!(g.total_cost(4, &[]).flops, 0.0);
    }
}
