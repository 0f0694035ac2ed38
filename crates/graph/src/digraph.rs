//! Directed graphs and DAG utilities (topological order, longest paths,
//! front layers).

use std::collections::VecDeque;

/// A directed graph over dense node indices `0..node_count()`.
///
/// Used for gate-dependency DAGs of quantum circuits and for the *remote
/// DAG* consumed by the network scheduler (paper Fig. 3b). Duplicate
/// edges are ignored.
///
/// # Example
///
/// ```
/// use cloudqc_graph::DiGraph;
///
/// let mut d = DiGraph::new(3);
/// d.add_edge(0, 1);
/// d.add_edge(1, 2);
/// assert_eq!(d.topo_order().unwrap(), vec![0, 1, 2]);
/// // Node 0 reaches a leaf via a path of 2 edges.
/// assert_eq!(d.longest_path_to_leaf(), vec![2, 1, 0]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiGraph {
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a directed graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds edge `u -> v`. Duplicate edges are ignored; self-loops panic.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.succ.len(), "node {u} out of range");
        assert!(v < self.succ.len(), "node {v} out of range");
        assert_ne!(u, v, "self-loops are not supported");
        if !self.succ[u].contains(&v) {
            self.succ[u].push(v);
            self.pred[v].push(u);
            self.edge_count += 1;
        }
    }

    /// Successors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn successors(&self, u: usize) -> &[usize] {
        &self.succ[u]
    }

    /// Predecessors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn predecessors(&self, u: usize) -> &[usize] {
        &self.pred[u]
    }

    /// In-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn in_degree(&self, u: usize) -> usize {
        self.pred[u].len()
    }

    /// Nodes with no predecessors — the initial *front layer* of a DAG.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&u| self.pred[u].is_empty())
            .collect()
    }

    /// Kahn topological order, or `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.node_count();
        let mut in_deg: Vec<usize> = (0..n).map(|u| self.in_degree(u)).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&u| in_deg[u] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &self.succ[u] {
                in_deg[v] -= 1;
                if in_deg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Returns `true` if the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// For each node, the number of edges on the longest path from that
    /// node to any sink.
    ///
    /// This is exactly the *priority* `p_i = max_{P ∈ P(n_i)} |P|` that
    /// CloudQC's network scheduler assigns to remote-DAG nodes (§V.C).
    /// Sinks get `0`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn longest_path_to_leaf(&self) -> Vec<usize> {
        let order = self.topo_order().expect("graph has a cycle");
        let mut dist = vec![0usize; self.node_count()];
        for &u in order.iter().rev() {
            for &v in &self.succ[u] {
                dist[u] = dist[u].max(dist[v] + 1);
            }
        }
        dist
    }

    /// Length (edge count) of the longest path in the DAG — the critical
    /// path length. Returns `0` for an empty or edgeless graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn critical_path_len(&self) -> usize {
        self.longest_path_to_leaf().into_iter().max().unwrap_or(0)
    }

    /// Weighted longest source→sink path where each *node* costs
    /// `node_cost[u]`. Returns the maximum total cost over all paths, or
    /// `0.0` for an empty graph.
    ///
    /// Used to estimate circuit execution time from a gate DAG where each
    /// gate contributes its latency.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle or `node_cost.len()` mismatches.
    pub fn weighted_critical_path(&self, node_cost: &[f64]) -> f64 {
        assert_eq!(node_cost.len(), self.node_count(), "cost length mismatch");
        let order = self.topo_order().expect("graph has a cycle");
        let mut best = vec![0.0f64; self.node_count()];
        let mut overall: f64 = 0.0;
        for &u in &order {
            best[u] += node_cost[u];
            overall = overall.max(best[u]);
            for &v in &self.succ[u] {
                if best[u] > best[v] {
                    best[v] = best[u];
                }
            }
        }
        overall
    }

    /// Builds the sub-DAG induced by `nodes`, adding an edge `i -> j`
    /// whenever the original DAG has a path from `nodes[i]` to `nodes[j]`
    /// that passes through no other retained node.
    ///
    /// This is the *transitive reduction onto a subset* used to derive
    /// the remote DAG: dependencies through dropped (local) gates are
    /// preserved, but edges implied by other retained nodes are not
    /// duplicated.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle or `nodes` contains duplicates or
    /// out-of-range indices.
    pub fn project_onto(&self, nodes: &[usize]) -> DiGraph {
        let n = self.node_count();
        let mut keep = vec![usize::MAX; n];
        for (i, &u) in nodes.iter().enumerate() {
            assert!(u < n, "node {u} out of range");
            assert!(keep[u] == usize::MAX, "duplicate node {u}");
            keep[u] = i;
        }
        let order = self.topo_order().expect("graph has a cycle");
        let mut out = DiGraph::new(nodes.len());
        // nearest_kept[u]: set of retained nodes reachable from u without
        // crossing another retained node (small sets in practice).
        let mut nearest: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &u in order.iter().rev() {
            let mut acc: Vec<usize> = Vec::new();
            for &v in &self.succ[u] {
                if keep[v] != usize::MAX {
                    if !acc.contains(&keep[v]) {
                        acc.push(keep[v]);
                    }
                } else {
                    for &k in &nearest[v] {
                        if !acc.contains(&k) {
                            acc.push(k);
                        }
                    }
                }
            }
            if keep[u] != usize::MAX {
                for &k in &acc {
                    out.add_edge(keep[u], k);
                }
                nearest[u] = vec![keep[u]];
            } else {
                nearest[u] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut d = DiGraph::new(4);
        d.add_edge(0, 1);
        d.add_edge(0, 2);
        d.add_edge(1, 3);
        d.add_edge(2, 3);
        d
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        let order = d.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &u) in order.iter().enumerate() {
                p[u] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detected() {
        let mut d = DiGraph::new(3);
        d.add_edge(0, 1);
        d.add_edge(1, 2);
        d.add_edge(2, 0);
        assert!(d.topo_order().is_none());
        assert!(!d.is_acyclic());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut d = DiGraph::new(2);
        d.add_edge(0, 1);
        d.add_edge(0, 1);
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn sources_and_sinks() {
        let d = diamond();
        assert_eq!(d.sources(), vec![0]);
        assert!(d.successors(3).is_empty());
    }

    #[test]
    fn longest_path_to_leaf_matches_hand_computation() {
        let d = diamond();
        assert_eq!(d.longest_path_to_leaf(), vec![2, 1, 1, 0]);
        assert_eq!(d.critical_path_len(), 2);
    }

    #[test]
    fn weighted_critical_path_takes_heavier_branch() {
        let d = diamond();
        // Branch through node 1 costs 1+10+1, through node 2 costs 1+2+1.
        let cost = vec![1.0, 10.0, 2.0, 1.0];
        assert_eq!(d.weighted_critical_path(&cost), 12.0);
    }

    #[test]
    fn project_onto_skips_dropped_nodes() {
        // Chain 0 -> 1 -> 2 -> 3, keep {0, 2, 3}.
        let mut d = DiGraph::new(4);
        d.add_edge(0, 1);
        d.add_edge(1, 2);
        d.add_edge(2, 3);
        let p = d.project_onto(&[0, 2, 3]);
        assert_eq!(p.node_count(), 3);
        // 0 -> 2 via dropped 1, and 2 -> 3 directly. No 0 -> 3 shortcut.
        assert_eq!(p.successors(0), &[1]);
        assert_eq!(p.successors(1), &[2]);
        assert_eq!(p.successors(2), &[] as &[usize]);
    }

    #[test]
    fn project_onto_does_not_duplicate_transitive_edges() {
        let d = diamond();
        // Keep everything: projection is the identity graph shape.
        let p = d.project_onto(&[0, 1, 2, 3]);
        assert_eq!(p.edge_count(), 4);
        // 0 -> 3 must NOT appear: paths 0->1->3 pass through retained 1.
        assert!(!p.successors(0).contains(&3));
    }

    #[test]
    fn project_onto_empty_subset() {
        let d = diamond();
        let p = d.project_onto(&[]);
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn empty_graph_critical_path_zero() {
        let d = DiGraph::new(0);
        assert_eq!(d.critical_path_len(), 0);
        assert_eq!(d.weighted_critical_path(&[]), 0.0);
    }
}
