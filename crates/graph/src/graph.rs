//! Undirected weighted graph with node weights.

use std::fmt;

/// A compact undirected graph with `f64` edge weights and node weights.
///
/// Nodes are dense indices `0..node_count()`. Parallel edges are merged:
/// adding an edge that already exists accumulates its weight. Self-loops
/// are rejected (the algorithms in this crate never need them).
///
/// Node weights default to `1.0` and are used by the partitioner for its
/// balance constraint and by community detection when QPU capacities are
/// embedded into the topology (see the paper, §V.B "Finding feasible QPU
/// sets").
///
/// # Example
///
/// ```
/// use cloudqc_graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2.0);
/// g.add_edge(1, 2, 1.0);
/// g.add_edge(0, 1, 3.0); // merged: weight is now 5.0
/// assert_eq!(g.edge_weight(0, 1), Some(5.0));
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.total_edge_weight(), 6.0);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Graph {
    adj: Vec<Vec<(usize, f64)>>,
    node_weights: Vec<f64>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes, each of weight `1.0`.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            node_weights: vec![1.0; n],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list `(u, v, weight)`.
    ///
    /// `n` is the node count; every endpoint must be `< n`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge, accumulating weight onto an existing edge.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, if `u == v`, or if `weight`
    /// is not finite.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(u < self.adj.len(), "node {u} out of range");
        assert!(v < self.adj.len(), "node {v} out of range");
        assert_ne!(u, v, "self-loops are not supported");
        assert!(weight.is_finite(), "edge weight must be finite");
        if let Some(slot) = self.adj[u].iter_mut().find(|(n, _)| *n == v) {
            slot.1 += weight;
            let back = self.adj[v]
                .iter_mut()
                .find(|(n, _)| *n == u)
                .expect("adjacency lists out of sync");
            back.1 += weight;
        } else {
            self.adj[u].push((v, weight));
            self.adj[v].push((u, weight));
            self.edge_count += 1;
        }
    }

    /// Returns the weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adj
            .get(u)?
            .iter()
            .find(|(n, _)| *n == v)
            .map(|(_, w)| *w)
    }

    /// Returns `true` if nodes `u` and `v` are adjacent.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Neighbors of `u` with edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Number of neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Sum of edge weights incident to `u` (the weighted degree).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|(_, w)| *w).sum()
    }

    /// Weight of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_weight(&self, u: usize) -> f64 {
        self.node_weights[u]
    }

    /// Sets the weight of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `weight` is not finite/positive.
    pub fn set_node_weight(&mut self, u: usize, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "node weight must be finite and positive"
        );
        self.node_weights[u] = weight;
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> f64 {
        self.node_weights.iter().sum()
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// Iterates over distinct undirected edges as `(u, v, weight)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |(v, _)| u < *v)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Iterates over node indices.
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.adj.len()
    }

    /// Contracts nodes into groups, producing the quotient graph.
    ///
    /// `group[u]` gives the group index of node `u`; group indices must be
    /// dense `0..group_count`. Edge weights between groups accumulate;
    /// intra-group edges vanish. Node weights accumulate per group.
    ///
    /// # Panics
    ///
    /// Panics if `group.len() != node_count()` or indices are not dense.
    pub fn contract(&self, group: &[usize], group_count: usize) -> Graph {
        assert_eq!(group.len(), self.node_count(), "group map length mismatch");
        let mut g = Graph::new(group_count);
        for w in &mut g.node_weights {
            *w = 0.0;
        }
        for (&gu, &w) in group.iter().zip(&self.node_weights) {
            assert!(gu < group_count, "group index out of range");
            g.node_weights[gu] += w;
        }
        for (u, v, w) in self.edges() {
            let (gu, gv) = (group[u], group[v]);
            if gu != gv {
                g.add_edge(gu, gv, w);
            }
        }
        g
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_isolated() {
        let g = Graph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 0);
            assert_eq!(g.node_weight(u), 1.0);
        }
    }

    #[test]
    fn add_edge_is_symmetric() {
        let mut g = Graph::new(3);
        g.add_edge(0, 2, 4.5);
        assert_eq!(g.edge_weight(0, 2), Some(4.5));
        assert_eq!(g.edge_weight(2, 0), Some(4.5));
        assert_eq!(g.edge_weight(0, 1), None);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5, 1.0);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v, _) in edges {
            assert!(u < v);
        }
        assert_eq!(g.total_edge_weight(), 10.0);
    }

    #[test]
    fn weighted_degree_sums_incident_weights() {
        let g = Graph::from_edges(3, [(0, 1, 1.5), (1, 2, 2.5)]);
        assert_eq!(g.weighted_degree(1), 4.0);
        assert_eq!(g.weighted_degree(0), 1.5);
    }

    #[test]
    fn node_weights_roundtrip() {
        let mut g = Graph::new(2);
        g.set_node_weight(0, 7.0);
        assert_eq!(g.node_weight(0), 7.0);
        assert_eq!(g.total_node_weight(), 8.0);
    }

    #[test]
    fn contract_accumulates_weights() {
        // Path 0-1-2-3; contract {0,1} and {2,3}.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let q = g.contract(&[0, 0, 1, 1], 2);
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
        assert_eq!(q.edge_weight(0, 1), Some(2.0));
        assert_eq!(q.node_weight(0), 2.0);
        assert_eq!(q.node_weight(1), 2.0);
    }

    #[test]
    fn contract_merges_parallel_group_edges() {
        // Square 0-1, 1-2, 2-3, 3-0; contract {0,2} vs {1,3}:
        // all four edges become parallel group edges and merge.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let q = g.contract(&[0, 1, 0, 1], 2);
        assert_eq!(q.edge_count(), 1);
        assert_eq!(q.edge_weight(0, 1), Some(4.0));
    }
}
