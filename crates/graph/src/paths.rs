//! Shortest hop paths, all-pairs hop distances and widest paths. The
//! all-pairs hop matrix is the paper's communication cost `C_ij` (length
//! of the path between QPU i and QPU j, §IV.B).

use crate::traversal::bfs_distances;
use crate::Graph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A dense matrix of hop distances between all node pairs.
///
/// `u32::MAX` encodes "unreachable" internally; use
/// [`DistanceMatrix::get`] which returns `Option<u32>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<u32>,
}

impl DistanceMatrix {
    /// Hop distance from `u` to `v`, or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn get(&self, u: usize, v: usize) -> Option<u32> {
        assert!(u < self.n && v < self.n, "index out of range");
        let d = self.dist[u * self.n + v];
        (d != u32::MAX).then_some(d)
    }

    /// Hop distance, treating unreachable pairs as `fallback`.
    pub fn get_or(&self, u: usize, v: usize, fallback: u32) -> u32 {
        self.get(u, v).unwrap_or(fallback)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }
}

/// Computes hop distances between every pair of nodes via one BFS per
/// node (`O(n · (n + m))`).
///
/// # Example
///
/// ```
/// use cloudqc_graph::{Graph, paths::all_pairs_hops};
///
/// let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
/// let m = all_pairs_hops(&g);
/// assert_eq!(m.get(0, 3), Some(3));
/// ```
pub fn all_pairs_hops(graph: &Graph) -> DistanceMatrix {
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n * n];
    for u in 0..n {
        for (v, d) in bfs_distances(graph, u).into_iter().enumerate() {
            if let Some(d) = d {
                dist[u * n + v] = d;
            }
        }
    }
    DistanceMatrix { n, dist }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; ties broken by node id for determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Widest-path (maximum-bottleneck) values from `src`: for every node,
/// the largest `w` such that some path from `src` reaches it using only
/// edges of weight ≥ `w`. `src` itself gets `f64::INFINITY`; unreachable
/// nodes get `None`.
///
/// Used by the quantum cloud model to derive end-to-end link
/// *reliability* between QPU pairs: with per-link success qualities as
/// edge weights, the bottleneck quality governs a multi-hop EPR path.
///
/// # Panics
///
/// Panics if `src` is out of range or a traversed edge weight is
/// negative.
///
/// # Example
///
/// ```
/// use cloudqc_graph::{Graph, paths::widest_path_values};
///
/// // Two routes 0→2: direct but narrow (0.2), or wide via 1 (0.8, 0.9).
/// let g = Graph::from_edges(3, [(0, 2, 0.2), (0, 1, 0.8), (1, 2, 0.9)]);
/// let w = widest_path_values(&g, 0);
/// assert_eq!(w[2], Some(0.8)); // bottleneck of the wide route
/// ```
pub fn widest_path_values(graph: &Graph, src: usize) -> Vec<Option<f64>> {
    assert!(src < graph.node_count(), "source {src} out of range");
    let mut width: Vec<Option<f64>> = vec![None; graph.node_count()];
    width[src] = Some(f64::INFINITY);
    // Max-heap on bottleneck width: HeapEntry pops the lowest cost, so
    // the cost is the negated width.
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        cost: f64::NEG_INFINITY,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        let w = -cost;
        if width[node].is_some_and(|best| w < best) {
            continue; // stale entry
        }
        for &(v, ew) in graph.neighbors(node) {
            assert!(ew >= 0.0, "negative edge weight");
            let next = w.min(ew);
            if width[v].is_none_or(|best| next > best) {
                width[v] = Some(next);
                heap.push(HeapEntry {
                    cost: -next,
                    node: v,
                });
            }
        }
    }
    width
}

/// Reconstructs one shortest hop path from `src` to `dst` (inclusive), or
/// `None` if unreachable. Deterministic: prefers the lowest-index
/// predecessor.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range.
pub fn shortest_hop_path(graph: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
    assert!(dst < graph.node_count(), "destination {dst} out of range");
    let dist = bfs_distances(graph, src);
    dist[dst]?;
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        let dc = dist[cur].expect("on-path node has a distance");
        let prev = graph
            .neighbors(cur)
            .iter()
            .filter(|&&(v, _)| dist[v] == Some(dc - 1))
            .map(|&(v, _)| v)
            .min()
            .expect("BFS predecessor exists");
        path.push(prev);
        cur = prev;
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_square() -> Graph {
        // 0-1 (1.0), 1-3 (1.0), 0-2 (10.0), 2-3 (1.0)
        Graph::from_edges(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 10.0), (2, 3, 1.0)])
    }

    #[test]
    fn all_pairs_symmetric() {
        let m = all_pairs_hops(&weighted_square());
        for u in 0..4 {
            assert_eq!(m.get(u, u), Some(0));
            for v in 0..4 {
                assert_eq!(m.get(u, v), m.get(v, u));
            }
        }
    }

    #[test]
    fn all_pairs_disconnected() {
        let g = Graph::from_edges(3, [(0, 1, 1.0)]);
        let m = all_pairs_hops(&g);
        assert_eq!(m.get(0, 2), None);
        assert_eq!(m.get_or(0, 2, 99), 99);
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]);
        let p = shortest_hop_path(&g, 0, 2).unwrap();
        assert_eq!(p.len(), 3); // two hops either way around the ring
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 2);
    }

    #[test]
    fn shortest_path_to_self() {
        let g = Graph::new(2);
        assert_eq!(shortest_hop_path(&g, 1, 1), Some(vec![1]));
        assert_eq!(shortest_hop_path(&g, 0, 1), None);
    }

    #[test]
    fn widest_path_prefers_bottleneck() {
        // 0-1 (0.9), 1-2 (0.5), 0-2 (0.4): best route to 2 is via 1.
        let g = Graph::from_edges(3, [(0, 1, 0.9), (1, 2, 0.5), (0, 2, 0.4)]);
        let w = widest_path_values(&g, 0);
        assert_eq!(w[0], Some(f64::INFINITY));
        assert_eq!(w[1], Some(0.9));
        assert_eq!(w[2], Some(0.5));
    }

    #[test]
    fn widest_path_unreachable_is_none() {
        let g = Graph::from_edges(3, [(0, 1, 1.0)]);
        let w = widest_path_values(&g, 0);
        assert_eq!(w[2], None);
    }

    #[test]
    fn widest_path_single_edge_uses_direct_route() {
        let g = Graph::from_edges(3, [(0, 1, 0.3), (1, 2, 0.3), (0, 2, 0.35)]);
        let w = widest_path_values(&g, 0);
        assert_eq!(w[2], Some(0.35));
    }
}
