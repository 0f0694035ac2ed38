//! Breadth-first traversal utilities: hop distances, BFS order,
//! eccentricity and reach. Graph centers, hop matrices and the cloud's
//! placement tables are built on them.

use crate::Graph;
use std::collections::VecDeque;

/// Hop distances from `src` to every node, ignoring edge weights.
///
/// Unreachable nodes get `None`.
///
/// # Panics
///
/// Panics if `src` is out of range.
///
/// # Example
///
/// ```
/// use cloudqc_graph::{Graph, traversal::bfs_distances};
///
/// let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)]);
/// let d = bfs_distances(&g, 0);
/// assert_eq!(d, vec![Some(0), Some(1), Some(2), None]);
/// ```
pub fn bfs_distances(graph: &Graph, src: usize) -> Vec<Option<u32>> {
    assert!(src < graph.node_count(), "source {src} out of range");
    let mut dist = vec![None; graph.node_count()];
    dist[src] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued node has a distance");
        for &(v, _) in graph.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Nodes in BFS order from `src` (only reachable nodes). Neighbors are
/// visited in adjacency order, making the traversal deterministic.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_order(graph: &Graph, src: usize) -> Vec<usize> {
    assert!(src < graph.node_count(), "source {src} out of range");
    let mut seen = vec![false; graph.node_count()];
    seen[src] = true;
    let mut queue = VecDeque::from([src]);
    let mut order = Vec::new();
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, _) in graph.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Eccentricity of `src`: the maximum hop distance to any *reachable*
/// node. Returns `0` for an isolated node.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn eccentricity(graph: &Graph, src: usize) -> u32 {
    bfs_distances(graph, src)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// Number of nodes reachable from `src`, including `src`.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn reachable_count(graph: &Graph, src: usize) -> usize {
    bfs_distances(graph, src).into_iter().flatten().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, (0..4).map(|i| (i, i + 1, 1.0)))
    }

    #[test]
    fn distances_on_path() {
        let d = bfs_distances(&path5(), 2);
        assert_eq!(d, vec![Some(2), Some(1), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = path5();
        g.add_edge(0, 4, 1.0); // ring of 5
        let g2 = Graph::from_edges(6, g.edges()); // node 5 isolated
        let d = bfs_distances(&g2, 0);
        assert_eq!(d[5], None);
    }

    #[test]
    fn bfs_order_starts_at_source() {
        let order = bfs_order(&path5(), 2);
        assert_eq!(order[0], 2);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn eccentricity_of_path_ends() {
        let g = path5();
        assert_eq!(eccentricity(&g, 0), 4);
        assert_eq!(eccentricity(&g, 2), 2);
    }

    #[test]
    fn reachable_count_isolated() {
        let g = Graph::new(3);
        assert_eq!(reachable_count(&g, 1), 1);
        assert_eq!(eccentricity(&g, 1), 0);
    }
}
