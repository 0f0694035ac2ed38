//! Graph centers.
//!
//! Algorithm 2 of the paper maps the *center* of the partition
//! interaction graph onto the *center* of the detected QPU community:
//! the node minimizing the longest topological distance to all other
//! nodes (minimum eccentricity).

use crate::traversal::{bfs_distances, eccentricity, reachable_count};
use crate::Graph;

/// The graph center among a candidate set (e.g. the QPUs of one
/// community): the candidate with minimum eccentricity.
///
/// For disconnected graphs, candidates that reach the most other nodes
/// are preferred (so the center lies in the largest component reachable
/// structure); ties are broken by the smaller node index, making the
/// result deterministic. Candidates outside the graph are ignored;
/// returns `None` if no valid candidate exists.
///
/// # Example
///
/// ```
/// use cloudqc_graph::{Graph, center::graph_center_among};
///
/// // Path 0-1-2-3-4: the middle node 2 is the center.
/// let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1, 1.0)));
/// assert_eq!(graph_center_among(&g, g.nodes()), Some(2));
/// ```
pub fn graph_center_among(
    graph: &Graph,
    candidates: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    let mut best: Option<(usize, usize, u32)> = None; // (node, -reach, ecc)
    for u in candidates {
        if u >= graph.node_count() {
            continue;
        }
        let reach = reachable_count(graph, u);
        let ecc = eccentricity(graph, u);
        let better = match best {
            None => true,
            Some((bn, breach, becc)) => {
                (reach > breach)
                    || (reach == breach && ecc < becc)
                    || (reach == breach && ecc == becc && u < bn)
            }
        };
        if better {
            best = Some((u, reach, ecc));
        }
    }
    best.map(|(n, _, _)| n)
}

/// The *weighted* center: the node minimizing the maximum BFS hop
/// distance, breaking ties by the largest incident edge weight. Used for
/// interaction graphs where a heavy hub should win ties.
pub fn weighted_center(graph: &Graph) -> Option<usize> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    let mut best: Option<(usize, usize, u32, f64)> = None;
    for u in 0..n {
        let dist = bfs_distances(graph, u);
        let reach = dist.iter().flatten().count();
        let ecc = dist.into_iter().flatten().max().unwrap_or(0);
        let wdeg = graph.weighted_degree(u);
        let better = match best {
            None => true,
            Some((bn, breach, becc, bw)) => {
                (reach > breach)
                    || (reach == breach && ecc < becc)
                    || (reach == breach && ecc == becc && wdeg > bw)
                    || (reach == breach && ecc == becc && wdeg == bw && u < bn)
            }
        };
        if better {
            best = Some((u, reach, ecc, wdeg));
        }
    }
    best.map(|(n, _, _, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_of_star_is_hub() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i, 1.0)));
        assert_eq!(graph_center_among(&g, g.nodes()), Some(0));
    }

    #[test]
    fn center_of_empty_graph_is_none() {
        let g = Graph::new(0);
        assert_eq!(graph_center_among(&g, g.nodes()), None);
    }

    #[test]
    fn center_of_singleton() {
        let g = Graph::new(1);
        assert_eq!(graph_center_among(&g, g.nodes()), Some(0));
    }

    #[test]
    fn center_prefers_larger_component() {
        // Component A: 0-1 (2 nodes). Component B: 2-3-4 path (3 nodes).
        let g = Graph::from_edges(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)]);
        assert_eq!(graph_center_among(&g, g.nodes()), Some(3));
    }

    #[test]
    fn center_among_candidates_only() {
        let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1, 1.0)));
        // Exclude the true center (2); among {0, 1} node 1 has lower ecc.
        assert_eq!(graph_center_among(&g, [0, 1]), Some(1));
    }

    #[test]
    fn center_among_ignores_out_of_range() {
        let g = Graph::new(2);
        assert_eq!(graph_center_among(&g, [7, 1]), Some(1));
        assert_eq!(graph_center_among(&g, [7, 9]), None);
    }

    #[test]
    fn weighted_center_breaks_ties_by_weight() {
        // Square: all nodes have eccentricity 2; node 3 has the heaviest
        // incident weight.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0), (3, 0, 5.0)]);
        assert_eq!(weighted_center(&g), Some(3));
    }
}
