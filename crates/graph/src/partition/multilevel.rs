//! The multilevel k-way partitioning driver.

use super::coarsen::coarsen;
use super::initial::greedy_growing;
use super::refine::{rebalance, refine};
use super::{PartitionConfig, PartitionError, Partitioning};
use crate::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Coarsening stops once the graph has at most
/// `max(COARSEN_FLOOR, COARSEN_PER_PART * parts)` nodes.
const COARSEN_FLOOR: usize = 24;
const COARSEN_PER_PART: usize = 4;
/// Refinement sweeps per level; each level stops early once a sweep
/// moves no node.
const REFINEMENT_PASSES: usize = 4;

/// Partitions `graph` into `config.parts` parts with bounded imbalance.
///
/// This is the METIS-style pipeline the paper's placement step relies
/// on: coarsen by heavy-edge matching, partition the coarsest graph by
/// greedy growing, then uncoarsen with KL/FM boundary refinement at each
/// level.
///
/// Deterministic for a fixed `config.seed`.
///
/// # Errors
///
/// * [`PartitionError::ZeroParts`] if `config.parts == 0`.
/// * [`PartitionError::TooManyParts`] if `config.parts` exceeds the node
///   count (an empty part would be unavoidable).
///
/// # Example
///
/// ```
/// use cloudqc_graph::{Graph, partition::{partition, PartitionConfig, balance}};
///
/// let ring = Graph::from_edges(12, (0..12).map(|i| (i, (i + 1) % 12, 1.0)));
/// let parts = partition(&ring, &PartitionConfig::new(3).with_imbalance(0.1)).unwrap();
/// assert!(balance(&ring, parts.assignment(), 3) <= 1.1 + 1e-9);
/// ```
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Result<Partitioning, PartitionError> {
    let k = config.parts;
    if k == 0 {
        return Err(PartitionError::ZeroParts);
    }
    let n = graph.node_count();
    if k > n {
        return Err(PartitionError::TooManyParts { parts: k, nodes: n });
    }
    if k == 1 {
        return Ok(Partitioning::from_assignment(vec![0; n], 1));
    }

    let total = graph.total_node_weight();
    let target = total / k as f64;
    // The balance cap. A floor of (target + max node weight) keeps the
    // problem feasible when indivisible nodes cannot split a perfect
    // share (e.g. unit-weight nodes with n not divisible by k).
    let max_node = (0..n).map(|u| graph.node_weight(u)).fold(0.0f64, f64::max);
    let max_part_weight = (target * (1.0 + config.imbalance)).max(target + max_node);

    let mut rng = StdRng::seed_from_u64(config.seed);

    // 1. Coarsen. Cap coarse node weights at the balanced share so the
    //    initial partition can still balance.
    let coarsen_target = COARSEN_FLOOR.max(COARSEN_PER_PART * k);
    let hierarchy = coarsen(graph, coarsen_target, target.max(max_node), &mut rng);

    // 2. Initial partition on the coarsest graph.
    let coarsest = hierarchy
        .coarsest()
        .cloned()
        .unwrap_or_else(|| graph.clone());
    let mut assignment = greedy_growing(&coarsest, k, target, &mut rng);
    rebalance(&coarsest, &mut assignment, k, max_part_weight);
    refine(
        &coarsest,
        &mut assignment,
        k,
        max_part_weight,
        REFINEMENT_PASSES,
        &mut rng,
    );

    // 3. Uncoarsen: project through the hierarchy, refining at each
    //    level (finest level last).
    for level in hierarchy.levels.iter().rev() {
        let fine_n = level.fine_to_coarse.len();
        let mut fine_assignment = vec![0usize; fine_n];
        for (u, &c) in level.fine_to_coarse.iter().enumerate() {
            fine_assignment[u] = assignment[c];
        }
        // The graph this assignment applies to is the *finer* graph: the
        // previous level's graph, or the original at the finest level.
        assignment = fine_assignment;
        let finer: &Graph = hierarchy
            .levels
            .iter()
            .rev()
            .skip_while(|l| !std::ptr::eq(*l, level))
            .nth(1)
            .map(|l| &l.graph)
            .unwrap_or(graph);
        rebalance(finer, &mut assignment, k, max_part_weight);
        refine(
            finer,
            &mut assignment,
            k,
            max_part_weight,
            REFINEMENT_PASSES,
            &mut rng,
        );
    }

    // Final guard: refinement never worsens balance, but enforce the cap
    // once more on the original graph.
    rebalance(graph, &mut assignment, k, max_part_weight);
    ensure_nonempty(graph, k, &mut assignment);
    Ok(Partitioning::from_assignment(assignment, k))
}

/// Final guard: every part non-empty (possible because `k <= n`).
fn ensure_nonempty(graph: &Graph, parts: usize, assignment: &mut [usize]) {
    loop {
        let mut sizes = vec![0usize; parts];
        for &p in assignment.iter() {
            sizes[p] += 1;
        }
        let Some(empty) = sizes.iter().position(|&s| s == 0) else {
            return;
        };
        let donor = (0..parts).max_by_key(|&p| sizes[p]).expect("parts >= 1");
        let node = (0..assignment.len())
            .filter(|&u| assignment[u] == donor)
            .min_by(|&a, &b| {
                graph
                    .node_weight(a)
                    .partial_cmp(&graph.node_weight(b))
                    .expect("finite weights")
                    .then_with(|| a.cmp(&b))
            })
            .expect("donor non-empty");
        assignment[node] = empty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{balance, edge_cut};
    use crate::random::gnp_connected;

    fn two_cliques(sz: usize) -> Graph {
        let mut g = Graph::new(2 * sz);
        for a in 0..sz {
            for b in (a + 1)..sz {
                g.add_edge(a, b, 10.0);
                g.add_edge(a + sz, b + sz, 10.0);
            }
        }
        g.add_edge(0, sz, 1.0);
        g
    }

    #[test]
    fn rejects_zero_parts() {
        let g = Graph::new(4);
        assert_eq!(
            partition(&g, &PartitionConfig::new(0)),
            Err(PartitionError::ZeroParts)
        );
    }

    #[test]
    fn rejects_too_many_parts() {
        let g = Graph::new(3);
        assert!(matches!(
            partition(&g, &PartitionConfig::new(5)),
            Err(PartitionError::TooManyParts { parts: 5, nodes: 3 })
        ));
    }

    #[test]
    fn single_part_is_trivial() {
        let g = two_cliques(4);
        let p = partition(&g, &PartitionConfig::new(1)).unwrap();
        assert!(p.assignment().iter().all(|&x| x == 0));
    }

    #[test]
    fn finds_natural_two_clique_cut() {
        let g = two_cliques(8);
        let p = partition(&g, &PartitionConfig::new(2).with_seed(3)).unwrap();
        assert_eq!(
            edge_cut(&g, p.assignment()),
            1.0,
            "assignment {:?}",
            p.assignment()
        );
    }

    #[test]
    fn respects_imbalance_on_random_graphs() {
        for seed in 0..5 {
            let g = gnp_connected(60, 0.1, seed);
            for k in [2, 3, 4, 6] {
                let cfg = PartitionConfig::new(k).with_imbalance(0.1).with_seed(seed);
                let p = partition(&g, &cfg).unwrap();
                let b = balance(&g, p.assignment(), k);
                // Allow the feasibility floor slack of half a node.
                assert!(
                    b <= (1.1f64).max(1.0 + k as f64 / 60.0) + 1e-9,
                    "seed {seed} k {k}: balance {b}"
                );
                assert_eq!(p.nonempty_parts(), k);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = gnp_connected(40, 0.15, 9);
        let cfg = PartitionConfig::new(4).with_seed(42);
        let a = partition(&g, &cfg).unwrap();
        let b = partition(&g, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parts_equal_nodes() {
        let g = gnp_connected(6, 0.5, 0);
        let p = partition(&g, &PartitionConfig::new(6)).unwrap();
        assert_eq!(p.nonempty_parts(), 6);
    }

    #[test]
    fn better_than_random_cut_on_structured_graph() {
        let g = two_cliques(10);
        let p = partition(&g, &PartitionConfig::new(2).with_seed(1)).unwrap();
        let ml_cut = edge_cut(&g, p.assignment());
        // Alternating assignment is a decent stand-in for "random".
        let random_cut = edge_cut(&g, &(0..20).map(|u| u % 2).collect::<Vec<_>>());
        assert!(ml_cut < random_cut / 10.0);
    }
}
