//! Property-based tests for the graph substrate.

use cloudqc_graph::community::{louvain, modularity};
use cloudqc_graph::connectivity::{connected_components, is_connected};
use cloudqc_graph::partition::{balance, edge_cut, partition, PartitionConfig};
use cloudqc_graph::paths::{all_pairs_hops, shortest_hop_path};
use cloudqc_graph::random::{gnp, gnp_connected};
use cloudqc_graph::Graph;
use proptest::prelude::*;

/// Strategy: a random graph description (n, p, seed).
fn graph_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (2usize..40, 0.0f64..=1.0, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_covers_all_nodes((n, p, seed) in graph_params(), k in 1usize..6) {
        let g = gnp_connected(n, p, seed);
        let k = k.min(n);
        let parts = partition(&g, &PartitionConfig::new(k).with_seed(seed)).unwrap();
        prop_assert_eq!(parts.assignment().len(), n);
        prop_assert!(parts.assignment().iter().all(|&x| x < k));
        prop_assert_eq!(parts.nonempty_parts(), k);
    }

    #[test]
    fn partition_cut_bounded_by_total_weight((n, p, seed) in graph_params(), k in 1usize..6) {
        let g = gnp_connected(n, p, seed);
        let k = k.min(n);
        let parts = partition(&g, &PartitionConfig::new(k).with_seed(seed)).unwrap();
        let cut = edge_cut(&g, parts.assignment());
        prop_assert!(cut >= 0.0);
        prop_assert!(cut <= g.total_edge_weight() + 1e-9);
    }

    #[test]
    fn partition_balance_within_cap((n, p, seed) in graph_params(), k in 2usize..5) {
        let g = gnp_connected(n, p, seed);
        let k = k.min(n);
        let imbalance = 0.1;
        let cfg = PartitionConfig::new(k).with_imbalance(imbalance).with_seed(seed);
        let parts = partition(&g, &cfg).unwrap();
        let b = balance(&g, parts.assignment(), k);
        // Cap includes the half-node feasibility floor used internally.
        let cap = (1.0 + imbalance).max(1.0 + k as f64 / n as f64);
        prop_assert!(b <= cap + 1e-9, "balance {} > cap {}", b, cap);
    }

    #[test]
    fn partition_deterministic((n, p, seed) in graph_params(), k in 1usize..5) {
        let g = gnp_connected(n, p, seed);
        let k = k.min(n);
        let cfg = PartitionConfig::new(k).with_seed(seed);
        prop_assert_eq!(partition(&g, &cfg).unwrap(), partition(&g, &cfg).unwrap());
    }

    #[test]
    fn louvain_returns_valid_partition((n, p, seed) in graph_params()) {
        let g = gnp(n, p, seed);
        let c = louvain(&g, seed);
        prop_assert_eq!(c.assignment().len(), n);
        prop_assert!(c.assignment().iter().all(|&x| x < c.community_count()));
        // Every community id in 0..count appears (dense renumbering).
        let mut seen = vec![false; c.community_count()];
        for &x in c.assignment() {
            seen[x] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn louvain_no_worse_than_singletons((n, p, seed) in graph_params()) {
        let g = gnp(n, p, seed);
        let c = louvain(&g, seed);
        let singletons: Vec<usize> = (0..n).collect();
        prop_assert!(
            modularity(&g, c.assignment()) >= modularity(&g, &singletons) - 1e-9
        );
    }

    #[test]
    fn bfs_distance_triangle_inequality((n, p, seed) in graph_params()) {
        let g = gnp_connected(n, p, seed);
        let m = all_pairs_hops(&g);
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    let (duv, dvw, duw) = (
                        m.get(u, v).unwrap(),
                        m.get(v, w).unwrap(),
                        m.get(u, w).unwrap(),
                    );
                    prop_assert!(duw <= duv + dvw);
                }
            }
        }
    }

    #[test]
    fn shortest_path_is_consistent((n, p, seed) in graph_params()) {
        let g = gnp_connected(n, p, seed);
        let m = all_pairs_hops(&g);
        let dst = n - 1;
        let path = shortest_hop_path(&g, 0, dst).unwrap();
        prop_assert_eq!(path.len() as u32 - 1, m.get(0, dst).unwrap());
        prop_assert_eq!(path[0], 0);
        prop_assert_eq!(*path.last().unwrap(), dst);
        for pair in path.windows(2) {
            prop_assert!(g.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn components_partition_the_nodes((n, p, seed) in graph_params()) {
        let g = gnp(n, p, seed);
        let (comp, count) = connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        prop_assert!(comp.iter().all(|&c| c < count));
        // Two adjacent nodes always share a component.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
    }

    #[test]
    fn gnp_connected_always_connected(n in 1usize..50, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = gnp_connected(n, p, seed);
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn contract_preserves_node_weight((n, p, seed) in graph_params(), k in 1usize..5) {
        let g = gnp(n, p, seed);
        let k = k.min(n);
        let group: Vec<usize> = (0..n).map(|u| u % k).collect();
        let q = g.contract(&group, k);
        prop_assert!((q.total_node_weight() - g.total_node_weight()).abs() < 1e-9);
        // Cross-group edge weight is preserved.
        let cross: f64 = g
            .edges()
            .filter(|&(u, v, _)| group[u] != group[v])
            .map(|(_, _, w)| w)
            .sum();
        prop_assert!((q.total_edge_weight() - cross).abs() < 1e-9);
    }

    #[test]
    fn edge_cut_zero_iff_single_part((n, p, seed) in graph_params()) {
        let g = gnp(n, p, seed);
        let single = vec![0usize; n];
        prop_assert_eq!(edge_cut(&g, &single), 0.0);
    }
}

#[test]
fn partition_rejects_degenerate_configs() {
    let g = Graph::new(3);
    assert!(partition(&g, &PartitionConfig::new(0)).is_err());
    assert!(partition(&g, &PartitionConfig::new(4)).is_err());
}
