//! Seeded random graph generation.
//!
//! The paper's evaluation uses a random QPU topology: "We use a random
//! topology, and we set the probability of generating an edge to be 0.3"
//! (§VI.A) — an Erdős–Rényi `G(n, p)` graph. Because a disconnected
//! quantum cloud cannot route EPR pairs between all QPU pairs, we repair
//! connectivity by linking components, mirroring what any usable
//! deployment would guarantee.

use crate::connectivity::component_members;
use crate::Graph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Samples an Erdős–Rényi `G(n, p)` graph with unit edge weights.
///
/// Deterministic for a fixed `(n, p, seed)`.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]`.
///
/// # Example
///
/// ```
/// use cloudqc_graph::random::gnp;
///
/// let g = gnp(20, 0.3, 42);
/// assert_eq!(g.node_count(), 20);
/// let same = gnp(20, 0.3, 42);
/// assert_eq!(g.edge_count(), same.edge_count());
/// ```
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                g.add_edge(u, v, 1.0);
            }
        }
    }
    g
}

/// Samples `G(n, p)` and then repairs connectivity: while more than one
/// component remains, a random node of one component is linked to a
/// random node of another.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]` or `n == 0`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "need at least one node");
    let mut g = gnp(n, p, seed);
    // Separate stream so repair does not perturb the base sample.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    loop {
        let members = component_members(&g);
        if members.len() <= 1 {
            return g;
        }
        // Link every component to component 0 in one pass: deterministic
        // count of added edges, random attachment points.
        for comp in &members[1..] {
            let a = members[0][rng.random_range(0..members[0].len())];
            let b = comp[rng.random_range(0..comp.len())];
            g.add_edge(a, b, 1.0);
        }
    }
}

/// A ring (cycle) topology over `n` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)))
}

/// A line (path) topology over `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize) -> Graph {
    assert!(n > 0, "need at least one node");
    Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;

    #[test]
    fn gnp_deterministic_for_seed() {
        let a = gnp(30, 0.3, 7);
        let b = gnp(30, 0.3, 7);
        assert_eq!(a, b);
        let c = gnp(30, 0.3, 8);
        // Overwhelmingly likely to differ.
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(gnp(10, 1.0, 1).edge_count(), 45);
    }

    #[test]
    fn gnp_connected_is_connected() {
        for seed in 0..20 {
            let g = gnp_connected(20, 0.05, seed);
            assert!(is_connected(&g), "seed {seed} produced disconnected graph");
        }
    }

    #[test]
    fn gnp_connected_sparse_extreme() {
        let g = gnp_connected(15, 0.0, 3);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 14);
    }

    #[test]
    fn ring_degrees() {
        let g = ring(5);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn line_shapes() {
        assert_eq!(line(4).edge_count(), 3);
        assert_eq!(line(1).edge_count(), 0);
    }
}
