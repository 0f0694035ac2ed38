//! Connected components and union-find.

use crate::Graph;

/// Disjoint-set union with path compression and union by size.
///
/// # Example
///
/// ```
/// use cloudqc_graph::connectivity::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they
    /// were previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Assigns each node a dense component id `0..component_count`, in order
/// of first appearance by node index.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut uf = UnionFind::new(n);
    for (u, v, _) in graph.edges() {
        uf.union(u, v);
    }
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for u in 0..n {
        let r = uf.find(u);
        if comp[r] == usize::MAX {
            comp[r] = next;
            next += 1;
        }
        comp[u] = comp[r];
    }
    (comp, next)
}

/// Whether the graph is connected. Empty and single-node graphs count as
/// connected.
pub fn is_connected(graph: &Graph) -> bool {
    let (_, count) = connected_components(graph);
    count <= 1
}

/// Groups node indices by component id, components ordered by id.
pub fn component_members(graph: &Graph) -> Vec<Vec<usize>> {
    let (comp, count) = connected_components(graph);
    let mut members = vec![Vec::new(); count];
    for (u, &c) in comp.iter().enumerate() {
        members[c].push(u);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(1, 0));
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn components_of_two_paths() {
        let g = Graph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
        let ring = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        assert!(is_connected(&ring));
    }

    #[test]
    fn component_members_grouping() {
        let g = Graph::from_edges(4, [(0, 2, 1.0)]);
        let members = component_members(&g);
        assert_eq!(members, vec![vec![0, 2], vec![1], vec![3]]);
    }
}
