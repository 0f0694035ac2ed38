//! Modularity-based community detection.
//!
//! CloudQC uses "a modularity-based community detection algorithm
//! [Newman 2006] to identify a set of QPUs capable of running the job"
//! (paper §V.B, "Finding feasible QPU sets"). This module implements
//! Newman modularity scoring ([`modularity`]) and the Louvain method
//! ([`louvain`]), which greedily maximizes that metric.
//!
//! QPU capacities can be embedded into edge weights before detection —
//! see `cloudqc_core::placement::find_placement` — so that "the selected
//! QPUs have both strong connectivity and abundant computing qubits".
//!
//! # Example
//!
//! ```
//! use cloudqc_graph::{Graph, community::{louvain, modularity, Communities}};
//!
//! // Two triangles joined by one edge: two obvious communities.
//! let g = Graph::from_edges(6, [
//!     (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
//!     (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
//!     (2, 3, 1.0),
//! ]);
//! let comms = louvain(&g, 0);
//! assert_eq!(comms.community_count(), 2);
//! assert!(modularity(&g, comms.assignment()) > 0.3);
//! ```

mod louvain_impl;
mod modularity_impl;

pub use louvain_impl::louvain;
pub use modularity_impl::modularity;

/// A community assignment over graph nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Communities {
    assignment: Vec<usize>,
    count: usize,
}

impl Communities {
    /// Creates a `Communities` from a raw assignment, renumbering
    /// community ids densely in order of first appearance.
    pub fn from_assignment(raw: &[usize]) -> Self {
        let mut remap: Vec<usize> = Vec::new();
        let mut lookup = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for &c in raw {
            let id = *lookup.entry(c).or_insert_with(|| {
                remap.push(c);
                remap.len() - 1
            });
            assignment.push(id);
        }
        Communities {
            assignment,
            count: remap.len(),
        }
    }

    /// Community id of each node.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Community id of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn community_of(&self, u: usize) -> usize {
        self.assignment[u]
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.count
    }

    /// Node indices grouped by community id.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.count];
        for (u, &c) in self.assignment.iter().enumerate() {
            members[c].push(u);
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_renumbers_densely() {
        let c = Communities::from_assignment(&[7, 7, 3, 7, 3, 9]);
        assert_eq!(c.community_count(), 3);
        assert_eq!(c.assignment(), &[0, 0, 1, 0, 1, 2]);
        assert_eq!(c.community_of(4), 1);
    }

    #[test]
    fn members_grouping() {
        let c = Communities::from_assignment(&[0, 1, 0]);
        assert_eq!(c.members(), vec![vec![0, 2], vec![1]]);
    }
}
