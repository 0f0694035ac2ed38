//! Multilevel k-way graph partitioning (METIS-style).
//!
//! CloudQC partitions circuit interaction graphs with PyMetis (paper
//! §V.B, "Partitioning quantum circuit"). This module provides a from-
//! scratch multilevel partitioner in the same algorithm family:
//!
//! 1. **Coarsening** — repeated heavy-edge matching contracts the graph
//!    until it is small (`matching`, `coarsen` modules).
//! 2. **Initial partitioning** — greedy graph growing on the coarsest
//!    graph (`initial` module).
//! 3. **Uncoarsening + refinement** — the assignment is projected back
//!    level by level and improved with Kernighan–Lin / Fiduccia–Mattheyses
//!    style boundary moves (`refine` module).
//!
//! The *imbalance factor* bounds the heaviest part at
//! `(1 + imbalance) · total_weight / parts`, matching the knob the paper
//! sweeps in Algorithm 1.
//!
//! # Example
//!
//! ```
//! use cloudqc_graph::{Graph, partition::{partition, PartitionConfig, edge_cut}};
//!
//! // Two 4-cliques joined by a single light edge.
//! let mut g = Graph::new(8);
//! for a in 0..4 {
//!     for b in (a + 1)..4 {
//!         g.add_edge(a, b, 10.0);
//!         g.add_edge(a + 4, b + 4, 10.0);
//!     }
//! }
//! g.add_edge(0, 4, 1.0);
//! let parts = partition(&g, &PartitionConfig::new(2)).unwrap();
//! // The natural cut severs only the bridge.
//! assert_eq!(edge_cut(&g, parts.assignment()), 1.0);
//! ```

mod coarsen;
mod initial;
mod matching;
mod multilevel;
mod quality;
mod refine;

pub use multilevel::partition;
pub use quality::{balance, edge_cut, part_weights};

use std::error::Error;
use std::fmt;

/// Configuration for [`partition`].
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionConfig {
    /// Number of parts `k` (must be ≥ 1).
    pub parts: usize,
    /// Allowed imbalance: the heaviest part may weigh up to
    /// `(1 + imbalance) · total / parts`. Typical values: 0.03–0.5.
    pub imbalance: f64,
    /// RNG seed; the partitioner is deterministic for a fixed seed.
    pub seed: u64,
}

impl PartitionConfig {
    /// Config with `parts` parts, 5% imbalance and seed 0.
    pub fn new(parts: usize) -> Self {
        PartitionConfig {
            parts,
            imbalance: 0.05,
            seed: 0,
        }
    }

    /// Sets the imbalance factor.
    pub fn with_imbalance(mut self, imbalance: f64) -> Self {
        self.imbalance = imbalance;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A k-way node assignment produced by [`partition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<usize>,
    parts: usize,
}

impl Partitioning {
    /// Creates a partitioning from a raw assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if any entry is `>= parts`.
    pub fn from_assignment(assignment: Vec<usize>, parts: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| p < parts),
            "assignment refers to part >= parts"
        );
        Partitioning { assignment, parts }
    }

    /// Part id of each node.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Part id of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn part_of(&self, u: usize) -> usize {
        self.assignment[u]
    }

    /// Number of parts `k`.
    pub fn part_count(&self) -> usize {
        self.parts
    }

    /// Node indices grouped by part.
    pub fn part_members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.parts];
        for (u, &p) in self.assignment.iter().enumerate() {
            members[p].push(u);
        }
        members
    }

    /// Number of non-empty parts.
    pub fn nonempty_parts(&self) -> usize {
        self.part_members().iter().filter(|m| !m.is_empty()).count()
    }
}

/// Errors returned by [`partition`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// `parts` was zero.
    ZeroParts,
    /// More parts requested than nodes available.
    TooManyParts {
        /// Requested part count.
        parts: usize,
        /// Node count of the graph.
        nodes: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroParts => write!(f, "cannot partition into zero parts"),
            PartitionError::TooManyParts { parts, nodes } => {
                write!(f, "cannot split {nodes} nodes into {parts} parts")
            }
        }
    }
}

impl Error for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_accessors() {
        let p = Partitioning::from_assignment(vec![0, 1, 0, 1], 2);
        assert_eq!(p.part_count(), 2);
        assert_eq!(p.part_of(2), 0);
        assert_eq!(p.part_members(), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(p.nonempty_parts(), 2);
    }

    #[test]
    #[should_panic(expected = "part >= parts")]
    fn from_assignment_validates() {
        Partitioning::from_assignment(vec![0, 3], 2);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            PartitionError::TooManyParts { parts: 5, nodes: 3 }.to_string(),
            "cannot split 3 nodes into 5 parts"
        );
        assert_eq!(
            PartitionError::ZeroParts.to_string(),
            "cannot partition into zero parts"
        );
    }
}
