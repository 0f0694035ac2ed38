//! Circuit placement: mapping circuit qubits to QPUs.
//!
//! This module implements the paper's placement pipeline and every
//! baseline it compares against (§V.B, §VI.B):
//!
//! * [`CloudQcPlacement`] — Algorithm 1: graph partition sweep (imbalance
//!   × part count) + community-detection QPU selection + center-based
//!   mapping + scoring. Each instance partitions a circuit shape once
//!   per seed and replays the partitions on later calls.
//! * [`CloudQcBfsPlacement`] — the CloudQC-BFS variant: BFS QPU-set
//!   search instead of community detection.
//! * [`RandomPlacement`], [`AnnealingPlacement`], [`GeneticPlacement`] —
//!   the Random / SA [Mao et al.] / GA baselines of Table III.
//!
//! All algorithms implement [`PlacementAlgorithm`] and produce a
//! [`Placement`] (a total map qubit → QPU) that respects free-capacity
//! constraints in the provided [`CloudStatus`].

mod annealing;
mod bfs;
pub mod cache;
mod cloudqc;
pub mod cost;
#[cfg(test)]
mod differential;
pub mod estimate;
mod find_placement;
mod genetic;
mod moves;
mod random;
pub mod score;

pub use annealing::AnnealingPlacement;
pub use bfs::CloudQcBfsPlacement;
pub use cache::{CacheStats, PlacementCache};
pub use cloudqc::CloudQcPlacement;
pub use find_placement::{find_placement, CandidateSets, FindPlacementMode};
pub use genetic::GeneticPlacement;
pub use moves::MoveKernel;
pub use random::RandomPlacement;

use crate::error::PlacementError;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};

/// A total assignment of circuit qubits to QPUs — the paper's mapping
/// `π: qubits → QPUs`.
///
/// # Example
///
/// ```
/// use cloudqc_core::placement::Placement;
/// use cloudqc_cloud::QpuId;
///
/// let p = Placement::new(vec![QpuId::new(0), QpuId::new(0), QpuId::new(1)]);
/// assert_eq!(p.qpu_of(2), QpuId::new(1));
/// assert_eq!(p.qpu_demand(3), vec![2, 1, 0]);
/// assert_eq!(p.used_qpus(), vec![QpuId::new(0), QpuId::new(1)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    qubit_to_qpu: Vec<QpuId>,
}

impl Placement {
    /// Wraps a per-qubit QPU assignment.
    pub fn new(qubit_to_qpu: Vec<QpuId>) -> Self {
        Placement { qubit_to_qpu }
    }

    /// Builds a placement from a partition assignment and a part → QPU
    /// map.
    ///
    /// # Panics
    ///
    /// Panics if a part index has no QPU in `part_to_qpu`.
    pub fn from_parts(assignment: &[usize], part_to_qpu: &[QpuId]) -> Self {
        Placement {
            qubit_to_qpu: assignment.iter().map(|&p| part_to_qpu[p]).collect(),
        }
    }

    /// QPU hosting qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qpu_of(&self, q: usize) -> QpuId {
        self.qubit_to_qpu[q]
    }

    /// Number of qubits placed.
    pub fn num_qubits(&self) -> usize {
        self.qubit_to_qpu.len()
    }

    /// The raw assignment.
    pub fn assignment(&self) -> &[QpuId] {
        &self.qubit_to_qpu
    }

    /// Computing-qubit demand per QPU (`demand[i]` = qubits placed on
    /// QPU `i`).
    pub fn qpu_demand(&self, qpu_count: usize) -> Vec<usize> {
        let mut demand = vec![0usize; qpu_count];
        for q in &self.qubit_to_qpu {
            demand[q.index()] += 1;
        }
        demand
    }

    /// The distinct QPUs used, ascending.
    pub fn used_qpus(&self) -> Vec<QpuId> {
        let mut ids: Vec<QpuId> = self.qubit_to_qpu.clone();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Whether the whole circuit sits on one QPU (no remote gates).
    pub fn is_single_qpu(&self) -> bool {
        self.used_qpus().len() <= 1
    }

    /// Checks the placement against free capacity: every QPU must have
    /// at least as many free computing qubits as the placement demands.
    pub fn fits(&self, status: &CloudStatus) -> bool {
        self.qpu_demand(status.qpu_count())
            .iter()
            .enumerate()
            .all(|(i, &d)| d <= status.free_computing(QpuId::new(i)))
    }
}

/// A circuit placement algorithm.
///
/// Implementations must return placements that [`Placement::fits`] the
/// provided status; `seed` controls all internal randomness — so
/// [`PlacementAlgorithm::place`] is a pure function of its arguments
/// (the placement cache already depends on this).
///
/// That stays true as far as any caller can observe when an
/// implementation memoizes internally. [`CloudQcPlacement`] and
/// [`CloudQcBfsPlacement`] keep the partitions of their sweep, which
/// read the circuit's two-qubit structure and the seed but no cloud
/// state, and compare the stored structure on every hit; a hit replays
/// exactly what a fresh instance would compute.
pub trait PlacementAlgorithm {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Places `circuit` onto the cloud given current availability.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::InsufficientCapacity`] if the circuit cannot
    ///   fit at all.
    /// * [`PlacementError::NoFeasiblePlacement`] if no attempted
    ///   placement satisfied the constraints.
    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError>;
}

/// Guard shared by all algorithms: total free capacity must cover the
/// circuit.
pub(crate) fn check_total_capacity(
    circuit: &Circuit,
    status: &CloudStatus,
) -> Result<(), PlacementError> {
    let required = circuit.num_qubits();
    let available = status.total_free_computing();
    if required > available {
        return Err(PlacementError::InsufficientCapacity {
            required,
            available,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_and_fits() {
        let p = Placement::new(vec![QpuId::new(1); 5]);
        let mut status = CloudStatus::new(vec![10, 10]);
        assert!(p.fits(&status));
        status.allocate_computing(QpuId::new(1), 7).unwrap();
        assert!(!p.fits(&status));
    }

    #[test]
    fn from_parts_expands() {
        let p = Placement::from_parts(&[0, 1, 0], &[QpuId::new(5), QpuId::new(2)]);
        assert_eq!(
            p.assignment(),
            &[QpuId::new(5), QpuId::new(2), QpuId::new(5)]
        );
        assert!(!p.is_single_qpu());
    }

    #[test]
    fn single_qpu_detection() {
        assert!(Placement::new(vec![QpuId::new(3); 4]).is_single_qpu());
        assert!(Placement::new(vec![]).is_single_qpu());
    }

    #[test]
    fn capacity_guard() {
        let mut c = Circuit::new(25);
        c.h(0);
        let status = CloudStatus::new(vec![10, 10]);
        let err = check_total_capacity(&c, &status).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::InsufficientCapacity {
                required: 25,
                available: 20
            }
        ));
    }
}
