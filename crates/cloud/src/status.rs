//! Mutable resource availability — the controller's view of the cloud.
//!
//! "The controller … monitors the status of each QPU, such as the
//! available computing and communication qubits" (paper §III). This is
//! the computing half: placement reads and claims it per job. The
//! communication qubits are granted per EPR round, so the executor
//! keeps their ledger (`Executor::comm_free` in `cloudqc-core`).

use crate::qpu::QpuId;
use std::error::Error;
use std::fmt;

/// Free computing qubits per QPU, with capacity-checked
/// allocate/release.
///
/// Computing qubits are held for a job's full lifetime (multi-tenant
/// occupancy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CloudStatus {
    computing_capacity: Vec<usize>,
    free_computing: Vec<usize>,
}

impl CloudStatus {
    /// A fully-free status with the given computing capacities.
    pub fn new(computing: Vec<usize>) -> Self {
        CloudStatus {
            free_computing: computing.clone(),
            computing_capacity: computing,
        }
    }

    /// Number of QPUs tracked.
    pub fn qpu_count(&self) -> usize {
        self.computing_capacity.len()
    }

    /// Free computing qubits on `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn free_computing(&self, id: QpuId) -> usize {
        self.free_computing[id.index()]
    }

    /// Computing capacity of `id` (paper Eq. 3's `Capacity(V_j)`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn computing_capacity(&self, id: QpuId) -> usize {
        self.computing_capacity[id.index()]
    }

    /// Total free computing qubits across the cloud — `Σ Rem(V_i)`, the
    /// quantity objective 2 (Eq. 2) minimizes after placement.
    pub fn total_free_computing(&self) -> usize {
        self.free_computing.iter().sum()
    }

    /// The largest free-computing block on any single QPU.
    pub fn max_free_computing(&self) -> usize {
        self.free_computing.iter().copied().max().unwrap_or(0)
    }

    /// Claims `n` computing qubits on `id`.
    ///
    /// # Errors
    ///
    /// [`ResourceError::Insufficient`] if fewer than `n` are free; the
    /// status is unchanged on error.
    pub fn allocate_computing(&mut self, id: QpuId, n: usize) -> Result<(), ResourceError> {
        let free = &mut self.free_computing[id.index()];
        if *free < n {
            return Err(ResourceError::Insufficient {
                qpu: id,
                requested: n,
                available: *free,
            });
        }
        *free -= n;
        Ok(())
    }

    /// Returns `n` computing qubits to `id`.
    ///
    /// # Panics
    ///
    /// Panics if the release would exceed capacity (a double-release
    /// bug).
    pub fn release_computing(&mut self, id: QpuId, n: usize) {
        let idx = id.index();
        self.free_computing[idx] += n;
        assert!(
            self.free_computing[idx] <= self.computing_capacity[idx],
            "released more computing qubits than {id} holds"
        );
    }

    /// Applies a placement's computing-qubit demands in one transaction:
    /// either every QPU allocation succeeds or nothing changes.
    ///
    /// `demand[i]` is the computing-qubit demand on QPU `i`.
    ///
    /// # Errors
    ///
    /// [`ResourceError::Insufficient`] naming the first QPU that cannot
    /// satisfy its demand.
    ///
    /// # Panics
    ///
    /// Panics if `demand.len() != qpu_count()`.
    pub fn allocate_all_computing(&mut self, demand: &[usize]) -> Result<(), ResourceError> {
        assert_eq!(demand.len(), self.qpu_count(), "demand length mismatch");
        for (i, &d) in demand.iter().enumerate() {
            if self.free_computing[i] < d {
                return Err(ResourceError::Insufficient {
                    qpu: QpuId::new(i),
                    requested: d,
                    available: self.free_computing[i],
                });
            }
        }
        for (i, &d) in demand.iter().enumerate() {
            self.free_computing[i] -= d;
        }
        Ok(())
    }

    /// Releases a placement's computing-qubit demands (inverse of
    /// [`CloudStatus::allocate_all_computing`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or double release.
    pub fn release_all_computing(&mut self, demand: &[usize]) {
        assert_eq!(demand.len(), self.qpu_count(), "demand length mismatch");
        for (i, &d) in demand.iter().enumerate() {
            self.release_computing(QpuId::new(i), d);
        }
    }
}

/// Resource allocation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResourceError {
    /// A QPU had fewer free qubits than requested.
    Insufficient {
        /// The QPU that could not satisfy the request.
        qpu: QpuId,
        /// Qubits requested.
        requested: usize,
        /// Qubits actually free.
        available: usize,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::Insufficient {
                qpu,
                requested,
                available,
            } => write!(
                f,
                "{qpu} has {available} free qubits, {requested} requested"
            ),
        }
    }
}

impl Error for ResourceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn status3() -> CloudStatus {
        CloudStatus::new(vec![10, 10, 10])
    }

    #[test]
    fn allocate_and_release_computing() {
        let mut s = status3();
        s.allocate_computing(QpuId::new(1), 4).unwrap();
        assert_eq!(s.free_computing(QpuId::new(1)), 6);
        assert_eq!(s.total_free_computing(), 26);
        s.release_computing(QpuId::new(1), 4);
        assert_eq!(s.total_free_computing(), 30);
    }

    #[test]
    fn insufficient_is_reported_and_harmless() {
        let mut s = status3();
        let err = s.allocate_computing(QpuId::new(0), 11).unwrap_err();
        assert!(matches!(
            err,
            ResourceError::Insufficient {
                requested: 11,
                available: 10,
                ..
            }
        ));
        assert_eq!(s.free_computing(QpuId::new(0)), 10);
        assert!(err.to_string().contains("11 requested"));
    }

    #[test]
    #[should_panic(expected = "released more")]
    fn double_release_panics() {
        let mut s = status3();
        s.release_computing(QpuId::new(0), 1);
    }

    #[test]
    fn transactional_allocation_rolls_back() {
        let mut s = status3();
        // Second QPU demand exceeds capacity: nothing must change.
        let err = s.allocate_all_computing(&[5, 11, 2]).unwrap_err();
        assert!(matches!(err, ResourceError::Insufficient { .. }));
        assert_eq!(s.total_free_computing(), 30);
        // A feasible demand applies atomically.
        s.allocate_all_computing(&[5, 10, 2]).unwrap();
        assert_eq!(s.total_free_computing(), 13);
        s.release_all_computing(&[5, 10, 2]);
        assert_eq!(s.total_free_computing(), 30);
    }

    #[test]
    fn max_free_computing_tracks() {
        let mut s = status3();
        s.allocate_computing(QpuId::new(0), 8).unwrap();
        assert_eq!(s.max_free_computing(), 10);
        s.allocate_computing(QpuId::new(1), 3).unwrap();
        s.allocate_computing(QpuId::new(2), 5).unwrap();
        assert_eq!(s.max_free_computing(), 7);
    }
}
