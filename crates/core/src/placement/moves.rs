//! One shared implementation of the local moves the iterative placers
//! use.
//!
//! [`AnnealingPlacement`] and [`GeneticPlacement`] both mutate a
//! qubit→QPU genome under per-QPU capacity constraints. [`MoveKernel`]
//! owns the bookkeeping they share, a load vector and a free vector,
//! and the three moves:
//!
//! * [`MoveKernel::relocate`] — move one qubit to a QPU with headroom
//!   (SA's relocate neighbourhood; capacity-checked, load-adjusting).
//! * [`MoveKernel::swap`] — exchange two qubits' QPUs (SA's swap
//!   neighbourhood; load-neutral because every qubit demands exactly
//!   one computing slot, so no capacity check is needed).
//! * [`MoveKernel::reseat`] — evict one qubit off its QPU onto the
//!   first QPU with headroom in a cyclic scan (GA's capacity repair,
//!   from a random scan start).
//!
//! [`AnnealingPlacement`]: super::AnnealingPlacement
//! [`GeneticPlacement`]: super::GeneticPlacement

use cloudqc_cloud::{CloudStatus, QpuId};

/// Capacity bookkeeping for local moves over a qubit→QPU genome: the
/// per-QPU load implied by the genome and the per-QPU free computing
/// capacity the moves must respect.
///
/// The kernel never touches an RNG and never reads the genome except
/// through the slots the caller names, so every move is deterministic
/// and O(1) (plus the caller's own cost bookkeeping).
#[derive(Clone, Debug)]
pub struct MoveKernel {
    /// `load[i]` = qubits the genome currently assigns to QPU `i`.
    load: Vec<usize>,
    /// `free[i]` = free computing qubits on QPU `i`.
    free: Vec<usize>,
}

impl MoveKernel {
    /// A kernel over `genome` with an explicit free-capacity vector.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the genome names a QPU outside
    /// `free`'s range.
    pub fn new(genome: &[QpuId], free: Vec<usize>) -> Self {
        let mut load = vec![0usize; free.len()];
        for q in genome {
            load[q.index()] += 1;
        }
        MoveKernel { load, free }
    }

    /// A kernel over `genome` against a live capacity ledger.
    pub fn against(genome: &[QpuId], status: &CloudStatus) -> Self {
        let free: Vec<usize> = (0..status.qpu_count())
            .map(|i| status.free_computing(QpuId::new(i)))
            .collect();
        Self::new(genome, free)
    }

    /// Whether QPU `to` can take one more qubit.
    pub fn has_headroom(&self, to: usize) -> bool {
        self.load[to] < self.free[to]
    }

    /// Whether QPU `qpu` holds more qubits than it has free capacity.
    pub fn is_overloaded(&self, qpu: usize) -> bool {
        self.load[qpu] > self.free[qpu]
    }

    /// Moves qubit `q` to QPU `to` if `to` has headroom; returns
    /// whether the move happened. A relocation *back* to a QPU a qubit
    /// just left always succeeds from a feasible state (leaving freed
    /// the slot), so accept/revert loops need no unchecked variant.
    pub fn relocate(&mut self, genome: &mut [QpuId], q: usize, to: usize) -> bool {
        let from = genome[q].index();
        if from == to || !self.has_headroom(to) {
            return false;
        }
        self.load[from] -= 1;
        self.load[to] += 1;
        genome[q] = QpuId::new(to);
        true
    }

    /// Exchanges the QPUs of qubits `q1` and `q2`. Load-neutral (every
    /// qubit demands exactly one computing slot), so a swap never needs
    /// a capacity check and is its own inverse.
    pub fn swap(&self, genome: &mut [QpuId], q1: usize, q2: usize) {
        genome.swap(q1, q2);
    }

    /// Evicts qubit `q` onto the first QPU with headroom in a cyclic
    /// scan starting at `start` (the GA draws `start` at random).
    /// Returns the new QPU, or `None` when no QPU has headroom (the
    /// genome is left untouched).
    pub fn reseat(&mut self, genome: &mut [QpuId], q: usize, start: usize) -> Option<QpuId> {
        let n = self.free.len();
        let target = (0..n)
            .cycle()
            .skip(start)
            .take(n)
            .find(|&t| self.has_headroom(t))?;
        let from = genome[q].index();
        self.load[from] -= 1;
        self.load[target] += 1;
        genome[q] = QpuId::new(target);
        Some(QpuId::new(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[usize]) -> Vec<QpuId> {
        raw.iter().map(|&i| QpuId::new(i)).collect()
    }

    #[test]
    fn relocate_checks_headroom_and_moves_load() {
        let mut genome = ids(&[0, 0, 1]);
        let mut kernel = MoveKernel::new(&genome, vec![2, 2, 1]);
        assert!(!kernel.relocate(&mut genome, 0, 0), "no-op move refused");
        assert!(kernel.relocate(&mut genome, 0, 2));
        assert_eq!(genome, ids(&[2, 0, 1]));
        assert!(!kernel.has_headroom(2), "QPU 2 is now full");
        assert!(!kernel.relocate(&mut genome, 1, 2), "full QPU refused");
        // Reverting to the vacated QPU always succeeds.
        assert!(kernel.relocate(&mut genome, 0, 0));
        assert_eq!(genome, ids(&[0, 0, 1]));
    }

    #[test]
    fn swap_is_load_neutral_and_self_inverse() {
        let mut genome = ids(&[0, 1]);
        let kernel = MoveKernel::new(&genome, vec![1, 1]);
        kernel.swap(&mut genome, 0, 1);
        assert_eq!(genome, ids(&[1, 0]));
        assert!(!kernel.is_overloaded(0) && !kernel.is_overloaded(1));
        kernel.swap(&mut genome, 0, 1);
        assert_eq!(genome, ids(&[0, 1]));
    }

    #[test]
    fn reseat_scans_cyclically_from_start() {
        let mut genome = ids(&[0, 0, 0]);
        let mut kernel = MoveKernel::new(&genome, vec![2, 0, 1]);
        assert!(kernel.is_overloaded(0));
        // Start at 1: QPU 1 is full, the scan wraps to 2.
        assert_eq!(kernel.reseat(&mut genome, 2, 1), Some(QpuId::new(2)));
        assert_eq!(genome, ids(&[0, 0, 2]));
        assert!((0..3).all(|qpu| !kernel.is_overloaded(qpu)));
        // Nothing has headroom any more.
        let mut full = MoveKernel::new(&genome, vec![2, 0, 1]);
        assert_eq!(full.reseat(&mut genome, 0, 0), None);
        assert_eq!(genome, ids(&[0, 0, 2]), "failed reseat leaves the genome");
    }
}
