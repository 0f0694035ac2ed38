//! Incremental placement repair: one shared implementation of the
//! local moves the iterative placers use, plus a deterministic
//! [`repair`] entry point that patches a cached placement against the
//! *current* free-capacity vector instead of re-running the full
//! placement pipeline.
//!
//! # The move kernel
//!
//! [`AnnealingPlacement`] and [`GeneticPlacement`] both mutate a
//! qubit→QPU genome under per-QPU capacity constraints, and before this
//! module each carried its own copy of the bookkeeping: a load vector,
//! a free vector, and ad-hoc "move one qubit", "swap two qubits", and
//! "evict off an overloaded QPU" loops. [`MoveKernel`] owns that
//! bookkeeping once:
//!
//! * [`MoveKernel::relocate`] — move one qubit to a QPU with headroom
//!   (SA's relocate neighbourhood; capacity-checked, load-adjusting).
//! * [`MoveKernel::swap`] — exchange two qubits' QPUs (SA's swap
//!   neighbourhood; load-neutral because every qubit demands exactly
//!   one computing slot, so no capacity check is needed).
//! * [`MoveKernel::reseat`] — evict one qubit off its QPU onto the
//!   first QPU with headroom in a cyclic scan (GA's capacity repair;
//!   the scan start is the caller's — random for GA, deterministic
//!   for [`repair`]).
//!
//! Both placers are rewritten on top of the kernel, so there is exactly
//! one implementation of each move.
//!
//! # The repair tier
//!
//! [`repair`] is the middle tier of the warm placement path (see the
//! README's "Incremental placement repair"):
//!
//! ```text
//! exact cache hit  ──►  repair(cached, status)  ──►  full place()
//!      (clone)            (patch the few                (cold)
//!                          infeasible qubits)
//! ```
//!
//! Given a placement cached under a *nearby* free-capacity vector
//! and the current [`CloudStatus`], it relocates only the qubits
//! sitting on now-overloaded QPUs (ascending qubit order, cyclic
//! first-fit target scan — no RNG, so the result is a pure function of
//! its arguments, which the [`PlacementCache`] depends on). Exactness
//! is preserved by construction: the result is returned only if it
//! passes the same [`Placement::fits`] guard every cache hit is
//! re-validated with, and `None` sends the caller to the full
//! pipeline.
//!
//! Repair trades placement *quality* for latency: the patched
//! placement keeps the cached communication structure for every qubit
//! it does not touch, which is exactly the near-miss bet — the free
//! vector moved by a qubit, not the circuit.
//!
//! [`AnnealingPlacement`]: super::AnnealingPlacement
//! [`GeneticPlacement`]: super::GeneticPlacement
//! [`PlacementCache`]: super::PlacementCache

use super::Placement;
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

    /// Number of QPUs the kernel tracks.
    pub fn qpu_count(&self) -> usize {
        self.free.len()
    }

    /// Whether QPU `to` can take one more qubit.
    pub fn has_headroom(&self, to: usize) -> bool {
        self.load[to] < self.free[to]
    }

    /// Whether QPU `qpu` holds more qubits than it has free capacity.
    pub fn is_overloaded(&self, qpu: usize) -> bool {
        self.load[qpu] > self.free[qpu]
    }

    /// Whether every QPU is within its free capacity (the genome
    /// [`Placement::fits`] the ledger the kernel was built against).
    pub fn is_feasible(&self) -> bool {
        self.load.iter().zip(&self.free).all(|(&l, &f)| l <= f)
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
    /// scan starting at `start` (the GA draws `start` at random, the
    /// repair tier derives it from the overloaded QPU). Returns the new
    /// QPU, or `None` when no QPU has headroom (the genome is left
    /// untouched).
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

/// Patches `cached` against the current free-capacity ledger: every
/// qubit sitting on a now-overloaded QPU is reseated (ascending qubit
/// order; cyclic first-fit scan starting just past the overloaded QPU)
/// and the result is returned only if it passes [`Placement::fits`].
/// `None` means the caller must fall back to full `place()`.
///
/// Deterministic — no RNG, no iteration over anything but the genome —
/// so repairing the same placement against the same status always
/// yields the same result (the [`super::PlacementCache`] stores
/// repaired placements under the exact current signature and depends
/// on this).
///
/// A cached placement that still fits is returned unchanged: the
/// near-miss was capacity-harmless and the cached communication
/// structure is kept whole.
pub fn repair(cached: &Placement, status: &CloudStatus) -> Option<Placement> {
    let n = status.qpu_count();
    let genome = cached.assignment();
    // A placement from a different-shaped cloud can never be patched.
    if genome.iter().any(|q| q.index() >= n) {
        return None;
    }
    let mut genome = genome.to_vec();
    let mut kernel = MoveKernel::against(&genome, status);
    if kernel.is_feasible() {
        return Some(cached.clone());
    }
    for q in 0..genome.len() {
        let p = genome[q].index();
        if kernel.is_overloaded(p) {
            kernel.reseat(&mut genome, q, (p + 1) % n)?;
        }
    }
    let repaired = Placement::new(genome);
    debug_assert!(repaired.fits(status), "reseat cleared every overload");
    repaired.fits(status).then_some(repaired)
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
        assert!(kernel.is_feasible());
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
        assert!(kernel.is_feasible());
        // Nothing has headroom any more.
        let mut full = MoveKernel::new(&genome, vec![2, 0, 1]);
        assert_eq!(full.reseat(&mut genome, 0, 0), None);
        assert_eq!(genome, ids(&[0, 0, 2]), "failed reseat leaves the genome");
    }

    #[test]
    fn repair_returns_still_fitting_placements_unchanged() {
        let cached = Placement::new(ids(&[0, 0, 1]));
        let status = CloudStatus::new(vec![2, 2], vec![1, 1]);
        let repaired = repair(&cached, &status).expect("fits already");
        assert_eq!(repaired, cached);
    }

    #[test]
    fn repair_patches_only_the_overloaded_qpus() {
        // QPU 0 lost a qubit since the placement was cached: exactly
        // one of its two qubits must move, the QPU-1 qubit must not.
        let cached = Placement::new(ids(&[0, 0, 1]));
        let status = CloudStatus::new(vec![1, 2], vec![1, 1]);
        let repaired = repair(&cached, &status).expect("repairable");
        assert!(repaired.fits(&status));
        assert_eq!(repaired.qpu_of(2), QpuId::new(1), "untouched assignment");
        assert_eq!(repaired.qpu_demand(2), vec![1, 2]);
        // Deterministic: same inputs, same patch.
        assert_eq!(repair(&cached, &status), Some(repaired));
    }

    #[test]
    fn repair_fails_when_no_headroom_remains() {
        let cached = Placement::new(ids(&[0, 0, 1]));
        let status = CloudStatus::new(vec![1, 1], vec![1, 1]);
        assert_eq!(repair(&cached, &status), None);
    }

    #[test]
    fn repair_rejects_foreign_cloud_shapes() {
        let cached = Placement::new(ids(&[0, 3]));
        let status = CloudStatus::new(vec![4, 4], vec![1, 1]);
        assert_eq!(repair(&cached, &status), None);
    }

    #[test]
    fn repair_of_empty_placement_is_trivial() {
        let cached = Placement::new(Vec::new());
        let status = CloudStatus::new(vec![1], vec![1]);
        assert_eq!(repair(&cached, &status), Some(cached));
    }
}
