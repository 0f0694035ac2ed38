//! The simulated-annealing baseline (paper §VI.B, after Mao et al.,
//! INFOCOM 2023: "a hybrid simulated annealing algorithm to determine
//! the qubits allocation in distributed quantum computing").

use super::cost::communication_cost;
use super::moves::MoveKernel;
use super::random::RandomPlacement;
use super::{check_total_capacity, Placement, PlacementAlgorithm};
use crate::error::PlacementError;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Simulated annealing over qubit→QPU assignments.
///
/// * State: a capacity-feasible assignment (seeded by
///   [`RandomPlacement`]).
/// * Neighbourhood: move one qubit to a QPU with free space, or swap two
///   qubits across QPUs.
/// * Objective: the communication cost `Σ D_ij · C_π(i)π(j)`.
/// * Schedule: geometric cooling, Metropolis acceptance.
#[derive(Clone, Debug)]
pub struct AnnealingPlacement {
    /// Number of annealing iterations.
    pub iterations: usize,
    /// Initial temperature (in cost units).
    pub initial_temperature: f64,
    /// Geometric cooling rate per iteration.
    pub cooling: f64,
}

impl Default for AnnealingPlacement {
    fn default() -> Self {
        AnnealingPlacement {
            iterations: 20_000,
            initial_temperature: 50.0,
            cooling: 0.9995,
        }
    }
}

impl PlacementAlgorithm for AnnealingPlacement {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        check_total_capacity(circuit, status)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let size = circuit.num_qubits();
        let n = cloud.qpu_count();

        let initial = RandomPlacement.place(circuit, cloud, status, seed)?;
        let mut assignment: Vec<QpuId> = initial.assignment().to_vec();
        // All capacity bookkeeping lives in the shared move kernel; the
        // annealer only proposes, scores, and accepts.
        let mut kernel = MoveKernel::against(&assignment, status);

        let mut current_cost = communication_cost(circuit, &initial, cloud);
        let mut best = assignment.clone();
        let mut best_cost = current_cost;
        let mut temperature = self.initial_temperature;

        // Incremental cost of reassigning qubit q from its current QPU to
        // `to`: recompute only gates touching q.
        let gates: Vec<(usize, usize)> = circuit
            .two_qubit_gates()
            .map(|(_, a, b)| (a.index(), b.index()))
            .collect();
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); size];
        for (gi, &(a, b)) in gates.iter().enumerate() {
            touching[a].push(gi);
            touching[b].push(gi);
        }
        let gate_cost = |assignment: &[QpuId], gi: usize| -> f64 {
            let (a, b) = gates[gi];
            let (pa, pb) = (assignment[a], assignment[b]);
            if pa == pb {
                0.0
            } else {
                cloud.distance_or_max(pa, pb) as f64
            }
        };

        for _ in 0..self.iterations {
            // Propose: 50% move, 50% swap.
            let (q1, q2_or_target, is_swap) = if rng.random_bool(0.5) {
                let q1 = rng.random_range(0..size);
                let q2 = rng.random_range(0..size);
                if q1 == q2 || assignment[q1] == assignment[q2] {
                    temperature *= self.cooling;
                    continue;
                }
                (q1, q2, true)
            } else {
                let q1 = rng.random_range(0..size);
                let to = rng.random_range(0..n);
                if assignment[q1].index() == to || !kernel.has_headroom(to) {
                    temperature *= self.cooling;
                    continue;
                }
                (q1, to, false)
            };

            // Delta cost over affected gates only.
            let affected: Vec<usize> = if is_swap {
                let mut v = touching[q1].clone();
                v.extend(&touching[q2_or_target]);
                v.sort_unstable();
                v.dedup();
                v
            } else {
                touching[q1].clone()
            };
            let before: f64 = affected.iter().map(|&gi| gate_cost(&assignment, gi)).sum();
            // Apply through the kernel: a swap is its own inverse, and
            // relocating back to the just-vacated QPU always succeeds,
            // so a rejected proposal reverts through the same moves.
            let from = assignment[q1].index();
            if is_swap {
                kernel.swap(&mut assignment, q1, q2_or_target);
            } else {
                let moved = kernel.relocate(&mut assignment, q1, q2_or_target);
                debug_assert!(moved, "headroom was checked before proposing");
            }
            let after: f64 = affected.iter().map(|&gi| gate_cost(&assignment, gi)).sum();
            let delta = after - before;

            let accept = delta <= 0.0
                || (temperature > 1e-9 && rng.random_bool((-delta / temperature).exp().min(1.0)));
            if accept {
                current_cost += delta;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = assignment.clone();
                }
            } else if is_swap {
                kernel.swap(&mut assignment, q1, q2_or_target);
            } else {
                let reverted = kernel.relocate(&mut assignment, q1, from);
                debug_assert!(reverted, "the vacated QPU has headroom");
            }
            temperature *= self.cooling;
        }
        Ok(Placement::new(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::cost::remote_op_count;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    #[test]
    fn improves_over_random() {
        let cloud = CloudBuilder::paper_default(7).build();
        let circuit = catalog::by_name("cat_n65").unwrap();
        let status = cloud.status();
        let random = RandomPlacement.place(&circuit, &cloud, &status, 3).unwrap();
        let sa = AnnealingPlacement {
            iterations: 5_000,
            ..AnnealingPlacement::default()
        }
        .place(&circuit, &cloud, &status, 3)
        .unwrap();
        let c_random = communication_cost(&circuit, &random, &cloud);
        let c_sa = communication_cost(&circuit, &sa, &cloud);
        assert!(c_sa < c_random, "SA {c_sa} vs random {c_random}");
    }

    #[test]
    fn placement_stays_feasible() {
        let cloud = CloudBuilder::paper_default(8).build();
        let circuit = catalog::by_name("knn_n67").unwrap();
        let status = cloud.status();
        let p = AnnealingPlacement {
            iterations: 2_000,
            ..AnnealingPlacement::default()
        }
        .place(&circuit, &cloud, &status, 5)
        .unwrap();
        assert!(p.fits(&status));
        assert!(remote_op_count(&circuit, &p) > 0); // 67 qubits can't be local
    }

    #[test]
    fn deterministic_for_seed() {
        let cloud = CloudBuilder::paper_default(9).build();
        let circuit = catalog::by_name("bv_n70").unwrap();
        let algo = AnnealingPlacement {
            iterations: 1_000,
            ..AnnealingPlacement::default()
        };
        let a = algo.place(&circuit, &cloud, &cloud.status(), 2).unwrap();
        let b = algo.place(&circuit, &cloud, &cloud.status(), 2).unwrap();
        assert_eq!(a, b);
    }
}
