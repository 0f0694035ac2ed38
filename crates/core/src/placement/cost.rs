//! Placement cost metrics (paper §IV.B).
//!
//! * Communication cost `Σ_ij D_ij · C_π(i)π(j)` (objective 1, Eq. 1) —
//!   every two-qubit gate between qubits on different QPUs pays the hop
//!   distance between those QPUs.
//! * Remote-operation count — Table III's metric (`C_ij ≡ 1`).
//! * Per-QPU remote operations `R(V_j)` (Eq. 7), constrained by ε
//!   (Eq. 6).
//!
//! Algorithm 1's sweep reads the cost and `R(V_j)` of a partitioning's
//! injective part → QPU map off the part interaction graph, whose edge
//! weights count the two-qubit gates crossing each part pair. Every
//! term is an integer, and integer sums below 2⁵³ are exact in `f64`,
//! so `part_communication_cost` has the bits of
//! [`communication_cost`] on the expanded placement, and is at least
//! `part_crossing_gates`, the same sum at one hop per gate.

use super::Placement;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, QpuId};
use cloudqc_graph::Graph;

/// Total communication cost of a placement: for each two-qubit gate
/// whose endpoints sit on different QPUs, add the hop distance between
/// those QPUs (unreachable pairs cost `qpu_count`, strictly worse than
/// any path).
///
/// # Panics
///
/// Panics if the placement is narrower than the circuit.
pub fn communication_cost(circuit: &Circuit, placement: &Placement, cloud: &Cloud) -> f64 {
    assert!(
        placement.num_qubits() >= circuit.num_qubits(),
        "placement narrower than circuit"
    );
    let mut cost = 0.0;
    for (_, a, b) in circuit.two_qubit_gates() {
        let (pa, pb) = (placement.qpu_of(a.index()), placement.qpu_of(b.index()));
        if pa != pb {
            cost += cloud.distance_or_max(pa, pb) as f64;
        }
    }
    cost
}

/// Number of remote operations: two-qubit gates whose endpoints are on
/// different QPUs. This is the single-circuit metric of Table III.
///
/// # Panics
///
/// Panics if the placement is narrower than the circuit.
pub fn remote_op_count(circuit: &Circuit, placement: &Placement) -> usize {
    assert!(
        placement.num_qubits() >= circuit.num_qubits(),
        "placement narrower than circuit"
    );
    circuit
        .two_qubit_gates()
        .filter(|&(_, a, b)| placement.qpu_of(a.index()) != placement.qpu_of(b.index()))
        .count()
}

/// Remote operations borne by each QPU — `R(V_j)` of Eq. 7: a remote
/// gate counts against both of its endpoint QPUs.
///
/// # Panics
///
/// Panics if the placement is narrower than the circuit.
pub fn remote_ops_per_qpu(
    circuit: &Circuit,
    placement: &Placement,
    qpu_count: usize,
) -> Vec<usize> {
    assert!(
        placement.num_qubits() >= circuit.num_qubits(),
        "placement narrower than circuit"
    );
    let mut per_qpu = vec![0usize; qpu_count];
    for (_, a, b) in circuit.two_qubit_gates() {
        let (pa, pb) = (placement.qpu_of(a.index()), placement.qpu_of(b.index()));
        if pa != pb {
            per_qpu[pa.index()] += 1;
            per_qpu[pb.index()] += 1;
        }
    }
    per_qpu
}

/// [`communication_cost`] of the placement that puts part `p` on
/// `part_to_qpu[p]`, from the part interaction graph: Σ over part pairs
/// of crossing gates × hops.
///
/// # Panics
///
/// Panics if a part of `part_graph` has no QPU in `part_to_qpu`.
pub(crate) fn part_communication_cost(
    part_graph: &Graph,
    part_to_qpu: &[QpuId],
    cloud: &Cloud,
) -> f64 {
    let mut cost = 0.0;
    for (u, v, gates) in part_graph.edges() {
        cost += gates * cloud.distance_or_max(part_to_qpu[u], part_to_qpu[v]) as f64;
    }
    cost
}

/// The two-qubit gates crossing parts: the sum of `part_graph`'s edge
/// weights, and [`remote_op_count`] of every injective part → QPU map.
/// Each crossing gate pays at least one hop in
/// [`part_communication_cost`], which sums the same integer terms times
/// hops ≥ 1, so no such map's cost is below it.
pub(crate) fn part_crossing_gates(part_graph: &Graph) -> f64 {
    let mut gates = 0.0;
    for (_, _, weight) in part_graph.edges() {
        gates += weight;
    }
    gates
}

/// [`remote_ops_per_qpu`] of the placement that puts part `p` on
/// `part_to_qpu[p]`, for an injective map: each part's crossing gates
/// land on its own QPU.
///
/// # Panics
///
/// Panics if a part of `part_graph` has no QPU in `part_to_qpu`, or a
/// QPU is `>= qpu_count`.
pub(crate) fn part_remote_ops_per_qpu(
    part_graph: &Graph,
    part_to_qpu: &[QpuId],
    qpu_count: usize,
) -> Vec<usize> {
    let mut per_qpu = vec![0usize; qpu_count];
    for part in part_graph.nodes() {
        per_qpu[part_to_qpu[part].index()] += part_graph.weighted_degree(part) as usize;
    }
    per_qpu
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_cloud::{CloudBuilder, QpuId};

    fn line_cloud() -> Cloud {
        CloudBuilder::new(4).line_topology().build()
    }

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        c
    }

    #[test]
    fn local_placement_costs_nothing() {
        let c = chain_circuit();
        let p = Placement::new(vec![QpuId::new(2); 4]);
        assert_eq!(communication_cost(&c, &p, &line_cloud()), 0.0);
        assert_eq!(remote_op_count(&c, &p), 0);
    }

    #[test]
    fn cost_weights_by_distance() {
        let c = chain_circuit();
        // Qubits 0,1 on QPU0; qubit 2 on QPU1; qubit 3 on QPU3.
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(3),
        ]);
        // cx(1,2): QPU0-QPU1 distance 1. cx(2,3): QPU1-QPU3 distance 2.
        assert_eq!(communication_cost(&c, &p, &line_cloud()), 3.0);
        assert_eq!(remote_op_count(&c, &p), 2);
    }

    #[test]
    fn per_qpu_counts_both_endpoints() {
        let c = chain_circuit();
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(1),
            QpuId::new(2),
        ]);
        // Remote: cx(0,1) QPU0-QPU1, cx(2,3) QPU1-QPU2.
        assert_eq!(remote_ops_per_qpu(&c, &p, 4), vec![1, 2, 1, 0]);
    }

    #[test]
    fn repeated_gates_accumulate() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1).cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(3)]);
        assert_eq!(remote_op_count(&c, &p), 3);
        assert_eq!(communication_cost(&c, &p, &line_cloud()), 9.0);
    }
}
