//! Execution time estimation for placement scoring.
//!
//! Algorithm 1 scores each candidate placement by `S = α/T + β/C` where
//! `T` is "the estimated running time of the quantum circuit". We
//! estimate `T` as the weighted critical path of the gate dependency
//! DAG: local gates cost their Table I latency; remote gates
//! additionally pay the *expected* EPR generation latency given a fair
//! share of communication qubits.
//!
//! The DAG is never built. Its only edges run from the previous gate on
//! an operand qubit, so gate order is already a topological order, and
//! one pass that keeps each qubit's latest finish time computes the same
//! critical path: a gate starts at the latest finish among its operands
//! and finishes `cost` later. The operands are folded with the same
//! `>` comparison [`DiGraph::weighted_critical_path`] uses, so the
//! result has the same `f64` bits, infinite costs included.
//!
//! A gate's price depends only on the QPU pair it spans, so the cloud
//! tabulates it ([`Cloud::expected_gate_ticks`]). Algorithm 1's sweep
//! prices a partitioning's part → QPU map without expanding it to
//! qubits: `part_execution_time` runs the same walk over a part-pair
//! table of those prices. No price is below the local CX latency, so
//! `execution_time_floor`, the walk at that price, bounds every
//! placement's `T` from below.
//!
//! [`DiGraph::weighted_critical_path`]: cloudqc_graph::DiGraph::weighted_critical_path

use super::Placement;
use cloudqc_circuit::{Circuit, Gate, GateKind};
use cloudqc_cloud::{Cloud, LatencyModel, QpuId};

/// Estimated execution time of `circuit` under `placement`, in ticks.
///
/// Each two-qubit gate costs [`Cloud::expected_gate_ticks`] of its
/// operands' QPUs: the CX latency on one QPU, else
/// `hops · E[rounds | fair pairs] · t_ep + t_2q + t_measure + t_1q`,
/// with the fair share being half the smaller endpoint's communication
/// capacity (at least 1).
///
/// # Panics
///
/// Panics if the placement is narrower than the circuit.
pub fn estimate_execution_time(circuit: &Circuit, placement: &Placement, cloud: &Cloud) -> f64 {
    assert!(
        placement.num_qubits() >= circuit.num_qubits(),
        "placement narrower than circuit"
    );
    let qpu = placement.assignment();
    critical_path(circuit, cloud.latency(), |a, b| {
        cloud.expected_gate_ticks(qpu[a], qpu[b])
    })
}

/// [`estimate_execution_time`] of the placement that puts qubit `q` on
/// `part_to_qpu[assignment[q]]`, with each two-qubit gate priced from a
/// part-pair table of [`Cloud::expected_gate_ticks`]. The walk and the
/// per-gate values are the same, so the result has the same bits.
///
/// # Panics
///
/// Panics if `assignment` is narrower than the circuit or names a part
/// without a QPU.
pub(crate) fn part_execution_time(
    circuit: &Circuit,
    assignment: &[usize],
    part_to_qpu: &[QpuId],
    cloud: &Cloud,
) -> f64 {
    let parts = part_to_qpu.len();
    let ticks: Vec<f64> = part_to_qpu
        .iter()
        .flat_map(|&a| {
            part_to_qpu
                .iter()
                .map(move |&b| cloud.expected_gate_ticks(a, b))
        })
        .collect();
    critical_path(circuit, cloud.latency(), |a, b| {
        ticks[assignment[a] * parts + assignment[b]]
    })
}

/// The least [`estimate_execution_time`] of `circuit` under any
/// placement: the same walk with every two-qubit gate priced at the CX
/// latency, the price of a gate on one QPU. A remote gate's price is at
/// least the remote completion latency, which exceeds it, and the walk's
/// `+` and `max` are monotone in every price.
pub(crate) fn execution_time_floor(circuit: &Circuit, latency: &LatencyModel) -> f64 {
    let cx = latency.two_qubit() as f64;
    critical_path(circuit, latency, |_, _| cx)
}

/// The weighted critical path of `circuit`'s gate DAG, with two-qubit
/// gates on qubits `(a, b)` costing `pair_ticks(a, b)`.
fn critical_path(
    circuit: &Circuit,
    latency: &LatencyModel,
    pair_ticks: impl Fn(usize, usize) -> f64,
) -> f64 {
    let mut finish = vec![0.0f64; circuit.num_qubits()];
    let mut overall: f64 = 0.0;
    for gate in circuit.gates() {
        let q0 = gate.qubit0().index();
        let q1 = gate.qubit1().map(|q| q.index());
        let mut start = 0.0f64;
        for q in std::iter::once(q0).chain(q1) {
            if finish[q] > start {
                start = finish[q];
            }
        }
        let end = start + gate_cost(gate, latency, &pair_ticks);
        overall = overall.max(end);
        finish[q0] = end;
        if let Some(q1) = q1 {
            finish[q1] = end;
        }
    }
    overall
}

/// Estimated latency of one gate, in ticks.
fn gate_cost(gate: &Gate, latency: &LatencyModel, pair_ticks: impl Fn(usize, usize) -> f64) -> f64 {
    match gate.qubit_pair() {
        Some((a, b)) => pair_ticks(a.index(), b.index()),
        None if gate.kind() == GateKind::Measure => latency.measure() as f64,
        None => latency.single_qubit() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_cloud::{CloudBuilder, QpuId};

    fn cloud() -> Cloud {
        CloudBuilder::new(3).line_topology().build()
    }

    fn two_gate_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c
    }

    #[test]
    fn local_placement_is_cheap() {
        let c = two_gate_circuit();
        let local = Placement::new(vec![QpuId::new(0); 2]);
        let t = estimate_execution_time(&c, &local, &cloud());
        // h (1) + cx (10).
        assert_eq!(t, 11.0);
    }

    #[test]
    fn remote_placement_is_much_more_expensive() {
        let c = two_gate_circuit();
        let cloud = cloud();
        let local = Placement::new(vec![QpuId::new(0); 2]);
        let remote = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let t_local = estimate_execution_time(&c, &local, &cloud);
        let t_remote = estimate_execution_time(&c, &remote, &cloud);
        assert!(
            t_remote > 10.0 * t_local,
            "local {t_local}, remote {t_remote}"
        );
    }

    #[test]
    fn distance_increases_estimate() {
        let c = two_gate_circuit();
        let cloud = cloud();
        let near = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
        let far = Placement::new(vec![QpuId::new(0), QpuId::new(2)]);
        assert!(
            estimate_execution_time(&c, &far, &cloud) > estimate_execution_time(&c, &near, &cloud)
        );
    }

    #[test]
    fn parallel_gates_do_not_stack() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3); // independent: same critical path as one gate
        let p = Placement::new(vec![QpuId::new(0); 4]);
        assert_eq!(estimate_execution_time(&c, &p, &cloud()), 10.0);
    }

    #[test]
    fn measurement_latency_counted() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let p = Placement::new(vec![QpuId::new(0)]);
        assert_eq!(estimate_execution_time(&c, &p, &cloud()), 50.0);
    }

    /// The single pass against the reference it replaces: the gate
    /// DAG's weighted critical path over the same per-gate costs.
    mod matches_gate_dag_critical_path {
        use super::super::{estimate_execution_time, gate_cost};
        use crate::placement::Placement;
        use cloudqc_circuit::dag::gate_dag;
        use cloudqc_circuit::Circuit;
        use cloudqc_cloud::{Cloud, CloudBuilder, QpuId};
        use proptest::prelude::*;

        const MAX_QUBITS: usize = 10;
        const QPUS: usize = 4;

        /// One gate; operands are reduced modulo the qubit count.
        #[derive(Debug, Clone)]
        enum Op {
            Single(u8),
            Measure(u8),
            Pair(u8, u8),
            /// The previous two-qubit gate's operands again.
            RepeatPair,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                2 => any::<u8>().prop_map(Op::Single),
                1 => any::<u8>().prop_map(Op::Measure),
                3 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Pair(a, b)),
                1 => Just(Op::RepeatPair),
            ]
        }

        fn build(num_qubits: usize, ops: &[Op]) -> Circuit {
            let mut c = Circuit::new(num_qubits);
            let mut last_pair = None;
            for op in ops {
                match *op {
                    Op::Single(q) => {
                        c.h(q as usize % num_qubits);
                    }
                    Op::Measure(q) => {
                        c.measure(q as usize % num_qubits);
                    }
                    Op::Pair(a, b) => {
                        let (a, b) = (a as usize % num_qubits, b as usize % num_qubits);
                        if a != b {
                            c.cx(a, b);
                            last_pair = Some((a, b));
                        }
                    }
                    Op::RepeatPair => {
                        if let Some((a, b)) = last_pair {
                            c.cz(a, b);
                        }
                    }
                }
            }
            c
        }

        fn reference(circuit: &Circuit, placement: &Placement, cloud: &Cloud) -> f64 {
            let qpu = placement.assignment();
            let pair_ticks = |a: usize, b: usize| cloud.expected_gate_ticks(qpu[a], qpu[b]);
            let costs: Vec<f64> = circuit
                .gates()
                .iter()
                .map(|g| gate_cost(g, cloud.latency(), pair_ticks))
                .collect();
            gate_dag(circuit).weighted_critical_path(&costs)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn same_bits_as_the_dag_walk(
                num_qubits in 1..=MAX_QUBITS,
                ops in prop::collection::vec(op_strategy(), 0..60),
                qpus in prop::collection::vec(0..QPUS, MAX_QUBITS),
                infinite_rounds in any::<bool>(),
            ) {
                let builder = CloudBuilder::new(QPUS);
                // At p = 1e-300 a round never succeeds in f64, so every
                // remote gate's expected rounds, and its cost, are ∞.
                let cloud = if infinite_rounds {
                    builder.epr_success_prob(1e-300).build()
                } else {
                    builder.build()
                };
                let circuit = build(num_qubits, &ops);
                let placement = Placement::new(qpus.into_iter().map(QpuId::new).collect());
                let got = estimate_execution_time(&circuit, &placement, &cloud);
                let want = reference(&circuit, &placement, &cloud);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
            }
        }

        #[test]
        fn empty_circuit_and_infinite_costs_agree() {
            let cloud = CloudBuilder::new(QPUS).epr_success_prob(1e-300).build();
            let placement = Placement::new(vec![QpuId::new(0), QpuId::new(1)]);
            let empty = Circuit::new(2);
            assert_eq!(estimate_execution_time(&empty, &placement, &cloud), 0.0);
            assert_eq!(reference(&empty, &placement, &cloud), 0.0);
            let mut remote = Circuit::new(2);
            remote.h(0).cx(0, 1).measure(1);
            let t = estimate_execution_time(&remote, &placement, &cloud);
            assert_eq!(t, f64::INFINITY);
            assert_eq!(
                t.to_bits(),
                reference(&remote, &placement, &cloud).to_bits()
            );
        }
    }
}
