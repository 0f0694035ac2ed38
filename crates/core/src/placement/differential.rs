//! Differential proptests of what Algorithm 1's sweep reads from tables
//! and at the part level, against the functions it no longer calls:
//! the cloud's placement tables against `graph_center_among`,
//! `bfs_order` and the per-gate price the estimate used to compute, and
//! the part-level `(T, C, R(V_j))` against `estimate_execution_time`,
//! `communication_cost` and `remote_ops_per_qpu` on the expanded
//! placement. Floats are compared with `to_bits`.

use super::cost::{
    communication_cost, part_communication_cost, part_remote_ops_per_qpu, remote_ops_per_qpu,
};
use super::estimate::{estimate_execution_time, part_execution_time};
use super::Placement;
use cloudqc_circuit::interaction::partition_interaction_graph;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, EprModel, LatencyModel, Qpu, QpuId};
use cloudqc_graph::center::graph_center_among;
use cloudqc_graph::traversal::bfs_order;
use cloudqc_graph::Graph;
use proptest::prelude::*;

const MAX_QPUS: usize = 7;
const MAX_QUBITS: usize = 10;

/// A cloud from [`Cloud::from_parts`]: 1–7 QPUs joined by random links
/// added in random order (so some topologies are disconnected and some
/// QPUs isolated), communication capacities from 0 to 6, random
/// latencies, and EPR rounds that are certain, ordinary, or never
/// succeed in `f64` (`p = 1e-300`, infinite expected rounds).
fn cloud_strategy() -> impl Strategy<Value = Cloud> {
    (1..=MAX_QPUS)
        .prop_flat_map(|n| {
            (
                prop::collection::vec((0..n, 0..n), 0..2 * n),
                prop::collection::vec((1usize..30, 0usize..7), n),
                prop_oneof![Just(0.3), Just(1.0), Just(1e-300), 0.01f64..1.0],
                (1u64..5, 1u64..20, 1u64..60, 1u64..120),
            )
        })
        .prop_map(|(links, qpus, p, (t1, t2, measure, epr))| {
            let mut topology = Graph::new(qpus.len());
            for (u, v) in links.into_iter().filter(|(u, v)| u != v) {
                topology.add_edge(u, v, 1.0);
            }
            Cloud::from_parts(
                qpus.into_iter().map(|(c, m)| Qpu::new(c, m)).collect(),
                topology,
                LatencyModel::new(t1, t2, measure, epr),
                EprModel::new(p),
            )
        })
}

/// The per-gate price the estimate computed before the cloud tabulated
/// it.
fn gate_ticks_reference(cloud: &Cloud, a: QpuId, b: QpuId) -> f64 {
    let latency = cloud.latency();
    if a == b {
        return latency.two_qubit() as f64;
    }
    let hops = cloud.distance_or_max(a, b) as f64;
    let cap = cloud
        .qpu(a)
        .communication_qubits()
        .min(cloud.qpu(b).communication_qubits());
    let fair_pairs = (cap / 2).max(1);
    let rounds = cloud.epr().expected_rounds(fair_pairs);
    hops * rounds * latency.epr_attempt() as f64 + latency.remote_gate_completion() as f64
}

/// A circuit of `num_qubits` qubits: op `(a, b, 0)` is `h a`, `(a, b, 1)`
/// measures `a`, and the rest are `cx a, b` (skipped when `a == b`).
fn circuit(num_qubits: usize, ops: &[(usize, usize, u8)]) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for &(a, b, kind) in ops {
        let (a, b) = (a % num_qubits, b % num_qubits);
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.measure(a);
            }
            _ if a != b => {
                c.cx(a, b);
            }
            _ => {}
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_center_is_graph_center_among(
        cloud in cloud_strategy(),
        candidates in prop::collection::vec(0..MAX_QPUS + 3, 0..12),
    ) {
        prop_assert_eq!(
            cloud.center_among(candidates.iter().copied()),
            graph_center_among(cloud.topology(), candidates)
        );
    }

    #[test]
    fn table_bfs_orders_and_gate_ticks_match_their_references(cloud in cloud_strategy()) {
        for u in 0..cloud.qpu_count() {
            prop_assert_eq!(cloud.bfs_order(u), &bfs_order(cloud.topology(), u)[..]);
        }
        for a in (0..cloud.qpu_count()).map(QpuId::new) {
            for b in (0..cloud.qpu_count()).map(QpuId::new) {
                let got = cloud.expected_gate_ticks(a, b);
                let want = gate_ticks_reference(&cloud, a, b);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} {}: {} vs {}", a, b, got, want);
            }
        }
    }

    #[test]
    fn part_level_scoring_matches_the_expanded_placement(
        cloud in cloud_strategy(),
        num_qubits in 1..=MAX_QUBITS,
        ops in prop::collection::vec((0..MAX_QUBITS, 0..MAX_QUBITS, 0u8..5), 0..60),
        parts in 1..=MAX_QPUS,
        part_of in prop::collection::vec(0..MAX_QPUS, MAX_QUBITS),
        qpu_keys in prop::collection::vec(any::<u32>(), MAX_QPUS),
    ) {
        let n = cloud.qpu_count();
        let parts = parts.min(n);
        let circuit = circuit(num_qubits, &ops);
        let assignment: Vec<usize> = part_of[..num_qubits].iter().map(|p| p % parts).collect();
        // An injective part → QPU map: the QPUs ordered by random keys.
        let mut qpus: Vec<usize> = (0..n).collect();
        qpus.sort_by_key(|&q| qpu_keys[q]);
        let part_to_qpu: Vec<QpuId> = qpus[..parts].iter().map(|&q| QpuId::new(q)).collect();
        let part_graph = partition_interaction_graph(&circuit, &assignment, parts);
        let expanded = Placement::from_parts(&assignment, &part_to_qpu);

        let time = part_execution_time(&circuit, &assignment, &part_to_qpu, &cloud);
        let want = estimate_execution_time(&circuit, &expanded, &cloud);
        prop_assert_eq!(time.to_bits(), want.to_bits(), "T {} vs {}", time, want);
        let cost = part_communication_cost(&part_graph, &part_to_qpu, &cloud);
        let want = communication_cost(&circuit, &expanded, &cloud);
        prop_assert_eq!(cost.to_bits(), want.to_bits(), "C {} vs {}", cost, want);
        prop_assert_eq!(
            part_remote_ops_per_qpu(&part_graph, &part_to_qpu, n),
            remote_ops_per_qpu(&circuit, &expanded, n)
        );
    }
}
