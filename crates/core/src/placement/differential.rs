//! Differential proptests of what Algorithm 1's sweep reads from tables
//! and at the part level, against the functions it no longer calls:
//! the cloud's placement tables against `graph_center_among`,
//! `bfs_order` and the per-gate price the estimate used to compute, and
//! the part-level `(T, C, R(V_j))` against `estimate_execution_time`,
//! `communication_cost` and `remote_ops_per_qpu` on the expanded
//! placement. Floats are compared with `to_bits`. The sweep's score
//! bound is checked twice: its `T` floor and crossing-gate count
//! against every mapping's `T` and `C`, and the whole sweep against an
//! unbounded reference that scores every split on its expansion.

use super::cloudqc::{capacity_fill, K_SWEEP_WIDTH};
use super::cost::{
    communication_cost, part_communication_cost, part_crossing_gates, part_remote_ops_per_qpu,
    remote_op_count, remote_ops_per_qpu,
};
use super::estimate::{estimate_execution_time, execution_time_floor, part_execution_time};
use super::find_placement::expand_to_qubits;
use super::score::placement_score;
use super::{
    check_total_capacity, find_placement, CandidateSets, CloudQcBfsPlacement, CloudQcPlacement,
    FindPlacementMode, Placement, PlacementAlgorithm,
};
use crate::config::PlacementConfig;
use crate::error::PlacementError;
use cloudqc_circuit::interaction::{interaction_graph, partition_interaction_graph};
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus, EprModel, LatencyModel, Qpu, QpuId};
use cloudqc_graph::center::graph_center_among;
use cloudqc_graph::partition::{partition, PartitionConfig};
use cloudqc_graph::traversal::bfs_order;
use cloudqc_graph::Graph;
use proptest::prelude::*;
use std::ops::Range;

const MAX_QPUS: usize = 7;
const MAX_QUBITS: usize = 10;
/// Qubits of the sweep's circuits: enough to need two or more of the
/// small QPUs its clouds draw.
const MAX_SWEEP_QUBITS: usize = 16;

/// A cloud from [`Cloud::from_parts`]: 1–7 QPUs of `computing` qubits
/// each, joined by random links added in random order (so some
/// topologies are disconnected and some QPUs isolated), communication
/// capacities from 0 to 6, random latencies, and EPR rounds that are
/// certain, ordinary, or never succeed in `f64` (`p = 1e-300`, infinite
/// expected rounds).
fn cloud_strategy(computing: Range<usize>) -> impl Strategy<Value = Cloud> {
    (1..=MAX_QPUS)
        .prop_flat_map(move |n| {
            (
                prop::collection::vec((0..n, 0..n), 0..2 * n),
                prop::collection::vec((computing.clone(), 0usize..7), n),
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

/// The first `parts` QPUs of `cloud` ordered by `keys`: an injective
/// part → QPU map.
fn injective_map(cloud: &Cloud, parts: usize, keys: &[u32]) -> Vec<QpuId> {
    let mut qpus: Vec<usize> = (0..cloud.qpu_count()).collect();
    qpus.sort_by_key(|&q| keys[q]);
    qpus[..parts].iter().map(|&q| QpuId::new(q)).collect()
}

/// `cloud`'s status with `taken[q] mod (capacity + 1)` computing qubits
/// of each QPU `q` in use.
fn occupied(cloud: &Cloud, taken: &[usize]) -> CloudStatus {
    let mut status = cloud.status();
    for q in (0..cloud.qpu_count()).map(QpuId::new) {
        let take = taken[q.index()] % (cloud.qpu(q).computing_qubits() + 1);
        status.allocate_computing(q, take).unwrap();
    }
    status
}

/// Algorithm 1 with no memo, no part-level scoring and no bound: each
/// split is partitioned afresh, mapped by [`find_placement`], expanded
/// to qubits and filtered and scored there, and the best is replaced
/// only on a strict `>`. The single-QPU best fit, the part-count range,
/// the per-split seeds and the capacity-fill fallback are those of the
/// sweep.
fn unbounded_sweep(
    circuit: &Circuit,
    cloud: &Cloud,
    status: &CloudStatus,
    config: &PlacementConfig,
    mode: FindPlacementMode,
    seed: u64,
) -> Result<Placement, PlacementError> {
    check_total_capacity(circuit, status)?;
    let size = circuit.num_qubits();
    if let Some(best_fit) = (0..cloud.qpu_count())
        .map(QpuId::new)
        .filter(|&q| status.free_computing(q) >= size)
        .min_by_key(|&q| (status.free_computing(q), q.index()))
    {
        return Ok(Placement::new(vec![best_fit; size]));
    }
    let k_min = size.div_ceil(status.max_free_computing().max(1)).max(2);
    let k_max = (k_min + K_SWEEP_WIDTH).min(cloud.qpu_count()).min(size);
    if k_min > k_max {
        return Err(PlacementError::NoFeasiblePlacement);
    }
    let within_epsilon = |placement: &Placement| {
        config.epsilon == usize::MAX
            || remote_ops_per_qpu(circuit, placement, cloud.qpu_count())
                .iter()
                .all(|&r| r <= config.epsilon)
    };
    let candidate_sets = CandidateSets::new(cloud, status, mode, seed);
    let interaction = interaction_graph(circuit);
    let mut best: Option<(f64, Placement)> = None;
    for (ai, &alpha) in config.imbalance_factors.iter().enumerate() {
        for k in k_min..=k_max {
            let part_config = PartitionConfig::new(k)
                .with_imbalance(alpha)
                .with_seed(seed ^ ((ai as u64) << 32) ^ k as u64);
            let Ok(parts) = partition(&interaction, &part_config) else {
                continue;
            };
            let mut part_sizes = vec![0; k];
            for &p in parts.assignment() {
                part_sizes[p] += 1;
            }
            let part_graph = partition_interaction_graph(circuit, parts.assignment(), k);
            let Some(part_to_qpu) =
                find_placement(&part_sizes, &part_graph, cloud, status, &candidate_sets)
            else {
                continue;
            };
            let placement = expand_to_qubits(parts.assignment(), &part_to_qpu);
            if !placement.fits(status) || !within_epsilon(&placement) {
                continue;
            }
            let score = placement_score(
                estimate_execution_time(circuit, &placement, cloud),
                communication_cost(circuit, &placement, cloud),
                config.score_alpha,
                config.score_beta,
            );
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, placement));
            }
        }
    }
    match best {
        Some((_, placement)) => Ok(placement),
        None => capacity_fill(circuit, &interaction, cloud, status)
            .filter(within_epsilon)
            .ok_or(PlacementError::NoFeasiblePlacement),
    }
}

/// A score weight: zero, positive, negative or NaN.
fn weight_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.5),
        Just(1.0),
        Just(4.0),
        Just(-1.0),
        Just(f64::NAN)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_center_is_graph_center_among(
        cloud in cloud_strategy(1..30),
        candidates in prop::collection::vec(0..MAX_QPUS + 3, 0..12),
    ) {
        prop_assert_eq!(
            cloud.center_among(candidates.iter().copied()),
            graph_center_among(cloud.topology(), candidates)
        );
    }

    #[test]
    fn table_bfs_orders_and_gate_ticks_match_their_references(cloud in cloud_strategy(1..30)) {
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
        cloud in cloud_strategy(1..30),
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
        let part_to_qpu = injective_map(&cloud, parts, &qpu_keys);
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

    #[test]
    fn time_floor_and_crossing_gates_bound_every_mapping(
        cloud in cloud_strategy(1..30),
        num_qubits in 1..=MAX_QUBITS,
        ops in prop::collection::vec((0..MAX_QUBITS, 0..MAX_QUBITS, 0u8..5), 0..60),
        qpu_of in prop::collection::vec(0..MAX_QPUS, MAX_QUBITS),
        parts in 1..=MAX_QPUS,
        part_of in prop::collection::vec(0..MAX_QPUS, MAX_QUBITS),
        qpu_keys in prop::collection::vec(any::<u32>(), MAX_QPUS),
    ) {
        let n = cloud.qpu_count();
        let circuit = circuit(num_qubits, &ops);
        // `T ≥ T_floor` under any placement, and one QPU attains it.
        let floor = execution_time_floor(&circuit, cloud.latency());
        let qpus = qpu_of[..num_qubits].iter().map(|&q| QpuId::new(q % n));
        let time = estimate_execution_time(&circuit, &Placement::new(qpus.collect()), &cloud);
        prop_assert!(time >= floor, "T {} below its floor {}", time, floor);
        let one_qpu = Placement::new(vec![QpuId::new(0); num_qubits]);
        let local = estimate_execution_time(&circuit, &one_qpu, &cloud);
        prop_assert_eq!(local.to_bits(), floor.to_bits(), "one QPU: {} vs {}", local, floor);
        // `C ≥ W` under any injective part map, and `W` counts its
        // remote gates.
        let parts = parts.min(n);
        let assignment: Vec<usize> = part_of[..num_qubits].iter().map(|p| p % parts).collect();
        let part_to_qpu = injective_map(&cloud, parts, &qpu_keys);
        let part_graph = partition_interaction_graph(&circuit, &assignment, parts);
        let crossing = part_crossing_gates(&part_graph);
        let cost = part_communication_cost(&part_graph, &part_to_qpu, &cloud);
        prop_assert!(cost >= crossing, "C {} below W {}", cost, crossing);
        let expanded = Placement::from_parts(&assignment, &part_to_qpu);
        prop_assert_eq!(crossing, remote_op_count(&circuit, &expanded) as f64);
    }

    #[test]
    fn sweep_matches_the_unbounded_reference(
        (cloud, taken) in (cloud_strategy(2..9), prop::collection::vec(0usize..4, MAX_QPUS)),
        num_qubits in 2..=MAX_SWEEP_QUBITS,
        ops in prop::collection::vec((0..MAX_SWEEP_QUBITS, 0..MAX_SWEEP_QUBITS, 0u8..5), 0..80),
        (alpha, beta) in (weight_strategy(), weight_strategy()),
        epsilon in prop_oneof![Just(usize::MAX), 0usize..40],
        seed in any::<u64>(),
    ) {
        let status = occupied(&cloud, &taken);
        let circuit = circuit(num_qubits, &ops);
        let config = PlacementConfig::default()
            .with_score_weights(alpha, beta)
            .with_epsilon(epsilon);
        let algorithms: [(Box<dyn PlacementAlgorithm>, FindPlacementMode); 2] = [
            (Box::new(CloudQcPlacement::new(config.clone())), FindPlacementMode::Community),
            (Box::new(CloudQcBfsPlacement::new(config.clone())), FindPlacementMode::Bfs),
        ];
        for (algorithm, mode) in &algorithms {
            let want = unbounded_sweep(&circuit, &cloud, &status, &config, *mode, seed);
            // The second call replays the instance's memoized splits.
            for call in 1..=2 {
                let got = algorithm.place(&circuit, &cloud, &status, seed);
                prop_assert_eq!(&got, &want, "{} call {}", algorithm.name(), call);
            }
        }
    }
}
