//! The CloudQC placement algorithm (paper Algorithm 1).

use super::cost::{communication_cost, remote_ops_per_qpu};
use super::estimate::estimate_execution_time;
use super::find_placement::{expand_to_qubits, find_placement, CandidateSets, FindPlacementMode};
use super::score::placement_score;
use super::{check_total_capacity, Placement, PlacementAlgorithm};
use crate::config::PlacementConfig;
use crate::error::PlacementError;
use cloudqc_circuit::interaction::{interaction_graph, partition_interaction_graph};
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, CloudStatus, QpuId};
use cloudqc_graph::partition::{partition, PartitionConfig};

/// CloudQC's filtering-and-scoring placement (Algorithm 1):
///
/// 1. If some QPU can host the whole circuit, place it there (best fit).
/// 2. Otherwise sweep `(imbalance factor α, part count k)`: partition
///    the interaction graph, find a QPU mapping (Algorithm 2 with
///    community detection), filter by feasibility (capacity, ε), and
///    score survivors with `S = α/T + β/C`.
/// 3. Return the highest-scoring placement.
#[derive(Clone, Debug, Default)]
pub struct CloudQcPlacement {
    config: PlacementConfig,
}

impl CloudQcPlacement {
    /// Uses the given pipeline configuration.
    pub fn new(config: PlacementConfig) -> Self {
        CloudQcPlacement { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }
}

impl PlacementAlgorithm for CloudQcPlacement {
    fn name(&self) -> &'static str {
        "CloudQC"
    }

    fn place(
        &self,
        circuit: &Circuit,
        cloud: &Cloud,
        status: &CloudStatus,
        seed: u64,
    ) -> Result<Placement, PlacementError> {
        place_with_mode(
            circuit,
            cloud,
            status,
            &self.config,
            FindPlacementMode::Community,
            seed,
        )
    }
}

/// Shared Algorithm 1 driver, parameterized by the Algorithm 2 variant
/// (community detection for CloudQC, BFS for CloudQC-BFS).
pub(crate) fn place_with_mode(
    circuit: &Circuit,
    cloud: &Cloud,
    status: &CloudStatus,
    config: &PlacementConfig,
    mode: FindPlacementMode,
    seed: u64,
) -> Result<Placement, PlacementError> {
    check_total_capacity(circuit, status)?;
    let size = circuit.num_qubits();

    // Line 2-3: whole circuit fits on one QPU → best-fit single QPU
    // (smallest sufficient free block preserves large blocks for big
    // future jobs — the "future resource availability" goal of §V.B).
    if let Some(best_fit) = (0..cloud.qpu_count())
        .map(QpuId::new)
        .filter(|&q| status.free_computing(q) >= size)
        .min_by_key(|&q| (status.free_computing(q), q.index()))
    {
        return Ok(Placement::new(vec![best_fit; size]));
    }

    let ig = interaction_graph(circuit);

    // Part-count sweep bounds: at least ⌈size / biggest free block⌉
    // parts are needed; explore a few more.
    let max_block = status.max_free_computing().max(1);
    let k_min = size.div_ceil(max_block).max(2);
    let k_max = (k_min + config.k_sweep_width)
        .min(cloud.qpu_count())
        .min(size);
    if k_min > k_max {
        return Err(PlacementError::NoFeasiblePlacement);
    }

    // Community detection depends only on (cloud, status, seed): once
    // per call, not once per sweep candidate.
    let candidate_sets = CandidateSets::new(cloud, status, mode, seed);
    let mut best: Option<(f64, Placement)> = None;
    for (ai, &alpha) in config.imbalance_factors.iter().enumerate() {
        for k in k_min..=k_max {
            let part_cfg = PartitionConfig::new(k)
                .with_imbalance(alpha)
                .with_seed(seed ^ ((ai as u64) << 32) ^ k as u64);
            let Ok(parts) = partition(&ig, &part_cfg) else {
                continue;
            };
            let members = parts.part_members();
            let part_sizes: Vec<usize> = members.iter().map(|m| m.len()).collect();
            let part_graph = partition_interaction_graph(circuit, parts.assignment(), k);
            let Some(part_to_qpu) =
                find_placement(&part_sizes, &part_graph, cloud, status, &candidate_sets)
            else {
                continue;
            };
            let placement = expand_to_qubits(parts.assignment(), &part_to_qpu);
            // Feasibility filter: capacity (find_placement guarantees it,
            // but double-check) and the ε remote-op threshold (Eq. 6).
            if !placement.fits(status) {
                continue;
            }
            if config.epsilon != usize::MAX {
                let per_qpu = remote_ops_per_qpu(circuit, &placement, cloud.qpu_count());
                if per_qpu.iter().any(|&r| r > config.epsilon) {
                    continue;
                }
            }
            let time = estimate_execution_time(circuit, &placement, cloud);
            let cost = communication_cost(circuit, &placement, cloud);
            let score = placement_score(time, cost, config.score_alpha, config.score_beta);
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, placement));
            }
        }
    }
    if let Some((_, p)) = best {
        return Ok(p);
    }
    // Balanced partitioning cannot always match very skewed capacity
    // profiles (e.g. one 40-qubit QPU among 8-qubit ones). Fall back to
    // a capacity-aware fill that keeps interacting qubits together:
    // qubits in interaction-BFS order onto QPUs in capacity order.
    // Respects Eq. 3 by construction; ε is still enforced.
    if let Some(placement) = capacity_fill(circuit, &ig, cloud, status) {
        if config.epsilon == usize::MAX
            || remote_ops_per_qpu(circuit, &placement, cloud.qpu_count())
                .iter()
                .all(|&r| r <= config.epsilon)
        {
            return Ok(placement);
        }
    }
    Err(PlacementError::NoFeasiblePlacement)
}

/// Last-resort capacity-aware placement: orders qubits by BFS over the
/// interaction graph (so neighbours stay together) and QPUs by free
/// capacity descending (ties: lower id), then fills QPU by QPU.
fn capacity_fill(
    circuit: &Circuit,
    interaction: &cloudqc_graph::Graph,
    cloud: &Cloud,
    status: &CloudStatus,
) -> Option<Placement> {
    use cloudqc_graph::center::weighted_center;
    use cloudqc_graph::traversal::bfs_order;

    let size = circuit.num_qubits();
    // Qubit order: BFS from the interaction center, then any stragglers
    // (isolated qubits / other components) in index order.
    let mut order: Vec<usize> = match weighted_center(interaction) {
        Some(center) => bfs_order(interaction, center),
        None => Vec::new(),
    };
    let mut seen = vec![false; size];
    for &q in &order {
        seen[q] = true;
    }
    order.extend((0..size).filter(|&q| !seen[q]));

    // QPU order: free capacity descending.
    let mut qpus: Vec<usize> = (0..cloud.qpu_count()).collect();
    qpus.sort_by_key(|&i| (std::cmp::Reverse(status.free_computing(QpuId::new(i))), i));

    let mut assignment = vec![QpuId::new(0); size];
    let mut qpu_iter = qpus.into_iter();
    let mut current = qpu_iter.next()?;
    let mut remaining = status.free_computing(QpuId::new(current));
    for q in order {
        while remaining == 0 {
            current = qpu_iter.next()?;
            remaining = status.free_computing(QpuId::new(current));
        }
        assignment[q] = QpuId::new(current);
        remaining -= 1;
    }
    Some(Placement::new(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::cost::remote_op_count;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    fn paper_cloud(seed: u64) -> Cloud {
        CloudBuilder::paper_default(seed).build()
    }

    #[test]
    fn small_circuit_lands_on_one_qpu() {
        let cloud = paper_cloud(0);
        let circuit = catalog::by_name("vqe_n4").unwrap();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), 1)
            .unwrap();
        assert!(p.is_single_qpu());
        assert_eq!(remote_op_count(&circuit, &p), 0);
    }

    #[test]
    fn large_circuit_spreads_and_fits() {
        let cloud = paper_cloud(1);
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let status = cloud.status();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 1)
            .unwrap();
        assert_eq!(p.num_qubits(), 127);
        assert!(p.fits(&status));
        assert!(p.used_qpus().len() >= 7); // 127 qubits / 20 per QPU
    }

    #[test]
    fn ghz_chain_places_cheaply() {
        // A chain circuit must induce far fewer remote ops than gates.
        let cloud = paper_cloud(2);
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), 3)
            .unwrap();
        let remote = remote_op_count(&circuit, &p);
        // Paper Table III: CloudQC achieves 8 on ghz_n127; anything close
        // to the part count is acceptable, anything near random (~100+)
        // is a regression.
        assert!(remote <= 20, "remote ops {remote}");
    }

    #[test]
    fn insufficient_capacity_reported() {
        let cloud = CloudBuilder::new(2).computing_qubits(10).build();
        let circuit = catalog::by_name("ghz_n127").unwrap();
        let err = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), 0)
            .unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
    }

    #[test]
    fn respects_partially_used_cloud() {
        let cloud = paper_cloud(3);
        let mut status = cloud.status();
        // Fill half the QPUs completely.
        for i in 0..10 {
            status.allocate_computing(QpuId::new(i), 20).unwrap();
        }
        let circuit = catalog::by_name("cat_n65").unwrap();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 4)
            .unwrap();
        assert!(p.fits(&status));
        for q in p.used_qpus() {
            assert!(q.index() >= 10, "placed on full {q}");
        }
    }

    #[test]
    fn epsilon_constraint_filters() {
        let cloud = paper_cloud(4);
        let circuit = catalog::by_name("qft_n63").unwrap();
        // An absurdly tight ε makes every distributed placement
        // infeasible; qft_n63 (63 qubits) cannot fit one QPU, so
        // placement must fail.
        let algo = CloudQcPlacement::new(PlacementConfig::default().with_epsilon(1));
        let err = algo
            .place(&circuit, &cloud, &cloud.status(), 5)
            .unwrap_err();
        assert_eq!(err, PlacementError::NoFeasiblePlacement);
    }

    #[test]
    fn deterministic_for_seed() {
        let cloud = paper_cloud(5);
        let circuit = catalog::by_name("knn_n67").unwrap();
        let algo = CloudQcPlacement::default();
        let a = algo.place(&circuit, &cloud, &cloud.status(), 9).unwrap();
        let b = algo.place(&circuit, &cloud, &cloud.status(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_capacities_fall_back_to_capacity_fill() {
        use cloudqc_cloud::Qpu;
        // Balanced partitioning cannot split 50 qubits over (40,8,8,8);
        // the capacity-aware fallback must.
        let cloud = CloudBuilder::new(4)
            .ring_topology()
            .heterogeneous_qpus(vec![
                Qpu::new(40, 5),
                Qpu::new(8, 5),
                Qpu::new(8, 5),
                Qpu::new(8, 5),
            ])
            .build();
        let circuit = catalog::by_name("ghz_n50").unwrap();
        let status = cloud.status();
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &status, 1)
            .unwrap();
        assert!(p.fits(&status));
        // The big QPU takes the bulk; the BFS ordering keeps the GHZ
        // chain mostly contiguous so remote ops stay near the minimum.
        assert_eq!(p.qpu_demand(4)[0], 40);
        assert!(remote_op_count(&circuit, &p) <= 5);
    }
}
