//! The assembled quantum cloud: QPUs + topology + models.

use crate::epr::EprModel;
use crate::latency::LatencyModel;
use crate::qpu::{Qpu, QpuId};
use crate::status::CloudStatus;
use crate::tables::PlacementTables;
use cloudqc_graph::paths::{all_pairs_hops, widest_path_values, DistanceMatrix};
use cloudqc_graph::Graph;
use std::cmp::Reverse;
use std::sync::OnceLock;

/// A quantum cloud: a fixed topology of QPUs connected by quantum links,
/// plus the latency and EPR models every simulation shares.
///
/// The hop-distance matrix is precomputed: `distance(i, j)` is the
/// paper's communication cost `C_ij` ("the length of the path between
/// QPU i and QPU j", §IV.B).
///
/// Optionally, quantum links carry a *reliability* in `(0, 1]` (the
/// paper's §V.B extension: "the reliability of quantum links … can be
/// easily encoded into the edge weights"). The end-to-end reliability
/// between two QPUs is the maximum bottleneck over all paths (widest
/// path), and it scales the per-attempt EPR success probability.
///
/// What placement reads of the static cloud on every candidate (each
/// QPU's reach, eccentricity and BFS order, each QPU pair's expected
/// two-qubit-gate ticks) is tabulated on first use, by
/// [`Cloud::center_among`], [`Cloud::bfs_order`] or
/// [`Cloud::expected_gate_ticks`], and kept for the cloud's lifetime.
///
/// Build with [`crate::CloudBuilder`].
#[derive(Clone, Debug)]
pub struct Cloud {
    qpus: Vec<Qpu>,
    topology: Graph,
    distances: DistanceMatrix,
    latency: LatencyModel,
    epr: EprModel,
    /// Bottleneck link reliability per QPU pair (row-major), `1.0`
    /// everywhere when the extension is unused.
    reliability: Option<Vec<f64>>,
    /// Built on first use: a cloud that is never placed on skips them.
    tables: OnceLock<PlacementTables>,
}

impl Cloud {
    /// Assembles a cloud from parts. Prefer [`crate::CloudBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if `qpus.len() != topology.node_count()` or the topology
    /// is empty.
    pub fn from_parts(
        qpus: Vec<Qpu>,
        topology: Graph,
        latency: LatencyModel,
        epr: EprModel,
    ) -> Self {
        assert!(!qpus.is_empty(), "a cloud needs at least one QPU");
        assert_eq!(
            qpus.len(),
            topology.node_count(),
            "QPU list and topology size mismatch"
        );
        let distances = all_pairs_hops(&topology);
        Cloud {
            qpus,
            topology,
            distances,
            latency,
            epr,
            reliability: None,
            tables: OnceLock::new(),
        }
    }

    /// Assembles a cloud whose quantum links carry reliabilities: the
    /// `reliability_graph` must share the topology's structure, with
    /// edge weights in `(0, 1]` giving each link's quality.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch, or if any reliability weight is outside
    /// `(0, 1]`.
    pub fn from_parts_with_reliability(
        qpus: Vec<Qpu>,
        reliability_graph: Graph,
        latency: LatencyModel,
        epr: EprModel,
    ) -> Self {
        for (u, v, w) in reliability_graph.edges() {
            assert!(
                w > 0.0 && w <= 1.0,
                "link ({u},{v}) reliability {w} outside (0, 1]"
            );
        }
        let n = reliability_graph.node_count();
        let mut matrix = vec![1.0f64; n * n];
        for src in 0..n {
            for (dst, width) in widest_path_values(&reliability_graph, src)
                .into_iter()
                .enumerate()
            {
                // Unreachable pairs keep 1.0 — distance checks already
                // gate reachability; quality must stay a valid factor.
                if let Some(w) = width {
                    matrix[src * n + dst] = w.min(1.0);
                }
            }
        }
        let mut cloud = Cloud::from_parts(qpus, reliability_graph, latency, epr);
        cloud.reliability = Some(matrix);
        cloud
    }

    /// End-to-end link reliability between two QPUs: the bottleneck
    /// quality of the most reliable path, or `1.0` when the reliability
    /// extension is unused (or `a == b`).
    pub fn bottleneck_reliability(&self, a: QpuId, b: QpuId) -> f64 {
        match &self.reliability {
            Some(m) => m[a.index() * self.qpu_count() + b.index()],
            None => 1.0,
        }
    }

    /// Number of QPUs.
    pub fn qpu_count(&self) -> usize {
        self.qpus.len()
    }

    /// The QPU with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn qpu(&self, id: QpuId) -> &Qpu {
        &self.qpus[id.index()]
    }

    /// The quantum-link topology (one node per QPU).
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// Hop distance between two QPUs — the communication cost `C_ij`.
    /// Returns `None` if no quantum path exists.
    pub fn distance(&self, a: QpuId, b: QpuId) -> Option<u32> {
        self.distances.get(a.index(), b.index())
    }

    /// Hop distance, treating unreachable pairs as `qpu_count` (strictly
    /// worse than any real path).
    pub fn distance_or_max(&self, a: QpuId, b: QpuId) -> u32 {
        self.distances
            .get_or(a.index(), b.index(), self.qpu_count() as u32)
    }

    /// The precomputed all-pairs distance matrix.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// The center of a candidate QPU set, as Algorithm 2 maps onto it:
    /// the candidate that reaches the most QPUs, then has the least
    /// eccentricity, then the lowest id. Ids outside the cloud are
    /// skipped, and `None` means no candidate was valid. The same as
    /// [`cloudqc_graph::center::graph_center_among`] over the topology,
    /// read from tables instead of two BFS per candidate.
    pub fn center_among(&self, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
        let t = self.tables();
        candidates
            .into_iter()
            .filter(|&u| u < self.qpu_count())
            .min_by_key(|&u| (Reverse(t.reach[u]), t.eccentricity[u], u))
    }

    /// The QPUs reachable from `src`, in the breadth-first visit order
    /// of [`cloudqc_graph::traversal::bfs_order`] over the topology.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_order(&self, src: usize) -> &[usize] {
        &self.tables().bfs_orders[src]
    }

    /// Expected ticks of a two-qubit gate whose operands sit on QPUs `a`
    /// and `b`, as the placement estimate prices it: the CX latency when
    /// `a == b`, else
    /// `hops · E[rounds | fair pairs] · t_ep + t_2q + t_measure + t_1q`,
    /// with the fair share being half the smaller endpoint's
    /// communication capacity (at least 1). Unreachable pairs count
    /// `qpu_count` hops, and a cloud whose EPR rounds never succeed
    /// prices every remote gate at `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn expected_gate_ticks(&self, a: QpuId, b: QpuId) -> f64 {
        let n = self.qpu_count();
        assert!(b.index() < n, "{b} out of range");
        self.tables().gate_ticks[a.index() * n + b.index()]
    }

    fn tables(&self) -> &PlacementTables {
        self.tables.get_or_init(|| PlacementTables::new(self))
    }

    /// The latency model (Table I).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The EPR generation model.
    pub fn epr(&self) -> &EprModel {
        &self.epr
    }

    /// Sum of computing-qubit capacities over all QPUs.
    pub fn total_computing_capacity(&self) -> usize {
        self.qpus.iter().map(|q| q.computing_qubits()).sum()
    }

    /// A fresh [`CloudStatus`] for this cloud, every computing qubit free.
    pub fn status(&self) -> CloudStatus {
        CloudStatus::new(self.qpus.iter().map(|q| q.computing_qubits()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_graph::random::line;

    fn line_cloud(n: usize) -> Cloud {
        Cloud::from_parts(
            vec![Qpu::default(); n],
            line(n),
            LatencyModel::default(),
            EprModel::default(),
        )
    }

    #[test]
    fn distances_are_hops() {
        let c = line_cloud(4);
        assert_eq!(c.distance(QpuId::new(0), QpuId::new(3)), Some(3));
        assert_eq!(c.distance(QpuId::new(2), QpuId::new(2)), Some(0));
    }

    #[test]
    fn capacities_sum() {
        let c = line_cloud(5);
        assert_eq!(c.total_computing_capacity(), 100);
    }

    #[test]
    fn status_starts_fully_free() {
        let c = line_cloud(3);
        let s = c.status();
        for id in (0..c.qpu_count()).map(QpuId::new) {
            assert_eq!(s.free_computing(id), c.qpu(id).computing_qubits());
        }
    }

    #[test]
    fn unreachable_distance_or_max() {
        let mut topo = Graph::new(3);
        topo.add_edge(0, 1, 1.0);
        let c = Cloud::from_parts(
            vec![Qpu::default(); 3],
            topo,
            LatencyModel::default(),
            EprModel::default(),
        );
        assert_eq!(c.distance(QpuId::new(0), QpuId::new(2)), None);
        assert_eq!(c.distance_or_max(QpuId::new(0), QpuId::new(2)), 3);
    }

    #[test]
    fn reliability_defaults_to_one() {
        let c = line_cloud(3);
        assert_eq!(c.bottleneck_reliability(QpuId::new(0), QpuId::new(2)), 1.0);
    }

    #[test]
    fn reliability_uses_widest_path() {
        // Triangle: 0-1 (0.9), 1-2 (0.8), 0-2 (0.3): the best 0→2 route
        // goes through 1 with bottleneck 0.8.
        let g = Graph::from_edges(3, [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.3)]);
        let c = Cloud::from_parts_with_reliability(
            vec![Qpu::default(); 3],
            g,
            LatencyModel::default(),
            EprModel::default(),
        );
        assert_eq!(c.bottleneck_reliability(QpuId::new(0), QpuId::new(2)), 0.8);
        assert_eq!(c.bottleneck_reliability(QpuId::new(0), QpuId::new(1)), 0.9);
        assert_eq!(c.bottleneck_reliability(QpuId::new(1), QpuId::new(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_reliability_rejected() {
        let g = Graph::from_edges(2, [(0, 1, 1.5)]);
        Cloud::from_parts_with_reliability(
            vec![Qpu::default(); 2],
            g,
            LatencyModel::default(),
            EprModel::default(),
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_parts_rejected() {
        Cloud::from_parts(
            vec![Qpu::default(); 2],
            Graph::new(3),
            LatencyModel::default(),
            EprModel::default(),
        );
    }
}
