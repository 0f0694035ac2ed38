//! Placement tables: what CloudQC's placement reads of the static cloud
//! on every candidate mapping, computed once per cloud.
//!
//! Algorithm 2 takes the center of a candidate QPU set and walks the
//! topology breadth-first from it, and the execution-time estimate
//! prices every two-qubit gate by the QPU pair it spans. None of these
//! depend on the cloud's status, so [`crate::Cloud`] builds them on
//! first use and keeps them.

use crate::cloud::Cloud;
use crate::qpu::QpuId;
use cloudqc_graph::traversal::bfs_order;

/// Per-QPU and per-QPU-pair values of one cloud, read by the
/// [`Cloud`] methods that document them.
#[derive(Clone, Debug)]
pub(crate) struct PlacementTables {
    /// QPUs reachable from each QPU, itself included.
    pub(crate) reach: Vec<usize>,
    /// Largest finite hop distance from each QPU (0 when isolated).
    pub(crate) eccentricity: Vec<u32>,
    /// Each QPU's breadth-first visit order over the topology.
    pub(crate) bfs_orders: Vec<Vec<usize>>,
    /// [`expected_gate_ticks`] per QPU pair, row-major.
    pub(crate) gate_ticks: Vec<f64>,
}

impl PlacementTables {
    /// Reads reach and eccentricity off `cloud`'s hop matrix, runs one
    /// BFS per QPU and prices every QPU pair.
    pub(crate) fn new(cloud: &Cloud) -> Self {
        let n = cloud.qpu_count();
        let distances = cloud.distances();
        let rows = (0..n).map(|u| (0..n).filter_map(move |v| distances.get(u, v)));
        let ids = || (0..n).map(QpuId::new);
        PlacementTables {
            reach: rows.clone().map(Iterator::count).collect(),
            eccentricity: rows.map(|row| row.max().unwrap_or(0)).collect(),
            bfs_orders: (0..n).map(|u| bfs_order(cloud.topology(), u)).collect(),
            gate_ticks: ids()
                .flat_map(|a| ids().map(move |b| expected_gate_ticks(cloud, a, b)))
                .collect(),
        }
    }
}

/// The price [`Cloud::expected_gate_ticks`] documents.
fn expected_gate_ticks(cloud: &Cloud, a: QpuId, b: QpuId) -> f64 {
    let latency = cloud.latency();
    if a == b {
        return latency.two_qubit() as f64;
    }
    let hops = cloud.distance_or_max(a, b) as f64;
    let capacity = cloud
        .qpu(a)
        .communication_qubits()
        .min(cloud.qpu(b).communication_qubits());
    let fair_pairs = (capacity / 2).max(1);
    let rounds = cloud.epr().expected_rounds(fair_pairs);
    hops * rounds * latency.epr_attempt() as f64 + latency.remote_gate_completion() as f64
}
