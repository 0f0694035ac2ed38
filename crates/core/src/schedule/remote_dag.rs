//! Remote DAG extraction (paper Fig. 3b, §V.A "Generate Remote DAG").
//!
//! The remote DAG keeps only inter-QPU two-qubit gates; dependencies
//! that flow through dropped local gates are preserved (projection of
//! the full gate DAG onto the remote subset).

use crate::placement::Placement;
use cloudqc_circuit::dag::gate_dag;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::{Cloud, QpuId};
use cloudqc_graph::DiGraph;

/// The remote DAG of a placed circuit.
#[derive(Clone, Debug)]
pub struct RemoteDag {
    dag: DiGraph,
    gate_indices: Vec<usize>,
    endpoints: Vec<(QpuId, QpuId)>,
    hops: Vec<u32>,
}

impl RemoteDag {
    /// Builds the remote DAG of `circuit` under `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the placement is narrower than the circuit.
    ///
    /// # Example
    ///
    /// ```
    /// use cloudqc_circuit::Circuit;
    /// use cloudqc_cloud::{CloudBuilder, QpuId};
    /// use cloudqc_core::placement::Placement;
    /// use cloudqc_core::schedule::RemoteDag;
    ///
    /// let mut c = Circuit::new(3);
    /// c.cx(0, 1); // remote under the placement below
    /// c.cx(1, 2); // local
    /// c.cx(0, 2); // remote, depends on both
    /// let cloud = CloudBuilder::new(2).line_topology().build();
    /// let p = Placement::new(vec![QpuId::new(0), QpuId::new(1), QpuId::new(1)]);
    /// let rd = RemoteDag::new(&c, &p, &cloud);
    /// assert_eq!(rd.node_count(), 2);           // two remote gates
    /// assert_eq!(rd.dag().successors(0), &[1]); // 0 -> 1 via the local gate
    /// ```
    pub fn new(circuit: &Circuit, placement: &Placement, cloud: &Cloud) -> Self {
        assert!(
            placement.num_qubits() >= circuit.num_qubits(),
            "placement narrower than circuit"
        );
        let remote_gates: Vec<usize> = circuit
            .two_qubit_gates()
            .filter(|&(_, a, b)| placement.qpu_of(a.index()) != placement.qpu_of(b.index()))
            .map(|(i, _, _)| i)
            .collect();
        let dag = gate_dag(circuit).project_onto(&remote_gates);
        let endpoints: Vec<(QpuId, QpuId)> = remote_gates
            .iter()
            .map(|&gi| {
                let (a, b) = circuit.gates()[gi]
                    .qubit_pair()
                    .expect("remote gates are two-qubit");
                (placement.qpu_of(a.index()), placement.qpu_of(b.index()))
            })
            .collect();
        let hops = endpoints
            .iter()
            .map(|&(a, b)| cloud.distance_or_max(a, b))
            .collect();
        RemoteDag {
            dag,
            gate_indices: remote_gates,
            endpoints,
            hops,
        }
    }

    /// Number of remote gates.
    pub fn node_count(&self) -> usize {
        self.gate_indices.len()
    }

    /// The dependency DAG over remote gates (node ids are remote-DAG
    /// local).
    pub fn dag(&self) -> &DiGraph {
        &self.dag
    }

    /// Circuit gate index of remote node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn gate_index(&self, n: usize) -> usize {
        self.gate_indices[n]
    }

    /// Remote-DAG node for a circuit gate index, if that gate is remote.
    pub fn node_of_gate(&self, gate_index: usize) -> Option<usize> {
        self.gate_indices.iter().position(|&g| g == gate_index)
    }

    /// Endpoint QPUs of remote node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn endpoints(&self, n: usize) -> (QpuId, QpuId) {
        self.endpoints[n]
    }

    /// Hop distance between the endpoints of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn hops(&self, n: usize) -> u32 {
        self.hops[n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_cloud::CloudBuilder;

    fn cloud3() -> Cloud {
        CloudBuilder::new(3).line_topology().build()
    }

    /// The paper's Fig. 3 scenario in miniature: remote gates spanning
    /// QPU pairs with dependencies through local gates.
    #[test]
    fn extracts_remote_gates_only() {
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1); // local (both on QPU0)
        c.cx(1, 2); // remote QPU0-QPU1
        c.cx(2, 3); // local (both on QPU1)
        c.cx(0, 3); // remote QPU0-QPU1
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(1),
        ]);
        let rd = RemoteDag::new(&c, &p, &cloud3());
        assert_eq!(rd.node_count(), 2);
        assert_eq!(rd.gate_index(0), 2);
        assert_eq!(rd.gate_index(1), 4);
        // cx(0,3) depends on cx(1,2) through the local cx(2,3).
        assert_eq!(rd.dag().successors(0), &[1]);
        assert_eq!(rd.endpoints(0), (QpuId::new(0), QpuId::new(1)));
        assert_eq!(rd.hops(0), 1);
    }

    #[test]
    fn local_only_circuit_has_empty_remote_dag() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let p = Placement::new(vec![QpuId::new(2); 3]);
        let rd = RemoteDag::new(&c, &p, &cloud3());
        assert_eq!(rd.node_count(), 0);
    }

    #[test]
    fn multi_hop_distances_recorded() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(2)]);
        let rd = RemoteDag::new(&c, &p, &cloud3());
        assert_eq!(rd.hops(0), 2);
    }

    #[test]
    fn node_of_gate_lookup() {
        let mut c = Circuit::new(3);
        c.cx(0, 1); // gate 0: remote
        c.h(2); // gate 1
        c.cx(1, 2); // gate 2: remote
        let p = Placement::new(vec![QpuId::new(0), QpuId::new(1), QpuId::new(2)]);
        let rd = RemoteDag::new(&c, &p, &cloud3());
        assert_eq!(rd.node_of_gate(0), Some(0));
        assert_eq!(rd.node_of_gate(2), Some(1));
        assert_eq!(rd.node_of_gate(1), None);
    }

    #[test]
    fn parallel_remote_gates_independent() {
        // Two remote gates on disjoint qubit pairs: no edge between them.
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        let p = Placement::new(vec![
            QpuId::new(0),
            QpuId::new(1),
            QpuId::new(1),
            QpuId::new(2),
        ]);
        let rd = RemoteDag::new(&c, &p, &cloud3());
        assert_eq!(rd.node_count(), 2);
        assert_eq!(rd.dag().edge_count(), 0);
    }
}
