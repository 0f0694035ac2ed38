//! Gate dependency DAGs and front-layer tracking.
//!
//! The paper (§V.B "Preprocessing") builds a DAG per circuit in which
//! each gate depends on the previous gate touching each of its qubits;
//! the *front layer* is "the set of all gates that have no unexecuted
//! predecessors" (§II). Both the placement time estimator and the
//! network scheduler consume this structure.

use crate::circuit::Circuit;
use cloudqc_graph::DiGraph;

/// Builds the gate dependency DAG: node `i` is `circuit.gates()[i]`, and
/// an edge `i -> j` means gate `j` is the next gate after `i` on some
/// shared qubit.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::{Circuit, dag::gate_dag};
///
/// let mut c = Circuit::new(2);
/// c.h(0);        // gate 0
/// c.cx(0, 1);    // gate 1: depends on 0
/// c.measure(1);  // gate 2: depends on 1
/// let d = gate_dag(&c);
/// assert_eq!(d.successors(0), &[1]);
/// assert_eq!(d.successors(1), &[2]);
/// ```
pub fn gate_dag(circuit: &Circuit) -> DiGraph {
    let mut dag = DiGraph::new(circuit.gate_count());
    let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for (i, gate) in circuit.gates().iter().enumerate() {
        for q in gate.qubits() {
            if let Some(prev) = last_on_qubit[q.index()] {
                dag.add_edge(prev, i);
            }
            last_on_qubit[q.index()] = Some(i);
        }
    }
    dag
}

/// Incremental front-layer tracker over a DAG.
///
/// Seeds with the DAG sources; [`FrontTracker::complete`] retires a
/// ready node and returns its newly-ready successors. This mirrors the
/// execution loop of the paper's Algorithm 3 ("update front layer and
/// DAG based on node execution").
///
/// # Example
///
/// ```
/// use cloudqc_circuit::{Circuit, dag::{gate_dag, FrontTracker}};
///
/// let mut c = Circuit::new(2);
/// c.h(0);
/// c.h(1);
/// c.cx(0, 1);
/// let dag = gate_dag(&c);
/// let mut front = FrontTracker::new(&dag);
/// assert_eq!(front.ready(), &[0, 1]); // both H gates
/// front.complete(0);
/// assert_eq!(front.ready(), &[1]);    // cx still blocked by gate 1
/// front.complete(1);
/// assert_eq!(front.ready(), &[2]);
/// ```
#[derive(Clone, Debug)]
pub struct FrontTracker {
    dag: DiGraph,
    pending_preds: Vec<usize>,
    ready: Vec<usize>,
    remaining: usize,
}

impl FrontTracker {
    /// Creates a tracker whose initial front layer is the DAG's sources.
    pub fn new(dag: &DiGraph) -> Self {
        let n = dag.node_count();
        let pending_preds: Vec<usize> = (0..n).map(|u| dag.in_degree(u)).collect();
        let ready = dag.sources();
        FrontTracker {
            dag: dag.clone(),
            pending_preds,
            ready,
            remaining: n,
        }
    }

    /// The current front layer (nodes with no unexecuted predecessors),
    /// in ascending node order.
    pub fn ready(&self) -> &[usize] {
        &self.ready
    }

    /// Whether all nodes have been completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Marks `node` complete and returns the successors that became
    /// ready.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not currently in the front layer.
    pub fn complete(&mut self, node: usize) -> Vec<usize> {
        let pos = self
            .ready
            .iter()
            .position(|&u| u == node)
            .unwrap_or_else(|| panic!("node {node} is not ready"));
        self.ready.remove(pos);
        self.remaining -= 1;
        let mut newly = Vec::new();
        for &succ in self.dag.successors(node) {
            self.pending_preds[succ] -= 1;
            if self.pending_preds[succ] == 0 {
                newly.push(succ);
            }
        }
        // Keep `ready` sorted for deterministic iteration.
        for &u in &newly {
            let idx = self.ready.partition_point(|&r| r < u);
            self.ready.insert(idx, u);
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_chains_gates_on_same_qubit() {
        let mut c = Circuit::new(1);
        c.h(0).x(0).measure(0);
        let d = gate_dag(&c);
        assert_eq!(d.edge_count(), 2);
        assert_eq!(d.successors(0), &[1]);
        assert_eq!(d.successors(1), &[2]);
    }

    #[test]
    fn dag_joins_at_two_qubit_gates() {
        // Fig. 1 of the paper: a CX must wait for the last gates on both
        // of its qubits.
        let mut c = Circuit::new(2);
        c.h(0); // 0
        c.h(1); // 1
        c.cx(0, 1); // 2
        let d = gate_dag(&c);
        assert_eq!(d.predecessors(2).len(), 2);
        assert!(d.is_acyclic());
    }

    #[test]
    fn dag_is_always_acyclic() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).cx(0, 2).measure_all();
        assert!(gate_dag(&c).is_acyclic());
    }

    #[test]
    fn front_layer_of_vqe_example() {
        // The paper's Fig. 1 observation: the first H gates form the
        // front layer.
        let mut c = Circuit::new(4);
        c.h(0); // 0
        c.h(2); // 1
        c.h(3); // 2
        c.cx(1, 2); // 3: depends on gate 1 only (qubit 1 untouched before)
        let d = gate_dag(&c);
        let f = FrontTracker::new(&d);
        assert_eq!(f.ready(), &[0, 1, 2]);
    }

    #[test]
    fn tracker_completes_everything() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let d = gate_dag(&c);
        let mut f = FrontTracker::new(&d);
        let mut completed = 0;
        while !f.is_done() {
            let node = f.ready()[0];
            f.complete(node);
            completed += 1;
        }
        assert_eq!(completed, c.gate_count());
    }

    #[test]
    #[should_panic(expected = "is not ready")]
    fn completing_blocked_node_panics() {
        let mut c = Circuit::new(1);
        c.h(0).x(0);
        let d = gate_dag(&c);
        let mut f = FrontTracker::new(&d);
        f.complete(1);
    }

    #[test]
    fn empty_circuit_tracker_done() {
        let c = Circuit::new(2);
        let f = FrontTracker::new(&gate_dag(&c));
        assert!(f.is_done());
        assert!(f.ready().is_empty());
    }
}
