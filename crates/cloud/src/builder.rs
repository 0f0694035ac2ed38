//! Builder for [`Cloud`] instances.

use crate::cloud::Cloud;
use crate::epr::EprModel;
use crate::latency::LatencyModel;
use crate::qpu::Qpu;
use cloudqc_graph::random::{gnp_connected, line, ring};
use cloudqc_graph::Graph;

#[derive(Clone, Debug)]
enum TopologyKind {
    Random { p: f64, seed: u64 },
    Ring,
    Line,
}

/// Builds a [`Cloud`]. Defaults follow the paper's evaluation setting
/// (§VI.A): homogeneous QPUs with 20 computing + 5 communication qubits
/// and a connected random topology with edge probability 0.3.
///
/// # Example
///
/// ```
/// use cloudqc_cloud::CloudBuilder;
///
/// // The paper's default cloud.
/// let cloud = CloudBuilder::paper_default(42).build();
/// assert_eq!(cloud.qpu_count(), 20);
///
/// // A custom ring cloud with bigger QPUs and flakier links.
/// let cloud = CloudBuilder::new(9)
///     .computing_qubits(30)
///     .communication_qubits(8)
///     .ring_topology()
///     .epr_success_prob(0.1)
///     .build();
/// assert_eq!(cloud.total_computing_capacity(), 270);
/// ```
#[derive(Clone, Debug)]
pub struct CloudBuilder {
    qpu_count: usize,
    computing: usize,
    communication: usize,
    topology: TopologyKind,
    epr: EprModel,
    reliability: Option<(f64, f64, u64)>,
    heterogeneous: Option<Vec<Qpu>>,
}

impl CloudBuilder {
    /// Starts a builder for `qpu_count` homogeneous QPUs.
    ///
    /// # Panics
    ///
    /// Panics if `qpu_count == 0`.
    pub fn new(qpu_count: usize) -> Self {
        assert!(qpu_count > 0, "a cloud needs at least one QPU");
        CloudBuilder {
            qpu_count,
            computing: 20,
            communication: 5,
            topology: TopologyKind::Random { p: 0.3, seed: 0 },
            epr: EprModel::default(),
            reliability: None,
            heterogeneous: None,
        }
    }

    /// The paper's default evaluation cloud: 20 QPUs, 20 computing and
    /// 5 communication qubits each, `G(20, 0.3)` topology with the given
    /// seed, EPR success probability 0.3.
    pub fn paper_default(seed: u64) -> Self {
        CloudBuilder::new(20).random_topology(0.3, seed)
    }

    /// Sets computing qubits per QPU.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn computing_qubits(mut self, n: usize) -> Self {
        assert!(n > 0, "QPUs need at least one computing qubit");
        self.computing = n;
        self
    }

    /// Sets communication qubits per QPU.
    pub fn communication_qubits(mut self, n: usize) -> Self {
        self.communication = n;
        self
    }

    /// Uses a connected Erdős–Rényi `G(n, p)` topology.
    ///
    /// # Panics
    ///
    /// Panics (on `build`) if `p` is outside `[0, 1]`.
    pub fn random_topology(mut self, p: f64, seed: u64) -> Self {
        self.topology = TopologyKind::Random { p, seed };
        self
    }

    /// Uses a ring topology.
    pub fn ring_topology(mut self) -> Self {
        self.topology = TopologyKind::Ring;
        self
    }

    /// Uses a line topology.
    pub fn line_topology(mut self) -> Self {
        self.topology = TopologyKind::Line;
        self
    }

    /// Sets the EPR per-attempt success probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn epr_success_prob(mut self, p: f64) -> Self {
        self.epr = EprModel::new(p);
        self
    }

    /// Uses per-QPU specifications instead of homogeneous capacities —
    /// real clouds mix QPU generations. Overrides
    /// [`CloudBuilder::computing_qubits`] /
    /// [`CloudBuilder::communication_qubits`].
    ///
    /// # Panics
    ///
    /// Panics (on `build`) if the list length differs from the QPU
    /// count.
    pub fn heterogeneous_qpus(mut self, qpus: Vec<Qpu>) -> Self {
        self.heterogeneous = Some(qpus);
        self
    }

    /// Gives every quantum link a random reliability sampled uniformly
    /// from `[lo, hi]` (the paper's §V.B link-reliability extension).
    /// End-to-end reliability between QPU pairs becomes the widest-path
    /// bottleneck and scales the EPR success probability.
    ///
    /// # Panics
    ///
    /// Panics if the range is not within `(0, 1]` or `lo > hi`.
    pub fn link_reliability_range(mut self, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(
            lo > 0.0 && hi <= 1.0 && lo <= hi,
            "reliability range must satisfy 0 < lo <= hi <= 1"
        );
        self.reliability = Some((lo, hi, seed));
        self
    }

    /// Assembles the cloud.
    ///
    /// # Panics
    ///
    /// Panics if a ring has fewer than 3 QPUs, or as the setters above
    /// say.
    pub fn build(self) -> Cloud {
        let n = self.qpu_count;
        let latency = LatencyModel::default();
        let topology = match self.topology {
            TopologyKind::Random { p, seed } => gnp_connected(n, p, seed),
            TopologyKind::Ring => ring(n),
            TopologyKind::Line => line(n),
        };
        let qpus = match self.heterogeneous {
            Some(list) => {
                assert_eq!(list.len(), n, "heterogeneous QPU list size mismatch");
                list
            }
            None => vec![Qpu::new(self.computing, self.communication); n],
        };
        match self.reliability {
            None => Cloud::from_parts(qpus, topology, latency, self.epr),
            Some((lo, hi, seed)) => {
                use rand::{RngExt, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x11ab);
                let mut weighted = Graph::new(n);
                for (u, v, _) in topology.edges() {
                    let q = if lo == hi {
                        lo
                    } else {
                        rng.random_range(lo..=hi)
                    };
                    weighted.add_edge(u, v, q);
                }
                Cloud::from_parts_with_reliability(qpus, weighted, latency, self.epr)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_graph::connectivity::is_connected;

    #[test]
    fn paper_default_shape() {
        let c = CloudBuilder::paper_default(1).build();
        assert_eq!(c.qpu_count(), 20);
        assert_eq!(c.total_computing_capacity(), 400);
        for i in 0..20 {
            assert_eq!(c.qpu(crate::QpuId::new(i)).communication_qubits(), 5);
        }
        assert!((c.epr().success_prob() - 0.3).abs() < 1e-12);
        assert!(is_connected(c.topology()));
    }

    #[test]
    fn deterministic_topology_for_seed() {
        let a = CloudBuilder::paper_default(9).build();
        let b = CloudBuilder::paper_default(9).build();
        assert_eq!(a.topology(), b.topology());
    }

    #[test]
    fn ring_and_line() {
        let ring = CloudBuilder::new(6).ring_topology().build();
        assert_eq!(ring.topology().edge_count(), 6);
        let line = CloudBuilder::new(6).line_topology().build();
        assert_eq!(line.topology().edge_count(), 5);
    }

    #[test]
    fn heterogeneous_qpus_override_defaults() {
        let c = CloudBuilder::new(3)
            .line_topology()
            .heterogeneous_qpus(vec![Qpu::new(10, 2), Qpu::new(30, 8), Qpu::new(20, 5)])
            .build();
        assert_eq!(c.total_computing_capacity(), 60);
        assert_eq!(c.qpu(crate::QpuId::new(1)).communication_qubits(), 8);
    }

    #[test]
    #[should_panic(expected = "heterogeneous QPU list")]
    fn heterogeneous_size_mismatch_rejected() {
        CloudBuilder::new(3)
            .line_topology()
            .heterogeneous_qpus(vec![Qpu::default(); 2])
            .build();
    }

    #[test]
    fn reliability_range_is_applied() {
        let c = CloudBuilder::new(6)
            .ring_topology()
            .link_reliability_range(0.5, 0.9, 3)
            .build();
        for u in 0..6 {
            for v in 0..6 {
                let q = c.bottleneck_reliability(crate::QpuId::new(u), crate::QpuId::new(v));
                let hi = if u == v { 1.0 } else { 0.9 };
                assert!((0.5..=hi).contains(&q), "({u},{v}) quality {q}");
            }
        }
        // Deterministic per seed.
        let d = CloudBuilder::new(6)
            .ring_topology()
            .link_reliability_range(0.5, 0.9, 3)
            .build();
        assert_eq!(
            c.bottleneck_reliability(crate::QpuId::new(0), crate::QpuId::new(3)),
            d.bottleneck_reliability(crate::QpuId::new(0), crate::QpuId::new(3))
        );
    }

    #[test]
    #[should_panic(expected = "reliability range")]
    fn bad_reliability_range_rejected() {
        CloudBuilder::new(3).link_reliability_range(0.9, 0.5, 0);
    }
}
