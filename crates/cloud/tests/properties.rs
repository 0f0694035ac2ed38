//! Property-based tests for the cloud model.

use cloudqc_cloud::{CloudBuilder, CloudStatus, EprModel, QpuId};
use proptest::prelude::*;

/// A random sequence of allocate/release operations.
#[derive(Clone, Debug)]
enum Op {
    Alloc(usize, usize),
    Release,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..4, 1usize..8, any::<bool>()).prop_map(|(qpu, n, alloc)| {
            if alloc {
                Op::Alloc(qpu, n)
            } else {
                Op::Release
            }
        }),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Free counts never go negative or exceed capacity, no matter the
    /// operation sequence; releases always pair with a prior allocation.
    #[test]
    fn status_invariants_hold(ops in ops_strategy()) {
        let caps = vec![10usize, 6, 8, 12];
        let mut status = CloudStatus::new(caps.clone());
        let mut held: Vec<(usize, usize)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(qpu, n) => {
                    let before = status.free_computing(QpuId::new(qpu));
                    match status.allocate_computing(QpuId::new(qpu), n) {
                        Ok(()) => {
                            held.push((qpu, n));
                            prop_assert_eq!(
                                status.free_computing(QpuId::new(qpu)),
                                before - n
                            );
                        }
                        Err(_) => {
                            // Failure must be harmless and justified.
                            prop_assert!(before < n);
                            prop_assert_eq!(status.free_computing(QpuId::new(qpu)), before);
                        }
                    }
                }
                Op::Release => {
                    if let Some((qpu, n)) = held.pop() {
                        status.release_computing(QpuId::new(qpu), n);
                    }
                }
            }
            for (i, &cap) in caps.iter().enumerate() {
                prop_assert!(status.free_computing(QpuId::new(i)) <= cap);
            }
        }
        // Releasing everything restores full capacity.
        for (qpu, n) in held.drain(..) {
            status.release_computing(QpuId::new(qpu), n);
        }
        prop_assert_eq!(status.total_free_computing(), caps.iter().sum::<usize>());
    }

    /// EPR round success probability is monotone in pairs and in p, and
    /// expected rounds is its reciprocal.
    #[test]
    fn epr_model_monotonicity(p in 0.01f64..=1.0, pairs in 1usize..10) {
        let m = EprModel::new(p);
        let prob = m.round_success_prob(pairs);
        prop_assert!(prob > 0.0 && prob <= 1.0);
        prop_assert!(m.round_success_prob(pairs + 1) >= prob);
        let expected = m.expected_rounds(pairs);
        prop_assert!((expected * prob - 1.0).abs() < 1e-9);
    }

    /// Distances are a metric (symmetric, zero diagonal, triangle
    /// inequality) on every random connected topology.
    #[test]
    fn distances_form_a_metric(seed in any::<u64>(), p in 0.1f64..0.9) {
        let cloud = CloudBuilder::new(12).random_topology(p, seed).build();
        let n = cloud.qpu_count();
        for a in 0..n {
            prop_assert_eq!(cloud.distance(QpuId::new(a), QpuId::new(a)), Some(0));
            for b in 0..n {
                let dab = cloud.distance(QpuId::new(a), QpuId::new(b)).unwrap();
                let dba = cloud.distance(QpuId::new(b), QpuId::new(a)).unwrap();
                prop_assert_eq!(dab, dba);
                for c in 0..n {
                    let dac = cloud.distance(QpuId::new(a), QpuId::new(c)).unwrap();
                    let dcb = cloud.distance(QpuId::new(c), QpuId::new(b)).unwrap();
                    prop_assert!(dab <= dac + dcb);
                }
            }
        }
    }

    /// Bottleneck reliabilities are symmetric, within the sampled range,
    /// and 1.0 on the diagonal.
    #[test]
    fn reliability_matrix_invariants(seed in any::<u64>()) {
        let cloud = CloudBuilder::new(8)
            .random_topology(0.4, seed)
            .link_reliability_range(0.5, 0.95, seed)
            .build();
        for a in 0..8 {
            prop_assert_eq!(
                cloud.bottleneck_reliability(QpuId::new(a), QpuId::new(a)),
                1.0
            );
            for b in 0..8 {
                let q = cloud.bottleneck_reliability(QpuId::new(a), QpuId::new(b));
                let r = cloud.bottleneck_reliability(QpuId::new(b), QpuId::new(a));
                prop_assert!((q - r).abs() < 1e-12);
                prop_assert!((0.5..=1.0).contains(&q));
            }
        }
    }
}
