//! Scheduler contract tests: no QPU's communication qubits are ever
//! oversubscribed, for all four allocation policies.
//!
//! Two layers of coverage:
//!
//! 1. A wrapper [`Scheduler`] intercepts **every allocation round** of
//!    a real, contended multi-tenant run and checks
//!    [`validate_allocations`] on it.
//! 2. A property test hammers each policy directly with arbitrary
//!    request sets and availability vectors.

use std::sync::atomic::{AtomicUsize, Ordering};

use cloudqc::circuit::generators::catalog;
use cloudqc::cloud::{CloudBuilder, QpuId};
use cloudqc::core::placement::CloudQcPlacement;
use cloudqc::core::runtime::ServiceBuilder;
use cloudqc::core::schedule::{
    validate_allocations, Allocation, AverageScheduler, CloudQcScheduler, GreedyScheduler,
    RandomScheduler, RemoteRequest, Scheduler,
};
use cloudqc::core::workload::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(CloudQcScheduler),
        Box::new(GreedyScheduler),
        Box::new(AverageScheduler),
        Box::new(RandomScheduler),
    ]
}

/// Delegates to `inner`, validating every round's allocations.
struct ValidatingScheduler<'a> {
    inner: &'a dyn Scheduler,
    rounds: AtomicUsize,
    contended_rounds: AtomicUsize,
}

impl<'a> ValidatingScheduler<'a> {
    fn new(inner: &'a dyn Scheduler) -> Self {
        ValidatingScheduler {
            inner,
            rounds: AtomicUsize::new(0),
            contended_rounds: AtomicUsize::new(0),
        }
    }
}

impl Scheduler for ValidatingScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        let allocations = self.inner.allocate(requests, available, rng);
        if let Err(violation) = validate_allocations(requests, available, &allocations) {
            panic!(
                "{} violated the allocation contract in round {}: {}",
                self.inner.name(),
                self.rounds.load(Ordering::Relaxed),
                violation
            );
        }
        self.rounds.fetch_add(1, Ordering::Relaxed);
        // A round is contended when demand (one pair per request
        // endpoint, at minimum) could exceed some QPU's free budget.
        let mut wanted = vec![0usize; available.len()];
        for r in requests {
            wanted[r.a.index()] += 1;
            wanted[r.b.index()] += 1;
        }
        if wanted.iter().zip(available).any(|(w, a)| w > a) {
            self.contended_rounds.fetch_add(1, Ordering::Relaxed);
        }
        allocations
    }
}

#[test]
fn no_scheduler_oversubscribes_in_a_contended_multi_tenant_run() {
    // Scarce communication qubits (1 per QPU) + five concurrent jobs
    // spread over 5 QPUs ⇒ plenty of rounds where requests outnumber
    // free pairs.
    let cloud = CloudBuilder::new(5)
        .computing_qubits(8)
        .communication_qubits(1)
        .random_topology(0.5, 17)
        .build();
    let batch: Vec<_> = ["qft_n13", "knn_n13", "ghz_n16", "ising_n14", "adder_n12"]
        .iter()
        .map(|name| catalog::by_name(name).expect("catalog circuit"))
        .collect();
    for sched in schedulers() {
        let validating = ValidatingScheduler::new(sched.as_ref());
        let run = ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &validating, 13)
            .run(&Workload::batch(batch.clone()))
            .expect("batch fits");
        assert_eq!(run.outcomes.len(), batch.len(), "{}", sched.name());
        assert!(
            validating.rounds.load(Ordering::Relaxed) > 0,
            "{}: run never reached the scheduler",
            sched.name()
        );
        assert!(
            validating.contended_rounds.load(Ordering::Relaxed) > 0,
            "{}: run was never contended — test lost its teeth",
            sched.name()
        );
    }
}

/// Strategy: `(availability per QPU, requests)` over a 6-QPU cloud.
fn round_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<RemoteRequest>)> {
    let avail = proptest::collection::vec(0usize..5, 6..7);
    let reqs = proptest::collection::vec(
        (0usize..6, 0usize..6, 0usize..60).prop_map(|(a, b, priority)| (a, b, priority)),
        1..24,
    );
    (avail, reqs).prop_map(|(avail, raw)| {
        let requests: Vec<RemoteRequest> = raw
            .into_iter()
            .enumerate()
            .filter(|(_, (a, b, _))| a != b)
            .map(|(key, (a, b, priority))| RemoteRequest {
                key: key as u64,
                a: QpuId::new(a),
                b: QpuId::new(b),
                priority,
            })
            .collect();
        (avail, requests)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_scheduler_satisfies_the_contract_on_arbitrary_rounds(
        (available, requests) in round_strategy(),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        for sched in schedulers() {
            let mut rng = StdRng::seed_from_u64(seed);
            let allocations = sched.allocate(&requests, &available, &mut rng);
            let verdict = validate_allocations(&requests, &available, &allocations);
            prop_assert!(
                verdict.is_ok(),
                "{} violated the contract: {}",
                sched.name(),
                verdict.unwrap_err()
            );
        }
    }
}
