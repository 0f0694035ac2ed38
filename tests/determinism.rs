//! Determinism regression tests.
//!
//! The executor's contract (exec.rs) is FIFO event ordering plus
//! seeded, forked RNG streams: the same inputs and seed must reproduce
//! the same `JobResult` byte for byte, run after run. These tests guard
//! that contract for both a single job and a multi-tenant batch run,
//! across every scheduler.

use cloudqc::circuit::generators::catalog;
use cloudqc::cloud::{Cloud, CloudBuilder};
use cloudqc::core::placement::{CloudQcPlacement, PlacementAlgorithm};
use cloudqc::core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc::core::schedule::{
    AverageScheduler, CloudQcScheduler, GreedyScheduler, RandomScheduler, Scheduler,
};
use cloudqc::core::simulate_job;
use cloudqc::core::workload::Workload;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(CloudQcScheduler),
        Box::new(GreedyScheduler),
        Box::new(AverageScheduler),
        Box::new(RandomScheduler),
    ]
}

/// A small cloud that forces remote gates and communication contention.
fn contended_cloud(seed: u64) -> Cloud {
    CloudBuilder::new(6)
        .computing_qubits(8)
        .communication_qubits(2)
        .random_topology(0.4, seed)
        .build()
}

#[test]
fn simulate_job_is_deterministic_for_every_scheduler() {
    let cloud = contended_cloud(11);
    let circuit = catalog::by_name("knn_n19").expect("catalog circuit");
    let placement = CloudQcPlacement::default()
        .place(&circuit, &cloud, &cloud.status(), 5)
        .expect("cloud has capacity");
    assert!(
        placement.used_qpus().len() > 1,
        "test needs a distributed placement to exercise EPR rounds"
    );
    for sched in schedulers() {
        let a = simulate_job(&circuit, &placement, &cloud, sched.as_ref(), 99);
        let b = simulate_job(&circuit, &placement, &cloud, sched.as_ref(), 99);
        assert_eq!(a, b, "{} nondeterministic", sched.name());
        // Byte-identical, not merely `==`:
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", sched.name());
        assert!(a.remote_gates > 0, "placement induced no remote gates");
    }
}

#[test]
fn simulate_job_seed_actually_matters() {
    // Guards against an accidentally ignored seed: with stochastic EPR
    // generation, two far-apart seeds almost surely differ in at least
    // one of these draws.
    let cloud = contended_cloud(11);
    let circuit = catalog::by_name("knn_n19").expect("catalog circuit");
    let placement = CloudQcPlacement::default()
        .place(&circuit, &cloud, &cloud.status(), 5)
        .expect("cloud has capacity");
    let distinct = (0..16u64)
        .map(|s| simulate_job(&circuit, &placement, &cloud, &CloudQcScheduler, s).epr_rounds)
        .collect::<std::collections::HashSet<_>>();
    assert!(
        distinct.len() > 1,
        "16 different seeds produced identical EPR round counts"
    );
}

#[test]
fn batch_run_is_deterministic_for_every_scheduler() {
    let cloud = contended_cloud(23);
    let batch = Workload::batch(
        ["qft_n13", "ghz_n16", "bv_n12", "ising_n14", "qugan_n11"]
            .iter()
            .map(|name| catalog::by_name(name).expect("catalog circuit")),
    );
    let placement = CloudQcPlacement::default();
    for sched in schedulers() {
        let builder = ServiceBuilder::new(&cloud, &placement, sched.as_ref(), 7);
        let a = builder.run(&batch).expect("batch fits");
        let b = builder.run(&batch).expect("batch fits");
        assert_eq!(a, b, "{} nondeterministic", sched.name());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", sched.name());
        assert_eq!(a.outcomes.len(), batch.len());
    }
}

#[test]
fn batch_run_fifo_ordering_is_deterministic() {
    // FIFO exercises the admission queue differently from the default
    // metric ordering; both must reproduce exactly.
    let cloud = contended_cloud(31);
    let batch = Workload::batch(
        ["adder_n10", "qft_n11", "cat_n12"]
            .iter()
            .map(|name| catalog::by_name(name).expect("catalog circuit")),
    );
    let run = |seed: u64| {
        ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &RandomScheduler, seed)
            .admission(AdmissionPolicy::Backfill)
            .run(&batch)
            .expect("batch fits")
    };
    assert_eq!(run(3), run(3));
    assert_eq!(run(4), run(4));
}
