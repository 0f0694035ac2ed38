//! Resource-conservation property tests for the runtime layer.
//!
//! After any runtime run — batch or open-arrival, with and without
//! path reservation — every QPU's communication-qubit pool and
//! computing-qubit pool must be back at their initial values: EPR
//! rounds return their pairs and station holds, completions release
//! their placements. A leak in either direction (lost capacity or
//! double release) breaks long-running service.

use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudBuilder, QpuId};
use cloudqc::core::placement::{CloudQcPlacement, PlacementAlgorithm, RandomPlacement};
use cloudqc::core::runtime::{AdmissionPolicy, LoadShedPolicy, RunReport, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::Workload;
use cloudqc::core::Executor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A pool of small catalog circuits, selected by seed.
fn circuit_pool(selector: u64) -> Vec<Circuit> {
    let names = [
        "vqe_n4",
        "qft_n13",
        "ghz_n16",
        "bv_n12",
        "ising_n14",
        "qugan_n11",
    ];
    let mut picked: Vec<Circuit> = Vec::new();
    let mut rng = StdRng::seed_from_u64(selector);
    for _ in 0..3 {
        let name = names[rng.random_range(0..names.len())];
        picked.push(catalog::by_name(name).expect("catalog circuit"));
    }
    picked
}

fn contended_cloud(seed: u64) -> Cloud {
    CloudBuilder::new(5)
        .computing_qubits(12)
        .communication_qubits(2)
        .random_topology(0.5, seed)
        .build()
}

fn assert_conserved(cloud: &Cloud, report: &RunReport) {
    for i in 0..cloud.qpu_count() {
        let qpu = cloud.qpu(QpuId::new(i));
        assert_eq!(
            report.final_free_computing[i],
            qpu.computing_qubits(),
            "QPU{i} leaked computing qubits"
        );
        assert_eq!(
            report.final_free_communication[i],
            qpu.communication_qubits(),
            "QPU{i} leaked communication qubits"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch runs conserve both resource pools under every admission
    /// policy, with and without path reservation.
    #[test]
    fn batch_runs_conserve_resources(
        seed in any::<u64>(),
        reservation in any::<bool>(),
        policy_pick in 0u8..3,
    ) {
        let cloud = contended_cloud(seed);
        let placement = CloudQcPlacement::default();
        let policy = match policy_pick {
            0 => AdmissionPolicy::Fcfs,
            1 => AdmissionPolicy::Backfill,
            _ => AdmissionPolicy::default(),
        };
        let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .admission(policy)
            .path_reservation(reservation)
            .run(&Workload::batch(circuit_pool(seed)))
            .unwrap();
        prop_assert!(report.rejected.is_empty() || !report.outcomes.is_empty() || report.makespan == cloudqc::sim::Tick::ZERO);
        assert_conserved(&cloud, &report);
    }

    /// Open-arrival (Poisson) runs conserve both resource pools.
    #[test]
    fn open_arrival_runs_conserve_resources(
        seed in any::<u64>(),
        reservation in any::<bool>(),
        mean_gap in 100.0f64..5_000.0,
    ) {
        let cloud = contended_cloud(seed);
        let placement = CloudQcPlacement::default();
        let pool = circuit_pool(seed);
        let workload = Workload::poisson(&pool, 5, mean_gap, seed);
        let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .path_reservation(reservation)
            .run(&workload)
            .unwrap();
        assert_conserved(&cloud, &report);
        // Every job is accounted for: completed or rejected.
        prop_assert_eq!(report.outcomes.len() + report.rejected.len(), workload.len());
    }

    /// Preemptive runs conserve both pools and account for every job.
    /// Deadline-free elephants start first; SLA-critical mice land
    /// mid-flight, suspending the elephants' remote gates (which must
    /// return their communication pairs and later reclaim them), with
    /// admission-time load shedding sometimes rejecting arrivals on
    /// top. No matter how suspension, resumption, shedding, and
    /// completion interleave, nothing leaks and no job is lost or
    /// double-counted.
    #[test]
    fn preemptive_runs_conserve_resources(
        seed in any::<u64>(),
        mean_gap in 50.0f64..2_000.0,
        sla in 500u64..20_000,
        shed_depth in 0usize..6,
    ) {
        let cloud = contended_cloud(seed);
        let placement = CloudQcPlacement::default();
        let elephants = Workload::batch(vec![
            catalog::by_name("ghz_n16").unwrap(),
            catalog::by_name("qft_n13").unwrap(),
        ]);
        let pool = circuit_pool(seed);
        let mice = Workload::poisson(&pool, 5, mean_gap, seed).with_uniform_sla(sla);
        let mut builder = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .preemption(true);
        if shed_depth > 0 {
            builder = builder.load_shedding(LoadShedPolicy::queue_depth(shed_depth));
        }
        let mut svc = builder.build();
        svc.submit_workload(&elephants);
        svc.submit_workload(&mice);
        let report = svc.drive().unwrap();
        assert_conserved(&cloud, &report);
        let total = elephants.len() + mice.len();
        prop_assert_eq!(report.outcomes.len() + report.rejected.len(), total);
        // Every job appears exactly once across outcomes and rejections.
        let mut ids: Vec<usize> = report
            .outcomes
            .iter()
            .map(|o| o.job)
            .chain(report.rejected.iter().map(|r| r.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), total);
    }

    /// The bare executor's communication pool balances even for random
    /// (badly distributed) placements that maximize remote traffic.
    #[test]
    fn executor_comm_pool_balances_for_random_placements(
        seed in any::<u64>(),
        jobs in 1usize..4,
    ) {
        let cloud = contended_cloud(seed);
        let pool = circuit_pool(seed);
        let mut exec = Executor::new(&cloud, &CloudQcScheduler, seed);
        for j in 0..jobs {
            let circuit = &pool[j % pool.len()];
            let p = RandomPlacement
                .place(circuit, &cloud, &cloud.status(), seed ^ j as u64)
                .unwrap();
            exec.try_add_job(circuit, &p).expect("job admitted");
        }
        exec.run_to_completion();
        let capacities: Vec<usize> = (0..cloud.qpu_count())
            .map(|i| cloud.qpu(QpuId::new(i)).communication_qubits())
            .collect();
        prop_assert_eq!(exec.comm_free(), &capacities[..]);
    }
}
