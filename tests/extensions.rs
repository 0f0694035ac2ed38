//! Integration tests for the extensions beyond the paper's evaluation:
//! link reliability (paper §V.B future-work remark), heterogeneous
//! QPUs, and incoming-job mode.

use cloudqc::circuit::generators::catalog;
use cloudqc::cloud::{CloudBuilder, Qpu, QpuId};
use cloudqc::core::placement::{CloudQcPlacement, PlacementAlgorithm};
use cloudqc::core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::simulate_job;
use cloudqc::core::workload::{poisson_arrivals, Workload};
use cloudqc::sim::Tick;

#[test]
fn poor_links_slow_jobs_down() {
    let circuit = catalog::by_name("qugan_n39").unwrap();
    let reps = 8;
    let mean_jct = |reliability: Option<(f64, f64)>| -> f64 {
        let mut total = 0.0;
        for rep in 0..reps {
            let mut builder = CloudBuilder::paper_default(rep);
            if let Some((lo, hi)) = reliability {
                builder = builder.link_reliability_range(lo, hi, rep);
            }
            let cloud = builder.build();
            let p = CloudQcPlacement::default()
                .place(&circuit, &cloud, &cloud.status(), rep)
                .unwrap();
            total += simulate_job(&circuit, &p, &cloud, &CloudQcScheduler, rep)
                .completion_time
                .as_ticks() as f64;
        }
        total / reps as f64
    };
    let perfect = mean_jct(None);
    let poor = mean_jct(Some((0.3, 0.5)));
    assert!(
        poor > perfect * 1.1,
        "poor links ({poor}) should be >10% slower than perfect ({perfect})"
    );
}

#[test]
fn heterogeneous_cloud_respects_per_qpu_capacity() {
    // One big QPU and several small ones: a 30-qubit circuit must put at
    // most 8 qubits on each small QPU.
    let qpus = vec![
        Qpu::new(40, 5),
        Qpu::new(8, 5),
        Qpu::new(8, 5),
        Qpu::new(8, 5),
    ];
    let cloud = CloudBuilder::new(4)
        .ring_topology()
        .heterogeneous_qpus(qpus.clone())
        .build();
    let circuit = catalog::by_name("ghz_n50").unwrap();
    let p = CloudQcPlacement::default()
        .place(&circuit, &cloud, &cloud.status(), 3)
        .unwrap();
    let demand = p.qpu_demand(4);
    for (i, &d) in demand.iter().enumerate() {
        assert!(
            d <= qpus[i].computing_qubits(),
            "QPU{i}: demand {d} > capacity {}",
            qpus[i].computing_qubits()
        );
    }
    assert_eq!(demand.iter().sum::<usize>(), 50);
}

#[test]
fn incoming_mode_with_poisson_arrivals_completes() {
    let cloud = CloudBuilder::paper_default(5).build();
    let pool = ["qugan_n39", "ising_n34", "bv_n70"];
    let arrivals = poisson_arrivals(6, 2_000.0, 9);
    let jobs: Vec<_> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &t)| (catalog::by_name(pool[i % pool.len()]).unwrap(), t))
        .collect();
    let run = ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &CloudQcScheduler, 9)
        .admission(AdmissionPolicy::Backfill)
        .run(&Workload::trace(jobs))
        .unwrap();
    assert_eq!(run.outcomes.len(), 6);
    for o in &run.outcomes {
        assert!(o.admitted_at >= o.arrived_at);
        assert!(o.finished_at > o.arrived_at);
    }
    // Makespan extends past the last arrival.
    assert!(run.makespan >= *arrivals.last().unwrap());
}

#[test]
fn reliability_extension_keeps_placement_feasible() {
    // Community detection with quality-scaled weights must still honor
    // capacity.
    let cloud = CloudBuilder::paper_default(7)
        .link_reliability_range(0.4, 1.0, 7)
        .build();
    let circuit = catalog::by_name("knn_n67").unwrap();
    let status = cloud.status();
    let p = CloudQcPlacement::default()
        .place(&circuit, &cloud, &status, 2)
        .unwrap();
    assert!(p.fits(&status));
    // Reliability values are genuinely heterogeneous.
    let mut distinct = std::collections::BTreeSet::new();
    for a in 0..cloud.qpu_count() {
        for b in 0..cloud.qpu_count() {
            let q = cloud.bottleneck_reliability(QpuId::new(a), QpuId::new(b));
            distinct.insert((q * 1e9) as u64);
        }
    }
    assert!(distinct.len() > 2);
}

#[test]
fn zero_arrival_time_jobs_behave_like_batch() {
    let cloud = CloudBuilder::paper_default(11).build();
    let jobs = vec![
        (catalog::by_name("ising_n34").unwrap(), Tick::ZERO),
        (catalog::by_name("qugan_n39").unwrap(), Tick::ZERO),
    ];
    let run = ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &CloudQcScheduler, 1)
        .admission(AdmissionPolicy::Backfill)
        .run(&Workload::trace(jobs))
        .unwrap();
    assert_eq!(run.outcomes.len(), 2);
    for o in &run.outcomes {
        assert_eq!(o.arrived_at, Tick::ZERO);
        assert_eq!(o.admitted_at, Tick::ZERO); // both fit an empty cloud
    }
}
