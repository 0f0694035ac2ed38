//! Multi-tenant runtime integration tests: conservation, queueing, and
//! variant behaviour under contention.

use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::batch::{job_metric, order_jobs, OrderingPolicy};
use cloudqc::core::config::BatchWeights;
use cloudqc::core::placement::{CloudQcBfsPlacement, CloudQcPlacement};
use cloudqc::core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::Workload;
use cloudqc::sim::Tick;

fn batch(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect()
}

#[test]
fn every_job_completes_exactly_once_under_contention() {
    // 8 jobs × up to 127 qubits on a 400-qubit cloud: heavy queueing.
    let cloud = CloudBuilder::paper_default(1).build();
    let jobs = batch(&[
        "ghz_n127",
        "qugan_n71",
        "knn_n67",
        "adder_n64",
        "cat_n65",
        "bv_n70",
        "qugan_n39",
        "qft_n29",
    ]);
    let run = ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &CloudQcScheduler, 3)
        .run(&Workload::batch(jobs.clone()))
        .unwrap();
    assert_eq!(run.outcomes.len(), jobs.len());
    let mut seen = vec![false; jobs.len()];
    for o in &run.outcomes {
        assert!(!seen[o.job], "job {} completed twice", o.job);
        seen[o.job] = true;
        assert!(o.finished_at >= o.admitted_at);
        assert!(o.finished_at <= run.makespan);
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn jct_includes_queueing_delay() {
    // A cloud that can hold only one job at a time.
    let cloud = CloudBuilder::new(4)
        .computing_qubits(10)
        .ring_topology()
        .build();
    let jobs = batch(&["ghz_n30", "ghz_n30", "ghz_n30"]);
    let run = ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &CloudQcScheduler, 5)
        .admission(AdmissionPolicy::Backfill)
        .run(&Workload::batch(jobs))
        .unwrap();
    let mut admitted: Vec<Tick> = run.outcomes.iter().map(|o| o.admitted_at).collect();
    admitted.sort();
    // With 30-qubit jobs on a 40-qubit cloud, jobs serialize: at most
    // one admission at t = 0.
    assert_eq!(admitted[0], Tick::ZERO);
    assert!(admitted[1] > Tick::ZERO);
    assert!(admitted[2] >= admitted[1]);
    // And completion time from arrival strictly exceeds the service
    // time for the queued jobs.
    let max_jct = run
        .outcomes
        .iter()
        .map(|o| o.completion_time)
        .max()
        .unwrap();
    assert!(max_jct >= admitted[2]);
}

#[test]
fn all_three_variants_complete_the_same_batch() {
    let cloud = CloudBuilder::paper_default(7).build();
    let workload = Workload::batch(batch(&["qugan_n39", "qft_n29", "adder_n64", "knn_n67"]));
    let (cloudqc, bfs) = (CloudQcPlacement::default(), CloudQcBfsPlacement::default());
    for (name, builder) in [
        (
            "CloudQC",
            ServiceBuilder::new(&cloud, &cloudqc, &CloudQcScheduler, 9),
        ),
        (
            "CloudQC-BFS",
            ServiceBuilder::new(&cloud, &bfs, &CloudQcScheduler, 9),
        ),
        (
            "CloudQC-FIFO",
            ServiceBuilder::new(&cloud, &cloudqc, &CloudQcScheduler, 9)
                .admission(AdmissionPolicy::Backfill),
        ),
    ] {
        let run = builder
            .run(&workload)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.outcomes.len(), 4, "{name}");
        assert!(run.makespan > Tick::ZERO, "{name}");
    }
}

#[test]
fn metric_ordering_prefers_dense_wide_deep_jobs() {
    let jobs = batch(&["bv_n70", "qft_n63", "ghz_n127", "vqe_n4"]);
    let w = BatchWeights::default();
    let order = order_jobs(&jobs, OrderingPolicy::Metric(w));
    // qft_n63 has by far the highest density; vqe_n4 is tiny.
    assert_eq!(order[0], 1);
    assert_eq!(order[3], 3);
    // Metric is consistent with the ordering.
    for pair in order.windows(2) {
        assert!(job_metric(&jobs[pair[0]], &w) >= job_metric(&jobs[pair[1]], &w));
    }
}

#[test]
fn batch_outcome_is_deterministic() {
    let cloud = CloudBuilder::paper_default(21).build();
    let jobs = batch(&["qugan_n39", "ising_n34", "bv_n70"]);
    let go = || {
        ServiceBuilder::new(&cloud, &CloudQcPlacement::default(), &CloudQcScheduler, 31)
            .run(&Workload::batch(jobs.clone()))
            .unwrap()
    };
    assert_eq!(go(), go());
}
