//! Multi-tenant demo: a batch of mixed circuits shares one quantum
//! cloud; compare CloudQC's batch ordering against FIFO and the BFS
//! placement variant (the paper's §VI.D experiment in miniature).
//!
//! ```text
//! cargo run --release --example multi_tenant_cloud
//! ```

use cloudqc::circuit::generators::catalog;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::placement::{CloudQcBfsPlacement, CloudQcPlacement, PlacementAlgorithm};
use cloudqc::core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::Workload;
use cloudqc::sim::metrics::Summary;

fn main() {
    let cloud = CloudBuilder::paper_default(42).build();
    // Eight tenants submit jobs of very different shapes at t = 0.
    let batch: Vec<_> = [
        "qft_n63",
        "qugan_n71",
        "knn_n67",
        "adder_n64",
        "multiplier_n45",
        "ghz_n127",
        "bv_n70",
        "qugan_n39",
    ]
    .iter()
    .map(|n| catalog::by_name(n).expect("catalog circuit"))
    .collect();
    println!(
        "batch of {} jobs, {} qubits total, on a {}-qubit cloud\n",
        batch.len(),
        batch.iter().map(|c| c.num_qubits()).sum::<usize>(),
        cloud.total_computing_capacity()
    );

    let variants: Vec<(&str, Box<dyn PlacementAlgorithm>, AdmissionPolicy)> = vec![
        (
            "CloudQC",
            Box::new(CloudQcPlacement::default()),
            AdmissionPolicy::default(),
        ),
        (
            "CloudQC-BFS",
            Box::new(CloudQcBfsPlacement::default()),
            AdmissionPolicy::default(),
        ),
        (
            "CloudQC-FIFO",
            Box::new(CloudQcPlacement::default()),
            AdmissionPolicy::Backfill,
        ),
    ];
    let workload = Workload::batch(batch);
    println!(
        "{:<13} {:>12} {:>12} {:>12} {:>12}",
        "variant", "mean JCT", "median JCT", "p95 JCT", "makespan"
    );
    for (name, algo, admission) in &variants {
        let run = ServiceBuilder::new(&cloud, algo.as_ref(), &CloudQcScheduler, 7)
            .admission(*admission)
            .run(&workload)
            .expect("batch completes");
        assert!(run.rejected.is_empty(), "{name}: {:?}", run.rejected);
        let jcts: Vec<f64> = run
            .completion_times()
            .iter()
            .map(|t| t.as_ticks() as f64)
            .collect();
        let summary = Summary::of(&jcts).expect("non-empty batch");
        println!(
            "{:<13} {:>12.0} {:>12.0} {:>12.0} {:>12}",
            name,
            summary.mean,
            summary.p50,
            summary.p95,
            run.makespan.as_ticks()
        );
    }
    println!("\nJCT is measured from batch arrival (t = 0), so it includes queueing.");
}
