//! Open-arrival runtime demo: Poisson and bursty workloads through the
//! unified runtime with backfill admission, reporting the per-job
//! latency breakdown (queueing vs. EPR wait vs. compute), throughput
//! and utilization — the runtime layer's observability in one table.
//!
//! ```text
//! cargo run --release --example workload_replay
//! ```

use cloudqc::circuit::generators::catalog;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::placement::CloudQcPlacement;
use cloudqc::core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::Workload;

fn main() {
    let cloud = CloudBuilder::paper_default(42).build();
    let pool: Vec<_> = ["qugan_n39", "knn_n67", "adder_n64", "qft_n63", "ghz_n127"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect();
    let placement = CloudQcPlacement::default();

    // Two traffic shapes over the same job mix: steady Poisson arrivals
    // and three flash-crowd bursts.
    let scenarios = [
        ("poisson", Workload::poisson(&pool, 10, 4_000.0, 7)),
        ("bursty", Workload::bursty(&pool, 3, 4, 15_000.0, 7)),
    ];
    for (name, workload) in &scenarios {
        println!(
            "== {name}: {} jobs, {} qubits total, last arrival {} ==\n",
            workload.len(),
            workload.total_qubits(),
            workload.last_arrival()
        );
        let report = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7)
            .admission(AdmissionPolicy::Backfill)
            .run(workload)
            .expect("workload completes");

        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "job", "arrived", "JCT", "queueing", "EPR wait", "compute", "remote"
        );
        for o in &report.outcomes {
            println!(
                "{:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                o.job,
                o.arrived_at.as_ticks(),
                o.completion_time.as_ticks(),
                o.breakdown.queueing,
                o.breakdown.epr_wait,
                o.breakdown.compute,
                o.remote_gates,
            );
        }
        let mean = report.mean_breakdown().expect("non-empty run");
        let (q, e, c) = (
            mean.queueing / mean.total(),
            mean.epr_wait / mean.total(),
            mean.compute / mean.total(),
        );
        println!(
            "\nmean JCT {:.0} ticks = {:.0}% queueing + {:.0}% EPR wait + {:.0}% compute",
            mean.total(),
            100.0 * q,
            100.0 * e,
            100.0 * c
        );
        println!(
            "utilization {:.1}% of {} computing qubits over makespan {}",
            100.0 * report.utilization(cloud.total_computing_capacity()),
            cloud.total_computing_capacity(),
            report.makespan
        );
        let bucket = (report.makespan.as_ticks() / 8).max(1);
        let tp = report.throughput(bucket);
        let done: Vec<String> = tp.buckets().iter().map(|v| format!("{v:.0}")).collect();
        println!(
            "completions per {bucket}-tick bucket: [{}]\n",
            done.join(", ")
        );
    }
    println!("Queueing dominates under bursts (jobs pile up behind the wave), while");
    println!("EPR wait tracks each job's remote-gate count — the breakdown separates");
    println!("admission pressure from network pressure.");
}
