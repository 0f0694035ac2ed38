//! The service layer in one demo: a resident `Service` serving traffic
//! in epochs over a persistent placement cache, streaming metrics
//! instead of retained outcomes, the admission-policy matrix over a
//! multi-tenant, SLA-tagged, heavy-tailed workload, and the continuous
//! clock — submissions landing on a live executor, SLA preemption
//! parking an elephant for critical mice, and admission-time load
//! shedding under a surge.
//!
//! ```text
//! cargo run --release --example service_demo
//! ```

use cloudqc::circuit::generators::{catalog, ghz::ghz};
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::placement::CloudQcPlacement;
use cloudqc::core::runtime::{AdmissionPolicy, LoadShedPolicy, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::Workload;
use cloudqc::sim::Tick;

fn main() {
    let cloud = CloudBuilder::paper_default(42).build();
    let placement = CloudQcPlacement::default();

    // ── 1. Sessions: epochs over one resident service ──────────────
    // The same diurnal trace drives three epochs. The placement cache
    // persists across epochs, so after the cold first epoch admission
    // answers from cache — outcomes never move, only the work drops.
    println!("== Sessions: three epochs of one diurnal trace through one Service ==\n");
    let pool: Vec<_> = ["qugan_n39", "knn_n67", "qft_n29", "adder_n64"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect();
    let diurnal = Workload::diurnal(&pool, 10, 4_000.0, 40_000, 0.8, 7);
    let mut service = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7)
        .admission(AdmissionPolicy::Backfill)
        .build();
    println!(
        "{:>6} {:>10} {:>11} {:>7} {:>8} {:>10}",
        "epoch", "mean JCT", "cache hit%", "hits", "misses", "scan/round"
    );
    for epoch in 1..=3 {
        service.submit_workload(&diurnal);
        let report = service.drive().expect("epoch completes");
        println!(
            "{:>6} {:>10.0} {:>10.0}% {:>7} {:>8} {:>10.2}",
            epoch,
            report.mean_completion_time(),
            100.0 * report.placement_cache.hit_rate(),
            report.placement_cache.hits,
            report.placement_cache.misses,
            report.allocation.mean_scan(),
        );
    }
    let totals = service.drain().expect("drain");
    println!(
        "\nlifetime: {} jobs over {} epochs; cache {} hits / {} misses ({} entries resident)",
        totals.completed,
        totals.epochs,
        totals.placement_cache.hits,
        totals.placement_cache.misses,
        totals.cache_entries
    );
    println!(
        "streaming report: mean JCT {:.0}, p50 {:.0}, p95 {:.0}, throughput {:.5} jobs/tick\n",
        totals.online.mean_completion_time(),
        totals.online.quantile(0.5).unwrap_or(0.0),
        totals.online.quantile(0.95).unwrap_or(0.0),
        totals.online.throughput_per_tick()
    );

    // ── 2. The admission-policy matrix ─────────────────────────────
    // A heavy-tailed (Pareto) GHZ stream — mostly mice, a few
    // elephants — split across two tenants (weights 3:1) with a
    // uniform SLA, against a small cloud the elephants saturate. Each
    // policy trades the same queue differently.
    println!("== Admission policies over a heavy-tailed two-tenant SLA workload ==\n");
    let small_cloud = CloudBuilder::new(4)
        .computing_qubits(20)
        .communication_qubits(3)
        .ring_topology()
        .build();
    let heavy = Workload::pareto_sizes(ghz, 20, 1.2, 8, 64, 150.0, 21)
        .assign_round_robin_tenants(&[3.0, 1.0])
        .with_uniform_sla(2_500);
    let policies: [(&str, AdmissionPolicy); 5] = [
        ("backfill", AdmissionPolicy::Backfill),
        ("priority (Eq. 11)", AdmissionPolicy::default()),
        ("shortest-job-first", AdmissionPolicy::ShortestJobFirst),
        ("weighted fair-share", AdmissionPolicy::WeightedFairShare),
        ("deadline-aware", AdmissionPolicy::DeadlineAware),
    ];
    println!(
        "{:>20} {:>10} {:>10} {:>10} {:>9}",
        "policy", "mean JCT", "p95 JCT", "max queue", "rejected"
    );
    for (name, policy) in policies {
        let mut svc = ServiceBuilder::new(&small_cloud, &placement, &CloudQcScheduler, 21)
            .admission(policy)
            .build();
        svc.submit_workload(&heavy);
        let report = svc.drive().expect("policy epoch completes");
        let online = svc.online();
        let max_queue = report
            .outcomes
            .iter()
            .map(|o| o.breakdown.queueing)
            .max()
            .unwrap_or(0);
        println!(
            "{:>20} {:>10.0} {:>10.0} {:>10} {:>9}",
            name,
            online.mean_completion_time(),
            online.quantile(0.95).unwrap_or(0.0),
            max_queue,
            report.rejected.len(),
        );
    }
    println!(
        "\nShortest-job-first compresses mean JCT (mice jump the elephants);\n\
         weighted fair-share lets the weight-3 tenant's jobs in first;\n\
         deadline-aware is the only policy allowed to reject: jobs whose\n\
         SLA lapsed while queueing leave instead of rotting in the queue."
    );

    // ── 3. The continuous clock: preemption and load shedding ──────
    // No epoch resets: the elephant takes the floor, the service pauses
    // mid-flight on a tick budget, and the critical mice are submitted
    // onto the *live* executor. With preemption on, admitting each
    // deadline-carrying mouse parks the elephant's remote gates, so the
    // mice stop queueing behind its EPR traffic.
    println!("\n== Continuous clock: SLA preemption over a live executor ==\n");
    let tight = CloudBuilder::new(2)
        .computing_qubits(16)
        .communication_qubits(1)
        .epr_success_prob(0.2)
        .line_topology()
        .build();
    let elephant = Workload::batch(vec![catalog::by_name("ghz_n20").expect("catalog circuit")]);
    let mice = Workload::trace((0..4u64).map(|i| {
        (
            catalog::by_name("ghz_n12").expect("catalog circuit"),
            Tick::new(200 + i * 2_500),
        )
    }))
    .with_uniform_sla(1_000_000);
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "preemption", "worst mouse", "mean mouse", "suspensions"
    );
    for preempt in [false, true] {
        let mut svc = ServiceBuilder::new(&tight, &placement, &CloudQcScheduler, 9)
            .preemption(preempt)
            .build();
        svc.submit_workload(&elephant);
        let early = svc.drive_for(200).expect("elephant takes the floor");
        assert!(!early.quiescent, "the elephant is mid-flight");
        svc.submit_workload(&mice); // lands on the live executor
        let window = svc.drive_to_quiescence().expect("cloud drains");
        let mouse_jcts: Vec<u64> = window
            .outcomes
            .iter()
            .filter(|o| o.job >= elephant.len())
            .map(|o| o.completion_time.as_ticks())
            .collect();
        println!(
            "{:>12} {:>12} {:>12.0} {:>12}",
            if preempt { "on" } else { "off" },
            mouse_jcts.iter().max().copied().unwrap_or(0),
            mouse_jcts.iter().sum::<u64>() as f64 / mouse_jcts.len().max(1) as f64,
            svc.report().preemptions,
        );
    }

    // A surge against the same small cloud, with a queue-depth cap:
    // arrivals past the cap are turned away at the door with a typed
    // error instead of inflating everyone's tail latency.
    println!("\n== Load shedding under a surge ==\n");
    let surge = Workload::pareto_sizes(ghz, 30, 1.2, 8, 64, 60.0, 33);
    for cap in [None, Some(LoadShedPolicy::queue_depth(4))] {
        let mut builder = ServiceBuilder::new(&small_cloud, &placement, &CloudQcScheduler, 33);
        if let Some(policy) = cap {
            builder = builder.load_shedding(policy);
        }
        let mut svc = builder.build();
        svc.submit_workload(&surge);
        let window = svc.drive_to_quiescence().expect("surge drains");
        let online = svc.online();
        println!(
            "{:>12}: {:>2} served, {:>2} shed; p95 JCT {:>6.0}",
            if cap.is_some() {
                "depth cap 4"
            } else {
                "no cap"
            },
            window.outcomes.len(),
            window.rejected.len(),
            online.quantile(0.95).unwrap_or(0.0),
        );
        if let Some((job, err)) = window.rejected.first() {
            println!("{:>14}first shed: job {job}: {err}", "");
        }
    }
}
