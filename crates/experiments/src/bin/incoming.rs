//! Incoming-job mode (paper §V.B): jobs arrive as a Poisson process and
//! are processed FIFO with backfill. Sweeps the arrival rate to show
//! queueing-delay growth as the cloud saturates — an extension
//! experiment beyond the paper's batch-mode figures, driven by the
//! unified runtime with its per-job latency breakdown.

use cloudqc_circuit::generators::catalog;
use cloudqc_cloud::CloudBuilder;
use cloudqc_core::placement::{CloudQcBfsPlacement, CloudQcPlacement, PlacementAlgorithm};
use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::workload::Workload;
use cloudqc_experiments::table::fmt_num;
use cloudqc_experiments::{ExpArgs, Table};
use cloudqc_sim::metrics::Summary;
use cloudqc_sim::SimRng;

fn main() {
    let args = ExpArgs::parse();
    let jobs_n = if args.paper { 40 } else { 12 };
    println!(
        "Incoming-job mode: JCT vs arrival rate ({jobs_n} Poisson arrivals, mean over {} runs, seed {})\n",
        args.reps, args.seed
    );
    let pool: Vec<_> = ["qugan_n39", "knn_n67", "adder_n64", "ising_n66", "qft_n29"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect();
    let variants: Vec<(&str, Box<dyn PlacementAlgorithm>)> = vec![
        ("CloudQC", Box::new(CloudQcPlacement::default())),
        ("CloudQC-BFS", Box::new(CloudQcBfsPlacement::default())),
    ];
    let mut t = Table::new(vec![
        "mean inter-arrival".to_string(),
        "method".to_string(),
        "mean JCT".to_string(),
        "p95 JCT".to_string(),
        "mean queue delay".to_string(),
        "mean EPR wait".to_string(),
        "cache hit%".to_string(),
        "batch mean/max".to_string(),
        "scan/round".to_string(),
    ]);
    for &interarrival in &[50_000.0, 20_000.0, 5_000.0, 1_000.0] {
        for (name, algo) in &variants {
            let mut jcts: Vec<f64> = Vec::new();
            let mut delays: Vec<f64> = Vec::new();
            let mut epr_waits: Vec<f64> = Vec::new();
            let mut cache_hits = 0u64;
            let mut cache_lookups = 0u64;
            let mut batch_ticks = 0u64;
            let mut batch_events = 0u64;
            let mut batch_max = 0usize;
            let mut alloc = cloudqc_core::AllocStats::default();
            for rep in 0..args.reps {
                let run_seed = SimRng::new(args.seed).fork_indexed(name, rep as u64).seed();
                let cloud = CloudBuilder::paper_default(
                    SimRng::new(args.seed)
                        .fork_indexed("topo", rep as u64)
                        .seed(),
                )
                .build();
                let workload = Workload::poisson(&pool, jobs_n, interarrival, run_seed);
                let report =
                    ServiceBuilder::new(&cloud, algo.as_ref(), &CloudQcScheduler, run_seed)
                        .admission(AdmissionPolicy::Backfill)
                        .run(&workload)
                        .expect("incoming run completes");
                for o in &report.outcomes {
                    jcts.push(o.completion_time.as_ticks() as f64);
                    delays.push(o.breakdown.queueing as f64);
                    epr_waits.push(o.breakdown.epr_wait as f64);
                }
                cache_hits += report.placement_cache.hits;
                cache_lookups += report.placement_cache.hits + report.placement_cache.misses;
                batch_ticks += report.event_batches.ticks();
                batch_events += report.event_batches.events();
                batch_max = batch_max.max(report.event_batches.max());
                alloc.merge(report.allocation);
            }
            let jct = Summary::of(&jcts).expect("non-empty");
            let delay = Summary::of(&delays).expect("non-empty");
            let epr = Summary::of(&epr_waits).expect("non-empty");
            let hit_pct = if cache_lookups == 0 {
                0.0
            } else {
                100.0 * cache_hits as f64 / cache_lookups as f64
            };
            let mean_batch = if batch_ticks == 0 {
                0.0
            } else {
                batch_events as f64 / batch_ticks as f64
            };
            let mean_scan = alloc.mean_scan();
            t.row(vec![
                fmt_num(interarrival),
                name.to_string(),
                fmt_num(jct.mean),
                fmt_num(jct.p95),
                fmt_num(delay.mean),
                fmt_num(epr.mean),
                format!("{hit_pct:.0}%"),
                format!("{mean_batch:.2}/{batch_max}"),
                format!("{mean_scan:.2}"),
            ]);
        }
    }
    t.print();
    println!("\nShorter inter-arrival = heavier load: queueing delay should dominate JCT\nas the cloud saturates (EPR wait stays roughly constant per job).\n\"cache hit%\" is the placement cache's hit rate over its lookups (a\nwaiter whose key already failed in the same admission pass is not\nlooked up); \"batch mean/max\" is the executor's same-tick event batch\nsize (events drained per allocation round); \"scan/round\" is the mean\nfront-layer requests the sharded scheduler actually scanned per\nallocation round (dirty shards only).");

    service_mode(&pool, jobs_n, args.seed);
    continuous_mode(&pool, jobs_n, args.seed);
    fleet_mode(&pool, jobs_n, args.seed);
}

/// Service mode: one resident `Service` drives the same workload for
/// several epochs. The placement cache persists across epochs, so its
/// per-epoch hit rate warms up while per-job outcomes stay fixed; the
/// table makes that cache warmth — and the allocation work that rides
/// on it — observable.
fn service_mode(pool: &[cloudqc_circuit::Circuit], jobs_n: usize, seed: u64) {
    const EPOCHS: usize = 4;
    println!(
        "\nService mode: one resident Service, {EPOCHS} epochs of the same Poisson workload\n(persistent cache: per-epoch hit% warms up, outcomes never move across\nepochs)\n"
    );
    let cloud = CloudBuilder::paper_default(SimRng::new(seed).fork("svc-topo").seed()).build();
    let placement = CloudQcPlacement::default();
    let run_seed = SimRng::new(seed).fork("svc").seed();
    let workload = Workload::poisson(pool, jobs_n, 5_000.0, run_seed);
    let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, run_seed)
        .admission(AdmissionPolicy::Backfill)
        .build();
    let mut t = Table::new(vec![
        "epoch".to_string(),
        "mean JCT".to_string(),
        "cache hit%".to_string(),
        "hits".to_string(),
        "misses".to_string(),
        "evictions".to_string(),
        "scan/round".to_string(),
    ]);
    let mut first_jct = None;
    for epoch in 1..=EPOCHS {
        svc.submit_workload(&workload);
        let report = svc.drive().expect("service epoch completes");
        let jct = report.mean_completion_time();
        let first = *first_jct.get_or_insert(jct);
        assert!(
            (jct - first).abs() < f64::EPSILON,
            "cache reuse moved outcomes"
        );
        let cache = report.placement_cache;
        t.row(vec![
            epoch.to_string(),
            fmt_num(jct),
            format!("{:.0}%", 100.0 * cache.hit_rate()),
            cache.hits.to_string(),
            cache.misses.to_string(),
            cache.evictions.to_string(),
            format!("{:.2}", report.allocation.mean_scan()),
        ]);
    }
    t.print();
    let total = svc.report();
    println!(
        "\nLifetime: {} epochs, {} jobs completed, {} rejected; cache {} hits / {} misses / {} evictions ({} entries resident); allocation {} rounds, {} shards visited, {} requests scanned; online mean JCT {}, p95 {}, throughput {:.5} jobs/tick.",
        total.epochs,
        total.completed,
        total.rejected,
        total.placement_cache.hits,
        total.placement_cache.misses,
        total.placement_cache.evictions,
        total.cache_entries,
        total.allocation.rounds,
        total.allocation.shards_visited,
        total.allocation.requests_scanned,
        fmt_num(total.online.mean_completion_time()),
        fmt_num(total.online.quantile(0.95).unwrap_or(0.0)),
        total.online.throughput_per_tick(),
    );
}

/// Fleet mode: the same Poisson stream federated over three
/// heterogeneous backends, once per routing policy. Per-policy row:
/// where the jobs landed, how warm the merged placement caches ran, and
/// how often the fleet had to re-route (load sheds) or spill over
/// (starvation rejections). A mid-stream failure drains the largest
/// backend through the preemption machinery and replays its jobs
/// elsewhere; conservation (completed + rejected == submitted) is
/// asserted for every row.
fn fleet_mode(pool: &[cloudqc_circuit::Circuit], jobs_n: usize, seed: u64) {
    use cloudqc_core::runtime::{
        CheapestPlacement, FleetBuilder, RandomRouting, RoundRobin, RoutingPolicy, ServiceBuilder,
        TenantAffinity, UtilizationBalanced,
    };
    println!(
        "\nFleet mode: {jobs_n} Poisson arrivals federated over 3 heterogeneous backends\n(backend 0 fails mid-stream and recovers: its jobs drain and replay elsewhere)\n"
    );
    let topo = SimRng::new(seed).fork("fleet-topo").seed();
    let big = CloudBuilder::paper_default(topo).build();
    let ring = CloudBuilder::new(6)
        .computing_qubits(25)
        .communication_qubits(4)
        .ring_topology()
        .build();
    let edge = CloudBuilder::new(4)
        .computing_qubits(20)
        .communication_qubits(2)
        .line_topology()
        .build();
    let run_seed = SimRng::new(seed).fork("fleet").seed();
    let workload =
        Workload::poisson(pool, jobs_n, 2_000.0, run_seed).assign_round_robin_tenants(&[1.0, 1.0]);
    let policies: Vec<Box<dyn RoutingPolicy>> = vec![
        Box::new(UtilizationBalanced),
        Box::new(CheapestPlacement::new()),
        Box::new(TenantAffinity::new()),
        Box::new(RoundRobin::new()),
        Box::new(RandomRouting::new(run_seed)),
    ];
    let mut t = Table::new(vec![
        "policy".to_string(),
        "mean JCT".to_string(),
        "p95 JCT".to_string(),
        "cache hit%".to_string(),
        "big/ring/edge".to_string(),
        "reroutes".to_string(),
        "spills".to_string(),
        "evacuated".to_string(),
        "rejected".to_string(),
    ]);
    for policy in policies {
        let placement = CloudQcPlacement::default();
        let backend = |cloud| ServiceBuilder::new(cloud, &placement, &CloudQcScheduler, run_seed);
        let mut fleet = FleetBuilder::new()
            .backend(backend(&big))
            .backend(backend(&ring))
            .backend(backend(&edge))
            .boxed_policy(policy)
            .build();
        fleet.submit_workload(&workload);
        fleet.drive_for(6_000).expect("fleet warms up");
        let evacuated = fleet.fail_backend(0);
        fleet.drive_for(6_000).expect("survivors carry the load");
        fleet.recover_backend(0);
        fleet.drive_to_quiescence().expect("fleet drains");
        let report = fleet.report();
        assert_eq!(
            report.completed + report.rejected,
            jobs_n as u64,
            "fleet conservation"
        );
        assert_eq!(report.unresolved, 0, "no job left unresolved");
        t.row(vec![
            report.policy.to_string(),
            fmt_num(report.online.mean_completion_time()),
            fmt_num(report.online.quantile(0.95).unwrap_or(0.0)),
            format!("{:.0}%", 100.0 * report.placement_cache.hit_rate()),
            report
                .backends
                .iter()
                .map(|b| b.completed.to_string())
                .collect::<Vec<_>>()
                .join("/"),
            report.reroutes.to_string(),
            report.spillovers.to_string(),
            evacuated.to_string(),
            report.rejected.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nEvery row survives the same mid-stream failure of the big backend:\n\"evacuated\" jobs are suspended in flight, re-routed to the survivors,\nand counted exactly once in the totals. \"reroutes\" are load-shed\nbackpressure signals honored fleet-side; \"spills\" are typed starvation\nrejections (e.g. the 2-comm-qubit edge refusing a wide split) retried\non a backend that can."
    );
}

/// Continuous mode: the same Poisson stream on the lifetime clock,
/// driven in fixed tick windows instead of epochs. Between windows the
/// executor keeps its in-flight jobs, so the table shows the live queue
/// draining as the clock advances; p50/p99 come from the streaming
/// reservoir's cached sorted view (rebuilt only when a completion lands
/// between reads).
fn continuous_mode(pool: &[cloudqc_circuit::Circuit], jobs_n: usize, seed: u64) {
    const WINDOW: u64 = 20_000;
    println!(
        "\nContinuous mode: the same stream on the lifetime clock, {WINDOW}-tick windows\n(no epoch resets: the executor stays live between windows)\n"
    );
    let cloud = CloudBuilder::paper_default(SimRng::new(seed).fork("svc-topo").seed()).build();
    let placement = CloudQcPlacement::default();
    let run_seed = SimRng::new(seed).fork("svc").seed();
    let workload = Workload::poisson(pool, jobs_n, 5_000.0, run_seed);
    let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, run_seed)
        .admission(AdmissionPolicy::Backfill)
        .build();
    svc.submit_workload(&workload);
    let mut t = Table::new(vec![
        "window".to_string(),
        "clock".to_string(),
        "done".to_string(),
        "queued".to_string(),
        "in-flight".to_string(),
        "p50 JCT".to_string(),
        "p99 JCT".to_string(),
    ]);
    for window in 1.. {
        let w = svc.drive_for(WINDOW).expect("window completes");
        let online = svc.online();
        t.row(vec![
            window.to_string(),
            svc.now().as_ticks().to_string(),
            w.outcomes.len().to_string(),
            svc.queue_depth().to_string(),
            svc.in_flight().to_string(),
            fmt_num(online.quantile(0.5).unwrap_or(0.0)),
            fmt_num(online.quantile(0.99).unwrap_or(0.0)),
        ]);
        if w.quiescent {
            break;
        }
    }
    t.print();
    let total = svc.report();
    println!(
        "\nContinuous lifetime: {} completed on one uninterrupted clock; online mean JCT {}, p99 {}.",
        total.completed,
        fmt_num(total.online.mean_completion_time()),
        fmt_num(total.online.quantile(0.99).unwrap_or(0.0)),
    );
}
