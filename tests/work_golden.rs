//! Work golden: the exact work of every scenario the retired wall-time
//! Criterion benches timed.
//!
//! Each test replays one retired bench target's scenarios at one seed
//! through the public API and pins, per scenario, the schedule digest,
//! the completed and rejected jobs, the executor's events and event
//! ticks, [`AllocStats`], [`CacheStats`], and the preemptions, reroutes
//! and spillovers. All of them are deterministic, so the pins are
//! exact and do not depend on the host: a change that moves one
//! changes the work the code does. Wall time is measured end to end by
//! `e2ebench/`.
//!
//! A mismatch prints the recorded table as Rust source. A change meant
//! to move the work re-pins the table from that output in the same
//! commit and says why.

use cloudqc::circuit::generators::{catalog, ghz::ghz};
use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudBuilder, CloudStatus, QpuId};
use cloudqc::core::error::ExecError;
use cloudqc::core::placement::{
    CacheStats, CloudQcPlacement, Placement, PlacementAlgorithm, PlacementCache, RandomPlacement,
};
use cloudqc::core::runtime::{
    AdmissionPolicy, CheapestPlacement, FleetBuilder, FleetReport, LoadShedPolicy, RandomRouting,
    RoutingPolicy, Service, TenantAffinity, UtilizationBalanced,
};
use cloudqc::core::schedule::{AverageScheduler, CloudQcScheduler, GreedyScheduler, Scheduler};
use cloudqc::core::workload::{Workload, WorkloadJob};
use cloudqc::core::{AllocStats, Executor, JobRecord, RunReport, ServiceBuilder};
use cloudqc::sim::series::BatchStats;
use cloudqc::sim::{EventQueue, Tick};
use std::fmt;

/// The seed of every scenario, the one the benches' A/B asserts used.
const SEED: u64 = 9;

/// One scenario's work: schedule digest, [completed, rejected],
/// [events, event ticks], `AllocStats` [rounds, requests scanned],
/// `CacheStats` [hits, misses, evictions], [preemptions, reroutes,
/// spillovers].
#[derive(PartialEq)]
struct Work(u64, [u64; 2], [u64; 2], [u64; 2], [u64; 3], [u64; 3]);

impl fmt::Debug for Work {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Work(digest, jobs, events, alloc, cache, moves) = self;
        let rest = format!("{jobs:?}, {events:?}, {alloc:?}, {cache:?}, {moves:?}");
        write!(f, "Work({digest:#018x}, {rest})")
    }
}

/// A report's [events, event ticks], `AllocStats` and `CacheStats`.
fn totals(b: &BatchStats, a: AllocStats, c: CacheStats) -> ([u64; 2], [u64; 2], [u64; 3]) {
    let alloc = [a.rounds, a.requests_scanned];
    let cache = [c.hits, c.misses, c.evictions];
    ([b.events(), b.ticks()], alloc, cache)
}

impl Work {
    fn service(svc: &Service, digest: u64) -> Work {
        let r = svc.report();
        let (b, a, c) = totals(&r.event_batches, r.allocation, r.placement_cache);
        let jobs = [r.completed, r.rejected];
        Work(digest, jobs, b, a, c, [r.preemptions, 0, 0])
    }

    fn fleet(r: &FleetReport, digest: u64) -> Work {
        let (b, a, c) = totals(&r.event_batches, r.allocation, r.placement_cache);
        let moves = [r.preemptions, r.reroutes, r.spillovers];
        Work(digest, [r.completed, r.rejected], b, a, c, moves)
    }

    /// The summed work of one-shot runs or epochs.
    fn runs(reports: &[RunReport]) -> Work {
        let (mut b, mut a, mut c) = Default::default();
        for r in reports {
            BatchStats::merge(&mut b, &r.event_batches);
            AllocStats::merge(&mut a, r.allocation);
            CacheStats::merge(&mut c, &r.placement_cache);
        }
        let done = reports.iter().flat_map(|r| &r.outcomes);
        let rejected = reports.iter().flat_map(|r| &r.rejected);
        let jobs = [done.clone().count(), rejected.clone().count()].map(|n| n as u64);
        let (b, a, c) = totals(&b, a, c);
        Work(digest(done, rejected), jobs, b, a, c, [0; 3])
    }

    /// A bare executor's work; the digest covers each job's
    /// (`finished_at`, `epr_rounds`, `epr_wait`).
    fn executor(exec: &Executor, jobs: usize) -> Work {
        let words = (0..jobs).flat_map(|id| {
            let r = exec.job_result(id).expect("job finished");
            [r.finished_at.as_ticks(), r.epr_rounds, r.epr_wait]
        });
        let (b, a, c) = totals(exec.batch_stats(), exec.alloc_stats(), Default::default());
        Work(fnv1a(words), [jobs as u64, 0], b, a, c, [0; 3])
    }
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// e2ebench's schedule digest: each completed job's (job,
/// `finished_at`, `epr_rounds`) sorted by job, then the sorted indices
/// of the rejected jobs.
fn digest<'r>(
    done: impl IntoIterator<Item = &'r JobRecord>,
    rejected: impl IntoIterator<Item = &'r (usize, ExecError)>,
) -> u64 {
    let mut done: Vec<_> = done
        .into_iter()
        .map(|r| [r.job as u64, r.finished_at.as_ticks(), r.epr_rounds])
        .collect();
    done.sort_by_key(|w| w[0]);
    let mut rejected: Vec<_> = rejected.into_iter().map(|&(job, _)| job as u64).collect();
    rejected.sort_unstable();
    fnv1a(done.into_iter().flatten().chain(rejected))
}

/// Asserts one target's table; a mismatch prints the recorded rows.
fn check(expected: &[(&str, Work)], got: &[Work]) {
    if !expected.iter().map(|(_, w)| w).eq(got) {
        let rows: String = expected
            .iter()
            .zip(got)
            .map(|((name, _), w)| format!("\n    ({name:?}, {w:?}),"))
            .collect();
        panic!("work moved; the recorded table is:{rows}");
    }
}

fn circuit(name: &str) -> Circuit {
    catalog::by_name(name).expect("catalog circuit")
}

fn circuits(names: &[&str]) -> Vec<Circuit> {
    names.iter().map(|n| circuit(n)).collect()
}

/// A ring of `n` QPUs with `qubits` computing and `comm` communication
/// qubits each, and EPR success probability `epr`.
fn ring(n: usize, qubits: usize, comm: usize, epr: f64) -> Cloud {
    CloudBuilder::new(n)
        .computing_qubits(qubits)
        .communication_qubits(comm)
        .epr_success_prob(epr)
        .ring_topology()
        .build()
}

/// The contention pool cycled to `count` jobs, each scattered by a
/// random placement: remote gates over many QPU pairs at once.
fn scattered(cloud: &Cloud, count: usize) -> Vec<(Circuit, Placement)> {
    let pool = circuits(&["qugan_n39", "knn_n67", "adder_n64", "qft_n29"]);
    let jobs = pool.into_iter().cycle().take(count).enumerate();
    jobs.map(|(i, c)| {
        let p = RandomPlacement.place(&c, cloud, &cloud.status(), i as u64);
        (c, p.expect("placement succeeds"))
    })
    .collect()
}

/// Runs `jobs` to completion on one bare executor.
fn execute(cloud: &Cloud, scheduler: &dyn Scheduler, jobs: &[(Circuit, Placement)]) -> Work {
    let mut exec = Executor::new(cloud, scheduler, SEED);
    for (c, p) in jobs {
        exec.try_add_job(c, p).expect("job admitted");
    }
    exec.run_to_completion();
    Work::executor(&exec, jobs.len())
}

/// Submits `workloads` and drives the service to quiescence.
fn drained(mut svc: Service, workloads: &[&Workload]) -> Work {
    for w in workloads {
        svc.submit_workload(w);
    }
    let window = svc.drive_to_quiescence().expect("service drains");
    Work::service(&svc, digest(&window.outcomes, &window.rejected))
}

#[test]
fn continuous_service_work_is_pinned() {
    // Deadline-free ghz_n20 elephants hold the one slow communication
    // pair of a 2-QPU line while SLA-carrying ghz_n12 mice keep
    // landing; then a heavy-tailed GHZ surge behind a queue-depth cap.
    let line = CloudBuilder::new(2)
        .computing_qubits(16)
        .communication_qubits(1);
    let line = line.epr_success_prob(0.2).line_topology().build();
    let placement = CloudQcPlacement::default();
    let service = |cloud| ServiceBuilder::new(cloud, &placement, &CloudQcScheduler, SEED);
    let elephants = Workload::trace((0..4).map(|i| (circuit("ghz_n20"), Tick::new(i * 12_000))));
    let mice = Workload::trace((0..12).map(|i| (circuit("ghz_n12"), Tick::new(200 + i * 2_500))))
        .with_uniform_sla(1_000_000);
    let traffic = |svc: ServiceBuilder| drained(svc.build(), &[&elephants, &mice]);
    let mut epoch = service(&line).build();
    epoch.submit_workload(&elephants);
    epoch.submit_workload(&mice);
    let epoch_face = Work::runs(&[epoch.drive().expect("epoch completes")]);
    let surge = Workload::pareto_sizes(ghz, 30, 1.2, 8, 64, 60.0, 33);
    let surge_cloud = ring(4, 20, 3, 0.3);
    let shed = service(&surge_cloud).load_shedding(LoadShedPolicy::queue_depth(4));
    #[rustfmt::skip]
    let expected = [
        ("mice_no_preemption", Work(0x681dc99bdcb8e8f1, [16, 0], [524, 416], [82, 114], [12, 4, 0], [0, 0, 0])),
        ("mice_preemption", Work(0xd8d7307988dfba80, [16, 0], [531, 431], [87, 87], [13, 3, 0], [5, 0, 0])),
        ("epoch_face", Work(0x681dc99bdcb8e8f1, [16, 0], [524, 416], [82, 114], [12, 4, 0], [0, 0, 0])),
        ("shedding_surge", Work(0xe5470389dde6c2d7, [9, 21], [487, 325], [39, 44], [14, 18, 0], [0, 0, 0])),
    ];
    let got = [
        traffic(service(&line)),
        traffic(service(&line).preemption(true)),
        epoch_face,
        drained(shed.build(), &[&surge]),
    ];
    check(&expected, &got);
}

/// SplitMix64 step: the churn kernel's deterministic delta stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The event-queue churn kernel: prefill to 10⁵ pending events, 10⁵
/// pop-one/push-one cycles with the small bounded time deltas the
/// executor generates (gate latencies, `epr_attempt`), then a full
/// drain. Returns a checksum over every popped (time, event).
fn churn() -> u64 {
    let mut q = EventQueue::new();
    let mut state = 0x0123_4567_89ab_cdef;
    let mut acc = 0u64;
    for i in 0..100_000 {
        q.push(Tick::new(mix(&mut state) % 1_000), i);
    }
    for _ in 0..100_000 {
        let (t, e) = q.pop().expect("churn holds occupancy");
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
        // Re-insert ahead of the popped time, as the executor does.
        q.push(Tick::new(t.as_ticks() + 1 + mix(&mut state) % 1_000), e);
    }
    while let Some((t, e)) = q.pop() {
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
    }
    acc
}

#[test]
fn event_loop_work_is_pinned() {
    // The bench pushed 10⁵ two-qubit remote-gate jobs through a bare
    // executor in 100 contended waves of 1 000. This replays the first
    // 10: unoptimized, all 100 take ~10 s, and every wave runs the same
    // code on the same cloud.
    let cloud = ring(8, 40, 2, 0.25);
    let mut ping = Circuit::new(2);
    ping.cx(0, 1).cx(0, 1);
    let mut exec = Executor::new(&cloud, &CloudQcScheduler, SEED);
    for wave in 0..10 {
        for i in 0..1_000 {
            // Two hops apart around the ring: every QPU pair stays hot.
            let a = (wave + i) % 8;
            let p = Placement::new(vec![QpuId::new(a), QpuId::new((a + 2) % 8)]);
            exec.try_add_job(&ping, &p).expect("job admitted");
        }
        exec.run_to_completion();
    }
    let checksum = |sum| Work(sum, [0; 2], [0; 2], [0; 2], [0; 3], [0; 3]);
    #[rustfmt::skip]
    let expected = [
        ("queue/churn_100k", Work(0x000000025c434e6e, [0, 0], [0, 0], [0, 0], [0, 0, 0], [0, 0, 0])),
        ("executor/100k_jobs", Work(0xa5032fc892a5c6e5, [10000, 0], [134567, 26256], [36217, 24085017], [0, 0, 0], [0, 0, 0])),
    ];
    let got = [checksum(churn()), Work::executor(&exec, 10_000)];
    check(&expected, &got);
}

#[test]
fn fleet_routing_work_is_pinned() {
    // Two paper-shaped regions; tenant 0 sends the hot qft_n29 shape
    // three times as often as tenant 1 sends ghz_n40. The failover arm
    // fails backend 0 mid-stream and recovers it.
    let regions = [11, 12].map(|seed| CloudBuilder::paper_default(seed).build());
    let placement = CloudQcPlacement::default();
    let service = |cloud| ServiceBuilder::new(cloud, &placement, &CloudQcScheduler, SEED);
    let run = |backends: usize, policy: Box<dyn RoutingPolicy>, failover: bool| {
        let fleet = FleetBuilder::new().boxed_policy(policy);
        let fleet = regions[..backends]
            .iter()
            .fold(fleet, |f, c| f.backend(service(c)));
        let mut fleet = fleet.build();
        for i in 0..32 {
            let tenant = usize::from(i % 4 == 3);
            let mut job = WorkloadJob::new(
                circuit(["qft_n29", "ghz_n40"][tenant]),
                Tick::new(i * 1_500),
            );
            job.tenant = tenant;
            fleet.submit_job(job);
        }
        let mut windows = Vec::new();
        if failover {
            windows.push(fleet.drive_for(6_000).expect("fleet warms up"));
            fleet.fail_backend(0);
            windows.push(fleet.drive_for(6_000).expect("survivor carries the load"));
            fleet.recover_backend(0);
        }
        windows.push(fleet.drive_to_quiescence().expect("fleet drains"));
        let done = windows.iter().flat_map(|w| &w.outcomes);
        let rejected = windows.iter().flat_map(|w| &w.rejected);
        Work::fleet(&fleet.report(), digest(done, rejected))
    };
    #[rustfmt::skip]
    let expected = [
        ("fleet_of_one", Work(0x64df76fe0546579a, [32, 0], [82958, 25043], [13514, 308378], [47, 33, 0], [0, 0, 0])),
        ("utilization_balanced", Work(0x3cc58444da73b4f6, [32, 0], [83280, 24893], [12394, 254295], [0, 32, 0], [0, 0, 0])),
        ("tenant_affinity", Work(0xfb88049f99f9600b, [32, 0], [85974, 22569], [11721, 315675], [26, 25, 0], [0, 0, 0])),
        ("cheapest_placement", Work(0x64df76fe0546579a, [32, 0], [82958, 25043], [13514, 308378], [108, 36, 0], [0, 0, 0])),
        ("random", Work(0xff8b47c6633c5ba3, [32, 0], [81471, 24308], [12125, 137498], [1, 31, 0], [0, 0, 0])),
        ("failover_drain", Work(0xba31ee60e22cd859, [32, 0], [85291, 28157], [16467, 517454], [38, 36, 0], [3, 0, 0])),
    ];
    let got = [
        run(1, Box::new(UtilizationBalanced), false),
        run(2, Box::new(UtilizationBalanced), false),
        run(2, Box::new(TenantAffinity::new()), false),
        run(2, Box::new(CheapestPlacement::new()), false),
        run(2, Box::new(RandomRouting::new(9)), false),
        run(2, Box::new(UtilizationBalanced), true),
    ];
    check(&expected, &got);
}

#[test]
fn multi_tenant_contention_work_is_pinned() {
    // Poisson arrivals outpace the drain of a scarce 8-QPU ring, so jobs
    // queue and remote gates contend every round.
    let cloud = ring(8, 40, 3, 0.3);
    let placement = CloudQcPlacement::default();
    let pool = circuits(&["qugan_n39", "knn_n67", "adder_n64", "qft_n29"]);
    let contended = Workload::poisson(&pool, 24, 2_000.0, 7);
    let steady = Workload::poisson(&circuits(&["knn_n67", "adder_n64"]), 48, 1_500.0, 7);
    let run = |workload: &Workload, admission: AdmissionPolicy, cached: bool| {
        let svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, SEED);
        let svc = svc.admission(admission).placement_cache(cached);
        Work::runs(&[svc.run(workload).expect("contended run completes")])
    };
    let slow = ring(8, 40, 2, 0.2);
    let backfill = AdmissionPolicy::Backfill;
    #[rustfmt::skip]
    let expected = [
        ("runtime/backfill", Work(0xee22a08791a048ba, [24, 0], [26994, 10612], [718, 720], [4, 20, 0], [0, 0, 0])),
        ("runtime/priority", Work(0xee22a08791a048ba, [24, 0], [26994, 10612], [718, 720], [4, 20, 0], [0, 0, 0])),
        ("executor/32_jobs_shared_rounds", Work(0xb66ae45adc834469, [32, 0], [49364, 14249], [8707, 1635321], [0, 0, 0], [0, 0, 0])),
        ("placement_cache/steady_shapes_cached", Work(0x4fbb63efe2357e0c, [48, 0], [46362, 31376], [2791, 2802], [127, 54, 0], [0, 0, 0])),
        ("placement_cache/steady_shapes_uncached", Work(0x4fbb63efe2357e0c, [48, 0], [46362, 31376], [2791, 2802], [0, 0, 0], [0, 0, 0])),
    ];
    let got = [
        run(&contended, backfill, true),
        run(&contended, AdmissionPolicy::default(), true),
        execute(&slow, &CloudQcScheduler, &scattered(&slow, 32)),
        run(&steady, backfill, true),
        run(&steady, backfill, false),
    ];
    check(&expected, &got);
}

#[test]
fn placement_cache_work_is_pinned() {
    // Three epochs of two repeated shapes: one warm service, three cold
    // one-shot runs, and one uncached service.
    let cloud = ring(8, 40, 3, 0.3);
    let algo = CloudQcPlacement::default();
    let workload = Workload::poisson(&circuits(&["knn_n67", "adder_n64"]), 32, 1_500.0, 7);
    let builder = || {
        let svc = ServiceBuilder::new(&cloud, &algo, &CloudQcScheduler, SEED);
        svc.admission(AdmissionPolicy::Backfill)
    };
    let epochs = |mut svc: Service| {
        let mut epoch = || {
            svc.submit_workload(&workload);
            svc.drive().expect("epoch completes")
        };
        Work::runs(&[epoch(), epoch(), epoch()])
    };
    let cold = || builder().run(&workload).expect("epoch completes");
    // One lookup of knn_n67 in a cache that is empty or already holds
    // the same key. `tight` fills the idle placement's busiest QPU one
    // qubit past that placement's demand there, so the idle placement
    // no longer fits. The digest covers the qubit → QPU assignment.
    let circuit = circuit("knn_n67");
    let idle = cloud.status();
    let warm = algo.place(&circuit, &cloud, &idle, SEED).unwrap();
    let demand = warm.qpu_demand(cloud.qpu_count());
    let busiest = warm
        .used_qpus()
        .into_iter()
        .max_by_key(|q| demand[q.index()]);
    let busiest = busiest.expect("the idle placement uses a QPU");
    let mut tight = cloud.status();
    let overfill = tight.free_computing(busiest) - demand[busiest.index()] + 1;
    tight.allocate_computing(busiest, overfill).unwrap();
    let lookup = |primed: bool, algo: &CloudQcPlacement, status: &CloudStatus| {
        let mut cache = PlacementCache::new();
        if primed {
            cache.place(algo, &circuit, &cloud, status, SEED).unwrap();
        }
        let before = cache.stats();
        let p = cache
            .place(algo, &circuit, &cloud, status, SEED)
            .expect("lookup places");
        assert!(p.fits(status));
        let words = p.assignment().iter().map(|q| q.index() as u64);
        let (b, a, c) = totals(
            &BatchStats::default(),
            AllocStats::default(),
            cache.stats().since(&before),
        );
        Work(fnv1a(words), [0; 2], b, a, c, [0; 3])
    };
    #[rustfmt::skip]
    let expected = [
        ("service_warm_epochs", Work(0x57a8d82c35dd9688, [96, 0], [92772, 62961], [5640, 5652], [290, 43, 0], [0, 0, 0])),
        ("orchestrator_cold_epochs", Work(0x57a8d82c35dd9688, [96, 0], [92772, 62961], [5640, 5652], [204, 129, 0], [0, 0, 0])),
        ("service_uncached_epochs", Work(0x57a8d82c35dd9688, [96, 0], [92772, 62961], [5640, 5652], [0, 0, 0], [0, 0, 0])),
        ("placement_lookup/cold_place", Work(0x7129b7f3c60fdb44, [0, 0], [0, 0], [0, 0], [0, 1, 0], [0, 0, 0])),
        ("placement_lookup/sweep_warm_place", Work(0x7129b7f3c60fdb44, [0, 0], [0, 0], [0, 0], [0, 1, 0], [0, 0, 0])),
        ("placement_lookup/exact_hit", Work(0x5a38afe81ae21c45, [0, 0], [0, 0], [0, 0], [1, 0, 0], [0, 0, 0])),
    ];
    let got = [
        epochs(builder().build()),
        Work::runs(&[cold(), cold(), cold()]),
        epochs(builder().placement_cache(false).build()),
        lookup(false, &CloudQcPlacement::default(), &tight),
        lookup(false, &algo, &tight),
        lookup(true, &algo, &idle),
    ];
    check(&expected, &got);
}

#[test]
fn front_layer_work_is_pinned() {
    // Scattered jobs on a 12-QPU ring with scarce pairs and slow EPR
    // generation: a deep front layer over many QPU pairs, under each
    // pure scheduler. The bench ran 96 jobs; this replays the first 48, which
    // cuts its unoptimized run time from ~4.4 s to ~1.8 s.
    let cloud = ring(12, 40, 2, 0.2);
    let jobs = scattered(&cloud, 48);
    #[rustfmt::skip]
    let expected = [
        ("cloudqc", Work(0x40d16cc2318cf1bc, [48, 0], [73863, 16940], [9356, 2471702], [0, 0, 0], [0, 0, 0])),
        ("greedy", Work(0xeab118d130aba341, [48, 0], [64623, 17159], [9420, 2525482], [0, 0, 0], [0, 0, 0])),
        ("average", Work(0x718a8e43525f71af, [48, 0], [73187, 26581], [18250, 2422077], [0, 0, 0], [0, 0, 0])),
    ];
    let schedulers: [&dyn Scheduler; 3] = [&CloudQcScheduler, &GreedyScheduler, &AverageScheduler];
    check(&expected, &schedulers.map(|s| execute(&cloud, s, &jobs)));
}
