//! Golden seed-equivalence for the unified runtime.
//!
//! The batch, FIFO and incoming goldens below pin per-job schedules
//! under the runtime's one seed rule: each job's placement seed is the
//! run seed XOR its circuit's structural fingerprint, so repeated
//! shapes share placement-cache entries. Any drift in these means the
//! runtime, placement pipeline, or executor changed observable
//! behaviour.
//!
//! The A/B tests below additionally pin that the placement cache and
//! the change-driven allocation elision are both *pure* optimizations.
//! Seeded schedules are byte-identical with the cache on or off, and
//! with a pure scheduler or its [`Impure`] wrapper, whose allocation
//! passes are never elided.

use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::config::BatchWeights;
use cloudqc::core::placement::PlacementAlgorithm;
use cloudqc::core::placement::{CloudQcBfsPlacement, CloudQcPlacement, Placement, RandomPlacement};
use cloudqc::core::runtime::{AdmissionPolicy, RunReport, ServiceBuilder};
use cloudqc::core::schedule::{
    Allocation, AverageScheduler, CloudQcScheduler, GreedyScheduler, RandomScheduler,
    RemoteRequest, Scheduler,
};
use cloudqc::core::workload::Workload;
use cloudqc::core::{AllocStats, Executor};
use cloudqc::sim::Tick;
use rand::rngs::StdRng;

fn batch(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect()
}

/// Forwards `name` and `allocate` but keeps the default
/// `is_pure() == false`, so the executor never elides its allocation
/// passes: the reference the elided passes must reproduce.
struct Impure<'s, S: ?Sized>(&'s S);

impl<S: Scheduler + ?Sized> Scheduler for Impure<'_, S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn allocate(&self, req: &[RemoteRequest], free: &[usize], rng: &mut StdRng) -> Vec<Allocation> {
        self.0.allocate(req, free, rng)
    }
}

fn big_batch() -> Vec<Circuit> {
    batch(&[
        "ghz_n127",
        "qugan_n71",
        "knn_n67",
        "adder_n64",
        "cat_n65",
        "bv_n70",
        "qugan_n39",
        "qft_n29",
    ])
}

#[test]
fn batch_mode_reproduces_pinned_outcomes() {
    let cloud = CloudBuilder::paper_default(1).build();
    let jobs = big_batch();
    let expected: [(u64, [u64; 8]); 3] = [
        (3, [2252, 21162, 40158, 12332, 7772, 5773, 18257, 48944]),
        (7, [2230, 39072, 24883, 10311, 7144, 5900, 18758, 39718]),
        (42, [2612, 20138, 37860, 10451, 7660, 6243, 18354, 54024]),
    ];
    for (seed, times) in expected {
        let run = ServiceBuilder::new(
            &cloud,
            &CloudQcPlacement::default(),
            &CloudQcScheduler,
            seed,
        )
        .admission(AdmissionPolicy::PriorityBackfill(BatchWeights::default()))
        .run(&Workload::batch(jobs.clone()))
        .unwrap();
        assert!(run.rejected.is_empty(), "seed {seed}");
        let got: Vec<u64> = run
            .outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks())
            .collect();
        assert_eq!(got, times, "batch metric ordering, seed {seed}");
        assert_eq!(
            run.makespan.as_ticks(),
            *times.iter().max().unwrap(),
            "seed {seed}"
        );
    }
}

#[test]
fn fifo_contended_batch_reproduces_pinned_outcomes() {
    // A cloud that serializes these 30-qubit jobs: queueing delay is
    // part of the golden times. The three jobs share one fingerprint,
    // and so one placement seed: they are placed identically whenever
    // the free vector recurs.
    let cloud = CloudBuilder::new(4)
        .computing_qubits(10)
        .ring_topology()
        .build();
    let jobs = batch(&["ghz_n30", "ghz_n30", "ghz_n30"]);
    let expected: [(u64, [u64; 3]); 2] = [(5, [643, 1486, 2129]), (11, [894, 1688, 2482])];
    for (seed, times) in expected {
        let run = ServiceBuilder::new(
            &cloud,
            &CloudQcPlacement::default(),
            &CloudQcScheduler,
            seed,
        )
        .admission(AdmissionPolicy::Backfill)
        .run(&Workload::batch(jobs.clone()))
        .unwrap();
        assert!(run.rejected.is_empty(), "seed {seed}");
        let got: Vec<u64> = run
            .outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks())
            .collect();
        assert_eq!(got, times, "batch FIFO, seed {seed}");
    }
}

#[test]
fn incoming_mode_reproduces_pinned_outcomes() {
    let cloud = CloudBuilder::paper_default(11).build();
    let jobs: Vec<(Circuit, Tick)> = [
        ("qugan_n39", 0u64),
        ("ising_n34", 5_000),
        ("bv_n70", 9_000),
        ("qft_n29", 9_000),
        ("knn_n67", 15_000),
    ]
    .iter()
    .map(|&(n, t)| (catalog::by_name(n).unwrap(), Tick::new(t)))
    .collect();
    let expected: [(u64, [(u64, u64); 5]); 2] = [
        (
            3,
            [
                (0, 8574),
                (5000, 397),
                (9000, 3431),
                (9000, 30381),
                (15000, 17920),
            ],
        ),
        (
            13,
            [
                (0, 8440),
                (5000, 397),
                (9000, 3331),
                (9000, 31279),
                (15000, 18320),
            ],
        ),
    ];
    for (seed, records) in expected {
        let placement = CloudQcBfsPlacement::default();
        let run = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .admission(AdmissionPolicy::Backfill)
            .run(&Workload::trace(jobs.iter().cloned()))
            .unwrap();
        assert!(run.rejected.is_empty(), "seed {seed}");
        let got: Vec<(u64, u64)> = run
            .outcomes
            .iter()
            .map(|o| (o.admitted_at.as_ticks(), o.completion_time.as_ticks()))
            .collect();
        assert_eq!(got, records.to_vec(), "incoming mode, seed {seed}");
    }
}

/// Everything observable about a run except the new performance
/// counters (which legitimately differ between the A/B arms).
fn observable(report: &RunReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &report.outcomes,
        &report.rejected,
        report.makespan,
        &report.final_free_computing,
        &report.final_free_communication,
    )
}

/// A contended open-arrival workload of repeated shapes: jobs queue
/// behind each other, so waiting jobs are re-placed across admission
/// rounds — the placement cache's hot path.
fn contended_setup() -> (cloudqc::cloud::Cloud, Workload) {
    let cloud = CloudBuilder::new(4)
        .computing_qubits(30)
        .communication_qubits(3)
        .ring_topology()
        .build();
    let pool = batch(&["ghz_n25", "qft_n29", "ghz_n25", "qugan_n39"]);
    (cloud, Workload::poisson(&pool, 16, 500.0, 13))
}

/// Every admission policy, for the tests that must hold under each.
fn all_policies() -> [AdmissionPolicy; 6] {
    [
        AdmissionPolicy::Fcfs,
        AdmissionPolicy::Backfill,
        AdmissionPolicy::PriorityBackfill(BatchWeights::default()),
        AdmissionPolicy::ShortestJobFirst,
        AdmissionPolicy::WeightedFairShare,
        AdmissionPolicy::DeadlineAware,
    ]
}

#[test]
fn cached_and_uncached_placement_are_byte_identical() {
    // The placement cache (signature: exact free vector + per-shape
    // seed) memoizes a deterministic function, so enabling it must not
    // move a single tick under any admission policy: FCFS's blocked
    // head, backfill past waiters that cannot fit, and SLA pruning
    // ahead of the lookup.
    let (cloud, workload) = contended_setup();
    let workload = workload
        .assign_round_robin_tenants(&[1.0, 3.0, 0.7])
        .with_uniform_sla(2_500);
    let placement = CloudQcPlacement::default();
    for policy in all_policies() {
        for seed in [3u64, 7, 42] {
            let run = |cached: bool| {
                ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                    .admission(policy)
                    .placement_cache(cached)
                    .run(&workload)
                    .expect("contended run completes")
            };
            let cached = run(true);
            let uncached = run(false);
            let case = format!("{policy:?}, seed {seed}");
            assert_eq!(observable(&cached), observable(&uncached), "{case}");
            let expected_rejections = match policy {
                AdmissionPolicy::DeadlineAware => 2,
                _ => 0,
            };
            assert_eq!(cached.rejected.len(), expected_rejections, "{case}");
            assert_eq!(
                cached.outcomes.len() + cached.rejected.len(),
                workload.len(),
                "{case}"
            );
            let stats = cached.placement_cache;
            assert!(stats.misses > 0, "{case}: cache was never consulted");
            assert_eq!(uncached.placement_cache.hits, 0);
            assert_eq!(uncached.placement_cache.misses, 0);
            // Repeated shapes over a recurring free vector must
            // actually hit, or the A/B proves nothing.
            assert!(stats.hits > 0, "{case}: no cache hits");
        }
    }
}

#[test]
fn elided_and_unelided_passes_are_byte_identical_in_runtime() {
    // The change-driven elision only skips allocation passes that
    // would grant nothing: runtime-level schedules must not move a
    // tick against never-elided passes, while the work counters show
    // the elided arm scanning strictly fewer requests.
    let (cloud, workload) = contended_setup();
    let placement = CloudQcPlacement::default();
    for seed in [5u64, 11] {
        let run = |scheduler: &dyn Scheduler| {
            ServiceBuilder::new(&cloud, &placement, scheduler, seed)
                .run(&workload)
                .expect("contended run completes")
        };
        let elided = run(&CloudQcScheduler);
        let unelided = run(&Impure(&CloudQcScheduler));
        assert_eq!(observable(&elided), observable(&unelided), "seed {seed}");
        // Same events, same ticks: the batch distribution is identical
        // too — only the allocation work differs.
        assert_eq!(elided.event_batches, unelided.event_batches);
        assert!(
            elided.allocation.requests_scanned < unelided.allocation.requests_scanned,
            "elision should scan fewer requests: {:?} vs {:?}",
            elided.allocation,
            unelided.allocation
        );
        assert!(elided.allocation.rounds > 0);
    }
}

#[test]
fn elided_and_unelided_passes_are_byte_identical_in_executor() {
    // The executor-level A/B, under a contended profile (scarce
    // pairs, low EPR success, random placements), across every
    // pure scheduler: elided passes against the never-elided passes
    // of the scheduler's impure wrapper.
    let cloud = CloudBuilder::new(6)
        .computing_qubits(40)
        .communication_qubits(2)
        .epr_success_prob(0.2)
        .ring_topology()
        .build();
    let jobs = batch(&["qugan_n39", "knn_n67", "adder_n64", "qft_n29"]);
    let placed: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let p = RandomPlacement
                .place(c, &cloud, &cloud.status(), i as u64)
                .expect("placement succeeds");
            (c, p)
        })
        .collect();
    let schedulers: [&dyn Scheduler; 3] = [&CloudQcScheduler, &GreedyScheduler, &AverageScheduler];
    for scheduler in schedulers {
        for seed in [1u64, 9, 27] {
            let run = |scheduler: &dyn Scheduler| {
                let mut exec = Executor::new(&cloud, scheduler, seed);
                let ids: Vec<usize> = placed
                    .iter()
                    .map(|(c, p)| exec.try_add_job(c, p).expect("job admitted"))
                    .collect();
                exec.run_to_completion();
                let results: Vec<_> = ids
                    .into_iter()
                    .map(|id| exec.job_result(id).expect("job finished"))
                    .collect();
                (results, exec.now(), exec.comm_free().to_vec())
            };
            let unelided = run(&Impure(scheduler));
            assert_eq!(run(scheduler), unelided, "{} seed {seed}", scheduler.name());
        }
    }
}

#[test]
fn executor_front_layers_reproduce_pinned_schedules() {
    // Pins the executor's allocation passes directly. The elided-vs-
    // unelided A/B tests above compare two arms with each other, so
    // they cannot see a change that moves both, and they leave out
    // `RandomScheduler` (which draws from the RNG) and path
    // reservation (whose swapping-station holds couple QPU pairs).
    // Four jobs per run, each spread over all six QPUs of a ring or a
    // line with scarce pairs and a low EPR success probability, so
    // multi-hop gates contend for stations.
    use cloudqc::cloud::QpuId;
    let circuits = batch(&["qugan_n39", "qft_n29", "adder_n64", "knn_n67"]);
    let placed: Vec<(&Circuit, Placement)> = circuits
        .iter()
        .map(|c| {
            let spread = (0..c.num_qubits()).map(|q| QpuId::new(q % 6)).collect();
            (c, Placement::new(spread))
        })
        .collect();
    let clouds = [
        CloudBuilder::new(6).ring_topology(),
        CloudBuilder::new(6).line_topology(),
    ]
    .map(|b| {
        b.computing_qubits(40)
            .communication_qubits(2)
            .epr_success_prob(0.2)
            .build()
    });
    let schedulers: [&dyn Scheduler; 4] = [
        &CloudQcScheduler,
        &GreedyScheduler,
        &AverageScheduler,
        &RandomScheduler,
    ];
    let mut got = Vec::new();
    for scheduler in schedulers {
        for reserve in [false, true] {
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut work = AllocStats::default();
            for cloud in &clouds {
                for seed in [1u64, 9, 27] {
                    let mut exec =
                        Executor::new(cloud, scheduler, seed).with_path_reservation(reserve);
                    let ids: Vec<usize> = placed
                        .iter()
                        .map(|(c, p)| exec.try_add_job(c, p).expect("job admitted"))
                        .collect();
                    exec.run_to_completion();
                    for id in ids {
                        let r = exec.job_result(id).expect("job finished");
                        for word in [r.finished_at.as_ticks(), r.epr_rounds, r.epr_wait] {
                            fnv1a(&mut digest, word);
                        }
                    }
                    work.merge(exec.alloc_stats());
                }
            }
            let work = [work.rounds, work.requests_scanned];
            got.push((scheduler.name(), (reserve, digest, work)));
        }
    }
    // Per scheduler, without and with path reservation: (reservation,
    // digest, [rounds, requests scanned]).
    let expected = [
        // CloudQC
        (false, 0x7c8c_ddc9_e3dc_e1fe, [51_973, 1_004_062]),
        (true, 0x82de_2894_08d8_7347, [69_341, 1_934_152]),
        // Greedy
        (false, 0x11a4_1604_c055_e1e4, [35_442, 794_865]),
        (true, 0x79e2_a277_d16c_cfac, [62_969, 1_676_129]),
        // Average
        (false, 0x0e55_a773_5d5a_9756, [49_591, 545_753]),
        (true, 0x1b72_9f84_4fb8_6e90, [60_980, 1_144_307]),
        // Random
        (false, 0x6791_920c_8c0d_8198, [52_458, 318_785]),
        (true, 0x7588_c9fd_fa4e_c33e, [64_104, 441_957]),
    ];
    assert_eq!(got.len(), expected.len());
    for ((name, got), expected) in got.iter().zip(&expected) {
        assert_eq!(got, expected, "{name}: digest {:#018x}", got.1);
    }
}

#[test]
fn two_epoch_service_with_shared_cache_matches_independent_runs() {
    // The service-layer golden: driving the same workload through two
    // epochs of one resident Service (whose placement cache persists
    // across epochs) must produce *exactly* the per-job completion
    // times of two independent ServiceBuilder::run calls — cache reuse
    // may only change speed, never outcomes — while the warm epoch
    // proves the cache actually carried over (hit-rate > 0). Every
    // admission policy runs, over three weighted tenants with SLA
    // deadlines, so a frame slip in epoch 2 — WFQ's f64 virtual
    // finishes, EDF deadlines, or the `SlaExpired` payloads — shows up
    // as a diff against the fresh run.
    let (cloud, workload) = contended_setup();
    let workload = workload
        .assign_round_robin_tenants(&[1.0, 3.0, 0.7])
        .with_uniform_sla(2_500);
    let placement = CloudQcPlacement::default();
    for policy in all_policies() {
        for seed in [3u64, 7, 42] {
            let builder = || {
                ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed).admission(policy)
            };
            let solo = builder().run(&workload).expect("independent run completes");
            let mut svc = builder().build();
            svc.submit_workload(&workload);
            let epoch1 = svc.drive().expect("epoch 1 completes");
            svc.submit_workload(&workload);
            let epoch2 = svc.drive().expect("epoch 2 completes");
            let case = format!("{policy:?}, seed {seed}");
            assert_eq!(observable(&epoch1), observable(&solo), "{case}");
            assert_eq!(observable(&epoch2), observable(&solo), "{case}");
            let expected_rejections = match policy {
                AdmissionPolicy::DeadlineAware => 2,
                _ => 0,
            };
            assert_eq!(solo.rejected.len(), expected_rejections, "{case}");
            // Warm-epoch cache hit-rate > 0: the persistent cache
            // answered every admission lookup epoch 1 already paid for.
            assert!(
                epoch2.placement_cache.hit_rate() > 0.0,
                "{case}: warm epoch never hit the shared cache: {:?}",
                epoch2.placement_cache
            );
            assert_eq!(epoch2.placement_cache.misses, 0, "{case}");
            assert!(epoch1.placement_cache.misses > 0, "{case}");
            // The streaming report saw both epochs.
            let report = svc.report();
            assert_eq!(report.epochs, 2);
            assert_eq!(report.completed, 2 * solo.outcomes.len() as u64);
            assert_eq!(report.rejected, 2 * solo.rejected.len() as u64);
            assert_eq!(
                report.placement_cache.hits,
                epoch1.placement_cache.hits + epoch2.placement_cache.hits
            );
        }
    }
}

#[test]
fn continuous_clock_over_drained_boundary_matches_epoch_mode() {
    // The continuous-clock golden: epoch mode is the degenerate case of
    // the continuous service. Whenever the cloud fully drains between
    // two workloads, one continuous run over their concatenation (the
    // second offset to arrive after quiescence) must reproduce two
    // epoch drives *byte-identically* — same admission instants, same
    // placements, same EPR rounds, same completion ticks — modulo the
    // frame shift: continuous records carry lifetime clocks and global
    // job indices, so epoch 2's records reappear shifted by the
    // boundary time and the first workload's job count.
    let (cloud, w1) = contended_setup();
    let placement = CloudQcPlacement::default();
    let pool = batch(&["qft_n29", "ghz_n25", "qugan_n39"]);
    let w2 = Workload::poisson(&pool, 12, 400.0, 29);
    let shift_back = |mut r: cloudqc::core::runtime::JobRecord, jobs: usize, base: u64| {
        r.job -= jobs;
        r.arrived_at = Tick::new(r.arrived_at.as_ticks() - base);
        r.admitted_at = Tick::new(r.admitted_at.as_ticks() - base);
        r.finished_at = Tick::new(r.finished_at.as_ticks() - base);
        r
    };
    for seed in [3u64, 7, 42] {
        let builder = || {
            ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                .admission(AdmissionPolicy::Backfill)
        };
        // Epoch face: two drives, each a fresh clock-0 era.
        let mut epochs = builder().build();
        epochs.submit_workload(&w1);
        let e1 = epochs.drive().expect("epoch 1 completes");
        epochs.submit_workload(&w2);
        let e2 = epochs.drive().expect("epoch 2 completes");
        // Continuous face: same service, never reset; the second
        // workload is submitted in lifetime coordinates.
        let mut cont = builder().build();
        cont.submit_workload(&w1);
        let c1 = cont.drive_to_quiescence().expect("window 1 completes");
        assert!(c1.quiescent, "seed {seed}: cloud must drain at boundary");
        let base = cont.now().as_ticks();
        cont.submit_workload(&w2.clone().offset_arrivals(base));
        let c2 = cont.drive_to_quiescence().expect("window 2 completes");
        // Window 1 shares epoch 1's frame exactly (base 0); epoch
        // reports sort outcomes by job index, windows by completion.
        let mut got1 = c1.outcomes.clone();
        got1.sort_by_key(|r| r.job);
        assert_eq!(got1, e1.outcomes, "seed {seed}: boundary window");
        let mut got2: Vec<_> = c2
            .outcomes
            .iter()
            .map(|r| shift_back(r.clone(), w1.len(), base))
            .collect();
        got2.sort_by_key(|r| r.job);
        assert_eq!(got2, e2.outcomes, "seed {seed}: continuous epoch 2");
        assert!(c1.rejected.is_empty() && c2.rejected.is_empty());
        assert!(e1.rejected.is_empty() && e2.rejected.is_empty());
        assert_eq!(
            cont.now(),
            epochs.now(),
            "seed {seed}: both faces park the lifetime clock at the same tick"
        );
    }
}

/// FNV-1a, folded over little-endian words.
fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn placement_layer_reproduces_pinned_digest() {
    // Pins the placement layer on its own: one digest over the
    // qubit → QPU vector (or the error kind) of every cold place below.
    // The runtime goldens above check placements only through the
    // schedules they produce.
    use cloudqc::cloud::QpuId;
    let cloud = CloudBuilder::paper_default(1).build();
    let fresh = cloud.status();
    let mut half_drained = cloud.status();
    for i in (0..cloud.qpu_count()).step_by(2) {
        let q = QpuId::new(i);
        half_drained
            .allocate_computing(q, half_drained.free_computing(q))
            .unwrap();
    }
    let mut uneven = cloud.status();
    for i in 0..cloud.qpu_count() {
        let q = QpuId::new(i);
        let drain = (i * 7) % (uneven.free_computing(q) + 1);
        uneven.allocate_computing(q, drain).unwrap();
    }
    let algorithms: [&dyn PlacementAlgorithm; 2] = [
        &CloudQcPlacement::default(),
        &CloudQcBfsPlacement::default(),
    ];
    let circuits = batch(&["qft_n29", "ising_n34", "ghz_n40", "knn_n67", "qugan_n71"]);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for algo in algorithms {
        for circuit in &circuits {
            for status in [&fresh, &half_drained, &uneven] {
                for seed in [1u64, 7, 42] {
                    match algo.place(circuit, &cloud, status, seed) {
                        Ok(p) => {
                            fnv1a(&mut digest, 0);
                            for q in p.assignment() {
                                fnv1a(&mut digest, q.index() as u64);
                            }
                        }
                        Err(e) => {
                            fnv1a(&mut digest, 1);
                            for byte in e.kind_name().bytes() {
                                fnv1a(&mut digest, u64::from(byte));
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        digest, 0x23ae_1d1e_7af7_da40,
        "placement digest {digest:#018x}"
    );
}

/// What one drive of the queued-Poisson stream leaves behind.
struct QueuedRun {
    /// e2ebench's schedule digest: FNV-1a over (job, `finished_at`,
    /// `epr_rounds`), sorted by job.
    digest: u64,
    misses: u64,
    hits: u64,
    /// The deepest queue seen at the end of a drive call.
    peak_queue: usize,
}

/// Submits e2ebench's circuit pool as a 600-job Poisson stream at a
/// 300-tick mean, far faster than `paper_default(1)` serves it, so
/// hundreds of jobs wait and every admission pass walks a long queue.
/// Then drives it to quiescence in one call (`window` = `None`) or in
/// `drive_for(window)` steps.
fn drive_queued_poisson(window: Option<u64>) -> QueuedRun {
    let cloud = CloudBuilder::paper_default(1).build();
    let placement = CloudQcPlacement::default();
    let pool = batch(&["vqe_n4", "ghz_n40", "qft_n29", "ising_n34"]);
    let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7).build();
    svc.submit_workload(&Workload::poisson(&pool, 600, 300.0, 3));
    let mut records = Vec::new();
    let mut peak_queue = 0;
    loop {
        let w = match window {
            Some(ticks) => svc.drive_for(ticks),
            None => svc.drive_to_quiescence(),
        }
        .expect("queued stream drives");
        assert!(w.rejected.is_empty(), "{:?}", w.rejected);
        records.extend(w.outcomes);
        peak_queue = peak_queue.max(svc.queue_depth());
        if w.quiescent {
            break;
        }
    }
    assert_eq!(records.len(), 600);
    records.sort_by_key(|r| r.job);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for r in &records {
        for word in [r.job as u64, r.finished_at.as_ticks(), r.epr_rounds] {
            fnv1a(&mut digest, word);
        }
    }
    let cache = svc.cache_stats();
    QueuedRun {
        digest,
        misses: cache.misses,
        hits: cache.hits,
        peak_queue,
    }
}

#[test]
fn queued_poisson_stream_reproduces_pinned_schedules() {
    // The runtime golden on a backlogged stream, under the two drive
    // patterns e2ebench's `backlog` workload sits between. They pin
    // different schedules: the service admits only at arrivals, drive
    // deadlines and completions with no arrival pending, so window
    // deadlines add admission instants. The hit counts pin the
    // admission pass's lookup work; misses are the cold placements.
    let run = drive_queued_poisson(None);
    assert_eq!(
        (run.digest, run.misses, run.hits),
        (0x7945_cc7e_ac48_ce07, 498, 2_526),
        "drive_to_quiescence: digest {:#018x}",
        run.digest
    );
    let run = drive_queued_poisson(Some(1_500));
    assert_eq!(
        (run.digest, run.misses, run.hits),
        (0xfbdb_611c_c969_f970, 323, 2_371),
        "drive_for(1_500): digest {:#018x}",
        run.digest
    );
    assert_eq!(run.peak_queue, 373);
}
