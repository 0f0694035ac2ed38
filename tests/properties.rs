//! Cross-crate property-based tests: random circuits and clouds through
//! the full placement + scheduling + execution pipeline.

mod near_miss;

use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudBuilder};
use cloudqc::core::placement::{
    cost, repair, CloudQcBfsPlacement, CloudQcPlacement, PlacementAlgorithm, PlacementCache,
    RandomPlacement,
};
use cloudqc::core::schedule::{
    Allocation, AverageScheduler, CloudQcScheduler, GreedyScheduler, RandomScheduler, RemoteDag,
    RemoteRequest, Scheduler,
};
use cloudqc::core::{simulate_job, Executor};
use near_miss::{near_miss, planted};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random circuit with chain/star/random two-qubit structure.
fn random_circuit(qubits: usize, gates: usize, shape: u8, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(qubits).with_name("random");
    for q in 0..qubits {
        c.h(q);
    }
    for g in 0..gates {
        let (a, b) = match shape % 3 {
            0 => (g % (qubits - 1), g % (qubits - 1) + 1), // chain
            1 => (0, 1 + g % (qubits - 1)),                // star
            _ => {
                let a = rng.random_range(0..qubits);
                let mut b = rng.random_range(0..qubits);
                while b == a {
                    b = rng.random_range(0..qubits);
                }
                (a, b)
            }
        };
        c.cx(a, b);
    }
    c.measure_all();
    c
}

/// Forwards `name` and `allocate` but keeps the default
/// `is_pure() == false`, which forces the executor's global,
/// never-elided front layer.
struct Impure<'s, S: ?Sized>(&'s S);

impl<S: Scheduler + ?Sized> Scheduler for Impure<'_, S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn allocate(&self, req: &[RemoteRequest], free: &[usize], rng: &mut StdRng) -> Vec<Allocation> {
        self.0.allocate(req, free, rng)
    }
}

fn small_cloud(seed: u64) -> Cloud {
    CloudBuilder::new(6)
        .computing_qubits(8)
        .communication_qubits(3)
        .random_topology(0.4, seed)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every placement algorithm returns a capacity-feasible, total
    /// placement for any circuit that fits the cloud.
    #[test]
    fn placements_are_total_and_feasible(
        qubits in 4usize..30,
        gates in 1usize..60,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let algos: Vec<Box<dyn PlacementAlgorithm>> = vec![
            Box::new(CloudQcPlacement::default()),
            Box::new(CloudQcBfsPlacement::default()),
            Box::new(RandomPlacement),
        ];
        for algo in &algos {
            let status = cloud.status();
            let p = algo.place(&circuit, &cloud, &status, seed).unwrap();
            prop_assert_eq!(p.num_qubits(), qubits);
            prop_assert!(p.fits(&status), "{} violated capacity", algo.name());
        }
    }

    /// The remote DAG matches the cost metric and is acyclic under any
    /// placement.
    #[test]
    fn remote_dag_invariants(
        qubits in 4usize..24,
        gates in 1usize..50,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let p = RandomPlacement.place(&circuit, &cloud, &cloud.status(), seed).unwrap();
        let rd = RemoteDag::new(&circuit, &p, &cloud);
        prop_assert_eq!(rd.node_count(), cost::remote_op_count(&circuit, &p));
        prop_assert!(rd.dag().is_acyclic());
        // Remote DAG dependencies never invert circuit order.
        for n in 0..rd.node_count() {
            for &succ in rd.dag().successors(n) {
                prop_assert!(rd.gate_index(succ) > rd.gate_index(n));
            }
        }
    }

    /// Execution terminates with a sane completion time under every
    /// scheduler, and is deterministic per seed.
    #[test]
    fn execution_terminates_and_is_deterministic(
        qubits in 4usize..20,
        gates in 1usize..40,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let p = CloudQcPlacement::default()
            .place(&circuit, &cloud, &cloud.status(), seed)
            .unwrap();
        let scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(GreedyScheduler),
            Box::new(AverageScheduler),
            Box::new(RandomScheduler),
            Box::new(CloudQcScheduler),
        ];
        for sched in &scheds {
            let a = simulate_job(&circuit, &p, &cloud, sched.as_ref(), seed);
            let b = simulate_job(&circuit, &p, &cloud, sched.as_ref(), seed);
            prop_assert_eq!(&a, &b, "{} nondeterministic", sched.name());
            // JCT is at least the local critical path of any gate chain
            // and finite.
            prop_assert!(a.finished_at >= a.started_at);
            prop_assert!(a.epr_rounds >= a.remote_gates as u64);
        }
    }

    /// Communication cost dominates the remote-op count (every remote
    /// gate travels at least one hop).
    #[test]
    fn comm_cost_at_least_remote_ops(
        qubits in 4usize..24,
        gates in 1usize..50,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let p = RandomPlacement.place(&circuit, &cloud, &cloud.status(), seed).unwrap();
        let ops = cost::remote_op_count(&circuit, &p) as f64;
        let cost = cost::communication_cost(&circuit, &p, &cloud);
        prop_assert!(cost >= ops);
    }

    /// The per-QPU-pair sharded front layer is a pure optimization:
    /// for every pure scheduler, a contended multi-job run produces
    /// the exact same schedule whether allocation rounds scan only the
    /// dirty shards or, through the [`Impure`] wrapper, the whole
    /// global request set on every tick. Under path reservation both
    /// arms run the global layer, and the pure arm's elided passes must
    /// match the wrapper's never-elided ones.
    #[test]
    fn sharded_and_global_front_layers_agree(
        qubits in 4usize..20,
        gates in 1usize..40,
        shape in 0u8..3,
        seed in any::<u64>(),
        jobs in 1usize..4,
        reserve in any::<bool>(),
    ) {
        let cloud = small_cloud(seed);
        let placed: Vec<(Circuit, _)> = (0..jobs)
            .map(|j| {
                let circuit = random_circuit(qubits, gates, shape, seed ^ (j as u64) << 7);
                // Random placements spread qubits across QPUs, filling
                // many distinct shards.
                let p = RandomPlacement
                    .place(&circuit, &cloud, &cloud.status(), seed ^ (j as u64))
                    .unwrap();
                (circuit, p)
            })
            .collect();
        let scheds: [&dyn Scheduler; 3] = [&GreedyScheduler, &AverageScheduler, &CloudQcScheduler];
        for sched in scheds {
            let run = |sched: &dyn Scheduler| {
                let mut exec = Executor::new(&cloud, sched, seed).with_path_reservation(reserve);
                // Path reservation rejects a job whose gate has no route.
                let ids: Vec<Option<usize>> = placed
                    .iter()
                    .map(|(c, p)| exec.try_add_job(c, p).ok())
                    .collect();
                exec.run_to_completion();
                let results: Vec<_> = ids
                    .into_iter()
                    .map(|id| id.map(|id| exec.job_result(id).expect("job finished")))
                    .collect();
                (results, exec.now(), exec.comm_free().to_vec())
            };
            prop_assert_eq!(
                run(sched),
                run(&Impure(sched)),
                "{} diverged (path reservation {})",
                sched.name(),
                reserve
            );
        }
    }

    /// A placement-cache hit and a cold run of the algorithm return
    /// identical placements for the same (fingerprint, free-vector,
    /// seed) signature — the exactness the runtime's byte-identical
    /// schedule guarantee rests on.
    #[test]
    fn cache_hit_equals_cold_placement(
        qubits in 4usize..30,
        gates in 1usize..60,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let algo = CloudQcPlacement::default();
        let status = cloud.status();
        let mut cache = PlacementCache::new();
        let first = cache.place(&algo, &circuit, &cloud, &status, seed).unwrap();
        let hit = cache.place(&algo, &circuit, &cloud, &status, seed).unwrap();
        let cold = algo.place(&circuit, &cloud, &status, seed).unwrap();
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);
        prop_assert_eq!(&first, &hit);
        prop_assert_eq!(&hit, &cold);
    }

    /// `placement::repair` preserves exactness by construction: for any
    /// cached placement and any drifted free-capacity vector, a `Some`
    /// repair always satisfies the same `fits` guard cache hits are
    /// re-validated with, a still-fitting placement comes back
    /// unchanged, and repairing is deterministic.
    #[test]
    fn repair_output_always_fits(
        qubits in 4usize..30,
        gates in 1usize..40,
        shape in 0u8..3,
        seed in any::<u64>(),
        steps in 1usize..6,
    ) {
        use cloudqc::cloud::QpuId;
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let cached = RandomPlacement
            .place(&circuit, &cloud, &cloud.status(), seed)
            .unwrap();
        let mut status = cloud.status();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7);
        for _ in 0..steps {
            // Drift the ledger away from the one the placement was made
            // against.
            for i in 0..cloud.qpu_count() {
                let qpu = QpuId::new(i);
                let free = status.free_computing(qpu);
                let held = status.computing_capacity(qpu) - free;
                if rng.random_range(0..2) == 0 && free > 0 {
                    let n = rng.random_range(1..=free);
                    status.allocate_computing(qpu, n).unwrap();
                } else if held > 0 {
                    let n = rng.random_range(1..=held);
                    status.release_computing(qpu, n);
                }
            }
            match repair(&cached, &status) {
                Some(patched) => {
                    prop_assert!(patched.fits(&status), "repair returned an unfit placement");
                    prop_assert_eq!(patched.num_qubits(), cached.num_qubits());
                    if cached.fits(&status) {
                        prop_assert_eq!(&patched, &cached, "harmless drift must not be patched");
                    }
                    prop_assert_eq!(repair(&cached, &status), Some(patched), "repair must be pure");
                }
                None => prop_assert!(
                    !cached.fits(&status),
                    "a fitting placement must always repair (to itself)"
                ),
            }
        }
    }

    /// The repair tier is byte-invisible until a near-miss actually
    /// patches: driving the same lookup sequence through a
    /// repair-enabled and a repair-disabled cache returns identical
    /// results at every step where the enabled cache has repaired
    /// nothing yet — and once it does repair, every reused placement
    /// still fits the live status.
    #[test]
    fn repair_tier_without_repairs_is_byte_identical(
        qubits in 4usize..24,
        gates in 1usize..40,
        shape in 0u8..3,
        seed in any::<u64>(),
        steps in 1usize..8,
    ) {
        use cloudqc::cloud::QpuId;
        let circuit = random_circuit(qubits, gates, shape, seed);
        let cloud = small_cloud(seed);
        let algo = CloudQcPlacement::default();
        let mut plain = PlacementCache::new();
        let mut repairing = PlacementCache::new().with_repair(true);
        let mut status = cloud.status();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for _ in 0..steps {
            for i in 0..cloud.qpu_count() {
                let qpu = QpuId::new(i);
                let free = status.free_computing(qpu);
                let held = status.computing_capacity(qpu) - free;
                if rng.random_range(0..2) == 0 && free > 0 {
                    let n = rng.random_range(1..=free.min(2));
                    status.allocate_computing(qpu, n).unwrap();
                } else if held > 0 {
                    let n = rng.random_range(1..=held);
                    status.release_computing(qpu, n);
                }
            }
            let a = plain.place(&algo, &circuit, &cloud, &status, seed);
            let b = repairing.place(&algo, &circuit, &cloud, &status, seed);
            if repairing.stats().repair_hits == 0 {
                prop_assert_eq!(&a, &b, "repair tier changed a non-repaired lookup");
            }
            if let Ok(p) = &b {
                prop_assert!(p.fits(&status), "repair-enabled cache reused an unfit placement");
            }
        }
        // Fallbacks re-run the pipeline, so they never change results —
        // only repair hits can. The disabled cache must never count
        // either.
        prop_assert_eq!(plain.stats().repair_hits, 0);
        prop_assert_eq!(plain.stats().repair_fallbacks, 0);
    }
}

/// The memo differential's circuit pool: catalog circuits that reach
/// Algorithm 1's sweep on a partly used `paper_default` cloud (two of
/// them as wide as each other), plus two twins of the Ising circuit
/// with its two-qubit structure, so its memo entries: one renamed, one
/// with other rotation angles.
fn memo_pool() -> Vec<Circuit> {
    use cloudqc::circuit::generators::catalog;
    use cloudqc::circuit::{Gate, GateKind};

    let ising = catalog::by_name("ising_n22").unwrap();
    let mut retuned = Circuit::new(ising.num_qubits()).with_name("ising_retuned");
    for gate in ising.gates() {
        let q = gate.qubits()[0];
        retuned.push(match gate.kind() {
            GateKind::Rz(theta) => Gate::rz(q, theta + 0.5),
            GateKind::Rx(theta) => Gate::rx(q, 2.0 * theta),
            _ => *gate,
        });
    }
    let renamed = ising.clone().with_name("ising_renamed");
    vec![
        catalog::by_name("ghz_n24").unwrap(),
        catalog::by_name("bv_n24").unwrap(),
        catalog::by_name("qft_n21").unwrap(),
        ising,
        renamed,
        retuned,
    ]
}

/// Places `circuit` with the long-lived `algo` and with a fresh
/// instance from `fresh`, which must agree.
fn memo_matches_fresh<P: PlacementAlgorithm>(
    algo: &P,
    fresh: impl Fn() -> P,
    circuit: &Circuit,
    cloud: &Cloud,
    status: &cloudqc::cloud::CloudStatus,
    seed: u64,
) -> Result<(), String> {
    let memoized = algo.place(circuit, cloud, status, seed);
    prop_assert_eq!(
        &memoized,
        &fresh().place(circuit, cloud, status, seed),
        "{} on {} (seed {})",
        algo.name(),
        circuit.name(),
        seed
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A long-lived `CloudQcPlacement` and `CloudQcBfsPlacement`, whose
    /// memos carry partitions from call to call, return exactly what a
    /// freshly built instance returns, call by call. Circuits, seeds and
    /// twins repeat so memo keys recur against changing statuses.
    #[test]
    fn memoized_sweep_matches_fresh_instances(
        steps in prop::collection::vec((0usize..6, any::<u64>(), 0u64..3), 1..10),
    ) {
        use cloudqc::cloud::QpuId;
        let pool = memo_pool();
        let cloud = CloudBuilder::paper_default(3).build();
        let (cloudqc, bfs) = (CloudQcPlacement::default(), CloudQcBfsPlacement::default());
        for (circuit, status_seed, seed) in steps {
            let mut rng = StdRng::seed_from_u64(status_seed);
            let mut status = cloud.status();
            for i in 0..cloud.qpu_count() {
                let qpu = QpuId::new(i);
                let take = rng.random_range(0..=status.free_computing(qpu));
                status.allocate_computing(qpu, take).unwrap();
            }
            let circuit = &pool[circuit];
            memo_matches_fresh(&cloudqc, CloudQcPlacement::default, circuit, &cloud, &status, seed)?;
            memo_matches_fresh(&bfs, CloudQcBfsPlacement::default, circuit, &cloud, &status, seed)?;
        }
    }
}

/// The memo differential over a sequence long enough to overflow the
/// memo (4 096 splits) and clear it: ghz_n20 over two 16-qubit QPUs
/// sweeps three splits per seed, so 1 400 seeds cross the cap once,
/// and a second pass over the first seeds replays what was evicted.
#[test]
fn memoized_sweep_matches_fresh_instances_across_the_cap() {
    use cloudqc::circuit::generators::catalog;

    let cloud = CloudBuilder::new(2).computing_qubits(16).build();
    let ghz = catalog::by_name("ghz_n20").unwrap();
    let status = cloud.status();
    let (cloudqc, bfs) = (CloudQcPlacement::default(), CloudQcBfsPlacement::default());
    for seed in (0..1_400).chain(0..20) {
        memo_matches_fresh(
            &cloudqc,
            CloudQcPlacement::default,
            &ghz,
            &cloud,
            &status,
            seed,
        )
        .unwrap();
        memo_matches_fresh(
            &bfs,
            CloudQcBfsPlacement::default,
            &ghz,
            &cloud,
            &status,
            seed,
        )
        .unwrap();
    }
}

/// Golden for the repair tier through the public cache API: plant a
/// warm entry, drift the status by one qubit so the cached placement no
/// longer fits, and pin that the lookup is answered by the repair tier
/// (not the pipeline), that the patch is feasible, and that the patched
/// entry is memoized for the next identical lookup.
#[test]
fn near_miss_golden_is_repaired_without_recompute() {
    use cloudqc::core::placement::CacheStats;

    let cloud = CloudBuilder::new(2)
        .computing_qubits(4)
        .communication_qubits(2)
        .build();
    let circuit = random_circuit(4, 6, 0, 11);
    let algo = CloudQcPlacement::default();
    let (warm, exact, drifted) = near_miss(&algo, &circuit, &cloud, 7);
    let mut cache = planted(&algo, &circuit, &cloud, (&warm, &exact), 7);

    let patched = cache.place(&algo, &circuit, &cloud, &drifted, 7).unwrap();
    assert!(patched.fits(&drifted));
    assert_ne!(
        patched, warm,
        "an unfit warm entry cannot be returned as-is"
    );
    assert_eq!(
        cache.stats(),
        CacheStats {
            hits: 0,
            misses: 1,
            evictions: 0,
            repair_hits: 1,
            repair_fallbacks: 0,
        },
        "the planted entry is the one miss; the drifted lookup must be repaired"
    );

    // The patch was memoized under the drifted signature: replaying the
    // lookup is an exact hit returning the identical placement.
    let replay = cache.place(&algo, &circuit, &cloud, &drifted, 7).unwrap();
    assert_eq!(replay, patched);
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().repair_hits, 1);
}

#[test]
fn repaired_near_miss_is_at_least_1_3x_faster_than_a_cold_place() {
    // knn_n67 on an 8-QPU ring. Both arms run in this process, so host
    // drift cancels; each is the minimum of 6 samples, and the arm that
    // runs first alternates.
    use std::time::{Duration, Instant};
    let cloud = CloudBuilder::new(8)
        .computing_qubits(40)
        .communication_qubits(3)
        .ring_topology()
        .build();
    let circuit = cloudqc::circuit::generators::catalog::by_name("knn_n67").unwrap();
    let algo = CloudQcPlacement::default();
    let (warm, exact, drifted) = near_miss(&algo, &circuit, &cloud, 7);
    // An empty cache and a fresh algorithm: the full pipeline,
    // partitions included.
    let cold = || {
        let (fresh, mut cache) = (CloudQcPlacement::default(), PlacementCache::new());
        let start = Instant::now();
        cache.place(&fresh, &circuit, &cloud, &drifted, 7).unwrap();
        start.elapsed()
    };
    let repaired = || {
        let mut cache = planted(&algo, &circuit, &cloud, (&warm, &exact), 7);
        let start = Instant::now();
        let patched = cache.place(&algo, &circuit, &cloud, &drifted, 7).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(cache.stats().repair_hits, 1);
        assert!(patched.fits(&drifted));
        elapsed
    };
    let (mut best_cold, mut best_repaired) = (Duration::MAX, Duration::MAX);
    for round in 0..6 {
        let (c, r) = if round % 2 == 0 {
            let c = cold();
            (c, repaired())
        } else {
            let r = repaired();
            (cold(), r)
        };
        best_cold = best_cold.min(c);
        best_repaired = best_repaired.min(r);
    }
    assert!(
        best_cold >= best_repaired.mul_f64(1.3),
        "repaired near-miss ({best_repaired:?}) must be at least 1.3x faster \
         than a cold place ({best_cold:?})"
    );
}
