//! The runtime under communication contention — the anchor benchmark
//! for the executor's incremental-allocation hot path.
//!
//! Four kernels:
//! * `runtime/*` — the full orchestration loop (admission, placement,
//!   execution) over a contended Poisson open-arrival workload, per
//!   admission policy.
//! * `executor/*` — pre-placed jobs admitted together into the bare
//!   executor with scarce communication qubits and low EPR success
//!   probability, so allocation rounds dominate: this isolates the
//!   front-layer maintenance cost.
//! * `placement_cache/*` — steady-state traffic of repeated circuit
//!   shapes, cached vs uncached: the admission loop's
//!   placement-memoization win.
//!
//! With `BENCH_JSON=<path>` in the environment every case's minimum
//! sample lands in `<path>` as ms/run — the input of the CI
//! bench-regression gate (see `bench_gate`).

use cloudqc_bench::bench_circuit;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::CloudBuilder;
use cloudqc_core::placement::{CloudQcPlacement, PlacementAlgorithm, RandomPlacement};
use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::workload::Workload;
use cloudqc_core::Executor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn contended_pool() -> Vec<Circuit> {
    ["qugan_n39", "knn_n67", "adder_n64", "qft_n29"]
        .iter()
        .map(|n| bench_circuit(n))
        .collect()
}

fn bench_runtime_contention(c: &mut Criterion) {
    // A small cloud with few communication qubits: arrivals outpace the
    // drain rate, so jobs queue and remote gates compete every round.
    let cloud = CloudBuilder::new(8)
        .computing_qubits(40)
        .communication_qubits(3)
        .ring_topology()
        .build();
    let pool = contended_pool();
    let workload = Workload::poisson(&pool, 24, 2_000.0, 7);
    let placement = CloudQcPlacement::default();
    let policies: Vec<(&str, AdmissionPolicy)> = vec![
        ("backfill", AdmissionPolicy::Backfill),
        ("priority", AdmissionPolicy::default()),
    ];
    let mut group = c.benchmark_group("multi_tenant_contention/runtime");
    group.sample_size(10);
    for (name, policy) in &policies {
        group.bench_function(*name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                    .admission(*policy)
                    .run(black_box(&workload))
                    .expect("contended run completes")
            });
        });
    }
    group.finish();
}

fn bench_executor_contention(c: &mut Criterion) {
    // Scarce EPR pairs + low success probability: thousands of
    // allocation rounds over a deep front layer.
    let cloud = CloudBuilder::new(8)
        .computing_qubits(40)
        .communication_qubits(2)
        .epr_success_prob(0.2)
        .ring_topology()
        .build();
    let pool = contended_pool();
    let placed: Vec<_> = pool
        .iter()
        .cycle()
        .take(32)
        .enumerate()
        .map(|(i, circuit)| {
            // Random placements spread qubits across QPUs, maximizing
            // the remote gates simultaneously in the front layer — the
            // worst case for allocation-round bookkeeping.
            let p = RandomPlacement
                .place(circuit, &cloud, &cloud.status(), i as u64)
                .expect("placement succeeds");
            (circuit.clone(), p)
        })
        .collect();
    let mut group = c.benchmark_group("multi_tenant_contention/executor");
    group.sample_size(10);
    group.bench_function("32_jobs_shared_rounds", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let mut exec = Executor::new(&cloud, &CloudQcScheduler, seed);
            for (circuit, p) in black_box(&placed) {
                exec.try_add_job(circuit, p).expect("job admitted");
            }
            exec.run_to_completion();
            exec.now()
        });
    });
    group.finish();
}

fn bench_placement_cache(c: &mut Criterion) {
    // Steady-state traffic of two repeated shapes: the free-capacity
    // vector oscillates through a small set of values, so the
    // (fingerprint, free-vector) signature recurs and the cache elides
    // the full placement pipeline.
    let cloud = CloudBuilder::new(8)
        .computing_qubits(40)
        .communication_qubits(3)
        .ring_topology()
        .build();
    let pool: Vec<Circuit> = ["knn_n67", "adder_n64"]
        .iter()
        .map(|n| bench_circuit(n))
        .collect();
    let workload = Workload::poisson(&pool, 48, 1_500.0, 7);
    let placement = CloudQcPlacement::default();
    let mut group = c.benchmark_group("multi_tenant_contention/placement_cache");
    group.sample_size(10);
    for (name, cached) in [
        ("steady_shapes_cached", true),
        ("steady_shapes_uncached", false),
    ] {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                    .admission(AdmissionPolicy::Backfill)
                    .placement_cache(cached)
                    .run(black_box(&workload))
                    .expect("steady run completes")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_runtime_contention,
    bench_executor_contention,
    bench_placement_cache
);
criterion_main!(benches);
