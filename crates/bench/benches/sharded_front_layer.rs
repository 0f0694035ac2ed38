//! The per-QPU-pair sharded front layer — the anchor benchmark for the
//! executor's dirty-shard allocation rounds.
//!
//! A 12-QPU ring spreads 96 randomly placed jobs over many distinct
//! communication edges, so any one completion or grant touches only a
//! few shards while the rest stay settled — and the front layer runs
//! hundreds of requests deep, the regime where a global scan pays for
//! every pending request per round. Scarce communication qubits and a
//! low EPR success probability keep thousands of allocation rounds in
//! flight.
//!
//! Cases: `cloudqc_sharded`, `greedy_sharded` and `average_sharded` —
//! the three pure schedulers on the sharded path (and the merge-based
//! `Scheduler::allocate_shard_iter` overrides). Their schedules equal the
//! global layer's (pinned in `tests/runtime_golden.rs`).
//!
//! With `BENCH_JSON=<path>` in the environment every case's minimum
//! sample lands in `<path>` as ms/run — the input of the CI
//! bench-regression gate (see `bench_gate`). The three cases also
//! exercise the gate's multi-case `--normalize` path (normalization
//! refuses to run below 3 shared cases).

use cloudqc_bench::bench_circuit;
use cloudqc_circuit::Circuit;
use cloudqc_cloud::CloudBuilder;
use cloudqc_core::placement::{Placement, PlacementAlgorithm, RandomPlacement};
use cloudqc_core::schedule::{AverageScheduler, CloudQcScheduler, GreedyScheduler, Scheduler};
use cloudqc_core::Executor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn contended_jobs(cloud: &cloudqc_cloud::Cloud) -> Vec<(Circuit, Placement)> {
    ["qugan_n39", "knn_n67", "adder_n64", "qft_n29"]
        .iter()
        .map(|n| bench_circuit(n))
        .cycle()
        .take(96)
        .enumerate()
        .map(|(i, circuit)| {
            // Random placements scatter the remote gates across many
            // QPU pairs — the many-shard worst case for a global scan
            // and the best case for dirty-shard rounds.
            let p = RandomPlacement
                .place(&circuit, cloud, &cloud.status(), i as u64)
                .expect("placement succeeds");
            (circuit, p)
        })
        .collect()
}

fn bench_sharded_front_layer(c: &mut Criterion) {
    let cloud = CloudBuilder::new(12)
        .computing_qubits(40)
        .communication_qubits(2)
        .epr_success_prob(0.2)
        .ring_topology()
        .build();
    let placed = contended_jobs(&cloud);
    let cases: Vec<(&str, &dyn Scheduler)> = vec![
        ("cloudqc_sharded", &CloudQcScheduler),
        ("greedy_sharded", &GreedyScheduler),
        ("average_sharded", &AverageScheduler),
    ];
    let mut group = c.benchmark_group("sharded_front_layer");
    group.sample_size(10);
    for (name, scheduler) in cases {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let mut exec = Executor::new(&cloud, scheduler, seed);
                for (circuit, p) in black_box(&placed) {
                    exec.try_add_job(circuit, p).expect("job admitted");
                }
                exec.run_to_completion();
                exec.now()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_front_layer);
criterion_main!(benches);
