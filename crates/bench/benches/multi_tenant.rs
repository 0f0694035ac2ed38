//! One multi-tenant batch through the whole pipeline (the kernel behind
//! Figs. 14–17), comparing the three CloudQC variants.

use cloudqc_bench::{bench_circuit, bench_cloud};
use cloudqc_core::placement::{CloudQcBfsPlacement, CloudQcPlacement, PlacementAlgorithm};
use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::workload::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_multi_tenant(c: &mut Criterion) {
    let cloud = bench_cloud();
    // A small Qugan-workload batch (the lightest of the paper's four).
    let batch = Workload::batch(
        ["qugan_n39", "qugan_n71", "qugan_n39", "qugan_n71"]
            .iter()
            .map(|n| bench_circuit(n)),
    );
    let variants: Vec<(&str, Box<dyn PlacementAlgorithm>, AdmissionPolicy)> = vec![
        (
            "cloudqc",
            Box::new(CloudQcPlacement::default()),
            AdmissionPolicy::default(),
        ),
        (
            "cloudqc_bfs",
            Box::new(CloudQcBfsPlacement::default()),
            AdmissionPolicy::default(),
        ),
        (
            "cloudqc_fifo",
            Box::new(CloudQcPlacement::default()),
            AdmissionPolicy::Backfill,
        ),
    ];
    let mut group = c.benchmark_group("multi_tenant/qugan_batch4");
    group.sample_size(20);
    for (name, algo, admission) in &variants {
        group.bench_function(*name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                ServiceBuilder::new(&cloud, algo.as_ref(), &CloudQcScheduler, seed)
                    .admission(*admission)
                    .run(black_box(&batch))
                    .expect("batch completes")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multi_tenant);
criterion_main!(benches);
