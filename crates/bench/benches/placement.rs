//! Placement algorithm cost on a mid-size benchmark (Table III's inner
//! loop). SA/GA use the quick settings; the paper reports their full
//! versions take over an hour per circuit in Python.
//!
//! Every iteration places with a freshly built algorithm: Table III
//! prices one cold place, and CloudQC's partition memo would otherwise
//! turn every iteration after the first into a sweep-warm place.

use cloudqc_bench::{bench_circuit, bench_cloud};
use cloudqc_core::placement::{
    AnnealingPlacement, CloudQcBfsPlacement, CloudQcPlacement, GeneticPlacement,
    PlacementAlgorithm, RandomPlacement,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_placement(c: &mut Criterion) {
    let cloud = bench_cloud();
    let circuit = bench_circuit("knn_n67");
    let status = cloud.status();
    type Build = fn() -> Box<dyn PlacementAlgorithm>;
    let algorithms: Vec<(&str, Build)> = vec![
        ("random", || Box::new(RandomPlacement)),
        ("sa_quick", || {
            Box::new(AnnealingPlacement {
                iterations: 2_000,
                ..AnnealingPlacement::default()
            })
        }),
        ("ga_quick", || {
            Box::new(GeneticPlacement {
                population: 16,
                generations: 10,
                ..GeneticPlacement::default()
            })
        }),
        ("cloudqc_bfs", || Box::new(CloudQcBfsPlacement::default())),
        ("cloudqc", || Box::new(CloudQcPlacement::default())),
    ];
    let mut group = c.benchmark_group("placement/knn_n67");
    for (name, build) in &algorithms {
        group.bench_function(*name, |b| {
            b.iter(|| {
                build()
                    .place(black_box(&circuit), &cloud, &status, 7)
                    .expect("placement succeeds")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
