//! The continuous-clock service under mice-over-elephants traffic.
//!
//! A tight communication fabric (one pair per QPU, slow EPR
//! generation) runs deadline-free elephants that monopolize the
//! fabric while SLA-critical mice keep landing on the live executor.
//! Four arms price the continuous service's control plane:
//!
//! * `mice_no_preemption` — the continuous clock, preemption off: mice
//!   queue their remote gates behind the elephants'.
//! * `mice_preemption` — preemption on: admitting a deadline-carrying
//!   mouse parks the elephants' remote gates until the mice clear.
//! * `epoch_face` — the same traffic through the degenerate epoch
//!   face: the control-plane cost of the continuous clock over the
//!   epoch loop it replaced.
//! * `shedding_surge` — a heavy-tailed overload behind a queue-depth
//!   cap: the cost of turning the excess away at the door.
//!
//! Before timing, the harness runs the preemption A/B once and asserts
//! the policy's point: the critical mice's p99 JCT must *improve* with
//! preemption on.
//!
//! With `BENCH_JSON=<path>` in the environment every case's minimum
//! sample lands in `<path>` as ms/run — the input of the CI
//! bench-regression gate (see `bench_gate`).

use cloudqc_bench::bench_circuit;
use cloudqc_cloud::CloudBuilder;
use cloudqc_core::placement::CloudQcPlacement;
use cloudqc_core::runtime::{LoadShedPolicy, ServiceBuilder, WindowReport};
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::workload::Workload;
use cloudqc_sim::Tick;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Deadline-free elephants: repeated 20-qubit GHZ circuits that must
/// split across the two QPUs and saturate the single comm pair.
fn elephants() -> Workload {
    Workload::trace((0..4u64).map(|i| (bench_circuit("ghz_n20"), Tick::new(i * 12_000))))
}

/// SLA-critical mice arriving while the elephants are in flight.
fn mice() -> Workload {
    Workload::trace((0..12u64).map(|i| (bench_circuit("ghz_n12"), Tick::new(200 + i * 2_500))))
        .with_uniform_sla(1_000_000)
}

/// One continuous run: elephants + mice onto the live executor.
fn run_continuous(preempt: bool, seed: u64) -> WindowReport {
    let cloud = CloudBuilder::new(2)
        .computing_qubits(16)
        .communication_qubits(1)
        .epr_success_prob(0.2)
        .line_topology()
        .build();
    let placement = CloudQcPlacement::default();
    let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
        .preemption(preempt)
        .build();
    svc.submit_workload(&elephants());
    svc.submit_workload(&mice());
    svc.drive_to_quiescence().expect("traffic drains")
}

/// p99 completion time of the mice (jobs past the elephant block).
fn mice_p99(report: &WindowReport) -> u64 {
    let mut jcts: Vec<u64> = report
        .outcomes
        .iter()
        .filter(|o| o.job >= 4)
        .map(|o| o.completion_time.as_ticks())
        .collect();
    jcts.sort_unstable();
    jcts[(jcts.len() * 99).div_ceil(100).saturating_sub(1)]
}

fn bench_continuous_service(c: &mut Criterion) {
    // The A/B the bench exists to defend: preemption must improve the
    // critical mice's tail latency, or the timing numbers are noise
    // about a broken policy.
    let queued = run_continuous(false, 9);
    let parked = run_continuous(true, 9);
    let (p99_queued, p99_parked) = (mice_p99(&queued), mice_p99(&parked));
    assert!(
        p99_parked < p99_queued,
        "preemption must improve the critical p99: {p99_parked} vs {p99_queued}"
    );
    println!("mice p99 JCT: {p99_queued} queued behind elephants, {p99_parked} with preemption");

    let mut group = c.benchmark_group("continuous_service");
    group.sample_size(10);
    group.bench_function("mice_no_preemption", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(run_continuous(false, seed)).outcomes.len()
        });
    });
    group.bench_function("mice_preemption", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(run_continuous(true, seed)).outcomes.len()
        });
    });
    group.bench_function("epoch_face", |b| {
        let cloud = CloudBuilder::new(2)
            .computing_qubits(16)
            .communication_qubits(1)
            .epr_success_prob(0.2)
            .line_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let (elephants, mice) = (elephants(), mice());
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed).build();
            svc.submit_workload(black_box(&elephants));
            svc.submit_workload(black_box(&mice));
            svc.drive().expect("epoch completes").outcomes.len()
        });
    });
    group.bench_function("shedding_surge", |b| {
        let cloud = CloudBuilder::new(4)
            .computing_qubits(20)
            .communication_qubits(3)
            .ring_topology()
            .build();
        let placement = CloudQcPlacement::default();
        let surge = Workload::pareto_sizes(
            cloudqc_circuit::generators::ghz::ghz,
            30,
            1.2,
            8,
            64,
            60.0,
            33,
        );
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                .load_shedding(LoadShedPolicy::queue_depth(4))
                .build();
            svc.submit_workload(black_box(&surge));
            let window = svc.drive_to_quiescence().expect("surge drains");
            window.outcomes.len() + window.rejected.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_continuous_service);
criterion_main!(benches);
