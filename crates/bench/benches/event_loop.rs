//! Event-loop hot-path benchmarks: the radix-ladder calendar
//! [`EventQueue`] against the retired binary-heap implementation, plus
//! a 10⁵-job case on the bare executor.
//!
//! Two kernels:
//! * `queue/*` — steady-state churn at 10⁵ pending events: prefill,
//!   then pop-one/push-one cycles with the small bounded time deltas
//!   the executor actually generates (gate latencies, `epr_attempt`),
//!   then a full drain. `calendar_100k` runs the ladder,
//!   `binary_heap_100k` the old `BinaryHeap<(Tick, seq)>` kept as
//!   [`ReferenceEventQueue`]; the in-harness acceptance gate at the
//!   bottom demands the ladder win by ≥2×.
//! * `executor/*` — 10⁵ tiny remote-gate jobs with hand-built
//!   placements admitted in contended waves into one bare executor
//!   (8-QPU ring, scarce communication qubits): the calendar queue,
//!   grant-ordered shard index and batched EPR sampling under an event
//!   volume an order of magnitude past the other benches, with no
//!   placement, admission or service layer in the loop. Reports
//!   events/sec.
//!
//! With `BENCH_JSON=<path>` in the environment every case's minimum
//! sample lands in `<path>` as ms/run — the input of the CI
//! bench-regression gate (see `bench_gate`).

use cloudqc_circuit::Circuit;
use cloudqc_cloud::{CloudBuilder, QpuId};
use cloudqc_core::placement::Placement;
use cloudqc_core::schedule::CloudQcScheduler;
use cloudqc_core::Executor;
use cloudqc_sim::{EventQueue, ReferenceEventQueue, Tick};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pending events held during the churn phase.
const PENDING: usize = 100_000;
/// Pop-one/push-one cycles performed at full occupancy.
const CHURN: usize = 100_000;

/// SplitMix64 step — a deterministic delta stream with no RNG setup
/// cost inside the timed region.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The churn kernel on the calendar queue: prefill to [`PENDING`],
/// [`CHURN`] hold-pattern cycles, full drain. Returns a checksum so
/// the optimizer cannot discard the work.
fn calendar_churn() -> u64 {
    let mut q = EventQueue::new();
    let mut state = 0x0123_4567_89ab_cdef;
    let mut acc = 0u64;
    for i in 0..PENDING {
        q.push(Tick::new(mix(&mut state) % 1_000), i as u64);
    }
    for _ in 0..CHURN {
        let (t, e) = q.pop().expect("churn holds occupancy");
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
        // Re-insert ahead of the popped time: the executor's regime of
        // small bounded latencies (gate durations, epr_attempt).
        q.push(Tick::new(t.as_ticks() + 1 + mix(&mut state) % 1_000), e);
    }
    while let Some((t, e)) = q.pop() {
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
    }
    acc
}

/// The identical kernel on the retired binary heap. Kept textually in
/// sync with [`calendar_churn`] — only the queue type differs.
fn heap_churn() -> u64 {
    let mut q = ReferenceEventQueue::new();
    let mut state = 0x0123_4567_89ab_cdef;
    let mut acc = 0u64;
    for i in 0..PENDING {
        q.push(Tick::new(mix(&mut state) % 1_000), i as u64);
    }
    for _ in 0..CHURN {
        let (t, e) = q.pop().expect("churn holds occupancy");
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
        q.push(Tick::new(t.as_ticks() + 1 + mix(&mut state) % 1_000), e);
    }
    while let Some((t, e)) = q.pop() {
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
    }
    acc
}

fn bench_queue(c: &mut Criterion) {
    // The two kernels must agree — they replay the same schedule.
    assert_eq!(calendar_churn(), heap_churn(), "kernels diverged");

    let mut group = c.benchmark_group("event_loop/queue");
    group.sample_size(10);
    group.bench_function("calendar_100k", |b| b.iter(|| black_box(calendar_churn())));
    group.bench_function("binary_heap_100k", |b| b.iter(|| black_box(heap_churn())));
    group.finish();

    // CI acceptance gate: min-of-samples, timed directly because the
    // vendored criterion exposes no per-case timings to the harness.
    let samples = 5;
    let mut calendar = Duration::MAX;
    let mut heap = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        black_box(calendar_churn());
        calendar = calendar.min(start.elapsed());
        let start = Instant::now();
        black_box(heap_churn());
        heap = heap.min(start.elapsed());
    }
    assert!(
        heap >= calendar.mul_f64(2.0),
        "calendar queue ({calendar:?}) must be at least 2x faster than the \
         binary heap ({heap:?}) at {PENDING} pending events"
    );
    println!(
        "queue acceptance: calendar {calendar:?}, binary heap {heap:?} ({:.1}x)",
        heap.as_secs_f64() / calendar.as_secs_f64().max(f64::EPSILON)
    );
}

/// Jobs per admission wave in the executor case.
const WAVE: usize = 1_000;
/// Admission waves — [`WAVE`] × this = 10⁵ jobs.
const WAVES: usize = 100;

/// Runs 10⁵ two-qubit remote-gate jobs through one executor in
/// contended waves; returns `(now, events processed)`.
fn run_executor(seed: u64) -> (Tick, u64) {
    // Scarce communication qubits + a low EPR success rate: each wave
    // holds a deep front layer over the ring's 8 shards and every
    // remote gate retries for several rounds, so allocation rounds,
    // RoundDone sampling, and queue traffic — the event loop proper,
    // not job setup — dominate the runtime.
    let cloud = CloudBuilder::new(8)
        .computing_qubits(40)
        .communication_qubits(2)
        .epr_success_prob(0.25)
        .ring_topology()
        .build();
    let mut ping = Circuit::new(2);
    ping.cx(0, 1).cx(0, 1);
    let mut exec = Executor::new(&cloud, &CloudQcScheduler, seed);
    for wave in 0..WAVES {
        for i in 0..WAVE {
            // Spread the jobs around the ring, two hops apart: every
            // shard stays hot simultaneously and each gate needs two
            // successful EPR rounds, doubling the event traffic per
            // unit of job-admission overhead.
            let a = (wave + i) % 8;
            let p = Placement::new(vec![QpuId::new(a), QpuId::new((a + 2) % 8)]);
            exec.try_add_job(&ping, &p).expect("job admitted");
        }
        exec.run_to_completion();
    }
    (exec.now(), exec.batch_stats().events())
}

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_loop/executor");
    group.sample_size(10);
    group.bench_function("100k_jobs", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(run_executor(seed))
        });
    });
    group.finish();

    // Throughput report: one instrumented pass outside the timed loop.
    let start = Instant::now();
    let (_, events) = run_executor(0);
    let elapsed = start.elapsed();
    println!(
        "executor throughput: {events} events in {elapsed:?} ({:.0} events/sec)",
        events as f64 / elapsed.as_secs_f64().max(f64::EPSILON)
    );
}

criterion_group!(benches, bench_queue, bench_executor);
criterion_main!(benches);
