//! Property tests for the radix-ladder calendar [`EventQueue`]
//! against the retired binary-heap implementation as a reference
//! model.
//!
//! The executor's determinism contract hangs on the queue's total
//! order: events pop by `(time, seq)` — earliest tick first, FIFO
//! within a tick. The calendar queue reproduces that order *by
//! construction* (FIFO buckets, cascades that preserve push order)
//! rather than by comparison, so these tests drive both queues through
//! identical interleaved push/pop scripts and demand identical pop
//! sequences, including the regimes where the ladder's bookkeeping is
//! nontrivial: same-tick FIFO bursts (seq order must survive), large
//! tick gaps (multi-level cascades), and pushes at or below the last
//! popped time (rewind).
//!
//! A timing test also checks the calendar queue's reason to exist: it
//! must beat the heap at least 2× on the churn kernel.
//!
//! Run directly with:
//!
//! ```text
//! cargo test --release -q --test event_loop
//! ```

mod churn;

use cloudqc::sim::{EventQueue, ReferenceEventQueue, Tick};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// One scripted queue operation. Pop scripts carry no payload; push
/// times are deltas so scripts stay meaningful as the queue drains.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `last popped time + delta` — the executor's regime,
    /// where new events never predate the event being handled.
    Push { delta: u64 },
    /// Pop once; a no-op on an empty queue (both queues agree on
    /// emptiness by the length invariant).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Small deltas: dense traffic, heavy same-tick collisions.
        4 => (0u64..4).prop_map(|delta| Op::Push { delta }),
        // Mid-range deltas: typical event-loop spacing.
        2 => (0u64..1_000).prop_map(|delta| Op::Push { delta }),
        // Huge gaps: force placements in the ladder's upper levels
        // and multi-level cascades on the way back down.
        1 => (1u64 << 40..1u64 << 52).prop_map(|delta| Op::Push { delta }),
        3 => Just(Op::Pop),
    ]
}

/// Drives both queues through one script and asserts identical
/// observable behaviour after every step.
fn run_script(ops: Vec<Op>, payload_stride: u64) -> Result<(), String> {
    let mut calendar = EventQueue::new();
    let mut reference = ReferenceEventQueue::new();
    let mut now = 0u64;
    let mut payload = 0u64;
    for op in ops {
        match op {
            Op::Push { delta } => {
                let t = Tick::new(now.saturating_add(delta));
                calendar.push(t, payload);
                reference.push(t, payload);
                payload += payload_stride;
            }
            Op::Pop => {
                let a = calendar.pop();
                let b = reference.pop();
                prop_assert_eq!(a, b, "pop sequences diverged");
                if let Some((t, _)) = a {
                    now = t.as_ticks();
                }
            }
        }
        prop_assert_eq!(calendar.len(), reference.len());
        prop_assert_eq!(calendar.peek_time(), reference.peek_time());
    }
    // Drain: every remaining event must come out in the same order.
    while let Some(expected) = reference.pop() {
        prop_assert_eq!(calendar.pop(), Some(expected));
    }
    prop_assert!(calendar.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_queue_matches_heap_reference(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_script(ops, 1)?;
    }

    #[test]
    fn same_tick_bursts_pop_in_fifo_order(
        bursts in prop::collection::vec((0u64..16, 1usize..24), 1..24),
    ) {
        // Clusters of events on a handful of ticks: FIFO within a tick
        // is the part a comparison-free queue could silently get wrong.
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let mut payload = 0u64;
        for (tick, count) in bursts {
            for _ in 0..count {
                calendar.push(Tick::new(tick), payload);
                reference.push(Tick::new(tick), payload);
                payload += 1;
            }
        }
        while let Some(expected) = reference.pop() {
            prop_assert_eq!(calendar.pop(), Some(expected));
        }
        prop_assert!(calendar.is_empty());
    }

    #[test]
    fn pushes_below_the_last_pop_rewind_correctly(
        times in prop::collection::vec(0u64..64, 2..64),
    ) {
        // Absolute (not delta) times from a tiny domain: after the
        // first pop, later pushes routinely land at or below the last
        // popped tick, exercising the rewind path against the heap,
        // with pops interleaved every other push.
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            calendar.push(Tick::new(t), i);
            reference.push(Tick::new(t), i);
            if i % 2 == 1 {
                prop_assert_eq!(calendar.pop(), reference.pop());
            }
        }
        while let Some(expected) = reference.pop() {
            prop_assert_eq!(calendar.pop(), Some(expected));
        }
        prop_assert!(calendar.is_empty());
    }
}

#[test]
fn calendar_queue_is_at_least_twice_as_fast_as_the_heap() {
    // Both arms run in this process, so host drift cancels; each is the
    // minimum of 6 samples, and the arm that runs first alternates.
    let time = |kernel: fn() -> u64| {
        let start = Instant::now();
        let sum = kernel();
        (start.elapsed(), sum)
    };
    let calendar_arm = churn::churn::<EventQueue<u64>>;
    let heap_arm = churn::churn::<ReferenceEventQueue<u64>>;
    let (mut calendar, mut heap) = (Duration::MAX, Duration::MAX);
    for round in 0..6 {
        let ((c, c_sum), (h, h_sum)) = if round % 2 == 0 {
            let c = time(calendar_arm);
            (c, time(heap_arm))
        } else {
            let h = time(heap_arm);
            (time(calendar_arm), h)
        };
        assert_eq!(c_sum, h_sum, "the kernels replay one schedule");
        calendar = calendar.min(c);
        heap = heap.min(h);
    }
    assert!(
        heap >= calendar.mul_f64(2.0),
        "calendar queue ({calendar:?}) must be at least 2x faster than the \
         binary heap ({heap:?}) at 10^5 pending events"
    );
}
