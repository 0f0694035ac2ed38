//! The event-queue churn kernel shared by `tests/event_loop.rs` (the
//! calendar-vs-heap timing ratio) and `tests/work_golden.rs` (its
//! pinned checksum): prefill to 10⁵ pending events, 10⁵ pop-one /
//! push-one cycles with the small bounded time deltas the executor
//! generates (gate latencies, `epr_attempt`), then a full drain.

use cloudqc::sim::{EventQueue, ReferenceEventQueue, Tick};

/// Pending events held during the churn phase.
const PENDING: usize = 100_000;
/// Pop-one/push-one cycles performed at full occupancy.
const CHURN: usize = 100_000;

/// The surface the kernel needs from a queue.
pub trait Queue: Default {
    fn push_event(&mut self, time: Tick, event: u64);
    fn pop_event(&mut self) -> Option<(Tick, u64)>;
}

impl Queue for EventQueue<u64> {
    fn push_event(&mut self, time: Tick, event: u64) {
        self.push(time, event);
    }
    fn pop_event(&mut self) -> Option<(Tick, u64)> {
        self.pop()
    }
}

impl Queue for ReferenceEventQueue<u64> {
    fn push_event(&mut self, time: Tick, event: u64) {
        self.push(time, event);
    }
    fn pop_event(&mut self) -> Option<(Tick, u64)> {
        self.pop()
    }
}

/// SplitMix64 step: a deterministic delta stream with no RNG setup
/// cost inside the timed region.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the kernel on a fresh `Q` and returns a checksum over every
/// popped (time, event), so both queues can be compared and the
/// optimizer cannot discard the work.
pub fn churn<Q: Queue>() -> u64 {
    let mut q = Q::default();
    let mut state = 0x0123_4567_89ab_cdef;
    let mut acc = 0u64;
    for i in 0..PENDING {
        q.push_event(Tick::new(mix(&mut state) % 1_000), i as u64);
    }
    for _ in 0..CHURN {
        let (t, e) = q.pop_event().expect("churn holds occupancy");
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
        // Re-insert ahead of the popped time, as the executor does.
        q.push_event(Tick::new(t.as_ticks() + 1 + mix(&mut state) % 1_000), e);
    }
    while let Some((t, e)) = q.pop_event() {
        acc = acc.wrapping_add(t.as_ticks()).wrapping_add(e);
    }
    acc
}
