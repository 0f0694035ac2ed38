//! Property tests for [`EventQueue`] against a naive model.
//!
//! The executor's determinism contract hangs on the queue's total
//! order: events pop by `(time, seq)` — earliest tick first, FIFO
//! within a tick. These tests drive the queue and [`Model`], a vector
//! whose pop scans for the least `(time, seq)`, through identical
//! interleaved push/pop scripts and demand identical pop sequences:
//! same-tick FIFO bursts (seq order must survive), tick gaps up to
//! 2⁵², and pushes at or below the last popped time.
//!
//! Run directly with:
//!
//! ```text
//! cargo test --release -q --test event_loop
//! ```

use cloudqc::sim::{EventQueue, Tick};
use proptest::prelude::*;

/// The ordering contract in its plainest form: pending
/// `(time, seq, payload)` entries, popped by a linear scan for the
/// least `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<(Tick, u64, u64)>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, time: Tick, payload: u64) {
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Tick, u64)> {
        let (at, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(time, seq, _))| (time, seq))?;
        let (time, _, payload) = self.pending.remove(at);
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<Tick> {
        self.pending.iter().map(|&(time, _, _)| time).min()
    }
}

/// One scripted queue operation. Pop scripts carry no payload; push
/// times are deltas so scripts stay meaningful as the queue drains.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `last popped time + delta` — the executor's regime,
    /// where new events never predate the event being handled.
    Push { delta: u64 },
    /// Pop once; a no-op on an empty queue (both sides agree on
    /// emptiness by the length invariant).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Small deltas: dense traffic, heavy same-tick collisions.
        4 => (0u64..4).prop_map(|delta| Op::Push { delta }),
        // Mid-range deltas: typical event-loop spacing.
        2 => (0u64..1_000).prop_map(|delta| Op::Push { delta }),
        // Huge gaps: far-future events among near ones.
        1 => (1u64 << 40..1u64 << 52).prop_map(|delta| Op::Push { delta }),
        3 => Just(Op::Pop),
    ]
}

/// Drains both sides and asserts they pop the same events.
fn drain_matches(queue: &mut EventQueue<u64>, model: &mut Model) -> Result<(), String> {
    while let Some(expected) = model.pop() {
        prop_assert_eq!(queue.pop(), Some(expected));
    }
    prop_assert!(queue.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_queue_matches_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let mut now = 0u64;
        for (payload, op) in (0u64..).zip(ops) {
            match op {
                Op::Push { delta } => {
                    let t = Tick::new(now.saturating_add(delta));
                    queue.push(t, payload);
                    model.push(t, payload);
                }
                Op::Pop => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, model.pop(), "pop sequences diverged");
                    if let Some((t, _)) = popped {
                        now = t.as_ticks();
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.pending.len());
            prop_assert_eq!(queue.peek_time(), model.peek_time());
        }
        drain_matches(&mut queue, &mut model)?;
    }

    #[test]
    fn same_tick_bursts_pop_in_fifo_order(
        bursts in prop::collection::vec((0u64..16, 1usize..24), 1..24),
    ) {
        // Clusters of events on a handful of ticks: only the seq
        // tie-break orders events within a tick.
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let mut payload = 0u64;
        for (tick, count) in bursts {
            for _ in 0..count {
                queue.push(Tick::new(tick), payload);
                model.push(Tick::new(tick), payload);
                payload += 1;
            }
        }
        drain_matches(&mut queue, &mut model)?;
    }

    #[test]
    fn pushes_below_the_last_pop_keep_order(
        times in prop::collection::vec(0u64..64, 2..64),
    ) {
        // Absolute (not delta) times from a tiny domain: after the
        // first pop, later pushes routinely land at or below the last
        // popped tick, with pops interleaved every other push.
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        for (i, &t) in (0u64..).zip(&times) {
            queue.push(Tick::new(t), i);
            model.push(Tick::new(t), i);
            if i % 2 == 1 {
                prop_assert_eq!(queue.pop(), model.pop());
            }
        }
        drain_matches(&mut queue, &mut model)?;
    }
}
