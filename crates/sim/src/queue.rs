//! The time-ordered event queue.
//!
//! # Event-loop internals: the radix-ladder calendar queue
//!
//! [`EventQueue`] is the heart of every `step()` the executor takes, so
//! its push/pop cost is a per-event tax on the whole simulation. The
//! original implementation was a `BinaryHeap<(Tick, seq)>` — `O(log n)`
//! per operation with a comparison-heavy inner loop. It is kept, byte
//! for byte, as [`ReferenceEventQueue`]: the reference model the
//! proptests and the timing test in `tests/event_loop.rs` compare
//! against.
//!
//! The production queue is a **hierarchical bucket (calendar) queue**,
//! laid out as a radix ladder over the 64-bit tick value:
//!
//! * Each *level* `l` owns 64 slots and indexes events by the `l`-th
//!   6-bit digit of their time. A `u64` occupancy bitmap per level makes
//!   "lowest nonempty slot" one `trailing_zeros` instruction.
//! * A `base` timestamp (the time of the most recently popped event)
//!   anchors the ladder. An event at time `t >= base` lives at the level
//!   of the *highest digit where `t` differs from `base`* — i.e. events
//!   close to the present sit in level 0 (exact-time slots), far-future
//!   events sit high in the ladder in coarse buckets.
//! * Popping takes the lowest occupied level-0 slot. When level 0
//!   drains, the lowest slot of the lowest occupied level *cascades*:
//!   `base` advances to that bucket's prefix and its events redistribute
//!   into lower levels. Each event descends the ladder at most once per
//!   level over its lifetime, so push/pop are O(1) amortized (worst
//!   case O(11) = `64 bits / 6`).
//!
//! **Why FIFO-per-bucket preserves replay order.** Events that compare
//! equal on `(time)` must pop in insertion (`seq`) order for seeded
//! runs to replay identical schedules. In the ladder, an event's
//! (level, slot) is a pure function of `(time, base)`, and `base` only
//! changes between pushes in ways that move *boundaries between*
//! distinct times, never reorder them: so two events with the same time
//! always land in the same bucket, in push order, and every cascade
//! redistributes a bucket front-to-back. Appending to a `VecDeque` per
//! slot therefore reproduces the heap's `(time, seq)` order by
//! construction — no sequence numbers are compared on the hot path (a
//! `seq` is still carried for the rare rewind path below).
//!
//! Eager cascading at the end of [`EventQueue::pop`] maintains the
//! invariant *level 0 is occupied whenever the queue is nonempty*, so
//! [`EventQueue::peek_time`] is a pure `&self` bitmap read — no
//! interior mutability, and the queue stays `Sync`-friendly.
//!
//! Pushing *before* `base` (earlier than the last popped time) never
//! happens in the executor — events are always scheduled at `now +
//! latency` — but the queue is a generic container, so it stays
//! correct: a past push triggers a rare O(n log n) *rewind* that
//! re-anchors `base` and re-places every pending event in `(time, seq)`
//! order.

use crate::time::Tick;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bits per radix digit: 64 slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask extracting one digit.
const SLOT_MASK: u64 = SLOTS as u64 - 1;

struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

/// One rung of the ladder: 64 FIFO buckets plus an occupancy bitmap.
struct Level<E> {
    occupied: u64,
    slots: Vec<VecDeque<Entry<E>>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| VecDeque::new()).collect(),
        }
    }
}

/// The level of the highest set digit of `x` (`x != 0`).
fn level_of(x: u64) -> usize {
    ((63 - x.leading_zeros()) / SLOT_BITS) as usize
}

/// A priority queue of timestamped events with stable FIFO ordering
/// among events scheduled for the same tick.
///
/// Implemented as a radix-ladder calendar queue — O(1) amortized
/// push/pop/peek; see the [module docs](self) for the design and the
/// FIFO-preservation argument. [`ReferenceEventQueue`] is the original
/// binary-heap implementation, kept as the proptest reference model.
///
/// # Example
///
/// ```
/// use cloudqc_sim::{EventQueue, Tick};
///
/// let mut q = EventQueue::new();
/// q.push(Tick::new(5), 'b');
/// q.push(Tick::new(1), 'a');
/// assert_eq!(q.peek_time(), Some(Tick::new(1)));
/// assert_eq!(q.pop(), Some((Tick::new(1), 'a')));
/// ```
pub struct EventQueue<E> {
    levels: Vec<Level<E>>,
    /// Time of the most recently popped event; the ladder's anchor.
    base: u64,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: Vec::new(),
            base: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Tick, event: E) {
        let t = time.as_ticks();
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len == 0 {
            // Re-anchor an empty ladder at the new event's time so it
            // lands in level 0 and the peek invariant holds trivially.
            self.base = t;
        } else if t < self.base {
            self.rewind(t);
        }
        self.place(Entry {
            time: t,
            seq,
            event,
        });
        self.len += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        if self.len == 0 {
            return None;
        }
        // Invariant: level 0 is occupied whenever the queue is nonempty.
        let slot = self.levels[0].occupied.trailing_zeros() as usize;
        let bucket = &mut self.levels[0].slots[slot];
        let entry = bucket.pop_front().expect("occupied slot must be nonempty");
        if bucket.is_empty() {
            self.levels[0].occupied &= !(1u64 << slot);
        }
        self.base = entry.time;
        self.len -= 1;
        self.settle();
        Some((Tick::new(entry.time), entry.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        let slot = self.levels[0].occupied.trailing_zeros() as usize;
        self.levels[0].slots[slot]
            .front()
            .map(|e| Tick::new(e.time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Places an entry (with `entry.time >= self.base`) into the ladder.
    fn place(&mut self, entry: Entry<E>) {
        let x = entry.time ^ self.base;
        let level = if x == 0 { 0 } else { level_of(x) };
        let slot = ((entry.time >> (level as u32 * SLOT_BITS)) & SLOT_MASK) as usize;
        while self.levels.len() <= level {
            self.levels.push(Level::new());
        }
        self.levels[level].occupied |= 1u64 << slot;
        self.levels[level].slots[slot].push_back(entry);
    }

    /// Restores the invariant that level 0 is occupied whenever the
    /// queue is nonempty: cascade the lowest bucket of the lowest
    /// occupied level down the ladder until level 0 fills.
    fn settle(&mut self) {
        while self.len > 0 && self.levels[0].occupied == 0 {
            let level = self
                .levels
                .iter()
                .position(|l| l.occupied != 0)
                .expect("nonempty queue must have an occupied level");
            let slot = self.levels[level].occupied.trailing_zeros() as usize;
            self.levels[level].occupied &= !(1u64 << slot);
            let entries: Vec<Entry<E>> = self.levels[level].slots[slot].drain(..).collect();
            // Advance base to this bucket's prefix (digits above `level`
            // unchanged, digit `level` = slot, lower digits zero). Every
            // remaining event is >= that prefix, and every drained entry
            // now re-places strictly below `level`.
            let shift = level as u32 * SLOT_BITS;
            let above = if shift + SLOT_BITS >= 64 {
                0
            } else {
                !0u64 << (shift + SLOT_BITS)
            };
            self.base = (self.base & above) | ((slot as u64) << shift);
            for entry in entries {
                self.place(entry);
            }
        }
    }

    /// A push landed before `base` (earlier than the last popped time):
    /// re-anchor at the new minimum and re-place everything in
    /// `(time, seq)` order. Rare by construction — the executor only
    /// schedules at `now + latency` — so O(n log n) here is fine.
    fn rewind(&mut self, new_base: u64) {
        let mut pending: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for level in &mut self.levels {
            level.occupied = 0;
            for slot in &mut level.slots {
                pending.extend(slot.drain(..));
            }
        }
        pending.sort_unstable_by_key(|e| (e.time, e.seq));
        self.base = new_base;
        for entry in pending {
            self.place(entry);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

struct RefEntry<E> {
    time: Tick,
    seq: u64,
    event: E,
}

impl<E> PartialEq for RefEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for RefEntry<E> {}

impl<E> Ord for RefEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, with
        // insertion order (seq) breaking ties for deterministic replay.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for RefEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The original `BinaryHeap<(Tick, seq)>` event queue, kept as the
/// executable specification of [`EventQueue`]'s ordering contract.
///
/// The calendar queue is proptested against this model over random
/// interleaved push/pop sequences (`tests/event_loop.rs`), which also
/// times both on one churn kernel and requires the calendar queue to
/// be at least twice as fast. Not used on any production path.
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<RefEntry<E>>,
    next_seq: u64,
}

impl<E> ReferenceEventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Tick, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { time, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Tick> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        ReferenceEventQueue::new()
    }
}

impl<E> std::fmt::Debug for ReferenceEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceEventQueue")
            .field("pending", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Tick::new(30), 3);
        q.push(Tick::new(10), 1);
        q.push(Tick::new(20), 2);
        assert_eq!(q.pop(), Some((Tick::new(10), 1)));
        assert_eq!(q.pop(), Some((Tick::new(20), 2)));
        assert_eq!(q.pop(), Some((Tick::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Tick::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Tick::new(7), i)));
        }
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Tick::new(10), 'a');
        assert_eq!(q.pop(), Some((Tick::new(10), 'a')));
        q.push(Tick::new(5), 'b');
        q.push(Tick::new(3), 'c');
        assert_eq!(q.pop(), Some((Tick::new(3), 'c')));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Tick::new(1), ());
        assert_eq!(q.peek_time(), Some(Tick::new(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn large_tick_gaps_cascade() {
        // Events spread across every ladder level, including the top
        // (shift + SLOT_BITS > 64 edge).
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            63,
            64,
            65,
            4096,
            1 << 30,
            (1 << 30) + 1,
            1 << 45,
            u64::MAX - 1,
            u64::MAX,
        ];
        // Push in reverse to force high-level placement first.
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(Tick::new(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.as_ticks());
        }
        assert_eq!(popped, times);
    }

    #[test]
    fn push_before_last_pop_rewinds() {
        // The executor never does this, but the generic container must
        // stay correct: push earlier than the last popped time.
        let mut q = EventQueue::new();
        q.push(Tick::new(100), 'a');
        q.push(Tick::new(200), 'b');
        assert_eq!(q.pop(), Some((Tick::new(100), 'a')));
        q.push(Tick::new(50), 'c');
        q.push(Tick::new(50), 'd'); // same-tick FIFO across a rewind
        assert_eq!(q.pop(), Some((Tick::new(50), 'c')));
        assert_eq!(q.pop(), Some((Tick::new(50), 'd')));
        assert_eq!(q.pop(), Some((Tick::new(200), 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reference_queue_matches_on_a_fixed_trace() {
        let mut q = EventQueue::new();
        let mut r = ReferenceEventQueue::new();
        let trace = [3u64, 3, 7, 1, 1, 1, 900, 7, 3];
        for (i, &t) in trace.iter().enumerate() {
            q.push(Tick::new(t), i);
            r.push(Tick::new(t), i);
        }
        loop {
            assert_eq!(q.peek_time(), r.peek_time());
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
