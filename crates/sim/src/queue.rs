//! The time-ordered event queue.
//!
//! [`EventQueue`] pops events by `(time, seq)`: earliest tick first,
//! and among events at one tick, in the order they were pushed. Seeded
//! runs replay identical schedules only because this order is total.
//! It is a `BinaryHeap` over that key. The executor keeps few events
//! pending at once, and on `e2ebench`'s workloads the heap's `O(log n)`
//! push and pop measured no slower end to end than a calendar queue's
//! amortized `O(1)`, in less memory.

use crate::time::Tick;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: Tick,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, with
        // insertion order (seq) breaking ties for deterministic replay.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of timestamped events with stable FIFO ordering
/// among events scheduled for the same tick.
///
/// A binary heap keyed by `(time, seq)`, where `seq` counts pushes;
/// see the [module docs](self).
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
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Tick, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
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
        // Times from 0 to u64::MAX, pushed latest first.
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
        q.push(Tick::new(50), 'd');
        assert_eq!(q.pop(), Some((Tick::new(50), 'c')));
        assert_eq!(q.pop(), Some((Tick::new(50), 'd')));
        assert_eq!(q.pop(), Some((Tick::new(200), 'b')));
        assert_eq!(q.pop(), None);
    }
}
