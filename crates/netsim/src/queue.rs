//! The event queue behind the event loop: a binary min-heap on `(at, seq)`.
//!
//! **Ordering contract:** pops come out in ascending `(at, seq)`, where
//! `seq` is the schedule-call counter — earliest instant first, and events
//! sharing an instant in the order they were scheduled. `seq` is unique,
//! so the order is total and every run pops the same sequence.
// simlint: hot-path — schedule/pop run once per simulated event; steady
// state must stay free of heap traffic.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A queued value, ordered by `(at, seq)` only.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A priority queue of timed values popped in ascending `(at, seq)`.
///
/// Any instant may be scheduled at any time, including one before the
/// last popped: it simply pops next.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `value` at `at`, after everything already scheduled for
    /// the same instant.
    pub fn schedule(&mut self, at: SimTime, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, value }));
    }

    /// The instant of the next event, without removing it.
    pub fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns the next event in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, v)) = q.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    // The next two tests keep the names they had under the timing wheel
    // this queue replaced: "levels" are the wheel's time scales, 0 ns to
    // u64::MAX, and the overflow epoch held instants past 2^61 ns.
    #[test]
    fn pops_in_time_order_across_levels() {
        let mut q = EventQueue::new();
        let times: [u64; 9] =
            [5, 40_000, 9_000_000, 3_000_000_000, 86_400_000_000_000, u64::MAX, 0, 1, u64::MAX];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i as u32);
        }
        assert_eq!(q.len(), times.len());
        let expected: Vec<(u64, u32)> = vec![
            (0, 6),
            (1, 7),
            (5, 0),
            (40_000, 1),
            (9_000_000, 2),
            (3_000_000_000, 3),
            (86_400_000_000_000, 4),
            (u64::MAX, 5),
            (u64::MAX, 8),
        ];
        assert_eq!(drain(&mut q), expected);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_epoch_migration_preserves_order() {
        let mut q = EventQueue::new();
        let far = 1u64 << 62;
        q.schedule(SimTime::from_nanos(far + 1_000_000), 1);
        q.schedule(SimTime::from_nanos(far), 2);
        q.schedule(SimTime::from_secs(1), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 1_000_000), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_pops_in_schedule_order() {
        // A few instants, scheduled interleaved: each instant's values pop
        // in schedule order, i.e. a stable sort by instant.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for i in 0..100u32 {
            let at = u64::from(i * 3 % 7) * 1_000_000;
            q.schedule(SimTime::from_nanos(at), i);
            expected.push((at, i));
        }
        expected.sort_by_key(|&(at, _)| at);
        assert_eq!(drain(&mut q), expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        // Simulation pattern: every popped event schedules a follow-up one
        // link-latency ahead; times must come out non-decreasing.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        let mut last = SimTime::ZERO;
        let mut hops = 0u32;
        while let Some((at, v)) = q.pop() {
            assert!(at >= last, "time went backwards: {at} < {last}");
            last = at;
            hops += 1;
            if hops < 10_000 {
                q.schedule(at + SimDuration::from_millis(5), v + 1);
            }
        }
        assert_eq!(hops, 10_000);
        assert_eq!(last, SimTime::ZERO + SimDuration::from_millis(5 * 9_999));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.schedule(SimTime::from_nanos(1_000_000), 2);
        assert_eq!(q.peek(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(q.peek(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1_000_000), 2)));
        assert_eq!(q.peek(), Some(SimTime::from_secs(5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 1)));
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_into_the_past_still_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1)));
        // An instant before the last pop still pops before anything later.
        q.schedule(SimTime::from_secs(20), 2);
        q.schedule(SimTime::from_secs(1), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), 2)));
    }
}
