//! A hierarchical timing wheel (calendar queue) for the event loop.
//!
//! The simulator schedules millions of events whose firing times cluster a
//! few link latencies ahead of the clock. A binary heap charges O(log n)
//! comparisons — and `Event`-sized memmoves — per operation; the wheel
//! buckets events by time instead and charges O(1) amortised per
//! schedule/pop:
//!
//! * time is quantised into **ticks** of 2^[`TICK_SHIFT`] ns (≈ 1.05 ms —
//!   so every event within ~67 ms of the cursor, i.e. any ordinary link
//!   latency, files directly into level 0 and never cascades);
//! * `LEVELS` (6) wheel levels of `SLOTS` (64) slots each cover ticks near the
//!   cursor at 1-tick resolution (level 0) and exponentially coarser
//!   resolution above (level *L* spans 64^*L* ticks per slot);
//! * events beyond the wheel horizon (2^36 ticks ≈ 2.3 simulated years) go
//!   to an **overflow** heap and migrate into the wheel when the cursor
//!   reaches their epoch;
//! * a per-level occupancy bitmap (one `u64` per level) lets the cursor
//!   jump straight to the next populated slot, so empty stretches of
//!   simulated time cost nothing.
//!
//! **Ordering contract:** pops come out in exactly the total order the
//! simulator's old `BinaryHeap` used — ascending `(at, seq)`, where `seq`
//! is the schedule-call counter. Events sharing a tick are kept sorted in
//! the `ready` run; coarser slots re-sort on cascade. The differential
//! property test (`tests/wheel_vs_heap.rs`) pins this equivalence against
//! a reference heap over arbitrary interleaved schedule/pop sequences.
// simlint: hot-path — schedule/pop run once per simulated event; steady
// state must stay free of heap traffic.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Log2 of the tick length in nanoseconds (2^20 ns ≈ 1.05 ms per tick).
pub const TICK_SHIFT: u32 = 20;
/// Log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; together they cover `SLOT_BITS * LEVELS` = 36 tick bits.
const LEVELS: usize = 6;
/// Tick bits covered by the wheel; beyond this events overflow to a heap.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// The tick a given instant falls into.
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    value: T,
}

/// Overflow wrapper ordering entries by `(at, seq)` only (min via
/// `Reverse`). `seq` is unique, so the order is total.
#[derive(Debug)]
struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

#[derive(Debug)]
struct Level<T> {
    slots: [Vec<Entry<T>>; SLOTS],
    /// Bit *s* set ⇔ `slots[s]` is non-empty.
    occupied: u64,
}

impl<T> Level<T> {
    fn new() -> Self {
        // simlint: allow(hot-alloc) — empty slot rings, built once per
        // simulator; slot storage is retained and reused across pops.
        Level { slots: std::array::from_fn(|_| Vec::new()), occupied: 0 }
    }
}

/// A monotonic-time priority queue with the heap's `(at, seq)` total order
/// and O(1) amortised operations.
///
/// `schedule` assigns each event the next sequence number; `pop` returns
/// events in ascending `(at, seq)`. Instants at or before the latest
/// popped tick are accepted (they join the current ready run in exact
/// order), so the structure is a drop-in heap replacement even for
/// schedule-in-the-past call patterns.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Tick of the ready run; slots strictly ahead of it hold the future.
    cursor: u64,
    /// Events of the cursor tick (plus any scheduled into the past),
    /// sorted ascending by `(at, seq)` and popped from the front.
    ready: VecDeque<Entry<T>>,
    levels: Box<[Level<T>; LEVELS]>,
    /// Events beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<OverflowEntry<T>>>,
    seq: u64,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel with its cursor at the origin.
    pub fn new() -> Self {
        TimingWheel {
            cursor: 0,
            ready: VecDeque::new(),
            // simlint: allow(hot-alloc) — cold constructor: the level array
            // is boxed once so the wheel value itself stays register-sized.
            levels: Box::new(std::array::from_fn(|_| Level::new())),
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` at `at`, after everything already scheduled for
    /// the same instant.
    pub fn schedule(&mut self, at: SimTime, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry { at, seq, value });
        self.len += 1;
    }

    /// The instant of the next event, without removing it. (Takes `&mut`:
    /// finding the next event may advance the cursor and cascade slots,
    /// which changes layout but never order.)
    pub fn peek(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() {
            self.prime();
        }
        self.ready.front().map(|e| e.at)
    }

    /// Removes and returns the next event in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.ready.is_empty() {
            self.prime();
        }
        let entry = self.ready.pop_front()?;
        self.len -= 1;
        Some((entry.at, entry.value))
    }

    /// Files an entry into the ready run, a wheel slot, or the overflow.
    fn insert(&mut self, entry: Entry<T>) {
        let t = tick_of(entry.at);
        if t <= self.cursor {
            // Current tick (or the past): join the sorted ready run at the
            // exact `(at, seq)` position.
            let key = (entry.at, entry.seq);
            let pos = self.ready.partition_point(|e| (e.at, e.seq) < key);
            self.ready.insert(pos, entry);
            return;
        }
        // The highest bit where `t` differs from the cursor picks the
        // level; the level's 6-bit field of `t` picks the slot.
        let diff = t ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(Reverse(OverflowEntry(entry)));
            return;
        }
        let slot = ((t >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        let lvl = &mut self.levels[level];
        lvl.slots[slot].push(entry);
        lvl.occupied |= 1 << slot;
    }

    /// Advances the cursor to the next populated tick and fills `ready`
    /// with it (sorted). No-op when nothing is queued.
    fn prime(&mut self) {
        loop {
            if !self.ready.is_empty() {
                return;
            }
            // Find the nearest populated slot, lowest level first. Slots at
            // or below the cursor's own index are empty by construction, so
            // the bitmap scan only looks ahead.
            let mut cascaded = false;
            for level in 0..LEVELS {
                let unit = level as u32 * SLOT_BITS;
                let idx = ((self.cursor >> unit) & (SLOTS as u64 - 1)) as u32;
                let ahead_mask = if idx + 1 >= 64 { 0 } else { !0u64 << (idx + 1) };
                let ahead = self.levels[level].occupied & ahead_mask;
                if ahead == 0 {
                    continue;
                }
                let slot = ahead.trailing_zeros() as u64;
                let lvl = &mut self.levels[level];
                let mut entries = std::mem::take(&mut lvl.slots[slot as usize]);
                lvl.occupied &= !(1u64 << slot);
                // Jump the cursor to the slot's base tick (lower fields 0).
                let width = unit + SLOT_BITS;
                self.cursor = (self.cursor & !((1u64 << width) - 1)) | (slot << unit);
                if level == 0 {
                    // A level-0 slot is exactly one tick: sort and expose
                    // (the drained Vec goes back so its capacity is reused).
                    entries.sort_unstable_by_key(|e| (e.at, e.seq));
                    self.ready.extend(entries.drain(..));
                    self.levels[0].slots[slot as usize] = entries;
                    return;
                }
                // Coarser slot: cascade its entries towards level 0
                // (entries at exactly the new cursor tick land in `ready`).
                for entry in entries.drain(..) {
                    self.insert(entry);
                }
                self.levels[level].slots[slot as usize] = entries; // reuse the allocation
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: enter the overflow epoch of the earliest entry
            // and pull in everything that now fits under the horizon.
            let Some(Reverse(OverflowEntry(first))) = self.overflow.pop() else {
                return;
            };
            self.cursor = tick_of(first.at);
            self.insert(first); // tick == cursor, so this lands in `ready`
            while let Some(Reverse(OverflowEntry(e))) = self.overflow.peek() {
                if (tick_of(e.at) ^ self.cursor) >> WHEEL_BITS != 0 {
                    break;
                }
                let Some(Reverse(OverflowEntry(e))) = self.overflow.pop() else { unreachable!() };
                self.insert(e);
            }
            // `first` sits in `ready` now; the outer loop returns it.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, v)) = w.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimingWheel::new();
        // Nanoseconds spanning level 0 through the overflow.
        let times: [u64; 8] =
            [5, 40_000, 9_000_000, 3_000_000_000, 86_400_000_000_000, u64::MAX, 0, 1];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(SimTime::from_nanos(t), i as u32);
        }
        assert_eq!(w.len(), 8);
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped = drain(&mut w);
        assert_eq!(popped.iter().map(|&(t, _)| t).collect::<Vec<_>>(), sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_pops_in_schedule_order() {
        let mut w = TimingWheel::new();
        let t = SimTime::from_secs(2);
        for i in 0..100u32 {
            w.schedule(t, i);
        }
        let popped = drain(&mut w);
        assert_eq!(
            popped.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        // Simulation pattern: every popped event schedules a follow-up one
        // link-latency ahead; times must come out non-decreasing.
        let mut w = TimingWheel::new();
        w.schedule(SimTime::ZERO, 0);
        let mut last = SimTime::ZERO;
        let mut hops = 0u32;
        while let Some((at, v)) = w.pop() {
            assert!(at >= last, "time went backwards: {at} < {last}");
            last = at;
            hops += 1;
            if hops < 10_000 {
                w.schedule(at + SimDuration::from_millis(5), v + 1);
            }
        }
        assert_eq!(hops, 10_000);
        assert_eq!(last, SimTime::ZERO + SimDuration::from_millis(5 * 9_999));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_secs(5), 1);
        w.schedule(SimTime::from_nanos(1_000_000), 2);
        assert_eq!(w.peek(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(w.peek(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(1_000_000), 2)));
        assert_eq!(w.peek(), Some(SimTime::from_secs(5)));
        assert_eq!(w.pop(), Some((SimTime::from_secs(5), 1)));
        assert_eq!(w.peek(), None);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn schedule_into_the_past_still_pops_first() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_secs(10), 1);
        assert_eq!(w.pop(), Some((SimTime::from_secs(10), 1)));
        // The cursor now sits at t=10 s; an earlier instant must still pop
        // before anything later (heap semantics).
        w.schedule(SimTime::from_secs(20), 2);
        w.schedule(SimTime::from_secs(1), 3);
        assert_eq!(w.pop(), Some((SimTime::from_secs(1), 3)));
        assert_eq!(w.pop(), Some((SimTime::from_secs(20), 2)));
    }

    #[test]
    fn overflow_epoch_migration_preserves_order() {
        let mut w = TimingWheel::new();
        // Two events in a far epoch (beyond 2^61 ns), one nearby.
        let far = 1u64 << 62;
        w.schedule(SimTime::from_nanos(far + 1_000_000), 1);
        w.schedule(SimTime::from_nanos(far), 2);
        w.schedule(SimTime::from_secs(1), 3);
        assert_eq!(w.pop(), Some((SimTime::from_secs(1), 3)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(far), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(far + 1_000_000), 1)));
        assert!(w.is_empty());
    }
}
