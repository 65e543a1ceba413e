//! Differential property test: the timing wheel against a reference
//! `BinaryHeap` model.
//!
//! The simulator's determinism hangs on the event queue's total order —
//! ascending `(at, seq)` — so the wheel must reproduce the heap's pop
//! sequence *exactly* for arbitrary interleavings of schedules and pops,
//! at instants spanning the ready run, every wheel level, and the
//! overflow heap. This also runs under the release profile in CI
//! (`cargo test -p netsim --release`) so the bit-twiddling is exercised
//! with release arithmetic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netsim::time::SimTime;
use netsim::wheel::TimingWheel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary interleaved schedule/pop sequences produce identical
    /// `(at, value)` pop orders on the wheel and on a `(at, seq)`-ordered
    /// reference heap.
    #[test]
    fn wheel_matches_reference_heap(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400),
    ) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (tag, &(op, raw)) in ops.iter().enumerate() {
            if op % 4 == 3 {
                let expect = heap.pop().map(|Reverse((at, _seq, v))| (at, v));
                let got = wheel.pop();
                prop_assert_eq!(expect, got);
            } else {
                // Mix magnitudes so level 0, the coarse levels and the
                // overflow epoch are all hit (and, interleaved with pops,
                // schedules into the past relative to the cursor).
                let at = SimTime::from_nanos(match op % 3 {
                    0 => raw % (1 << 24),  // within a few ticks of the origin
                    1 => raw % (1 << 44),  // mid wheel levels
                    _ => raw,              // anywhere, including overflow
                });
                let tag = tag as u32;
                wheel.schedule(at, tag);
                heap.push(Reverse((at, seq, tag)));
                seq += 1;
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let expect = heap.pop().map(|Reverse((at, _seq, v))| (at, v));
            let got = wheel.pop();
            let done = expect.is_none();
            prop_assert_eq!(expect, got);
            if done {
                prop_assert!(wheel.is_empty());
                break;
            }
        }
    }

    /// Same-instant schedules keep insertion order (the `seq` tie-break),
    /// even when the shared instant is re-scheduled across pops.
    #[test]
    fn same_instant_fifo_across_pops(
        instants in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut wheel: TimingWheel<usize> = TimingWheel::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (i, &t) in instants.iter().enumerate() {
            let at = u64::from(t % 7) * 1_000_000; // few distinct instants
            wheel.schedule(SimTime::from_nanos(at), i);
            expected.push((at, i));
        }
        // Stable sort by instant: equal instants stay in schedule order.
        expected.sort_by_key(|&(at, _)| at);
        let mut popped = Vec::new();
        while let Some((at, v)) = wheel.pop() {
            popped.push((at.as_nanos(), v));
        }
        prop_assert_eq!(popped, expected);
    }
}
