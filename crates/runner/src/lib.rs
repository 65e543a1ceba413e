//! # runner — the parallel Monte-Carlo trial driver
//!
//! Every paper artifact (Tables I–II, Fig. 5, Table V, the §VII-A scan,
//! the Fig. 6/7 survey sweeps) is a sweep of *independent* trials: each
//! trial builds its own seeded simulation, runs it to an outcome, and the
//! outcomes are aggregated. [`TrialRunner`] fans those trials across
//! `workers` scoped threads and merges the results **in item order**, so
//! the output is byte-identical to the sequential path for any worker
//! count: parallelism changes only wall-clock time, never results.
//!
//! This crate sits below both `measure` (whose population accessors use
//! the seed scheme) and `timeshift`, so the whole workspace shares one
//! parallel code path and one per-index seed scheme; the campaign
//! registry's scans and in-process shards run on it.
//!
//! Determinism contract: a trial's seed must be a pure function of the
//! master seed and the item index (see [`scan_seed`]) — never of which
//! worker picks the item up or when.

#![warn(missing_docs)]

pub mod hist;

pub use hist::StreamHist;

use std::sync::atomic::{AtomicUsize, Ordering};

/// The seed for the population item at index `idx`: a pure function of the
/// master seed and the index (splitmix-style mixing), so every sweep in
/// the workspace produces identical results for any worker count or
/// chunking. Full avalanche mixing happens inside the simulators'
/// `SmallRng::seed_from_u64`.
pub fn scan_seed(seed: u64, idx: usize) -> u64 {
    seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The splitmix64 finalizer: a full-avalanche 64-bit mixing function
/// (every input bit flips ~half the output bits). The workspace's utility
/// hash for deriving *decorrelated* values from structured inputs — e.g.
/// the campaign supervisor's deterministic backoff jitter, which must be
/// a pure function of `(master seed, shard, attempt)` with no wall-clock
/// randomness.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The contiguous index range shard `shard` of `shards` owns in a
/// population of `total` items: `⌊shard·total/shards⌋ ..
/// ⌊(shard+1)·total/shards⌋`.
///
/// The ranges are balanced (sizes differ by at most one), cover `0..total`
/// exactly, and concatenating them in shard order reproduces global index
/// order — so a sweep split across shards and merged shard-by-shard yields
/// the same item stream as an unsharded run. Seeds stay a pure function of
/// the *global* index ([`scan_seed`]`(master, idx)`), never of the shard,
/// which is what makes campaign results independent of the shard count.
///
/// # Panics
///
/// Panics if `shards` is zero or `shard >= shards`.
pub fn shard_range(total: usize, shard: usize, shards: usize) -> std::ops::Range<usize> {
    assert!(shards > 0, "shard count must be positive");
    assert!(shard < shards, "shard {shard} out of range for {shards} shards");
    // u128 keeps the products exact for any realistic population size.
    let lo = (shard as u128 * total as u128 / shards as u128) as usize;
    let hi = ((shard as u128 + 1) * total as u128 / shards as u128) as usize;
    lo..hi
}

/// Fans independent trials across a fixed number of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct TrialRunner {
    workers: usize,
}

impl TrialRunner {
    /// A runner using `workers` threads (0 is clamped to 1; 1 runs inline
    /// on the calling thread with no spawn at all).
    pub fn new(workers: usize) -> Self {
        TrialRunner { workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `trial(index, &item)` for every item and returns the results in
    /// item order, regardless of which worker ran what when.
    ///
    /// Work is distributed dynamically (an atomic cursor over `items`), so
    /// uneven trial durations — a 17-minute and an 84-minute attack in the
    /// same sweep — still saturate all workers.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial after the scope joins.
    pub fn run<I, T, F>(&self, items: &[I], trial: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| trial(i, item)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let trial = &trial;
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            out.push((i, trial(i, item)));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("trial worker panicked")).collect()
        });
        // Deterministic merge: slot every result at its item index.
        let mut results: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
        for (i, value) in per_worker.into_iter().flatten() {
            results[i] = Some(value);
        }
        results.into_iter().map(|r| r.expect("every item ran exactly once")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = TrialRunner::new(8).run(&items, |idx, &item| {
            assert_eq!(idx, item);
            item * 3
        });
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let items: Vec<u64> = (0..64).collect();
        let f = |idx: usize, &item: &u64| scan_seed(item, idx).to_le_bytes();
        let seq = TrialRunner::new(1).run(&items, f);
        let par = TrialRunner::new(8).run(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn seeded_sweep_is_worker_count_independent() {
        let seeds: Vec<u64> = (0..40).map(|i| scan_seed(2020, i)).collect();
        let one = TrialRunner::new(1).run(&seeds, |_, &seed| seed.wrapping_mul(3));
        let eight = TrialRunner::new(8).run(&seeds, |_, &seed| seed.wrapping_mul(3));
        assert_eq!(one, eight);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(TrialRunner::new(0).workers(), 1);
        let out = TrialRunner::new(0).run(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn trial_seeds_are_well_spread() {
        let mut seeds: Vec<u64> = (0..1000).map(|i| scan_seed(7, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000, "no collisions across 1000 indices");
    }

    #[test]
    fn mix64_avalanches_and_spreads() {
        // Reference value from the splitmix64 specification chain.
        assert_eq!(mix64(0), 0);
        // Distinct, well-spread outputs over a dense input range.
        let mut outs: Vec<u64> = (0u64..4096).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 4096, "no collisions across 4096 inputs");
        // Single-bit input flips move many output bits.
        for bit in 0..64 {
            let delta = (mix64(0x1234_5678) ^ mix64(0x1234_5678 ^ (1 << bit))).count_ones();
            assert!(delta >= 16, "weak avalanche on bit {bit}: {delta}");
        }
    }

    #[test]
    fn shard_ranges_partition_and_balance() {
        for total in [0usize, 1, 7, 64, 97, 1583] {
            for shards in [1usize, 2, 3, 4, 8, 13] {
                let ranges: Vec<_> = (0..shards).map(|k| shard_range(total, k, shards)).collect();
                // Concatenation in shard order is exactly 0..total.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap/overlap at {total}/{shards}");
                    next = r.end;
                }
                assert_eq!(next, total);
                // Balanced to within one item.
                let sizes: Vec<_> = ranges.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced {sizes:?} for {total}/{shards}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_range_rejects_out_of_range_shard() {
        let _ = shard_range(10, 3, 3);
    }
}
