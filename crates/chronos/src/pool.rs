//! Chronos server-pool generation: hourly DNS queries for 24 hours, union
//! of all returned addresses (§VI of the DSN'20 paper).
//!
//! The paper identifies two weaknesses in this procedure:
//!
//! * **VI-A** — the hourly schedule is predictable, easing query-timing
//!   prediction for the off-path attacker;
//! * **VI-B** — no sanity checks on individual responses: neither the TTL
//!   (a poisoned response with TTL > 24 h freezes the rest of the schedule
//!   onto the attacker's records) nor the record count (one response may
//!   contribute 89 addresses while honest ones contribute 4).
//!
//! [`PoolGenerator`] models the procedure with both checks available but
//! **off by default**, matching the proposal.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use crate::LOOKUPS;

/// Sanity-check knobs (the paper's proposed countermeasures; both disabled
/// in the original Chronos proposal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSanity {
    /// Reject responses whose TTL exceeds this bound (seconds).
    pub max_ttl: Option<u32>,
    /// Use at most this many addresses from a single response.
    pub max_records_per_response: Option<usize>,
}

impl PoolSanity {
    /// The original Chronos behaviour: no checks.
    pub fn none() -> Self {
        PoolSanity { max_ttl: None, max_records_per_response: None }
    }

    /// The paper's suggested hardening: TTL capped at the pool's published
    /// 150 s (with slack), at most 4 addresses per response.
    pub fn hardened() -> Self {
        PoolSanity { max_ttl: Some(600), max_records_per_response: Some(4) }
    }
}

/// Accumulates the server pool across the [`LOOKUPS`] hourly DNS lookups.
#[derive(Debug, Clone)]
pub struct PoolGenerator {
    sanity: PoolSanity,
    pool: BTreeSet<Ipv4Addr>,
    lookups_done: u32,
    /// Responses rejected by a sanity check.
    pub rejected_responses: u32,
}

impl PoolGenerator {
    /// A generator for the proposal's [`LOOKUPS`] lookups.
    pub fn new(sanity: PoolSanity) -> Self {
        PoolGenerator { sanity, pool: BTreeSet::new(), lookups_done: 0, rejected_responses: 0 }
    }

    /// Feeds one DNS response (addresses + their minimum TTL) into the
    /// pool. Returns how many addresses were added.
    pub fn absorb(&mut self, addrs: &[Ipv4Addr], min_ttl: u32) -> usize {
        self.lookups_done += 1;
        if let Some(max_ttl) = self.sanity.max_ttl {
            if min_ttl > max_ttl {
                self.rejected_responses += 1;
                return 0;
            }
        }
        let take = self.sanity.max_records_per_response.unwrap_or(usize::MAX);
        let before = self.pool.len();
        for addr in addrs.iter().take(take) {
            self.pool.insert(*addr);
        }
        self.pool.len() - before
    }

    /// True once all [`LOOKUPS`] lookups have run.
    pub fn complete(&self) -> bool {
        self.lookups_done >= LOOKUPS
    }

    /// Lookups performed so far.
    pub fn lookups_done(&self) -> u32 {
        self.lookups_done
    }

    /// The accumulated pool.
    pub fn pool(&self) -> &BTreeSet<Ipv4Addr> {
        &self.pool
    }

    /// Pool as a vector (sampling input).
    pub fn to_vec(&self) -> Vec<Ipv4Addr> {
        self.pool.iter().copied().collect()
    }

    /// The fraction of the pool inside `set` (experiments: attacker share).
    pub fn fraction_in<F: Fn(Ipv4Addr) -> bool>(&self, predicate: F) -> f64 {
        if self.pool.is_empty() {
            return 0.0;
        }
        let hits = self.pool.iter().filter(|a| predicate(**a)).count();
        hits as f64 / self.pool.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(base: u8, n: usize) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(192, 0, base, i as u8)).collect()
    }

    #[test]
    fn honest_generation_accumulates_union() {
        let mut generator = PoolGenerator::new(PoolSanity::none());
        for round in 0..LOOKUPS as u8 {
            generator.absorb(&addrs(round, 4), 150);
        }
        assert!(generator.complete());
        assert_eq!(generator.pool().len(), 96, "24 rounds × 4 fresh addresses");
    }

    #[test]
    fn duplicates_are_not_double_counted() {
        let mut generator = PoolGenerator::new(PoolSanity::none());
        generator.absorb(&addrs(1, 4), 150);
        generator.absorb(&addrs(1, 4), 150);
        assert_eq!(generator.pool().len(), 4);
    }

    #[test]
    fn unchecked_pool_swallows_89_address_response() {
        // Weakness VI-B: one malicious response dominates the pool.
        let mut generator = PoolGenerator::new(PoolSanity::none());
        for round in 0..4u8 {
            generator.absorb(&addrs(round, 4), 150);
        }
        let malicious = addrs(66, 89);
        let added = generator.absorb(&malicious, 86_400 * 2);
        assert_eq!(added, 89);
        let frac = generator.fraction_in(|a| a.octets()[2] == 66);
        assert!(frac > 2.0 / 3.0, "attacker fraction {frac}");
    }

    #[test]
    fn hardened_pool_rejects_oversize_ttl_and_caps_records() {
        let mut generator = PoolGenerator::new(PoolSanity::hardened());
        // Over-TTL response rejected outright.
        assert_eq!(generator.absorb(&addrs(66, 89), 86_400 * 2), 0);
        assert_eq!(generator.rejected_responses, 1);
        // Normal-TTL response capped at 4 records.
        assert_eq!(generator.absorb(&addrs(66, 89), 150), 4);
    }

    #[test]
    fn fraction_on_empty_pool_is_zero() {
        let generator = PoolGenerator::new(PoolSanity::none());
        assert_eq!(generator.fraction_in(|_| true), 0.0);
    }
}
