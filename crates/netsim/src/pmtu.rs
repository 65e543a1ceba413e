//! Per-destination path-MTU cache, updated by ICMP fragmentation-needed.
//!
//! A forged ICMP frag-needed message (paper §III-1) plants a small MTU here;
//! subsequent large UDP sends to that destination are then fragmented by the
//! sending stack — which is precisely what makes the DNS response
//! fragment-replaceable.

use std::net::Ipv4Addr;

use crate::fasthash::FastMap;
use crate::time::{SimDuration, SimTime};

/// The interface MTU of every simulated host (Ethernet).
pub const INTERFACE_MTU: u16 = 1500;

/// How long a learned path MTU is cached before expiring back to
/// [`INTERFACE_MTU`] (Linux default: 10 minutes).
pub const PMTU_LIFETIME: SimDuration = SimDuration::from_secs(600);

#[derive(Debug, Clone, Copy)]
struct PmtuEntry {
    mtu: u16,
    expires: SimTime,
}

/// Cache of learned path MTUs keyed by destination address.
#[derive(Debug, Default)]
pub struct PmtuCache {
    entries: FastMap<Ipv4Addr, PmtuEntry>,
}

impl PmtuCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PmtuCache::default()
    }

    /// Processes an ICMP frag-needed claiming `claimed_mtu` towards `dst`
    /// on a host with PMTU floor `floor` ([`crate::os::OsProfile::pmtu_floor`];
    /// `None` ignores the message). Returns the MTU actually recorded, if
    /// any.
    ///
    /// Claims below the floor are **clamped up** to it (Linux `min_pmtu`
    /// semantics) rather than ignored: the host still fragments, but never
    /// to fragments smaller than its floor. This is what produces the
    /// "minimum fragment size emitted" distribution in Fig. 5 of the paper.
    pub fn on_frag_needed(
        &mut self,
        now: SimTime,
        dst: Ipv4Addr,
        claimed_mtu: u16,
        floor: Option<u16>,
    ) -> Option<u16> {
        let mtu = claimed_mtu.max(floor?);
        let expires = now + PMTU_LIFETIME;
        let entry = self.entries.entry(dst).or_insert(PmtuEntry { mtu, expires });
        // Only ever lower the recorded MTU within its lifetime.
        if mtu < entry.mtu || entry.expires <= now {
            *entry = PmtuEntry { mtu, expires };
        } else {
            entry.expires = expires;
        }
        Some(entry.mtu)
    }

    /// Returns the effective MTU towards `dst`: the cached value if fresh,
    /// else [`INTERFACE_MTU`].
    pub fn mtu_towards(&mut self, now: SimTime, dst: Ipv4Addr) -> u16 {
        // Hosts that never received a frag-needed skip the hash entirely —
        // this runs once per UDP send on the simulator's hot path.
        if self.entries.is_empty() {
            return INTERFACE_MTU;
        }
        match self.entries.get(&dst) {
            Some(entry) if entry.expires > now => entry.mtu.min(INTERFACE_MTU),
            Some(_) => {
                self.entries.remove(&dst);
                INTERFACE_MTU
            }
            None => INTERFACE_MTU,
        }
    }

    /// Number of destinations with a cached path MTU.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no path MTUs are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 5);

    #[test]
    fn frag_needed_lowers_mtu() {
        let mut cache = PmtuCache::new();
        assert_eq!(cache.mtu_towards(SimTime::ZERO, DST), 1500);
        let recorded = cache.on_frag_needed(SimTime::ZERO, DST, 600, Some(548));
        assert_eq!(recorded, Some(600));
        assert_eq!(cache.mtu_towards(SimTime::ZERO, DST), 600);
    }

    #[test]
    fn claims_below_floor_are_clamped() {
        let mut cache = PmtuCache::new();
        let recorded = cache.on_frag_needed(SimTime::ZERO, DST, 68, Some(548));
        assert_eq!(recorded, Some(548));
    }

    #[test]
    fn ignoring_policy_records_nothing() {
        let mut cache = PmtuCache::new();
        assert_eq!(cache.on_frag_needed(SimTime::ZERO, DST, 296, None), None);
        assert_eq!(cache.mtu_towards(SimTime::ZERO, DST), 1500);
        assert!(cache.is_empty());
    }

    #[test]
    fn entries_expire() {
        let mut cache = PmtuCache::new();
        cache.on_frag_needed(SimTime::ZERO, DST, 600, Some(548));
        let later = SimTime::ZERO + SimDuration::from_secs(601);
        assert_eq!(cache.mtu_towards(later, DST), 1500);
    }

    #[test]
    fn mtu_only_lowers_within_lifetime() {
        let mut cache = PmtuCache::new();
        let floor = Some(296);
        cache.on_frag_needed(SimTime::ZERO, DST, 400, floor);
        // A later, larger claim must not raise the cached value.
        cache.on_frag_needed(SimTime::ZERO, DST, 1200, floor);
        assert_eq!(cache.mtu_towards(SimTime::ZERO, DST), 400);
        // A smaller claim lowers it further.
        cache.on_frag_needed(SimTime::ZERO, DST, 296, floor);
        assert_eq!(cache.mtu_towards(SimTime::ZERO, DST), 296);
    }
}
