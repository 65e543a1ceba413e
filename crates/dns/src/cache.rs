//! The resolver's record cache: TTL-bounded RRsets keyed by (name, type).
//!
//! The cache is the poisoning target. It also exposes the observable the
//! paper's Table IV scan exploits: RD=0 queries answered purely from cache
//! reveal whether (and for how much longer) `pool.ntp.org` records are
//! cached.

use netsim::fasthash::FastMap;

use crate::name::Name;
use crate::record::{Record, RecordType};
use netsim::time::SimTime;

/// A cached RRset with its insertion time and effective TTL.
#[derive(Debug, Clone)]
struct CachedRrset {
    records: Vec<Record>,
    inserted: SimTime,
    ttl: u32,
}

/// A TTL-bounded DNS cache.
#[derive(Debug, Default)]
pub struct DnsCache {
    entries: FastMap<(Name, RecordType), CachedRrset>,
    max_ttl: u32,
}

/// A cache lookup result: the records with TTLs rewritten to the time
/// remaining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHit {
    /// Records with decremented TTLs.
    pub records: Vec<Record>,
    /// Seconds of validity remaining.
    pub remaining_ttl: u32,
}

impl DnsCache {
    /// Creates a cache that caps stored TTLs at `max_ttl` seconds
    /// (BIND-style `max-cache-ttl`; pass `u32::MAX` for no cap).
    pub fn new(max_ttl: u32) -> Self {
        DnsCache { entries: FastMap::default(), max_ttl }
    }

    /// Inserts (replaces) the RRset for `(name, rtype)`.
    ///
    /// The stored TTL is the minimum record TTL, capped at `max_ttl`. This
    /// is where the Chronos attack's `TTL > 24h` trick lands: an uncapped
    /// (or high-capped) resolver will serve the attacker's records from
    /// cache for the whole pool-generation window.
    pub fn insert(&mut self, now: SimTime, name: Name, rtype: RecordType, records: Vec<Record>) {
        if records.is_empty() {
            return;
        }
        let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0).min(self.max_ttl);
        self.entries.insert((name, rtype), CachedRrset { records, inserted: now, ttl });
    }

    /// The fresh RRset for `(name, rtype)`, borrowed as stored, with the
    /// seconds of validity remaining: an answer takes each record's TTL
    /// capped at that remainder ([`DnsCache::lookup`] builds exactly
    /// that).
    pub fn get(&self, now: SimTime, name: &Name, rtype: RecordType) -> Option<(&[Record], u32)> {
        let entry = self.entries.get(&(name.clone(), rtype))?;
        let elapsed = now.saturating_since(entry.inserted).as_secs();
        if elapsed >= u64::from(entry.ttl) {
            return None;
        }
        Some((&entry.records, entry.ttl - elapsed as u32))
    }

    /// Looks up a fresh RRset, rewriting TTLs to the remaining validity.
    pub fn lookup(&self, now: SimTime, name: &Name, rtype: RecordType) -> Option<CacheHit> {
        let (records, remaining) = self.get(now, name, rtype)?;
        let records =
            records.iter().map(|r| Record { ttl: remaining.min(r.ttl), ..r.clone() }).collect();
        Some(CacheHit { records, remaining_ttl: remaining })
    }

    /// True if a fresh RRset is cached (the RD=0 snooping primitive).
    pub fn contains(&self, now: SimTime, name: &Name, rtype: RecordType) -> bool {
        self.get(now, name, rtype).is_some()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached RRsets (fresh or not; expiry is lazy).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;
    use std::net::Ipv4Addr;

    fn pool() -> Name {
        "pool.ntp.org".parse().unwrap()
    }

    fn rrset(ttl: u32) -> Vec<Record> {
        vec![
            Record::a(pool(), ttl, Ipv4Addr::new(192, 0, 2, 1)),
            Record::a(pool(), ttl, Ipv4Addr::new(192, 0, 2, 2)),
        ]
    }

    #[test]
    fn hit_decrements_ttl() {
        let mut cache = DnsCache::new(u32::MAX);
        cache.insert(SimTime::ZERO, pool(), RecordType::A, rrset(150));
        let t = SimTime::ZERO + SimDuration::from_secs(40);
        let hit = cache.lookup(t, &pool(), RecordType::A).unwrap();
        assert_eq!(hit.remaining_ttl, 110);
        assert!(hit.records.iter().all(|r| r.ttl == 110));
    }

    #[test]
    fn get_borrows_the_stored_rrset_and_lookup_caps_its_ttls() {
        let mut cache = DnsCache::new(u32::MAX);
        let mixed = vec![
            Record::a(pool(), 150, Ipv4Addr::new(1, 1, 1, 1)),
            Record::a(pool(), 100, Ipv4Addr::new(2, 2, 2, 2)),
        ];
        cache.insert(SimTime::ZERO, pool(), RecordType::A, mixed.clone());
        let t = SimTime::ZERO + SimDuration::from_secs(40);
        let (records, remaining) = cache.get(t, &pool(), RecordType::A).unwrap();
        assert_eq!((records, remaining), (&mixed[..], 60));
        let hit = cache.lookup(t, &pool(), RecordType::A).unwrap();
        assert!(hit.records.iter().all(|r| r.ttl == 60));
        assert!(cache.get(t, &pool(), RecordType::Ns).is_none());
    }

    #[test]
    fn expiry_is_exact() {
        let mut cache = DnsCache::new(u32::MAX);
        cache.insert(SimTime::ZERO, pool(), RecordType::A, rrset(150));
        let just_before = SimTime::ZERO + SimDuration::from_secs(149);
        assert!(cache.contains(just_before, &pool(), RecordType::A));
        let at = SimTime::ZERO + SimDuration::from_secs(150);
        assert!(!cache.contains(at, &pool(), RecordType::A));
    }

    #[test]
    fn max_ttl_caps_attacker_ttls() {
        let mut cache = DnsCache::new(3600);
        cache.insert(SimTime::ZERO, pool(), RecordType::A, rrset(86_400 * 7));
        let hit = cache.lookup(SimTime::ZERO, &pool(), RecordType::A).unwrap();
        assert_eq!(hit.remaining_ttl, 3600);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut cache = DnsCache::new(u32::MAX);
        cache.insert(SimTime::ZERO, pool(), RecordType::A, rrset(150));
        let poisoned = vec![Record::a(pool(), 86_400, Ipv4Addr::new(6, 6, 6, 6))];
        cache.insert(SimTime::ZERO, pool(), RecordType::A, poisoned);
        let hit = cache.lookup(SimTime::ZERO, &pool(), RecordType::A).unwrap();
        assert_eq!(hit.records.len(), 1);
        assert_eq!(hit.records[0].as_a(), Some(Ipv4Addr::new(6, 6, 6, 6)));
    }

    #[test]
    fn empty_rrset_not_stored() {
        let mut cache = DnsCache::new(u32::MAX);
        cache.insert(SimTime::ZERO, pool(), RecordType::A, vec![]);
        assert!(cache.is_empty());
    }

    #[test]
    fn min_ttl_of_set_governs() {
        let mut cache = DnsCache::new(u32::MAX);
        let mixed = vec![
            Record::a(pool(), 150, Ipv4Addr::new(1, 1, 1, 1)),
            Record::a(pool(), 50, Ipv4Addr::new(2, 2, 2, 2)),
        ];
        cache.insert(SimTime::ZERO, pool(), RecordType::A, mixed);
        let t = SimTime::ZERO + SimDuration::from_secs(60);
        assert!(!cache.contains(t, &pool(), RecordType::A));
    }
}
