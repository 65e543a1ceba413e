//! IPv4 fragmentation and the receiver-side defragmentation cache.
//!
//! The defragmentation cache is the attack surface of the paper's poisoning
//! primitive (§III-2): an off-path attacker plants a spoofed *second*
//! fragment keyed by `(src, dst, protocol, IPID)`; when the nameserver's
//! real *first* fragment arrives it reassembles with the planted one. The
//! cache models the behaviours the paper measured: reassembly timeouts of
//! 30 s (Linux) and 60–120 s (Windows), and caps of 64 / 100 concurrently
//! pending fragments.
// simlint: hot-path — fragment/insert/reassemble run per packet; the
// zero-clone contract (PR 3) lives here.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use bytes::{Bytes, BytesMut};

use crate::error::FragmentError;
use crate::fasthash::FastMap;
use crate::ipv4::{Ipv4Packet, IPV4_HEADER_LEN, MIN_IPV4_MTU};
use crate::time::{SimDuration, SimTime};

/// Splits `pkt` into fragments no larger than `mtu` on-wire bytes.
///
/// Fragment payload sizes are multiples of 8 bytes except for the last
/// fragment, per RFC 791. Returns the packet unchanged (in a 1-vector) if
/// it already fits — taking the packet by value makes that fast path (and
/// the per-fragment construction) clone-free: the header fields are built
/// once from the consumed packet and every fragment's payload is a
/// zero-copy slice of the shared payload buffer.
///
/// # Errors
///
/// * [`FragmentError::MtuTooSmall`] if `mtu < 68`.
/// * [`FragmentError::DontFragment`] if DF is set and the packet does not fit.
/// * [`FragmentError::AlreadyFragmented`] if `pkt` is itself a fragment.
pub fn fragment(pkt: Ipv4Packet, mtu: u16) -> Result<Vec<Ipv4Packet>, FragmentError> {
    // simlint: allow(hot-alloc) — convenience wrapper for tests/examples;
    // the send path uses `fragment_into` with a reused caller buffer.
    let mut frags = Vec::new();
    fragment_into(pkt, mtu, &mut frags)?;
    Ok(frags)
}

/// [`fragment`] into a caller-supplied buffer (appended, not cleared):
/// the simulator's send path reuses one buffer across sends, so steady
/// state fragmentation allocates nothing.
///
/// # Errors
///
/// Same as [`fragment`]; on error nothing is appended.
pub fn fragment_into(
    pkt: Ipv4Packet,
    mtu: u16,
    out: &mut Vec<Ipv4Packet>,
) -> Result<(), FragmentError> {
    if mtu < MIN_IPV4_MTU {
        return Err(FragmentError::MtuTooSmall { mtu });
    }
    if pkt.is_fragment() {
        return Err(FragmentError::AlreadyFragmented);
    }
    if pkt.wire_len() <= usize::from(mtu) {
        out.push(pkt);
        return Ok(());
    }
    if pkt.dont_fragment {
        return Err(FragmentError::DontFragment { len: pkt.wire_len(), mtu });
    }
    // Payload bytes per fragment, rounded down to a multiple of 8.
    let per_frag = (usize::from(mtu) - IPV4_HEADER_LEN) & !7;
    let Ipv4Packet { src, dst, id, ttl, protocol, payload, .. } = pkt;
    out.reserve(payload.len().div_ceil(per_frag));
    let mut offset = 0usize;
    while offset < payload.len() {
        let end = usize::min(offset + per_frag, payload.len());
        out.push(Ipv4Packet {
            src,
            dst,
            id,
            ttl,
            protocol,
            dont_fragment: false,
            more_fragments: end != payload.len(),
            frag_offset: (offset / 8) as u16,
            payload: payload.slice(offset..end),
        });
        offset = end;
    }
    Ok(())
}

/// Key identifying the fragments of one original datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragKey {
    /// Source address on the fragments.
    pub src: Ipv4Addr,
    /// Destination address on the fragments.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub protocol: u8,
    /// The shared identification field.
    pub id: u16,
}

impl FragKey {
    /// Extracts the key from a fragment.
    pub fn of(pkt: &Ipv4Packet) -> FragKey {
        FragKey { src: pkt.src, dst: pkt.dst, protocol: pkt.protocol, id: pkt.id }
    }
}

/// How long incomplete reassemblies are retained: Linux's 30 s, the
/// timeout of every modelled host (Windows keeps 60–120 s and RFC 2460
/// suggests 60 s, paper §IV-A; the §IV-A budget compares the two in
/// closed form).
pub const REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Tuning knob of a [`DefragCache`]. Every simulated stack uses the
/// default, Linux's cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefragConfig {
    /// Maximum concurrently-pending fragments per (src, dst) pair.
    /// Linux: 64, Windows: 100 (paper §III-2).
    pub max_pending_per_pair: usize,
}

impl Default for DefragConfig {
    fn default() -> Self {
        DefragConfig { max_pending_per_pair: 64 }
    }
}

/// Outcome of one [`DefragCache::insert_explained`] call.
///
/// Names what the cache did with the inserted packet so the receive path
/// can count its drops ([`crate::drop::DropReason`]) instead of collapsing
/// "stored, waiting for more" and "silently discarded" into one `None`.
#[derive(Debug)]
pub enum FragInsert {
    /// Not a fragment: the packet passed straight through untouched.
    Passthrough(Ipv4Packet),
    /// The fragment completed its datagram; here is the reassembly.
    Reassembled(Ipv4Packet),
    /// The fragment was stored; the reassembly is still incomplete.
    Stored,
    /// Dropped: the per-(src, dst) pending cap is full.
    CapFull,
    /// Dropped: an already-covered byte range (the earlier fragment wins).
    Duplicate,
}

#[derive(Debug)]
struct StoredFrag {
    offset: usize,
    more: bool,
    data: Bytes,
}

#[derive(Debug)]
struct Entry {
    fragments: Vec<StoredFrag>,
    created: SimTime,
}

/// A receiver-side IPv4 reassembly cache.
///
/// ```
/// use bytes::Bytes;
/// use netsim::frag::{fragment, DefragCache, DefragConfig};
/// use netsim::ipv4::Ipv4Packet;
/// use netsim::time::SimTime;
///
/// let pkt = Ipv4Packet::udp(
///     "10.0.0.1".parse().unwrap(),
///     "10.0.0.2".parse().unwrap(),
///     7,
///     Bytes::from(vec![0xAB; 2000]),
/// );
/// let frags = fragment(pkt.clone(), 576).unwrap();
/// let mut cache = DefragCache::new(DefragConfig::default());
/// let mut out = None;
/// for f in frags {
///     out = cache.insert(SimTime::ZERO, f);
/// }
/// assert_eq!(out.unwrap().payload, pkt.payload);
/// ```
#[derive(Debug)]
pub struct DefragCache {
    config: DefragConfig,
    entries: FastMap<FragKey, Entry>,
    /// Count of pending fragments per (src, dst), enforcing the OS cap.
    pending: FastMap<(Ipv4Addr, Ipv4Addr), usize>,
    /// Creation-time-ordered ring of reassembly entries: [`expire`]
    /// pops expired entries off the front instead of scanning the whole
    /// table. Entries completed (or replaced under the same key) before
    /// their timeout are left in the ring as stale markers and skipped.
    ///
    /// Invariant: insert times are non-decreasing — the simulator's clock
    /// is monotonic. Out-of-order direct inserts merely delay expiry of
    /// entries queued behind a younger head.
    ///
    /// [`expire`]: DefragCache::expire
    expiry: VecDeque<(SimTime, FragKey)>,
    /// Pooled offset-order scratch for reassembly: indices into an entry's
    /// fragment list, reused across inserts so a completion check never
    /// allocates a temporary sort vector. (The assembled payload itself is
    /// necessarily a fresh buffer — it escapes as the delivered packet,
    /// frozen zero-copy.)
    order: Vec<u32>,
}

impl DefragCache {
    /// Creates an empty cache with the given configuration.
    pub fn new(config: DefragConfig) -> Self {
        DefragCache {
            config,
            entries: FastMap::default(),
            pending: FastMap::default(),
            expiry: VecDeque::new(),
            // simlint: allow(hot-alloc) — cold constructor: one cache per
            // host, built before the event loop starts.
            order: Vec::new(),
        }
    }

    /// Number of distinct pending reassemblies.
    pub fn pending_reassemblies(&self) -> usize {
        self.entries.len()
    }

    /// Number of pending fragments for a given (src, dst) pair.
    pub fn pending_for_pair(&self, src: Ipv4Addr, dst: Ipv4Addr) -> usize {
        self.pending.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Inserts a fragment at time `now`. If this completes a datagram,
    /// returns the reassembled (unfragmented) packet and clears the entry.
    ///
    /// Takes the packet by value: non-fragments pass straight through
    /// (zero-copy, zero-clone) and fragments move their payload into the
    /// cache. Expired entries are garbage collected lazily on every insert.
    ///
    /// Convenience wrapper over [`DefragCache::insert_explained`], which
    /// additionally names why a fragment did *not* come out (stored vs
    /// cap-dropped vs duplicate) and how many entries expired.
    pub fn insert(&mut self, now: SimTime, pkt: Ipv4Packet) -> Option<Ipv4Packet> {
        match self.insert_explained(now, pkt).0 {
            FragInsert::Passthrough(p) | FragInsert::Reassembled(p) => Some(p),
            FragInsert::Stored | FragInsert::CapFull | FragInsert::Duplicate => None,
        }
    }

    /// [`DefragCache::insert`] with an explained outcome: what happened to
    /// the inserted packet, plus how many pending reassemblies expired
    /// during the lazy garbage collection this insert ran first (their
    /// stored fragments are gone — the drop-taxonomy caller counts them).
    pub fn insert_explained(&mut self, now: SimTime, pkt: Ipv4Packet) -> (FragInsert, usize) {
        let expired = self.expire_counted(now);
        if !pkt.is_fragment() {
            return (FragInsert::Passthrough(pkt), expired);
        }
        let key = FragKey::of(&pkt);
        let pair = (pkt.src, pkt.dst);
        let pending = self.pending.entry(pair).or_insert(0);
        if *pending >= self.config.max_pending_per_pair {
            // Cache full for this pair: the fragment is dropped, exactly the
            // limit the paper cites (64 on Linux / 100 on Windows).
            return (FragInsert::CapFull, expired);
        }
        let expiry = &mut self.expiry;
        let entry = self.entries.entry(key).or_insert_with(|| {
            expiry.push_back((now, key));
            // simlint: allow(hot-alloc) — `Vec::new` itself never touches
            // the heap; the list grows on push, which perfbench's
            // `netsim.defrag_insert_ns` probe prices (fragments are
            // zero-copy `Bytes` slices).
            Entry { fragments: Vec::new(), created: now }
        });
        let ttl = pkt.ttl;
        let new_frag = StoredFrag {
            offset: pkt.payload_offset(),
            more: pkt.more_fragments,
            data: pkt.payload,
        };
        if entry.fragments.iter().any(|f| f.offset == new_frag.offset) {
            // The earlier fragment wins: a planted fragment survives the
            // real one, which is discarded without counting against the
            // pair cap. The entry is unchanged, so it cannot have become
            // complete (a complete entry would have been removed already).
            return (FragInsert::Duplicate, expired);
        }
        entry.fragments.push(new_frag);
        *pending += 1;
        if let Some(payload) = try_reassemble(&entry.fragments, &mut self.order) {
            let n = entry.fragments.len();
            self.entries.remove(&key);
            Self::debit(&mut self.pending, pair, n);
            let reassembled = Ipv4Packet {
                more_fragments: false,
                frag_offset: 0,
                payload,
                src: key.src,
                dst: key.dst,
                id: key.id,
                protocol: key.protocol,
                ttl,
                dont_fragment: false,
            };
            return (FragInsert::Reassembled(reassembled), expired);
        }
        (FragInsert::Stored, expired)
    }

    /// Drops reassemblies older than [`REASSEMBLY_TIMEOUT`].
    pub fn expire(&mut self, now: SimTime) {
        let _ = self.expire_counted(now);
    }

    /// [`DefragCache::expire`], returning how many reassembly entries were
    /// dropped (each with all its stored fragments).
    ///
    /// O(expired) per call: the expiry ring is ordered by creation time, so
    /// this pops expired entries off the front and never scans the live
    /// remainder of the table.
    pub fn expire_counted(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        while let Some(&(created, key)) = self.expiry.front() {
            if now.saturating_since(created) < REASSEMBLY_TIMEOUT {
                break;
            }
            self.expiry.pop_front();
            // Stale marker: the entry completed earlier, or the key was
            // re-created by a younger reassembly (its own marker follows).
            let live = self.entries.get(&key).is_some_and(|e| e.created == created);
            if live {
                let entry = self.entries.remove(&key).expect("checked above");
                Self::debit(&mut self.pending, (key.src, key.dst), entry.fragments.len());
                dropped += 1;
            }
        }
        dropped
    }

    fn debit(
        pending: &mut FastMap<(Ipv4Addr, Ipv4Addr), usize>,
        pair: (Ipv4Addr, Ipv4Addr),
        n: usize,
    ) {
        if let Some(count) = pending.get_mut(&pair) {
            *count = count.saturating_sub(n);
            if *count == 0 {
                pending.remove(&pair);
            }
        }
    }
}

/// Attempts to assemble a complete payload from stored fragments: requires a
/// final fragment (`more == false`) and gap-free coverage from offset 0.
///
/// `order` is the cache's pooled index scratch (sorted by offset, stable —
/// equal offsets keep arrival order), so a completion check allocates
/// nothing; only a *successful* reassembly builds the output buffer, which
/// escapes as the delivered payload via a zero-copy freeze.
fn try_reassemble(fragments: &[StoredFrag], order: &mut Vec<u32>) -> Option<Bytes> {
    let total = fragments.iter().find(|f| !f.more).map(|f| f.offset + f.data.len())?;
    order.clear();
    order.extend(0..fragments.len() as u32);
    order.sort_by_key(|&i| fragments[i as usize].offset);
    let mut covered = 0usize;
    for &i in order.iter() {
        let f = &fragments[i as usize];
        if f.offset > covered {
            return None; // gap
        }
        covered = covered.max(f.offset + f.data.len());
    }
    if covered < total {
        return None;
    }
    let mut assembly = BytesMut::with_capacity(total);
    assembly.resize(total, 0);
    // Write in reverse arrival-order so earlier fragments win overlaps
    // (first-wins duplicate handling, for partial overlaps too).
    for &i in order.iter().rev() {
        let f = &fragments[i as usize];
        let end = usize::min(f.offset + f.data.len(), total);
        if f.offset < total {
            assembly[f.offset..end].copy_from_slice(&f.data[..end - f.offset]);
        }
    }
    Some(assembly.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(payload_len: usize, id: u16) -> Ipv4Packet {
        Ipv4Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            id,
            Bytes::from((0..payload_len).map(|i| (i % 251) as u8).collect::<Vec<_>>()),
        )
    }

    #[test]
    fn small_packet_not_fragmented() {
        let p = pkt(100, 1);
        let frags = fragment(p.clone(), 576).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
    }

    #[test]
    fn fragment_sizes_respect_mtu_and_alignment() {
        let p = pkt(3000, 2);
        let frags = fragment(p.clone(), 576).unwrap();
        assert!(frags.len() >= 2);
        for (i, f) in frags.iter().enumerate() {
            assert!(f.wire_len() <= 576);
            let last = i == frags.len() - 1;
            assert_eq!(f.more_fragments, !last);
            if !last {
                assert_eq!(f.payload.len() % 8, 0);
            }
        }
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = pkt(2500, 3);
        let mut frags = fragment(p.clone(), 576).unwrap();
        frags.reverse();
        let mut cache = DefragCache::new(DefragConfig::default());
        let mut done = None;
        for f in frags {
            done = cache.insert(SimTime::ZERO, f);
        }
        let out = done.expect("should reassemble");
        assert_eq!(out.payload, p.payload);
        assert_eq!(cache.pending_reassemblies(), 0);
    }

    #[test]
    fn df_packet_refuses_fragmentation() {
        let mut p = pkt(3000, 4);
        p.dont_fragment = true;
        assert!(matches!(fragment(p.clone(), 576), Err(FragmentError::DontFragment { .. })));
    }

    #[test]
    fn mtu_below_68_rejected() {
        let p = pkt(3000, 5);
        assert!(matches!(fragment(p.clone(), 60), Err(FragmentError::MtuTooSmall { .. })));
    }

    #[test]
    fn planted_spoofed_fragment_wins_under_first_wins() {
        // Attack mechanics: plant a spoofed second fragment, then deliver the
        // real fragments. The reassembled payload must contain the spoofed
        // second half.
        let p = pkt(2000, 6);
        let frags = fragment(p.clone(), 1028).unwrap();
        assert_eq!(frags.len(), 2);
        let mut spoofed = frags[1].clone();
        spoofed.payload = Bytes::from(vec![0xEE; spoofed.payload.len()]);

        let mut cache = DefragCache::new(DefragConfig::default());
        assert!(cache.insert(SimTime::ZERO, spoofed.clone()).is_none());
        let out = cache
            .insert(SimTime::from_nanos(1), frags[0].clone())
            .expect("first real fragment completes with planted second");
        assert_eq!(&out.payload[frags[1].payload_offset()..], &spoofed.payload[..]);
        // The real second fragment now opens a fresh (never-completing) entry.
        assert!(cache.insert(SimTime::from_nanos(2), frags[1].clone()).is_none());
        assert_eq!(cache.pending_reassemblies(), 1);
    }

    #[test]
    fn timeout_expires_planted_fragment() {
        let p = pkt(2000, 8);
        let frags = fragment(p.clone(), 1028).unwrap();
        let mut cache = DefragCache::new(DefragConfig::default());
        cache.insert(SimTime::ZERO, frags[1].clone());
        assert_eq!(cache.pending_reassemblies(), 1);
        // After the 30 s Linux timeout the planted fragment is gone and the
        // first fragment alone cannot complete.
        let late = SimTime::ZERO + SimDuration::from_secs(31);
        assert!(cache.insert(late, frags[0].clone()).is_none());
        assert_eq!(cache.pending_reassemblies(), 1); // only the fresh frag 0
    }

    #[test]
    fn per_pair_cap_enforced() {
        let config = DefragConfig { max_pending_per_pair: 4 };
        let mut cache = DefragCache::new(config);
        // Plant 10 second-fragments with distinct IPIDs; only 4 fit.
        let p = pkt(2000, 0);
        let template = fragment(p.clone(), 1028).unwrap()[1].clone();
        for id in 0..10u16 {
            let mut f = template.clone();
            f.id = id;
            cache.insert(SimTime::ZERO, f.clone());
        }
        assert_eq!(cache.pending_for_pair(p.src, p.dst), 4);
        assert_eq!(cache.pending_reassemblies(), 4);
    }

    #[test]
    fn overload_never_exceeds_cap_and_expires_in_creation_order() {
        // The paper's 64-entry Linux cache under a planting spray: pending
        // reassemblies must never exceed the cap, and once the spray stops,
        // entries expire strictly oldest-first.
        let mut cache = DefragCache::new(DefragConfig { max_pending_per_pair: 64 });
        let template = fragment(pkt(2000, 0), 1028).unwrap()[1].clone();
        // 200 planted second-fragments, one per 100 ms, distinct IPIDs.
        for id in 0..200u16 {
            let mut f = template.clone();
            f.id = id;
            let t = SimTime::ZERO + SimDuration::from_millis(u64::from(id) * 100);
            cache.insert(t, f.clone());
            assert!(
                cache.pending_reassemblies() <= 64,
                "cap breached at id {id}: {}",
                cache.pending_reassemblies()
            );
        }
        // Only the first 64 got in (the cap drops later fragments).
        assert_eq!(cache.pending_reassemblies(), 64);
        assert_eq!(cache.pending_for_pair(template.src, template.dst), 64);
        // Advance past the timeout of the first 10 entries only: exactly
        // those must be gone (creation order), the younger 54 retained.
        let cutoff = SimTime::ZERO + REASSEMBLY_TIMEOUT + SimDuration::from_millis(950);
        cache.expire(cutoff);
        assert_eq!(cache.pending_reassemblies(), 54, "oldest 10 expired first");
        // Expiring far in the future drains everything and the pair debit.
        cache.expire(SimTime::ZERO + SimDuration::from_secs(3600));
        assert_eq!(cache.pending_reassemblies(), 0);
        assert_eq!(cache.pending_for_pair(template.src, template.dst), 0);
    }

    #[test]
    fn ring_skips_entries_completed_before_their_timeout() {
        // Complete a reassembly, then re-plant under the same key: the stale
        // ring marker of the completed entry must not expire the new one
        // prematurely, and the new entry still expires on its own clock.
        let p = pkt(2000, 42);
        let frags = fragment(p.clone(), 1028).unwrap();
        let mut cache = DefragCache::new(DefragConfig::default());
        cache.insert(SimTime::ZERO, frags[1].clone());
        assert!(cache.insert(SimTime::ZERO, frags[0].clone()).is_some(), "completes");
        assert_eq!(cache.pending_reassemblies(), 0);
        // Re-plant the second fragment 10 s later under the same key.
        let t10 = SimTime::ZERO + SimDuration::from_secs(10);
        cache.insert(t10, frags[1].clone());
        assert_eq!(cache.pending_reassemblies(), 1);
        // At t=31 s the ORIGINAL entry would have expired; the re-planted
        // one (created t=10 s) must survive until t=40 s.
        cache.expire(SimTime::ZERO + SimDuration::from_secs(31));
        assert_eq!(cache.pending_reassemblies(), 1, "young entry survives stale marker");
        cache.expire(SimTime::ZERO + SimDuration::from_secs(41));
        assert_eq!(cache.pending_reassemblies(), 0, "young entry expires on its own clock");
    }

    #[test]
    fn reassembled_packet_has_clean_flags() {
        let p = pkt(2500, 9);
        let frags = fragment(p.clone(), 576).unwrap();
        let mut cache = DefragCache::new(DefragConfig::default());
        let mut out = None;
        for f in frags {
            out = cache.insert(SimTime::ZERO, f);
        }
        let out = out.unwrap();
        assert!(!out.is_fragment());
        assert_eq!(out.id, p.id);
        assert_eq!(out.src, p.src);
    }
}
