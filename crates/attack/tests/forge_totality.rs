//! The attacker's wire readers on hostile bytes: the real `pool.ntp.org`
//! referral truncated at every offset and garbled at every byte.
//! `walk_records` and `forge_tail` must never panic, and wherever
//! `Message::decode` accepts, `walk_records` must accept too and describe
//! the decoded records (same count, types and owner names).

use std::net::Ipv4Addr;

use attack::forge::forge_tail;
use attack::icmp_force::FORCED_MTU;
use attack::wire_walk::walk_records;
use dns::prelude::*;
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

fn check(bytes: &[u8], what: &str) {
    let _ = forge_tail(bytes, FORCED_MTU, ATTACKER_NS);
    let walked = walk_records(bytes);
    let Ok(msg) = Message::decode(bytes) else { return };
    let spans = walked.unwrap_or_else(|e| panic!("{what}: decoded, but the walk failed: {e:?}"));
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
