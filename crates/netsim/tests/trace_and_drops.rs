//! Integration tests for the observability layer: the exhaustive drop
//! taxonomy of the receive path, its aggregation into [`SimStats`], and —
//! under the `trace` feature — the flight recorder's determinism contract
//! (bit-identical trace digests across repeat runs).

use std::net::Ipv4Addr;

use bytes::Bytes;
use netsim::frag::fragment;
use netsim::prelude::*;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Fragments of a 4000-byte UDP datagram A → B at MTU 1500.
fn frags_of(id_payload: u8) -> Vec<Ipv4Packet> {
    let dgram = UdpDatagram::new(7, 53, Bytes::from(vec![id_payload; 4000]));
    let wire = dgram.encode(A, B).unwrap();
    fragment(Ipv4Packet::udp(A, B, u16::from(id_payload), wire), 1500).unwrap()
}

fn expect_drop(outcome: ReceiveOutcome, reason: DropReason) {
    match outcome {
        ReceiveOutcome::Dropped(r) => assert_eq!(r, reason),
        other => panic!("expected Dropped({reason:?}), got {other:?}"),
    }
}

#[test]
fn every_receive_discard_names_a_reason() {
    let now = SimTime::ZERO;
    let mut global = DropCounts::default();

    // no-frag-support: the profile refuses fragments outright.
    let mut profile = OsProfile::linux();
    profile.fragments = None;
    let mut stack = NetStack::new(profile);
    let frag = frags_of(1).remove(0);
    expect_drop(stack.receive_counted(now, frag, &mut global), DropReason::NoFragSupport);
    assert_eq!(stack.drop_counts().no_frag_support, 1);

    // tiny-fragment: filtering resolvers drop small non-final fragments.
    let mut stack = NetStack::new(OsProfile { fragments: Some(1500), ..OsProfile::linux() });
    let tiny = fragment(
        Ipv4Packet::udp(
            A,
            B,
            9,
            UdpDatagram::new(7, 53, Bytes::from(vec![0; 2000])).encode(A, B).unwrap(),
        ),
        576,
    )
    .unwrap()
    .remove(0);
    expect_drop(stack.receive_counted(now, tiny, &mut global), DropReason::TinyFragment);
    assert_eq!(stack.drop_counts().tiny_fragment, 1);

    // defrag-cap-full: pending fragments past the per-pair cap of 64.
    let cap = DefragConfig::default().max_pending_per_pair;
    assert_eq!(cap, 64);
    let mut stack = NetStack::new(OsProfile::linux());
    for id in 0..=cap as u8 {
        let first = frags_of(id).remove(0);
        let outcome = stack.receive_counted(now, first, &mut global);
        if usize::from(id) < cap {
            assert!(matches!(outcome, ReceiveOutcome::Pending), "{outcome:?}");
        } else {
            expect_drop(outcome, DropReason::DefragCapFull);
        }
    }
    assert_eq!(stack.drop_counts().defrag_cap_full, 1);

    // duplicate-fragment: the earlier fragment wins; the re-sent range is discarded.
    let mut stack = NetStack::new(OsProfile::linux());
    let first = frags_of(3).remove(0);
    let dup = first.clone();
    assert!(matches!(stack.receive_counted(now, first, &mut global), ReceiveOutcome::Pending));
    expect_drop(stack.receive_counted(now, dup, &mut global), DropReason::DuplicateFragment);
    assert_eq!(stack.drop_counts().duplicate_fragment, 1);

    // defrag-expired: a pending reassembly times out; the next packet's
    // lazy garbage collection counts it.
    let mut stack = NetStack::new(OsProfile::linux());
    let planted = frags_of(4).remove(0);
    assert!(matches!(stack.receive_counted(now, planted, &mut global), ReceiveOutcome::Pending));
    let later = SimTime::ZERO + SimDuration::from_secs(31);
    let ok_wire = UdpDatagram::new(7, 53, Bytes::from_static(b"fresh")).encode(A, B).unwrap();
    let outcome = stack.receive_counted(later, Ipv4Packet::udp(A, B, 500, ok_wire), &mut global);
    assert!(matches!(outcome, ReceiveOutcome::Delivered { reassembled: false, .. }), "{outcome:?}");
    assert_eq!(stack.drop_counts().defrag_expired, 1);

    // udp-truncated: payload shorter than the UDP header.
    let mut stack = NetStack::new(OsProfile::linux());
    let short = Ipv4Packet::udp(A, B, 600, Bytes::from_static(&[1, 2, 3, 4]));
    expect_drop(stack.receive_counted(now, short, &mut global), DropReason::UdpTruncated);

    // udp-length-mismatch: declared length below the header length.
    let mut bad_len =
        UdpDatagram::new(7, 53, Bytes::from_static(b"xy")).encode(A, B).unwrap().to_vec();
    bad_len[4] = 0;
    bad_len[5] = 4;
    let pkt = Ipv4Packet::udp(A, B, 601, Bytes::from(bad_len));
    expect_drop(stack.receive_counted(now, pkt, &mut global), DropReason::UdpLengthMismatch);

    // udp-bad-checksum: a payload byte altered without a checksum fix-up —
    // the defence the paper's attack must beat.
    let mut forged =
        UdpDatagram::new(7, 53, Bytes::from_static(b"payload")).encode(A, B).unwrap().to_vec();
    let last = forged.len() - 1;
    forged[last] ^= 0xFF;
    let pkt = Ipv4Packet::udp(A, B, 602, Bytes::from(forged));
    expect_drop(stack.receive_counted(now, pkt, &mut global), DropReason::UdpBadChecksum);
    assert!(DropReason::UdpBadChecksum.is_verify());

    // icmp-malformed: garbage where an ICMP message should be.
    let pkt = Ipv4Packet::icmp(A, B, 603, Bytes::from_static(&[0xFF]));
    expect_drop(stack.receive_counted(now, pkt, &mut global), DropReason::IcmpMalformed);

    // unknown-protocol: a protocol number the stack does not model.
    let mut pkt = Ipv4Packet::udp(A, B, 604, Bytes::from_static(b"12345678"));
    pkt.protocol = 99;
    expect_drop(stack.receive_counted(now, pkt, &mut global), DropReason::UnknownProtocol);

    // The caller-supplied aggregate saw every drop above, across stacks.
    assert_eq!(global.total(), 10);
    assert_eq!(global.frag_drops(), 5);
    assert_eq!(global.verify_drops(), 3);
}

/// An attacker injecting a checksum-corrupted raw UDP packet.
struct Forger {
    victim: Ipv4Addr,
}

impl Host for Forger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut wire = UdpDatagram::new(7, 53, Bytes::from_static(b"forged-payload"))
            .encode(ctx.addr(), self.victim)
            .unwrap()
            .to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        ctx.send_raw(Ipv4Packet::udp(ctx.addr(), self.victim, 77, Bytes::from(wire)));
    }
}

struct Sink;
impl Host for Sink {}

#[test]
fn sim_stats_aggregate_the_drop_taxonomy() {
    let mut sim = Simulator::new(11);
    sim.add_host(A, OsProfile::linux(), Box::new(Forger { victim: B })).unwrap();
    sim.add_host(B, OsProfile::linux(), Box::new(Sink)).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    assert_eq!(stats.drops.udp_bad_checksum, 1);
    assert_eq!(stats.drops.total(), 1);
    assert_eq!(stats.datagrams_dropped, 1);
    assert_eq!(stats.datagrams_delivered, 0);
    // The victim's per-host taxonomy names the same drop.
    assert_eq!(sim.stack(B).unwrap().drop_counts().udp_bad_checksum, 1);
    assert_eq!(sim.stack(A).unwrap().drop_counts().total(), 0);
}

/// A sender whose 4000-byte datagram fragments at the interface MTU.
struct BigSender {
    peer: Ipv4Addr,
}

impl Host for BigSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_udp(self.peer, 7, 53, Bytes::from(vec![0xAB; 4000]));
    }
}

fn fragmented_exchange(seed: u64) -> Simulator {
    let mut sim = Simulator::new(seed);
    sim.add_host(A, OsProfile::linux(), Box::new(BigSender { peer: B })).unwrap();
    sim.add_host(B, OsProfile::linux(), Box::new(Sink)).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    sim
}

#[test]
fn drop_taxonomy_is_identical_across_runs() {
    let first = fragmented_exchange(5);
    let second = fragmented_exchange(5);
    assert_eq!(first.stats(), second.stats());
    assert_eq!(first.stats().datagrams_delivered, 1);
}

#[cfg(feature = "trace")]
mod traced {
    use super::*;

    #[test]
    fn trace_digest_is_bit_identical_across_runs() {
        let first = fragmented_exchange(42);
        let second = fragmented_exchange(42);
        assert_ne!(first.trace_digest(), obs::FlightRecorder::new(4).digest());
        assert_eq!(first.trace_digest(), second.trace_digest());
    }

    #[test]
    fn ring_records_the_attack_causal_chain() {
        let sim = fragmented_exchange(42);
        let kinds: Vec<u16> = sim.recorder().iter().map(|e| e.kind).collect();
        let count = |k: u16| kinds.iter().filter(|&&x| x == k).count();
        assert_eq!(count(obs::kind::FRAG_RX), 3, "4000 B at MTU 1500 → 3 fragments");
        assert_eq!(count(obs::kind::FRAG_REASSEMBLED), 1);
        assert_eq!(count(obs::kind::UDP_VERIFY_OK), 1);
        // Ticks are simulated time: the chain happened within the first
        // simulated second, regardless of how long the test took.
        assert!(sim.recorder().iter().all(|e| e.tick <= 1_000_000_000));
    }

    #[test]
    fn verify_failures_and_app_notes_reach_the_ring() {
        let mut sim = Simulator::new(11);
        sim.add_host(A, OsProfile::linux(), Box::new(Forger { victim: B })).unwrap();
        sim.add_host(B, OsProfile::linux(), Box::new(Sink)).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        sim.note_trace(obs::kind::CACHE_POISONED, 1, 0);
        let kinds: Vec<(u32, u16, u64)> =
            sim.recorder().iter().map(|e| (e.host, e.kind, e.a)).collect();
        let victim = sim.host_id(B).unwrap().index() as u32;
        assert!(kinds.contains(&(
            victim,
            obs::kind::UDP_VERIFY_FAIL,
            u64::from(DropReason::UdpBadChecksum.code())
        )));
        assert!(kinds.contains(&(obs::TraceEvent::NO_HOST, obs::kind::CACHE_POISONED, 1)));
    }
}
