//! The wire decoders an off-path attacker writes to, on hostile bytes: a
//! valid IPv4 packet, UDP datagram and ICMP messages, truncated at every
//! offset and garbled at every byte. `Ipv4Packet::decode`,
//! `UdpDatagram::decode`/`decode_bytes` and `IcmpMessage::decode` must
//! return `Ok` or `Err` and never panic, inputs shorter than the fixed
//! header must be `Err`, and whatever decodes must describe the bytes it
//! read.
//!
//! A single garbled byte almost always breaks the checksum, which would
//! stop every decoder at its first check. Each garble is therefore also
//! tried with the checksum recomputed (IPv4, ICMP) or zeroed (UDP's "not
//! computed"), so the length and type fields behind the checksum are
//! reached with hostile values too.

use std::net::Ipv4Addr;
use std::ops::Range;

use bytes::Bytes;
use netsim::checksum;
use netsim::prelude::*;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
/// Type, code, checksum and the four type-specific bytes of an ICMP message.
const ICMP_HEADER_LEN: usize = 8;

fn udp_wire() -> Vec<u8> {
    let payload: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
    UdpDatagram::new(5353, 53, Bytes::from(payload)).encode(SRC, DST).unwrap().to_vec()
}

fn ipv4_wire() -> Vec<u8> {
    let mut packet = Ipv4Packet::udp(SRC, DST, 0x1234, Bytes::from(udp_wire()));
    packet.dont_fragment = true;
    packet.encode().unwrap().to_vec()
}

fn icmp_wires() -> Vec<Vec<u8>> {
    let original = Bytes::from(ipv4_wire()[..IPV4_HEADER_LEN + UDP_HEADER_LEN].to_vec());
    [
        IcmpMessage::FragmentationNeeded { mtu: 548, original },
        IcmpMessage::EchoRequest { id: 7, seq: 1 },
        IcmpMessage::EchoReply { id: 7, seq: 1 },
    ]
    .iter()
    .map(|msg| msg.encode().to_vec())
    .collect()
}

/// The byte values a garble writes: the extremes, the version/IHL and
/// flag bits, and near misses of the original.
fn garbles(original: u8) -> [u8; 7] {
    [0x00, 0xFF, 0x45, 0x20, 0x03, original ^ 0x20, original.wrapping_add(1)]
}

/// Rewrites the Internet checksum at `field` so that `covered` verifies.
fn refix(bytes: &mut [u8], field: Range<usize>, covered: Range<usize>) {
    bytes[field.clone()].fill(0);
    let ck = checksum::checksum(&bytes[covered]);
    bytes[field].copy_from_slice(&ck.to_be_bytes());
}

/// Each `check_*` returns whether the decoder accepted the input.
fn check_ipv4(bytes: &[u8], what: &str) -> bool {
    let Ok(packet) = Ipv4Packet::decode(bytes) else { return false };
    assert!(bytes.len() >= IPV4_HEADER_LEN, "{what}: decoded {} bytes", bytes.len());
    assert!(packet.wire_len() <= bytes.len(), "{what}: total length");
    assert_eq!(&packet.payload[..], &bytes[IPV4_HEADER_LEN..packet.wire_len()], "{what}");
    assert_eq!(packet.src, Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]), "{what}");
    true
}

/// Both UDP decoders agree, and an accepted datagram's payload is the
/// declared span of the input.
fn check_udp(bytes: &[u8], what: &str) -> bool {
    let copied = UdpDatagram::decode(bytes, SRC, DST);
    let shared = UdpDatagram::decode_bytes(&Bytes::copy_from_slice(bytes), SRC, DST);
    assert_eq!(copied, shared, "{what}: decode and decode_bytes disagree");
    let Ok(dgram) = copied else { return false };
    assert!(dgram.wire_len() <= bytes.len(), "{what}: declared length");
    assert_eq!(usize::from(u16::from_be_bytes([bytes[4], bytes[5]])), dgram.wire_len(), "{what}");
    assert_eq!(&dgram.payload[..], &bytes[UDP_HEADER_LEN..dgram.wire_len()], "{what}");
    true
}

fn check_icmp(bytes: &[u8], what: &str) -> bool {
    let Ok(msg) = IcmpMessage::decode(bytes) else { return false };
    assert!(bytes.len() >= ICMP_HEADER_LEN, "{what}: decoded {} bytes", bytes.len());
    if let IcmpMessage::FragmentationNeeded { original, .. } = msg {
        assert_eq!(&original[..], &bytes[ICMP_HEADER_LEN..], "{what}: quoted packet");
    }
    true
}

/// Runs `check` on every single-byte garble of `wire`, plain and with the
/// header checksum made valid again by `fix`, and requires the decoder to
/// have both accepted and rejected some of them (so the field checks
/// behind the checksum were reached).
fn garble_every_byte(wire: &[u8], check: impl Fn(&[u8], &str) -> bool, fix: impl Fn(&mut [u8])) {
    let (mut accepted, mut rejected) = (0, 0);
    for at in 0..wire.len() {
        for value in garbles(wire[at]) {
            let mut garbled = wire.to_vec();
            garbled[at] = value;
            let plain = check(&garbled, &format!("byte {at} set to {value:#04x}"));
            fix(&mut garbled);
            let fixed = check(&garbled, &format!("byte {at} set to {value:#04x}, checksum fixed"));
            for ok in [plain, fixed] {
                if ok {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
}

#[test]
fn intact_encodings_decode() {
    let ip = ipv4_wire();
    assert!(check_ipv4(&ip, "intact ipv4"));
    let packet = Ipv4Packet::decode(&ip).unwrap();
    let udp = udp_wire();
    assert_eq!(&packet.payload[..], &udp[..]);
    assert_eq!(UdpDatagram::decode(&udp, SRC, DST).unwrap().dst_port, 53);
    assert!(check_udp(&udp, "intact udp"));
    for wire in icmp_wires() {
        assert!(check_icmp(&wire, "intact icmp"));
    }
}

#[test]
fn inputs_shorter_than_the_header_are_rejected() {
    let ip = ipv4_wire();
    for cut in 0..IPV4_HEADER_LEN {
        assert!(Ipv4Packet::decode(&ip[..cut]).is_err(), "ipv4 cut at {cut}");
    }
    let udp = udp_wire();
    for cut in 0..UDP_HEADER_LEN {
        assert!(UdpDatagram::decode(&udp[..cut], SRC, DST).is_err(), "udp cut at {cut}");
        let cut_bytes = Bytes::copy_from_slice(&udp[..cut]);
        assert!(UdpDatagram::decode_bytes(&cut_bytes, SRC, DST).is_err(), "udp cut at {cut}");
    }
    for wire in icmp_wires() {
        for cut in 0..ICMP_HEADER_LEN {
            assert!(IcmpMessage::decode(&wire[..cut]).is_err(), "icmp cut at {cut}");
        }
    }
}

#[test]
fn encodings_truncated_at_every_offset() {
    let ip = ipv4_wire();
    for cut in 0..=ip.len() {
        check_ipv4(&ip[..cut], &format!("ipv4 cut at {cut}"));
    }
    let udp = udp_wire();
    for cut in 0..=udp.len() {
        check_udp(&udp[..cut], &format!("udp cut at {cut}"));
        let mut unchecked = udp[..cut].to_vec();
        if let Some(field) = unchecked.get_mut(6..8) {
            field.fill(0);
        }
        check_udp(&unchecked, &format!("udp cut at {cut}, checksum zeroed"));
    }
    for wire in icmp_wires() {
        for cut in 0..=wire.len() {
            check_icmp(&wire[..cut], &format!("icmp cut at {cut}"));
        }
    }
}

#[test]
fn ipv4_garbled_at_every_byte() {
    garble_every_byte(&ipv4_wire(), check_ipv4, |bytes| {
        refix(bytes, 10..12, 0..IPV4_HEADER_LEN);
    });
}

#[test]
fn udp_garbled_at_every_byte() {
    garble_every_byte(&udp_wire(), check_udp, |bytes| bytes[6..8].fill(0));
}

#[test]
fn icmp_garbled_at_every_byte() {
    for wire in icmp_wires() {
        garble_every_byte(&wire, check_icmp, |bytes| {
            let len = bytes.len();
            refix(bytes, 2..4, 0..len);
        });
    }
}
