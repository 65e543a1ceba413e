//! The NTP decoders on hostile bytes: a valid client/server packet and a
//! mode-6 peers response, truncated at every offset and garbled at every
//! byte. `NtpPacket::decode` and `ControlMessage::decode` must return
//! `Ok` or `Err` and never panic, inputs shorter than the fixed header
//! must be `Err`, and whatever decodes must describe the bytes it read.

use std::net::Ipv4Addr;

use ntp::prelude::*;

/// Size of the fixed NTP header; every mode 3/4 packet is exactly this.
const NTP_LEN: usize = 48;
/// Mode byte, opcode, response flag and count of a control message.
const CONTROL_HEADER_LEN: usize = 4;

fn server_reply() -> Vec<u8> {
    let t1 = NtpTimestamp::from_secs_nanos(3_850_000_100, 123_456_789);
    let t2 = NtpTimestamp::from_secs_nanos(3_850_000_101, 987_654_321);
    let request = NtpPacket::client_request(t1);
    NtpPacket::server_response(&request, 2, [192, 0, 2, 7], t2, t2).encode().to_vec()
}

fn peers_response() -> Vec<u8> {
    let peers = (1..=5).map(|i| Ipv4Addr::new(198, 51, 100, i)).collect();
    ControlMessage::PeersResponse(peers).encode().to_vec()
}

/// The byte values a garble writes: the extremes, the mode/flag bits and
/// near misses of the original.
fn garbles(original: u8) -> [u8; 7] {
    [0x00, 0xFF, 0x26, 0x07, 0x80, original ^ 0x20, original.wrapping_add(1)]
}

/// Every 48-byte header is a packet: decoding succeeds exactly when the
/// input is long enough, and the decoded fields re-encode to the bytes
/// that were read.
fn check_packet(bytes: &[u8], what: &str) {
    match NtpPacket::decode(bytes) {
        Ok(packet) => {
            assert!(bytes.len() >= NTP_LEN, "{what}: decoded {} bytes", bytes.len());
            assert_eq!(&packet.encode()[..], &bytes[..NTP_LEN], "{what}: fields re-encode");
        }
        Err(_) => assert!(bytes.len() < NTP_LEN, "{what}: rejected a full header"),
    }
}

/// A decoded control message never claims more peers than the bytes hold.
fn check_control(bytes: &[u8], what: &str) {
    let Ok(msg) = ControlMessage::decode(bytes) else { return };
    assert!(bytes.len() >= CONTROL_HEADER_LEN, "{what}: decoded {} bytes", bytes.len());
    if let ControlMessage::PeersResponse(peers) = msg {
        assert!(CONTROL_HEADER_LEN + 4 * peers.len() <= bytes.len(), "{what}: peer count");
        assert_eq!(usize::from(bytes[3]), peers.len(), "{what}: count byte");
    }
}

#[test]
fn intact_messages_round_trip() {
    let reply = server_reply();
    assert_eq!(reply.len(), NTP_LEN);
    check_packet(&reply, "intact reply");
    assert_eq!(
        NtpPacket::decode(&reply).unwrap().upstream_addr(),
        Some(Ipv4Addr::new(192, 0, 2, 7))
    );
    let peers = peers_response();
    check_control(&peers, "intact peers");
    let Ok(ControlMessage::PeersResponse(decoded)) = ControlMessage::decode(&peers) else {
        panic!("peers response must decode");
    };
    assert_eq!(decoded.len(), 5);
    let request = ControlMessage::PeersRequest.encode();
    assert_eq!(ControlMessage::decode(&request), Ok(ControlMessage::PeersRequest));
}

#[test]
fn inputs_shorter_than_the_header_are_rejected() {
    let reply = server_reply();
    for cut in 0..NTP_LEN {
        assert!(NtpPacket::decode(&reply[..cut]).is_err(), "packet cut at {cut}");
    }
    let peers = peers_response();
    for cut in 0..CONTROL_HEADER_LEN {
        assert!(ControlMessage::decode(&peers[..cut]).is_err(), "control cut at {cut}");
    }
}

#[test]
fn messages_truncated_at_every_offset() {
    let reply = server_reply();
    for cut in 0..=reply.len() {
        check_packet(&reply[..cut], &format!("packet cut at {cut}"));
        check_control(&reply[..cut], &format!("packet as control, cut at {cut}"));
    }
    let peers = peers_response();
    for cut in 0..=peers.len() {
        check_control(&peers[..cut], &format!("control cut at {cut}"));
        check_packet(&peers[..cut], &format!("control as packet, cut at {cut}"));
    }
}

#[test]
fn messages_garbled_at_every_byte() {
    for (wire, name) in [(server_reply(), "packet"), (peers_response(), "control")] {
        for at in 0..wire.len() {
            for value in garbles(wire[at]) {
                let mut garbled = wire.clone();
                garbled[at] = value;
                let what = format!("{name} byte {at} set to {value:#04x}");
                check_packet(&garbled, &what);
                check_control(&garbled, &what);
            }
        }
    }
}
