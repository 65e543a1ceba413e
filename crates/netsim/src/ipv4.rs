//! Byte-accurate IPv4 packets (RFC 791, options-free headers).
//!
//! Fragmentation-based DNS poisoning manipulates real IPv4 header fields —
//! the identification (IPID), the `MF` flag and the fragment offset — so
//! packets are modelled at wire level and round-trip through real bytes.
// simlint: hot-path — encode/decode and by-value packet moves run per
// packet; payloads must stay zero-copy `Bytes` slices.

use core::fmt;
use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};

use crate::checksum;
use crate::error::WireError;

/// IP protocol number for ICMP.
pub const PROTO_ICMP: u8 = 1;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// Length of the options-free IPv4 header this crate emits.
pub const IPV4_HEADER_LEN: usize = 20;

/// The minimum MTU every IPv4 link must support (RFC 791). The attack of
/// Malhotra et al. required fragmenting NTP responses to this size; the
/// DSN'20 paper instead fragments larger DNS responses.
pub const MIN_IPV4_MTU: u16 = 68;

/// An IPv4 packet (or fragment). `payload` holds the bytes after the
/// 20-byte header; for fragments it is the fragment's slice of the original
/// datagram's payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ipv4Packet {
    /// Source address. Off-path attackers routinely spoof this.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Identification field shared by all fragments of one datagram.
    pub id: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol ([`PROTO_UDP`] or [`PROTO_ICMP`]).
    pub protocol: u8,
    /// Don't-Fragment flag.
    pub dont_fragment: bool,
    /// More-Fragments flag: set on every fragment except the last.
    pub more_fragments: bool,
    /// Fragment offset in units of 8 bytes.
    pub frag_offset: u16,
    /// Payload bytes after the header.
    pub payload: Bytes,
}

// Packets move by value wire → stack → host (zero-clone delivery), so the
// struct rides every event: 40 B = 16 B of header scalars + the 24-B
// `Bytes` handle. Growth here fattens every `EventKind` move, including
// the event queue's sifts — keep it a compile error.
const _: () = assert!(std::mem::size_of::<Ipv4Packet>() <= 40, "Ipv4Packet grew past 40 bytes");

impl Ipv4Packet {
    /// Builds an unfragmented UDP-carrying packet with default TTL 64.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, id: u16, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            id,
            ttl: 64,
            protocol: PROTO_UDP,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            payload,
        }
    }

    /// Builds an unfragmented ICMP-carrying packet with default TTL 64.
    pub fn icmp(src: Ipv4Addr, dst: Ipv4Addr, id: u16, payload: Bytes) -> Self {
        Ipv4Packet { protocol: PROTO_ICMP, ..Ipv4Packet::udp(src, dst, id, payload) }
    }

    /// True if this packet is one fragment of a larger datagram.
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// True if this is the first (offset-zero) fragment of a fragmented
    /// datagram, the one carrying the transport header.
    pub fn is_first_fragment(&self) -> bool {
        self.more_fragments && self.frag_offset == 0
    }

    /// Total on-wire length: header plus payload.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// Byte offset (not 8-byte units) of this fragment's payload within the
    /// original datagram's payload.
    pub fn payload_offset(&self) -> usize {
        usize::from(self.frag_offset) * 8
    }

    /// Encodes the packet to wire bytes with a correct header checksum.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Oversize`] if the total length exceeds 65 535
    /// bytes, or [`WireError::BadFragmentOffset`] if the fragment offset
    /// does not fit in 13 bits.
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let total_len = IPV4_HEADER_LEN + self.payload.len();
        if total_len > usize::from(u16::MAX) {
            return Err(WireError::Oversize { len: total_len });
        }
        if self.frag_offset > 0x1FFF {
            return Err(WireError::BadFragmentOffset { offset: self.frag_offset });
        }
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16(total_len as u16);
        buf.put_u16(self.id);
        let mut flags_frag = self.frag_offset & 0x1FFF;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        buf.put_u16(flags_frag);
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let ck = checksum::checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        buf.put_slice(&self.payload);
        Ok(buf.freeze())
    }

    /// Decodes a packet from wire bytes, verifying the header checksum.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] variants for truncated input, wrong version,
    /// unsupported options, bad checksum or a total-length mismatch.
    pub fn decode(data: &[u8]) -> Result<Ipv4Packet, WireError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated { needed: IPV4_HEADER_LEN, got: data.len() });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(WireError::BadVersion { version });
        }
        let ihl = usize::from(data[0] & 0x0F) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(WireError::UnsupportedOptions { ihl });
        }
        if !checksum::verify(&data[..IPV4_HEADER_LEN]) {
            return Err(WireError::BadChecksum { layer: "ipv4" });
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < IPV4_HEADER_LEN || total_len > data.len() {
            return Err(WireError::LengthMismatch { declared: total_len, actual: data.len() });
        }
        let id = u16::from_be_bytes([data[4], data[5]]);
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        let ttl = data[8];
        let protocol = data[9];
        let src = Ipv4Addr::new(data[12], data[13], data[14], data[15]);
        let dst = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        Ok(Ipv4Packet {
            src,
            dst,
            id,
            ttl,
            protocol,
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1FFF,
            payload: Bytes::copy_from_slice(&data[IPV4_HEADER_LEN..total_len]),
        })
    }
}

impl fmt::Display for Ipv4Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IPv4 {} -> {} proto={} id={:#06x} off={} mf={} len={}",
            self.src,
            self.dst,
            self.protocol,
            self.id,
            self.frag_offset,
            self.more_fragments,
            self.wire_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(198, 51, 100, 7),
            id: 0xBEEF,
            ttl: 64,
            protocol: PROTO_UDP,
            dont_fragment: true,
            more_fragments: false,
            frag_offset: 0,
            payload: Bytes::from_static(b"hello world"),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let pkt = sample();
        let wire = pkt.encode().unwrap();
        let back = Ipv4Packet::decode(&wire).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn header_checksum_is_valid_on_wire() {
        let wire = sample().encode().unwrap();
        assert!(checksum::verify(&wire[..IPV4_HEADER_LEN]));
    }

    #[test]
    fn decode_rejects_corrupted_header() {
        let wire = sample().encode().unwrap();
        let mut bad = wire.to_vec();
        bad[4] ^= 0xFF; // corrupt the IPID without fixing the checksum
        assert!(matches!(Ipv4Packet::decode(&bad), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn decode_rejects_truncation() {
        let wire = sample().encode().unwrap();
        assert!(matches!(Ipv4Packet::decode(&wire[..10]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn fragment_flags_round_trip() {
        let mut pkt = sample();
        pkt.dont_fragment = false;
        pkt.more_fragments = true;
        pkt.frag_offset = 185; // 1480 bytes / 8
        let back = Ipv4Packet::decode(&pkt.encode().unwrap()).unwrap();
        assert!(back.more_fragments);
        assert_eq!(back.frag_offset, 185);
        assert_eq!(back.payload_offset(), 1480);
        assert!(back.is_fragment());
        assert!(!back.is_first_fragment());
    }

    #[test]
    fn oversize_offset_rejected() {
        let mut pkt = sample();
        pkt.frag_offset = 0x2000;
        assert!(matches!(pkt.encode(), Err(WireError::BadFragmentOffset { .. })));
    }

    #[test]
    fn trailing_link_padding_is_ignored() {
        let pkt = sample();
        let mut wire = pkt.encode().unwrap().to_vec();
        wire.extend_from_slice(&[0u8; 6]); // Ethernet-style padding
        let back = Ipv4Packet::decode(&wire).unwrap();
        assert_eq!(back.payload, pkt.payload);
    }
}
