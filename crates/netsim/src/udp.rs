//! UDP datagrams with real pseudo-header checksums (RFC 768).
//!
//! The UDP checksum is the last line of defence against the spoofed-fragment
//! attack: a reassembled datagram whose payload was altered without a
//! matching checksum fix-up is dropped here, exactly as a real stack would.
// simlint: hot-path — every datagram is encoded and verified here.

use core::fmt;
use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};

use crate::checksum;
use crate::error::WireError;
use crate::ipv4::PROTO_UDP;

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram: ports plus application payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

// Datagrams ride `Action::SendUdp` by value: 32 B = two ports (padded) +
// the 24-B `Bytes` handle. See the matching assert on `Ipv4Packet`.
const _: () = assert!(std::mem::size_of::<UdpDatagram>() <= 32, "UdpDatagram grew past 32 bytes");

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram { src_port, dst_port, payload }
    }

    /// Total UDP length (header + payload).
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Encodes to wire bytes including the pseudo-header checksum computed
    /// over `src`/`dst` addresses.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Oversize`] if the datagram exceeds 65 535 bytes.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Bytes, WireError> {
        let len = self.checked_len()?;
        let hdr = self.header(src, dst, checksum::ones_complement_sum(&self.payload));
        // Datagrams that fit a `Bytes` inline buffer (NTP mode 3/4 probes,
        // short DNS queries) assemble in a stack array and never touch the
        // buffer pool; larger ones go through `BytesMut` as before.
        if len <= bytes::INLINE_CAP {
            let mut wire = [0u8; bytes::INLINE_CAP];
            wire[..UDP_HEADER_LEN].copy_from_slice(&hdr);
            wire[UDP_HEADER_LEN..len].copy_from_slice(&self.payload);
            return Ok(Bytes::copy_from_slice(&wire[..len]));
        }
        let mut buf = BytesMut::with_capacity(len);
        buf.put_slice(&hdr);
        buf.put_slice(&self.payload);
        Ok(buf.freeze())
    }

    /// Encodes this datagram once for every destination in `dsts`, back to
    /// back in one buffer: bytes `i * wire_len() .. (i + 1) * wire_len()`
    /// equal `self.encode(src, dst_i)`. The payload is summed once; each
    /// copy's checksum adds only its own pseudo-header words. A spoofed
    /// flood sends one payload to many servers this way, one buffer per
    /// round instead of one per packet.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Oversize`] if the datagram exceeds 65 535 bytes.
    pub fn encode_each(
        &self,
        src: Ipv4Addr,
        dsts: impl ExactSizeIterator<Item = Ipv4Addr>,
    ) -> Result<Bytes, WireError> {
        let len = self.checked_len()?;
        let payload_sum = checksum::ones_complement_sum(&self.payload);
        let mut buf = BytesMut::with_capacity(len * dsts.len());
        for dst in dsts {
            buf.put_slice(&self.header(src, dst, payload_sum));
            buf.put_slice(&self.payload);
        }
        Ok(buf.freeze())
    }

    /// The wire length, checked against the 16-bit length field.
    fn checked_len(&self) -> Result<usize, WireError> {
        let len = self.wire_len();
        if len > usize::from(u16::MAX) {
            return Err(WireError::Oversize { len });
        }
        Ok(len)
    }

    /// The 8-byte header towards `dst`, given the payload's
    /// ones'-complement sum. The checksum is computed *before* the header
    /// is written: the header's contribution (ports + length, checksum
    /// field zero) is four words already sitting in registers, so only the
    /// payload is summed from memory, and the header goes out as one 8-byte
    /// write with the final checksum in place — no placeholder, no
    /// patch-up.
    #[inline]
    fn header(&self, src: Ipv4Addr, dst: Ipv4Addr, payload_sum: u16) -> [u8; UDP_HEADER_LEN] {
        // `checked_len` has bounded the length to 16 bits.
        let len16 = self.wire_len() as u16;
        let s = u64::from(u32::from(src));
        let d = u64::from(u32::from(dst));
        let sum = (s >> 16)
            + (s & 0xFFFF)
            + (d >> 16)
            + (d & 0xFFFF)
            + u64::from(PROTO_UDP)
            + 2 * u64::from(len16) // pseudo-header length + header length word
            + u64::from(self.src_port)
            + u64::from(self.dst_port)
            + u64::from(payload_sum);
        let ck = !checksum::fold_sum(sum);
        // Per RFC 768 a computed checksum of zero is transmitted as 0xFFFF.
        let ck = if ck == 0 { 0xFFFF } else { ck };
        let sp = self.src_port.to_be_bytes();
        let dp = self.dst_port.to_be_bytes();
        let ln = len16.to_be_bytes();
        let cb = ck.to_be_bytes();
        [sp[0], sp[1], dp[0], dp[1], ln[0], ln[1], cb[0], cb[1]]
    }

    /// Decodes wire bytes, verifying length and checksum against the
    /// pseudo-header for `src`/`dst`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] variants for truncation, length mismatch or a
    /// failed checksum (checksum 0 means "not computed" and is accepted,
    /// matching real IPv4 stacks).
    pub fn decode(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, WireError> {
        let declared = Self::verify(data, src, dst)?;
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: Bytes::copy_from_slice(&data[UDP_HEADER_LEN..declared]),
        })
    }

    /// Zero-copy variant of [`UdpDatagram::decode`]: the returned payload
    /// is a slice sharing `data`'s storage instead of a fresh copy. This is
    /// the simulator's delivery path — a reassembled datagram reaches the
    /// host without its payload ever being re-copied.
    ///
    /// # Errors
    ///
    /// Same as [`UdpDatagram::decode`].
    pub fn decode_bytes(
        data: &Bytes,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<UdpDatagram, WireError> {
        let declared = Self::verify(data, src, dst)?;
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: data.slice(UDP_HEADER_LEN..declared),
        })
    }

    /// Shared validation for the decode variants: checks header length,
    /// declared length and the pseudo-header checksum, returning the
    /// declared datagram length.
    fn verify(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<usize, WireError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated { needed: UDP_HEADER_LEN, got: data.len() });
        }
        let declared = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if declared < UDP_HEADER_LEN || declared > data.len() {
            return Err(WireError::LengthMismatch { declared, actual: data.len() });
        }
        let data = &data[..declared];
        let ck_field = u16::from_be_bytes([data[6], data[7]]);
        if ck_field != 0 {
            let computed = Self::compute_checksum(data, src, dst);
            // `compute_checksum` over a buffer that already contains the
            // checksum yields 0 iff the datagram verifies.
            if computed != 0 {
                return Err(WireError::BadChecksum { layer: "udp" });
            }
        }
        Ok(declared)
    }

    /// Computes the UDP checksum over the pseudo-header and `segment`
    /// (header + payload, with the checksum field as currently present).
    ///
    /// The pseudo-header is summed from a stack buffer and combined with
    /// the segment's sum in ones'-complement arithmetic — no allocation,
    /// no copy of the segment (this runs twice per packet on the hot path:
    /// once on encode, once on verify).
    #[inline]
    pub fn compute_checksum(segment: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> u16 {
        // The pseudo-header is six 16-bit words — the address halves, the
        // protocol and the length — summed directly from registers rather
        // than staged through a stack buffer (this runs twice per packet
        // on the hot path: once on encode, once on verify). Word alignment
        // of the even-length pseudo-header is preserved, so the
        // ones'-complement sums combine exactly.
        let s = u64::from(u32::from(src));
        let d = u64::from(u32::from(dst));
        let pseudo = (s >> 16)
            + (s & 0xFFFF)
            + (d >> 16)
            + (d & 0xFFFF)
            + u64::from(PROTO_UDP)
            + segment.len() as u64;
        !checksum::oc_add(checksum::fold_sum(pseudo), checksum::ones_complement_sum(segment))
    }
}

impl fmt::Display for UdpDatagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UDP :{} -> :{} ({} bytes)", self.src_port, self.dst_port, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn round_trip() {
        let d = UdpDatagram::new(5353, 53, Bytes::from_static(b"query"));
        let wire = d.encode(SRC, DST).unwrap();
        let back = UdpDatagram::decode(&wire, SRC, DST).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn checksum_binds_addresses() {
        // A datagram re-routed to a different destination must fail — this
        // is the property that forces the attacker to spoof the exact
        // nameserver address.
        let d = UdpDatagram::new(1000, 2000, Bytes::from_static(b"payload"));
        let wire = d.encode(SRC, DST).unwrap();
        let other = Ipv4Addr::new(10, 9, 9, 9);
        assert!(matches!(
            UdpDatagram::decode(&wire, SRC, other),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn payload_tamper_detected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"time is 12:00"));
        let wire = d.encode(SRC, DST).unwrap();
        let mut bad = wire.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        assert!(matches!(UdpDatagram::decode(&bad, SRC, DST), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn zero_checksum_accepted_as_disabled() {
        let d = UdpDatagram::new(7, 8, Bytes::from_static(b"nocksum"));
        let mut wire = d.encode(SRC, DST).unwrap().to_vec();
        wire[6] = 0;
        wire[7] = 0;
        let back = UdpDatagram::decode(&wire, SRC, DST).unwrap();
        assert_eq!(back.payload, d.payload);
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            UdpDatagram::decode(&[0, 53, 0, 53, 0, 9], SRC, DST),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn declared_length_longer_than_buffer_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abc"));
        let wire = d.encode(SRC, DST).unwrap();
        let mut bad = wire.to_vec();
        bad[5] = 200; // declared length 200 > actual
        assert!(matches!(
            UdpDatagram::decode(&bad, SRC, DST),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    /// Each copy in an `encode_each` buffer is the datagram encoded for
    /// its destination, for payloads below, at and above the inline size.
    #[test]
    fn encode_each_equals_one_encode_per_destination() {
        let dsts: Vec<Ipv4Addr> =
            [DST, Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(255, 255, 255, 255)].into();
        for payload_len in [0, 1, 13, 14, 15, 48, 1000] {
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 97 + 5) as u8).collect();
            let d = UdpDatagram::new(123, 123, Bytes::from(payload));
            let wire = d.encode_each(SRC, dsts.iter().copied()).unwrap();
            assert_eq!(wire.len(), dsts.len() * d.wire_len());
            for (copy, &dst) in wire.chunks(d.wire_len()).zip(&dsts) {
                assert_eq!(copy, &d.encode(SRC, dst).unwrap()[..], "{payload_len} B to {dst}");
            }
        }
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"none"));
        assert!(d.encode_each(SRC, std::iter::empty()).unwrap().is_empty());
    }

    #[test]
    fn empty_payload_round_trips() {
        let d = UdpDatagram::new(123, 321, Bytes::new());
        let wire = d.encode(SRC, DST).unwrap();
        assert_eq!(wire.len(), UDP_HEADER_LEN);
        assert_eq!(UdpDatagram::decode(&wire, SRC, DST).unwrap(), d);
    }
}
