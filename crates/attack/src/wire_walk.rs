//! Offset-preserving walk over an encoded DNS response.
//!
//! The fragment forger needs to know *where in the byte stream* each record
//! field sits — which glue addresses fall into the second fragment, where a
//! TTL can serve as checksum slack. This walker parses the wire format
//! without building a full [`dns::message::Message`], reporting byte spans;
//! owner names are checked by the decoder's own name walk
//! ([`skip_name_at`]) and decoded only on request ([`RecordSpan::name`]).

use dns::error::DnsError;
use dns::name::{read_name_at, skip_name_at, Name};
use dns::record::RecordType;

/// Which message section a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// The byte layout of one resource record within the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Record type.
    pub rtype: RecordType,
    /// Section the record belongs to.
    pub section: Section,
    /// Byte offset of the record's start (owner name).
    pub record_offset: usize,
    /// Byte offset of the 4-byte TTL field.
    pub ttl_offset: usize,
    /// Byte offset of the RDATA.
    pub rdata_offset: usize,
    /// RDATA length in bytes.
    pub rdata_len: usize,
}

impl RecordSpan {
    /// Decodes the owner name (through compression pointers) from the
    /// message the span was walked over.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError`] if the name is malformed.
    pub fn name(&self, dns_bytes: &[u8]) -> Result<Name, DnsError> {
        read_name_at(dns_bytes, self.record_offset).map(|(name, _)| name)
    }

    /// True for a glue record: an A record in the additional section.
    pub fn is_glue(&self) -> bool {
        self.section == Section::Additional && self.rtype == RecordType::A
    }
}

/// Walks all records of an encoded DNS message, in order.
///
/// # Errors
///
/// Returns [`DnsError`] on malformed input.
pub fn walk_records(dns_bytes: &[u8]) -> Result<Vec<RecordSpan>, DnsError> {
    if dns_bytes.len() < 12 {
        return Err(DnsError::Truncated { context: "header" });
    }
    let qdcount = u16::from_be_bytes([dns_bytes[4], dns_bytes[5]]);
    let ancount = u16::from_be_bytes([dns_bytes[6], dns_bytes[7]]);
    let nscount = u16::from_be_bytes([dns_bytes[8], dns_bytes[9]]);
    let arcount = u16::from_be_bytes([dns_bytes[10], dns_bytes[11]]);
    let mut pos = 12usize;
    for _ in 0..qdcount {
        pos = skip_name_at(dns_bytes, pos)?;
        pos += 4; // qtype + qclass
    }
    // Every record takes at least 11 bytes (a root owner and the fixed
    // fields), which bounds the allocation whatever the counts claim.
    let total = usize::from(ancount) + usize::from(nscount) + usize::from(arcount);
    let mut spans = Vec::with_capacity(total.min(dns_bytes.len() / 11));
    let sections =
        [(Section::Answer, ancount), (Section::Authority, nscount), (Section::Additional, arcount)];
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

/// Convenience: the glue A records (additional-section A records) of a
/// response, in order.
pub fn glue_spans(spans: &[RecordSpan]) -> Vec<&RecordSpan> {
    spans.iter().filter(|s| s.is_glue()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn sample_response() -> (Message, Vec<u8>) {
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 23, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let query = Message::query(7, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
        let resp = srv.answer(&query, &mut SmallRng::seed_from_u64(5));
        let wire = resp.encode().unwrap().to_vec();
        (resp, wire)
    }

    #[test]
    fn walk_finds_all_records_in_order() {
        let (resp, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        assert_eq!(
            spans.len(),
            resp.answers.len() + resp.authorities.len() + resp.additionals.len()
        );
        assert_eq!(spans.iter().filter(|s| s.section == Section::Answer).count(), 4);
        assert_eq!(glue_spans(&spans).len(), 23);
        // Offsets are strictly increasing.
        for pair in spans.windows(2) {
            assert!(pair[0].record_offset < pair[1].record_offset);
        }
    }

    #[test]
    fn rdata_offsets_point_at_the_actual_addresses() {
        let (resp, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        for (span, record) in glue_spans(&spans).iter().zip(&resp.additionals) {
            assert_eq!(span.name(&wire).unwrap(), record.name);
            let addr = Ipv4Addr::new(
                wire[span.rdata_offset],
                wire[span.rdata_offset + 1],
                wire[span.rdata_offset + 2],
                wire[span.rdata_offset + 3],
            );
            assert_eq!(Some(addr), record.as_a());
        }
    }

    #[test]
    fn ttl_offsets_point_at_ttls() {
        let (_, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        for span in glue_spans(&spans) {
            let ttl = u32::from_be_bytes([
                wire[span.ttl_offset],
                wire[span.ttl_offset + 1],
                wire[span.ttl_offset + 2],
                wire[span.ttl_offset + 3],
            ]);
            assert_eq!(ttl, 3600);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let (_, wire) = sample_response();
        assert!(walk_records(&wire[..wire.len() - 3]).is_err());
        assert!(walk_records(&wire[..8]).is_err());
    }

    #[test]
    fn glue_lands_beyond_the_fragment_split() {
        // The attack's layout precondition: at MTU 548 the first fragment
        // carries 528 IP-payload bytes = 8 UDP header + 520 DNS bytes; all
        // glue RDATA must sit at DNS offset ≥ 520.
        let (_, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        let first_glue = glue_spans(&spans)[0];
        assert!(
            first_glue.rdata_offset >= 520,
            "first glue rdata at {} must be ≥ 520",
            first_glue.rdata_offset
        );
    }
}
