//! Offset-preserving walk over an encoded DNS response.
//!
//! The fragment forger needs to know *where in the byte stream* each record
//! field sits — which glue addresses fall into the second fragment, where a
//! TTL can serve as checksum slack. The spans come from the decoder's own
//! checked walk ([`MessageView::with_spans`]), so a layout is reported for
//! exactly the messages [`dns::message::Message::decode`] accepts, without
//! building one; owner names are decoded only on request
//! ([`RecordSpan::name`]).

use dns::error::DnsError;
use dns::message::MessageView;
pub use dns::message::{RecordSpan, Section};

/// Walks all records of an encoded DNS message, in order.
///
/// # Errors
///
/// Returns [`DnsError`] on malformed input: whatever
/// [`MessageView::new`] rejects.
pub fn walk_records(dns_bytes: &[u8]) -> Result<Vec<RecordSpan>, DnsError> {
    let mut spans = Vec::new();
    MessageView::with_spans(dns_bytes, &mut spans)?;
    Ok(spans)
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
        assert_eq!(spans.iter().filter(|s| s.is_glue()).count(), 23);
        // Offsets are strictly increasing.
        for pair in spans.windows(2) {
            assert!(pair[0].record_offset < pair[1].record_offset);
        }
    }

    #[test]
    fn rdata_offsets_point_at_the_actual_addresses() {
        let (resp, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        for (span, record) in spans.iter().filter(|s| s.is_glue()).zip(&resp.additionals) {
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
        for span in spans.iter().filter(|s| s.is_glue()) {
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
        let first_glue = spans.iter().find(|s| s.is_glue()).unwrap();
        assert!(
            first_glue.rdata_offset >= 520,
            "first glue rdata at {} must be ≥ 520",
            first_glue.rdata_offset
        );
    }
}
