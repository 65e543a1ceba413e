//! A purpose-built test nameserver that **always fragments** its responses
//! to a configurable size, regardless of path-MTU discovery — the
//! "customised nameserver" of the paper's ad study (§VIII-B1): *"our
//! nameserver fragmented the responses irrespective of any
//! path-MTU-discovery results"*.
//!
//! Query names select the behaviour by their second label, mirroring the
//! study's test domains:
//!
//! * `T.baseline.<zone>` — ordinary unfragmented answer;
//! * `T.ftiny.<zone>` — fragments of 68 bytes;
//! * `T.fsmall.<zone>` — 296 bytes;
//! * `T.fmedium.<zone>` — 580 bytes;
//! * `T.fbig.<zone>` — 1280 bytes;
//! * `sigfail.<zone>` — DNSSEC-lite signature made with the wrong key;
//! * `sigright.<zone>` — correctly signed.

use std::net::Ipv4Addr;

use dns::auth::DNS_PORT;
use dns::dnssec::{make_rrsig, ZoneKey};
use dns::message::{Message, Rcode};
use dns::name::Name;
use dns::record::{RData, Record, RecordType};
use netsim::frag::fragment;
use netsim::ipv4::Ipv4Packet;
use netsim::prelude::*;
use netsim::udp::UdpDatagram;

/// The fragment sizes used by the study's sub-domains.
pub const SIZES: [(&str, u16); 4] =
    [("ftiny", 68), ("fsmall", 296), ("fmedium", 580), ("fbig", 1280)];

/// The always-fragmenting test nameserver.
#[derive(Debug)]
pub struct FragmentingNs {
    zone: Name,
    /// The genuine zone key (sigright uses it; sigfail uses a different
    /// one).
    pub key: ZoneKey,
    ipid: u16,
    /// Queries answered.
    pub queries: u64,
}

impl FragmentingNs {
    /// Creates the server authoritative for `zone`.
    pub fn new(zone: Name, key: ZoneKey) -> Self {
        FragmentingNs { zone, key, ipid: 1, queries: 0 }
    }

    /// Classifies a query name: returns the behaviour label (second-level
    /// label under the zone, or the first label for `sigfail`/`sigright`).
    fn kind_of(&self, qname: &Name) -> Option<String> {
        if !qname.is_subdomain_of(&self.zone) {
            return None;
        }
        let extra = qname.label_count() - self.zone.label_count();
        match extra {
            1 => qname.labels().next().map(str::to_owned), // sigfail / sigright
            2 => qname.labels().nth(1).map(str::to_owned), // T.<kind>
            _ => None,
        }
    }

    fn build_answer(&self, query: &Message, kind: &str) -> Option<Message> {
        let q = query.question()?;
        let mut resp = Message::response_to(query);
        resp.header.aa = true;
        let addr = Ipv4Addr::new(198, 51, 7, 7);
        // The zone is signed: every RRset carries an RRSIG made with the
        // genuine key — except `sigfail`, whose signature uses a wrong key
        // (the study's broken-signature control).
        let key = if kind == "sigfail" { ZoneKey(self.key.0 ^ 0xBAD) } else { self.key };
        match kind {
            "baseline" | "sigfail" | "sigright" => {
                resp.answers.push(Record::a(q.name.clone(), 60, addr));
                let sig = make_rrsig(key, &self.zone, &q.name, RecordType::A, 60, &resp.answers);
                resp.answers.push(sig);
            }
            _ if SIZES.iter().any(|(k, _)| *k == kind) => {
                let a_set = vec![Record::a(q.name.clone(), 60, addr)];
                // Pad so the response exceeds the largest fragment size:
                // every kind then yields at least two fragments.
                let txt_set = vec![Record::new(q.name.clone(), 60, RData::Txt("p".repeat(1400)))];
                let a_sig = make_rrsig(key, &self.zone, &q.name, RecordType::A, 60, &a_set);
                let txt_sig = make_rrsig(key, &self.zone, &q.name, RecordType::Txt, 60, &txt_set);
                resp.answers.extend(a_set);
                resp.answers.push(a_sig);
                resp.answers.extend(txt_set);
                resp.answers.push(txt_sig);
            }
            _ => {
                resp.header.rcode = Rcode::NxDomain;
            }
        }
        Some(resp)
    }
}

impl Host for FragmentingNs {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = Message::decode(&d.payload) else { return };
        if query.header.qr {
            return;
        }
        let Some(q) = query.question() else { return };
        let Some(kind) = self.kind_of(&q.name) else { return };
        let Some(resp) = self.build_answer(&query, &kind) else { return };
        self.queries += 1;
        let Ok(dns_bytes) = resp.encode() else { return };
        let Ok(udp) = UdpDatagram::new(DNS_PORT, d.src_port, dns_bytes).encode(ctx.addr(), d.src)
        else {
            return;
        };
        self.ipid = self.ipid.wrapping_add(1);
        let pkt = Ipv4Packet::udp(ctx.addr(), d.src, self.ipid, udp);
        let mtu = SIZES.iter().find(|(k, _)| *k == kind).map(|(_, mtu)| *mtu).unwrap_or(1500);
        // `fragment` cannot fail here: the MTUs come from SIZES (all ≥ 68)
        // and the packet is a fresh unfragmented one with DF clear.
        let Ok(frags) = fragment(pkt, mtu) else { return };
        for f in frags {
            ctx.send_raw(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::prelude::{Resolver, ResolverConfig, TrustAnchors};
    use dns::stub::lookup_once;

    const NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 77);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);

    fn build(fragments: Option<u16>, validating: bool) -> Simulator {
        let zone: Name = "adtest.example".parse().unwrap();
        let key = ZoneKey(0x5EED);
        let mut sim = Simulator::with_topology(
            1,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(5))),
        );
        sim.add_host(NS, OsProfile::linux(), Box::new(FragmentingNs::new(zone.clone(), key)))
            .unwrap();
        let mut profile = OsProfile::linux();
        profile.fragments = fragments;
        let validation = validating.then(|| {
            let mut anchors = TrustAnchors::new();
            anchors.add(zone.clone(), key);
            anchors
        });
        let config = ResolverConfig { validation, ..ResolverConfig::default() };
        sim.add_host(RESOLVER, profile, Box::new(Resolver::new(config, vec![(zone, vec![NS])])))
            .unwrap();
        sim
    }

    #[test]
    fn baseline_always_resolves() {
        let mut sim = build(Some(0), false);
        let addrs = lookup_once(
            &mut sim,
            "10.0.0.1".parse().unwrap(),
            RESOLVER,
            &"t1.baseline.adtest.example".parse().unwrap(),
        );
        assert_eq!(addrs.len(), 1);
    }

    #[test]
    fn tiny_fragments_accepted_by_permissive_resolver() {
        let mut sim = build(Some(0), false);
        let addrs = lookup_once(
            &mut sim,
            "10.0.0.1".parse().unwrap(),
            RESOLVER,
            &"t2.ftiny.adtest.example".parse().unwrap(),
        );
        assert_eq!(addrs.len(), 1, "68-byte fragments must reassemble");
    }

    #[test]
    fn tiny_fragments_filtered_by_google_style_resolver() {
        let mut sim = build(Some(1000), false);
        let tiny = lookup_once(
            &mut sim,
            "10.0.0.1".parse().unwrap(),
            RESOLVER,
            &"t3.ftiny.adtest.example".parse().unwrap(),
        );
        assert!(tiny.is_empty(), "tiny fragments must be dropped");
        let big = lookup_once(
            &mut sim,
            "10.0.0.2".parse().unwrap(),
            RESOLVER,
            &"t3.fbig.adtest.example".parse().unwrap(),
        );
        assert_eq!(big.len(), 1, "big fragments pass the filter");
    }

    #[test]
    fn sig_tests_distinguish_validators() {
        // Validating resolver: sigright loads, sigfail does not.
        let mut sim = build(Some(0), true);
        let right = lookup_once(
            &mut sim,
            "10.0.0.1".parse().unwrap(),
            RESOLVER,
            &"sigright.adtest.example".parse().unwrap(),
        );
        assert_eq!(right.len(), 1);
        let fail = lookup_once(
            &mut sim,
            "10.0.0.2".parse().unwrap(),
            RESOLVER,
            &"sigfail.adtest.example".parse().unwrap(),
        );
        assert!(fail.is_empty(), "bad signature must SERVFAIL on a validator");
        // Non-validating resolver loads both.
        let mut sim = build(Some(0), false);
        let fail = lookup_once(
            &mut sim,
            "10.0.0.3".parse().unwrap(),
            RESOLVER,
            &"sigfail.adtest.example".parse().unwrap(),
        );
        assert_eq!(fail.len(), 1);
    }
}
