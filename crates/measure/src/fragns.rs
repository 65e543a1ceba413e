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
//!
//! A resolver that drops the fragments retries the same question, so the
//! server keeps its last encoded reply and answers a repeat with a copy
//! under the new ID; only the fragmentation runs again, for the new IPID.

use std::net::Ipv4Addr;

use bytes::{Bytes, BytesMut};
use dns::auth::DNS_PORT;
use dns::dnssec::{make_rrsig, ZoneKey};
use dns::message::{Message, MessageView, Question, Rcode};
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
    /// The last reply built, for a repeated query.
    last: Option<LastReply>,
}

/// An encoded reply, keyed on all of the query it depends on besides the
/// ID: the question section and the RD bit ([`MessageView::response`]
/// copies nothing else, and the answers follow the first question).
#[derive(Debug)]
struct LastReply {
    questions: Vec<Question>,
    rd: bool,
    wire: Bytes,
    /// The fragment size the question's kind asks for.
    mtu: u16,
}

impl FragmentingNs {
    /// Creates the server authoritative for `zone`.
    pub fn new(zone: Name, key: ZoneKey) -> Self {
        FragmentingNs { zone, key, ipid: 1, queries: 0, last: None }
    }

    /// Classifies a query name: returns the behaviour label (second-level
    /// label under the zone, or the first label for `sigfail`/`sigright`).
    fn kind_of<'n>(&self, qname: &'n Name) -> Option<&'n str> {
        if !qname.is_subdomain_of(&self.zone) {
            return None;
        }
        let extra = qname.label_count() - self.zone.label_count();
        match extra {
            1 => qname.labels().next(), // sigfail / sigright
            2 => qname.labels().nth(1), // T.<kind>
            _ => None,
        }
    }

    /// The encoded reply to the checked `query` and the fragment size for
    /// it, if the query names a kind: the last reply with `query`'s ID
    /// written in when the question section and RD bit repeat, else a
    /// fresh build (kept for the next query).
    fn reply(&mut self, query: &MessageView<'_>) -> Option<(Bytes, u16)> {
        let header = query.header();
        let repeat = |last: &&LastReply| {
            last.rd == header.rd && query.questions().eq(last.questions.iter().cloned())
        };
        if let Some(last) = self.last.as_ref().filter(repeat) {
            let mut wire = BytesMut::with_capacity(last.wire.len());
            wire.extend_from_slice(&last.wire);
            wire[..2].copy_from_slice(&header.id.to_be_bytes());
            let (wire, mtu) = (wire.freeze(), last.mtu);
            if cfg!(debug_assertions) {
                let fresh = self.fresh_reply(query).map(|(fresh, _)| fresh);
                assert_eq!(fresh.as_ref(), Some(&wire), "reused reply differs from a fresh build");
            }
            return Some((wire, mtu));
        }
        let (wire, mtu) = self.fresh_reply(query)?;
        let questions = query.questions().collect();
        self.last = Some(LastReply { questions, rd: header.rd, wire: wire.clone(), mtu });
        Some((wire, mtu))
    }

    /// Builds and encodes the reply to `query`, with its fragment size.
    fn fresh_reply(&self, query: &MessageView<'_>) -> Option<(Bytes, u16)> {
        let q = query.questions().next()?;
        let kind = self.kind_of(&q.name)?;
        let wire = self.build_answer(query, &q, kind).encode().ok()?;
        let mtu = SIZES.iter().find(|(k, _)| *k == kind).map_or(1500, |(_, mtu)| *mtu);
        Some((wire, mtu))
    }

    fn build_answer(&self, query: &MessageView<'_>, q: &Question, kind: &str) -> Message {
        let mut resp = query.response();
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
        resp
    }
}

impl Host for FragmentingNs {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = MessageView::new(&d.payload) else { return };
        if query.header().qr {
            return;
        }
        let Some((dns_bytes, mtu)) = self.reply(&query) else { return };
        self.queries += 1;
        let Ok(udp) = UdpDatagram::new(DNS_PORT, d.src_port, dns_bytes).encode(ctx.addr(), d.src)
        else {
            return;
        };
        self.ipid = self.ipid.wrapping_add(1);
        let pkt = Ipv4Packet::udp(ctx.addr(), d.src, self.ipid, udp);
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

    const ASKER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Sends its queries to the server one second apart, each from its own
    /// source port, and keeps the DNS bytes of every reassembled reply.
    struct Asker {
        queries: Vec<(u16, Message)>,
        replies: Vec<(u16, Bytes)>,
    }

    impl Host for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.queries.len() {
                ctx.set_timer(SimDuration::from_secs(i as u64), i as u64);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            let (port, query) = &self.queries[token as usize];
            ctx.send_udp(NS, *port, DNS_PORT, query.encode().unwrap());
        }

        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
            self.replies.push((d.dst_port, d.payload.clone()));
        }
    }

    /// The replies one server gives to `queries`, sent in turn.
    fn replies_to(queries: &[(u16, Message)]) -> Vec<(u16, Bytes)> {
        let zone: Name = "adtest.example".parse().unwrap();
        let mut sim = Simulator::with_topology(
            1,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(5))),
        );
        sim.add_host(NS, OsProfile::linux(), Box::new(FragmentingNs::new(zone, ZoneKey(0x5EED))))
            .unwrap();
        let asker = Asker { queries: queries.to_vec(), replies: Vec::new() };
        sim.add_host(ASKER, OsProfile::linux(), Box::new(asker)).unwrap();
        sim.run_for(SimDuration::from_secs(queries.len() as u64 + 1));
        sim.host::<Asker>(ASKER).unwrap().replies.clone()
    }

    fn query(id: u16, name: &str, rd: bool) -> Message {
        Message::query(id, name.parse().unwrap(), RecordType::A, rd)
    }

    /// A repeated query — new ID, new source port — gets exactly the
    /// bytes a fresh server builds for it, as do a flipped RD bit and a
    /// different name after it.
    #[test]
    fn repeated_queries_get_the_bytes_of_a_fresh_build() {
        let name = "t1.fsmall.adtest.example";
        let queries = [
            (5000, query(1, name, true)),
            (5001, query(2, name, true)),
            (5002, query(3, name, false)),
            (5003, query(4, "t2.fsmall.adtest.example", false)),
            (5004, query(5, "t2.fsmall.adtest.example", false)),
        ];
        let replies = replies_to(&queries);
        assert_eq!(replies.len(), queries.len());
        for (q, reply) in queries.iter().zip(&replies) {
            assert_eq!(replies_to(std::slice::from_ref(q)), std::slice::from_ref(reply));
            assert_eq!(Message::decode(&reply.1).unwrap().header.id, q.1.header.id);
        }
    }

    /// The server keeps its reply across a repeat and builds anew for a
    /// flipped RD bit or a different name.
    #[test]
    fn only_a_repeated_question_and_rd_bit_reuse_the_reply() {
        let mut ns = FragmentingNs::new("adtest.example".parse().unwrap(), ZoneKey(0x5EED));
        let mut kept = |query: Message| {
            let wire = query.encode().unwrap();
            let (wire, mtu) = ns.reply(&MessageView::new(&wire).unwrap()).unwrap();
            assert_eq!(&wire[..2], query.header.id.to_be_bytes());
            assert_eq!(mtu, 296);
            ns.last.as_ref().unwrap().wire.as_ptr()
        };
        let name = "t1.fsmall.adtest.example";
        let first = kept(query(1, name, true));
        assert_eq!(kept(query(2, name, true)), first, "a repeat reuses the reply");
        let flipped = kept(query(3, name, false));
        assert_ne!(flipped, first, "a flipped RD bit rebuilds");
        assert_ne!(
            kept(query(4, "t2.fsmall.adtest.example", false)),
            flipped,
            "a new name rebuilds"
        );
    }
}
