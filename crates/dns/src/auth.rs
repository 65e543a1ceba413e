//! The authoritative nameserver host.
//!
//! Serves one or more [`Zone`]s over UDP port 53 through the simulated
//! network. Combined with an [`netsim::os::OsProfile`] that honours ICMP
//! fragmentation-needed and uses sequential IPIDs, this is the paper's
//! "vulnerable nameserver": its large responses fragment on demand and the
//! IPIDs of the fragments are predictable.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use netsim::prelude::*;
use rand::seq::index::sample_into;
use rand::Rng;

use crate::dnssec::make_rrsig;
use crate::error::DnsError;
use crate::message::{Header, Message, MessageView, Question, Rcode};
use crate::name::Name;
use crate::record::{Record, RecordType};
use crate::zone::{AnswerPolicy, Zone};

/// The well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// Counters exposed by an [`AuthServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Queries received.
    pub queries: u64,
    /// Responses sent.
    pub responses: u64,
    /// Queries refused (no matching zone).
    pub refused: u64,
}

/// An authoritative nameserver serving a set of zones.
#[derive(Debug)]
pub struct AuthServer {
    /// The zones, shared with every server built from the same set (a
    /// nameserver fleet, or every world a scan builds).
    zones: Arc<[Zone]>,
    include_authority: bool,
    /// Whole-reply templates, from this server's own full encodes (see
    /// [`AuthServer::encode_reply`]).
    templates: Vec<Template>,
    /// The answer indices of the reply being built, reused across
    /// queries.
    picks: Vec<usize>,
    /// Counters.
    pub stats: AuthStats,
}

/// One full encode, reusable by replies to the same question from the
/// same zone with as many answers: they differ from it only in the ID,
/// the flags and each answer's TTL and address.
#[derive(Debug)]
struct Template {
    zone: usize,
    question: Question,
    answers: usize,
    wire: Bytes,
    /// Offset of the answer section in `wire`.
    answers_at: usize,
}

/// Cached templates per server: a pool nameserver sees a handful of
/// rotating names, and a server asked for many names stops caching.
const MAX_TEMPLATES: usize = 8;

/// An A answer owned by the question name: `c00c`, type, class, TTL,
/// RDLENGTH 4, address.
const A_ANSWER_LEN: usize = 16;

impl AuthServer {
    /// Creates a server for `zones`: a `Vec` or array it takes over, or a
    /// shared set it serves without a copy. Responses to A queries include
    /// the zone's NS records and glue in the authority/additional
    /// sections.
    pub fn new(zones: impl Into<Arc<[Zone]>>) -> Self {
        AuthServer {
            zones: zones.into(),
            include_authority: true,
            templates: Vec::new(),
            picks: Vec::new(),
            stats: AuthStats::default(),
        }
    }

    /// Disables the authority/additional sections (small responses that
    /// never fragment — a hardened configuration for the ablation study).
    pub fn without_authority_sections(mut self) -> Self {
        self.include_authority = false;
        self
    }

    /// Builds the response for a query, drawing random pool subsets where
    /// the zone's policy asks for it.
    pub fn answer<R: Rng + ?Sized>(&mut self, query: &Message, rng: &mut R) -> Message {
        let (mut resp, tail_zone) = self.respond(query, rng);
        if let Some(zone) = tail_zone {
            self.fill(&mut resp, zone);
        }
        resp
    }

    /// The encoded response to `query`: the bytes [`Host::on_datagram`]
    /// sends, equal to `answer(query, rng).encode()` after the same draws.
    fn reply<R: Rng + ?Sized>(&mut self, query: &Message, rng: &mut R) -> Result<Bytes, DnsError> {
        let (resp, tail_zone) = self.respond(query, rng);
        match tail_zone {
            Some(zone) => self.encode_reply(resp, zone),
            None => resp.encode(),
        }
    }

    /// The policy step: the header, question and answer section of the
    /// response (every RNG draw happens here), and the zone whose NS
    /// records and glue belong in its authority and additional sections,
    /// if any.
    fn respond<R: Rng + ?Sized>(
        &mut self,
        query: &Message,
        rng: &mut R,
    ) -> (Message, Option<usize>) {
        self.stats.queries += 1;
        let mut resp = Message::response_to(query);
        resp.header.ra = false;
        let Some(q) = query.question().cloned() else {
            resp.header.rcode = Rcode::FormErr;
            return (resp, None);
        };
        let Some(zone_idx) = self.zone_of(&q.name) else {
            self.stats.refused += 1;
            resp.header.rcode = Rcode::Refused;
            return (resp, None);
        };
        resp.header.aa = true;
        let zone = &self.zones[zone_idx];
        // Synthesise rotated/wildcard A answers, or fall back to statics.
        let answers = match (&zone.policy, q.qtype) {
            (AnswerPolicy::Rotate { names, addrs, per_response, ttl }, RecordType::A)
                if names.contains(&q.name) && !addrs.is_empty() =>
            {
                let n = (*per_response).min(addrs.len());
                sample_into(rng, addrs.len(), n, &mut self.picks);
                self.picks.iter().map(|&i| Record::a(q.name.clone(), *ttl, addrs[i])).collect()
            }
            (AnswerPolicy::Wildcard { addrs, per_response, ttl }, RecordType::A)
                if !addrs.is_empty() =>
            {
                let n = (*per_response).min(addrs.len());
                addrs[..n].iter().map(|&addr| Record::a(q.name.clone(), *ttl, addr)).collect()
            }
            _ => zone.lookup(&q.name, q.qtype).to_vec(),
        };
        if answers.is_empty() && !zone.name_exists(&q.name) {
            resp.header.rcode = Rcode::NxDomain;
            return (resp, None);
        }
        resp.answers = answers;
        if let Some(key) = zone.key {
            if !resp.answers.is_empty() {
                let sig = make_rrsig(
                    key,
                    &zone.origin,
                    &q.name,
                    q.qtype,
                    resp.answers[0].ttl,
                    &resp.answers,
                );
                resp.answers.push(sig);
            }
        }
        let with_tail = self.include_authority && q.qtype != RecordType::Ns;
        (resp, with_tail.then_some(zone_idx))
    }

    /// The zone `name` belongs to: the one with the longest origin.
    fn zone_of(&self, name: &Name) -> Option<usize> {
        self.zones
            .iter()
            .enumerate()
            .filter(|(_, z)| name.is_subdomain_of(&z.origin))
            .max_by_key(|(_, z)| z.origin.label_count())
            .map(|(i, _)| i)
    }

    /// The section fill: `zone`'s NS records and glue.
    fn fill(&self, resp: &mut Message, zone: usize) {
        let zone = &self.zones[zone];
        resp.authorities = zone.ns_records().to_vec();
        resp.additionals = zone.glue_records().to_vec();
    }

    /// Encodes `resp` (header, question and answers, from
    /// [`AuthServer::respond`]) with `zone`'s authority and additional
    /// sections, caching the encode as a [`Template`] when the answers
    /// add no compression target: one question, and every answer an A
    /// record owned by the question name (each compresses to a pointer at
    /// offset 12) in an unsigned zone. The encoder's output then depends
    /// only on the header, the question and the answer count, bar the ID
    /// and flags (bytes 0..4) and each answer's TTL and address, which
    /// [`AuthServer::patched_reply`] writes in for later queries.
    fn encode_reply(&mut self, mut resp: Message, zone: usize) -> Result<Bytes, DnsError> {
        let patchable = matches!(resp.questions.as_slice(), [q]
            if self.zones[zone].key.is_none()
                && resp.answers.iter().all(|r| r.as_a().is_some() && r.name == q.name));
        self.fill(&mut resp, zone);
        if !patchable {
            return resp.encode();
        }
        let (wire, answers_at) = resp.encode_split()?;
        let (question, answers) = (&resp.questions[0], resp.answers.len());
        let cached = self
            .templates
            .iter()
            .any(|t| t.zone == zone && t.answers == answers && t.question == *question);
        if !cached && self.templates.len() < MAX_TEMPLATES {
            let (question, wire) = (question.clone(), wire.clone());
            self.templates.push(Template { zone, question, answers, wire, answers_at });
        }
        Ok(wire)
    }

    /// The reply [`Host::on_datagram`] sends to the query bytes `query`,
    /// if any: a template hit is patched straight from the bytes
    /// ([`AuthServer::patched_reply`]); anything else decodes in full and
    /// takes [`AuthServer::reply`]. Malformed bytes and responses get no
    /// reply.
    fn wire_reply<R: Rng + ?Sized>(&mut self, query: &[u8], rng: &mut R) -> Option<Bytes> {
        if let Some(wire) = self.patched_reply(query, rng) {
            return Some(wire);
        }
        let query = Message::decode(query).ok()?;
        if query.header.qr {
            return None; // not a query
        }
        self.reply(&query, rng).ok()
    }

    /// Answers a template hit from the query bytes alone: equal to
    /// `reply` of the decoded query, after the same draws, without
    /// building a message. It reads the one question in place, selects
    /// the zone, the answers [`AuthServer::respond`] would give and the
    /// [`Template`], checks the whole query with the decoder's walk, then
    /// draws the answers and patches the template. A template exists only
    /// for a reply [`AuthServer::encode_reply`] found patchable, and the
    /// zones never change, so finding one proves the reply is patchable.
    ///
    /// `None` for anything else — not exactly one question, a response,
    /// malformed bytes, a reply that is not cached as a template — and
    /// then no draw or counter has moved.
    fn patched_reply<R: Rng + ?Sized>(&mut self, query: &[u8], rng: &mut R) -> Option<Bytes> {
        let head = query.first_chunk::<12>()?;
        let (id, flags, qdcount) = (&head[..2], head[2], &head[4..6]);
        if flags & 0x80 != 0 || qdcount != [0, 1] {
            return None;
        }
        let (Question { name, qtype }, _) = Question::read_at(query, 12)?;
        let zone_idx = self.zone_of(&name)?;
        let zone = &self.zones[zone_idx];
        // The answers `respond` gives.
        let (source, n) = match (&zone.policy, qtype) {
            (AnswerPolicy::Rotate { names, addrs, per_response, ttl }, RecordType::A)
                if names.contains(&name) && !addrs.is_empty() =>
            {
                (Answers::Drawn(addrs, *ttl), (*per_response).min(addrs.len()))
            }
            (AnswerPolicy::Wildcard { addrs, per_response, ttl }, RecordType::A)
                if !addrs.is_empty() =>
            {
                (Answers::Prefix(addrs, *ttl), (*per_response).min(addrs.len()))
            }
            _ => {
                let records = zone.lookup(&name, qtype);
                (Answers::Static(records), records.len())
            }
        };
        let template = self.templates.iter().find(|t| {
            t.zone == zone_idx
                && t.answers == n
                && t.question.qtype == qtype
                && t.question.name == name
        })?;
        MessageView::new(query).ok()?;
        self.stats.queries += 1;
        if let Answers::Drawn(addrs, _) = source {
            sample_into(rng, addrs.len(), n, &mut self.picks);
        }
        let answer = |k: usize| match source {
            Answers::Drawn(addrs, ttl) => (ttl, addrs[self.picks[k]]),
            Answers::Prefix(addrs, ttl) => (ttl, addrs[k]),
            Answers::Static(records) => {
                (records[k].ttl, records[k].as_a().unwrap_or(Ipv4Addr::UNSPECIFIED))
            }
        };
        let header = Header {
            id: u16::from_be_bytes([id[0], id[1]]),
            qr: true,
            aa: true,
            rd: flags & 0x01 != 0,
            ..Header::default()
        };
        let wire = template.patch(header.id_and_flags(), (0..n).map(answer));
        if cfg!(debug_assertions) {
            let mut resp = Message::response_to(&Message::decode(query).expect("checked query"));
            resp.header.aa = true;
            resp.answers =
                (0..n).map(answer).map(|(ttl, a)| Record::a(name.clone(), ttl, a)).collect();
            self.fill(&mut resp, zone_idx);
            assert_eq!(resp.encode().as_ref(), Ok(&wire), "patch differs from a full encode");
        }
        Some(wire)
    }
}

/// Where the answers of a patched reply come from.
#[derive(Clone, Copy)]
enum Answers<'z> {
    /// A rotation: the addresses at the drawn [`AuthServer::picks`], with
    /// the TTL.
    Drawn(&'z [Ipv4Addr], u32),
    /// A wildcard: the first addresses, with the TTL.
    Prefix(&'z [Ipv4Addr], u32),
    /// Static A records owned by the question name.
    Static(&'z [Record]),
}

impl Template {
    /// This template with the ID and flags `id_and_flags` and each
    /// answer's TTL and address from `answers`, in order.
    fn patch(
        &self,
        id_and_flags: [u8; 4],
        answers: impl Iterator<Item = (u32, Ipv4Addr)>,
    ) -> Bytes {
        let mut wire = BytesMut::with_capacity(self.wire.len());
        wire.extend_from_slice(&self.wire);
        wire[..4].copy_from_slice(&id_and_flags);
        let slots = wire[self.answers_at..].chunks_exact_mut(A_ANSWER_LEN);
        for (slot, (ttl, addr)) in slots.zip(answers) {
            slot[6..10].copy_from_slice(&ttl.to_be_bytes());
            slot[12..].copy_from_slice(&addr.octets());
        }
        wire.freeze()
    }
}

impl Host for AuthServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        if let Some(wire) = self.wire_reply(&d.payload, ctx.rng()) {
            self.stats.responses += 1;
            ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
        }
    }
}

/// Returns the addresses of the nameservers for a zone laid out by
/// [`crate::zone::pool_zone`].
pub fn ns_addrs(zone: &Zone) -> Vec<Ipv4Addr> {
    zone.glue_records().iter().filter_map(Record::as_a).collect()
}

/// Registers one [`AuthServer`] host per glue address of each zone in
/// `zones` in `sim`, every one serving the same shared set (each
/// nameserver still rotates independently, like the real pool NS fleet).
/// Returns the nameserver addresses, in zone and glue order, for use as
/// resolver hints.
///
/// # Panics
///
/// Panics if any glue address is already occupied.
pub fn spawn_zone_nameservers(
    sim: &mut netsim::sim::Simulator,
    zones: impl Into<Arc<[Zone]>>,
    profile: OsProfile,
) -> Vec<Ipv4Addr> {
    let zones = zones.into();
    let addrs: Vec<Ipv4Addr> = zones.iter().flat_map(ns_addrs).collect();
    for &addr in &addrs {
        sim.add_host(addr, profile.clone(), Box::new(AuthServer::new(Arc::clone(&zones))))
            .expect("glue address free");
    }
    addrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{malicious_pool_zone, pool_zone, POOL_A_TTL};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn servers(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect()
    }

    fn query(name: &str) -> Message {
        Message::query(0x42, name.parse().unwrap(), RecordType::A, false)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    #[test]
    fn pool_answers_rotate_across_queries() {
        let zone = pool_zone(servers(32), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let mut rng = rng();
        let r1 = srv.answer(&query("pool.ntp.org"), &mut rng);
        #[allow(
            clippy::disallowed_types,
            reason = "a membership count: the set's iteration order is never read"
        )]
        let mut seen: std::collections::HashSet<Ipv4Addr> = r1.answer_addrs().into_iter().collect();
        assert_eq!(seen.len(), 4);
        for _ in 0..10 {
            seen.extend(srv.answer(&query("pool.ntp.org"), &mut rng).answer_addrs());
        }
        assert!(seen.len() > 16, "random selection must surface new servers: {}", seen.len());
        assert!(r1.answers.iter().all(|r| r.ttl == POOL_A_TTL));
    }

    #[test]
    fn country_zone_names_also_rotate() {
        let zone = pool_zone(servers(8), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("0.pool.ntp.org"), &mut rng());
        assert_eq!(r.answer_addrs().len(), 4);
        assert_eq!(r.header.rcode, Rcode::NoError);
    }

    #[test]
    fn authority_and_glue_attached() {
        let zone = pool_zone(servers(8), 23, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("pool.ntp.org"), &mut rng());
        assert_eq!(r.authorities.len(), 23);
        assert_eq!(r.additionals.len(), 23);
        // The wire size must exceed the 548-byte forced MTU so that the
        // response fragments — the attack's precondition.
        assert!(r.encode().unwrap().len() > 548, "len = {}", r.encode().unwrap().len());
    }

    #[test]
    fn wildcard_zone_answers_any_name_with_many_addrs() {
        let addrs: Vec<Ipv4Addr> =
            (0..89).map(|i| Ipv4Addr::new(6, 6, (i / 250) as u8, (i % 250) as u8)).collect();
        let mut srv = AuthServer::new(vec![malicious_pool_zone(addrs, 89, 86_400 * 2)]);
        let r = srv.answer(&query("pool.ntp.org"), &mut rng());
        assert_eq!(r.answer_addrs().len(), 89);
        assert!(r.answers.iter().all(|rec| rec.ttl == 86_400 * 2));
        // Must fit a single unfragmented 1500-byte response (paper §VI-C).
        assert!(r.encode().unwrap().len() + 28 <= 1500, "len = {}", r.encode().unwrap().len());
    }

    #[test]
    fn unknown_zone_refused() {
        let zone = pool_zone(servers(4), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("example.com"), &mut rng());
        assert_eq!(r.header.rcode, Rcode::Refused);
        assert_eq!(srv.stats.refused, 1);
    }

    #[test]
    fn nxdomain_for_missing_name_in_zone() {
        let zone = pool_zone(servers(4), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("nonexistent.pool.ntp.org"), &mut rng());
        assert_eq!(r.header.rcode, Rcode::NxDomain);
    }

    /// What `on_datagram` must send for the query bytes `wire`: the full
    /// encode of `answer` to the decoded query, or nothing for bytes that
    /// do not decode to a query.
    fn full_reply(server: &mut AuthServer, wire: &[u8], rng: &mut SmallRng) -> Option<Bytes> {
        let query = Message::decode(wire).ok().filter(|q| !q.header.qr)?;
        Some(server.answer(&query, rng).encode().unwrap())
    }

    /// Hands `wire` to `sent_by` as `on_datagram` does and to its twin
    /// `answered_by` through [`full_reply`], under equal RNG seeds: the
    /// bytes, the RNG state afterwards and the counters must agree.
    fn assert_same_reply(
        label: &str,
        (sent_by, answered_by): (&mut AuthServer, &mut AuthServer),
        wire: &[u8],
        seed: u64,
    ) {
        use rand::RngExt;
        let (mut rng_a, mut rng_b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let sent = sent_by.wire_reply(wire, &mut rng_a);
        let full = full_reply(answered_by, wire, &mut rng_b);
        assert_eq!(sent, full, "{label}");
        assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>(), "{label}: RNG state");
        assert_eq!(sent_by.stats, answered_by.stats, "{label}: counters");
    }

    /// `name` as an encoded query, with its question name upper-cased on
    /// the wire if `upper`.
    fn query_wire(id: u16, name: &str, qtype: RecordType, rd: bool, upper: bool) -> Vec<u8> {
        let mut wire =
            Message::query(id, name.parse().unwrap(), qtype, rd).encode().unwrap().to_vec();
        let question_end = wire.len() - 4;
        if upper {
            // Label lengths stay below 0x40, so only letters change.
            wire[12..question_end].make_ascii_uppercase();
        }
        wire
    }

    /// Asks `server` and a twin each query three times (so patched
    /// replies follow the encode that filled the cache), as A, NS, AAAA
    /// and TXT, with RD clear and set, in lower and upper case, and with a
    /// fresh ID each time.
    fn assert_replies_match_answers(label: &str, server: impl Fn() -> AuthServer, names: &[&str]) {
        let (mut sent_by, mut answered_by) = (server(), server());
        let qtypes = [RecordType::A, RecordType::Ns, RecordType::Unknown(28), RecordType::Txt];
        let mut seed = 0;
        for round in 0..3u16 {
            for name in names {
                for qtype in qtypes {
                    for (rd, upper) in [(false, false), (true, false), (false, true), (true, true)]
                    {
                        seed += 1;
                        let id = (seed as u16).wrapping_mul(0x9E37);
                        let wire = query_wire(id, name, qtype, rd, upper);
                        let what =
                            format!("{label}: {name} {qtype} rd={rd} upper={upper} round {round}");
                        assert_same_reply(&what, (&mut sent_by, &mut answered_by), &wire, seed);
                    }
                }
            }
        }
    }

    fn pool() -> Zone {
        pool_zone(servers(8), 23, Ipv4Addr::new(198, 51, 100, 1))
    }

    fn attacker() -> AuthServer {
        AuthServer::new(vec![malicious_pool_zone(servers(89), 89, 86_400 * 2)])
    }

    /// What `on_datagram` sends — patched from the query bytes, patched
    /// from a decoded query, or encoded in full — equals the full encode
    /// of `answer` and leaves the RNG in the same state: rotated,
    /// wildcard and static answers, signed and bare zones.
    #[test]
    fn replies_equal_full_encodes_of_answer() {
        use crate::dnssec::ZoneKey;
        let names = [
            "pool.ntp.org",
            "0.pool.ntp.org",
            "1.pool.ntp.org",
            "2.pool.ntp.org",
            "3.pool.ntp.org",
            "ns1.pool.ntp.org",
            "nonexistent.pool.ntp.org",
            "example.com",
        ];
        assert_replies_match_answers("pool", || AuthServer::new(vec![pool()]), &names);
        let signed = || AuthServer::new(vec![pool().with_key(ZoneKey(7))]);
        assert_replies_match_answers("signed", signed, &names);
        let bare = || AuthServer::new(vec![pool()]).without_authority_sections();
        assert_replies_match_answers("bare", bare, &names);
        // More names than the template cache holds.
        let names: Vec<String> =
            (0..2 * MAX_TEMPLATES).map(|i| format!("{i}.pool.ntp.org")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_replies_match_answers("attacker", attacker, &names);
    }

    /// Queries the question read in place must leave to the full decode —
    /// no question, two questions, a response, and every truncation and
    /// single-byte garble of a query whose template is cached — get what
    /// the full decode gives them: the same reply, or none.
    #[test]
    fn odd_and_malformed_queries_match_the_full_decode() {
        let twins = [
            ("pool", AuthServer::new(vec![pool()]), AuthServer::new(vec![pool()])),
            ("attacker", attacker(), attacker()),
        ];
        for (label, mut sent_by, mut answered_by) in twins {
            let servers = (&mut sent_by, &mut answered_by);
            let hit = query_wire(0x1234, "pool.ntp.org", RecordType::A, true, false);
            assert_same_reply(label, (servers.0, servers.1), &hit, 1);
            let pool: Name = "pool.ntp.org".parse().unwrap();
            let question = Question { name: pool.clone(), qtype: RecordType::A };
            let mut odd = Vec::new();
            for questions in [vec![], vec![question.clone(), question]] {
                let msg =
                    Message { questions, ..Message::query(7, pool.clone(), RecordType::A, true) };
                odd.push(msg.encode().unwrap().to_vec());
            }
            let mut response = hit.clone();
            response[2] |= 0x80;
            odd.push(response);
            for (i, wire) in odd.iter().enumerate() {
                assert_same_reply(&format!("{label}: odd {i}"), (servers.0, servers.1), wire, 2);
            }
            for cut in 0..hit.len() {
                let what = format!("{label}: cut at {cut}");
                assert_same_reply(&what, (servers.0, servers.1), &hit[..cut], 3);
            }
            for at in 0..hit.len() {
                for value in [0x00, 0xFF, 0xC0, 0x3F, 0x01, hit[at] ^ 0x20] {
                    let mut garbled = hit.clone();
                    garbled[at] = value;
                    let what = format!("{label}: byte {at} set to {value:#04x}");
                    assert_same_reply(&what, (servers.0, servers.1), &garbled, 4);
                }
            }
            // A trailing byte after the question: the walk accepts it.
            let mut long = hit.clone();
            long.push(0);
            assert_same_reply(&format!("{label}: trailing byte"), (servers.0, servers.1), &long, 5);
        }
    }

    /// Once a template is cached, every reply it fits is answered from
    /// the query bytes — rotated, wildcard and static A sets and empty
    /// answers — and nothing else is.
    #[test]
    fn template_hits_are_patched_from_the_query_bytes() {
        use crate::dnssec::ZoneKey;
        let mut rng = rng();
        let patched_after_one_reply = |srv: &mut AuthServer, wire: &[u8], rng: &mut SmallRng| {
            assert!(srv.patched_reply(wire, rng).is_none(), "nothing is cached yet");
            assert!(srv.wire_reply(wire, rng).is_some());
            srv.patched_reply(wire, rng).is_some()
        };
        for (name, qtype) in [
            ("POOL.ntp.org", RecordType::A),
            ("ns1.pool.ntp.org", RecordType::A),
            ("pool.ntp.org", RecordType::Txt),
        ] {
            let wire = query_wire(1, name, qtype, false, false);
            let mut srv = AuthServer::new(vec![pool()]);
            assert!(patched_after_one_reply(&mut srv, &wire, &mut rng), "{name} {qtype}");
        }
        let any_a = query_wire(3, "x.pool.ntp.org", RecordType::A, true, true);
        assert!(patched_after_one_reply(&mut attacker(), &any_a, &mut rng));
        let pool_a = query_wire(1, "pool.ntp.org", RecordType::A, false, false);
        let mut signed = AuthServer::new(vec![pool().with_key(ZoneKey(7))]);
        assert!(!patched_after_one_reply(&mut signed, &pool_a, &mut rng));
        let pool_ns = query_wire(2, "pool.ntp.org", RecordType::Ns, false, false);
        assert!(!patched_after_one_reply(&mut AuthServer::new(vec![pool()]), &pool_ns, &mut rng));
    }

    /// Only the unsigned pool server with authority sections patches: it
    /// caches one template per (question, answer count) it has answered.
    #[test]
    fn only_plain_a_answers_cache_a_tail() {
        use crate::dnssec::ZoneKey;
        let pool = || pool_zone(servers(8), 23, Ipv4Addr::new(198, 51, 100, 1));
        let ns_query = Message::query(1, "pool.ntp.org".parse().unwrap(), RecordType::Ns, false);
        let templates_after = |mut srv: AuthServer| {
            for query in [query("pool.ntp.org"), query("pool.ntp.org"), ns_query.clone()] {
                srv.reply(&query, &mut rng()).unwrap();
            }
            srv.templates.len()
        };
        assert_eq!(templates_after(AuthServer::new(vec![pool()])), 1);
        assert_eq!(templates_after(AuthServer::new(vec![pool().with_key(ZoneKey(7))])), 0);
        assert_eq!(templates_after(AuthServer::new(vec![pool()]).without_authority_sections()), 0);
    }

    #[test]
    fn signed_zone_includes_rrsig() {
        use crate::dnssec::ZoneKey;
        let zone = pool_zone(servers(4), 4, Ipv4Addr::new(198, 51, 100, 1)).with_key(ZoneKey(7));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("pool.ntp.org"), &mut rng());
        assert!(r.answers.iter().any(|rec| rec.rtype() == RecordType::Rrsig));
    }
}
