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
    /// the zone's policy asks for it: what [`Host::on_datagram`] sends for
    /// the query's bytes, as a message.
    pub fn answer<R: Rng + ?Sized>(&mut self, query: &Message, rng: &mut R) -> Message {
        let mut resp = Message::response_to(query);
        let selected = select(&self.zones, &mut self.picks, &mut self.stats, query.question(), rng);
        if let Some(zone) = self.complete(&mut resp, selected) {
            self.fill(&mut resp, zone);
        }
        resp
    }

    /// Completes `resp`, a response echoing a query, from the selection
    /// for its first question: the rcode, the AA flag and the answer
    /// section (with an RRSIG in a signed zone). Returns the zone whose NS
    /// records and glue belong in its authority and additional sections,
    /// if any.
    fn complete(
        &self,
        resp: &mut Message,
        selected: Result<Selection<'_>, Rcode>,
    ) -> Option<usize> {
        let sel = match selected {
            Ok(sel) => sel,
            Err(rcode) => {
                resp.header.rcode = rcode;
                return None;
            }
        };
        let q = resp.questions.first()?;
        resp.header.aa = true;
        let zone = &self.zones[sel.zone];
        let answers = sel.records(&q.name, &self.picks);
        if answers.is_empty() && !zone.name_exists(&q.name) {
            resp.header.rcode = Rcode::NxDomain;
            return None;
        }
        let sig = zone
            .key
            .filter(|_| !answers.is_empty())
            .map(|key| make_rrsig(key, &zone.origin, &q.name, q.qtype, answers[0].ttl, &answers));
        let with_tail = self.include_authority && q.qtype != RecordType::Ns;
        resp.answers = answers;
        resp.answers.extend(sig);
        with_tail.then_some(sel.zone)
    }

    /// The section fill: `zone`'s NS records and glue.
    fn fill(&self, resp: &mut Message, zone: usize) {
        let zone = &self.zones[zone];
        resp.authorities = zone.ns_records().to_vec();
        resp.additionals = zone.glue_records().to_vec();
    }

    /// Encodes `resp` (completed by [`AuthServer::complete`]), with the
    /// authority and additional sections of the `tail` zone if any,
    /// caching the encode as a [`Template`] when the answers add no
    /// compression target: one question, and every answer an A record
    /// owned by the question name (each compresses to a pointer at offset
    /// 12) in an unsigned zone. The encoder's output then depends only on
    /// the header, the question and the answer count, bar the ID and flags
    /// (bytes 0..4) and each answer's TTL and address, which
    /// [`Template::patch`] writes in for later queries.
    fn encode_reply(&mut self, mut resp: Message, tail: Option<usize>) -> Result<Bytes, DnsError> {
        let Some(zone) = tail else { return resp.encode() };
        let patchable = matches!(resp.questions.as_slice(), [q]
            if self.zones[zone].key.is_none()
                && resp.answers.iter().all(|r| r.as_a().is_some() && r.name == q.name));
        self.fill(&mut resp, zone);
        if !patchable {
            return resp.encode();
        }
        let (wire, answers_at) = resp.encode_split()?;
        let (question, answers) = (&resp.questions[0], resp.answers.len());
        let cached = self.template_for(zone, answers, question).is_some();
        if !cached && self.templates.len() < MAX_TEMPLATES {
            let (question, wire) = (question.clone(), wire.clone());
            self.templates.push(Template { zone, question, answers, wire, answers_at });
        }
        Ok(wire)
    }

    /// The reply [`Host::on_datagram`] sends to the query bytes `query`,
    /// if any: equal to the encode of [`AuthServer::answer`] to the
    /// decoded query, after the same draws. The query is checked once by
    /// [`MessageView::new`] and its questions are read in place; the one
    /// selection ([`select`]) then picks the zone and the answers. A reply
    /// cached as a [`Template`] is patched from it; anything else is built
    /// as a message and encoded in full ([`AuthServer::encode_reply`]). A
    /// template exists only for a reply `encode_reply` found patchable,
    /// and the zones never change, so finding one proves the reply is
    /// patchable. Malformed bytes and responses get no reply.
    fn wire_reply<R: Rng + ?Sized>(&mut self, query: &[u8], rng: &mut R) -> Option<Bytes> {
        let view = MessageView::new(query).ok()?;
        let Header { id, qr, rd, .. } = *view.header();
        if qr {
            return None; // not a query
        }
        let mut questions = view.questions();
        let first = questions.next();
        let selected = select(&self.zones, &mut self.picks, &mut self.stats, first.as_ref(), rng);
        let header = Header { id, qr: true, rd, ..Header::default() };
        if let (Ok(sel), Some(q), 0) = (selected, &first, questions.len()) {
            if let Some(template) = self.template_for(sel.zone, sel.n, q) {
                let answers = (0..sel.n).map(|k| sel.a(k, &self.picks));
                let wire = template.patch(Header { aa: true, ..header }.id_and_flags(), answers);
                if cfg!(debug_assertions) {
                    let mut resp = view.response();
                    let tail = self.complete(&mut resp, selected);
                    let full = self.encode_reply(resp, tail);
                    assert_eq!(full.as_ref(), Ok(&wire), "patch differs from a full encode");
                }
                return Some(wire);
            }
        }
        let questions = first.into_iter().chain(questions).collect();
        let mut resp = Message { header, questions, ..Message::default() };
        let tail = self.complete(&mut resp, selected);
        self.encode_reply(resp, tail).ok()
    }

    /// The cached template of the reply from `zone` with `answers`
    /// answers to the lone question `q`, if there is one.
    fn template_for(&self, zone: usize, answers: usize, q: &Question) -> Option<&Template> {
        self.templates.iter().find(|t| t.zone == zone && t.answers == answers && t.question == *q)
    }
}

/// The zone `name` belongs to: the one with the longest origin.
fn zone_of(zones: &[Zone], name: &Name) -> Option<usize> {
    zones
        .iter()
        .enumerate()
        .filter(|(_, z)| name.is_subdomain_of(&z.origin))
        .max_by_key(|(_, z)| z.origin.label_count())
        .map(|(i, _)| i)
}

/// The one answer selection of an [`AuthServer`]: counts a query whose
/// first question is `q` (in `stats`), then picks the zone and the answers
/// its policy gives — a rotation drawn into `picks`, a wildcard's first
/// addresses, or the static records. Every RNG draw of a reply happens
/// here. `Err` is the rcode of a reply with no answer selection: FORMERR
/// for a query without a question, REFUSED for a name outside every zone.
fn select<'z, R: Rng + ?Sized>(
    zones: &'z [Zone],
    picks: &mut Vec<usize>,
    stats: &mut AuthStats,
    q: Option<&Question>,
    rng: &mut R,
) -> Result<Selection<'z>, Rcode> {
    stats.queries += 1;
    let q = q.ok_or(Rcode::FormErr)?;
    let Some(zone_idx) = zone_of(zones, &q.name) else {
        stats.refused += 1;
        return Err(Rcode::Refused);
    };
    let zone = &zones[zone_idx];
    let (answers, n) = match (&zone.policy, q.qtype) {
        (AnswerPolicy::Rotate { names, addrs, per_response, ttl }, RecordType::A)
            if names.contains(&q.name) && !addrs.is_empty() =>
        {
            let n = (*per_response).min(addrs.len());
            sample_into(rng, addrs.len(), n, picks);
            (Answers::Drawn(addrs, *ttl), n)
        }
        (AnswerPolicy::Wildcard { addrs, per_response, ttl }, RecordType::A)
            if !addrs.is_empty() =>
        {
            (Answers::Prefix(addrs, *ttl), (*per_response).min(addrs.len()))
        }
        _ => {
            let records = zone.lookup(&q.name, q.qtype);
            (Answers::Static(records), records.len())
        }
    };
    Ok(Selection { zone: zone_idx, answers, n })
}

/// The answers selected for a question ([`select`]).
#[derive(Clone, Copy)]
struct Selection<'z> {
    /// The zone the question belongs to.
    zone: usize,
    /// Where the answers come from.
    answers: Answers<'z>,
    /// How many answers there are.
    n: usize,
}

/// Where the answers of a reply come from.
#[derive(Clone, Copy)]
enum Answers<'z> {
    /// A rotation: the addresses at the drawn [`AuthServer::picks`], with
    /// the TTL.
    Drawn(&'z [Ipv4Addr], u32),
    /// A wildcard: the first addresses, with the TTL.
    Prefix(&'z [Ipv4Addr], u32),
    /// The zone's static records for the question.
    Static(&'z [Record]),
}

impl Selection<'_> {
    /// The TTL and address of answer `k`, for a reply a [`Template`]
    /// fits (so a static answer is an A record).
    fn a(&self, k: usize, picks: &[usize]) -> (u32, Ipv4Addr) {
        match self.answers {
            Answers::Drawn(addrs, ttl) => (ttl, addrs[picks[k]]),
            Answers::Prefix(addrs, ttl) => (ttl, addrs[k]),
            Answers::Static(records) => {
                (records[k].ttl, records[k].as_a().unwrap_or(Ipv4Addr::UNSPECIFIED))
            }
        }
    }

    /// The answer records, owned by `name` where the policy synthesises
    /// them.
    fn records(&self, name: &Name, picks: &[usize]) -> Vec<Record> {
        match self.answers {
            Answers::Static(records) => records.to_vec(),
            Answers::Drawn(..) | Answers::Prefix(..) => (0..self.n)
                .map(|k| {
                    let (ttl, addr) = self.a(k, picks);
                    Record::a(name.clone(), ttl, addr)
                })
                .collect(),
        }
    }
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

    /// The A addresses in `resp`'s answer section.
    fn answer_addrs(resp: &Message) -> Vec<Ipv4Addr> {
        resp.answers.iter().filter_map(Record::as_a).collect()
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
        let mut seen: std::collections::HashSet<Ipv4Addr> = answer_addrs(&r1).into_iter().collect();
        assert_eq!(seen.len(), 4);
        for _ in 0..10 {
            seen.extend(answer_addrs(&srv.answer(&query("pool.ntp.org"), &mut rng)));
        }
        assert!(seen.len() > 16, "random selection must surface new servers: {}", seen.len());
        assert!(r1.answers.iter().all(|r| r.ttl == POOL_A_TTL));
    }

    #[test]
    fn country_zone_names_also_rotate() {
        let zone = pool_zone(servers(8), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("0.pool.ntp.org"), &mut rng());
        assert_eq!(answer_addrs(&r).len(), 4);
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
        assert_eq!(answer_addrs(&r).len(), 89);
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

    /// What `on_datagram` sends — patched from a template, or built from
    /// the query read in place and encoded in full — equals the full
    /// encode of `answer` to the decoded query and leaves the RNG in the
    /// same state: rotated, wildcard and static answers, signed and bare
    /// zones.
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

    /// Odd queries — no question, two questions, a response, and every
    /// truncation and single-byte garble of a query whose template is
    /// cached — get what `answer` to the full decode gives them: the same
    /// reply, or none.
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

    /// True if `srv`'s reply to the query bytes `wire` would be patched
    /// from a cached template: the selection [`AuthServer::wire_reply`]
    /// makes, with draws and counts kept off `srv`.
    fn fits_a_template(srv: &AuthServer, wire: &[u8]) -> bool {
        let view = MessageView::new(wire).unwrap();
        let q = view.questions().next().unwrap();
        let (mut picks, mut stats) = (Vec::new(), AuthStats::default());
        let selected = select(&srv.zones, &mut picks, &mut stats, Some(&q), &mut rng());
        let fits = selected.is_ok_and(|sel| srv.template_for(sel.zone, sel.n, &q).is_some());
        view.questions().len() == 1 && fits
    }

    /// Once a template is cached, every reply it fits is answered from
    /// the query bytes by a patch — rotated, wildcard and static A sets
    /// and empty answers — and nothing else is.
    #[test]
    fn template_hits_are_patched_from_the_query_bytes() {
        use crate::dnssec::ZoneKey;
        let mut rng = rng();
        let patched_after_one_reply = |srv: &mut AuthServer, wire: &[u8], rng: &mut SmallRng| {
            assert!(!fits_a_template(srv, wire), "nothing is cached yet");
            assert!(srv.wire_reply(wire, rng).is_some());
            fits_a_template(srv, wire)
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
                srv.wire_reply(&query.encode().unwrap(), &mut rng()).unwrap();
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
