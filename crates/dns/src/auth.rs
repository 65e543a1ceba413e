//! The authoritative nameserver host.
//!
//! Serves one or more [`Zone`]s over UDP port 53 through the simulated
//! network. Combined with an [`netsim::os::OsProfile`] that honours ICMP
//! fragmentation-needed and uses sequential IPIDs, this is the paper's
//! "vulnerable nameserver": its large responses fragment on demand and the
//! IPIDs of the fragments are predictable.

use std::net::Ipv4Addr;

use bytes::{Bytes, BytesMut};
use netsim::prelude::*;
use rand::seq::index::sample;
use rand::Rng;

use crate::dnssec::make_rrsig;
use crate::error::DnsError;
use crate::message::{Message, Question, Rcode};
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
    zones: Vec<Zone>,
    include_authority: bool,
    /// Whole-reply templates, from this server's own full encodes (see
    /// [`AuthServer::encode_reply`]).
    templates: Vec<Template>,
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
    /// Creates a server for `zones`. Responses to A queries include the
    /// zone's NS records and glue in the authority/additional sections.
    pub fn new(zones: Vec<Zone>) -> Self {
        AuthServer {
            zones,
            include_authority: true,
            templates: Vec::new(),
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
        let Some(zone_idx) = self
            .zones
            .iter()
            .enumerate()
            .filter(|(_, z)| q.name.is_subdomain_of(&z.origin))
            .max_by_key(|(_, z)| z.origin.label_count())
            .map(|(i, _)| i)
        else {
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
                sample(rng, addrs.len(), n)
                    .into_iter()
                    .map(|i| Record::a(q.name.clone(), *ttl, addrs[i]))
                    .collect::<Vec<_>>()
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

    /// The section fill: `zone`'s NS records and glue.
    fn fill(&self, resp: &mut Message, zone: usize) {
        let zone = &self.zones[zone];
        resp.authorities = zone.ns_records().to_vec();
        resp.additionals = zone.glue_records().to_vec();
    }

    /// Encodes `resp` (header, question and answers, from
    /// [`AuthServer::respond`]) with `zone`'s authority and additional
    /// sections.
    ///
    /// The reply is patched from a cached [`Template`] when the answers
    /// add no compression target: one question, and every answer an A
    /// record owned by the question name (each compresses to a pointer at
    /// offset 12) in an unsigned zone. The encoder's output then depends
    /// only on the header, the question and the answer count, bar the ID
    /// and flags (bytes 0..4) and each answer's TTL and address, which the
    /// patch writes in. Anything else — and a cache miss, which fills the
    /// cache from its one full encode — encodes in full.
    fn encode_reply(&mut self, mut resp: Message, zone: usize) -> Result<Bytes, DnsError> {
        let patchable = matches!(resp.questions.as_slice(), [q]
            if self.zones[zone].key.is_none()
                && resp.answers.iter().all(|r| r.as_a().is_some() && r.name == q.name));
        if !patchable {
            self.fill(&mut resp, zone);
            return resp.encode();
        }
        let question = &resp.questions[0];
        let answers = resp.answers.len();
        let cached = self
            .templates
            .iter()
            .find(|t| t.zone == zone && t.answers == answers && t.question == *question);
        if let Some(template) = cached {
            let mut wire = BytesMut::with_capacity(template.wire.len());
            wire.extend_from_slice(&template.wire);
            wire[..4].copy_from_slice(&resp.header.id_and_flags());
            let slots = wire[template.answers_at..].chunks_exact_mut(A_ANSWER_LEN);
            for (slot, record) in slots.zip(&resp.answers) {
                slot[6..10].copy_from_slice(&record.ttl.to_be_bytes());
                slot[12..].copy_from_slice(&record.as_a().map_or([0; 4], |addr| addr.octets()));
            }
            let wire = wire.freeze();
            if cfg!(debug_assertions) {
                self.fill(&mut resp, zone);
                assert_eq!(resp.encode().as_ref(), Ok(&wire), "patch differs from a full encode");
            }
            return Ok(wire);
        }
        self.fill(&mut resp, zone);
        let (wire, answers_at) = resp.encode_split()?;
        if self.templates.len() < MAX_TEMPLATES {
            let (question, wire) = (resp.questions[0].clone(), wire.clone());
            self.templates.push(Template { zone, question, answers, wire, answers_at });
        }
        Ok(wire)
    }
}

impl Host for AuthServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = Message::decode(&d.payload) else { return };
        if query.header.qr {
            return; // not a query
        }
        if let Ok(wire) = self.reply(&query, ctx.rng()) {
            self.stats.responses += 1;
            ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
        }
    }
}

/// Convenience: the default vulnerable pool nameserver OS profile (honours
/// PMTUD down to 548 bytes, global sequential IPID).
pub fn vulnerable_ns_profile() -> OsProfile {
    OsProfile::nameserver(548)
}

/// Returns the addresses of the nameservers for a zone laid out by
/// [`crate::zone::pool_zone`].
pub fn ns_addrs(zone: &Zone) -> Vec<Ipv4Addr> {
    zone.glue_records().iter().filter_map(Record::as_a).collect()
}

/// Registers one [`AuthServer`] host per glue address of `zone` in `sim`
/// (each nameserver rotates independently, like the real pool NS fleet).
/// Returns the nameserver addresses for use as resolver hints.
///
/// # Panics
///
/// Panics if any glue address is already occupied.
pub fn spawn_zone_nameservers(
    sim: &mut netsim::sim::Simulator,
    zone: &Zone,
    profile: OsProfile,
) -> Vec<Ipv4Addr> {
    let addrs = ns_addrs(zone);
    for &addr in &addrs {
        sim.add_host(addr, profile.clone(), Box::new(AuthServer::new(vec![zone.clone()])))
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
        #[allow(clippy::disallowed_types)] // test code (simlint R2 exempts tests)
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

    /// Asks `server` and a twin each query three times (so patched
    /// replies follow the encode that filled the cache), as A and as NS,
    /// with RD clear and set and a fresh ID each time, under equal RNG
    /// seeds.
    fn assert_replies_match_answers(label: &str, server: impl Fn() -> AuthServer, names: &[&str]) {
        use rand::RngExt;
        let (mut sent_by, mut answered_by) = (server(), server());
        let mut seed = 0;
        for round in 0..3u16 {
            for name in names {
                for (qtype, rd) in
                    [(RecordType::A, false), (RecordType::A, true), (RecordType::Ns, true)]
                {
                    seed += 1;
                    let id = (seed as u16).wrapping_mul(0x9E37);
                    let query = Message::query(id, name.parse().unwrap(), qtype, rd);
                    let (mut rng_a, mut rng_b) =
                        (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                    let sent = sent_by.reply(&query, &mut rng_a).unwrap();
                    let full = answered_by.answer(&query, &mut rng_b).encode().unwrap();
                    assert_eq!(sent, full, "{label}: {name} {qtype} rd={rd} round {round}");
                    assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>(), "{label}: {name}");
                }
            }
        }
        assert_eq!(sent_by.stats, answered_by.stats, "{label}");
    }

    /// What `on_datagram` sends — patched or encoded in full — equals the
    /// full encode of `answer` and leaves the RNG in the same state.
    #[test]
    fn replies_equal_full_encodes_of_answer() {
        use crate::dnssec::ZoneKey;
        let pool = || pool_zone(servers(8), 23, Ipv4Addr::new(198, 51, 100, 1));
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
        let attacker = || AuthServer::new(vec![malicious_pool_zone(servers(89), 89, 86_400 * 2)]);
        assert_replies_match_answers("attacker", attacker, &names);
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
