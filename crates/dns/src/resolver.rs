//! The caching recursive resolver — the victim of the poisoning attack.
//!
//! Implements the behaviours the paper's attack chain depends on:
//!
//! * random source ports and TXIDs on every upstream query, always
//!   (RFC 5452: the challenge-response entropy the fragment attack
//!   bypasses, because both live in the first fragment);
//! * caching of answer, authority **and glue** records subject to a
//!   bailiwick check (the poisoned glue is in-bailiwick, so it caches);
//! * following cached delegations, so a poisoned `nsX.pool.ntp.org` glue
//!   record redirects future `pool.ntp.org` resolutions to the attacker's
//!   nameserver;
//! * RD=0 cache-only answers (the snooping primitive of Table IV);
//! * optional DNSSEC-lite validation (the countermeasure of §IX).
//!
//! Port/TXID randomisation and delegation following are unconditional:
//! no modelled resolver runs without them. The retry, timeout, depth and
//! TTL limits are constants; [`ResolverConfig`] holds only what the
//! paper's resolver populations vary.
//!
//! Datagrams are read in place and every message is written once. A
//! client query is checked by [`MessageView::new`] and its questions are
//! read in place ([`MessageView::questions`]); the answer is written
//! straight from the cache's borrowed RRset. An upstream reply is walked
//! once into a reused [`RecordSpan`] buffer, and only its in-bailiwick
//! records are built — the ones the cache keeps. Every reply goes through
//! one reused `Encoder`, and every upstream query is written by
//! [`query_bytes`]. The bytes sent are those of the former
//! decode-clone-encode path, kept as a test oracle in
//! `crates/measure/tests/oracle/`.
// simlint: hot-path — every survey trial's client queries, cache answers
// and upstream replies pass through here; only what the cache keeps and a
// new resolution's client list allocate.

use bytes::Bytes;
use netsim::fasthash::FastMap;
use std::net::Ipv4Addr;

use netsim::prelude::*;
use rand::seq::IndexedRandom;
use rand::RngExt;

use crate::auth::DNS_PORT;
use crate::cache::DnsCache;
use crate::dnssec::TrustAnchors;
use crate::message::{
    query_bytes, Encoder, Header, MessageView, Question, Questions, Rcode, RecordSpan, Section,
};
use crate::name::Name;
use crate::record::{RData, Record, RecordType};

/// What differs between the modelled resolvers: RD handling (Table IV's
/// snooping population) and DNSSEC-lite validation (§IX).
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Answer RD=0 queries from cache only (RFC-compliant). Resolvers that
    /// ignore the RD bit are excluded by the scan's verification step.
    pub respects_rd: bool,
    /// DNSSEC-lite validation against these trust anchors; `None` for a
    /// non-validating resolver.
    pub validation: Option<TrustAnchors>,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig { respects_rd: true, validation: None }
    }
}

/// Cap on cached TTLs (BIND default: 7 days).
const MAX_CACHE_TTL: u32 = 7 * 86_400;
/// Timeout before retrying an upstream query.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Upstream retransmissions before SERVFAIL.
const MAX_RETRIES: u32 = 2;
/// Maximum delegation-chasing depth.
const MAX_DEPTH: u32 = 4;

/// Counters exposed by a [`Resolver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries received from clients.
    pub client_queries: u64,
    /// Client queries answered from cache.
    pub cache_hits: u64,
    /// Queries sent upstream.
    pub upstream_queries: u64,
    /// Upstream timeouts.
    pub timeouts: u64,
    /// SERVFAIL responses returned.
    pub servfails: u64,
    /// RRsets rejected by DNSSEC-lite validation.
    pub validation_failures: u64,
    /// Records discarded by the bailiwick check.
    pub bailiwick_rejects: u64,
}

#[derive(Debug, Clone)]
struct ClientRef {
    addr: Ipv4Addr,
    port: u16,
    txid: u16,
    rd: bool,
}

#[derive(Debug)]
struct Pending {
    qname: Name,
    qtype: RecordType,
    clients: Vec<ClientRef>,
    zone: Name,
    server: Ipv4Addr,
    sport: u16,
    txid: u16,
    attempts: u32,
    depth: u32,
}

/// A caching recursive resolver host listening on UDP port 53.
#[derive(Debug)]
pub struct Resolver {
    config: ResolverConfig,
    cache: DnsCache,
    hints: Vec<(Name, Vec<Ipv4Addr>)>,
    pending: FastMap<u64, Pending>,
    next_id: u64,
    /// Writes every reply, reused across messages.
    encoder: Encoder,
    /// Record layouts of the upstream reply being read, reused.
    spans: Vec<RecordSpan>,
    /// The in-bailiwick records of the upstream reply being read, in wire
    /// order; emptied into the cache, reused.
    kept: Vec<Record>,
    /// Counters.
    pub stats: ResolverStats,
}

impl Resolver {
    /// Creates a resolver with root-hint style knowledge: `hints` maps a
    /// zone apex to the addresses of its authoritative servers.
    pub fn new(config: ResolverConfig, hints: Vec<(Name, Vec<Ipv4Addr>)>) -> Self {
        Resolver {
            config,
            cache: DnsCache::new(MAX_CACHE_TTL),
            hints,
            pending: FastMap::default(),
            next_id: 1,
            encoder: Encoder::new(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            spans: Vec::new(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            kept: Vec::new(),
            stats: ResolverStats::default(),
        }
    }

    /// Read access to the cache (tests and the snooping scanners).
    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    /// Mutable access to the cache (scenario setup, e.g. pre-priming).
    pub fn cache_mut(&mut self) -> &mut DnsCache {
        &mut self.cache
    }

    /// A fresh RFC 5452 challenge: a random source port above 1023, then
    /// a random TXID (two RNG draws, in that order).
    fn challenge(ctx: &mut Ctx<'_>) -> (u16, u16) {
        let sport = ctx.rng().random_range(1024..=u16::MAX);
        (sport, ctx.rng().random())
    }

    /// Picks the nameserver to ask for `qname`: cached delegations first
    /// (longest match), then configured hints. Among a cached
    /// delegation's nameservers with a fresh cached address, one is drawn
    /// with `random_range(0..n)`, the draw `choose` makes over them.
    fn find_nameserver(
        &self,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        qname: &Name,
    ) -> Option<(Name, Ipv4Addr)> {
        for zone in qname.self_and_ancestors() {
            if let Some((ns, _)) = self.cache.get(now, &zone, RecordType::Ns) {
                let addrs = || {
                    ns.iter().filter_map(Record::as_ns).filter_map(|target| {
                        let (glue, _) = self.cache.get(now, target, RecordType::A)?;
                        glue.first()?.as_a()
                    })
                };
                let n = addrs().count();
                if n > 0 {
                    let k = ctx.rng().random_range(0..n);
                    if let Some(addr) = addrs().nth(k) {
                        return Some((zone, addr));
                    }
                }
            }
            if let Some((_, addrs)) = self.hints.iter().find(|(z, _)| *z == zone) {
                if let Some(&addr) = addrs.choose(ctx.rng()) {
                    return Some((zone, addr));
                }
            }
        }
        None
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(p) = self.pending.get(&id) else { return };
        self.stats.upstream_queries += 1;
        let wire = query_bytes(p.txid, &p.qname, p.qtype, false);
        ctx.send_udp(p.server, p.sport, DNS_PORT, wire);
        ctx.set_timer(UPSTREAM_TIMEOUT, encode_timer(id, p.depth, p.attempts));
    }

    /// Ends resolution `id`: every client gets `rcode` and the records of
    /// `answers` that answer the question (its type, or RRSIG).
    fn reply_to_clients(&mut self, ctx: &mut Ctx<'_>, id: u64, answers: &[Record], rcode: Rcode) {
        let Some(p) = self.pending.remove(&id) else { return };
        if rcode == Rcode::ServFail {
            self.stats.servfails += 1;
        }
        let answers = || {
            answers.iter().filter(|r| {
                r.name == p.qname && (r.rtype() == p.qtype || r.rtype() == RecordType::Rrsig)
            })
        };
        let count = answers().count();
        for client in &p.clients {
            let header = Header {
                id: client.txid,
                qr: true,
                rd: client.rd,
                ra: true,
                rcode,
                ..Header::default()
            };
            let enc = &mut self.encoder;
            enc.start(&header, 1, [count, 0, 0]);
            enc.put_question(&p.qname, p.qtype);
            let wire = answers().try_for_each(|r| enc.put_record(r)).and_then(|()| enc.finish());
            if let Ok(wire) = wire {
                ctx.send_udp(client.addr, DNS_PORT, client.port, wire);
            }
        }
    }

    fn handle_client_query(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        let Ok(view) = MessageView::new(&d.payload) else { return };
        self.stats.client_queries += 1;
        let mut questions = view.questions();
        let Some(q) = questions.next() else { return };
        let rd = view.header().rd;
        let now = ctx.now();
        let hit = self.cache.get(now, &q.name, q.qtype);
        if hit.is_some() || (!rd && self.config.respects_rd) {
            // A cache answer; RD=0 to an RD-respecting resolver gets one
            // even on a miss, with no records (cache-only).
            if hit.is_some() {
                self.stats.cache_hits += 1;
            }
            let (answers, remaining) = hit.unwrap_or_default();
            let reply = answer(
                &mut self.encoder,
                view.header(),
                (&q, questions),
                answers,
                remaining,
                Rcode::NoError,
            );
            if let Some(wire) = reply {
                ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
            }
            return;
        }
        let client = ClientRef { addr: d.src, port: d.src_port, txid: view.header().id, rd };
        // Join an in-flight identical resolution, if any.
        if let Some(p) = self.pending.values_mut().find(|p| p.qname == q.name && p.qtype == q.qtype)
        {
            p.clients.push(client);
            return;
        }
        let Some((zone, server)) = self.find_nameserver(now, ctx, &q.name) else {
            // No path to an authority: immediate SERVFAIL.
            self.stats.servfails += 1;
            let reply =
                answer(&mut self.encoder, view.header(), (&q, questions), &[], 0, Rcode::ServFail);
            if let Some(wire) = reply {
                ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
            }
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        let (sport, txid) = Self::challenge(ctx);
        let Question { name: qname, qtype } = q;
        self.pending.insert(
            id,
            Pending {
                qname,
                qtype,
                // simlint: allow(hot-alloc) — a new resolution's client list.
                clients: vec![client],
                zone,
                server,
                sport,
                txid,
                attempts: 0,
                depth: 0,
            },
        );
        self.send_upstream(ctx, id);
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, d: &Datagram, txid: u16) {
        // Match pending by (source address, destination port, TXID) — the
        // challenge-response triple of RFC 5452.
        let Some(id) = self
            .pending
            .iter()
            .find(|(_, p)| p.server == d.src && p.sport == d.dst_port && p.txid == txid)
            .map(|(&id, _)| id)
        else {
            return; // unsolicited (a blind-spoofing miss)
        };
        let mut spans = std::mem::take(&mut self.spans);
        let mut kept = std::mem::take(&mut self.kept);
        if let Ok(view) = MessageView::with_spans(&d.payload, &mut spans) {
            self.read_reply(ctx, id, view, &spans, &mut kept);
        }
        kept.clear();
        (self.spans, self.kept) = (spans, kept);
    }

    /// Reads the checked reply `view` (records at `spans`) to resolution
    /// `id`: keeps its in-bailiwick records in `kept`, validates, then
    /// answers the clients or follows a delegation, and caches the kept
    /// RRsets.
    fn read_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: u64,
        view: MessageView<'_>,
        spans: &[RecordSpan],
        kept: &mut Vec<Record>,
    ) {
        let now = ctx.now();
        let data = view.bytes();
        // Bailiwick: discard records outside the zone we queried, before
        // building them.
        let p = &self.pending[&id];
        let (mut answers, mut authorities) = (0, 0);
        for span in spans {
            let Ok(owner) = span.name(data) else { continue };
            if !owner.is_subdomain_of(&p.zone) {
                self.stats.bailiwick_rejects += 1;
                continue;
            }
            let Ok(record) = span.record(data, owner) else { continue };
            kept.push(record);
            match span.section {
                Section::Answer => answers += 1,
                Section::Authority => authorities += 1,
                Section::Additional => {}
            }
        }
        let (answers, rest) = kept.split_at(answers);
        let (authorities, additionals) = rest.split_at(authorities);

        if let Some(anchors) = &self.config.validation {
            // Validate answer-section RRsets under signed zones. Glue and
            // authority data are not validated — matching real DNSSEC,
            // where glue is unsigned; this is precisely why the glue
            // poisoning lands even on validating resolvers, while the
            // *final* forged answer for a signed name still fails here.
            // An RRset's signature covers its records in every section,
            // and `validate` picks them (and its RRSIGs) out of `kept`.
            let forged = answers.iter().any(|r| {
                !matches!(r.rtype(), RecordType::Rrsig | RecordType::Opt)
                    && !anchors.validate(&r.name, r.rtype(), kept)
            });
            if forged {
                self.stats.validation_failures += 1;
                self.reply_to_clients(ctx, id, &[], Rcode::ServFail);
                return;
            }
        }

        // Did we get an answer for the question? If not, a delegation?
        let p = &self.pending[&id];
        let answered = answers.iter().any(|r| r.rtype() == p.qtype && r.name == p.qname);
        let delegation =
            if answered { None } else { self.delegation(now, p, kept, authorities, additionals) };
        match delegation {
            Some((subzone, addr)) if p.depth < MAX_DEPTH => {
                self.cache_rrsets(now, kept);
                let (sport, txid) = Self::challenge(ctx);
                let Some(p) = self.pending.get_mut(&id) else { return };
                p.zone = subzone;
                p.server = addr;
                p.sport = sport;
                p.txid = txid;
                p.attempts = 0;
                p.depth += 1;
                self.send_upstream(ctx, id);
            }
            _ => {
                let rcode = match view.header().rcode {
                    Rcode::NxDomain => Rcode::NxDomain,
                    _ => Rcode::NoError,
                };
                self.reply_to_clients(ctx, id, answers, rcode);
                self.cache_rrsets(now, kept);
            }
        }
    }

    /// The delegation in a reply without an answer for `p`: the first
    /// authority NS record for a zone below `p`'s, above its question
    /// name, whose target has an address — from the reply's glue, else
    /// from the cache as it stands once `kept` is cached.
    fn delegation(
        &self,
        now: SimTime,
        p: &Pending,
        kept: &[Record],
        authorities: &[Record],
        additionals: &[Record],
    ) -> Option<(Name, Ipv4Addr)> {
        authorities.iter().find_map(|r| {
            let target = r.as_ns()?;
            if !p.qname.is_subdomain_of(&r.name) || r.name.label_count() <= p.zone.label_count() {
                return None;
            }
            let addr = additionals
                .iter()
                .find(|g| g.name == *target && g.rtype() == RecordType::A)
                .and_then(Record::as_a)
                .or_else(|| self.address_once_cached(now, target, kept))?;
            // simlint: allow(hot-alloc) — a subzone name, inline up to 30
            // bytes; referrals only.
            Some((r.name.clone(), addr))
        })
    }

    /// The address the cache gives for `target` once `kept` is cached:
    /// the reply's own A RRset for `target` replaces the cached one, and
    /// is fresh unless a record of it has TTL 0.
    fn address_once_cached(
        &self,
        now: SimTime,
        target: &Name,
        kept: &[Record],
    ) -> Option<Ipv4Addr> {
        let own = || kept.iter().filter(|r| r.rtype() == RecordType::A && r.name == *target);
        match own().next() {
            Some(first) => own().all(|r| r.ttl > 0).then(|| first.as_a()).flatten(),
            None => self.cache.get(now, target, RecordType::A)?.0.first()?.as_a(),
        }
    }

    /// Caches the reply's RRsets: `kept` grouped by owner and type, each
    /// in wire order. Each record moves into its RRset and leaves an OPT
    /// stand-in behind; OPT records are never cached.
    fn cache_rrsets(&mut self, now: SimTime, kept: &mut [Record]) {
        let stand_in = || Record::new(Name::root(), 0, RData::Opt { udp_payload_size: 0 });
        for i in 0..kept.len() {
            let rtype = kept[i].rtype();
            if rtype == RecordType::Opt {
                continue;
            }
            let owner = &kept[i].name;
            let len = kept[i..].iter().filter(|r| r.rtype() == rtype && r.name == *owner).count();
            // simlint: allow(hot-alloc) — the RRset the cache keeps.
            let mut set = Vec::with_capacity(len);
            set.push(std::mem::replace(&mut kept[i], stand_in()));
            for r in &mut kept[i + 1..] {
                if r.rtype() == rtype && r.name == set[0].name {
                    set.push(std::mem::replace(r, stand_in()));
                }
            }
            // simlint: allow(hot-alloc) — the cache key: a name inline up
            // to 30 bytes, else a shared slice.
            let name = set[0].name.clone();
            self.cache.insert(now, name, rtype, set);
        }
    }
}

/// The reply to a checked client query with header `query` and questions
/// `(first, rest)`: what `Message::response_to` of the decoded query,
/// with RA, `rcode` and `answers` (TTLs capped at `remaining`), encodes
/// to. Every question is echoed as read, lower-cased. `None` when it does
/// not fit a message.
fn answer(
    enc: &mut Encoder,
    query: &Header,
    (first, rest): (&Question, Questions<'_>),
    answers: &[Record],
    remaining: u32,
    rcode: Rcode,
) -> Option<Bytes> {
    let header =
        Header { id: query.id, qr: true, rd: query.rd, ra: true, rcode, ..Header::default() };
    enc.start(&header, 1 + rest.len(), [answers.len(), 0, 0]);
    enc.put_question(&first.name, first.qtype);
    for q in rest {
        enc.put_question(&q.name, q.qtype);
    }
    for r in answers {
        enc.put_record_with_ttl(r, remaining.min(r.ttl)).ok()?;
    }
    enc.finish().ok()
}

/// The timeout token of one upstream send: the resolution's id, its
/// delegation depth and the attempt at that depth. A delegation starts
/// the next hop at attempt 0, so the depth is what keeps the previous
/// hop's timer from firing as the new hop's.
fn encode_timer(id: u64, depth: u32, attempts: u32) -> TimerToken {
    (id << 16) | (u64::from(depth & 0xFF) << 8) | u64::from(attempts & 0xFF)
}

// Depth and attempt get 8 bits each: a wider value would wrap onto a
// live (depth, attempt) pair and `on_timer` would drop the real timeout.
const _: () = assert!(MAX_RETRIES < 256 && MAX_DEPTH < 256);

fn decode_timer(token: TimerToken) -> (u64, u32, u32) {
    (token >> 16, ((token >> 8) & 0xFF) as u32, (token & 0xFF) as u32)
}

impl Host for Resolver {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        // Each handler checks the whole message before it acts; here only
        // the ID and the QR bit are read.
        let Some(head) = d.payload.first_chunk::<4>() else { return };
        if head[2] & 0x80 != 0 {
            self.handle_upstream_response(ctx, d, u16::from_be_bytes([head[0], head[1]]));
        } else if d.dst_port == DNS_PORT {
            self.handle_client_query(ctx, d);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let (id, depth, attempts) = decode_timer(token);
        let Some(p) = self.pending.get_mut(&id) else { return };
        if (p.depth, p.attempts) != (depth, attempts) {
            return; // stale timer from an earlier hop or attempt
        }
        self.stats.timeouts += 1;
        p.attempts += 1;
        if p.attempts > MAX_RETRIES {
            self.reply_to_clients(ctx, id, &[], Rcode::ServFail);
            return;
        }
        // Re-randomise the challenge and re-select the nameserver on retry
        // (a dead NS must not wedge the resolution).
        let (sport, txid) = Self::challenge(ctx);
        let reselected = self.find_nameserver(ctx.now(), ctx, &self.pending[&id].qname);
        let Some(p) = self.pending.get_mut(&id) else { return };
        p.sport = sport;
        p.txid = txid;
        if let Some((zone, server)) = reselected {
            p.zone = zone;
            p.server = server;
        }
        self.send_upstream(ctx, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::stub::lookup_once;
    use crate::zone::pool_zone;

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    fn pool_name() -> Name {
        "pool.ntp.org".parse().unwrap()
    }

    fn build_sim(config: ResolverConfig) -> Simulator {
        let mut sim = Simulator::with_topology(
            11,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10))),
        );
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 4, NS);
        let ns_list =
            crate::auth::spawn_zone_nameservers(&mut sim, [zone], OsProfile::nameserver(548));
        let resolver = Resolver::new(config, vec![(pool_name(), ns_list)]);
        sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).unwrap();
        sim
    }

    #[test]
    fn recursive_resolution_and_caching() {
        let mut sim = build_sim(ResolverConfig::default());
        let addrs = lookup_once(&mut sim, CLIENT, RESOLVER, &pool_name());
        assert_eq!(addrs.len(), 4);
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!(r.stats.client_queries, 1);
        assert_eq!(r.stats.cache_hits, 0);
        assert!(r.cache().contains(sim.now(), &pool_name(), RecordType::A));
        // NS + glue must be cached too (that is what gets poisoned later).
        assert!(r.cache().contains(sim.now(), &pool_name(), RecordType::Ns));
        assert!(r.cache().contains(sim.now(), &"ns1.pool.ntp.org".parse().unwrap(), RecordType::A));
    }

    #[test]
    fn second_lookup_hits_cache() {
        let mut sim = build_sim(ResolverConfig::default());
        let first = lookup_once(&mut sim, CLIENT, RESOLVER, &pool_name());
        let second = lookup_once(&mut sim, "10.0.0.101".parse().unwrap(), RESOLVER, &pool_name());
        assert_eq!(first, second, "cached answer must be identical");
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!(r.stats.cache_hits, 1);
        assert_eq!(r.stats.upstream_queries, 1);
    }

    /// Sends one RD=0 query for `pool.ntp.org` (the cache-snooping probe)
    /// and keeps the reply.
    struct Snoop {
        stub: crate::stub::StubResolver,
        reply: Option<crate::stub::DnsReply>,
    }

    impl Host for Snoop {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stub.query(ctx, &pool_name(), RecordType::A, false);
        }

        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
            if let Some(reply) = self.stub.handle(d) {
                self.reply = Some(reply);
            }
        }
    }

    /// Snoops the resolver from `client`: the cached addresses and their
    /// smallest TTL, or `None` if it revealed no cached RRset.
    fn snoop(sim: &mut Simulator, client: Ipv4Addr) -> Option<(Vec<Ipv4Addr>, u32)> {
        let stub = crate::stub::StubResolver::new(RESOLVER, 5353);
        sim.add_host(client, OsProfile::linux(), Box::new(Snoop { stub, reply: None })).unwrap();
        sim.run_for(SimDuration::from_secs(5));
        let reply = sim.host::<Snoop>(client)?.reply.clone()?;
        let ttl = reply.ttls.iter().copied().min()?;
        Some((reply.addrs, ttl))
    }

    #[test]
    fn rd0_answers_from_cache_only() {
        let mut sim = build_sim(ResolverConfig::default());
        // Snoop before priming: no answer.
        let snooped = snoop(&mut sim, Ipv4Addr::new(10, 0, 0, 110));
        assert!(snooped.is_none(), "uncached record must not be revealed");
        lookup_once(&mut sim, CLIENT, RESOLVER, &pool_name());
        let snooped = snoop(&mut sim, Ipv4Addr::new(10, 0, 0, 111));
        let (addrs, ttl) = snooped.expect("cached record is revealed");
        assert_eq!(addrs.len(), 4);
        assert!(ttl <= 150);
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!(r.stats.upstream_queries, 1, "RD=0 must never recurse");
    }

    #[test]
    fn servfail_when_no_hints() {
        let mut sim = Simulator::new(3);
        let resolver = Resolver::new(ResolverConfig::default(), vec![]);
        sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).unwrap();
        let addrs = lookup_once(&mut sim, CLIENT, RESOLVER, &pool_name());
        assert!(addrs.is_empty());
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!(r.stats.servfails, 1);
    }

    #[test]
    fn upstream_timeout_retries_then_servfails() {
        let mut sim = Simulator::new(4);
        // Hint points at a black hole.
        let resolver = Resolver::new(
            ResolverConfig::default(),
            vec![(pool_name(), vec!["203.0.113.250".parse().unwrap()])],
        );
        sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).unwrap();
        let addrs = lookup_once(&mut sim, CLIENT, RESOLVER, &pool_name());
        assert!(addrs.is_empty());
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!(r.stats.upstream_queries, 3, "initial + 2 retries");
        assert_eq!(r.stats.servfails, 1);
    }

    /// Answers every query with a referral of `pool.ntp.org` to
    /// `ns1.pool.ntp.org` at `child`, glue included.
    struct Referral {
        child: Ipv4Addr,
    }

    impl Host for Referral {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
            let Ok(query) = Message::decode(&d.payload) else { return };
            let ns: Name = "ns1.pool.ntp.org".parse().unwrap();
            let mut resp = Message::response_to(&query);
            resp.authorities.push(Record::ns(pool_name(), 3600, ns.clone()));
            resp.additionals.push(Record::a(ns, 3600, self.child));
            ctx.send_udp(d.src, DNS_PORT, d.src_port, resp.encode().unwrap());
        }
    }

    /// A delegation starts the next hop's attempts afresh, and the first
    /// hop's timer must not fire as the second hop's: with hop round trips
    /// of 1.0 s and 1.6 s under the 2 s timeout, the first hop's timer
    /// falls due while the second hop's answer is still on its way.
    #[test]
    fn first_hop_timer_does_not_time_out_the_second_hop() {
        let parent = Ipv4Addr::new(198, 51, 100, 200);
        let mut sim = Simulator::new(12);
        let topology = sim.topology_mut();
        topology.set_link_bidir(RESOLVER, parent, LinkSpec::fixed(SimDuration::from_millis(500)));
        topology.set_link_bidir(RESOLVER, NS, LinkSpec::fixed(SimDuration::from_millis(800)));
        sim.add_host(parent, OsProfile::linux(), Box::new(Referral { child: NS })).unwrap();
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let child = crate::auth::AuthServer::new([pool_zone(servers, 4, NS)]);
        sim.add_host(NS, OsProfile::nameserver(548), Box::new(child)).unwrap();
        let hints = vec![("ntp.org".parse().unwrap(), vec![parent])];
        let resolver = Resolver::new(ResolverConfig::default(), hints);
        sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).unwrap();
        let addrs = lookup_once(&mut sim, CLIENT, RESOLVER, &pool_name());
        assert_eq!(addrs.len(), 4);
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!((r.stats.timeouts, r.stats.upstream_queries), (0, 2), "{:?}", r.stats);
    }

    #[test]
    fn concurrent_identical_queries_are_aggregated() {
        let mut sim = build_sim(ResolverConfig::default());
        let a = crate::stub::OneShot::spawn(&mut sim, CLIENT, RESOLVER, pool_name());
        let b = crate::stub::OneShot::spawn(
            &mut sim,
            "10.0.0.101".parse().unwrap(),
            RESOLVER,
            pool_name(),
        );
        sim.run_for(SimDuration::from_secs(5));
        let ra = crate::stub::OneShot::result(&sim, a);
        let rb = crate::stub::OneShot::result(&sim, b);
        assert_eq!(ra.len(), 4);
        assert_eq!(ra, rb);
        let r: &Resolver = sim.host(RESOLVER).unwrap();
        assert_eq!(r.stats.upstream_queries, 1, "one upstream query for both clients");
    }
}
