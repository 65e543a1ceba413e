//! Reference implementation for the resolver differential tests: the
//! `dns::resolver::Resolver` that decoded every datagram into an owned
//! `Message`, cloned records into per-reply sections and RRset maps, and
//! encoded each reply with a fresh encoder. Kept verbatim in behaviour;
//! only the imports changed, and it shares the library's
//! `ResolverConfig` and `ResolverStats`.

#![allow(dead_code, reason = "each test binary uses part of the oracle")]

use netsim::fasthash::{FastMap, FastSet};
use std::net::Ipv4Addr;

use netsim::prelude::*;
use rand::seq::IndexedRandom;
use rand::RngExt;

use dns::auth::DNS_PORT;
use dns::cache::DnsCache;
use dns::message::{Message, Rcode};
use dns::name::Name;
use dns::record::{Record, RecordType};
use dns::resolver::{ResolverConfig, ResolverStats};

/// Cap on cached TTLs (BIND default: 7 days).
const MAX_CACHE_TTL: u32 = 7 * 86_400;
/// Timeout before retrying an upstream query.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Upstream retransmissions before SERVFAIL.
const MAX_RETRIES: u32 = 2;
/// Maximum delegation-chasing depth.
const MAX_DEPTH: u32 = 4;

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
    /// (longest match), then configured hints.
    fn find_nameserver(
        &self,
        now: SimTime,
        ctx: &mut Ctx<'_>,
        qname: &Name,
    ) -> Option<(Name, Ipv4Addr)> {
        for zone in qname.self_and_ancestors() {
            if let Some(hit) = self.cache.lookup(now, &zone, RecordType::Ns) {
                let addrs: Vec<Ipv4Addr> = hit
                    .records
                    .iter()
                    .filter_map(Record::as_ns)
                    .filter_map(|target| {
                        self.cache
                            .lookup(now, target, RecordType::A)
                            .and_then(|glue| glue.records.first().and_then(Record::as_a))
                    })
                    .collect();
                if let Some(&addr) = addrs.choose(ctx.rng()) {
                    return Some((zone.clone(), addr));
                }
            }
            if let Some((_, addrs)) = self.hints.iter().find(|(z, _)| *z == zone) {
                if let Some(&addr) = addrs.choose(ctx.rng()) {
                    return Some((zone.clone(), addr));
                }
            }
        }
        None
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(p) = self.pending.get_mut(&id) else { return };
        let q = Message::query(p.txid, p.qname.clone(), p.qtype, false);
        let Ok(wire) = q.encode() else { return };
        self.stats.upstream_queries += 1;
        let (server, sport) = (p.server, p.sport);
        ctx.send_udp(server, sport, DNS_PORT, wire);
        let token = encode_timer(id, p.depth, p.attempts);
        ctx.set_timer(UPSTREAM_TIMEOUT, token);
    }

    fn reply_to_clients(&mut self, ctx: &mut Ctx<'_>, id: u64, answers: Vec<Record>, rcode: Rcode) {
        let Some(p) = self.pending.remove(&id) else { return };
        if rcode == Rcode::ServFail {
            self.stats.servfails += 1;
        }
        for client in p.clients {
            let mut resp = Message::query(client.txid, p.qname.clone(), p.qtype, client.rd);
            resp.header.qr = true;
            resp.header.ra = true;
            resp.header.rcode = rcode;
            resp.answers = answers.clone();
            if let Ok(wire) = resp.encode() {
                ctx.send_udp(client.addr, DNS_PORT, client.port, wire);
            }
        }
    }

    fn answer_from_cache_only(&mut self, ctx: &mut Ctx<'_>, d: &Datagram, query: &Message) {
        let Some(q) = query.question() else { return };
        let mut resp = Message::response_to(query);
        resp.header.ra = true;
        if let Some(hit) = self.cache.lookup(ctx.now(), &q.name, q.qtype) {
            self.stats.cache_hits += 1;
            resp.answers = hit.records;
        }
        if let Ok(wire) = resp.encode() {
            ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
        }
    }

    fn handle_client_query(&mut self, ctx: &mut Ctx<'_>, d: &Datagram, query: Message) {
        self.stats.client_queries += 1;
        let Some(q) = query.question().cloned() else { return };
        if !query.header.rd && self.config.respects_rd {
            self.answer_from_cache_only(ctx, d, &query);
            return;
        }
        if let Some(hit) = self.cache.lookup(ctx.now(), &q.name, q.qtype) {
            self.stats.cache_hits += 1;
            let mut resp = Message::response_to(&query);
            resp.header.ra = true;
            resp.answers = hit.records;
            if let Ok(wire) = resp.encode() {
                ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
            }
            return;
        }
        let client =
            ClientRef { addr: d.src, port: d.src_port, txid: query.header.id, rd: query.header.rd };
        // Join an in-flight identical resolution, if any.
        if let Some((_, p)) =
            self.pending.iter_mut().find(|(_, p)| p.qname == q.name && p.qtype == q.qtype)
        {
            p.clients.push(client);
            return;
        }
        let Some((zone, server)) = self.find_nameserver(ctx.now(), ctx, &q.name) else {
            // No path to an authority: immediate SERVFAIL.
            let mut resp = Message::response_to(&query);
            resp.header.ra = true;
            resp.header.rcode = Rcode::ServFail;
            self.stats.servfails += 1;
            if let Ok(wire) = resp.encode() {
                ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
            }
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        let (sport, txid) = Self::challenge(ctx);
        self.pending.insert(
            id,
            Pending {
                qname: q.name,
                qtype: q.qtype,
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

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, d: &Datagram, resp: Message) {
        // Match pending by (source address, destination port, TXID) — the
        // challenge-response triple of RFC 5452.
        let Some((&id, _)) = self
            .pending
            .iter()
            .find(|(_, p)| p.server == d.src && p.sport == d.dst_port && p.txid == resp.header.id)
        else {
            return; // unsolicited (a blind-spoofing miss)
        };
        let now = ctx.now();
        let (zone, qname, qtype, depth) = {
            let p = &self.pending[&id];
            (p.zone.clone(), p.qname.clone(), p.qtype, p.depth)
        };
        // Bailiwick: discard records outside the zone we queried.
        let mut in_bailiwick = |records: &[Record]| -> Vec<Record> {
            let (keep, reject): (Vec<_>, Vec<_>) =
                records.iter().cloned().partition(|r| r.name.is_subdomain_of(&zone));
            self.stats.bailiwick_rejects += reject.len() as u64;
            keep
        };
        let answers = in_bailiwick(&resp.answers);
        let authorities = in_bailiwick(&resp.authorities);
        let additionals = in_bailiwick(&resp.additionals);

        // Group records into RRsets for validation and caching.
        let mut rrsets: FastMap<(Name, RecordType), Vec<Record>> = FastMap::default();
        for r in answers.iter().chain(&authorities).chain(&additionals) {
            if r.rtype() == RecordType::Opt {
                continue;
            }
            rrsets.entry((r.name.clone(), r.rtype())).or_default().push(r.clone());
        }
        if let Some(anchors) = &self.config.validation {
            // Validate answer-section RRsets under signed zones. Glue and
            // authority data are not validated — matching real DNSSEC,
            // where glue is unsigned; this is precisely why the glue
            // poisoning lands even on validating resolvers, while the
            // *final* forged answer for a signed name still fails here.
            let answer_keys: FastSet<(Name, RecordType)> =
                answers.iter().map(|r| (r.name.clone(), r.rtype())).collect();
            for ((name, rtype), set) in &rrsets {
                if *rtype == RecordType::Rrsig || !answer_keys.contains(&(name.clone(), *rtype)) {
                    continue;
                }
                let mut with_sigs = set.clone();
                if let Some(sigs) = rrsets.get(&(name.clone(), RecordType::Rrsig)) {
                    with_sigs.extend(sigs.iter().cloned());
                }
                if !anchors.validate(name, *rtype, &with_sigs) {
                    self.stats.validation_failures += 1;
                    self.reply_to_clients(ctx, id, Vec::new(), Rcode::ServFail);
                    return;
                }
            }
        }
        for ((name, rtype), set) in rrsets {
            self.cache.insert(now, name, rtype, set);
        }

        // Did we get an answer for the question?
        let matching: Vec<Record> = answers
            .iter()
            .filter(|r| r.name == qname && (r.rtype() == qtype || r.rtype() == RecordType::Rrsig))
            .cloned()
            .collect();
        if matching.iter().any(|r| r.rtype() == qtype) {
            self.reply_to_clients(ctx, id, matching, Rcode::NoError);
            return;
        }
        // Delegation? Follow NS records for a subzone of our current zone.
        let delegation: Option<(Name, Ipv4Addr)> = authorities
            .iter()
            .filter_map(|r| {
                let target = r.as_ns()?;
                if !qname.is_subdomain_of(&r.name) || r.name.label_count() <= zone.label_count() {
                    return None;
                }
                let addr = additionals
                    .iter()
                    .find(|g| g.name == *target && g.rtype() == RecordType::A)
                    .and_then(Record::as_a)
                    .or_else(|| {
                        self.cache
                            .lookup(now, target, RecordType::A)
                            .and_then(|h| h.records.first().and_then(Record::as_a))
                    })?;
                Some((r.name.clone(), addr))
            })
            .next();
        if let Some((subzone, addr)) = delegation {
            if depth < MAX_DEPTH {
                let (sport, txid) = Self::challenge(ctx);
                let p = self.pending.get_mut(&id).expect("pending exists");
                p.zone = subzone;
                p.server = addr;
                p.sport = sport;
                p.txid = txid;
                p.attempts = 0;
                p.depth += 1;
                self.send_upstream(ctx, id);
                return;
            }
        }
        let rcode =
            if resp.header.rcode == Rcode::NxDomain { Rcode::NxDomain } else { Rcode::NoError };
        self.reply_to_clients(ctx, id, matching, rcode);
    }
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
        let Ok(msg) = Message::decode(&d.payload) else { return };
        if msg.header.qr {
            self.handle_upstream_response(ctx, d, msg);
        } else if d.dst_port == DNS_PORT {
            self.handle_client_query(ctx, d, msg);
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
            self.reply_to_clients(ctx, id, Vec::new(), Rcode::ServFail);
            return;
        }
        // Re-randomise the challenge and re-select the nameserver on retry
        // (a dead NS must not wedge the resolution).
        let qname = p.qname.clone();
        let (sport, txid) = Self::challenge(ctx);
        let reselected = self.find_nameserver(ctx.now(), ctx, &qname);
        let p = self.pending.get_mut(&id).expect("pending exists");
        p.sport = sport;
        p.txid = txid;
        if let Some((zone, server)) = reselected {
            p.zone = zone;
            p.server = server;
        }
        self.send_upstream(ctx, id);
    }
}
