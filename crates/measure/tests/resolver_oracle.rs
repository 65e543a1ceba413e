//! The resolver reads queries and replies in place and writes each
//! message once; `oracle::Resolver` is the decode-clone-encode resolver
//! it replaced. Both run the first 2,000 seed-2020 survey trials and a set
//! of edge cases, and must reach the same outcome and counters and send
//! the same bytes: every datagram either resolver sends is logged, with
//! its destination and ports, and the logs must be equal.

mod oracle;

use std::net::Ipv4Addr;

use bytes::Bytes;
use dns::auth::{spawn_zone_nameservers, DNS_PORT};
use dns::cache::DnsCache;
use dns::dnssec::{TrustAnchors, ZoneKey};
use dns::message::{Message, Question, Rcode};
use dns::name::Name;
use dns::record::{Record, RecordType};
use dns::resolver::{Resolver, ResolverConfig, ResolverStats};
use dns::zone::pool_zone;
use measure::population::open_resolver_at;
use measure::scan_seed;
use measure::snoop::{resolver_addr, scan_resolver_with, SurveyResolver};
use netsim::prelude::*;

/// One datagram a resolver sent: destination, ports and payload.
type Sent = (Ipv4Addr, u16, u16, Bytes);

/// A resolver host that logs every datagram it sends.
struct Tapped<R> {
    inner: R,
    sent: Vec<Sent>,
}

impl<R> Tapped<R> {
    /// Runs one callback of the inner host, logging what it sends.
    fn tap(&mut self, ctx: &mut Ctx<'_>, call: impl FnOnce(&mut R, &mut Ctx<'_>)) {
        let before = ctx.sent_udp().count();
        call(&mut self.inner, ctx);
        let sent = ctx.sent_udp().skip(before);
        self.sent.extend(sent.map(|(dst, d)| (dst, d.src_port, d.dst_port, d.payload.clone())));
    }
}

impl<R: Host> Host for Tapped<R> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tap(ctx, |inner, ctx| inner.on_start(ctx));
    }

    fn on_raw_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Ipv4Packet) -> bool {
        let mut consumed = false;
        self.tap(ctx, |inner, ctx| consumed = inner.on_raw_packet(ctx, pkt));
        consumed
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        self.tap(ctx, |inner, ctx| inner.on_datagram(ctx, d));
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, msg: &IcmpMessage) {
        self.tap(ctx, |inner, ctx| inner.on_icmp(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.tap(ctx, |inner, ctx| inner.on_timer(ctx, token));
    }
}

/// What the two resolvers share: construction, the cache and counters.
trait Resolves: SurveyResolver {
    fn stats(&self) -> ResolverStats;
}

impl Resolves for Resolver {
    fn stats(&self) -> ResolverStats {
        self.stats
    }
}

impl SurveyResolver for oracle::Resolver {
    fn build(config: ResolverConfig, hints: Hints) -> Self {
        oracle::Resolver::new(config, hints)
    }

    fn cache_mut(&mut self) -> &mut DnsCache {
        oracle::Resolver::cache_mut(self)
    }
}

impl Resolves for oracle::Resolver {
    fn stats(&self) -> ResolverStats {
        self.stats
    }
}

impl<R: Resolves> SurveyResolver for Tapped<R> {
    fn build(config: ResolverConfig, hints: Hints) -> Self {
        Tapped { inner: R::build(config, hints), sent: Vec::new() }
    }

    fn cache_mut(&mut self) -> &mut DnsCache {
        self.inner.cache_mut()
    }
}

/// Everything a run shows of a resolver: its counters, the simulation's
/// and the datagrams it sent.
#[derive(Debug, PartialEq)]
struct Trace {
    stats: ResolverStats,
    sim: SimStats,
    sent: Vec<Sent>,
}

fn trace<R: Resolves>(sim: &Simulator, at: Ipv4Addr) -> Trace {
    let resolver = sim.host::<Tapped<R>>(at).expect("resolver host");
    Trace { stats: resolver.inner.stats(), sim: sim.stats(), sent: resolver.sent.clone() }
}

#[test]
fn survey_trials_send_the_oracles_bytes() {
    // The survey's zones and queries are built on first use, inside the
    // first trial's buffer-pool count: build them before comparing.
    scan_resolver_with::<Resolver>(&open_resolver_at(2020, 0), scan_seed(2020, 0));
    let mut replies = 0;
    for idx in 0..2_000 {
        let (spec, seed) = (open_resolver_at(2020, idx), scan_seed(2020, idx));
        // Each simulator resets the thread's buffer pool, whose counters
        // `SimStats` reads: take each trace before the next world.
        let (outcome, sim) = scan_resolver_with::<Tapped<Resolver>>(&spec, seed);
        let got = trace::<Resolver>(&sim, resolver_addr());
        drop(sim);
        let (expected, oracle) = scan_resolver_with::<Tapped<oracle::Resolver>>(&spec, seed);
        let want = trace::<oracle::Resolver>(&oracle, resolver_addr());
        assert_eq!(outcome, expected, "outcome of index {idx}");
        assert_eq!(got, want, "traffic of index {idx}");
        replies += got.sent.len();
    }
    assert!(replies > 10_000, "{replies} datagrams sent in 2,000 trials");
}

// ---- Edge cases: one small world per case, the same for both resolvers.

const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const OTHER_CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 101);
const POOL_NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const PARENT_NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 200);
const BLACK_HOLE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 250);

fn name(s: &str) -> Name {
    s.parse().expect("test name")
}

fn pool() -> Name {
    name("pool.ntp.org")
}

/// Sends each query at its time, and keeps every reply's payload.
struct Client {
    queries: Vec<(SimDuration, Bytes)>,
    replies: Vec<Bytes>,
}

impl Host for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (at, _)) in self.queries.iter().enumerate() {
            ctx.set_timer(*at, i as TimerToken);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let payload = self.queries[token as usize].1.clone();
        ctx.send_udp(RESOLVER, 5300, DNS_PORT, payload);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        self.replies.push(d.payload.clone());
    }
}

/// An authority that answers every query with what `respond` makes of it.
struct Scripted(fn(&Message) -> Message);

impl Host for Scripted {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        let Ok(query) = Message::decode(&d.payload) else { return };
        let reply = (self.0)(&query).encode().expect("a small reply");
        ctx.send_udp(d.src, DNS_PORT, d.src_port, reply);
    }
}

/// The pool zone's four nameservers (the first at [`POOL_NS`]).
fn pool_servers(sim: &mut Simulator) -> Vec<Ipv4Addr> {
    let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    spawn_zone_nameservers(sim, [pool_zone(servers, 4, POOL_NS)], OsProfile::nameserver(548))
}

/// A resolver's hints: zone apexes and their nameservers' addresses.
type Hints = Vec<(Name, Vec<Ipv4Addr>)>;

/// One edge case: the resolver's configuration, the authorities it can
/// reach (returning its hints), and who sends which query when.
struct Case {
    config: ResolverConfig,
    world: fn(&mut Simulator) -> Hints,
    queries: Vec<(Ipv4Addr, SimDuration, Bytes)>,
}

/// The traffic of `case` around resolver `R`, and each client's replies
/// (in [`Case::queries`]' client order).
fn run_case<R: Resolves>(case: &Case) -> (Trace, Vec<Vec<Bytes>>) {
    let mut sim = Simulator::with_topology(
        11,
        Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10))),
    );
    let hints = (case.world)(&mut sim);
    let resolver = Tapped::<R>::build(case.config.clone(), hints);
    sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).expect("resolver");
    let mut clients: Vec<Ipv4Addr> = Vec::new();
    for (addr, _, _) in &case.queries {
        if !clients.contains(addr) {
            clients.push(*addr);
        }
    }
    for &addr in &clients {
        let queries = case
            .queries
            .iter()
            .filter(|(a, _, _)| *a == addr)
            .map(|(_, at, q)| (*at, q.clone()))
            .collect();
        let client = Client { queries, replies: Vec::new() };
        sim.add_host(addr, OsProfile::linux(), Box::new(client)).expect("client");
    }
    sim.run_for(SimDuration::from_secs(30));
    let replies =
        clients.iter().map(|&a| sim.host::<Client>(a).expect("client").replies.clone()).collect();
    (trace::<R>(&sim, RESOLVER), replies)
}

/// Runs `case` around both resolvers, requires equal traffic, and
/// returns the new resolver's counters and the clients' replies.
fn same_as_oracle(label: &str, case: &Case) -> (ResolverStats, Vec<Vec<Bytes>>) {
    let (got, replies) = run_case::<Resolver>(case);
    let (want, oracle_replies) = run_case::<oracle::Resolver>(case);
    assert_eq!(got, want, "{label}: traffic differs from the oracle");
    assert_eq!(replies, oracle_replies, "{label}: replies differ from the oracle");
    (got.stats, replies)
}

fn query(id: u16, qname: &str, qtype: RecordType, rd: bool) -> Bytes {
    Message::query(id, name(qname), qtype, rd).encode().expect("a short query")
}

fn at(secs: u64) -> SimDuration {
    SimDuration::from_secs(secs)
}

fn decoded(reply: &Bytes) -> Message {
    Message::decode(reply).expect("a well-formed reply")
}

fn pool_hints(sim: &mut Simulator) -> Hints {
    vec![(pool(), pool_servers(sim))]
}

#[test]
fn mixed_case_qnames_are_echoed_lower_cased() {
    let case = Case {
        config: ResolverConfig::default(),
        world: pool_hints,
        queries: vec![
            (CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true)),
            (CLIENT, at(2), mixed_case(query(2, "pool.ntp.org", RecordType::A, true))),
            (CLIENT, at(3), mixed_case(query(3, "pool.ntp.org", RecordType::A, false))),
        ],
    };
    let (stats, replies) = same_as_oracle("mixed case", &case);
    assert_eq!(stats.cache_hits, 2);
    for reply in &replies[0][1..] {
        assert!(reply.windows(5).any(|w| w == b"\x04pool"), "question echoed lower-cased");
        assert_eq!(decoded(reply).answers.len(), 4);
    }
}

/// `wire` with its question name's letters alternating in case.
fn mixed_case(wire: Bytes) -> Bytes {
    let mut bytes = wire.to_vec();
    for (i, b) in bytes[12..].iter_mut().enumerate() {
        if b.is_ascii_lowercase() && i % 2 == 0 {
            *b = b.to_ascii_uppercase();
        }
    }
    Bytes::from(bytes)
}

#[test]
fn two_question_queries_echo_both_and_answer_the_first() {
    let mut two = Message::query(7, pool(), RecordType::A, true);
    two.questions.push(Question { name: name("ns1.pool.ntp.org"), qtype: RecordType::A });
    let two = two.encode().expect("a short query");
    let case = Case {
        config: ResolverConfig::default(),
        world: pool_hints,
        queries: vec![(CLIENT, at(1), two.clone()), (CLIENT, at(2), two)],
    };
    let (stats, replies) = same_as_oracle("two questions", &case);
    assert_eq!(stats.cache_hits, 1);
    let cached = decoded(&replies[0][1]);
    assert_eq!(cached.questions.len(), 2);
    assert_eq!(cached.answers.len(), 4);
}

#[test]
fn queries_without_a_question_get_no_reply() {
    let mut empty = query(9, "pool.ntp.org", RecordType::A, true).to_vec();
    empty.truncate(12);
    empty[4..6].copy_from_slice(&[0, 0]);
    let case = Case {
        config: ResolverConfig::default(),
        world: pool_hints,
        queries: vec![(CLIENT, at(1), Bytes::from(empty))],
    };
    let (stats, replies) = same_as_oracle("qdcount 0", &case);
    assert_eq!(stats.client_queries, 1);
    assert!(replies[0].is_empty());
}

#[test]
fn rd0_to_an_rd_ignoring_resolver_recurses() {
    let case = Case {
        config: ResolverConfig { respects_rd: false, validation: None },
        world: pool_hints,
        queries: vec![(CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, false))],
    };
    let (stats, replies) = same_as_oracle("rd ignored", &case);
    assert_eq!(stats.upstream_queries, 1);
    assert_eq!(decoded(&replies[0][0]).answers.len(), 4);
}

#[test]
fn nxdomain_is_passed_on() {
    let case = Case {
        config: ResolverConfig::default(),
        world: pool_hints,
        queries: vec![(CLIENT, at(1), query(1, "nope.pool.ntp.org", RecordType::A, true))],
    };
    let (_, replies) = same_as_oracle("nxdomain", &case);
    assert_eq!(decoded(&replies[0][0]).header.rcode, Rcode::NxDomain);
}

#[test]
fn servfail_without_hints() {
    let case = Case {
        config: ResolverConfig::default(),
        world: |_| Vec::new(),
        queries: vec![(CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true))],
    };
    let (stats, replies) = same_as_oracle("no hints", &case);
    assert_eq!((stats.servfails, stats.upstream_queries), (1, 0));
    assert_eq!(decoded(&replies[0][0]).header.rcode, Rcode::ServFail);
}

#[test]
fn servfail_after_the_retries() {
    let case = Case {
        config: ResolverConfig::default(),
        world: |_| vec![(pool(), vec![BLACK_HOLE])],
        queries: vec![(CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true))],
    };
    let (stats, replies) = same_as_oracle("retries", &case);
    assert_eq!((stats.servfails, stats.upstream_queries, stats.timeouts), (1, 3, 3));
    assert_eq!(decoded(&replies[0][0]).header.rcode, Rcode::ServFail);
}

/// A parent for `ntp.org` that refers `pool.ntp.org` to [`POOL_NS`].
fn referral(query: &Message) -> Message {
    let ns = name("ns1.pool.ntp.org");
    let mut resp = Message::response_to(query);
    resp.authorities.push(Record::ns(pool(), 3600, ns.clone()));
    resp.additionals.push(Record::a(ns, 3600, POOL_NS));
    resp
}

#[test]
fn delegations_are_followed() {
    let case = Case {
        config: ResolverConfig::default(),
        world: |sim| with_parent(sim, referral),
        queries: vec![
            (CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true)),
            (CLIENT, at(2), query(2, "0.pool.ntp.org", RecordType::A, true)),
        ],
    };
    let (stats, replies) = same_as_oracle("delegation", &case);
    assert_eq!(stats.upstream_queries, 3, "a referral, then the pool zone twice");
    assert_eq!(decoded(&replies[0][0]).answers.len(), 4);
    assert_eq!(decoded(&replies[0][1]).answers.len(), 4);
}

/// A parent for `ntp.org` that answers `ns1.pool.ntp.org` A itself and
/// refers everything else to it without glue.
fn glueless_referral(query: &Message) -> Message {
    let ns = name("ns1.pool.ntp.org");
    let mut resp = Message::response_to(query);
    match query.question() {
        Some(q) if q.name == ns => resp.answers.push(Record::a(ns, 3600, POOL_NS)),
        _ => resp.authorities.push(Record::ns(pool(), 3600, ns)),
    }
    resp
}

/// A referral whose nameserver address rides in the answer section.
fn glue_in_answers(query: &Message) -> Message {
    let mut resp = referral(query);
    let glue = resp.additionals.pop().expect("referral glue");
    resp.answers.push(glue);
    resp
}

/// [`glue_in_answers`], with that address at TTL 0: cached, but never
/// fresh.
fn stale_glue_in_answers(query: &Message) -> Message {
    let mut resp = glue_in_answers(query);
    resp.answers[0].ttl = 0;
    resp
}

fn with_parent(sim: &mut Simulator, parent: fn(&Message) -> Message) -> Hints {
    pool_servers(sim);
    sim.add_host(PARENT_NS, OsProfile::linux(), Box::new(Scripted(parent))).expect("parent");
    vec![(name("ntp.org"), vec![PARENT_NS])]
}

#[test]
fn glueless_delegations_find_the_nameserver_in_the_cache() {
    let pool_a = |id| query(id, "pool.ntp.org", RecordType::A, true);
    let cached = Case {
        config: ResolverConfig::default(),
        world: |sim| with_parent(sim, glueless_referral),
        queries: vec![
            (CLIENT, at(1), query(1, "ns1.pool.ntp.org", RecordType::A, true)),
            (CLIENT, at(2), pool_a(2)),
        ],
    };
    let (stats, replies) = same_as_oracle("glue cached earlier", &cached);
    assert_eq!(stats.upstream_queries, 3);
    assert_eq!(decoded(&replies[0][1]).answers.len(), 4);

    let in_answers = Case {
        config: ResolverConfig::default(),
        world: |sim| with_parent(sim, glue_in_answers),
        queries: vec![(CLIENT, at(1), pool_a(1))],
    };
    let (stats, replies) = same_as_oracle("glue in the answers", &in_answers);
    assert_eq!(stats.upstream_queries, 2);
    assert_eq!(decoded(&replies[0][0]).answers.len(), 4);

    let stale = Case {
        config: ResolverConfig::default(),
        world: |sim| with_parent(sim, stale_glue_in_answers),
        queries: vec![(CLIENT, at(1), pool_a(1))],
    };
    let (stats, replies) = same_as_oracle("stale glue in the answers", &stale);
    assert_eq!(stats.upstream_queries, 1, "a TTL-0 address is not followed");
    assert!(decoded(&replies[0][0]).answers.is_empty());
}

/// The pool zone's answer, plus records outside it in every section.
fn out_of_bailiwick(query: &Message) -> Message {
    let mut resp = Message::response_to(query);
    resp.header.aa = true;
    let evil = Ipv4Addr::new(6, 6, 6, 6);
    for i in 1..=4 {
        resp.answers.push(Record::a(pool(), 150, Ipv4Addr::new(192, 0, 2, i)));
    }
    resp.answers.push(Record::a(name("time.example"), 86_400, evil));
    resp.authorities.push(Record::ns(pool(), 3600, name("ns1.pool.ntp.org")));
    resp.authorities.push(Record::ns(name("ntp.org"), 3600, name("ns.evil.example")));
    resp.additionals.push(Record::a(name("ns1.pool.ntp.org"), 3600, POOL_NS));
    resp.additionals.push(Record::a(name("ns.evil.example"), 3600, evil));
    resp
}

#[test]
fn out_of_bailiwick_records_are_rejected() {
    let case = Case {
        config: ResolverConfig::default(),
        world: |sim| {
            sim.add_host(POOL_NS, OsProfile::linux(), Box::new(Scripted(out_of_bailiwick)))
                .expect("authority");
            vec![(pool(), vec![POOL_NS])]
        },
        queries: vec![
            (CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true)),
            (CLIENT, at(2), query(2, "time.example", RecordType::A, false)),
        ],
    };
    let (stats, replies) = same_as_oracle("bailiwick", &case);
    assert_eq!(stats.bailiwick_rejects, 3);
    assert_eq!(decoded(&replies[0][0]).answers.len(), 4);
    assert!(decoded(&replies[0][1]).answers.is_empty(), "nothing out of bailiwick cached");
}

#[test]
fn unsigned_answers_in_a_signed_zone_fail_validation() {
    let mut anchors = TrustAnchors::new();
    anchors.add(pool(), ZoneKey(0x5eed));
    let case = Case {
        config: ResolverConfig { respects_rd: true, validation: Some(anchors) },
        world: pool_hints,
        queries: vec![(CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true))],
    };
    let (stats, replies) = same_as_oracle("validation", &case);
    assert_eq!((stats.validation_failures, stats.servfails), (1, 1));
    assert_eq!(decoded(&replies[0][0]).header.rcode, Rcode::ServFail);
}

#[test]
fn identical_queries_join_one_resolution() {
    let case = Case {
        config: ResolverConfig::default(),
        world: pool_hints,
        queries: vec![
            (CLIENT, at(1), query(1, "pool.ntp.org", RecordType::A, true)),
            (OTHER_CLIENT, at(1), query(2, "pool.ntp.org", RecordType::A, true)),
        ],
    };
    let (stats, replies) = same_as_oracle("joined", &case);
    assert_eq!(stats.upstream_queries, 1);
    assert_eq!(decoded(&replies[0][0]).answers, decoded(&replies[1][0]).answers);
    assert_eq!(decoded(&replies[1][0]).header.id, 2);
}
