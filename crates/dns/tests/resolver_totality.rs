//! The resolver reads attacker-controlled bytes in place, so it must be
//! total over them. Arbitrary bytes, and truncations and bit flips of
//! real replies and queries, reach a `Resolver` twice: as a client query to port 53,
//! and as the reply to a pending resolution, from its nameserver's
//! address to its source port with its TXID written in. The resolver
//! never panics, and sends nothing while handling bytes that
//! `Message::decode` rejects.

use std::net::Ipv4Addr;

use bytes::Bytes;
use dns::dnssec::{make_rrsig, TrustAnchors, ZoneKey};
use dns::prelude::*;
use netsim::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const NAMESERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const KEY: ZoneKey = ZoneKey(0x5eed);

/// The resolver, checking that bytes `Message::decode` rejects make it
/// send nothing.
struct Checked(Resolver);

impl Host for Checked {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        let before = ctx.sent_udp().count();
        self.0.on_datagram(ctx, d);
        let sent = ctx.sent_udp().count() - before;
        if Message::decode(&d.payload).is_err() {
            assert_eq!(sent, 0, "sent {sent} datagrams for undecodable bytes {:?}", d.payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.0.on_timer(ctx, token);
    }
}

/// A nameserver that answers every query with `reply`, the query's TXID
/// written over its first two bytes.
struct Injector {
    reply: Vec<u8>,
}

impl Host for Injector {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        let mut reply = self.reply.clone();
        if let (Some(id), Some(txid)) = (reply.get_mut(..2), d.payload.get(..2)) {
            id.copy_from_slice(txid);
        }
        ctx.send_udp(d.src, DNS_PORT, d.src_port, Bytes::from(reply));
    }
}

/// Sends `payload` as a query, then a well-formed RD=1 query the
/// resolver sends on to the [`Injector`], which it knows as `ntp.org`'s
/// nameserver.
struct Client {
    payload: Bytes,
}

impl Host for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_udp(RESOLVER, 5300, DNS_PORT, self.payload.clone());
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        let query = Message::query(77, pool(), RecordType::A, true);
        ctx.send_udp(RESOLVER, 5300, DNS_PORT, query.encode().expect("a short query"));
    }
}

fn pool() -> Name {
    "pool.ntp.org".parse().expect("static name")
}

/// Real messages: the replies of [`real_replies`], and queries a client
/// could send — plain, with an EDNS0 OPT record, and with two questions.
fn real_messages() -> Vec<Vec<u8>> {
    let mut messages = real_replies();
    let plain = Message::query(3, pool(), RecordType::A, false);
    let mut edns = plain.clone();
    edns.additionals.push(Record::new(Name::root(), 0, RData::Opt { udp_payload_size: 4096 }));
    let mut two = plain.clone();
    two.questions.push(Question {
        name: "ns1.pool.ntp.org".parse().expect("name"),
        ..two.questions[0].clone()
    });
    for query in [plain, edns, two] {
        messages.push(query.encode().expect("a short query").to_vec());
    }
    messages
}

/// Replies a resolver asking for `pool.ntp.org` A could get: a pool
/// answer with authority and glue, a signed answer, a referral, an
/// NXDOMAIN and an answer carrying out-of-bailiwick records.
fn real_replies() -> Vec<Vec<u8>> {
    let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    let mut server = AuthServer::new(vec![pool_zone(servers, 4, NAMESERVER)]);
    let query = Message::query(1, pool(), RecordType::A, false);
    let mut rng = SmallRng::seed_from_u64(1);
    let answer = server.answer(&query, &mut rng);

    let mut signed = answer.clone();
    let rrsig = make_rrsig(KEY, &pool(), &pool(), RecordType::A, 150, &signed.answers);
    signed.answers.push(rrsig);

    let ns: Name = "ns1.pool.ntp.org".parse().expect("static name");
    let mut referral = Message::response_to(&query);
    referral.authorities.push(Record::ns(pool(), 3600, ns.clone()));
    referral.additionals.push(Record::a(ns, 3600, NAMESERVER));

    let mut nxdomain = Message::response_to(&query);
    nxdomain.header.rcode = Rcode::NxDomain;

    let mut stray = answer.clone();
    let evil: Name = "time.example".parse().expect("static name");
    stray.answers.push(Record::a(evil.clone(), 86_400, Ipv4Addr::new(6, 6, 6, 6)));
    stray.additionals.push(Record::new(evil, 60, RData::Txt("hello".into())));

    [answer, signed, referral, nxdomain, stray]
        .iter()
        .map(|m| m.encode().expect("a small reply").to_vec())
        .collect()
}

/// Arbitrary bytes, or a real message truncated or with bits flipped.
fn input(rng: &mut SmallRng, messages: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = messages[rng.random_range(0..messages.len())].clone();
    match rng.random_range(0..3) {
        0 => {
            let len = rng.random_range(0..600);
            (0..len).map(|_| rng.random()).collect()
        }
        1 => {
            bytes.truncate(rng.random_range(0..bytes.len()));
            bytes
        }
        _ => {
            for _ in 0..rng.random_range(1..4) {
                let bit = rng.random_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            bytes
        }
    }
}

/// Runs a world in which `payload` reaches the resolver both ways, with
/// or without validation; returns the resolver's counters, and whether
/// it cached a `pool.ntp.org` A RRset.
fn run(payload: Vec<u8>, validating: bool) -> (ResolverStats, bool) {
    let mut sim = Simulator::new(7);
    let validation = validating.then(|| {
        let mut anchors = TrustAnchors::new();
        anchors.add(pool(), KEY);
        anchors
    });
    let config = ResolverConfig { respects_rd: true, validation };
    let hints = vec![("ntp.org".parse().expect("static name"), vec![NAMESERVER])];
    let resolver = Resolver::new(config, hints);
    sim.add_host(RESOLVER, OsProfile::linux(), Box::new(Checked(resolver))).expect("resolver");
    let injector = Injector { reply: payload.clone() };
    sim.add_host(NAMESERVER, OsProfile::linux(), Box::new(injector)).expect("nameserver");
    let client = Client { payload: Bytes::from(payload) };
    sim.add_host(CLIENT, OsProfile::linux(), Box::new(client)).expect("client");
    sim.run_for(SimDuration::from_secs(20));
    let Checked(resolver) = sim.host::<Checked>(RESOLVER).expect("resolver");
    (resolver.stats, resolver.cache().contains(sim.now(), &pool(), RecordType::A))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resolver_is_total_over_hostile_bytes(seed in any::<u64>(), validating in any::<bool>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let payload = input(rng, &real_messages());
        let (stats, _) = run(payload, validating);
        prop_assert!(stats.upstream_queries >= 1, "the well-formed query went upstream");
    }
}

#[test]
fn real_replies_are_read() {
    let replies = real_replies();
    let outcomes: Vec<_> = replies.iter().map(|r| run(r.clone(), true)).collect();
    let [answer, signed, referral, nxdomain, stray] = &outcomes[..] else { panic!("five replies") };
    assert_eq!((answer.0.validation_failures, answer.1), (1, false), "unsigned: {answer:?}");
    assert_eq!((signed.0.validation_failures, signed.1), (0, true), "signed: {signed:?}");
    assert_eq!(referral.0.upstream_queries, 2, "ntp.org refers pool.ntp.org; that is all");
    assert!(!nxdomain.1, "{nxdomain:?}");
    assert_eq!(stray.0.bailiwick_rejects, 2, "{stray:?}");
}
