//! Client-side DNS helpers: a stub resolver for embedding in other hosts
//! (NTP clients, scanners) and one-shot lookup utilities for tests.
//!
//! The stub writes each query with [`query_bytes`] and walks each reply in
//! place ([`MessageView::with_spans`] into a reused span buffer), so a
//! lookup allocates only the two `Vec`s of its [`DnsReply`].

use netsim::fasthash::FastSet;
use std::net::Ipv4Addr;

use netsim::prelude::*;
use rand::RngExt;

use crate::auth::DNS_PORT;
use crate::message::{query_bytes, MessageView, RecordSpan, Section};
use crate::name::Name;
use crate::record::RecordType;

/// A parsed DNS reply delivered back through [`StubResolver::handle`].
#[derive(Debug, Clone)]
pub struct DnsReply {
    /// A-record addresses in the answer.
    pub addrs: Vec<Ipv4Addr>,
    /// TTLs parallel to `addrs`.
    pub ttls: Vec<u32>,
}

/// A minimal stub resolver for hosts that perform DNS lookups through the
/// simulated network. The owner forwards incoming datagrams on its query
/// port to [`StubResolver::handle`].
#[derive(Debug)]
pub struct StubResolver {
    resolver: Ipv4Addr,
    port: u16,
    /// TXIDs of the queries still awaiting a reply.
    pending: FastSet<u16>,
    /// The record spans of the reply [`StubResolver::handle`] last walked.
    spans: Vec<RecordSpan>,
}

impl StubResolver {
    /// Creates a stub pointing at `resolver`, sourcing queries from local
    /// UDP port `port`.
    pub fn new(resolver: Ipv4Addr, port: u16) -> Self {
        StubResolver { resolver, port, pending: FastSet::default(), spans: Vec::new() }
    }

    /// Sends an A query with RD=1; returns the TXID.
    pub fn query_a(&mut self, ctx: &mut Ctx<'_>, name: &Name) -> u16 {
        self.query(ctx, name, RecordType::A, true)
    }

    /// Sends a query, written by [`query_bytes`]; returns the TXID.
    pub fn query(&mut self, ctx: &mut Ctx<'_>, name: &Name, qtype: RecordType, rd: bool) -> u16 {
        let txid: u16 = ctx.rng().random();
        ctx.send_udp(self.resolver, self.port, DNS_PORT, query_bytes(txid, name, qtype, rd));
        self.pending.insert(txid);
        txid
    }

    /// Attempts to interpret a datagram as a reply to one of our pending
    /// queries. Returns `None` for unrelated traffic.
    pub fn handle(&mut self, d: &Datagram) -> Option<DnsReply> {
        if d.dst_port != self.port || d.src != self.resolver {
            return None;
        }
        let view = MessageView::with_spans(&d.payload, &mut self.spans).ok()?;
        let header = view.header();
        if !header.qr || !self.pending.remove(&header.id) {
            return None;
        }
        let data = view.bytes();
        let (addrs, ttls) = self
            .spans
            .iter()
            .filter(|span| span.section == Section::Answer)
            .filter_map(|span| Some((span.a_addr(data)?, span.ttl(data)?)))
            .unzip();
        Some(DnsReply { addrs, ttls })
    }
}

/// A one-shot lookup host used by tests and scanners: sends a single query
/// on start and records the answer.
#[derive(Debug)]
pub struct OneShot {
    stub: StubResolver,
    name: Name,
    /// The addresses from the reply (empty until it arrives, or on failure).
    pub addrs: Vec<Ipv4Addr>,
}

impl OneShot {
    /// Creates a host that will query `resolver` for `name` (A, RD=1).
    pub fn new(resolver: Ipv4Addr, name: Name) -> Self {
        OneShot { stub: StubResolver::new(resolver, 5353), name, addrs: Vec::new() }
    }

    /// Adds the host to `sim` at `addr` and returns `addr` for later
    /// [`OneShot::result`] retrieval.
    pub fn spawn(sim: &mut Simulator, addr: Ipv4Addr, resolver: Ipv4Addr, name: Name) -> Ipv4Addr {
        sim.add_host(addr, OsProfile::linux(), Box::new(OneShot::new(resolver, name)))
            .expect("address free");
        addr
    }

    /// The addresses received by the host spawned at `addr`.
    pub fn result(sim: &Simulator, addr: Ipv4Addr) -> Vec<Ipv4Addr> {
        sim.host::<OneShot>(addr).map(|h| h.addrs.clone()).unwrap_or_default()
    }
}

impl Host for OneShot {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stub.query_a(ctx, &self.name);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        if let Some(reply) = self.stub.handle(d) {
            self.addrs = reply.addrs;
        }
    }
}

/// Adds a host at `preferred`, or the next free consecutive address if it
/// is taken. Returns the address actually used.
fn spawn_at_free(
    sim: &mut Simulator,
    preferred: Ipv4Addr,
    mut make: impl FnMut() -> Box<dyn Host>,
) -> Ipv4Addr {
    let mut addr = preferred;
    loop {
        match sim.add_host(addr, OsProfile::linux(), make()) {
            Ok(_) => return addr,
            Err(_) => addr = Ipv4Addr::from(u32::from(addr).wrapping_add(1)),
        }
    }
}

/// Runs a blocking A lookup through `sim`: spawns a throwaway [`OneShot`]
/// at `client` (or the next free address), advances the simulation up to 10
/// simulated seconds, and returns the addresses (empty on SERVFAIL/timeout).
pub fn lookup_once(
    sim: &mut Simulator,
    client: Ipv4Addr,
    resolver: Ipv4Addr,
    name: &Name,
) -> Vec<Ipv4Addr> {
    let addr = spawn_at_free(sim, client, || Box::new(OneShot::new(resolver, name.clone())));
    sim.run_for(SimDuration::from_secs(10));
    sim.host::<OneShot>(addr).map(|h| h.addrs.clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use bytes::Bytes;

    /// Sends every query of `QUESTIONS` through one stub on start.
    struct Asker {
        stub: StubResolver,
        txids: Vec<u16>,
    }

    const QUESTIONS: [(&str, RecordType, bool); 4] = [
        ("pool.ntp.org", RecordType::A, true),
        ("pool.ntp.org", RecordType::A, true),
        ("2.debian.pool.ntp.org.example-long-suffix.net", RecordType::Ns, false),
        ("ntp.org", RecordType::Txt, true),
    ];

    impl Host for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (name, qtype, rd) in QUESTIONS {
                let txid = self.stub.query(ctx, &name.parse().unwrap(), qtype, rd);
                self.txids.push(txid);
            }
        }
    }

    /// Keeps the payload of every datagram it receives.
    struct Sink(Vec<Bytes>);

    impl Host for Sink {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
            self.0.push(d.payload.clone());
        }
    }

    /// The stub's encoder writes each query as the owned builder encodes
    /// it, however many queries it wrote before.
    #[test]
    fn queries_are_the_owned_builders_bytes() {
        let (client, resolver) = ("10.0.0.1".parse().unwrap(), "10.0.0.53".parse().unwrap());
        let mut sim = Simulator::new(7);
        let asker = Asker { stub: StubResolver::new(resolver, 7777), txids: Vec::new() };
        sim.add_host(client, OsProfile::linux(), Box::new(asker)).unwrap();
        sim.add_host(resolver, OsProfile::linux(), Box::new(Sink(Vec::new()))).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        let txids = &sim.host::<Asker>(client).unwrap().txids;
        let sent = &sim.host::<Sink>(resolver).unwrap().0;
        assert_eq!(sent.len(), QUESTIONS.len());
        // Links may reorder the queries; each carries its own TXID.
        for (&(name, qtype, rd), &txid) in QUESTIONS.iter().zip(txids) {
            let expected = Message::query(txid, name.parse().unwrap(), qtype, rd).encode();
            let wire = sent.iter().find(|w| w[..2] == txid.to_be_bytes()).expect("sent");
            assert_eq!(wire, &expected.unwrap(), "{name} {qtype:?}");
        }
    }

    #[test]
    fn stub_matches_only_its_own_replies() {
        let resolver: Ipv4Addr = "10.0.0.53".parse().unwrap();
        let mut stub = StubResolver::new(resolver, 7777);
        // Forge a reply with an unknown txid: must not match.
        let msg = {
            let mut m =
                Message::query(0xAAAA, "pool.ntp.org".parse().unwrap(), RecordType::A, true);
            m.header.qr = true;
            m
        };
        let d = Datagram {
            src: resolver,
            dst: "10.0.0.1".parse().unwrap(),
            src_port: DNS_PORT,
            dst_port: 7777,
            payload: msg.encode().unwrap(),
        };
        assert!(stub.handle(&d).is_none());
        assert!(stub.pending.is_empty());
    }

    #[test]
    fn reply_from_wrong_source_ignored() {
        let resolver: Ipv4Addr = "10.0.0.53".parse().unwrap();
        let stub = StubResolver::new(resolver, 7777);
        let mut stub = stub;
        let mut m = Message::query(1, "pool.ntp.org".parse().unwrap(), RecordType::A, true);
        m.header.qr = true;
        let d = Datagram {
            src: "10.9.9.9".parse().unwrap(), // not our resolver
            dst: "10.0.0.1".parse().unwrap(),
            src_port: DNS_PORT,
            dst_port: 7777,
            payload: m.encode().unwrap(),
        };
        assert!(stub.handle(&d).is_none());
    }
}
