//! The shared-resolver discovery study (§VIII-B3): which resolvers used by
//! web clients can an attacker trigger queries through — via open
//! recursion or via SMTP servers in the same /24 that share the resolver?
//!
//! Methodology as in the paper: (1) direct queries to each resolver to
//! find open ones; (2) an SMTP sweep of each resolver's /24; (3) emails to
//! the found SMTP servers, whose bounce processing makes *their* resolver
//! query the scanner's nameserver — correlating tokens in the logs maps
//! SMTP servers to resolvers.

use netsim::fasthash::{FastMap, FastSet};
use std::net::Ipv4Addr;

use dns::auth::DNS_PORT;
use dns::message::Message;
use dns::name::Name;
use dns::record::{Record, RecordType};
use dns::resolver::{Resolver, ResolverConfig};
use dns::stub::StubResolver;
use netsim::prelude::*;
use serde::Serialize;

use crate::population::SharedResolverSpec;

/// Aggregate §VIII-B3 result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SharedScanResult {
    /// Total web-client resolvers considered.
    pub total: usize,
    /// Used only by web clients (not triggerable).
    pub web_only: usize,
    /// Shared with an SMTP server (triggerable via email).
    pub web_and_smtp: usize,
    /// Open resolvers (triggerable directly).
    pub open: usize,
    /// Both open and SMTP-shared.
    pub open_and_smtp: usize,
}

impl SharedScanResult {
    /// Resolvers an attacker can trigger queries through (paper: ≥13.8 %).
    pub fn triggerable(&self) -> usize {
        self.web_and_smtp + self.open + self.open_and_smtp
    }

    /// Triggerable fraction.
    pub fn triggerable_fraction(&self) -> f64 {
        self.triggerable() as f64 / self.total.max(1) as f64
    }
}

/// An SMTP server: on receiving mail it performs the anti-spam DNS lookup
/// of the sender domain through its configured resolver (the bounce that
/// leaks the resolver identity).
#[derive(Debug)]
struct SmtpServer {
    resolver: Ipv4Addr,
    stub: StubResolver,
}

const SMTP_PORT: u16 = 25;

impl Host for SmtpServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port == SMTP_PORT {
            // "Mail" payload carries the sender domain to verify.
            if let Ok(domain) = std::str::from_utf8(&d.payload) {
                if let Ok(name) = domain.parse::<Name>() {
                    self.stub.set_resolver(self.resolver);
                    self.stub.query_a(ctx, &name);
                }
            }
            // Acknowledge (the scanner's port scan sees an open port).
            ctx.send_udp(d.src, SMTP_PORT, d.src_port, bytes::Bytes::from_static(b"220 ok"));
        } else {
            let _ = self.stub.handle(d);
        }
    }
}

/// The scanner's logging nameserver: records which resolver asked for each
/// token under `scan.example`.
#[derive(Debug, Default)]
struct LoggingNs {
    /// token label -> querying resolver address.
    seen: FastMap<String, Ipv4Addr>,
}

impl Host for LoggingNs {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = Message::decode(&d.payload) else { return };
        if query.header.qr {
            return;
        }
        let Some(q) = query.question() else { return };
        if let Some(token) = q.name.labels().next() {
            self.seen.insert(token.to_owned(), d.src);
        }
        let mut resp = Message::response_to(&query);
        resp.header.aa = true;
        resp.answers.push(Record::a(q.name.clone(), 60, Ipv4Addr::new(198, 51, 0, 9)));
        if let Ok(wire) = resp.encode() {
            ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
        }
    }
}

/// The driver host: direct-queries resolvers, port-scans /24s, sends mail.
#[derive(Debug)]
struct ShareScanner {
    resolvers: Vec<Ipv4Addr>,
    smtp_candidates: Vec<Ipv4Addr>,
    /// Resolvers that answered a direct recursive query.
    open_found: Vec<Ipv4Addr>,
    /// SMTP servers that answered the port probe.
    smtp_found: Vec<Ipv4Addr>,
    txids: FastMap<u16, Ipv4Addr>,
    phase: u8,
}

impl Host for ShareScanner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Phase 1: direct queries to every resolver.
        for (i, &r) in self.resolvers.clone().iter().enumerate() {
            let txid = i as u16;
            self.txids.insert(txid, r);
            let name: Name = format!("direct{i}.scan.example").parse().expect("name");
            let q = Message::query(txid, name, RecordType::A, true);
            if let Ok(wire) = q.encode() {
                ctx.send_udp(r, 5402, DNS_PORT, wire);
            }
        }
        // Phase 2: SMTP probe of each /24's canonical mail host.
        for &c in &self.smtp_candidates.clone() {
            ctx.send_udp(c, 5403, SMTP_PORT, bytes::Bytes::from_static(b"probe"));
        }
        ctx.set_timer(SimDuration::from_secs(5), 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if self.phase != 0 {
            return;
        }
        self.phase = 1;
        // Phase 3: mail each discovered SMTP server with a tokenised sender
        // domain; its resolver will query our logging NS for it.
        for (i, &smtp) in self.smtp_found.clone().iter().enumerate() {
            let domain = format!("mail{i}.scan.example");
            ctx.send_udp(smtp, 5404, SMTP_PORT, bytes::Bytes::from(domain.into_bytes()));
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        let _ = ctx;
        match d.dst_port {
            5402 => {
                if let Ok(msg) = Message::decode(&d.payload) {
                    if !msg.answers.is_empty() {
                        if let Some(&r) = self.txids.get(&msg.header.id) {
                            if r == d.src {
                                self.open_found.push(r);
                            }
                        }
                    }
                }
            }
            5403 => {
                self.smtp_found.push(d.src);
            }
            _ => {}
        }
    }
}

/// Runs the shared-resolver study over a population. `n` resolvers are
/// placed in distinct /24s; SMTP servers appear at `.25` of a /24 when the
/// spec says so.
pub fn run_scan(population: &[SharedResolverSpec], seed: u64) -> SharedScanResult {
    let mut sim = Simulator::with_topology(
        seed,
        Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10))),
    );
    // Scanner + logging NS + one resolver (and possibly one SMTP server)
    // per population entry: reserve the slab up front.
    sim.reserve_hosts(2 * population.len() + 2);
    let scanner_addr: Ipv4Addr = "203.0.113.11".parse().expect("static");
    let log_ns: Ipv4Addr = "203.0.113.12".parse().expect("static");
    let scan_zone: Name = "scan.example".parse().expect("static");
    sim.add_host(log_ns, OsProfile::linux(), Box::new(LoggingNs::default())).expect("log ns");

    let mut resolvers = Vec::new();
    let mut smtp_candidates = Vec::new();
    let mut smtp_resolver: FastMap<Ipv4Addr, Ipv4Addr> = FastMap::default();
    for (i, spec) in population.iter().enumerate() {
        // /24 per resolver: 10.X.Y.53.
        let base = 0x0A00_0000u32 + ((i as u32) << 8);
        let resolver_addr = Ipv4Addr::from(base + 53);
        sim.add_host(
            resolver_addr,
            OsProfile::linux(),
            Box::new(Resolver::new(
                ResolverConfig::default(),
                vec![(scan_zone.clone(), vec![log_ns])],
            )),
        )
        .expect("resolver");
        if !spec.open {
            // ACL stand-in: the scanner's packets to a closed resolver are
            // dropped on the link (internal clients still reach it).
            sim.topology_mut().set_link(
                scanner_addr,
                resolver_addr,
                LinkSpec::fixed(SimDuration::from_millis(10)).with_loss(1.0),
            );
        }
        if spec.smtp_shares {
            let smtp_addr = Ipv4Addr::from(base + 25);
            sim.add_host(
                smtp_addr,
                OsProfile::linux(),
                Box::new(SmtpServer {
                    resolver: resolver_addr,
                    stub: StubResolver::new(resolver_addr, 5405),
                }),
            )
            .expect("smtp");
            smtp_resolver.insert(smtp_addr, resolver_addr);
        }
        // The scanner probes .25 in every /24 regardless.
        smtp_candidates.push(Ipv4Addr::from(base + 25));
        resolvers.push(resolver_addr);
    }
    sim.add_host(
        scanner_addr,
        OsProfile::linux(),
        Box::new(ShareScanner {
            resolvers: resolvers.clone(),
            smtp_candidates,
            open_found: Vec::new(),
            smtp_found: Vec::new(),
            txids: FastMap::default(),
            phase: 0,
        }),
    )
    .expect("scanner");
    sim.run_for(SimDuration::from_secs(30));

    let scanner = sim.host::<ShareScanner>(scanner_addr).expect("scanner exists");
    let log = sim.host::<LoggingNs>(log_ns).expect("log ns exists");
    // Resolvers observed doing bounce lookups (tokens "mailN"):
    let smtp_shared: FastSet<Ipv4Addr> = log
        .seen
        .iter()
        .filter(|(token, _)| token.starts_with("mail"))
        .map(|(_, &resolver)| resolver)
        .collect();
    let open: FastSet<Ipv4Addr> = scanner.open_found.iter().copied().collect();
    let mut result = SharedScanResult { total: population.len(), ..Default::default() };
    for r in &resolvers {
        match (open.contains(r), smtp_shared.contains(r)) {
            (true, true) => result.open_and_smtp += 1,
            (true, false) => result.open += 1,
            (false, true) => result.web_and_smtp += 1,
            (false, false) => result.web_only += 1,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::shared_resolvers;

    #[test]
    fn categories_detected_end_to_end() {
        let population = vec![
            SharedResolverSpec { smtp_shares: false, open: false },
            SharedResolverSpec { smtp_shares: true, open: false },
            SharedResolverSpec { smtp_shares: false, open: true },
            SharedResolverSpec { smtp_shares: true, open: true },
        ];
        let result = run_scan(&population, 1);
        assert_eq!(result.total, 4);
        assert_eq!(result.web_only, 1, "{result:?}");
        assert_eq!(result.web_and_smtp, 1, "{result:?}");
        assert_eq!(result.open, 1, "{result:?}");
        assert_eq!(result.open_and_smtp, 1, "{result:?}");
        assert_eq!(result.triggerable(), 3);
    }

    #[test]
    fn population_scan_recovers_marginals() {
        let population = shared_resolvers(400, 2);
        let result = run_scan(&population, 3);
        let frac = result.triggerable_fraction();
        assert!((frac - 0.138).abs() < 0.05, "triggerable {frac} (paper: 13.8 %); {result:?}");
        assert!(result.web_only > result.triggerable());
    }
}
