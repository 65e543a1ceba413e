//! The shared-resolver discovery study (§VIII-B3): which resolvers used by
//! web clients can an attacker trigger queries through — via open
//! recursion or via SMTP servers in the same /24 that share the resolver?
//!
//! Methodology as in the paper: (1) a direct query to each resolver finds
//! the open ones; (2) an SMTP probe of the resolver's /24 finds a mail
//! server; (3) mail to that server, whose bounce processing makes *its*
//! resolver look up a token under the scanner's nameserver — a token in
//! the log means the SMTP server shares the resolver.
//!
//! [`scan_resolver`] probes one resolver in its own /24 world (a verdict
//! depends only on that resolver's spec), and the verdicts fold into a
//! [`SharedScanResult`]. The campaign scenario registry runs it as the
//! `shared` scan, one trial per resolver.

use std::net::Ipv4Addr;

use dns::auth::DNS_PORT;
use dns::message::{query_bytes, MessageView, Section};
use dns::name::Name;
use dns::record::{Record, RecordType};
use dns::resolver::{Resolver, ResolverConfig};
use dns::stub::StubResolver;
use netsim::prelude::*;

use crate::population::SharedResolverSpec;

/// Aggregate §VIII-B3 result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// What the scan learns about one web-client resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedVerdict {
    /// The resolver answered the scanner's direct recursive query.
    pub open: bool,
    /// Mail to the SMTP server in the resolver's /24 made the resolver
    /// look up the scanner's token.
    pub smtp_shared: bool,
}

impl SharedVerdict {
    /// An attacker can trigger queries through this resolver.
    pub fn triggerable(&self) -> bool {
        self.open || self.smtp_shared
    }
}

/// Folds per-resolver verdicts into the §VIII-B3 categories.
impl FromIterator<SharedVerdict> for SharedScanResult {
    fn from_iter<T: IntoIterator<Item = SharedVerdict>>(verdicts: T) -> Self {
        let mut result = SharedScanResult::default();
        for v in verdicts {
            result.total += 1;
            match (v.open, v.smtp_shared) {
                (true, true) => result.open_and_smtp += 1,
                (true, false) => result.open += 1,
                (false, true) => result.web_and_smtp += 1,
                (false, false) => result.web_only += 1,
            }
        }
        result
    }
}

/// An SMTP server: on receiving mail it performs the anti-spam DNS lookup
/// of the sender domain through its configured resolver (the bounce that
/// leaks the resolver identity).
#[derive(Debug)]
struct SmtpServer {
    stub: StubResolver,
}

const SMTP_PORT: u16 = 25;

impl Host for SmtpServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port == SMTP_PORT {
            // "Mail" payload carries the sender domain to verify.
            if let Ok(domain) = std::str::from_utf8(&d.payload) {
                if let Ok(name) = domain.parse::<Name>() {
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

/// The scanner's logging nameserver: answers every name under
/// `scan.example` and notes whether a `mail…` token was looked up.
#[derive(Debug, Default)]
struct LoggingNs {
    mail_seen: bool,
}

impl Host for LoggingNs {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = MessageView::new(&d.payload) else { return };
        if query.header().qr {
            return;
        }
        let mut resp = query.response();
        let Some(q) = resp.questions.first() else { return };
        if q.name.labels().next().is_some_and(|token| token.starts_with("mail")) {
            self.mail_seen = true;
        }
        resp.header.aa = true;
        resp.answers.push(Record::a(q.name.clone(), 60, Ipv4Addr::new(198, 51, 0, 9)));
        if let Ok(wire) = resp.encode() {
            ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
        }
    }
}

// Each probe's world: the scanner and its logging nameserver, and the
// resolver's /24.
const SCANNER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 11);
const LOG_NS: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 12);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const SMTP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 25);
const DIRECT_TXID: u16 = 0;

/// The scanner: one RD=1 query to the resolver and one SMTP probe of the
/// /24's `.25`; 5 s later it mails a token to the SMTP server if the probe
/// was answered.
#[derive(Debug, Default)]
struct ShareProbe {
    /// The resolver answered the direct query.
    open: bool,
    /// The SMTP probe was answered.
    smtp_found: bool,
}

impl Host for ShareProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let name: Name = "direct.scan.example".parse().expect("static");
        let query = query_bytes(DIRECT_TXID, &name, RecordType::A, true);
        ctx.send_udp(RESOLVER, 5402, DNS_PORT, query);
        ctx.send_udp(SMTP, 5403, SMTP_PORT, bytes::Bytes::from_static(b"probe"));
        ctx.set_timer(SimDuration::from_secs(5), 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if self.smtp_found {
            // The sender domain is the token the SMTP server's resolver
            // will look up at the logging nameserver.
            let domain = bytes::Bytes::from_static(b"mail.scan.example");
            ctx.send_udp(SMTP, 5404, SMTP_PORT, domain);
        }
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        match d.dst_port {
            5402 if d.src == RESOLVER => {
                let mut spans = Vec::new();
                if let Ok(msg) = MessageView::with_spans(&d.payload, &mut spans) {
                    let answered = spans.iter().any(|span| span.section == Section::Answer);
                    self.open |= msg.header().id == DIRECT_TXID && answered;
                }
            }
            5403 => self.smtp_found = true,
            _ => {}
        }
    }
}

/// Probes one web-client resolver in a 30 s world of its own: the
/// scanner, the logging nameserver, the resolver at `.53` of a /24 and,
/// when the spec says it shares the resolver, an SMTP server at `.25`. A
/// closed resolver's ACL is modelled by dropping every scanner→resolver
/// packet on the link (the SMTP server still reaches it).
pub fn scan_resolver(spec: &SharedResolverSpec, seed: u64) -> SharedVerdict {
    let link = LinkSpec::fixed(SimDuration::from_millis(10));
    let mut sim = Simulator::with_topology(seed, Topology::uniform(link));
    sim.add_host(LOG_NS, OsProfile::linux(), Box::new(LoggingNs::default())).expect("log ns");
    let scan_zone: Name = "scan.example".parse().expect("static");
    let resolver = Resolver::new(ResolverConfig::default(), vec![(scan_zone, vec![LOG_NS])]);
    sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).expect("resolver");
    if !spec.open {
        sim.topology_mut().set_link(SCANNER, RESOLVER, link.with_loss(1.0));
    }
    if spec.smtp_shares {
        let smtp = SmtpServer { stub: StubResolver::new(RESOLVER, 5405) };
        sim.add_host(SMTP, OsProfile::linux(), Box::new(smtp)).expect("smtp");
    }
    sim.add_host(SCANNER, OsProfile::linux(), Box::new(ShareProbe::default())).expect("scanner");
    sim.run_for(SimDuration::from_secs(30));
    SharedVerdict {
        open: sim.host::<ShareProbe>(SCANNER).expect("scanner exists").open,
        smtp_shared: sim.host::<LoggingNs>(LOG_NS).expect("log ns exists").mail_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::shared_resolvers;

    fn scan_all(population: &[SharedResolverSpec], seed: u64) -> SharedScanResult {
        population
            .iter()
            .enumerate()
            .map(|(idx, spec)| scan_resolver(spec, crate::scan_seed(seed, idx)))
            .collect()
    }

    #[test]
    fn categories_detected_end_to_end() {
        let population = vec![
            SharedResolverSpec { smtp_shares: false, open: false },
            SharedResolverSpec { smtp_shares: true, open: false },
            SharedResolverSpec { smtp_shares: false, open: true },
            SharedResolverSpec { smtp_shares: true, open: true },
        ];
        let result = scan_all(&population, 1);
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
        let result = scan_all(&population, 3);
        let frac = result.triggerable_fraction();
        assert!((frac - 0.138).abs() < 0.05, "triggerable {frac} (paper: 13.8 %); {result:?}");
        assert!(result.web_only > result.triggerable());
    }
}
