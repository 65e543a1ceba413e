//! The ad-network client study (Table V, §VIII-B).
//!
//! Each simulated client performs the paper's seven image-fetch lookups
//! through its own resolver: `baseline`, `ftiny` (68 B fragments),
//! `fsmall` (296 B), `fmedium` (580 B), `fbig` (1280 B), `sigfail`,
//! `sigright`. Results failing the `baseline` or `sigright` controls are
//! discarded, exactly as in the study.

use std::net::Ipv4Addr;

use dns::auth::DNS_PORT;
use dns::dnssec::{TrustAnchors, ZoneKey};
use dns::message::{Message, MessageView, Section};
use dns::name::Name;
use dns::record::RecordType;
use dns::resolver::{Resolver, ResolverConfig};
use netsim::prelude::*;
use rand::RngExt;

use crate::fragns::FragmentingNs;
use crate::population::{AdClientSpec, Region};

/// The seven tests, in study order.
pub const TESTS: [&str; 7] =
    ["baseline", "ftiny", "fsmall", "fmedium", "fbig", "sigfail", "sigright"];

/// One client's test outcomes (true = "image loaded").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientResult {
    /// Outcomes parallel to [`TESTS`].
    pub loaded: [bool; 7],
}

impl ClientResult {
    /// The study's validity filter: baseline and sigright must have loaded.
    pub fn valid(&self) -> bool {
        self.loaded[0] && self.loaded[6]
    }

    /// Accepts tiny (68 B) fragments.
    pub fn accepts_tiny(&self) -> bool {
        self.loaded[1]
    }

    /// Accepts at least one fragment size.
    pub fn accepts_any(&self) -> bool {
        self.loaded[1] || self.loaded[2] || self.loaded[3] || self.loaded[4]
    }

    /// DNSSEC-validating resolver: the correctly-signed record loaded while
    /// the badly-signed one did not.
    pub fn validates(&self) -> bool {
        self.loaded[6] && !self.loaded[5]
    }
}

/// A Table V row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Row label ("Asia", "ALL", "PC", …).
    pub label: String,
    /// Clients accepting tiny fragments.
    pub tiny: usize,
    /// Clients accepting any fragment size.
    pub any: usize,
    /// Valid clients in this group.
    pub total: usize,
    /// DNSSEC-validating clients.
    pub validating: usize,
}

impl Table5Row {
    /// Percentage helper.
    pub fn pct(n: usize, total: usize) -> f64 {
        n as f64 * 100.0 / total.max(1) as f64
    }
}

/// Aggregate study result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdStudyResult {
    /// Rows in Table V order: regions, ALL, Without Google, PC, Mobile.
    pub rows: Vec<Table5Row>,
    /// Clients discarded by the validity filter.
    pub invalid: usize,
}

impl AdStudyResult {
    /// The DNSSEC validation range over the regional rows (paper: 19.14 %
    /// to 28.94 %).
    pub fn validation_range(&self) -> (f64, f64) {
        let regional: Vec<f64> =
            self.rows.iter().take(5).map(|r| Table5Row::pct(r.validating, r.total)).collect();
        let min = regional.iter().copied().fold(f64::INFINITY, f64::min);
        let max = regional.iter().copied().fold(0.0, f64::max);
        (min, max)
    }
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 77);
const ZONE_KEY: ZoneKey = ZoneKey(0xADAD);

/// The test-page host: runs the seven lookups sequentially.
#[derive(Debug)]
struct TestPage {
    resolver: Ipv4Addr,
    token: u64,
    current: usize,
    txid: u16,
    result: ClientResult,
}

impl TestPage {
    fn send_current(&mut self, ctx: &mut Ctx<'_>) {
        if self.current >= TESTS.len() {
            return;
        }
        let kind = TESTS[self.current];
        let qname: Name = if kind.starts_with("sig") {
            format!("{kind}.adtest.example").parse().expect("name")
        } else {
            format!("t{}.{kind}.adtest.example", self.token).parse().expect("name")
        };
        self.txid = ctx.rng().random();
        let q = Message::query(self.txid, qname, RecordType::A, true);
        if let Ok(wire) = q.encode() {
            ctx.send_udp(self.resolver, 5401, DNS_PORT, wire);
        }
        ctx.set_timer(SimDuration::from_secs(8), self.current as u64);
    }
}

impl Host for TestPage {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_current(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token as usize != self.current {
            return; // stale
        }
        // onerror(): the image did not load.
        self.current += 1;
        self.send_current(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.src != self.resolver || d.dst_port != 5401 {
            return;
        }
        let mut spans = Vec::new();
        let Ok(msg) = MessageView::with_spans(&d.payload, &mut spans) else { return };
        if msg.header().id != self.txid || self.current >= TESTS.len() {
            return;
        }
        let data = msg.bytes();
        self.result.loaded[self.current] =
            spans.iter().any(|span| span.section == Section::Answer && span.a_addr(data).is_some());
        self.current += 1;
        self.send_current(ctx);
    }
}

/// Runs one client's test page in an isolated mini-simulation.
pub fn run_client(spec: &AdClientSpec, seed: u64) -> ClientResult {
    let zone: Name = "adtest.example".parse().expect("static");
    let mut sim = Simulator::with_topology(
        seed,
        Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(25))),
    );
    sim.add_host(NS, OsProfile::linux(), Box::new(FragmentingNs::new(zone.clone(), ZONE_KEY)))
        .expect("ns");
    let mut profile = OsProfile::linux();
    profile.fragments = Some(spec.min_fragment_accepted).filter(|&min| min != u16::MAX);
    let validation = spec.validates.then(|| {
        let mut anchors = TrustAnchors::new();
        anchors.add(zone.clone(), ZONE_KEY);
        anchors
    });
    let config = ResolverConfig { validation, ..ResolverConfig::default() };
    sim.add_host(RESOLVER, profile, Box::new(Resolver::new(config, vec![(zone, vec![NS])])))
        .expect("resolver");
    sim.add_host(
        CLIENT,
        OsProfile::linux(),
        Box::new(TestPage {
            resolver: RESOLVER,
            token: seed,
            current: 0,
            txid: 0,
            result: ClientResult::default(),
        }),
    )
    .expect("client");
    sim.run_for(SimDuration::from_secs(80));
    sim.host::<TestPage>(CLIENT).expect("client exists").result
}

/// Aggregates Table V from `(client, result)` pairs in population order.
impl FromIterator<(AdClientSpec, ClientResult)> for AdStudyResult {
    fn from_iter<T: IntoIterator<Item = (AdClientSpec, ClientResult)>>(results: T) -> Self {
        let results: Vec<(AdClientSpec, ClientResult)> = results.into_iter().collect();
        let valid: Vec<&(AdClientSpec, ClientResult)> =
            results.iter().filter(|(_, r)| r.valid()).collect();
        let row = |label: &str, filter: &dyn Fn(&AdClientSpec) -> bool| -> Table5Row {
            let group: Vec<_> = valid.iter().filter(|(s, _)| filter(s)).collect();
            Table5Row {
                label: label.to_owned(),
                tiny: group.iter().filter(|(_, r)| r.accepts_tiny()).count(),
                any: group.iter().filter(|(_, r)| r.accepts_any()).count(),
                validating: group.iter().filter(|(_, r)| r.validates()).count(),
                total: group.len(),
            }
        };
        let mut rows = Vec::new();
        for region in Region::all() {
            rows.push(row(region.name(), &|s| s.region == region));
        }
        rows.push(row("ALL", &|_| true));
        rows.push(row("Without Google", &|s| !s.google_resolver));
        rows.push(row("PC", &|s| !s.mobile));
        rows.push(row("Mobile,Tablet", &|s| s.mobile));
        AdStudyResult { rows, invalid: results.len() - valid.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ad_clients_scaled;

    fn study(population: &[AdClientSpec], seed: u64, workers: usize) -> AdStudyResult {
        runner::TrialRunner::new(workers)
            .run(population, |idx, spec| (*spec, run_client(spec, crate::scan_seed(seed, idx))))
            .into_iter()
            .collect()
    }

    fn spec(min_accept: u16, validates: bool) -> AdClientSpec {
        AdClientSpec {
            region: Region::Europe,
            mobile: false,
            google_resolver: false,
            min_fragment_accepted: min_accept,
            validates,
        }
    }

    #[test]
    fn permissive_resolver_loads_everything_except_nothing() {
        let r = run_client(&spec(0, false), 1);
        assert!(r.valid(), "{r:?}");
        assert!(r.accepts_tiny());
        assert!(r.accepts_any());
        assert!(!r.validates(), "non-validator loads sigfail too");
    }

    #[test]
    fn google_style_resolver_accepts_only_big() {
        let r = run_client(&spec(1000, false), 2);
        assert!(r.valid(), "{r:?}");
        assert!(!r.accepts_tiny());
        assert!(r.accepts_any(), "fbig must load");
        assert!(!r.loaded[2] && !r.loaded[3], "small/medium filtered");
    }

    #[test]
    fn fragment_rejector_fails_all_fragment_tests() {
        let r = run_client(&spec(u16::MAX, false), 3);
        assert!(r.valid());
        assert!(!r.accepts_any(), "{r:?}");
    }

    #[test]
    fn validator_detected_via_sigfail() {
        let r = run_client(&spec(0, true), 4);
        assert!(r.valid());
        assert!(r.validates(), "{r:?}");
    }

    #[test]
    fn small_study_recovers_shape() {
        let population = ad_clients_scaled(5, 0.02); // ~30+ per region
        let result = study(&population, 6, 4);
        let all = result.rows.iter().find(|r| r.label == "ALL").expect("ALL row");
        assert!(all.total > 100);
        let tiny_pct = Table5Row::pct(all.tiny, all.total);
        let any_pct = Table5Row::pct(all.any, all.total);
        assert!((50.0..80.0).contains(&tiny_pct), "tiny {tiny_pct}%");
        assert!((75.0..100.0).contains(&any_pct), "any {any_pct}%");
        let (lo, hi) = result.validation_range();
        assert!(lo >= 5.0 && hi <= 45.0, "validation range {lo}..{hi}");
        // Without Google, tiny acceptance rises (Table V's last rows).
        let wo = result.rows.iter().find(|r| r.label == "Without Google").expect("row");
        assert!(
            Table5Row::pct(wo.tiny, wo.total) >= tiny_pct,
            "without-google tiny must not be lower"
        );
    }
}
