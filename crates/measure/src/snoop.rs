//! The open-resolver survey: RD=0 cache snooping (Table IV), the snooped
//! TTL distribution (Fig. 6), fragment acceptance (§VIII-A2) and the
//! timing side channel (Fig. 7).
//!
//! Methodology per resolver, as in §VIII-A1:
//!
//! 1. verify the resolver respects the RD bit — RD=0 for a known
//!    *non-cached* (but existing) name must return nothing;
//! 2. prime a canary with RD=1, then confirm RD=0 returns it;
//! 3. snoop the six `pool.ntp.org` records with RD=0, recording TTLs;
//! 4. fragment-acceptance probe via an always-fragmenting nameserver;
//! 5. timing probe: one uncached-path query followed by three repeats —
//!    `t_first − t_avg` (Fig. 7 shows why this is unusable as a detector).

use std::net::Ipv4Addr;
use std::sync::{Arc, LazyLock};

use dns::auth::{spawn_zone_nameservers, AuthServer, DNS_PORT};
use dns::dnssec::ZoneKey;
use dns::message::Message;
use dns::name::Name;
use dns::record::{Record, RecordType};
use dns::resolver::{Resolver, ResolverConfig};
use dns::zone::{pool_zone, Zone};
use netsim::prelude::*;
use rand::RngExt;

use crate::fragns::FragmentingNs;
use crate::population::OpenResolverSpec;

/// The six records probed in Table IV.
pub fn probed_records() -> &'static [(Name, RecordType); 6] {
    static RECORDS: LazyLock<[(Name, RecordType); 6]> = LazyLock::new(|| {
        let pool = &NAMES.pool;
        let child = |i: u8| (pool.child(&i.to_string()).expect("label"), RecordType::A);
        let (ns, a) = ((pool.clone(), RecordType::Ns), (pool.clone(), RecordType::A));
        [ns, a, child(0), child(1), child(2), child(3)]
    });
    &RECORDS
}

/// Per-resolver outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverOutcome {
    /// The RD verification succeeded (resolver is measurable).
    pub verified: bool,
    /// Cached pool records with remaining TTLs, parallel to
    /// [`probed_records`].
    pub cached_ttls: [Option<u32>; 6],
    /// The resolver accepted a fragmented response.
    pub accepts_fragments: bool,
    /// `t_first − t_avg` in milliseconds (Fig. 7 sample).
    pub timing_diff_ms: Option<f64>,
}

impl ResolverOutcome {
    /// How many of the six probed records were found cached — the flat
    /// per-resolver quantity the campaign record stream carries.
    pub fn cached_total(&self) -> usize {
        self.cached_ttls.iter().flatten().count()
    }

    /// Remaining TTL of the apex `pool.ntp.org IN A` record — the Fig. 6
    /// sample for this resolver, if cached.
    pub fn apex_a_ttl(&self) -> Option<u32> {
        self.cached_ttls[1]
    }
}

/// Aggregate survey result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurveyResult {
    /// Resolvers probed.
    pub probed: usize,
    /// Resolvers passing RD verification.
    pub verified: usize,
    /// Cached counts per probed record (Table IV rows).
    pub cached_counts: [usize; 6],
    /// Verified resolvers accepting fragmented responses.
    pub fragment_acceptors: usize,
    /// Snooped remaining TTLs of the apex A record (Fig. 6 samples).
    pub ttl_samples: Vec<u32>,
    /// Fig. 7 samples: `t_first − t_avg` (ms).
    pub timing_diffs_ms: Vec<f64>,
}

impl SurveyResult {
    /// Table IV percentage for a record index.
    pub fn cached_fraction(&self, idx: usize) -> f64 {
        self.cached_counts[idx] as f64 / self.verified.max(1) as f64
    }

    /// Fraction of verified resolvers accepting fragments.
    pub fn fragment_fraction(&self) -> f64 {
        self.fragment_acceptors as f64 / self.verified.max(1) as f64
    }

    /// Histogram of Fig. 6 (bucket width in seconds). Bucketing delegates
    /// to the workspace's one histogram rule ([`runner::StreamHist`]), so
    /// this is bucket-for-bucket identical to the campaign aggregator's
    /// `apex_a_ttl` histogram section.
    pub fn ttl_histogram(&self, bucket: u32, max: u32) -> Vec<(u32, usize)> {
        let mut hist =
            runner::StreamHist::new(0.0, f64::from(bucket), max.div_ceil(bucket) as usize);
        for &ttl in &self.ttl_samples {
            hist.push(f64::from(ttl));
        }
        hist.bins().map(|(lo, c)| (lo as u32, c as usize)).collect()
    }

    /// Histogram of Fig. 7 (bucket width ms, clamped to ±clamp) — the
    /// same [`runner::StreamHist`] shape the campaign aggregator declares
    /// for `timing_diff_ms`.
    pub fn timing_histogram(&self, bucket_ms: f64, clamp_ms: f64) -> Vec<(f64, usize)> {
        let bins = (2.0 * clamp_ms / bucket_ms) as usize + 1;
        let mut hist = runner::StreamHist::new(-clamp_ms, bucket_ms, bins);
        for &d in &self.timing_diffs_ms {
            hist.push(d);
        }
        hist.bins().map(|(lo, c)| (lo, c as usize)).collect()
    }
}

const SCANNER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const AUX_NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 99);
const FRAG_NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 98);

/// The names every scan world uses, parsed once per process.
struct Names {
    pool: Name,
    pool_ns1: Name,
    canary: Name,
    known: Name,
    prime: Name,
    adtest: Name,
}

static NAMES: LazyLock<Names> = LazyLock::new(|| {
    let name = |s: &str| s.parse::<Name>().expect("static name");
    Names {
        pool: name("pool.ntp.org"),
        pool_ns1: name("ns1.pool.ntp.org"),
        canary: name("canary.example"),
        known: name("known.canary.example"),
        prime: name("prime.canary.example"),
        adtest: name("adtest.example"),
    }
});

/// The zones every scan world serves, built once per process and shared
/// by all its nameservers: the pool zone (8 servers, 4 nameservers), for
/// the timing probe's uncached path, and the canary zone.
static POOL_ZONES: LazyLock<Arc<[Zone]>> = LazyLock::new(|| {
    let pool_servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    Arc::new([pool_zone(pool_servers, 4, Ipv4Addr::new(198, 51, 100, 1))])
});
static CANARY_ZONES: LazyLock<Arc<[Zone]>> = LazyLock::new(|| {
    let mut zone = Zone::new(NAMES.canary.clone());
    zone.add(Record::a(NAMES.known.clone(), 300, Ipv4Addr::new(198, 51, 0, 1)));
    zone.add(Record::a(NAMES.prime.clone(), 300, Ipv4Addr::new(198, 51, 0, 2)));
    Arc::new([zone])
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    VerifyNoncached,
    Prime,
    VerifyCached,
    Snoop(usize),
    FragProbe,
    Timing(usize),
    Done,
}

/// The survey scanner driving the per-resolver protocol.
#[derive(Debug)]
struct Scanner {
    resolver: Ipv4Addr,
    step: Step,
    txid: u16,
    outcome: ResolverOutcome,
    timing: Vec<f64>,
    sent_at: SimTime,
    seq: u64,
}

impl Scanner {
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        use Step::*;
        self.step = match self.step {
            VerifyNoncached => Prime,
            Prime => VerifyCached,
            VerifyCached => Snoop(0),
            Snoop(i) if i + 1 < probed_records().len() => Snoop(i + 1),
            Snoop(_) => FragProbe,
            FragProbe => Timing(0),
            Timing(i) if i + 1 < 4 => Timing(i + 1),
            Timing(_) | Done => Done,
        };
        self.send_current(ctx);
    }

    fn send_current(&mut self, ctx: &mut Ctx<'_>) {
        use Step::*;
        let (name, rtype, rd): (Name, RecordType, bool) = match self.step {
            VerifyNoncached => (NAMES.known.clone(), RecordType::A, false),
            Prime => (NAMES.prime.clone(), RecordType::A, true),
            VerifyCached => (NAMES.prime.clone(), RecordType::A, false),
            Snoop(i) => {
                let (n, t) = probed_records()[i].clone();
                (n, t, false)
            }
            FragProbe => {
                let name = format!("t{}.fsmall.adtest.example", self.seq);
                (name.parse().expect("label"), RecordType::A, true)
            }
            Timing(_) => (NAMES.pool.clone(), RecordType::Ns, true),
            Done => return,
        };
        self.seq += 1;
        self.txid = ctx.rng().random();
        self.sent_at = ctx.now();
        let q = Message::query(self.txid, name, rtype, rd);
        if let Ok(wire) = q.encode() {
            ctx.send_udp(self.resolver, 5400, DNS_PORT, wire);
        }
        ctx.set_timer(SimDuration::from_secs(3), self.seq);
    }

    fn handle_reply(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        use Step::*;
        let got_answer = !msg.answers.is_empty();
        match self.step {
            VerifyNoncached => {
                if got_answer {
                    // The resolver recursed despite RD=0: not measurable.
                    self.step = Done;
                    return;
                }
            }
            Prime => {}
            VerifyCached => {
                self.outcome.verified = got_answer;
                if !got_answer {
                    self.step = Done;
                    return;
                }
            }
            Snoop(i) => {
                if got_answer {
                    let ttl = msg.answers.iter().map(|r| r.ttl).min().unwrap_or(0);
                    self.outcome.cached_ttls[i] = Some(ttl);
                }
            }
            FragProbe => {
                self.outcome.accepts_fragments = got_answer;
            }
            Timing(_) => {
                let ms = ctx.now().saturating_since(self.sent_at).as_secs_f64() * 1e3;
                self.timing.push(ms);
            }
            Done => return,
        }
        self.advance(ctx);
    }
}

impl Host for Scanner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_current(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token != self.seq || self.step == Step::Done {
            return; // stale timer
        }
        // Timeout: treat as no-answer.
        match self.step {
            Step::VerifyCached => {
                self.step = Step::Done;
            }
            Step::Timing(_) => {
                self.step = Step::Done;
            }
            _ => self.advance(ctx),
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.src != self.resolver || d.dst_port != 5400 {
            return;
        }
        let Ok(msg) = Message::decode(&d.payload) else { return };
        if msg.header.id != self.txid {
            return;
        }
        self.handle_reply(ctx, &msg);
    }
}

/// Probes one resolver in an isolated mini-simulation.
pub fn scan_resolver(spec: &OpenResolverSpec, seed: u64) -> ResolverOutcome {
    let mut sim = Simulator::new(seed);
    // Per-resolver network distance with jitter — the Fig. 7 confound.
    let base = SimDuration::from_millis(spec.rtt_ms);
    let jitter = SimDuration::from_millis(spec.rtt_ms / 2);
    let link = LinkSpec { latency: base, jitter, loss: 0.0 };
    sim.topology_mut().set_link_bidir(SCANNER, RESOLVER, link);

    let pool_ns = OsProfile::nameserver(548);
    let ns_list = spawn_zone_nameservers(&mut sim, Arc::clone(&POOL_ZONES), pool_ns);
    let canary_ns = Box::new(AuthServer::new(Arc::clone(&CANARY_ZONES)));
    sim.add_host(AUX_NS, OsProfile::linux(), canary_ns).expect("aux ns");
    let frag_ns = Box::new(FragmentingNs::new(NAMES.adtest.clone(), ZoneKey(0x1234)));
    sim.add_host(FRAG_NS, OsProfile::linux(), frag_ns).expect("frag ns");

    let mut profile = OsProfile::linux();
    profile.fragments = spec.accepts_fragments.then_some(0);
    let config = ResolverConfig { respects_rd: spec.respects_rd, ..ResolverConfig::default() };
    let mut resolver = Resolver::new(
        config,
        vec![
            (NAMES.pool.clone(), ns_list),
            (NAMES.canary.clone(), vec![AUX_NS]),
            (NAMES.adtest.clone(), vec![FRAG_NS]),
        ],
    );
    // Prime the cache per the population snapshot ("an NTP client resolved
    // this `age` seconds ago"): remaining TTL = full − age.
    for (idx, age) in spec.cached.iter().enumerate() {
        let Some(age) = age else { continue };
        let (name, rtype) = &probed_records()[idx];
        let full = crate::population::TABLE4_TTLS[idx];
        let remaining = full.saturating_sub(*age).max(1);
        let record = match rtype {
            RecordType::Ns => Record::ns(name.clone(), remaining, NAMES.pool_ns1.clone()),
            _ => Record::a(name.clone(), remaining, Ipv4Addr::new(192, 0, 2, 1)),
        };
        resolver.cache_mut().insert(
            netsim::time::SimTime::ZERO,
            name.clone(),
            *rtype,
            vec![record],
        );
    }
    sim.add_host(RESOLVER, profile, Box::new(resolver)).expect("resolver");
    scan(sim)
}

/// Adds the scanner to a world holding the resolver at [`RESOLVER`] and
/// runs the per-resolver protocol against it.
fn scan(mut sim: Simulator) -> ResolverOutcome {
    sim.add_host(
        SCANNER,
        OsProfile::linux(),
        Box::new(Scanner {
            resolver: RESOLVER,
            step: Step::VerifyNoncached,
            txid: 0,
            outcome: ResolverOutcome {
                verified: false,
                cached_ttls: [None; 6],
                accepts_fragments: false,
                timing_diff_ms: None,
            },
            timing: Vec::new(),
            sent_at: netsim::time::SimTime::ZERO,
            seq: 0,
        }),
    )
    .expect("scanner");
    sim.run_for(SimDuration::from_secs(60));
    let scanner = sim.host::<Scanner>(SCANNER).expect("scanner exists");
    let mut outcome = scanner.outcome.clone();
    if scanner.timing.len() >= 2 {
        let first = scanner.timing[0];
        let avg = scanner.timing[1..].iter().sum::<f64>() / (scanner.timing.len() - 1) as f64;
        outcome.timing_diff_ms = Some(first - avg);
    }
    outcome
}

/// Folds per-resolver outcomes, in population order, into the aggregate
/// survey result.
impl FromIterator<ResolverOutcome> for SurveyResult {
    fn from_iter<T: IntoIterator<Item = ResolverOutcome>>(outcomes: T) -> Self {
        let mut result = SurveyResult::default();
        for o in outcomes {
            result.probed += 1;
            if !o.verified {
                continue;
            }
            result.verified += 1;
            for (idx, ttl) in o.cached_ttls.iter().enumerate() {
                if let Some(ttl) = ttl {
                    result.cached_counts[idx] += 1;
                    if idx == 1 {
                        result.ttl_samples.push(*ttl);
                    }
                }
            }
            if o.accepts_fragments {
                result.fragment_acceptors += 1;
            }
            if let Some(d) = o.timing_diff_ms {
                result.timing_diffs_ms.push(d);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{open_resolver_at, open_resolvers};

    fn survey(population: &[OpenResolverSpec], seed: u64, workers: usize) -> SurveyResult {
        runner::TrialRunner::new(workers)
            .run(population, |idx, spec| scan_resolver(spec, crate::scan_seed(seed, idx)))
            .into_iter()
            .collect()
    }

    fn spec(respects_rd: bool, cached_a: Option<u32>) -> OpenResolverSpec {
        OpenResolverSpec {
            respects_rd,
            cached: [None, cached_a, None, None, None, None],
            accepts_fragments: true,
            rtt_ms: 20,
        }
    }

    #[test]
    fn verified_resolver_with_cached_a_detected() {
        let outcome = scan_resolver(&spec(true, Some(40)), 1);
        assert!(outcome.verified);
        let ttl = outcome.cached_ttls[1].expect("A record snooped");
        assert!(ttl <= 110, "remaining TTL 150-40 = 110, got {ttl}");
        assert!(outcome.accepts_fragments);
    }

    #[test]
    fn rd_ignoring_resolver_excluded() {
        let outcome = scan_resolver(&spec(false, Some(40)), 2);
        assert!(!outcome.verified, "{outcome:?}");
    }

    #[test]
    fn uncached_resolver_reports_nothing() {
        let outcome = scan_resolver(&spec(true, None), 3);
        assert!(outcome.verified);
        assert!(outcome.cached_ttls.iter().all(Option::is_none));
    }

    #[test]
    fn fragment_rejector_detected() {
        let mut s = spec(true, None);
        s.accepts_fragments = false;
        let outcome = scan_resolver(&s, 4);
        assert!(outcome.verified);
        assert!(!outcome.accepts_fragments);
    }

    #[test]
    fn timing_diff_positive_for_uncached_small_for_cached() {
        // Deterministic link (tiny jitter relative to upstream cost).
        let mut uncached = spec(true, None);
        uncached.rtt_ms = 10;
        let o1 = scan_resolver(&uncached, 5);
        let d1 = o1.timing_diff_ms.expect("timing ran");
        // First NS query recurses (extra upstream round trips).
        assert!(d1 > 5.0, "uncached diff {d1}");
    }

    #[test]
    fn small_survey_recovers_table4_shape() {
        let population = open_resolvers(150, 7);
        let result = survey(&population, 8, 4);
        assert!(result.verified > 0);
        // A-record row must be the most-cached one, near 69 %.
        let a = result.cached_fraction(1);
        assert!((a - 0.6941).abs() < 0.15, "A cached {a}");
        // TTLs within [0, 150].
        assert!(result.ttl_samples.iter().all(|&t| t <= 150));
        // Fig. 7: samples exist and straddle a wide range.
        assert!(!result.timing_diffs_ms.is_empty());
    }

    /// [`probed_records`] as each trial built it before the names were
    /// built once per process.
    fn per_trial_records() -> Vec<(Name, RecordType)> {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        let mut records = vec![(pool.clone(), RecordType::Ns), (pool.clone(), RecordType::A)];
        records.extend((0..4).map(|i| (pool.child(&i.to_string()).unwrap(), RecordType::A)));
        records
    }

    /// The world [`scan_resolver`] built before its zones and names were
    /// built once per process: every zone and name built per trial, and a
    /// copy of the pool zone per nameserver.
    fn per_trial_world(spec: &OpenResolverSpec, seed: u64) -> Simulator {
        let mut sim = Simulator::new(seed);
        let base = SimDuration::from_millis(spec.rtt_ms);
        let jitter = SimDuration::from_millis(spec.rtt_ms / 2);
        let link = LinkSpec { latency: base, jitter, loss: 0.0 };
        sim.topology_mut().set_link_bidir(SCANNER, RESOLVER, link);
        let pool_servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(pool_servers, 4, Ipv4Addr::new(198, 51, 100, 1));
        let ns_list = dns::auth::ns_addrs(&zone);
        for &addr in &ns_list {
            let server = Box::new(AuthServer::new(vec![zone.clone()]));
            sim.add_host(addr, OsProfile::nameserver(548), server).unwrap();
        }
        let origin: Name = "canary.example".parse().unwrap();
        let mut canary = Zone::new(origin.clone());
        canary.add(Record::a(origin.child("known").unwrap(), 300, Ipv4Addr::new(198, 51, 0, 1)));
        canary.add(Record::a(origin.child("prime").unwrap(), 300, Ipv4Addr::new(198, 51, 0, 2)));
        sim.add_host(AUX_NS, OsProfile::linux(), Box::new(AuthServer::new(vec![canary]))).unwrap();
        let adtest = "adtest.example".parse().unwrap();
        let frag_ns = Box::new(FragmentingNs::new(adtest, ZoneKey(0x1234)));
        sim.add_host(FRAG_NS, OsProfile::linux(), frag_ns).unwrap();
        let mut profile = OsProfile::linux();
        profile.fragments = spec.accepts_fragments.then_some(0);
        let config = ResolverConfig { respects_rd: spec.respects_rd, ..ResolverConfig::default() };
        let hints = vec![
            ("pool.ntp.org".parse().unwrap(), ns_list),
            ("canary.example".parse().unwrap(), vec![AUX_NS]),
            ("adtest.example".parse().unwrap(), vec![FRAG_NS]),
        ];
        let mut resolver = Resolver::new(config, hints);
        let records = per_trial_records();
        let ns1: Name = "ns1.pool.ntp.org".parse().unwrap();
        for (idx, age) in spec.cached.iter().enumerate() {
            let Some(age) = age else { continue };
            let (name, rtype) = &records[idx];
            let remaining = crate::population::TABLE4_TTLS[idx].saturating_sub(*age).max(1);
            let record = match rtype {
                RecordType::Ns => Record::ns(name.clone(), remaining, ns1.clone()),
                _ => Record::a(name.clone(), remaining, Ipv4Addr::new(192, 0, 2, 1)),
            };
            resolver.cache_mut().insert(SimTime::ZERO, name.clone(), *rtype, vec![record]);
        }
        sim.add_host(RESOLVER, profile, Box::new(resolver)).unwrap();
        sim
    }

    /// The worlds sharing the process-wide zones and names scan every
    /// resolver exactly as the per-trial build did, over 2,000 indices of
    /// the open-resolver population.
    #[test]
    fn shared_zone_worlds_match_the_per_trial_build() {
        assert_eq!(probed_records()[..], per_trial_records()[..]);
        for idx in 0..2_000 {
            let (spec, seed) = (open_resolver_at(2020, idx), crate::scan_seed(2020, idx));
            let per_trial = scan(per_trial_world(&spec, seed));
            assert_eq!(scan_resolver(&spec, seed), per_trial, "resolver {idx}: {spec:?}");
        }
    }
}
