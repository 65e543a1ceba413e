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

use bytes::BytesMut;
use dns::auth::{spawn_zone_nameservers, AuthServer, DNS_PORT};
use dns::cache::DnsCache;
use dns::dnssec::ZoneKey;
use dns::message::{Message, MessageView, RecordSpan, Section};
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

/// The query of every step but the fragment probe (whose name counts
/// the queries sent before it), encoded once per process with ID 0: the
/// ID is the only byte of a query that varies between trials.
static FIXED_QUERIES: LazyLock<[Vec<u8>; 10]> = LazyLock::new(|| {
    let query = |name: &Name, rtype, rd| {
        let wire = Message::query(0, name.clone(), rtype, rd).encode().expect("a short query");
        wire.to_vec()
    };
    let snoop = |i: usize| query(&probed_records()[i].0, probed_records()[i].1, false);
    let names = &*NAMES;
    [
        query(&names.known, RecordType::A, false),
        query(&names.prime, RecordType::A, true),
        query(&names.prime, RecordType::A, false),
        snoop(0),
        snoop(1),
        snoop(2),
        snoop(3),
        snoop(4),
        snoop(5),
        query(&names.pool, RecordType::Ns, true),
    ]
});

/// Where a step's query sits in [`FIXED_QUERIES`]; `None` for the
/// fragment probe (and for [`Step::Done`], which sends nothing).
fn fixed_slot(step: Step) -> Option<usize> {
    use Step::*;
    match step {
        VerifyNoncached => Some(0),
        Prime => Some(1),
        VerifyCached => Some(2),
        Snoop(i) => Some(3 + i),
        Timing(_) => Some(9),
        FragProbe | Done => None,
    }
}

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

/// The survey scanner driving the per-resolver protocol. Its outcome is
/// final once it reaches [`Step::Done`], and then it stops the simulation.
#[derive(Debug)]
struct Scanner {
    resolver: Ipv4Addr,
    step: Step,
    txid: u16,
    outcome: ResolverOutcome,
    timing: Vec<f64>,
    sent_at: SimTime,
    seq: u64,
    /// Record layouts of the last reply, reused across replies.
    spans: Vec<RecordSpan>,
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
        if self.step == Step::Done {
            return;
        }
        let sent = self.seq;
        self.seq += 1;
        self.txid = ctx.rng().random();
        self.sent_at = ctx.now();
        let wire = match fixed_slot(self.step) {
            Some(slot) => {
                let fixed = &FIXED_QUERIES[slot];
                let mut wire = BytesMut::with_capacity(fixed.len());
                wire.extend_from_slice(fixed);
                wire[..2].copy_from_slice(&self.txid.to_be_bytes());
                Ok(wire.freeze())
            }
            None => {
                let name = format!("t{sent}.fsmall.adtest.example").parse().expect("label");
                Message::query(self.txid, name, RecordType::A, true).encode()
            }
        };
        if let Ok(wire) = wire {
            ctx.send_udp(self.resolver, 5400, DNS_PORT, wire);
        }
        ctx.set_timer(SimDuration::from_secs(3), self.seq);
    }

    /// Handles the reply to the current query: `min_ttl` is the smallest
    /// answer TTL, `None` for a reply without answers.
    fn handle_reply(&mut self, ctx: &mut Ctx<'_>, min_ttl: Option<u32>) {
        use Step::*;
        let got_answer = min_ttl.is_some();
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
            Snoop(i) => self.outcome.cached_ttls[i] = min_ttl,
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
            Step::VerifyCached | Step::Timing(_) => self.step = Step::Done,
            _ => self.advance(ctx),
        }
        if self.step == Step::Done {
            ctx.stop();
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.src != self.resolver || d.dst_port != 5400 {
            return;
        }
        // The checked walk accepts exactly what `Message::decode` does;
        // the scanner reads only the answers' TTLs.
        let Ok(view) = MessageView::with_spans(&d.payload, &mut self.spans) else { return };
        if view.header().id != self.txid {
            return;
        }
        let data = view.bytes();
        let min_ttl = self
            .spans
            .iter()
            .filter(|span| span.section == Section::Answer)
            .filter_map(|span| span.ttl(data))
            .min();
        self.handle_reply(ctx, min_ttl);
        if self.step == Step::Done {
            ctx.stop();
        }
    }
}

/// Probes one resolver in an isolated mini-simulation.
pub fn scan_resolver(spec: &OpenResolverSpec, seed: u64) -> ResolverOutcome {
    scan(&mut world::<Resolver>(spec, seed))
}

/// [`scan_resolver`], with the traffic counters of the trial's
/// simulation: what the scan cost, for pinning.
pub fn scan_resolver_traffic(spec: &OpenResolverSpec, seed: u64) -> (ResolverOutcome, SimStats) {
    let mut sim = world::<Resolver>(spec, seed);
    (scan(&mut sim), sim.stats())
}

/// A resolver a survey world can be built around: [`Resolver`], or a
/// reference implementation a differential test runs the same trials
/// through.
#[doc(hidden)]
pub trait SurveyResolver: Host + Sized {
    /// [`Resolver::new`].
    fn build(config: ResolverConfig, hints: Vec<(Name, Vec<Ipv4Addr>)>) -> Self;
    /// [`Resolver::cache_mut`].
    fn cache_mut(&mut self) -> &mut DnsCache;
}

impl SurveyResolver for Resolver {
    fn build(config: ResolverConfig, hints: Vec<(Name, Vec<Ipv4Addr>)>) -> Self {
        Resolver::new(config, hints)
    }

    fn cache_mut(&mut self) -> &mut DnsCache {
        Resolver::cache_mut(self)
    }
}

/// [`scan_resolver`] with the resolver `R`, returning the trial's
/// simulation as the scan left it, resolver at [`resolver_addr`].
#[doc(hidden)]
pub fn scan_resolver_with<R: SurveyResolver>(
    spec: &OpenResolverSpec,
    seed: u64,
) -> (ResolverOutcome, Simulator) {
    let mut sim = world::<R>(spec, seed);
    (scan(&mut sim), sim)
}

/// Where a survey world puts the resolver.
#[doc(hidden)]
pub fn resolver_addr() -> Ipv4Addr {
    RESOLVER
}

/// The world of one survey trial: the resolver at [`RESOLVER`] as `spec`
/// describes it, and the nameservers it recurses to.
fn world<R: SurveyResolver>(spec: &OpenResolverSpec, seed: u64) -> Simulator {
    let mut sim = Simulator::new(seed);
    // The resolver, four pool nameservers, the canary and fragmenting
    // nameservers, and the scanner.
    sim.reserve_hosts(8);
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
    let mut resolver = R::build(
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
    sim
}

/// The simulated time a scan may take. Every step times out after 3 s, so
/// the scanner is done well before it, and stops the run then.
const SCAN_DEADLINE: SimDuration = SimDuration::from_secs(60);

/// Adds the scanner to a world holding the resolver at [`RESOLVER`] and
/// runs the per-resolver protocol against it, until the scanner is done.
fn scan(sim: &mut Simulator) -> ResolverOutcome {
    add_scanner(sim);
    sim.run_for(SCAN_DEADLINE);
    outcome(sim)
}

fn add_scanner(sim: &mut Simulator) {
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
            spans: Vec::new(),
        }),
    )
    .expect("scanner");
}

/// The scanner's outcome, with the Fig. 7 timing sample folded in.
fn outcome(sim: &Simulator) -> ResolverOutcome {
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

    /// Every fixed query, with an ID written in, is the full encode of the
    /// question its step asks (the scanner's per-send encode before the
    /// queries were encoded once per process).
    #[test]
    fn fixed_queries_are_full_encodes_of_their_questions() {
        use Step::*;
        let records = per_trial_records();
        let question = |step| match step {
            VerifyNoncached => ("known.canary.example".parse().unwrap(), RecordType::A, false),
            Prime => ("prime.canary.example".parse().unwrap(), RecordType::A, true),
            VerifyCached => ("prime.canary.example".parse().unwrap(), RecordType::A, false),
            Snoop(i) => (records[i].0.clone(), records[i].1, false),
            Timing(_) => ("pool.ntp.org".parse().unwrap(), RecordType::Ns, true),
            FragProbe | Done => unreachable!("not a fixed query"),
        };
        let steps = [VerifyNoncached, Prime, VerifyCached].into_iter();
        let steps = steps.chain((0..6).map(Snoop)).chain((0..4).map(Timing));
        for (step, id) in steps.zip([0, 1, 0x00FF, 0x8000, 0xFFFF].into_iter().cycle()) {
            let (name, rtype, rd) = question(step);
            let full = Message::query(id, name, rtype, rd).encode().unwrap();
            let mut fixed = FIXED_QUERIES[fixed_slot(step).unwrap()].clone();
            fixed[..2].copy_from_slice(&id.to_be_bytes());
            assert_eq!(fixed, full[..], "{step:?}");
        }
        assert_eq!((fixed_slot(FragProbe), fixed_slot(Done)), (None, None));
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
            let per_trial = scan(&mut per_trial_world(&spec, seed));
            assert_eq!(scan_resolver(&spec, seed), per_trial, "resolver {idx}: {spec:?}");
        }
    }

    /// [`scan`] as it ran before the scanner stopped the simulation at
    /// [`Step::Done`]: for the whole [`SCAN_DEADLINE`]. A stop only ends
    /// one run, so running on to the deadline dispatches every event the
    /// fixed-length run did, in the same order.
    fn full_deadline_scan(sim: &mut Simulator) -> ResolverOutcome {
        add_scanner(sim);
        let deadline = sim.now() + SCAN_DEADLINE;
        while sim.now() < deadline {
            sim.run_until(deadline);
        }
        outcome(sim)
    }

    /// Stopping the scan once the scanner is done changes no outcome over
    /// 2,000 indices of the open-resolver population, and cuts the events
    /// of the resolvers that reject fragments (their retries to the
    /// fragmenting nameserver outlive the scan).
    #[test]
    fn stopping_at_done_matches_the_full_deadline_scan() {
        let mut cut = 0;
        for idx in 0..2_000 {
            let (spec, seed) = (open_resolver_at(2020, idx), crate::scan_seed(2020, idx));
            let mut full = world::<Resolver>(&spec, seed);
            let reference = full_deadline_scan(&mut full);
            let (outcome, stats) = scan_resolver_traffic(&spec, seed);
            assert_eq!(outcome, reference, "resolver {idx}: {spec:?}");
            let full_events = full.stats().events_dispatched;
            assert!(stats.events_dispatched <= full_events, "resolver {idx}");
            if reference.verified && !reference.accepts_fragments {
                cut += usize::from(stats.events_dispatched < full_events);
            }
        }
        assert!(cut > 0, "no fragment-rejecting scan stopped early");
    }
}
