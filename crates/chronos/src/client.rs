//! The Chronos-enhanced NTP client host.
//!
//! Generates its server pool via periodic DNS lookups ([`PoolGenerator`]),
//! then repeatedly samples the pool and disciplines the clock with the
//! trimmed-mean algorithm ([`crate::algorithm`]). The DNS lookups are the
//! "achilles heel" the DSN'20 paper exploits: a single poisoned response
//! with 89 addresses and a multi-day TTL both floods the pool and freezes
//! all later lookups onto the cache.

use netsim::fasthash::FastMap;
use std::net::Ipv4Addr;

use dns::stub::StubResolver;
use dns::zone::pool_domain;
use netsim::prelude::*;
use ntp::clock::SystemClock;
use ntp::packet::{peek_mode, NtpMode, NtpPacket, NTP_PORT};
use ntp::timestamp::{offset_and_delay, NtpDuration, NtpTimestamp};
use rand::seq::IndexedRandom;

use crate::algorithm::{evaluate_panic, evaluate_sample, RoundDecision, MAX_RETRIES, SAMPLE_SIZE};
use crate::pool::{PoolGenerator, PoolSanity};

const TIMER_DNS: TimerToken = 1;
const TIMER_POLL: TimerToken = 2;
const TIMER_ROUND_END: TimerToken = 3;

/// Interval between time-sampling rounds.
const POLL_INTERVAL: SimDuration = SimDuration::from_secs(32);
/// How long a sampling round waits for responses.
const ROUND_WINDOW: SimDuration = SimDuration::from_secs(3);

/// Counters exposed by a [`ChronosClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChronosStats {
    /// DNS lookups issued.
    pub dns_lookups: u64,
    /// Sampling rounds accepted.
    pub rounds_accepted: u64,
    /// Sampling rounds rejected.
    pub rounds_rejected: u64,
    /// Panic rounds entered.
    pub panics: u64,
    /// Panic rounds that applied an offset.
    pub panics_accepted: u64,
}

#[derive(Debug)]
struct Round {
    pending: FastMap<Ipv4Addr, NtpTimestamp>,
    samples: Vec<NtpDuration>,
    panic: bool,
}

/// A Chronos-enhanced NTP client host.
#[derive(Debug)]
pub struct ChronosClient {
    /// Interval between pool-generation DNS lookups.
    dns_interval: SimDuration,
    /// The disciplined clock.
    pub clock: SystemClock,
    stub: StubResolver,
    generator: PoolGenerator,
    round: Option<Round>,
    retries: u32,
    synced_once: bool,
    /// Counters.
    pub stats: ChronosStats,
}

impl ChronosClient {
    /// Creates a client that runs its [`crate::LOOKUPS`] pool-generation
    /// lookups `dns_interval` apart (1 h in the proposal; experiments
    /// compress it) under the pool sanity policy `sanity`, resolving
    /// through `resolver`.
    pub fn new(dns_interval: SimDuration, sanity: PoolSanity, resolver: Ipv4Addr) -> Self {
        let mut clock = SystemClock::new();
        // Chronos replaces the NTP discipline entirely; its own algorithm
        // bounds corrections, so the ntpd panic threshold does not apply.
        clock.panic_threshold = None;
        ChronosClient {
            generator: PoolGenerator::new(sanity),
            dns_interval,
            clock,
            stub: StubResolver::new(resolver, 5354),
            round: None,
            retries: 0,
            synced_once: false,
            stats: ChronosStats::default(),
        }
    }

    /// The accumulated server pool.
    pub fn pool(&self) -> Vec<Ipv4Addr> {
        self.generator.to_vec()
    }

    /// The pool generator (introspection).
    pub fn generator(&self) -> &PoolGenerator {
        &self.generator
    }

    /// Clock offset from true time in seconds.
    pub fn offset_secs(&self, now: SimTime) -> f64 {
        self.clock.offset_from_true(now).as_secs_f64()
    }

    fn issue_dns(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.dns_lookups += 1;
        self.stub.query_a(ctx, &pool_domain());
    }

    fn start_round(&mut self, ctx: &mut Ctx<'_>, panic: bool) {
        // Sampling begins once pool generation has finished (the proposal's
        // 24-hour warm-up) — premature rounds over a 4-address pool would
        // trim away everything.
        if !self.generator.complete() {
            return;
        }
        let pool = self.generator.to_vec();
        if pool.len() < 3 {
            return;
        }
        let chosen: Vec<Ipv4Addr> = if panic {
            pool
        } else {
            pool.sample(ctx.rng(), SAMPLE_SIZE.min(pool.len())).copied().collect()
        };
        let mut pending = FastMap::default();
        let now = ctx.now();
        for addr in chosen {
            let t1 = self.clock.now(now);
            pending.insert(addr, t1);
            ctx.send_udp(addr, NTP_PORT, NTP_PORT, NtpPacket::client_request(t1).encode());
        }
        if panic {
            self.stats.panics += 1;
        }
        self.round = Some(Round { pending, samples: Vec::new(), panic });
        ctx.set_timer(ROUND_WINDOW, TIMER_ROUND_END);
    }

    fn finish_round(&mut self, ctx: &mut Ctx<'_>) {
        let Some(round) = self.round.take() else { return };
        let decision = if round.panic {
            evaluate_panic(&round.samples)
        } else {
            evaluate_sample(&round.samples)
        };
        match decision {
            RoundDecision::Accept(offset) => {
                if round.panic {
                    self.stats.panics_accepted += 1;
                } else {
                    self.stats.rounds_accepted += 1;
                }
                self.retries = 0;
                if offset.abs().as_nanos() >= 1_000_000 || !self.synced_once {
                    self.clock.apply_offset(ctx.now(), offset, true);
                }
                self.synced_once = true;
            }
            RoundDecision::Reject(_) if round.panic => {
                // Panic refused to act (survivors disagreed): stay safe,
                // resume normal sampling.
                self.retries = 0;
            }
            RoundDecision::Reject(_) => {
                self.stats.rounds_rejected += 1;
                self.retries += 1;
                if self.retries > MAX_RETRIES {
                    self.retries = 0;
                    self.start_round(ctx, true);
                }
            }
        }
    }
}

impl Host for ChronosClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.issue_dns(ctx);
        ctx.set_timer(self.dns_interval, TIMER_DNS);
        ctx.set_timer(POLL_INTERVAL, TIMER_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token {
            TIMER_DNS if !self.generator.complete() => {
                self.issue_dns(ctx);
                ctx.set_timer(self.dns_interval, TIMER_DNS);
            }
            TIMER_POLL => {
                if self.round.is_none() {
                    self.start_round(ctx, false);
                }
                ctx.set_timer(POLL_INTERVAL, TIMER_POLL);
            }
            TIMER_ROUND_END => self.finish_round(ctx),
            _ => {}
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if let Some(reply) = self.stub.handle(d) {
            if !reply.addrs.is_empty() && !self.generator.complete() {
                let min_ttl = reply.ttls.iter().copied().min().unwrap_or(0);
                self.generator.absorb(&reply.addrs, min_ttl);
            }
            return;
        }
        if d.dst_port != NTP_PORT || peek_mode(&d.payload) != Some(NtpMode::Server) {
            return;
        }
        let Ok(resp) = NtpPacket::decode(&d.payload) else { return };
        let now = ctx.now();
        let t4 = self.clock.now(now);
        if let Some(round) = &mut self.round {
            if let Some(t1) = round.pending.get(&d.src).copied() {
                if resp.origin_ts == t1 && !resp.is_kod() {
                    round.pending.remove(&d.src);
                    let (offset, _delay) = offset_and_delay(t1, resp.recv_ts, resp.xmit_ts, t4);
                    round.samples.push(offset);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::prelude::*;
    use ntp::server::NtpServer;

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    /// Compressed pool generation: the 24 lookups spaced just past the
    /// 150 s pool TTL so each one reaches the authoritative rotation (the
    /// reason the real proposal spaces them an hour apart).
    const DNS_INTERVAL: SimDuration = SimDuration::from_secs(160);
    /// Long enough for all [`crate::LOOKUPS`] lookups to have run.
    const GENERATION: SimDuration = SimDuration::from_secs(160 * crate::LOOKUPS as u64);

    fn build(seed: u64, honest: usize, shift: f64) -> Simulator {
        let mut sim = Simulator::with_topology(
            seed,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10))),
        );
        let servers: Vec<Ipv4Addr> =
            (1..=honest as u8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        for &s in &servers {
            let host = if shift == 0.0 {
                NtpServer::honest()
            } else {
                NtpServer::shifted(NtpDuration::from_secs_f64(shift))
            };
            sim.add_host(s, OsProfile::linux(), Box::new(host)).unwrap();
        }
        let zone = pool_zone(servers, 4, NS);
        let ns_list = spawn_zone_nameservers(&mut sim, [zone], OsProfile::nameserver(548));
        sim.add_host(
            RESOLVER,
            OsProfile::linux(),
            Box::new(Resolver::new(
                ResolverConfig::default(),
                vec![("pool.ntp.org".parse().unwrap(), ns_list)],
            )),
        )
        .unwrap();
        sim.add_host(
            CLIENT,
            OsProfile::linux(),
            Box::new(ChronosClient::new(DNS_INTERVAL, PoolSanity::none(), RESOLVER)),
        )
        .unwrap();
        sim
    }

    #[test]
    fn pool_accumulates_over_dns_rounds() {
        let mut sim = build(1, 24, 0.0);
        sim.run_for(GENERATION + SimDuration::from_mins(2));
        let c: &ChronosClient = sim.host(CLIENT).unwrap();
        assert_eq!(c.stats.dns_lookups, u64::from(crate::LOOKUPS));
        // 24 TTL-spaced lookups, 4 random of 24 servers each: expected
        // unique count ≈ 24·(1 − (20/24)²⁴) ≈ 23.7.
        assert!(c.pool().len() >= 22, "pool size {}", c.pool().len());
    }

    #[test]
    fn honest_pool_keeps_clock_sane() {
        let mut sim = build(2, 24, 0.0);
        sim.run_for(GENERATION + SimDuration::from_mins(14));
        let c: &ChronosClient = sim.host(CLIENT).unwrap();
        assert!(c.stats.rounds_accepted > 0);
        assert_eq!(c.stats.panics, 0);
        assert!(c.offset_secs(sim.now()).abs() < 0.5);
    }

    #[test]
    fn fully_malicious_pool_shifts_via_panic() {
        // If every pool server lies consistently (the post-poisoning state),
        // normal rounds fail the drift check, panic fires, and the clock
        // shifts — Chronos' guarantees vanish once the pool is stacked.
        let mut sim = build(3, 24, -500.0);
        sim.run_for(GENERATION + SimDuration::from_mins(14));
        let c: &ChronosClient = sim.host(CLIENT).unwrap();
        assert!(c.stats.panics > 0, "panic mode must fire");
        let off = c.offset_secs(sim.now());
        assert!((off + 500.0).abs() < 1.0, "expected -500 s, got {off}");
    }

    #[test]
    fn minority_attacker_cannot_shift() {
        // 18 honest + 6 malicious (25 % of the pool) — below the 1/3 bound.
        let mut sim = build(4, 18, 0.0);
        for i in 1..=6u8 {
            let addr = Ipv4Addr::new(6, 6, 6, i);
            sim.add_host(
                addr,
                OsProfile::linux(),
                Box::new(NtpServer::shifted(NtpDuration::from_secs(-500))),
            )
            .unwrap();
        }
        // Inject the malicious servers straight into the generator before
        // pool generation completes (the DNS-level injection is exercised
        // by the attack crate).
        {
            let c: &mut ChronosClient = sim.host_mut(CLIENT).unwrap();
            let malicious: Vec<Ipv4Addr> = (1..=6).map(|i| Ipv4Addr::new(6, 6, 6, i)).collect();
            c.generator.absorb(&malicious, 150);
        }
        sim.run_for(GENERATION + SimDuration::from_mins(14));
        let c: &ChronosClient = sim.host(CLIENT).unwrap();
        assert!(
            c.offset_secs(sim.now()).abs() < 0.5,
            "minority attacker shifted the clock by {}",
            c.offset_secs(sim.now())
        );
    }
}
