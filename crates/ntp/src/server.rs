//! NTP servers: honest, shifted (attacker-controlled) and rate limiting.
//!
//! Rate limiting is the paper's association-breaking lever (§IV-B2): the
//! attacker floods a server with mode-3 queries spoofed from the victim's
//! address; the server then stops answering the victim's *real* polls, so
//! the victim eventually declares the server unreachable and turns to DNS
//! for a replacement.

use netsim::fasthash::FastMap;
use std::net::Ipv4Addr;

use netsim::prelude::*;

use crate::packet::{peek_mode, ControlMessage, NtpMode, NtpPacket, NTP_PORT};
use crate::timestamp::{NtpDuration, NtpTimestamp};

/// Rate-limiter configuration, modelled on ntpd's `discard` / `restrict
/// limited [kod]` behaviour. A server runs a limiter only if it has one
/// ([`NtpServer::rate_limit`]; ≈38 % of pool servers, §VII-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Send a Kiss-o'-Death RATE packet when limiting starts (≈33 % of pool
    /// servers; the rest go silent immediately).
    pub send_kod: bool,
    /// How long after the most recent violation the client stays limited.
    pub cooldown: SimDuration,
}

impl RateLimitConfig {
    /// ntpd-style `restrict limited kod`: KoD once, then silence, with a
    /// 60 s cooldown.
    pub fn kod() -> Self {
        RateLimitConfig { send_kod: true, cooldown: SimDuration::from_secs(60) }
    }

    /// Silent limiting: just stop answering (60 s cooldown).
    pub fn silent() -> Self {
        RateLimitConfig { send_kod: false, ..RateLimitConfig::kod() }
    }
}

/// Minimum allowed inter-arrival per client IP (ntpd `discard average`,
/// default 2 s ⇒ a 1 Hz scanner trips it).
const MIN_GAP: SimDuration = SimDuration::from_secs(2);
/// Violations tolerated before limiting starts.
const BURST: u32 = 8;

#[derive(Debug, Default, Clone, Copy)]
struct PerClient {
    last_seen: Option<SimTime>,
    score: f64,
    limited_until: Option<SimTime>,
    kod_sent: bool,
}

/// Counters exposed by an [`NtpServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Mode-3 queries received.
    pub queries: u64,
    /// Normal responses sent.
    pub responses: u64,
    /// Queries dropped by the limiter.
    pub rate_limited: u64,
    /// KoD packets sent.
    pub kods_sent: u64,
    /// Mode-6 control queries answered.
    pub control_answered: u64,
}

/// An NTP server host listening on port 123.
#[derive(Debug)]
pub struct NtpServer {
    /// Time served = true time + `shift` (honest servers: zero; the
    /// attacker's servers: −500 s in the paper's evaluation).
    pub shift: NtpDuration,
    /// Stratum advertised.
    pub stratum: u8,
    /// Refid advertised — for stratum ≥ 2 this is the upstream's IPv4
    /// address (the P2 leak); defaults to a stratum-1 style tag.
    pub ref_id: [u8; 4],
    /// Rate limiter; `None` answers every query.
    pub rate_limit: Option<RateLimitConfig>,
    /// Whether the mode-6 configuration interface is exposed to the
    /// Internet (≈5.3 % of pool servers, §IV-B2c).
    pub open_config: bool,
    /// Upstream peers reported by the config interface.
    pub upstream_peers: Vec<Ipv4Addr>,
    clients: FastMap<Ipv4Addr, PerClient>,
    /// Counters.
    pub stats: ServerStats,
}

impl NtpServer {
    /// An honest stratum-2 server serving true time.
    pub fn honest() -> Self {
        NtpServer {
            shift: NtpDuration::ZERO,
            stratum: 2,
            ref_id: [127, 127, 1, 0],
            rate_limit: None,
            open_config: false,
            upstream_peers: Vec::new(),
            clients: FastMap::default(),
            stats: ServerStats::default(),
        }
    }

    /// An attacker-controlled server serving `shift`-ed time.
    pub fn shifted(shift: NtpDuration) -> Self {
        NtpServer { shift, ..NtpServer::honest() }
    }

    /// Builder: sets the rate limiter (`None` for none).
    pub fn with_rate_limit(mut self, config: Option<RateLimitConfig>) -> Self {
        self.rate_limit = config;
        self
    }

    /// Builder: exposes the mode-6 config interface reporting `peers`.
    pub fn with_open_config(mut self, peers: Vec<Ipv4Addr>) -> Self {
        self.open_config = true;
        self.upstream_peers = peers;
        self
    }

    /// The limiter's verdict for a query from `src` at `now`.
    fn limiter_verdict(&mut self, now: SimTime, src: Ipv4Addr) -> Verdict {
        let Some(config) = self.rate_limit else {
            return Verdict::Answer;
        };
        let state = self.clients.entry(src).or_default();
        if let Some(last) = state.last_seen {
            let gap = now.saturating_since(last);
            if gap < MIN_GAP {
                state.score += 1.0;
            } else {
                // Decay one violation per multiple of MIN_GAP elapsed.
                let decay = gap.as_nanos() as f64 / MIN_GAP.as_nanos() as f64;
                state.score = (state.score - decay).max(0.0);
            }
        }
        state.last_seen = Some(now);
        if state.score > f64::from(BURST) {
            state.limited_until = Some(now + config.cooldown);
        }
        match state.limited_until {
            Some(until) if now < until => {
                if config.send_kod && !state.kod_sent {
                    state.kod_sent = true;
                    Verdict::Kod
                } else {
                    Verdict::Drop
                }
            }
            Some(_) => {
                // Cooldown elapsed: forgive.
                state.limited_until = None;
                state.kod_sent = false;
                state.score = 0.0;
                Verdict::Answer
            }
            None => Verdict::Answer,
        }
    }

    /// Whether `src` is currently limited (introspection for tests).
    pub fn is_limiting(&self, now: SimTime, src: Ipv4Addr) -> bool {
        matches!(
            self.clients.get(&src).and_then(|s| s.limited_until),
            Some(until) if now < until
        )
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Answer,
    Kod,
    Drop,
}

impl Host for NtpServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != NTP_PORT {
            return;
        }
        match peek_mode(&d.payload) {
            Some(NtpMode::Control) => {
                if !self.open_config {
                    return;
                }
                if ControlMessage::decode(&d.payload) == Ok(ControlMessage::PeersRequest) {
                    self.stats.control_answered += 1;
                    let resp = ControlMessage::PeersResponse(self.upstream_peers.clone());
                    ctx.send_udp(d.src, NTP_PORT, d.src_port, resp.encode());
                }
            }
            Some(NtpMode::Client) => {
                let Ok(req) = NtpPacket::decode(&d.payload) else { return };
                self.stats.queries += 1;
                let now = ctx.now();
                match self.limiter_verdict(now, d.src) {
                    Verdict::Answer => {
                        let server_now = NtpTimestamp::at_sim_time(now) + self.shift;
                        let resp = NtpPacket::server_response(
                            &req,
                            self.stratum,
                            self.ref_id,
                            server_now,
                            server_now,
                        );
                        self.stats.responses += 1;
                        ctx.send_udp(d.src, NTP_PORT, d.src_port, resp.encode());
                    }
                    Verdict::Kod => {
                        self.stats.kods_sent += 1;
                        let server_now = NtpTimestamp::at_sim_time(now) + self.shift;
                        let kod = NtpPacket::kiss_of_death(&req, server_now);
                        ctx.send_udp(d.src, NTP_PORT, d.src_port, kod.encode());
                    }
                    Verdict::Drop => {
                        self.stats.rate_limited += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

    fn at(secs_milli: (u64, u64)) -> SimTime {
        SimTime::from_nanos(secs_milli.0 * 1_000_000_000 + secs_milli.1 * 1_000_000)
    }

    #[test]
    fn limiter_allows_normal_polling() {
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig::kod()));
        // 64-second polls never trip the limiter.
        for i in 0..20 {
            let verdict = server.limiter_verdict(SimTime::from_secs(i * 64), CLIENT);
            assert_eq!(verdict, Verdict::Answer, "poll {i}");
        }
    }

    #[test]
    fn flood_trips_limiter_then_kod_then_silence() {
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig::kod()));
        let mut verdicts = Vec::new();
        for i in 0..20u64 {
            verdicts.push(server.limiter_verdict(at((0, i * 100)), CLIENT));
        }
        let first_kod = verdicts.iter().position(|v| *v == Verdict::Kod);
        assert!(first_kod.is_some(), "KoD must eventually fire: {verdicts:?}");
        let after = &verdicts[first_kod.unwrap() + 1..];
        assert!(after.iter().all(|v| *v == Verdict::Drop), "silence after KoD");
    }

    #[test]
    fn silent_limiter_never_kods() {
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig::silent()));
        let mut any_kod = false;
        for i in 0..20u64 {
            any_kod |= server.limiter_verdict(at((0, i * 100)), CLIENT) == Verdict::Kod;
        }
        assert!(!any_kod);
        assert!(server.is_limiting(at((0, 2000)), CLIENT));
    }

    #[test]
    fn limited_client_blocks_even_slow_polls_while_flooded() {
        // The victim's legitimate 64 s polls are dropped while the attacker
        // keeps the score pinned with a continuing flood.
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig::silent()));
        // Flood: 50 packets, 200 ms apart.
        for i in 0..50u64 {
            let _ = server.limiter_verdict(at((0, i * 200)), CLIENT);
        }
        // Victim's real poll at t=12 s — cooldown (60 s) still active.
        let verdict = server.limiter_verdict(SimTime::from_secs(12), CLIENT);
        assert_eq!(verdict, Verdict::Drop);
    }

    #[test]
    fn cooldown_forgives_after_quiet_period() {
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig::silent()));
        for i in 0..50u64 {
            let _ = server.limiter_verdict(at((0, i * 200)), CLIENT);
        }
        // 10 minutes later the client is forgiven.
        let verdict = server.limiter_verdict(SimTime::from_secs(600), CLIENT);
        assert_eq!(verdict, Verdict::Answer);
    }

    #[test]
    fn scanner_pattern_first_half_vs_second_half() {
        // The paper's §VII-A methodology: 64 queries at 1 Hz; rate limiting
        // shows up as ≥8 more responses in the first half than the second.
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig {
            cooldown: SimDuration::from_secs(120),
            ..RateLimitConfig::kod()
        }));
        let mut first = 0;
        let mut second = 0;
        for i in 0..64u64 {
            let v = server.limiter_verdict(SimTime::from_secs(i), CLIENT);
            let answered = v == Verdict::Answer;
            if i < 32 {
                first += i32::from(answered);
            } else {
                second += i32::from(answered);
            }
        }
        assert!(first - second > 8, "first={first} second={second}");
    }

    #[test]
    fn limiter_state_is_per_client() {
        let other = Ipv4Addr::new(10, 0, 0, 8);
        let mut server = NtpServer::honest().with_rate_limit(Some(RateLimitConfig::silent()));
        for i in 0..50u64 {
            let _ = server.limiter_verdict(at((0, i * 100)), CLIENT);
        }
        assert_eq!(server.limiter_verdict(SimTime::from_secs(6), other), Verdict::Answer);
    }
}
