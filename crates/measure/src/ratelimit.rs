//! The §VII-A rate-limiting scan of `pool.ntp.org` servers.
//!
//! Methodology exactly as in the paper: query each server 64 times, once
//! per second, and classify as rate limiting if the first half of the test
//! yielded more than 8 additional responses compared to the second half;
//! KoD packets are recorded separately. A mode-6 probe also checks for an
//! exposed configuration interface.

use std::net::Ipv4Addr;

use netsim::prelude::*;
use ntp::packet::{peek_mode, ControlMessage, NtpMode, NtpPacket, NTP_PORT};
use ntp::server::{NtpServer, RateLimitConfig};
use ntp::timestamp::NtpTimestamp;

use crate::population::PoolServerSpec;

/// Per-server scan classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerVerdict {
    /// Responses in the first 32 queries.
    pub first_half: u32,
    /// Responses in the last 32 queries.
    pub second_half: u32,
    /// A KoD was received.
    pub kod_seen: bool,
    /// The configuration interface answered.
    pub config_open: bool,
}

impl ServerVerdict {
    /// The paper's detection rule: first half − second half > 8.
    pub fn rate_limiting(&self) -> bool {
        self.first_half as i64 - self.second_half as i64 > 8
    }

    /// The §VII-A counting rule: KoD is "a clear indicator", and silent
    /// limiters are caught by the halves heuristic.
    pub fn counted_as_rate_limiting(&self) -> bool {
        self.rate_limiting() || self.kod_seen
    }
}

/// Aggregate result of the scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateLimitScanResult {
    /// Servers scanned.
    pub scanned: usize,
    /// Servers that sent KoD packets.
    pub kod_senders: usize,
    /// Servers that stopped responding (the Δ>8 heuristic).
    pub rate_limiting: usize,
    /// Servers answering mode-6 configuration queries.
    pub config_open: usize,
}

impl RateLimitScanResult {
    /// Fraction of servers detected as rate limiting.
    pub fn rate_limit_fraction(&self) -> f64 {
        self.rate_limiting as f64 / self.scanned.max(1) as f64
    }

    /// Fraction sending KoD.
    pub fn kod_fraction(&self) -> f64 {
        self.kod_senders as f64 / self.scanned.max(1) as f64
    }

    /// Fraction with an open config interface.
    pub fn config_fraction(&self) -> f64 {
        self.config_open as f64 / self.scanned.max(1) as f64
    }
}

/// The scanning host: 64 mode-3 queries at 1 Hz plus one mode-6 probe.
#[derive(Debug)]
struct Scanner {
    target: Ipv4Addr,
    sent: u32,
    verdict: ServerVerdict,
}

const QUERIES: u32 = 64;

impl Host for Scanner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_udp(self.target, NTP_PORT, NTP_PORT, ControlMessage::PeersRequest.encode());
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if self.sent >= QUERIES {
            return;
        }
        self.sent += 1;
        let t = NtpTimestamp::at_sim_time(ctx.now());
        ctx.send_udp(self.target, NTP_PORT, NTP_PORT, NtpPacket::client_request(t).encode());
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        match peek_mode(&d.payload) {
            Some(NtpMode::Server) => {
                if let Ok(resp) = NtpPacket::decode(&d.payload) {
                    if resp.is_kod() {
                        self.verdict.kod_seen = true;
                    } else if self.sent <= QUERIES / 2 {
                        self.verdict.first_half += 1;
                    } else {
                        self.verdict.second_half += 1;
                    }
                }
            }
            Some(NtpMode::Control) if ControlMessage::decode(&d.payload).is_ok() => {
                self.verdict.config_open = true;
            }
            _ => {}
        }
    }
}

/// Scans one synthetic server in an isolated mini-simulation.
pub fn scan_server(spec: &PoolServerSpec, seed: u64) -> ServerVerdict {
    let scanner_addr: Ipv4Addr = "203.0.113.5".parse().expect("static");
    let server_addr: Ipv4Addr = "192.0.2.1".parse().expect("static");
    let mut sim = Simulator::with_topology(
        seed,
        Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(20))),
    );
    let rate_limit = if spec.rate_limits {
        let base = if spec.sends_kod { RateLimitConfig::kod() } else { RateLimitConfig::silent() };
        RateLimitConfig { cooldown: SimDuration::from_secs(120), ..base }
    } else {
        RateLimitConfig::disabled()
    };
    let mut server = NtpServer::honest().with_rate_limit(rate_limit);
    if spec.open_config {
        server = server.with_open_config(vec!["10.1.1.1".parse().expect("static")]);
    }
    sim.add_host(server_addr, OsProfile::linux(), Box::new(server)).expect("server addr");
    sim.add_host(
        scanner_addr,
        OsProfile::linux(),
        Box::new(Scanner {
            target: server_addr,
            sent: 0,
            verdict: ServerVerdict {
                first_half: 0,
                second_half: 0,
                kod_seen: false,
                config_open: false,
            },
        }),
    )
    .expect("scanner addr");
    sim.run_for(SimDuration::from_secs(70));
    sim.host::<Scanner>(scanner_addr).expect("scanner exists").verdict
}

/// Folds per-server verdicts, in population order, into the §VII-A
/// aggregate.
impl FromIterator<ServerVerdict> for RateLimitScanResult {
    fn from_iter<T: IntoIterator<Item = ServerVerdict>>(verdicts: T) -> Self {
        let mut result = RateLimitScanResult::default();
        for v in verdicts {
            result.scanned += 1;
            result.kod_senders += usize::from(v.kod_seen);
            result.rate_limiting += usize::from(v.counted_as_rate_limiting());
            result.config_open += usize::from(v.config_open);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::pool_servers;

    fn scan_all(population: &[PoolServerSpec], seed: u64, workers: usize) -> RateLimitScanResult {
        runner::TrialRunner::new(workers)
            .run(population, |idx, spec| scan_server(spec, crate::scan_seed(seed, idx)))
            .into_iter()
            .collect()
    }

    #[test]
    fn limiting_server_detected_by_halves_rule() {
        let verdict = scan_server(
            &PoolServerSpec { rate_limits: true, sends_kod: false, open_config: false },
            1,
        );
        assert!(verdict.rate_limiting(), "{verdict:?}");
        assert!(!verdict.kod_seen);
    }

    #[test]
    fn kod_server_detected() {
        let verdict = scan_server(
            &PoolServerSpec { rate_limits: true, sends_kod: true, open_config: false },
            2,
        );
        assert!(verdict.kod_seen, "{verdict:?}");
    }

    #[test]
    fn open_server_answers_everything() {
        let verdict = scan_server(
            &PoolServerSpec { rate_limits: false, sends_kod: false, open_config: false },
            3,
        );
        assert!(!verdict.rate_limiting(), "{verdict:?}");
        assert_eq!(verdict.first_half + verdict.second_half, 64);
    }

    #[test]
    fn config_interface_detected() {
        let verdict = scan_server(
            &PoolServerSpec { rate_limits: false, sends_kod: false, open_config: true },
            4,
        );
        assert!(verdict.config_open);
    }

    #[test]
    fn small_population_scan_recovers_marginals() {
        let population = pool_servers(300, 11);
        let result = scan_all(&population, 12, 4);
        assert_eq!(result.scanned, 300);
        assert!(
            (result.rate_limit_fraction() - 0.38).abs() < 0.08,
            "rate limiting {}",
            result.rate_limit_fraction()
        );
        assert!((result.kod_fraction() - 0.33).abs() < 0.08, "kod {}", result.kod_fraction());
    }
}
