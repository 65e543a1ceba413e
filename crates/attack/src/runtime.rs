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
use rand::RngExt;

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
        // One request goes to every target, so the round's datagrams are
        // encoded into one buffer and each packet carries a slice of it.
        if self.flood_targets.is_empty() {
            return;
        }
        let t = NtpTimestamp::at_sim_time(ctx.now());
        let dgram = UdpDatagram::new(NTP_PORT, NTP_PORT, NtpPacket::client_request(t).encode());
        let Ok(wire) = dgram.encode_each(self.victim, self.flood_targets.iter().copied()) else {
            return;
        };
        let len = dgram.wire_len();
        for (i, &server) in self.flood_targets.iter().enumerate() {
            self.stats.spoofed_queries += 1;
            // The IPID draw `Ctx::send_udp_spoofed` makes, in the same order.
            let id = ctx.rng().random();
            ctx.send_raw(Ipv4Packet::udp(
                self.victim,
                server,
                id,
                wire.slice(i * len..(i + 1) * len),
            ));
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
    use bytes::Bytes;

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

    const VICTIM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    /// A flood target that keeps every packet it is sent.
    #[derive(Default)]
    struct Recorder {
        /// Arrival time, IPID and UDP bytes of each packet.
        packets: Vec<(SimTime, u16, Bytes)>,
        /// Datagrams that passed the stack's checksum check.
        verified: usize,
    }

    impl Host for Recorder {
        fn on_raw_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Ipv4Packet) -> bool {
            self.packets.push((ctx.now(), pkt.id, pkt.payload.clone()));
            false
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _d: &Datagram) {
            self.verified += 1;
        }
    }

    /// The flood as it was sent before it shared one buffer per round:
    /// one `Ctx::send_udp_spoofed` per target, each encoding its own
    /// datagram. Everything else is the attacker's own P1 behaviour.
    struct PerPacketFlood(RuntimeAttacker);

    impl Host for PerPacketFlood {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.on_start(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            let attacker = &mut self.0;
            let t = NtpTimestamp::at_sim_time(ctx.now());
            let payload = NtpPacket::client_request(t).encode();
            for &server in &attacker.flood_targets {
                attacker.stats.spoofed_queries += 1;
                ctx.send_udp_spoofed(attacker.victim, server, NTP_PORT, NTP_PORT, payload.clone());
            }
            attacker.pipeline.tick(ctx);
            assert_eq!(token, TICK);
            ctx.set_timer(FLOOD_INTERVAL, TICK);
        }
        fn on_raw_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Ipv4Packet) -> bool {
            self.0.on_raw_packet(ctx, pkt)
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
            self.0.on_datagram(ctx, d);
        }
    }

    /// Ten seconds of P1 against four recording servers, over jittery WAN
    /// links (whose delays draw from the same RNG as the IPIDs); returns
    /// what each server received.
    fn p1_flood(per_packet: bool) -> Vec<Vec<(SimTime, u16, Bytes)>> {
        let servers: Vec<Ipv4Addr> = (1..=4).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let attacker = RuntimeAttacker::new(
            PoisonConfig::closed_resolver(
                "10.0.0.53".parse().unwrap(),
                vec!["198.51.100.1".parse().unwrap()],
                "66.66.0.1".parse().unwrap(),
            ),
            VICTIM,
            RuntimeScenario::KnownUpstreams { servers: servers.clone() },
        );
        let mut sim = Simulator::new(7);
        for &server in &servers {
            sim.add_host(server, OsProfile::linux(), Box::<Recorder>::default()).unwrap();
        }
        let host: Box<dyn Host> =
            if per_packet { Box::new(PerPacketFlood(attacker)) } else { Box::new(attacker) };
        sim.add_host("10.0.0.66".parse().unwrap(), OsProfile::linux(), host).unwrap();
        sim.run_for(SimDuration::from_secs(10));
        servers
            .iter()
            .map(|&server| {
                let recorder: &Recorder = sim.host(server).unwrap();
                assert_eq!(recorder.verified, recorder.packets.len(), "checksums verify");
                recorder.packets.clone()
            })
            .collect()
    }

    /// Every spoofed datagram of every flood round is the request of its
    /// round encoded on its own for its server, and every IPID is the draw
    /// `Ctx::send_udp_spoofed` makes for it.
    #[test]
    fn one_buffer_per_round_sends_the_per_packet_flood() {
        let shared = p1_flood(false);
        let servers = (1..=4).map(|i| Ipv4Addr::new(192, 0, 2, i));
        for (received, server) in shared.iter().zip(servers) {
            // Rounds at 0.5 s, 1 s, … 9.5 s arrive 20–25 ms later.
            assert_eq!(received.len(), 19, "one packet per round to {server}");
            for (at, _, wire) in received {
                let round = SimTime::from_nanos(at.as_nanos() / 500_000_000 * 500_000_000);
                let request = NtpPacket::client_request(NtpTimestamp::at_sim_time(round));
                let dgram = UdpDatagram::new(NTP_PORT, NTP_PORT, request.encode());
                assert_eq!(*wire, dgram.encode(VICTIM, server).unwrap(), "round {round}");
            }
        }
        assert_eq!(shared, p1_flood(true), "IPIDs, arrival times or bytes differ");
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
