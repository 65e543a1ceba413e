//! The off-path poisoning attacker host — the boot-time attack of §IV-A
//! and the first stage of both the run-time (§IV-B) and Chronos (§VI)
//! attacks.
//!
//! This host wraps a [`PoisonPipeline`] in a 1 Hz driver loop. Once the
//! victim resolver's glue is poisoned, all further `pool.ntp.org`
//! resolutions land on the attacker's nameserver, which serves
//! attacker-controlled NTP server addresses with a long TTL. Any NTP client
//! booting behind that resolver then takes time from the attacker.

use netsim::prelude::*;

use crate::pipeline::{PoisonConfig, PoisonPipeline, PoisonStats};

const TICK: TimerToken = 1;

/// The off-path poisoning attacker.
#[derive(Debug)]
pub struct OffPathPoisoner {
    /// The embedded pipeline (public for scenario inspection).
    pub pipeline: PoisonPipeline,
}

impl OffPathPoisoner {
    /// Creates the attacker host.
    pub fn new(config: PoisonConfig) -> Self {
        OffPathPoisoner { pipeline: PoisonPipeline::new(config) }
    }

    /// True once the resolver serves attacker glue.
    pub fn glue_poisoned(&self) -> bool {
        self.pipeline.glue_poisoned()
    }

    /// True once the resolver serves the attacker's pool A records.
    pub fn fully_poisoned(&self) -> bool {
        self.pipeline.fully_poisoned()
    }

    /// Pipeline counters.
    pub fn stats(&self) -> PoisonStats {
        self.pipeline.stats
    }
}

impl Host for OffPathPoisoner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pipeline.start(ctx);
        ctx.set_timer(SimDuration::from_secs(1), TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token == TICK {
            self.pipeline.tick(ctx);
            ctx.set_timer(SimDuration::from_secs(1), TICK);
        }
    }

    fn on_raw_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &netsim::ipv4::Ipv4Packet) -> bool {
        self.pipeline.handle_raw(ctx.now(), pkt);
        false
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        self.pipeline.handle_datagram(ctx, d);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dns::prelude::*;
    use std::net::Ipv4Addr;

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    pub(crate) const ATTACKER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 66);
    const ATTACKER_NS: Ipv4Addr = Ipv4Addr::new(66, 66, 0, 1);

    /// The boot-time world: 8 pool nameservers, an open resolver (which
    /// takes fragments only if `accept_fragments`), the attacker's
    /// nameserver and the poisoner at [`ATTACKER`].
    pub(crate) fn boot_time_world(seed: u64, accept_fragments: bool) -> Simulator {
        let mut sim = Simulator::with_topology(
            seed,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(15))),
        );
        let pool_servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(pool_servers, 23, Ipv4Addr::new(198, 51, 100, 1));
        let ns_list = spawn_zone_nameservers(&mut sim, [zone], OsProfile::nameserver(548));
        let mut profile = OsProfile::linux();
        profile.fragments = accept_fragments.then_some(0);
        let hints = vec![("pool.ntp.org".parse().unwrap(), ns_list.clone())];
        let resolver = Resolver::new(ResolverConfig::default(), hints);
        sim.add_host(RESOLVER, profile, Box::new(resolver)).unwrap();
        // Attacker's malicious nameserver (what the poisoned glue points to).
        let malicious = (1..=89u32).map(|i| Ipv4Addr::from(0x4242_0100 + i)).collect();
        let attacker_ns = AuthServer::new(vec![malicious_pool_zone(malicious, 89, 2 * 86_400)]);
        sim.add_host(ATTACKER_NS, OsProfile::linux(), Box::new(attacker_ns)).unwrap();
        let config = PoisonConfig::open_resolver(RESOLVER, ns_list, ATTACKER_NS);
        sim.add_host(ATTACKER, OsProfile::linux(), Box::new(OffPathPoisoner::new(config))).unwrap();
        sim
    }

    /// Full off-path boot-time poisoning, end to end through the simulator:
    /// ICMP MTU forcing → IPID probing → fragment planting → triggered
    /// resolution → glue poisoning → redirected re-resolution → malicious
    /// pool A set in the resolver cache.
    #[test]
    fn end_to_end_glue_then_full_poisoning() {
        let mut sim = boot_time_world(42, true);
        sim.run_for(SimDuration::from_mins(30));
        let attacker: &OffPathPoisoner = sim.host(ATTACKER).unwrap();
        assert!(attacker.glue_poisoned(), "glue must be poisoned; stats: {:?}", attacker.stats());
        assert!(
            attacker.fully_poisoned(),
            "pool A must be poisoned after the TTL window; stats: {:?}",
            attacker.stats()
        );
        // The resolver's cache now hands out 89 malicious addresses.
        let resolver: &Resolver = sim.host(RESOLVER).unwrap();
        let hit = resolver
            .cache()
            .lookup(sim.now(), &"pool.ntp.org".parse().unwrap(), RecordType::A)
            .expect("pool A cached");
        assert_eq!(hit.records.len(), 89);
        assert!(hit.remaining_ttl > 86_400, "long-TTL poisoning (Chronos §VI)");
    }

    /// With a resolver that filters fragments (e.g. Google-style), the
    /// identical attack fails.
    #[test]
    fn fragment_filtering_resolver_defeats_poisoning() {
        let mut sim = boot_time_world(43, false);
        sim.run_for(SimDuration::from_mins(30));
        let attacker: &OffPathPoisoner = sim.host(ATTACKER).unwrap();
        assert!(!attacker.glue_poisoned(), "fragment filtering must stop the attack");
        assert!(!attacker.fully_poisoned());
    }
}
