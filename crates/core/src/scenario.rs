//! Victim-network scenarios: one-call construction of the full attack
//! topology (resolver, pool nameserver fleet, honest NTP servers,
//! attacker's nameserver and NTP servers) plus runners for the paper's
//! three attacks.

use std::net::Ipv4Addr;

use attack::prelude::*;
use chronos::prelude::*;
use dns::prelude::*;
use netsim::prelude::*;
use ntp::prelude::*;

/// Well-known addresses of a scenario.
#[derive(Debug, Clone)]
pub struct Addrs {
    /// The victim's recursive resolver.
    pub resolver: Ipv4Addr,
    /// Authoritative nameservers of `pool.ntp.org`.
    pub ns_list: Vec<Ipv4Addr>,
    /// Honest pool NTP servers.
    pub pool_servers: Vec<Ipv4Addr>,
    /// The off-path attacker machine.
    pub attacker: Ipv4Addr,
    /// The attacker's malicious nameserver.
    pub attacker_ns: Ipv4Addr,
    /// The attacker's NTP servers (serving shifted time).
    pub malicious_ntp: Vec<Ipv4Addr>,
    /// The victim NTP client (when spawned).
    pub victim: Ipv4Addr,
}

/// Scenario parameters: what the paper's trials vary.
///
/// What they share is a constant: the honest pool of [`POOL_SIZE`]
/// servers behind [`NS_COUNT`] nameservers, the [`MALICIOUS_COUNT`]
/// attacker addresses, and a fixed [`LINK_LATENCY`] on every path.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed for the whole simulation.
    pub seed: u64,
    /// Rate limiting on the honest servers (the run-time attack needs it;
    /// `None` for none).
    pub rate_limit: Option<RateLimitConfig>,
    /// Time shift served by malicious NTP servers (paper: −500 s).
    pub shift_secs: f64,
    /// Whether the resolver answers the attacker (open resolver): enables
    /// attacker-triggered resolution and RD=0 success checks.
    pub resolver_open: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 7,
            rate_limit: Some(RateLimitConfig::kod()),
            shift_secs: -500.0,
            resolver_open: true,
        }
    }
}

/// Honest pool servers.
pub const POOL_SIZE: usize = 8;
/// Pool nameservers (23 puts all glue in fragment 2).
pub const NS_COUNT: usize = 23;
/// Attacker NTP servers, and addresses in the attacker's poisoned pool
/// response (paper §VI: 89).
pub const MALICIOUS_COUNT: u32 = 89;
/// One-way latency of every simulated path (fixed, lossless, no jitter).
pub const LINK_LATENCY: SimDuration = SimDuration::from_millis(15);

/// The honest pool servers' addresses, `192.0.2.1` to `192.0.2.8`: the
/// hosts of [`Scenario::build`] and the set a P1 run-time attacker
/// enumerates.
pub fn pool_servers() -> Vec<Ipv4Addr> {
    (1..=POOL_SIZE as u32).map(|i| Ipv4Addr::from(0xC000_0200 + i)).collect()
}

/// The attacker's [`MALICIOUS_COUNT`] NTP server addresses, `66.66.1.1`
/// onwards (inside [`attack::pipeline::MALICIOUS_NET`]): the hosts of
/// [`Scenario::build`] and the addresses of its poisoned pool response.
pub fn malicious_servers() -> Vec<Ipv4Addr> {
    (1..=MALICIOUS_COUNT).map(|i| Ipv4Addr::from(0x4242_0100 + i)).collect()
}

/// A constructed scenario: the simulator plus its address book.
pub struct Scenario {
    /// The simulator (run it, inspect hosts).
    pub sim: Simulator,
    /// Address book.
    pub addrs: Addrs,
    /// The configuration used.
    pub config: ScenarioConfig,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario").field("addrs", &self.addrs).finish_non_exhaustive()
    }
}

impl Scenario {
    /// Builds the victim network: resolver, NS fleet, honest pool servers
    /// (rate limiting per config), the attacker's nameserver and NTP
    /// servers. The attacker host itself is launched by the attack runners.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let link = LinkSpec::fixed(LINK_LATENCY);
        let mut sim = Simulator::with_topology(config.seed, Topology::uniform(link));
        // Pre-size the host slab and address interner for the whole
        // population (pool + NS fleet + resolver + attacker NS + malicious
        // servers): one allocation, no mid-registration rehash.
        sim.reserve_hosts(POOL_SIZE + NS_COUNT + MALICIOUS_COUNT as usize + 2);
        let pool_servers = pool_servers();
        for &addr in &pool_servers {
            sim.add_host(
                addr,
                OsProfile::linux(),
                Box::new(NtpServer::honest().with_rate_limit(config.rate_limit)),
            )
            .expect("pool server address free");
        }
        let zone = pool_zone(pool_servers.clone(), NS_COUNT, Ipv4Addr::new(198, 51, 100, 1));
        let ns_list = spawn_zone_nameservers(&mut sim, [zone], OsProfile::nameserver(548));
        let resolver_addr = Ipv4Addr::new(10, 0, 0, 53);
        sim.add_host(
            resolver_addr,
            OsProfile::linux(),
            Box::new(Resolver::new(
                ResolverConfig::default(),
                vec![(pool_domain(), ns_list.clone())],
            )),
        )
        .expect("resolver address free");
        // Attacker infrastructure.
        let attacker_ns = Ipv4Addr::new(66, 66, 0, 1);
        let malicious_ntp = malicious_servers();
        sim.add_host(
            attacker_ns,
            OsProfile::linux(),
            Box::new(AuthServer::new(vec![malicious_pool_zone(
                malicious_ntp.clone(),
                MALICIOUS_COUNT as usize,
                2 * 86_400,
            )])),
        )
        .expect("attacker NS address free");
        for &addr in &malicious_ntp {
            sim.add_host(
                addr,
                OsProfile::linux(),
                Box::new(NtpServer::shifted(NtpDuration::from_secs_f64(config.shift_secs))),
            )
            .expect("malicious server address free");
        }
        let addrs = Addrs {
            resolver: resolver_addr,
            ns_list,
            pool_servers,
            attacker: Ipv4Addr::new(203, 0, 113, 66),
            attacker_ns,
            malicious_ntp,
            victim: Ipv4Addr::new(10, 0, 0, 100),
        };
        Scenario { sim, addrs, config }
    }

    fn poison_config(&self) -> PoisonConfig {
        let make = if self.config.resolver_open {
            PoisonConfig::open_resolver
        } else {
            PoisonConfig::closed_resolver
        };
        make(self.addrs.resolver, self.addrs.ns_list.clone(), self.addrs.attacker_ns)
    }

    /// Launches the boot-time/Chronos poisoner at the attacker address.
    pub fn launch_poisoner(&mut self) {
        let config = self.poison_config();
        self.sim
            .add_host(
                self.addrs.attacker,
                OsProfile::linux(),
                Box::new(OffPathPoisoner::new(config)),
            )
            .expect("attacker address free");
    }

    /// Launches the run-time attacker against `victim`.
    pub fn launch_runtime_attacker(&mut self, victim: Ipv4Addr, scenario: RuntimeScenario) {
        let config = self.poison_config();
        self.sim
            .add_host(
                self.addrs.attacker,
                OsProfile::linux(),
                Box::new(RuntimeAttacker::new(config, victim, scenario)),
            )
            .expect("attacker address free");
    }

    /// Spawns a victim NTP client of the given kind.
    pub fn spawn_victim(&mut self, kind: ClientKind) -> Ipv4Addr {
        let addr = self.addrs.victim;
        self.sim
            .add_host(addr, OsProfile::linux(), Box::new(NtpClient::new(kind, self.addrs.resolver)))
            .expect("victim address free");
        addr
    }

    /// Spawns a Chronos client whose pool-generation lookups run
    /// `dns_interval` apart.
    pub fn spawn_chronos(&mut self, dns_interval: SimDuration, sanity: PoolSanity) -> Ipv4Addr {
        let addr = self.addrs.victim;
        self.sim
            .add_host(
                addr,
                OsProfile::linux(),
                Box::new(ChronosClient::new(dns_interval, sanity, self.addrs.resolver)),
            )
            .expect("victim address free");
        addr
    }

    /// The poisoner host, if launched.
    pub fn poisoner(&self) -> Option<&OffPathPoisoner> {
        self.sim.host(self.addrs.attacker)
    }

    /// The run-time attacker host, if launched.
    pub fn runtime_attacker(&self) -> Option<&RuntimeAttacker> {
        self.sim.host(self.addrs.attacker)
    }

    /// The victim NTP client, if spawned.
    pub fn victim(&self) -> Option<&NtpClient> {
        self.sim.host(self.addrs.victim)
    }

    /// Runs until `predicate` holds (checked every `step`) or `deadline`
    /// passes; returns the time the predicate first held.
    pub fn run_until_condition(
        &mut self,
        step: SimDuration,
        deadline: SimDuration,
        mut predicate: impl FnMut(&Scenario) -> bool,
    ) -> Option<SimTime> {
        let end = self.sim.now() + deadline;
        while self.sim.now() < end {
            if predicate(self) {
                return Some(self.sim.now());
            }
            let next = self.sim.now() + step;
            self.sim.run_until(next);
        }
        if predicate(self) {
            return Some(self.sim.now());
        }
        None
    }
}

/// The result of an attack run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Whether the victim's clock ended up within 1 s of the target shift.
    pub success: bool,
    /// Observed final clock offset (seconds from true time).
    pub observed_shift: f64,
    /// Attack duration: from attack start to the first large clock step.
    pub duration_secs: Option<f64>,
    /// Total packets the simulation put on the wire.
    pub packets_sent: u64,
    /// Receive-path drops attributable to the fragment/reassembly
    /// machinery (cap-full, duplicates, expiries, filtering), summed over
    /// every host in the simulation ([`SimStats::drops`]).
    pub frag_drops: u64,
    /// Receive-path drops caught by UDP verification — the checksum/length
    /// defence a forgery without a fix-up dies on.
    pub verify_drops: u64,
    /// All taxonomy-counted drops.
    pub total_drops: u64,
}

impl AttackOutcome {
    /// Compact explanation of where a failed trial died, derived from the
    /// drop taxonomy: `"none"` for successes, otherwise the dominant drop
    /// category (`"verify"` / `"frag"`), or `"timing"` when nothing was
    /// dropped and the attack simply did not land in its window.
    pub fn fail_stage(&self) -> &'static str {
        if self.success {
            "none"
        } else if self.verify_drops > self.frag_drops {
            "verify"
        } else if self.frag_drops > 0 {
            "frag"
        } else {
            "timing"
        }
    }
}

/// Runs the full boot-time attack (§IV-A) against a client of `kind`:
/// poison the resolver first, then boot the victim behind it.
pub fn run_boot_time_attack(config: ScenarioConfig, kind: ClientKind) -> AttackOutcome {
    let target_shift = config.shift_secs;
    let mut scenario = Scenario::build(config);
    scenario.launch_poisoner();
    let poisoned_at =
        scenario.run_until_condition(SimDuration::from_secs(30), SimDuration::from_mins(30), |s| {
            s.poisoner().map(OffPathPoisoner::fully_poisoned).unwrap_or(false)
        });
    let boot_at = scenario.sim.now();
    scenario.spawn_victim(kind);
    scenario.sim.run_for(SimDuration::from_mins(10));
    let victim = scenario.victim().expect("victim exists");
    let observed = victim.offset_secs(scenario.sim.now());
    let duration_secs =
        victim.first_large_step().map(|(t, _)| t.saturating_since(boot_at).as_secs_f64());
    let success = poisoned_at.is_some() && (observed - target_shift).abs() < 1.0;
    let stats = scenario.sim.stats();
    AttackOutcome {
        success,
        observed_shift: observed,
        duration_secs,
        packets_sent: stats.packets_sent,
        frag_drops: stats.drops.frag_drops(),
        verify_drops: stats.drops.verify_drops(),
        total_drops: stats.drops.total(),
    }
}

/// Runs the full run-time attack (§IV-B): let the victim converge against
/// the honest pool, then break its associations via rate-limit abuse while
/// poisoning DNS, until the replacement lookup redirects it.
pub fn run_runtime_attack(
    config: ScenarioConfig,
    kind: ClientKind,
    scenario_kind: RuntimeScenario,
) -> AttackOutcome {
    let target_shift = config.shift_secs;
    let mut scenario = Scenario::build(config);
    let victim = scenario.spawn_victim(kind);
    // Convergence phase: the victim syncs to honest servers.
    scenario.sim.run_for(SimDuration::from_mins(20));
    let attack_start = scenario.sim.now();
    scenario.launch_runtime_attacker(victim, scenario_kind);
    let stepped_at =
        scenario.run_until_condition(SimDuration::from_mins(1), SimDuration::from_hours(3), |s| {
            s.victim()
                .and_then(NtpClient::first_large_step)
                .map(|(t, _)| t > attack_start)
                .unwrap_or(false)
        });
    let victim_host = scenario.victim().expect("victim exists");
    let observed = victim_host.offset_secs(scenario.sim.now());
    let duration = victim_host
        .first_large_step()
        .filter(|(t, _)| *t > attack_start)
        .map(|(t, _)| t.saturating_since(attack_start).as_secs_f64());
    let success = stepped_at.is_some() && (observed - target_shift).abs() < 1.0;
    let stats = scenario.sim.stats();
    AttackOutcome {
        success,
        observed_shift: observed,
        duration_secs: duration,
        packets_sent: stats.packets_sent,
        frag_drops: stats.drops.frag_drops(),
        verify_drops: stats.drops.verify_drops(),
        total_drops: stats.drops.total(),
    }
}

/// Outcome of the Chronos pool-poisoning attack (§VI).
#[derive(Debug, Clone)]
pub struct ChronosOutcome {
    /// Fraction of the final pool controlled by the attacker.
    pub malicious_fraction: f64,
    /// Final clock offset in seconds.
    pub observed_shift: f64,
    /// Whether the full target shift was achieved.
    pub success: bool,
}

/// Runs the Chronos attack end to end with a compressed schedule: the
/// poisoner races pool generation; `dns_interval` stands in for the
/// proposal's one hour (time-scaled, the lookup *count* is faithful).
pub fn run_chronos_attack(config: ScenarioConfig, dns_interval: SimDuration) -> ChronosOutcome {
    let target_shift = config.shift_secs;
    let mut scenario = Scenario::build(config);
    scenario.launch_poisoner();
    scenario.spawn_chronos(dns_interval, PoolSanity::none());
    // Pool generation window plus sampling time.
    scenario.sim.run_for(dns_interval.saturating_mul(26) + SimDuration::from_mins(30));
    let client: &ChronosClient = scenario.sim.host(scenario.addrs.victim).expect("chronos exists");
    let malicious_fraction = client.generator().fraction_in(attack::pipeline::is_malicious);
    let observed = client.offset_secs(scenario.sim.now());
    ChronosOutcome {
        malicious_fraction,
        observed_shift: observed,
        success: (observed - target_shift).abs() < 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_with_expected_topology() {
        let scenario = Scenario::build(ScenarioConfig::default());
        assert_eq!(scenario.addrs.ns_list.len(), 23);
        assert_eq!(scenario.addrs.pool_servers.len(), 8);
        assert_eq!(scenario.addrs.malicious_ntp.len(), 89);
    }

    #[test]
    fn boot_time_attack_shifts_every_client_kind() {
        // The paper's Table I: all seven clients fall to the boot-time
        // attack. (Single seed per kind; the full sweep lives in
        // tests/boot_time_attack.rs.)
        for kind in [ClientKind::Ntpd, ClientKind::SystemdTimesyncd, ClientKind::Ntpdate] {
            let outcome = run_boot_time_attack(ScenarioConfig::default(), kind);
            assert!(outcome.success, "{}: boot-time attack failed: {outcome:?}", kind.name());
            assert!((outcome.observed_shift + 500.0).abs() < 1.0);
        }
    }
}
