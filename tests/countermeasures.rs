//! The paper's §IX countermeasures, verified end to end: DNSSEC validation
//! with a signed zone blocks the attack; static NTP server addresses
//! bypass DNS entirely; fragment filtering kills the poisoning primitive
//! (the filtering run is in the `attack` crate's poisoner tests; this file
//! checks its unfiltered baseline).

use timeshift::prelude::*;

#[test]
fn dnssec_validation_blocks_the_redirected_answer() {
    // Manual topology: signed pool zone + validating resolver + attacker.
    let key = ZoneKey(0xD17E);
    let pool_name: Name = "pool.ntp.org".parse().unwrap();
    let mut sim = Simulator::with_topology(
        9,
        Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(15))),
    );
    let pool_servers: Vec<std::net::Ipv4Addr> =
        (1..=8).map(|i| std::net::Ipv4Addr::new(192, 0, 2, i)).collect();
    for &s in &pool_servers {
        sim.add_host(s, OsProfile::linux(), Box::new(NtpServer::honest())).unwrap();
    }
    let zone = pool_zone(pool_servers, 23, std::net::Ipv4Addr::new(198, 51, 100, 1)).with_key(key);
    let ns_list = spawn_zone_nameservers(&mut sim, [zone], OsProfile::nameserver(548));
    let mut anchors = TrustAnchors::new();
    anchors.add(pool_name.clone(), key);
    let resolver_addr: std::net::Ipv4Addr = "10.0.0.53".parse().unwrap();
    sim.add_host(
        resolver_addr,
        OsProfile::linux(),
        Box::new(Resolver::new(
            ResolverConfig { validation: Some(anchors), ..ResolverConfig::default() },
            vec![(pool_name.clone(), ns_list.clone())],
        )),
    )
    .unwrap();
    let attacker_ns: std::net::Ipv4Addr = "66.66.0.1".parse().unwrap();
    let malicious = timeshift::scenario::malicious_servers();
    sim.add_host(
        attacker_ns,
        OsProfile::linux(),
        Box::new(AuthServer::new(vec![malicious_pool_zone(malicious, 89, 2 * 86_400)])),
    )
    .unwrap();
    let attacker: std::net::Ipv4Addr = "203.0.113.66".parse().unwrap();
    sim.add_host(
        attacker,
        OsProfile::linux(),
        Box::new(OffPathPoisoner::new(PoisonConfig::open_resolver(
            resolver_addr,
            ns_list,
            attacker_ns,
        ))),
    )
    .unwrap();
    sim.run_for(SimDuration::from_mins(30));
    let poisoner: &OffPathPoisoner = sim.host(attacker).unwrap();
    // Glue is unsigned in DNSSEC, so glue poisoning may still land — but
    // the attacker's forged *answer* for the signed name cannot validate:
    assert!(
        !poisoner.fully_poisoned(),
        "validating resolver must reject the attacker's unsigned pool answer"
    );
    let resolver: &Resolver = sim.host(resolver_addr).unwrap();
    if let Some(hit) = resolver.cache().lookup(sim.now(), &pool_name, RecordType::A) {
        assert!(
            hit.records.iter().filter_map(|r| r.as_a()).all(|a| a.octets()[0] == 192),
            "only honest pool addresses may be cached"
        );
    }
    assert!(resolver.stats.validation_failures > 0, "the forged answers were rejected");
}

/// §IX: "use a list of static IP addresses". A client that never asks DNS
/// again cannot be redirected by poisoning the resolver. ntpclient models
/// one: it resolves once at boot and keeps those servers. It syncs to the
/// honest pool, the resolver is then fully poisoned, and half an hour
/// later the client still has its honest servers and the true time.
#[test]
fn static_server_addresses_bypass_dns_entirely() {
    let mut scenario = Scenario::build(ScenarioConfig { seed: 10, ..ScenarioConfig::default() });
    scenario.spawn_victim(ClientKind::NtpClientTiny);
    scenario.sim.run_for(SimDuration::from_mins(5));
    assert!(scenario.victim().expect("victim").stats.responses > 0, "synced to the honest pool");
    scenario.launch_poisoner();
    let poisoned =
        scenario.run_until_condition(SimDuration::from_secs(30), SimDuration::from_mins(30), |s| {
            s.poisoner().map(OffPathPoisoner::fully_poisoned).unwrap_or(false)
        });
    assert!(poisoned.is_some(), "the resolver must be poisoned for the check to mean anything");
    let responses_before = scenario.victim().expect("victim").stats.responses;
    scenario.sim.run_for(SimDuration::from_mins(30));
    let client = scenario.victim().expect("victim");
    assert!(
        client.offset_secs(scenario.sim.now()).abs() < 1.0,
        "a client that never re-resolves cannot be shifted by DNS poisoning: offset {}",
        client.offset_secs(scenario.sim.now())
    );
    assert_eq!(client.stats.dns_lookups, 1, "resolved once, at boot");
    assert!(client.stats.responses > responses_before, "still polling under attack");
    let live = client.live_servers();
    assert!(!live.is_empty());
    assert!(
        live.iter().all(|a| scenario.addrs.pool_servers.contains(a)),
        "only honest pool servers: {live:?}"
    );
}

/// The unfiltered baseline of the fragment-filtering countermeasure: the
/// default scenario's resolver accepts fragments, and the attack lands.
/// The filtering case itself, the identical attack failing against a
/// resolver that drops fragments, is
/// `attack::poisoner::tests::fragment_filtering_resolver_defeats_poisoning`;
/// this baseline is what makes its failure meaningful.
#[test]
fn fragment_filtering_resolver_blocks_the_primitive() {
    let mut scenario = Scenario::build(ScenarioConfig { seed: 12, ..ScenarioConfig::default() });
    scenario.launch_poisoner();
    let landed =
        scenario.run_until_condition(SimDuration::from_secs(30), SimDuration::from_mins(30), |s| {
            s.poisoner().map(OffPathPoisoner::glue_poisoned).unwrap_or(false)
        });
    assert!(landed.is_some(), "baseline (no filtering) must be poisonable");
}

#[test]
fn classic_spoofing_without_fragmentation_needs_the_entropy() {
    // Port + TXID randomisation leaves 2^32 blind-spoof space; the
    // fragmentation attack sidesteps it. Verify the resolver discards a
    // blind forged response (wrong TXID/port).
    let mut sim = Simulator::new(77);
    let pool_servers: Vec<std::net::Ipv4Addr> =
        (1..=4).map(|i| std::net::Ipv4Addr::new(192, 0, 2, i)).collect();
    let zone = pool_zone(pool_servers, 4, "198.51.100.1".parse().unwrap());
    let ns_list = spawn_zone_nameservers(&mut sim, [zone], OsProfile::nameserver(548));
    let resolver_addr: std::net::Ipv4Addr = "10.0.0.53".parse().unwrap();
    sim.add_host(
        resolver_addr,
        OsProfile::linux(),
        Box::new(Resolver::new(
            ResolverConfig::default(),
            vec![("pool.ntp.org".parse().unwrap(), ns_list)],
        )),
    )
    .unwrap();

    /// Blindly spams forged DNS answers at the resolver.
    struct BlindSpoofer {
        resolver: std::net::Ipv4Addr,
        ns: std::net::Ipv4Addr,
        sent: u32,
    }
    impl Host for BlindSpoofer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            if self.sent > 500 {
                return;
            }
            self.sent += 1;
            let mut forged = Message::query(
                (self.sent % 0xFFFF) as u16,
                "pool.ntp.org".parse().unwrap(),
                RecordType::A,
                false,
            );
            forged.header.qr = true;
            forged.answers.push(Record::a(
                "pool.ntp.org".parse().unwrap(),
                86_400,
                std::net::Ipv4Addr::new(66, 66, 6, 6),
            ));
            // Guess a port at random: 2^16 ports × 2^16 TXIDs.
            let port = 1024 + (self.sent * 37 % 60000) as u16;
            ctx.send_udp_spoofed(self.ns, self.resolver, 53, port, forged.encode().unwrap());
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }
    sim.add_host(
        "203.0.113.88".parse().unwrap(),
        OsProfile::linux(),
        Box::new(BlindSpoofer {
            resolver: resolver_addr,
            ns: "198.51.100.1".parse().unwrap(),
            sent: 0,
        }),
    )
    .unwrap();
    // Trigger a real resolution mid-flood.
    let addrs = lookup_once(
        &mut sim,
        "10.0.0.100".parse().unwrap(),
        resolver_addr,
        &"pool.ntp.org".parse().unwrap(),
    );
    sim.run_for(SimDuration::from_mins(2));
    assert!(!addrs.contains(&"66.66.6.6".parse().unwrap()));
    let resolver: &Resolver = sim.host(resolver_addr).unwrap();
    let hit = resolver.cache().lookup(sim.now(), &"pool.ntp.org".parse().unwrap(), RecordType::A);
    if let Some(hit) = hit {
        assert!(
            hit.records.iter().filter_map(|r| r.as_a()).all(|a| a.octets()[0] == 192),
            "blind spoofing must not poison a randomised resolver"
        );
    }
}
