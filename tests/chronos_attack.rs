//! End-to-end Chronos attacks (paper §VI): a single poisoned DNS response
//! with 89 addresses and a >24 h TTL floods the pool and freezes all later
//! lookups; once the attacker holds ≥ 2/3 of the pool the "provably
//! MitM-secure" client shifts by the full −500 s.

use timeshift::prelude::*;

#[test]
fn chronos_falls_end_to_end_when_poisoned_early() {
    // Compressed schedule: 24 lookups at 3-minute spacing stand in for the
    // proposal's hourly lookups (the lookup *count* is what matters for
    // the §VI-C bound; the TTL freeze works identically).
    let outcome = run_chronos_attack(
        ScenarioConfig { seed: 11, ..ScenarioConfig::default() },
        SimDuration::from_mins(3),
    );
    assert!(
        outcome.malicious_fraction >= 2.0 / 3.0,
        "attacker must dominate the pool: {outcome:?}"
    );
    assert!(outcome.success, "Chronos must take the -500 s shift: {outcome:?}");
}

#[test]
fn chronos_survives_when_poisoning_lands_after_lookup_12() {
    // Direct §VI-C boundary check at the pool-generation level, then the
    // sampling algorithm: with N = 12 honest lookups first, the attacker's
    // 89 addresses are < 2/3 and panic mode's agreement check refuses.
    for n in [11u32, 12] {
        let mut generator = PoolGenerator::new(24, PoolSanity::none());
        for round in 0..n {
            let honest: Vec<std::net::Ipv4Addr> = (0..4)
                .map(|i| std::net::Ipv4Addr::new(192, 0, (round + 1) as u8, i as u8))
                .collect();
            generator.absorb(&honest, 150);
        }
        let malicious: Vec<std::net::Ipv4Addr> =
            (1..=89u32).map(|i| std::net::Ipv4Addr::from(0x4242_0100 + i)).collect();
        generator.absorb(&malicious, 2 * 86_400);
        // All later lookups are served from cache: the pool is frozen.
        let fraction = generator.fraction_in(|a| a.octets()[0] == 0x42);
        let expected_success = n <= 11;
        assert_eq!(fraction >= 2.0 / 3.0, expected_success, "N={n}: fraction {fraction}");
        // Panic-mode decision over the frozen pool.
        let mut offsets: Vec<NtpDuration> = vec![NtpDuration::from_secs_f64(0.0); (4 * n) as usize];
        offsets.extend(vec![NtpDuration::from_secs_f64(-500.0); 89]);
        let decision = evaluate_panic(&offsets, &ChronosConfig::default());
        match (expected_success, decision) {
            (true, RoundDecision::Accept(avg)) => {
                assert!((avg.as_secs_f64() + 500.0).abs() < 0.5)
            }
            (false, RoundDecision::Reject(_)) => {}
            (exp, got) => panic!("N={n}: expected success={exp}, got {got:?}"),
        }
    }
}

#[test]
fn hardened_pool_generation_defeats_the_single_poison() {
    // The paper's implicit countermeasure for §VI-B: cap records per
    // response and reject absurd TTLs.
    let mut generator = PoolGenerator::new(24, PoolSanity::hardened());
    for round in 0..4u8 {
        let honest: Vec<std::net::Ipv4Addr> =
            (0..4).map(|i| std::net::Ipv4Addr::new(192, 0, round + 1, i)).collect();
        generator.absorb(&honest, 150);
    }
    let malicious: Vec<std::net::Ipv4Addr> =
        (1..=89u32).map(|i| std::net::Ipv4Addr::from(0x4242_0100 + i)).collect();
    let added = generator.absorb(&malicious, 2 * 86_400);
    assert_eq!(added, 0, "oversize TTL must be rejected outright");
    assert_eq!(generator.fraction_in(|a| a.octets()[0] == 0x42), 0.0);
}

#[test]
fn chronos_attack_is_easier_than_plain_ntp_boot_time() {
    // §VI-C: "the attacker effectively has 12 tries in 24 hours" — one
    // successful poisoning in ANY of the first 12 lookup windows wins,
    // versus a single 150 s TTL window per boot for plain NTP.
    let windows = (0..24).filter(|&n| chronos::bound::attack_succeeds(n, 89)).count();
    assert_eq!(windows, 12);
    assert_eq!(chronos::bound::max_n(89), 11);
}
