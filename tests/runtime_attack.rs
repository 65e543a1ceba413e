//! End-to-end run-time attacks (paper §IV-B, Table II): rate-limit abuse
//! breaks the victim's associations; the replacement DNS lookup lands on
//! the poisoned delegation; the clock steps by −500 s.

use timeshift::prelude::*;

fn p1() -> RuntimeScenario {
    RuntimeScenario::KnownUpstreams { servers: timeshift::scenario::pool_servers() }
}

fn p2() -> RuntimeScenario {
    RuntimeScenario::RefidDiscovery { probe_interval: SimDuration::from_secs(60) }
}

#[test]
fn ntpd_p1_shifts_within_tens_of_minutes() {
    let outcome = run_runtime_attack(
        ScenarioConfig { seed: 1, ..ScenarioConfig::default() },
        ClientKind::Ntpd,
        p1(),
    );
    assert!(outcome.success, "{outcome:?}");
    let mins = outcome.duration_secs.expect("duration") / 60.0;
    assert!((2.0..60.0).contains(&mins), "P1 duration {mins} min (paper: 17)");
}

#[test]
fn ntpd_p2_is_slower_than_p1() {
    let p1_outcome = run_runtime_attack(
        ScenarioConfig { seed: 2, ..ScenarioConfig::default() },
        ClientKind::Ntpd,
        p1(),
    );
    let p2_outcome = run_runtime_attack(
        ScenarioConfig { seed: 2, ..ScenarioConfig::default() },
        ClientKind::Ntpd,
        p2(),
    );
    assert!(p1_outcome.success && p2_outcome.success);
    let d1 = p1_outcome.duration_secs.expect("p1 duration");
    let d2 = p2_outcome.duration_secs.expect("p2 duration");
    assert!(
        d2 > d1,
        "one-at-a-time refid discovery (P2, {d2}s) must be slower than \
         known-upstreams (P1, {d1}s) — Table II's shape"
    );
}

#[test]
fn chrony_and_openntpd_take_longer_than_ntpd() {
    let ntpd = run_runtime_attack(
        ScenarioConfig { seed: 3, ..ScenarioConfig::default() },
        ClientKind::Ntpd,
        p1(),
    );
    let chrony = run_runtime_attack(
        ScenarioConfig { seed: 3, ..ScenarioConfig::default() },
        ClientKind::Chrony,
        p1(),
    );
    let openntpd = run_runtime_attack(
        ScenarioConfig { seed: 3, ..ScenarioConfig::default() },
        ClientKind::OpenNtpd,
        p1(),
    );
    assert!(ntpd.success && chrony.success && openntpd.success);
    let (dn, dc, do_) = (
        ntpd.duration_secs.expect("ntpd"),
        chrony.duration_secs.expect("chrony"),
        openntpd.duration_secs.expect("openntpd"),
    );
    // Table II ordering: ntpd P1 (17) < chrony (57) < openntpd (84).
    assert!(dn < dc, "ntpd {dn}s !< chrony {dc}s");
    assert!(dc < do_, "chrony {dc}s !< openntpd {do_}s");
}

#[test]
fn runtime_attack_does_not_apply_to_ntpclient() {
    // ntpclient never re-queries DNS: breaking its associations only
    // disables synchronisation (Table I: run-time ✗).
    let outcome = run_runtime_attack(
        ScenarioConfig { seed: 4, ..ScenarioConfig::default() },
        ClientKind::NtpClientTiny,
        p1(),
    );
    assert!(!outcome.success, "{outcome:?}");
    assert!(outcome.observed_shift.abs() < 1.0, "clock must simply stay put");
}

#[test]
fn rate_limiting_is_the_lever_without_it_p1_fails() {
    // Ablation: servers without rate limiting cannot be silenced by
    // spoofed floods — the victim never declares them unreachable.
    let config = ScenarioConfig { seed: 5, rate_limit: None, ..ScenarioConfig::default() };
    let mut scenario = Scenario::build(config);
    let victim = scenario.spawn_victim(ClientKind::Ntpd);
    scenario.sim.run_for(SimDuration::from_mins(20));
    let attack_start = scenario.sim.now();
    scenario.launch_runtime_attacker(victim, p1());
    scenario.sim.run_for(SimDuration::from_mins(90));
    let victim_host = scenario.victim().expect("victim");
    let stepped = victim_host.first_large_step().map(|(t, _)| t > attack_start).unwrap_or(false);
    assert!(!stepped, "without rate limiting the associations survive");
    assert!(victim_host.offset_secs(scenario.sim.now()).abs() < 1.0);
}
