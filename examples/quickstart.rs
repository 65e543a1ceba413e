//! Quickstart: the headline result of the paper in one run — an off-path
//! attacker poisons a victim resolver's view of `pool.ntp.org` and every
//! NTP client booting behind it takes time shifted by −500 seconds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports its results on the console"
)]

use timeshift::prelude::*;

fn main() {
    println!("== timeshift quickstart: boot-time DNS→NTP attack (DSN'20 §IV-A) ==\n");

    // 1. Build the victim network: a recursive resolver, the pool.ntp.org
    //    nameserver fleet (23 NS, all glue in the 2nd fragment at MTU 548),
    //    8 honest pool NTP servers, and the attacker's infrastructure
    //    (1 malicious nameserver + 89 NTP servers serving -500 s).
    let config = ScenarioConfig::default();
    let mut scenario = Scenario::build(config);
    println!(
        "victim network: resolver {}, {} pool nameservers, {} honest NTP servers",
        scenario.addrs.resolver,
        scenario.addrs.ns_list.len(),
        scenario.addrs.pool_servers.len()
    );

    // 2. Launch the off-path poisoner: forged ICMP frag-needed, IPID
    //    probing, spoofed-second-fragment planting every 25 s.
    scenario.launch_poisoner();
    let poisoned_at = scenario
        .run_until_condition(SimDuration::from_secs(15), SimDuration::from_mins(30), |s| {
            s.poisoner().map(OffPathPoisoner::fully_poisoned).unwrap_or(false)
        })
        .expect("poisoning lands");
    let stats = scenario.poisoner().expect("poisoner").stats();
    println!(
        "resolver fully poisoned after {:.1} simulated minutes \
         ({} ICMPs, {} probes, {} spoofed fragments planted)",
        poisoned_at.as_secs_f64() / 60.0,
        stats.icmps_sent,
        stats.probes_sent,
        stats.fragments_planted
    );

    // 3. Boot the victim: a default ntpd-like client.
    scenario.spawn_victim(ClientKind::Ntpd);
    scenario.sim.run_for(SimDuration::from_mins(10));
    let victim = scenario.victim().expect("victim");
    println!(
        "\nvictim booted behind the poisoned resolver:\n  \
         servers used: {:?}\n  clock offset from true time: {:+.3} s (paper: -500 s)",
        victim.live_servers(),
        victim.offset_secs(scenario.sim.now())
    );
    assert!((victim.offset_secs(scenario.sim.now()) + 500.0).abs() < 1.0);
    println!("\nattack reproduced: the client's clock was shifted via DNS alone.");
}
