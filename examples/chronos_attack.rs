//! The Chronos attack (paper §VI): one poisoned DNS response defeats the
//! "provably MitM-secure" NTP enhancement — plus the N ≤ 11 bound sweep
//! and the pool-sanity countermeasure.
//!
//! ```sh
//! cargo run --release --example chronos_attack
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports its results on the console"
)]

use campaign::registry;
use timeshift::attack::pipeline::is_malicious;
use timeshift::prelude::*;
use timeshift::scenario::malicious_servers;

fn main() {
    println!("== Chronos pool poisoning (§VI) ==\n");
    let bound = registry::chronos_bound(Scale::quick()).run(1);
    print!("{}", experiments::format_chronos_bound(&bound));

    println!("\n-- live end-to-end run (compressed 24-lookup schedule) --");
    let outcome = run_chronos_attack(
        ScenarioConfig { seed: 11, ..ScenarioConfig::default() },
        SimDuration::from_mins(3),
    );
    println!(
        "attacker pool fraction: {:.1}%  (needs >= 66.7%)",
        outcome.malicious_fraction * 100.0
    );
    println!("final Chronos clock offset: {:+.1} s  (paper: -500 s)", outcome.observed_shift);
    println!("attack succeeded: {}", outcome.success);

    println!("\n-- countermeasure: pool-generation sanity checks (§VI-B) --");
    let mut hardened = PoolGenerator::new(PoolSanity::hardened());
    for round in 0..4u8 {
        let honest: Vec<std::net::Ipv4Addr> =
            (0..4).map(|i| std::net::Ipv4Addr::new(192, 0, round + 1, i)).collect();
        hardened.absorb(&honest, 150);
    }
    let added = hardened.absorb(&malicious_servers(), 2 * 86_400);
    println!(
        "hardened generator absorbed {added} of 89 malicious addresses \
         (TTL check rejected the response); pool stays honest: {:.0}% attacker",
        hardened.fraction_in(is_malicious) * 100.0
    );

    assert!(outcome.success, "the live Chronos attack must shift the clock: {outcome:?}");
    assert!(
        outcome.malicious_fraction >= 2.0 / 3.0,
        "the attacker must hold 2/3 of the pool: {:.1}%",
        outcome.malicious_fraction * 100.0
    );
    assert_eq!(added, 0, "the hardened generator must reject the poisoned response");
}
