//! Run-time attack (paper §IV-B, Table II): break a converged client's
//! associations with rate-limit abuse, then redirect its replacement DNS
//! lookup — in both knowledge scenarios, P1 (upstreams known) and P2
//! (refid-leak discovery).
//!
//! ```sh
//! cargo run --release --example runtime_attack
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports its results on the console"
)]

use campaign::registry;
use timeshift::prelude::*;

fn main() {
    println!("== Table II (live): run-time attack durations ==\n");
    let scale = Scale { seed: 7, ..Scale::quick() };
    let rows = registry::table2(scale).run(scale.workers);
    print!("{}", experiments::format_table2(&rows));
    println!("\nShape checks (the reproduction target):");
    let mins = |row: usize| rows[row].1.duration_secs.expect("the attack lands") / 60.0;
    let (p2, p1, openntpd, chrony) = (mins(0), mins(1), mins(2), mins(3));
    let slowest = openntpd > p1.max(p2).max(chrony);
    println!("  P2 slower than P1:          {} ({p2:.0} vs {p1:.0} min)", p2 > p1);
    println!("  chrony slower than ntpd P1: {} ({chrony:.0} vs {p1:.0} min)", chrony > p1);
    println!("  openntpd slowest:           {slowest} ({openntpd:.0} min)");
    println!("\nTable III context — probability the pool even allows it:");
    print!("{}", experiments::format_table3(&experiments::table3()));
    assert!(p2 > p1, "P2 must be slower than P1: {p2:.1} vs {p1:.1} min");
    assert!(chrony > p1, "chrony must be slower than ntpd P1: {chrony:.1} vs {p1:.1} min");
    assert!(slowest, "openntpd must be the slowest: {openntpd:.1} min");
}
