//! Run-time attack (paper §IV-B, Table II): break a converged client's
//! associations with rate-limit abuse, then redirect its replacement DNS
//! lookup — in both knowledge scenarios, P1 (upstreams known) and P2
//! (refid-leak discovery).
//!
//! ```sh
//! cargo run --release --example runtime_attack
//! ```

use timeshift::prelude::*;

fn main() {
    println!("== Table II (live): run-time attack durations ==\n");
    let rows: Vec<_> =
        experiments::table2_cases().iter().map(|case| experiments::table2_row(7, case)).collect();
    print!("{}", experiments::format_table2(&rows));
    println!("\nShape checks (the reproduction target):");
    let p2 = rows[0].duration_mins.expect("ntpd P2");
    let p1 = rows[1].duration_mins.expect("ntpd P1");
    let openntpd = rows[2].duration_mins.expect("openntpd");
    let chrony = rows[3].duration_mins.expect("chrony");
    println!("  P2 slower than P1:          {} ({p2:.0} vs {p1:.0} min)", p2 > p1);
    println!("  chrony slower than ntpd P1: {} ({chrony:.0} vs {p1:.0} min)", chrony > p1);
    println!("  openntpd slowest:           {} ({openntpd:.0} min)", openntpd > chrony);
    println!("\nTable III context — probability the pool even allows it:");
    print!("{}", experiments::format_table3(&experiments::table3()));
}
