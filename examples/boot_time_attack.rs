//! Boot-time attack across all seven NTP client implementations — the
//! live reproduction of Table I's boot-time column.
//!
//! ```sh
//! cargo run --release --example boot_time_attack
//! ```

use campaign::registry;
use timeshift::prelude::*;

fn main() {
    println!("== Table I (live): boot-time attack vs every client model ==\n");
    let scale = Scale { seed: 42, ..Scale::quick() };
    let rows = registry::table1(scale).run(scale.workers);
    print!("{}", experiments::format_table1(&rows));
    println!("\n(paper: every client is vulnerable at boot — there is no");
    println!(" mitigation for the very first DNS lookup; §V-A1)");
    println!("\n{}", experiments::boot_budget());
    for ((kind, _), outcome) in &rows {
        assert!(outcome.success, "{}: the boot-time attack must land: {outcome:?}", kind.name());
    }
}
