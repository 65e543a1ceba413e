//! CI artifact validator: checks that each file argument is one
//! well-formed JSON value, using the dependency-free validator in
//! `bench::json`.
//!
//! ```sh
//! jsoncheck runs/table2/summary.json
//! jsoncheck --require final --require per_shard runs/table2/metrics.json
//! ```
//!
//! `--require KEY` (repeatable) additionally asserts that every checked
//! file contains a `"KEY":` member — how CI pins that `metrics.json`
//! really is the final normalized snapshot, not a stale live tick.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut required: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--require" {
            match args.next() {
                Some(key) => required.push(key),
                None => {
                    eprintln!("jsoncheck: --require needs a key");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(a);
        }
    }
    if files.is_empty() {
        eprintln!("usage: jsoncheck [--require KEY]… FILE…");
        return ExitCode::from(2);
    }

    let mut ok = true;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("jsoncheck: {path}: {e}");
                ok = false;
                continue;
            }
        };
        if let Err(e) = bench::json::validate(&text) {
            eprintln!("jsoncheck: {path}: {e}");
            ok = false;
            continue;
        }
        let missing: Vec<&str> = required
            .iter()
            .map(String::as_str)
            .filter(|key| !text.contains(&format!("\"{key}\":")))
            .collect();
        if missing.is_empty() {
            println!("jsoncheck: {path}: ok");
        } else {
            eprintln!("jsoncheck: {path}: missing required key(s): {}", missing.join(", "));
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
