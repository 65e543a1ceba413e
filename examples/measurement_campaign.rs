//! The full measurement campaign: regenerates every survey-style table and
//! figure of the paper's evaluation (Tables I, III, IV, V; Figs. 5, 6, 7;
//! the §VII-A rate-limit scan; the §VIII-B3 shared-resolver study), then
//! re-runs the registry-addressable scans through the sharded `campaign`
//! orchestration layer and prints their merged digests.
//!
//! ```sh
//! cargo run --release --example measurement_campaign            # quick scale
//! cargo run --release --example measurement_campaign -- --paper # full scale
//! cargo run --release --example measurement_campaign -- \
//!     --shards 4 --workers 2 --master-seed 7   # exercise the campaign layer
//! ```
//!
//! `--shards` sets the deterministic shard count, `--workers` caps how
//! many shards run concurrently, and `--master-seed` overrides the
//! campaign seed — the printed digests are identical for any shard or
//! worker count.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example reports its results on the console"
)]

use campaign::prelude::*;
use timeshift::prelude::*;

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parsed_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    flag_value(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let mut scale = if paper { Scale::paper() } else { Scale::quick() };
    scale.seed = parsed_flag("--master-seed", scale.seed);
    let shards: usize = parsed_flag("--shards", 2).max(1);
    let workers: usize = parsed_flag("--workers", shards).max(1);
    println!("== timeshift measurement campaign (scale: {scale:?}) ==\n");

    let table1 = registry::table1(scale).run(scale.workers);
    println!("{}", experiments::format_table1(&table1));

    println!("{}", experiments::format_table3(&experiments::table3()));

    let survey: SurveyResult = registry::snoop(scale).fold(scale.workers);
    println!("{}", experiments::format_table4(&survey));
    println!("{}", experiments::format_fig6(&survey));
    println!("{}", experiments::format_fig7(&survey));

    let table5: AdStudyResult = registry::table5(scale).run(scale.workers).into_iter().collect();
    println!("{}", experiments::format_table5(&table5));

    let fig5: PmtudScanResult = registry::fig5(scale).fold(scale.workers);
    println!("{}", experiments::format_fig5(&fig5));

    let pool_ns: PmtudScanResult = registry::pmtud(scale).fold(scale.workers);
    println!(
        "§VII-B — pool.ntp.org nameservers: {}/{} fragment <= 548 B (paper: 16/30), {} signed (paper: 0)\n",
        pool_ns.cdf.iter().find(|(t, _)| *t == 548).map(|(_, c)| *c).unwrap_or(0),
        pool_ns.scanned,
        pool_ns.signed
    );

    let ratelimit: RateLimitScanResult = registry::ratelimit(scale).fold(scale.workers);
    println!("{}", experiments::format_ratelimit(&ratelimit));

    let shared: SharedScanResult = registry::shared(scale).fold(scale.workers);
    println!("{}", experiments::format_shared(&shared));

    let bound = registry::chronos_bound(scale).run(scale.workers);
    println!("{}", experiments::format_chronos_bound(&bound));

    println!("{}", experiments::boot_budget());

    // ---- the sharded campaign layer ----
    //
    // The same scans, re-run through the `campaign` subsystem: K
    // deterministic shards, per-shard checkpoints, merged in shard order
    // with online aggregation. The digests printed here are bit-identical
    // for any --shards/--workers combination (and to a `campaign run`
    // of the same scenario, scale and seed).
    println!("\n== campaign orchestration ({shards} shards, {workers} workers) ==\n");
    for name in ["ratelimit", "pmtud", "chronos_bound"] {
        let scenario = campaign::registry::find(name).expect("registered scenario");
        let dir = std::env::temp_dir()
            .join(format!("measurement-campaign-{}-{name}-x{shards}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = CampaignConfig {
            scenario,
            scale,
            scale_label: if paper { "paper".into() } else { "quick".into() },
            shards,
            workers,
            mode: ExecMode::InProcess,
            dir: dir.clone(),
            verbose: false,
        };
        let summary = run_campaign(&config).expect("campaign runs");
        print!("{}", summary.render_text());
        std::fs::remove_dir_all(dir).ok();
    }

    // ---- self-healing supervision demo ----
    //
    // The same chronos_bound campaign, run under the lease supervisor
    // with a deterministically injected crash on shard 1: the supervisor
    // re-leases the dead shard from its checkpoint and the healed digest
    // matches the in-process run above bit-for-bit. Needs the `campaign`
    // worker binary, looked up in `CAMPAIGN_EXE`, then
    // `$CARGO_TARGET_DIR/{release,debug}`, then the workspace's own
    // `target/{release,debug}`; skipped (not failed) when none is there.
    let target_dirs = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .into_iter()
        .chain([std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target")]);
    let candidates: Vec<std::path::PathBuf> = std::env::var_os("CAMPAIGN_EXE")
        .map(std::path::PathBuf::from)
        .into_iter()
        .chain(
            target_dirs.flat_map(|dir| ["release", "debug"].map(|p| dir.join(p).join("campaign"))),
        )
        .collect();
    let Some(exe) = candidates.iter().find(|p| p.is_file()).cloned() else {
        let searched: Vec<String> = candidates.iter().map(|p| p.display().to_string()).collect();
        println!(
            "\n(supervision demo skipped: no campaign binary at {} — `cargo build -p campaign`)",
            searched.join(", ")
        );
        return;
    };
    println!("\n== supervised campaign (injected crash on shard 1, self-healed) ==\n");
    let scenario = campaign::registry::find("chronos_bound").expect("registered scenario");
    let dir = std::env::temp_dir()
        .join(format!("measurement-campaign-{}-supervised", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = CampaignConfig {
        scenario,
        scale,
        scale_label: if paper { "paper".into() } else { "quick".into() },
        shards,
        workers,
        mode: ExecMode::Subprocess { exe: exe.clone() },
        dir: dir.clone(),
        verbose: false,
    };
    let mut faults = FaultPlan::none();
    faults.push_cli("1:crash-after=1").expect("valid fault entry");
    let sup = SupervisorConfig { poll_interval_ms: 5, faults, ..SupervisorConfig::default() };
    let run = run_supervised(&config, &exe, &sup).expect("supervised campaign settles");
    print!("{}", run.summary.render_text());
    for r in run.reports.iter().filter(|r| !r.failures.is_empty()) {
        println!(
            "  shard {} healed after {} attempt(s): {}",
            r.shard,
            r.attempts,
            r.failures.last().map(String::as_str).unwrap_or_default()
        );
    }
    assert!(run.summary.complete, "the injected crash must heal, not quarantine");
    std::fs::remove_dir_all(dir).ok();
}
