//! Determinism regression suite: the engine is a seeded, single-threaded
//! event loop and the trial runner only ever parallelises *independent*
//! simulations — so identical seeds must give byte-identical results, both
//! run-to-run and across worker counts.
//!
//! "Byte-identical" is asserted on the Debug renderings, which cover every
//! field (including float bit patterns as printed).

use campaign::registry;
use timeshift::prelude::*;

/// Two runs, same seed: byte-identical `SimStats` and `AttackOutcome`.
#[test]
fn same_seed_same_stats_and_outcome() {
    let outcome = |seed| {
        let config = ScenarioConfig { seed, ..ScenarioConfig::default() };
        let o = run_boot_time_attack(config, ClientKind::SystemdTimesyncd);
        format!("{o:?}")
    };
    assert_eq!(outcome(41), outcome(41));

    let stats = |seed| {
        let config = ScenarioConfig { seed, ..ScenarioConfig::default() };
        let mut scenario = Scenario::build(config);
        scenario.launch_poisoner();
        scenario.sim.run_for(SimDuration::from_mins(5));
        format!("{:?}", scenario.sim.stats())
    };
    assert_eq!(stats(7), stats(7));
}

/// The six registry scans (Fig. 5, §VII-B, the Table IV / Fig. 6 / Fig. 7
/// survey, Table V, §VII-A, §VIII-B3) seed every trial by its index, so
/// `Scan::run` gives byte-identical `(spec, verdict)` pairs at 1 and 8
/// workers.
#[test]
fn measure_scans_are_worker_count_independent() {
    let scale = Scale {
        resolvers: 40,
        domains: 60,
        ad_fraction: 0.001,
        pool_servers: 40,
        shared: 40,
        ..Scale::quick()
    };
    let run = |workers: usize| {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            registry::fig5(scale).run(workers),
            registry::pmtud(scale).run(workers),
            registry::snoop(scale).run(workers),
            registry::table5(scale).run(workers),
            registry::ratelimit(scale).run(workers),
            registry::shared(scale).run(workers),
        )
    };
    assert_eq!(run(1), run(8), "8 workers must match sequential");
}

/// The typed results of every measurement scan and the Table I/II
/// `(spec, verdict)` pairs, pinned by the FNV digest of their `Debug`
/// renderings. The value was computed by the code the registry scans
/// replaced (the per-table sweep functions, and `run_boot_time_attack` /
/// `run_runtime_attack` called at the seed `master ^ kind`), at the
/// scales `tests/measurements.rs` uses, so it is the differential test
/// against that code.
#[test]
fn typed_scan_results_are_pinned() {
    let quick = Scale::quick();
    let survey: SurveyResult =
        registry::snoop(Scale { resolvers: 250, ..quick }).fold(quick.workers);
    let fig5: PmtudScanResult = registry::fig5(Scale { domains: 700, ..quick }).fold(quick.workers);
    let pool_ns: PmtudScanResult = registry::pmtud(quick).fold(quick.workers);
    let table5: AdStudyResult = registry::table5(Scale { ad_fraction: 0.025, ..quick })
        .run(quick.workers)
        .into_iter()
        .collect();
    let ratelimit: RateLimitScanResult =
        registry::ratelimit(Scale { pool_servers: 350, ..quick }).fold(quick.workers);
    let table1 = registry::table1(quick).run(quick.workers);
    let table2 = registry::table2(quick).run(quick.workers);

    let mut digest = campaign::digest::Digest::new();
    for rendering in [
        format!("{survey:?}"),
        format!("{fig5:?}"),
        format!("{pool_ns:?}"),
        format!("{table5:?}"),
        format!("{ratelimit:?}"),
        format!("{table1:?}"),
        format!("{table2:?}"),
    ] {
        digest.update_line(&rendering);
    }
    assert_eq!(digest.hex(), "016eca3827ac8650");
}

/// The §VIII-B3 scan, one /24 world per resolver, folds to exactly the
/// categories that the single world holding every resolver (the scan it
/// replaced) found at seed 2020: at quick scale, at 600 resolvers and at
/// the paper's 18,668.
#[test]
fn shared_scan_results_are_pinned() {
    let quick = Scale::quick();
    let fold = |shared| -> SharedScanResult {
        registry::shared(Scale { shared, ..quick }).fold(quick.workers)
    };
    let pinned = |total, web_only, web_and_smtp, open, open_and_smtp| SharedScanResult {
        total,
        web_only,
        web_and_smtp,
        open,
        open_and_smtp,
    };
    assert_eq!(fold(quick.shared), pinned(500, 438, 52, 9, 1));
    assert_eq!(fold(600), pinned(600, 521, 64, 13, 2));
    assert_eq!(fold(Scale::paper().shared), pinned(18_668, 16_101, 2_120, 419, 28));
}

/// Buffer pooling is invisible to results: the same attack with the
/// `bytes` recycling pool disabled produces a byte-identical outcome.
/// (Pool hit/miss counters measure the allocator, not the simulation;
/// they are kept deterministic separately, by the pool reset in
/// `Simulator::new` — covered by `same_seed_same_stats_and_outcome`
/// above, whose digests include them.)
#[test]
fn pooling_does_not_change_attack_digests() {
    let run = || {
        let config = ScenarioConfig { seed: 33, ..ScenarioConfig::default() };
        format!("{:?}", run_boot_time_attack(config, ClientKind::Ntpd))
    };
    let was = bytes::pool::set_enabled(true);
    let pooled = run();
    bytes::pool::set_enabled(false);
    let unpooled = run();
    bytes::pool::set_enabled(was);
    assert_eq!(pooled, unpooled, "recycled buffers must not alter the simulation");
}

/// The campaign layer must not leak sharding into results: the merged
/// record stream (pinned by its FNV digest) is identical at 1, 2 and 4
/// in-process shards. (In-process vs. subprocess equality and the
/// kill+resume path are asserted in `crates/campaign/tests/determinism.rs`
/// where the worker binary is available.)
#[test]
fn campaign_digest_is_shard_count_independent() {
    use campaign::prelude::*;
    let scenario = campaign::registry::find("ratelimit").expect("registered");
    let scale = Scale { pool_servers: 60, ..Scale::quick() };
    let digest = |shards: usize| {
        let dir =
            std::env::temp_dir().join(format!("ts-campaign-{}-shards{shards}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let summary =
            run_campaign(&CampaignConfig::in_process(scenario, scale, shards, dir.clone()))
                .expect("campaign runs");
        std::fs::remove_dir_all(dir).ok();
        assert_eq!(summary.records, 60);
        summary.digest
    };
    let baseline = digest(1);
    assert_eq!(digest(2), baseline, "2 shards must match 1");
    assert_eq!(digest(4), baseline, "4 shards must match 1");
}

/// An interrupted campaign (a shard checkpoint cut mid-stream, with a torn
/// trailing line) resumes to the same digest as an uninterrupted run.
#[test]
fn campaign_resume_after_interrupt_is_bit_identical() {
    use campaign::prelude::*;
    use std::io::Write as _;
    let scenario = campaign::registry::find("chronos_bound").expect("registered");
    let dir = std::env::temp_dir().join(format!("ts-campaign-{}-resume", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = CampaignConfig::in_process(scenario, Scale::quick(), 2, dir.clone());
    let uninterrupted = run_campaign(&config).expect("first run");
    // Interrupt shard 0: keep 4 of its records plus a torn final line.
    let shard0 = campaign::checkpoint::shard_path(&dir, 0);
    let lines: Vec<String> =
        std::fs::read_to_string(&shard0).expect("read").lines().map(String::from).collect();
    let mut f = std::fs::File::create(&shard0).expect("rewrite");
    for line in &lines[..4] {
        writeln!(f, "{line}").expect("write");
    }
    write!(f, "{}", &lines[4][..lines[4].len() / 2]).expect("torn tail");
    drop(f);
    std::fs::remove_file(campaign::checkpoint::summary_path(&dir)).ok();
    let resumed = run_campaign(&config).expect("resume");
    assert_eq!(resumed.digest, uninterrupted.digest, "resume must reproduce the stream");
    assert_eq!(resumed.records, uninterrupted.records);
    std::fs::remove_dir_all(dir).ok();
}

/// Raw runner sweep over seeds: order and values survive parallelism.
#[test]
fn seeded_boot_sweep_merges_in_seed_order() {
    let attack = |seed: u64| {
        let config = ScenarioConfig { seed, ..ScenarioConfig::default() };
        format!("{:?}", run_boot_time_attack(config, ClientKind::Ntpdate))
    };
    let seeds: Vec<u64> = (0..6).map(|i| scan_seed(99, i)).collect();
    let sequential = TrialRunner::new(1).run(&seeds, |_, &seed| attack(seed));
    let parallel = TrialRunner::new(8).run(&seeds, |_, &seed| attack(seed));
    assert_eq!(sequential, parallel);
}

/// The traffic of a 30-minute boot-time run with the poisoner, which goes
/// well past full poisoning: `SimStats` and `PoisonStats` renderings.
fn boot_time_traffic(seed: u64) -> String {
    let mut scenario = Scenario::build(ScenarioConfig { seed, ..ScenarioConfig::default() });
    scenario.launch_poisoner();
    scenario.sim.run_for(SimDuration::from_mins(30));
    let poisoner = scenario.poisoner().expect("poisoner");
    assert!(poisoner.fully_poisoned(), "the run must go past full poisoning");
    format!("{:?}\n{:?}", traffic(&scenario), poisoner.stats())
}

/// The traffic of one Table II run-time trial, run as the `table2`
/// registry scan runs it: `SimStats` and `PoisonStats` renderings.
fn runtime_traffic(seed: u64, case: &experiments::Table2Case) -> String {
    let config = ScenarioConfig { seed: seed ^ case.kind as u64, ..ScenarioConfig::default() };
    let mut scenario = Scenario::build(config);
    let victim = scenario.spawn_victim(case.kind);
    scenario.sim.run_for(SimDuration::from_mins(20));
    let attack_start = scenario.sim.now();
    scenario.launch_runtime_attacker(victim, case.scenario.clone());
    let stepped =
        scenario.run_until_condition(SimDuration::from_mins(1), SimDuration::from_hours(3), |s| {
            s.victim().and_then(NtpClient::first_large_step).is_some_and(|(t, _)| t > attack_start)
        });
    assert!(stepped.is_some(), "the trial must land");
    let attacker = scenario.runtime_attacker().expect("attacker");
    format!("{:?}\n{:?}", traffic(&scenario), attacker.poison_stats())
}

/// `scenario`'s `SimStats` without the buffer-pool counters: they measure
/// the allocator (and differ between debug and release builds, where the
/// codec skips its self-checks), not the traffic.
fn traffic(scenario: &Scenario) -> SimStats {
    SimStats { pool_hits: 0, pool_misses: 0, ..scenario.sim.stats() }
}

/// Packet counts, drops and pipeline counters of two attacks, pinned. No
/// Table I/II record carries them, so this is what notices a change in
/// the traffic after the resolver is poisoned.
#[test]
fn attack_traffic_is_pinned() {
    assert_eq!(
        boot_time_traffic(2020),
        "SimStats { packets_sent: 7328, packets_lost: 0, packets_delivered: 7305, \
         packets_unrouted: 0, datagrams_delivered: 4176, datagrams_dropped: 2945, \
         drops: DropCounts { no_frag_support: 0, tiny_fragment: 0, defrag_cap_full: 0, \
         duplicate_fragment: 1355, defrag_expired: 1472, udp_truncated: 0, \
         udp_length_mismatch: 0, udp_bad_checksum: 0, icmp_malformed: 0, unknown_protocol: 0 }, \
         timers_fired: 1802, events_dispatched: 9230, ipid_evictions: 0, peak_queue_depth: 372, \
         pool_hits: 0, pool_misses: 0 }\n\
         PoisonStats { icmps_sent: 184, probes_sent: 2093, fragments_planted: 2944, \
         triggers_sent: 7, checks_sent: 9 }"
    );
    let cases = experiments::table2_cases();
    let idx = cases.iter().position(|c| c.client == "openntpd").expect("Table II case");
    let runtime = runtime_traffic(2020, &cases[idx]);
    // The same trial as the `table2` scan's.
    let packets =
        registry::table2(Scale { seed: 2020, ..Scale::quick() }).trial(idx).1.packets_sent;
    assert!(runtime.starts_with(&format!("SimStats {{ packets_sent: {packets},")), "{packets}");
    assert_eq!(
        runtime,
        "SimStats { packets_sent: 84935, packets_lost: 0, packets_delivered: 84904, \
         packets_unrouted: 0, datagrams_delivered: 81522, datagrams_dropped: 2945, \
         drops: DropCounts { no_frag_support: 0, tiny_fragment: 0, defrag_cap_full: 0, \
         duplicate_fragment: 1355, defrag_expired: 1589, udp_truncated: 0, \
         udp_length_mismatch: 0, udp_bad_checksum: 0, icmp_malformed: 0, unknown_protocol: 0 }, \
         timers_fired: 14523, events_dispatched: 99551, ipid_evictions: 0, peak_queue_depth: 381, \
         pool_hits: 0, pool_misses: 0 }\n\
         PoisonStats { icmps_sent: 437, probes_sent: 5129, fragments_planted: 2944, \
         triggers_sent: 7, checks_sent: 9 }"
    );
}
