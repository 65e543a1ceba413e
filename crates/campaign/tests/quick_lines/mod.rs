//! One real record line per registry scenario, copied from the shard
//! checkpoints of `campaign run <scenario> --shards 1 --master-seed 2020`
//! at the default quick scale. Each is the most fully populated line of
//! its stream (no `null`); the `table2` line is the `openntpd` P1 trial
//! whose traffic `tests/determinism.rs` pins.

/// `(scenario, line)` in registry order.
pub const QUICK_LINES: [(&str, &str); 9] = [
    (
        "table1",
        r#"{"client":"NTPd","pool_share":0.264,"boot_time":true,"run_time":true,"observed_boot_shift":-500.000000001}"#,
    ),
    (
        "table2",
        r#"{"client":"openntpd","scenario":"P1","discovery":"known-upstreams","success":true,"duration_mins":73.03383333333333,"paper_mins":84,"observed_shift":-500,"packets_sent":84935,"explain_fail_stage":"none","explain_frag_drops":2944,"explain_verify_drops":0,"explain_total_drops":2944}"#,
    ),
    ("fig5", r#"{"answered":true,"signed":false,"vulnerable":true,"min_fragment_size":1492}"#),
    (
        "table4_snoop",
        r#"{"verified":true,"cached_count":3,"apex_a_ttl":89,"accepts_fragments":true,"timing_diff_ms":33.5700103333333}"#,
    ),
    (
        "table5_adstudy",
        r#"{"region":"Northern America","mobile":false,"google_resolver":false,"valid":true,"accepts_tiny":false,"accepts_any":false,"validates":false}"#,
    ),
    (
        "ratelimit",
        r#"{"kod_seen":true,"rate_limiting":true,"config_open":false,"first_half":9,"second_half":0}"#,
    ),
    ("pmtud", r#"{"answered":true,"signed":false,"vulnerable":true,"min_fragment_size":548}"#),
    ("shared", r#"{"open":false,"smtp_shared":true,"triggerable":true}"#),
    (
        "chronos_bound",
        r#"{"n":23,"honest":92,"malicious":89,"attacker_fraction":0.49171270718232046,"success":false}"#,
    ),
];
