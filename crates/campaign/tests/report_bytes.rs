//! Report layout pins: the exact bytes of `summary.json` and of the final
//! `metrics.json` for `chronos_bound` at quick scale (master seed 2020,
//! three in-process shards).
//!
//! The determinism suite only compares these files across exec modes and
//! worker counts; this test pins their layout — key order, indentation,
//! one-line versus one-member-per-line arrays, number formatting — so a
//! change to the report writer that alters a single byte fails here.

use campaign::exec::{run_campaign, CampaignConfig, ExecMode};
use campaign::{checkpoint, metrics, registry};
use timeshift::experiments::Scale;

const SUMMARY_JSON: &str = r#"{
  "campaign": "chronos_bound",
  "scale": "quick",
  "master_seed": 2020,
  "shards": 3,
  "records": 24,
  "complete": true,
  "digest": "04f9eff29b5fd8b5",
  "shard_digests": [
    { "shard": 0, "records": 8, "digest": "de3455da190cfbb2" },
    { "shard": 1, "records": 8, "digest": "3e6c8abcf5bf8819" },
    { "shard": 2, "records": 8, "digest": "851ea44d8f906d3c" }
  ],
  "coverage": [
    { "shard": 0, "planned": 8, "records": 8, "complete": true, "quarantined": false, "attempts": 0, "last_error": null },
    { "shard": 1, "planned": 8, "records": 8, "complete": true, "quarantined": false, "attempts": 0, "last_error": null },
    { "shard": 2, "planned": 8, "records": 8, "complete": true, "quarantined": false, "attempts": 0, "last_error": null }
  ],
  "explain": [],
  "fields": [
    { "field": "n", "nulls": 0, "kind": "num", "count": 24, "mean": 11.5, "stddev": 6.922186552431729, "min": 0, "max": 23, "p50": 12.06167417903914, "p90": 21.116435486210428, "p99": 22.875222481776554 },
    { "field": "honest", "nulls": 0, "kind": "num", "count": 24, "mean": 46, "stddev": 27.688746209726915, "min": 0, "max": 92, "p50": 47.9461739301829, "p90": 83.93961514619403, "p99": 92 },
    { "field": "malicious", "nulls": 0, "kind": "num", "count": 24, "mean": 89, "stddev": 0, "min": 89, "max": 89, "p50": 89, "p90": 89, "p99": 89 },
    { "field": "attacker_fraction", "nulls": 0, "kind": "num", "count": 24, "mean": 0.6892956304671312, "stddev": 0.14913597441435772, "min": 0.49171270718232046, "max": 1, "p50": 0.663607996878741, "p90": 0.9138827457526334, "p99": 0.9900000000000001 },
    { "field": "success", "nulls": 0, "kind": "bool", "true": 12, "false": 12, "rate": 0.5, "wilson95_low": 0.31427425819573357, "wilson95_high": 0.6857257418042665 }
  ]
}
"#;

const METRICS_JSON: &str = r#"{
  "campaign": "chronos_bound",
  "scale": "quick",
  "master_seed": 2020,
  "final": true,
  "tick": null,
  "workers": null,
  "shards": 3,
  "records": 24,
  "planned": 24,
  "attempts": 0,
  "quarantined": 0,
  "complete": true,
  "records_per_tick": null,
  "per_shard": [
    { "shard": 0, "planned": 8, "records": 8, "attempts": 0, "state": "done" },
    { "shard": 1, "planned": 8, "records": 8, "attempts": 0, "state": "done" },
    { "shard": 2, "planned": 8, "records": 8, "attempts": 0, "state": "done" }
  ],
  "estimators": [
    { "field": "n", "stat": "mean", "value": 11.5, "count": 24 },
    { "field": "honest", "stat": "mean", "value": 46, "count": 24 },
    { "field": "malicious", "stat": "mean", "value": 89, "count": 24 },
    { "field": "attacker_fraction", "stat": "mean", "value": 0.6892956304671312, "count": 24 },
    { "field": "success", "stat": "rate", "value": 0.5, "count": 24 }
  ]
}
"#;

#[test]
fn chronos_bound_reports_are_pinned_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("campaign-report-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = CampaignConfig {
        scenario: registry::find("chronos_bound").expect("registered"),
        scale: Scale::quick(),
        scale_label: "quick".into(),
        shards: 3,
        workers: 3,
        mode: ExecMode::InProcess,
        dir: dir.clone(),
        verbose: false,
    };
    run_campaign(&config).expect("campaign runs");
    let summary = std::fs::read_to_string(checkpoint::summary_path(&dir)).expect("summary.json");
    let metrics = std::fs::read_to_string(metrics::metrics_path(&dir)).expect("metrics.json");
    std::fs::remove_dir_all(dir).ok();
    assert_eq!(summary, SUMMARY_JSON, "summary.json bytes changed");
    assert_eq!(metrics, METRICS_JSON, "final metrics.json bytes changed");
}
