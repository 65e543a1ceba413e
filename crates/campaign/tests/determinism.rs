//! Campaign determinism: the merged record stream — and therefore the
//! campaign digest — must be bit-identical for any shard count, for
//! in-process vs. subprocess execution, and across a mid-campaign kill +
//! resume. These are the acceptance checks for `table2` and the
//! `table4_snoop` survey (Table IV, Figs. 6/7), run at
//! reduced-but-representative scales.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use campaign::exec::{run_campaign, scale_spec, CampaignConfig, ExecMode};
use campaign::{checkpoint, registry};
use timeshift::experiments::Scale;

/// The campaign binary (built by cargo before integration tests run).
fn campaign_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn digest_of(
    scenario: &'static registry::Scenario,
    scale: Scale,
    shards: usize,
    mode: ExecMode,
    tag: &str,
) -> String {
    let dir = tmp_dir(tag);
    let config = CampaignConfig {
        scenario,
        scale,
        scale_label: "custom".into(),
        shards,
        workers: shards,
        mode,
        dir: dir.clone(),
        verbose: false,
    };
    let summary = run_campaign(&config).expect("campaign runs");
    std::fs::remove_dir_all(dir).ok();
    summary.digest
}

fn small_survey_scale() -> Scale {
    Scale { resolvers: 60, ..Scale::quick() }
}

/// The `table4_snoop` survey, whose records Fig. 6 is drawn from, at 1, 2
/// and 4 shards, in-process and subprocess: six runs, one digest.
#[test]
fn fig6_digest_is_identical_across_shards_and_modes() {
    let scenario = registry::find("table4_snoop").expect("registered");
    let scale = small_survey_scale();
    let baseline = digest_of(scenario, scale, 1, ExecMode::InProcess, "snoop-in-1");
    for shards in [2usize, 4] {
        let d =
            digest_of(scenario, scale, shards, ExecMode::InProcess, &format!("snoop-in-{shards}"));
        assert_eq!(d, baseline, "in-process digest diverged at {shards} shards");
    }
    for shards in [1usize, 2, 4] {
        let mode = ExecMode::Subprocess { exe: campaign_exe() };
        let d = digest_of(scenario, scale, shards, mode, &format!("snoop-sub-{shards}"));
        assert_eq!(d, baseline, "subprocess digest diverged at {shards} shards");
    }
}

/// table2 (the four end-to-end run-time attacks) at 1, 2 and 4 shards,
/// in-process and subprocess: one digest. The heavy acceptance check.
#[test]
fn table2_digest_is_identical_across_shards_and_modes() {
    let scenario = registry::find("table2").expect("registered");
    let scale = Scale::quick();
    let baseline = digest_of(scenario, scale, 1, ExecMode::InProcess, "t2-in-1");
    for shards in [2usize, 4] {
        let d = digest_of(scenario, scale, shards, ExecMode::InProcess, &format!("t2-in-{shards}"));
        assert_eq!(d, baseline, "in-process digest diverged at {shards} shards");
    }
    for shards in [2usize, 4] {
        let mode = ExecMode::Subprocess { exe: campaign_exe() };
        let d = digest_of(scenario, scale, shards, mode, &format!("t2-sub-{shards}"));
        assert_eq!(d, baseline, "subprocess digest diverged at {shards} shards");
    }
}

/// Kill a worker subprocess mid-shard, then resume the whole campaign:
/// the final digest must equal an uninterrupted run's.
#[test]
fn killed_worker_resumes_to_identical_digest() {
    let scenario = registry::find("table4_snoop").expect("registered");
    let scale = small_survey_scale();
    let uninterrupted = digest_of(scenario, scale, 2, ExecMode::InProcess, "kill-ref");

    let dir = tmp_dir("kill-run");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // The coordinator writes the manifest before spawning workers; mirror
    // that so the resume below recognises the directory as its own.
    checkpoint::check_manifest(&dir, "table4_snoop", &scale_spec(&scale), 2).expect("manifest");
    // Launch shard 0's worker by hand (exactly as the coordinator would),
    // told to stall after 5 records so that the kill below always lands
    // on a live worker mid-shard, however fast it runs.
    let mut child = Command::new(campaign_exe())
        .arg("worker")
        .arg("--scenario")
        .arg("table4_snoop")
        .arg("--shard")
        .arg("0/2")
        .arg("--skip")
        .arg("0")
        .arg("--checkpoint")
        .arg(checkpoint::shard_path(&dir, 0))
        .arg("--scale-spec")
        .arg(scale_spec(&scale))
        .arg("--fault")
        .arg("stall-after=5")
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn worker");
    // Let it checkpoint a few records, then kill it mid-campaign. The
    // exit status is read before the checkpoint, so a worker that wrote
    // its records and exited is not mistaken for one that died early.
    let lines = || {
        std::fs::read(checkpoint::shard_path(&dir, 0))
            .map_or(0, |bytes| bytes.iter().filter(|&&b| b == b'\n').count())
    };
    for waited_ms in 0.. {
        let exited = child.try_wait().expect("poll worker");
        if lines() >= 5 {
            break;
        }
        assert!(exited.is_none(), "worker exited before checkpointing 5 records: {exited:?}");
        assert!(waited_ms < 30_000, "worker checkpointed fewer than 5 records in 30 s");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().expect("kill worker");
    child.wait().expect("reap worker");
    let partial = checkpoint::recover(&checkpoint::shard_path(&dir, 0), scenario.schema)
        .expect("recoverable checkpoint")
        .records();
    assert!(partial >= 5, "at least the streamed records are checkpointed");
    assert!(partial < 30, "the kill landed mid-shard");

    // Resume: the coordinator picks up shard 0 at its first missing record
    // and runs shard 1 from scratch.
    let config = CampaignConfig {
        scenario,
        scale,
        scale_label: "custom".into(),
        shards: 2,
        workers: 2,
        mode: ExecMode::Subprocess { exe: campaign_exe() },
        dir: dir.clone(),
        verbose: false,
    };
    let summary = run_campaign(&config).expect("resume succeeds");
    assert_eq!(summary.digest, uninterrupted, "kill + resume must not change the stream");
    assert_eq!(summary.records, 60);
    std::fs::remove_dir_all(dir).ok();
}

/// A mismatched directory — different shard plan, seed, or scenario on
/// the same `--out` — is rejected by the manifest guard, not silently
/// merged under the new plan.
#[test]
fn mismatched_checkpoint_directory_is_rejected() {
    let scenario = registry::find("chronos_bound").expect("registered");
    let dir = tmp_dir("stale");
    let config = CampaignConfig::in_process(scenario, Scale::quick(), 4, dir.clone());
    run_campaign(&config).expect("first run");
    // Re-plan with 2 shards: old shard files would be reinterpreted as
    // the wrong global index ranges.
    let replanned = CampaignConfig::in_process(scenario, Scale::quick(), 2, dir.clone());
    let err = run_campaign(&replanned).expect_err("must refuse the replanned layout").to_string();
    assert!(err.contains("different campaign"), "{err}");
    // A different master seed on the same directory is just as wrong.
    let reseeded = Scale { seed: 7, ..Scale::quick() };
    let reseeded = CampaignConfig::in_process(scenario, reseeded, 4, dir.clone());
    let err = run_campaign(&reseeded).expect_err("must refuse the reseeded campaign").to_string();
    assert!(err.contains("different campaign"), "{err}");
    // Checkpoints without a manifest are not adopted either.
    std::fs::remove_file(campaign::checkpoint::manifest_path(&dir)).expect("drop manifest");
    let err = run_campaign(&config).expect_err("must refuse unknown provenance").to_string();
    assert!(err.contains("provenance"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

/// The final `metrics.json` snapshot is normalized: built purely from
/// the merged summary, so its bytes must be identical for any worker
/// count and for in-process vs. subprocess execution.
#[test]
fn final_metrics_snapshot_is_identical_across_workers_and_modes() {
    let scenario = registry::find("chronos_bound").expect("registered");
    let scale = Scale::quick();
    let mut runs: Vec<(String, String)> = Vec::new();
    let mut cases: Vec<(usize, ExecMode, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        cases.push((workers, ExecMode::InProcess, format!("metrics-in-{workers}")));
    }
    cases.push((2, ExecMode::Subprocess { exe: campaign_exe() }, "metrics-sub-2".into()));
    for (workers, mode, tag) in cases {
        let dir = tmp_dir(&tag);
        let config = CampaignConfig {
            scenario,
            scale,
            scale_label: "quick".into(),
            shards: 2,
            workers,
            mode,
            dir: dir.clone(),
            verbose: false,
        };
        run_campaign(&config).expect("campaign runs");
        let json =
            std::fs::read_to_string(campaign::metrics::metrics_path(&dir)).expect("metrics.json");
        std::fs::remove_dir_all(dir).ok();
        runs.push((tag, json));
    }
    let (baseline_tag, baseline) = &runs[0];
    campaign::json::validate(baseline).expect("metrics.json must be well-formed");
    assert!(baseline.contains("\"final\": true"), "final snapshot must say so:\n{baseline}");
    assert!(baseline.contains("\"tick\": null"), "final snapshot carries no tick:\n{baseline}");
    for (tag, json) in &runs[1..] {
        assert_eq!(json, baseline, "{tag} metrics.json diverged from {baseline_tag}");
    }
}

/// The table2 summary carries the per-trial explain section (drop-reason
/// taxonomy), and the whole summary.json — explain included — is
/// bit-identical between in-process and subprocess runs.
#[test]
fn table2_explain_section_is_identical_across_modes() {
    let scenario = registry::find("table2").expect("registered");
    let scale = Scale::quick();
    let mut jsons = Vec::new();
    for (mode, tag) in [
        (ExecMode::InProcess, "explain-in"),
        (ExecMode::Subprocess { exe: campaign_exe() }, "explain-sub"),
    ] {
        let dir = tmp_dir(tag);
        let config = CampaignConfig {
            scenario,
            scale,
            scale_label: "quick".into(),
            shards: 2,
            workers: 2,
            mode,
            dir: dir.clone(),
            verbose: false,
        };
        run_campaign(&config).expect("campaign runs");
        let json = std::fs::read_to_string(checkpoint::summary_path(&dir)).expect("summary.json");
        std::fs::remove_dir_all(dir).ok();
        jsons.push(json);
    }
    let baseline = &jsons[0];
    campaign::json::validate(baseline).expect("summary.json must be well-formed");
    assert!(baseline.contains("\"explain\":"), "summary carries an explain section");
    assert!(baseline.contains("explain_fail_stage"), "explain aggregates the failure stage");
    assert!(baseline.contains("explain_total_drops"), "explain aggregates the drop counts");
    assert_eq!(jsons[1], *baseline, "explain section diverged between exec modes");
}

/// The summary JSON artifact is well-formed (the validator behind CI's
/// `jsoncheck`) and carries the digest.
#[test]
fn summary_json_is_well_formed() {
    let scenario = registry::find("pmtud").expect("registered");
    let dir = tmp_dir("summary");
    let config = CampaignConfig::in_process(scenario, Scale::quick(), 3, dir.clone());
    let summary = run_campaign(&config).expect("campaign runs");
    let json = std::fs::read_to_string(checkpoint::summary_path(&dir)).expect("summary.json");
    campaign::json::validate(&json).expect("summary.json must be well-formed");
    assert!(json.contains(&summary.digest));
    assert_eq!(json, summary.render_json());
    std::fs::remove_dir_all(dir).ok();
}

/// `campaign jsoncheck --require KEY` asks for a member of the top-level
/// object: `metrics.json` has `final` there, but `stat` only inside
/// nested objects, so requiring `stat` fails.
#[test]
fn jsoncheck_requires_top_level_members() {
    let scenario = registry::find("chronos_bound").expect("registered");
    let dir = tmp_dir("jsoncheck");
    run_campaign(&CampaignConfig::in_process(scenario, Scale::quick(), 2, dir.clone()))
        .expect("campaign runs");
    let metrics = campaign::metrics::metrics_path(&dir);
    let text = std::fs::read_to_string(&metrics).expect("metrics.json");
    assert!(text.contains("\"stat\":"), "a nested `stat` member exists");
    let jsoncheck = |keys: &[&str]| {
        let mut cmd = Command::new(campaign_exe());
        cmd.arg("jsoncheck");
        for key in keys {
            cmd.arg("--require").arg(key);
        }
        cmd.arg(&metrics).stdout(Stdio::null()).output().expect("run jsoncheck")
    };
    assert!(jsoncheck(&["final", "per_shard", "estimators"]).status.success());
    let missing = jsoncheck(&["final", "stat"]);
    assert!(!missing.status.success(), "a nested `stat` passed as a top-level member");
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(stderr.contains("missing required key(s): stat\n"), "{stderr}");
    std::fs::remove_dir_all(dir).ok();
}

/// Free-form strings are escaped: a scale label with a quote, a
/// backslash and a newline still yields well-formed `summary.json` and
/// `metrics.json`.
#[test]
fn scale_label_is_escaped_in_summary_and_metrics() {
    let scenario = registry::find("chronos_bound").expect("registered");
    let dir = tmp_dir("escape");
    let config = CampaignConfig {
        scale_label: "a\"b\\c\n".into(),
        ..CampaignConfig::in_process(scenario, Scale::quick(), 2, dir.clone())
    };
    run_campaign(&config).expect("campaign runs");
    for path in [checkpoint::summary_path(&dir), campaign::metrics::metrics_path(&dir)] {
        let json = std::fs::read_to_string(&path).expect("written");
        campaign::json::validate(&json).expect("well-formed despite the label");
        assert!(json.contains(r#""scale": "a\"b\\c\n""#), "{json}");
    }
    std::fs::remove_dir_all(dir).ok();
}
