//! The supervision chaos matrix: every injectable fault × retry depth
//! must heal to a merged digest **bit-identical** to the fault-free run,
//! and a shard that exhausts its retry budget must degrade into a partial
//! summary with an accurate coverage report — never an abort.
//!
//! `chronos_bound` (24 pure-arithmetic trials over 3 shards) keeps each
//! cell cheap; the faults land on shard 1 so shards 0 and 2 double as
//! healthy bystanders whose leases must be unaffected.

use std::path::PathBuf;
use std::time::Duration;

use campaign::error::CampaignError;
use campaign::exec::{run_campaign, CampaignConfig, ExecMode};
use campaign::faults::FaultPlan;
use campaign::supervisor::{run_supervised, SupervisedRun, SupervisorConfig};
use campaign::{checkpoint, registry};
use timeshift::experiments::Scale;

fn campaign_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-chaos-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(dir: PathBuf) -> CampaignConfig {
    CampaignConfig {
        scenario: registry::find("chronos_bound").expect("registered"),
        scale: Scale::quick(),
        scale_label: "quick".into(),
        shards: 3,
        workers: 3,
        mode: ExecMode::Subprocess { exe: campaign_exe() },
        dir,
        verbose: false,
    }
}

/// A fast supervision clock for tests: 10 ms ticks, 400 ms stall timeout.
fn sup(max_retries: usize, faults: FaultPlan) -> SupervisorConfig {
    SupervisorConfig {
        max_retries,
        worker_timeout_ms: 400,
        poll_interval_ms: 10,
        faults,
        ..SupervisorConfig::default()
    }
}

/// The fault-free reference digest (in-process run — also pins that
/// supervision itself never changes results).
fn baseline_digest() -> String {
    let dir = tmp_dir("baseline");
    let cfg = CampaignConfig { mode: ExecMode::InProcess, ..config(dir.clone()) };
    let summary = run_campaign(&cfg).expect("baseline runs");
    std::fs::remove_dir_all(dir).ok();
    summary.digest
}

fn run_with_faults(tag: &str, max_retries: usize, faults: FaultPlan) -> SupervisedRun {
    let dir = tmp_dir(tag);
    let cfg = config(dir.clone());
    let run = run_supervised(&cfg, &campaign_exe(), &sup(max_retries, faults))
        .expect("supervised run settles (heal or quarantine, never abort)");
    std::fs::remove_dir_all(dir).ok();
    run
}

/// A clean supervised run equals the bare run bit-for-bit.
#[test]
fn supervised_clean_run_matches_bare_digest() {
    let baseline = baseline_digest();
    let run = run_with_faults("clean", 2, FaultPlan::none());
    assert!(run.summary.complete);
    assert_eq!(run.summary.digest, baseline);
    assert!(run.summary.coverage.iter().all(|c| c.complete && !c.quarantined));
    assert!(run.reports.iter().all(|r| r.attempts == 1 && r.failures.is_empty()));
}

/// The acceptance matrix: each fault kind × {1, 2} consecutive injections
/// heals under `max_retries = 2` to the fault-free digest, with the
/// expected number of observed failures on the faulted shard.
#[test]
fn every_fault_and_retry_depth_heals_to_an_identical_digest() {
    let baseline = baseline_digest();
    for spec in ["crash-after=1", "stall-after=0", "torn-write=1", "garbage-record=1", "exit=7"] {
        for times in [1usize, 2] {
            let mut faults = FaultPlan::none();
            faults.push_cli(&format!("1:{spec}:x{times}")).expect("valid fault entry");
            let run = run_with_faults(&format!("heal-{spec}-x{times}"), 2, faults);
            let label = format!("{spec} x{times}");
            assert!(run.summary.complete, "{label}: run must heal to completion");
            assert_eq!(
                run.summary.digest, baseline,
                "{label}: healed digest must be bit-identical to the fault-free run"
            );
            let report =
                run.reports.iter().find(|r| r.shard == 1).expect("faulted shard has a report");
            assert!(!report.quarantined, "{label}: shard must heal, not quarantine");
            assert_eq!(
                report.failures.len(),
                times,
                "{label}: one observed failure per injection, got {:?}",
                report.failures
            );
            assert_eq!(report.attempts, times + 1, "{label}: injections + one clean attempt");
            for r in run.reports.iter().filter(|r| r.shard != 1) {
                assert!(
                    r.failures.is_empty() && r.attempts <= 1,
                    "bystander shard {} was disturbed: {:?}",
                    r.shard,
                    r.failures
                );
            }
        }
    }
}

/// Exhausting the retry budget quarantines the shard and degrades to a
/// partial summary whose coverage report is accurate — the run never
/// aborts.
#[test]
fn exhausted_retries_quarantine_into_an_accurate_partial_summary() {
    let mut faults = FaultPlan::none();
    // Three consecutive crashes before any record, against a budget of
    // 1 + 2 retries: every attempt fails, the shard quarantines empty.
    faults.push_cli("1:crash-after=0:x3").expect("valid fault entry");
    let dir = tmp_dir("quarantine");
    let cfg = config(dir.clone());
    let run = run_supervised(&cfg, &campaign_exe(), &sup(2, faults))
        .expect("quarantine degrades, never aborts");

    assert!(!run.summary.complete, "a quarantined shard must mark the summary partial");
    let per_shard = 24 / 3;
    assert_eq!(run.summary.records, 2 * per_shard, "two healthy shards still merged");
    let cov = &run.summary.coverage[1];
    assert!(cov.quarantined && !cov.complete);
    assert_eq!((cov.planned, cov.records), (per_shard, 0));
    assert_eq!(cov.attempts, 3, "first lease + two retries");
    let last = cov.last_error.as_deref().expect("coverage carries the final failure");
    assert!(last.contains("101"), "final failure names the crash exit: {last}");
    for k in [0usize, 2] {
        let c = &run.summary.coverage[k];
        assert!(c.complete && !c.quarantined && c.records == per_shard);
    }

    // The partial summary.json is written, well-formed, and says so.
    let json = std::fs::read_to_string(checkpoint::summary_path(&dir)).expect("summary.json");
    bench::json::validate(&json).expect("partial summary.json must stay well-formed");
    assert!(json.contains("\"complete\": false"));
    assert!(json.contains("\"quarantined\": true"));
    std::fs::remove_dir_all(dir).ok();
}

/// `--trace-dir` dumps each shard's supervision flight-recorder ring:
/// the quarantined shard's trace must contain the injected fault's event
/// chain (lease → crash ×3 → quarantine) while healthy bystanders show
/// a single undisturbed lease.
#[test]
fn trace_dump_records_the_fault_chain_of_a_quarantined_shard() {
    let mut faults = FaultPlan::none();
    faults.push_cli("1:crash-after=0:x3").expect("valid fault entry");
    let dir = tmp_dir("tracedump");
    let trace_dir = dir.join("traces");
    let cfg = config(dir.clone());
    let sup_cfg = SupervisorConfig { trace_dir: Some(trace_dir.clone()), ..sup(2, faults) };
    let run = run_supervised(&cfg, &campaign_exe(), &sup_cfg).expect("quarantine run settles");
    assert!(!run.summary.complete);

    let faulted =
        std::fs::read_to_string(trace_dir.join("shard-1.trace")).expect("faulted shard trace");
    assert!(faulted.contains("# flight recorder:"), "dump has the ring header:\n{faulted}");
    assert_eq!(
        faulted.matches("kind=lease-granted").count(),
        3,
        "one lease per attempt:\n{faulted}"
    );
    assert_eq!(
        faulted.matches("kind=worker-crash").count(),
        3,
        "each injected crash is recorded:\n{faulted}"
    );
    assert!(faulted.contains("kind=shard-quarantined"), "quarantine is recorded:\n{faulted}");
    assert!(!faulted.contains("kind=shard-healed"), "a quarantined shard never heals");
    for k in [0usize, 2] {
        let trace = std::fs::read_to_string(trace_dir.join(format!("shard-{k}.trace")))
            .expect("bystander shard trace");
        assert_eq!(
            trace.matches("kind=lease-granted").count(),
            1,
            "bystander shard {k} leased exactly once:\n{trace}"
        );
        for bad in ["worker-crash", "worker-stall", "stream-corrupt", "shard-quarantined"] {
            assert!(!trace.contains(bad), "bystander shard {k} saw {bad}:\n{trace}");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A quarantined shard's directory remains resumable: a later supervised
/// run without the fault re-leases just the quarantined shard and
/// completes the campaign with the reference digest.
#[test]
fn quarantined_shard_heals_on_a_later_fault_free_run() {
    let baseline = baseline_digest();
    let mut faults = FaultPlan::none();
    faults.push_cli("2:exit=9:x3").expect("valid fault entry");
    let dir = tmp_dir("requarantine");
    let cfg = config(dir.clone());
    let first =
        run_supervised(&cfg, &campaign_exe(), &sup(2, faults)).expect("quarantine run settles");
    assert!(!first.summary.complete);

    let second = run_supervised(&cfg, &campaign_exe(), &sup(2, FaultPlan::none()))
        .expect("follow-up run settles");
    assert!(second.summary.complete, "the retry run must finish the quarantined shard");
    assert_eq!(second.summary.digest, baseline, "healed campaign digest matches fault-free run");
    // Only the quarantined shard needed work the second time round.
    assert_eq!(
        second.reports.iter().map(|r| r.shard).collect::<Vec<_>>(),
        vec![2],
        "healthy shards must not re-run"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Runs `f` on its own thread and waits at most 30 s for it, so a
/// coordinator that never settles fails the test instead of hanging it.
fn settles<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || tx.send(f()).expect("receiver waits"));
    let out = rx.recv_timeout(Duration::from_secs(30)).expect("the run must settle, not loop");
    handle.join().expect("run thread exits cleanly");
    out
}

/// A lease that fails before its worker spawns uses up the retry budget
/// like any other failure: with no worker binary the run settles with
/// every shard quarantined instead of re-leasing forever.
#[test]
fn unspawnable_workers_quarantine_instead_of_retrying_forever() {
    let dir = tmp_dir("nospawn");
    let cfg = CampaignConfig { shards: 2, workers: 2, ..config(dir.clone()) };
    let exe = dir.join("no-such-campaign-binary");
    let sup_cfg =
        SupervisorConfig { max_retries: 1, poll_interval_ms: 1, ..SupervisorConfig::default() };
    let run = settles(move || run_supervised(&cfg, &exe, &sup_cfg))
        .expect("quarantine degrades, never aborts");
    assert!(!run.summary.complete);
    assert!(run.summary.coverage.iter().all(|c| c.quarantined && c.records == 0));
    assert_eq!(run.reports.len(), 2);
    for r in &run.reports {
        assert!(r.quarantined, "shard {} must quarantine", r.shard);
        assert_eq!(r.attempts, 0, "no worker ever spawned");
        assert_eq!(r.failures.len(), 2, "first lease + one retry: {:?}", r.failures);
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Subprocess mode without supervision flags fails fast: the first failed
/// lease quarantines its shard and `run_campaign` returns the typed
/// error, promptly.
#[test]
fn bare_subprocess_run_fails_on_the_first_failed_lease() {
    let dir = tmp_dir("bare-nospawn");
    let exe = dir.join("no-such-campaign-binary");
    let cfg = CampaignConfig { mode: ExecMode::Subprocess { exe }, ..config(dir.clone()) };
    match settles(move || run_campaign(&cfg)) {
        Err(CampaignError::ShardQuarantined { attempts: 0, last, .. }) => {
            assert!(last.contains("spawn worker"), "names the spawn failure: {last}");
        }
        other => panic!("expected a quarantined shard, got {other:?}"),
    }
    std::fs::remove_dir_all(dir).ok();
}
