//! The shard planner + executor: splits a campaign's trial index space
//! into K contiguous shards ([`runner::shard_range`]) and runs them either
//! on in-process worker threads or as spawned child processes of the same
//! binary (`campaign worker --shard k/K`), each shard appending its record
//! stream to its own checkpoint file.
//!
//! Both modes run the same shard loop and produce byte-identical
//! checkpoints: a trial's record is a pure function of `(scenario, scale,
//! master seed, global index)`, and a shard's file is its records in
//! index order. The checkpoint is a worker's only output channel; the
//! coordinator watches its tail for progress and corrupt records (see
//! [`crate::supervisor`]).
//!
//! Resume: before running anything the executor recovers every shard
//! checkpoint ([`checkpoint::recover`]) and restarts each shard at its
//! first missing index — an interrupted campaign continues where it
//! stopped and ends with the same digest as an uninterrupted one. A
//! checkpoint with mid-file corruption is quarantined (renamed aside) and
//! its shard restarts at record 0; the rest of the resume is kept.
//!
//! Subprocess mode is [`supervisor::run_supervised`] with no retries and
//! no stall timeout: the first failed lease quarantines its shard and
//! [`run_campaign`] returns [`CampaignError::ShardQuarantined`]. The
//! failed shard's siblings are not killed — they run to completion, so
//! their checkpoints are complete and a rerun redoes only the failed
//! shard.

use std::ops::Range;
use std::path::{Path, PathBuf};

use runner::{shard_range, TrialRunner};
use timeshift::experiments::Scale;

use crate::checkpoint::{self, Appender};
use crate::error::CampaignError;
use crate::faults::{FaultSpec, GARBAGE_LINE, TORN_BYTES};
use crate::metrics::Metrics;
use crate::record::encode_line;
use crate::registry::{Campaign, Scenario};
use crate::summary::{self, Summary};
use crate::supervisor::{self, SupervisorConfig};

/// How shards execute.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// Shard workers are scoped threads in this process.
    InProcess,
    /// Shard workers are child processes running `<exe> worker …`.
    /// The binary at `exe` must be the `campaign` CLI (tests pass
    /// `env!("CARGO_BIN_EXE_campaign")`, the CLI passes itself).
    Subprocess {
        /// Path to the `campaign` binary.
        exe: PathBuf,
    },
}

/// A fully-specified campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The registered scenario to run.
    pub scenario: &'static Scenario,
    /// Population sizing + master seed (`scale.seed`).
    pub scale: Scale,
    /// Label recorded in the summary ("quick" / "paper" / "custom").
    pub scale_label: String,
    /// Shard count K (0 is clamped to 1).
    pub shards: usize,
    /// Max shards in flight at once (0 is clamped to 1).
    pub workers: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Campaign directory (checkpoints + summary).
    pub dir: PathBuf,
    /// Print per-shard progress to stderr.
    pub verbose: bool,
}

impl CampaignConfig {
    /// A quiet in-process config with `shards` == `workers` — what the
    /// tests and the example use.
    pub fn in_process(
        scenario: &'static Scenario,
        scale: Scale,
        shards: usize,
        dir: PathBuf,
    ) -> Self {
        CampaignConfig {
            scenario,
            scale,
            scale_label: "custom".into(),
            shards,
            workers: shards,
            mode: ExecMode::InProcess,
            dir,
            verbose: false,
        }
    }
}

/// A planned-but-unfinished shard: index, global range, records already
/// checkpointed.
pub(crate) type PendingShard = (usize, Range<usize>, usize);

/// Plans the shard ranges and recovers every checkpoint (quarantining
/// corrupt ones), returning `(all ranges, pending shards)`.
pub(crate) fn plan_and_recover(
    config: &CampaignConfig,
    shards: usize,
    total: usize,
) -> Result<(Vec<Range<usize>>, Vec<PendingShard>), CampaignError> {
    let ranges: Vec<_> = (0..shards).map(|k| shard_range(total, k, shards)).collect();
    let mut pending: Vec<PendingShard> = Vec::new();
    for (k, range) in ranges.iter().enumerate() {
        let planned = range.end - range.start;
        let recovery =
            checkpoint::recover(&checkpoint::shard_path(&config.dir, k), config.scenario.schema)?;
        if let checkpoint::Recovery::Quarantined { quarantined_to, line } = &recovery {
            if config.verbose {
                obs::console!(
                    "shard {k}: checkpoint corrupt at line {line}; quarantined to {} — \
                     restarting shard from record 0",
                    quarantined_to.display()
                );
            }
        }
        let done = recovery.records();
        if done > planned {
            return Err(CampaignError::StaleCheckpoint { shard: k, have: done, planned });
        }
        if done < planned {
            if config.verbose && done > 0 {
                obs::console!("shard {k}: resuming at record {done}/{planned}");
            }
            pending.push((k, range.clone(), done));
        }
    }
    Ok((ranges, pending))
}

/// Creates the campaign directory and verifies (or writes) its manifest.
pub(crate) fn prepare_dir(config: &CampaignConfig, shards: usize) -> Result<(), CampaignError> {
    std::fs::create_dir_all(&config.dir)
        .map_err(|e| CampaignError::io(format!("create {}", config.dir.display()), e))?;
    // A checkpoint is only a resumable prefix of THIS campaign: refuse the
    // directory if its manifest names a different scenario, scale, seed or
    // shard plan (shard files would otherwise be silently reinterpreted
    // under the new plan, duplicating and dropping records).
    checkpoint::check_manifest(
        &config.dir,
        config.scenario.name,
        &scale_spec(&config.scale),
        shards,
    )
}

/// Runs (or resumes) a campaign end to end: plan shards, recover
/// checkpoints, execute unfinished shards, then merge + aggregate into a
/// [`Summary`] (also written as `summary.json` in the campaign dir).
///
/// # Errors
///
/// Planning, I/O, or merge failures; in subprocess mode, a failed worker
/// quarantines its shard and surfaces as
/// [`CampaignError::ShardQuarantined`].
pub fn run_campaign(config: &CampaignConfig) -> Result<Summary, CampaignError> {
    if let ExecMode::Subprocess { exe } = &config.mode {
        let sup = SupervisorConfig {
            max_retries: 0,
            worker_timeout_ms: u64::MAX,
            ..SupervisorConfig::default()
        };
        let summary = supervisor::run_supervised(config, exe, &sup)?.summary;
        return match summary.coverage.iter().find(|c| c.quarantined) {
            Some(c) => Err(CampaignError::ShardQuarantined {
                shard: c.shard,
                attempts: c.attempts,
                last: c.last_error.clone().unwrap_or_default(),
            }),
            None => Ok(summary),
        };
    }

    let shards = config.shards.max(1);
    prepare_dir(config, shards)?;
    let built = config.scenario.build(config.scale);
    let (ranges, pending) = plan_and_recover(config, shards, built.trials())?;
    // One population build shared by every shard thread.
    let campaign = &*built;
    let results = TrialRunner::new(config.workers.max(1)).run(
        &pending,
        |_, (k, range, done)| -> Result<(), CampaignError> {
            let path = checkpoint::shard_path(&config.dir, *k);
            run_shard(config.scenario, campaign, range.clone(), *done, &path, None)?;
            if config.verbose {
                obs::console!("shard {k}: complete ({} records)", range.len());
            }
            Ok(())
        },
    );
    for r in results {
        r?;
    }

    let summary = summary::merge(
        config.scenario,
        &config.scale_label,
        config.scale.seed,
        &config.dir,
        &ranges,
    )?;
    // The normalized final metrics snapshot: built purely from the merged
    // summary, so it is bit-identical for any worker count or exec mode.
    Metrics::final_snapshot(&summary).write(&config.dir)?;
    Ok(summary)
}

/// The worker-process entry point: runs shard `k` of `shards`, skipping
/// the first `skip` already-checkpointed trials and appending each record
/// to `checkpoint`.
///
/// `fault` deterministically injects one failure mode (see
/// [`crate::faults`]) — the supervision chaos harness. `None` in
/// production.
///
/// # Errors
///
/// Unknown scenario, bad shard spec, or I/O failures.
pub fn run_worker(
    scenario: &'static Scenario,
    scale: Scale,
    k: usize,
    shards: usize,
    skip: usize,
    checkpoint_path: &Path,
    fault: Option<FaultSpec>,
) -> Result<(), CampaignError> {
    if k >= shards {
        return Err(CampaignError::BadSpec(format!("shard {k}/{shards} out of range")));
    }
    if let Some(FaultSpec::Exit(code)) = fault {
        std::process::exit(code);
    }
    let campaign = scenario.build(scale);
    let range = shard_range(campaign.trials(), k, shards);
    if skip > range.len() {
        return Err(CampaignError::BadSpec(format!("skip {skip} exceeds shard range {range:?}")));
    }
    run_shard(scenario, &*campaign, range, skip, checkpoint_path, fault)
}

/// The one shard loop: appends the records of `range` after its first
/// `skip` to the checkpoint at `path`, firing `fault` (worker processes
/// only) at its scheduled point.
fn run_shard(
    scenario: &'static Scenario,
    campaign: &dyn Campaign,
    range: Range<usize>,
    skip: usize,
    path: &Path,
    fault: Option<FaultSpec>,
) -> Result<(), CampaignError> {
    let mut out = Appender::open(path)?;
    for (written, idx) in (range.start + skip..range.end).enumerate() {
        // `written` counts records completed by THIS invocation — the
        // fault counters are relative to it, so a re-injected fault fires
        // at a well-defined point of a resumed stream too.
        inject_pre_record(fault, written, path, &mut out)?;
        out.append_line(&encode_line(scenario.schema, &campaign.run_trial(idx)))?;
    }
    Ok(())
}

/// Fires any fault scheduled for the point just before the
/// `written + 1`-th record of this invocation. Crash/stall/torn-write
/// never return; garbage-record appends its line and lets the worker
/// continue.
fn inject_pre_record(
    fault: Option<FaultSpec>,
    written: usize,
    checkpoint_path: &Path,
    out: &mut Appender,
) -> Result<(), CampaignError> {
    match fault {
        Some(FaultSpec::CrashAfter(k)) if written == k => std::process::exit(101),
        Some(FaultSpec::StallAfter(k)) if written == k => loop {
            // Hold the process alive without progress: the supervisor's
            // stall timeout is the only way out.
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
        Some(FaultSpec::TornWrite(k)) if written == k => {
            // Exactly what a kill mid-`append_line` leaves behind: a
            // flushed half-record with no newline.
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(checkpoint_path)
                .map_err(|e| CampaignError::io("open checkpoint for torn write", e))?;
            f.write_all(TORN_BYTES).map_err(|e| CampaignError::io("torn write", e))?;
            f.flush().map_err(|e| CampaignError::io("torn write flush", e))?;
            std::process::exit(103);
        }
        Some(FaultSpec::GarbageRecord(k)) if written == k => {
            // A complete but schema-invalid checkpoint line.
            out.append_line(GARBAGE_LINE)
        }
        _ => Ok(()),
    }
}

/// Parses a `--scale-spec` string
/// (`resolvers,domains,ad_fraction,shared,pool_servers,workers,seed`) —
/// the coordinator↔worker wire form of [`Scale`]. `ad_fraction` uses
/// Rust's shortest round-trip float formatting, so the worker reconstructs
/// the coordinator's scale bit-for-bit.
///
/// # Errors
///
/// Malformed spec, or an `ad_fraction` outside `[0, 1]`.
pub fn parse_scale_spec(spec: &str) -> Result<Scale, CampaignError> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 7 {
        return Err(CampaignError::BadSpec(format!(
            "scale spec needs 7 fields, got {}",
            parts.len()
        )));
    }
    let err = |field: &str, e: String| CampaignError::BadSpec(format!("scale spec {field}: {e}"));
    let ad_fraction: f64 = parts[2]
        .parse()
        .map_err(|e: std::num::ParseFloatError| err("ad_fraction", e.to_string()))?;
    // A fraction of the paper's client counts. NaN and negative values
    // mean nothing, and a huge one overflows the Table V client count.
    if !(0.0..=1.0).contains(&ad_fraction) {
        return Err(err("ad_fraction", format!("{ad_fraction} is not a fraction in [0, 1]")));
    }
    Ok(Scale {
        resolvers: parts[0]
            .parse()
            .map_err(|e: std::num::ParseIntError| err("resolvers", e.to_string()))?,
        domains: parts[1]
            .parse()
            .map_err(|e: std::num::ParseIntError| err("domains", e.to_string()))?,
        ad_fraction,
        shared: parts[3]
            .parse()
            .map_err(|e: std::num::ParseIntError| err("shared", e.to_string()))?,
        pool_servers: parts[4]
            .parse()
            .map_err(|e: std::num::ParseIntError| err("pool_servers", e.to_string()))?,
        workers: parts[5]
            .parse()
            .map_err(|e: std::num::ParseIntError| err("workers", e.to_string()))?,
        seed: parts[6].parse().map_err(|e: std::num::ParseIntError| err("seed", e.to_string()))?,
    })
}

/// Renders the `--scale-spec` wire form of a [`Scale`].
pub fn scale_spec(s: &Scale) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        s.resolvers, s.domains, s.ad_fraction, s.shared, s.pool_servers, s.workers, s.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_spec_round_trips() {
        let scale = Scale { ad_fraction: 0.030_000_000_000_000_2, ..Scale::quick() };
        let back = parse_scale_spec(&scale_spec(&scale)).expect("parses");
        assert_eq!(back.resolvers, scale.resolvers);
        assert_eq!(back.ad_fraction.to_bits(), scale.ad_fraction.to_bits());
        assert_eq!(back.seed, scale.seed);
    }

    #[test]
    fn scale_spec_rejects_malformed_input() {
        assert!(parse_scale_spec("1,2,3").is_err());
        assert!(parse_scale_spec("a,2,0.5,4,5,6,7").is_err());
        for fraction in ["inf", "NaN", "-1", "1e300"] {
            let result = parse_scale_spec(&format!("1,1,{fraction},1,1,1,2020"));
            assert!(matches!(result, Err(CampaignError::BadSpec(_))), "{fraction}: {result:?}");
        }
        assert!(parse_scale_spec("1,1,1,1,1,1,2020").is_ok());
    }

    #[test]
    fn worker_rejects_a_skip_past_its_shard_without_wrapping() {
        let scenario = crate::registry::find("chronos_bound").expect("registered");
        let dir = std::env::temp_dir().join(format!("exec-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("shard-1.ndjson");
        let result = run_worker(scenario, Scale::quick(), 1, 2, usize::MAX, &path, None);
        let written = std::fs::read(&path).map_or(0, |bytes| bytes.len());
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(result, Err(CampaignError::BadSpec(_))), "{result:?}");
        assert_eq!(written, 0, "no record may reach the checkpoint");
    }
}
