//! The `survey` and `survey_supervised` workloads: rounds of a lazy
//! `table4_snoop` slice of the 1,583,045-resolver index space, each round
//! a complete two-shard campaign (manifest, checkpoints, merge, digest,
//! `summary.json`). Rounds run back to back, each to completion, until
//! their summed time reaches the budget.
//!
//! An in-process round runs the same steps, in the same order, as
//! `campaign::exec::run_campaign` with two shard threads, with each
//! `run_trial` call timed. A supervised round hands the same campaign to
//! `campaign::supervisor::run_supervised` with two subprocess workers; the
//! worker is this binary's `worker` subcommand, which calls
//! `campaign::exec::run_worker` as `campaign worker` does (see
//! [`worker_main`]).

use std::io::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use campaign::checkpoint::{self, Appender};
use campaign::error::CampaignError;
use campaign::exec::{self, CampaignConfig, ExecMode};
use campaign::metrics::Metrics;
use campaign::record::encode_line;
use campaign::registry::{self, Campaign, Scenario};
use campaign::summary;
use campaign::supervisor::{self, SupervisorConfig};
use runner::{shard_range, TrialRunner};
use timeshift::experiments::Scale;

use crate::trace::{self, Span, Tracer};

/// Shards per round (one per worker).
pub const SHARDS: usize = crate::WORKERS;
/// Resolvers per round: about a second of work on two cores, so a run
/// holds several rounds and so several set-up samples.
pub const ROUND_RESOLVERS: usize = 10_000;

fn scenario() -> &'static Scenario {
    registry::find("table4_snoop").expect("scenario is registered")
}

/// The campaign scale of a round of `resolvers` trials at `seed`.
fn scale(resolvers: usize, seed: u64) -> Scale {
    Scale { resolvers, workers: crate::WORKERS, seed, ..Scale::quick() }
}

/// One finished round.
#[derive(Debug, Default)]
pub struct Round {
    /// Master seed of the round.
    pub seed: u64,
    /// Trials planned.
    pub planned: usize,
    /// Records in the merged summary (0 if the round failed).
    pub records: usize,
    /// Whether the summary is complete.
    pub complete: bool,
    /// The merged stream digest.
    pub digest: String,
    /// Round start to first trial start.
    pub setup_ns: u64,
    /// Round start to summary written.
    pub wall_ns: u64,
    /// `run_trial` latencies (ns), in-process rounds.
    pub trial_ns: Vec<u64>,
    /// Time the shard workers spent running trials and writing records,
    /// summed over workers (ns).
    pub busy_ns: u64,
    /// Lease retries the supervisor needed.
    pub retries: usize,
    /// Largest worker peak RSS (kB), supervised rounds.
    pub worker_rss_kb: u64,
    /// Spans (traced in-process rounds).
    pub spans: Vec<Span>,
    /// Why the round failed, if it did.
    pub error: Option<String>,
}

struct ShardOut {
    first_start: u64,
    busy_ns: u64,
    trial_ns: Vec<u64>,
    spans: Vec<Span>,
}

fn run_shard(
    dir: &Path,
    k: usize,
    range: &Range<usize>,
    campaign: &dyn Campaign,
    traced: bool,
) -> Result<ShardOut, CampaignError> {
    let schema = scenario().schema;
    let mut tracer = Tracer::new(traced);
    let first_start = trace::now_ns();
    let mut trial_ns = Vec::with_capacity(range.len());
    let mut appender = Appender::open(&checkpoint::shard_path(dir, k))?;
    for idx in range.clone() {
        let envelope = tracer.open();
        let measure = tracer.open();
        let start = trace::now_ns();
        let record = catch_unwind(AssertUnwindSafe(|| campaign.run_trial(idx)));
        trial_ns.push(trace::now_ns() - start);
        tracer.close(measure, envelope.id(), "measure", "run_trial");
        // A panicked trial leaves its record out, so the merge fails and
        // the round counts as failed.
        if let Ok(record) = record {
            let encode = tracer.open();
            let line = encode_line(schema, &record);
            tracer.close(encode, envelope.id(), "campaign", "encode_line");
            let append = tracer.open();
            appender.append_line(&line)?;
            tracer.close(append, envelope.id(), "campaign", "append_line");
        }
        tracer.close(envelope, 0, trace::TRIAL, "trial");
    }
    let busy_ns = trace::now_ns() - first_start;
    Ok(ShardOut { first_start, busy_ns, trial_ns, spans: tracer.spans })
}

/// One in-process round of `resolvers` trials at `seed` in `dir` (which
/// must not hold an earlier round).
pub fn in_process_round(dir: &Path, resolvers: usize, seed: u64, traced: bool) -> Round {
    let t0 = trace::now_ns();
    let mut round = Round { seed, planned: resolvers, ..Round::default() };
    let mut tracer = Tracer::new(traced);
    let result = (|| -> Result<(), CampaignError> {
        let scenario = scenario();
        let scale = scale(resolvers, seed);
        std::fs::create_dir_all(dir)
            .map_err(|e| CampaignError::io(format!("create {}", dir.display()), e))?;
        checkpoint::check_manifest(dir, scenario.name, &exec::scale_spec(&scale), SHARDS)?;
        let built = scenario.build(scale);
        let ranges: Vec<Range<usize>> =
            (0..SHARDS).map(|k| shard_range(built.trials(), k, SHARDS)).collect();
        for k in 0..SHARDS {
            checkpoint::recover(&checkpoint::shard_path(dir, k), scenario.schema)?;
        }
        let campaign = &*built;
        let shards = TrialRunner::new(crate::WORKERS)
            .run(&ranges, |k, range| run_shard(dir, k, range, campaign, traced));
        let mut first_start = u64::MAX;
        for shard in shards {
            let shard = shard?;
            first_start = first_start.min(shard.first_start);
            round.busy_ns += shard.busy_ns;
            round.trial_ns.extend(shard.trial_ns);
            round.spans.extend(shard.spans);
        }
        round.setup_ns = first_start.saturating_sub(t0);
        let merge = tracer.open();
        let summary = summary::merge(scenario, "custom", seed, dir, &ranges)?;
        Metrics::final_snapshot(&summary).write(dir)?;
        tracer.close(merge, 0, "campaign", "merge");
        (round.records, round.complete, round.digest) =
            (summary.records, summary.complete, summary.digest);
        Ok(())
    })();
    tracer.record("campaign", "setup", t0, t0 + round.setup_ns);
    round.spans.extend(tracer.spans);
    round.error = result.err().map(|e| e.to_string());
    round.wall_ns = trace::now_ns() - t0;
    round
}

/// One supervised round: `run_supervised` over two subprocess workers
/// (this binary, `exe`). Its set-up ends when the first worker enters
/// `run_worker`.
pub fn supervised_round(dir: &Path, resolvers: usize, seed: u64, exe: &Path) -> Round {
    let t0 = trace::now_ns();
    let t0_unix = unix_ns();
    let mut round = Round { seed, planned: resolvers, ..Round::default() };
    let config = CampaignConfig {
        scenario: scenario(),
        scale: scale(resolvers, seed),
        scale_label: "custom".into(),
        shards: SHARDS,
        workers: crate::WORKERS,
        mode: ExecMode::Subprocess { exe: exe.to_path_buf() },
        dir: dir.to_path_buf(),
        verbose: false,
    };
    match supervisor::run_supervised(&config, exe, &SupervisorConfig::default()) {
        Ok(run) => {
            round.records = run.summary.records;
            round.complete = run.summary.complete;
            round.digest = run.summary.digest;
            round.retries = run.reports.iter().map(|r| r.attempts.saturating_sub(1)).sum();
        }
        Err(e) => round.error = Some(e.to_string()),
    }
    round.wall_ns = trace::now_ns() - t0;
    let mut first_unix = u64::MAX;
    for k in 0..SHARDS {
        let path = side_path(&checkpoint::shard_path(dir, k));
        match read_side_file(&path) {
            Ok(runs) => {
                for (start, end, rss_kb) in runs {
                    first_unix = first_unix.min(start);
                    round.busy_ns += end.saturating_sub(start);
                    round.worker_rss_kb = round.worker_rss_kb.max(rss_kb);
                }
            }
            Err(e) => {
                round.error.get_or_insert(e);
            }
        }
    }
    round.setup_ns = first_unix.saturating_sub(t0_unix);
    round
}

/// Wall-clock time, the one clock the coordinator and its worker
/// processes share (for the supervised set-up time).
#[allow(clippy::disallowed_methods)]
fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Peak resident set of this process (kB), from `/proc/self/status`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The worker's timing file next to its checkpoint. Its name does not end
/// in `.ndjson`, so the campaign's own file scans never see it.
fn side_path(checkpoint: &Path) -> PathBuf {
    let mut name = checkpoint.as_os_str().to_owned();
    name.push(".perf");
    PathBuf::from(name)
}

/// The worker invocations a side file records, one line each: `(start
/// unix ns, end unix ns, peak RSS kB)`. A crashed worker writes no line.
fn read_side_file(path: &Path) -> Result<Vec<(u64, u64, u64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let v: Vec<u64> = line.split_whitespace().filter_map(|f| f.parse().ok()).collect();
            match v[..] {
                [start, end, rss] => Ok((start, end, rss)),
                _ => Err(format!("{}: bad line {line:?}", path.display())),
            }
        })
        .collect()
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].as_str())
}

/// The `worker` subcommand: parses the `campaign worker` flags
/// (`--scenario --shard k/K --skip --checkpoint --scale-spec`) and calls
/// `campaign::exec::run_worker`, as `campaign worker` does. Around that
/// call it appends the start and end times and the process's peak RSS to
/// a `.perf` file next to the checkpoint. Fault injection is not part of
/// the benchmark and is refused.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let need = |name: &str| flag(args, name).ok_or(format!("worker needs {name}"));
    if flag(args, "--fault").is_some() {
        return Err("the benchmark worker does not inject faults".into());
    }
    let name = need("--scenario")?;
    let scenario = registry::find(name).ok_or(format!("unknown scenario {name:?}"))?;
    let scale = exec::parse_scale_spec(need("--scale-spec")?).map_err(|e| e.to_string())?;
    let shard = need("--shard")?;
    let (k, shards) = shard
        .split_once('/')
        .and_then(|(k, n)| Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
        .ok_or(format!("bad --shard {shard:?}"))?;
    let skip: usize = need("--skip")?.parse().map_err(|e| format!("--skip: {e}"))?;
    let checkpoint_path = PathBuf::from(need("--checkpoint")?);

    let start = unix_ns();
    exec::run_worker(scenario, scale, k, shards, skip, &checkpoint_path, None)
        .map_err(|e| e.to_string())?;
    let line = format!("{start} {} {}\n", unix_ns(), peak_rss_kb().unwrap_or(0));
    let path = side_path(&checkpoint_path);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}
