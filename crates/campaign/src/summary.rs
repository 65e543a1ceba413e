//! Deterministic merge + online aggregation: the coordinator's final pass.
//!
//! After every shard's checkpoint is complete, the coordinator streams the
//! shard files **in shard order** — which, with contiguous shard ranges,
//! is exactly global trial order — feeding each line to the campaign
//! digest and the per-field aggregators. Memory stays O(1) in the trial
//! count: one line buffer, a bounded rank sketch per numeric field, a
//! handful of counters. The result is written as `summary.json` next to
//! the shards.
//!
//! A supervised run that quarantined shards still merges — into a
//! **partial** summary (`complete: false`) whose coverage report says
//! exactly which shards contributed which fraction of their planned
//! records and why the rest are missing. Degrading to an explicit partial
//! result beats aborting: a million-trial campaign with one poisoned
//! shard is still 95+% of a dataset, and the coverage report is what
//! makes the gap auditable instead of silent.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::checkpoint;
use crate::digest::Digest;
use crate::error::CampaignError;
use crate::json::{object, Json};
use crate::record::decode_line;
use crate::registry::Scenario;
use crate::stats::Aggregate;
use crate::supervisor::ShardReport;

/// One shard's line in the coverage report: how much of its planned range
/// made it into the merge, the digest of what did, and why the rest is
/// missing.
#[derive(Debug, Clone)]
pub struct ShardCoverage {
    /// Shard index.
    pub shard: usize,
    /// Records the plan assigned to this shard.
    pub planned: usize,
    /// Records actually merged from its checkpoint.
    pub records: usize,
    /// Digest of the shard's own merged stream.
    pub digest: String,
    /// Whether the shard delivered its full planned range.
    pub complete: bool,
    /// Whether the supervisor quarantined the shard (retry budget spent).
    pub quarantined: bool,
    /// Worker spawns of a quarantined shard. It is 0 for every other
    /// shard, healed ones included, so `summary.json` and the final
    /// `metrics.json` stay identical across exec modes and fault plans;
    /// a healed shard's spawns are in the supervisor's `ShardReport`.
    pub attempts: usize,
    /// The quarantining failure, rendered — `None` for healthy shards.
    pub last_error: Option<String>,
}

/// The merged result of a campaign run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Scenario name.
    pub scenario: &'static str,
    /// Scale label ("quick" / "paper" / "custom").
    pub scale_label: String,
    /// Master seed.
    pub master_seed: u64,
    /// Total records merged.
    pub records: usize,
    /// Whether every shard delivered its planned range. A `false` here is
    /// a **partial** summary: consult [`Summary::coverage`].
    pub complete: bool,
    /// Digest of the merged stream — the campaign's identity. For a
    /// partial summary this digests only the merged prefix records and is
    /// *not* comparable to a complete run's digest.
    pub digest: String,
    /// Per-shard coverage report, in shard order (always present;
    /// all-complete for a healthy run). `summary.json` renders it twice:
    /// as the `shard_digests` array and as the `coverage` array.
    pub coverage: Vec<ShardCoverage>,
    /// Online per-field aggregates.
    pub aggregate: Aggregate,
}

impl Summary {
    /// Renders `summary.json` (validated well-formed by the test suite).
    /// Field order is stable; in particular `"digest"` precedes
    /// `"shard_digests"` and `"coverage"` — CI greps the first `"digest"`
    /// occurrence as the campaign identity. `"explain"` sits between
    /// `"coverage"` and the full per-field dump, so explain-only consumers
    /// can stop reading early.
    pub fn render_json(&self) -> String {
        let shard_digests = self.coverage.iter().map(
            |c| object!("shard" => c.shard, "records" => c.records, "digest" => c.digest.as_str()),
        );
        let coverage = self.coverage.iter().map(|c| {
            object!("shard" => c.shard, "planned" => c.planned, "records" => c.records,
                "complete" => c.complete, "quarantined" => c.quarantined, "attempts" => c.attempts,
                "last_error" => c.last_error.as_deref())
        });
        object!("campaign" => self.scenario, "scale" => self.scale_label.as_str(),
            "master_seed" => self.master_seed, "shards" => self.coverage.len(),
            "records" => self.records, "complete" => self.complete,
            "digest" => self.digest.as_str(),
            "shard_digests" => Json::Array(shard_digests.collect()),
            "coverage" => Json::Array(coverage.collect()),
            "explain" => self.aggregate.to_json(|name| name.starts_with("explain_")),
            "fields" => self.aggregate.to_json(|_| true))
        .render()
    }

    /// A short human-readable report for the CLI.
    pub fn render_text(&self) -> String {
        let partial = if self.complete { "" } else { "  (PARTIAL)" };
        let mut out = format!(
            "campaign {}  scale={}  seed={}  shards={}\n  records: {}{partial}\n  digest:  {}\n",
            self.scenario,
            self.scale_label,
            self.master_seed,
            self.coverage.len(),
            self.records,
            self.digest
        );
        for c in &self.coverage {
            let _ = writeln!(out, "  shard {:>2}: {:>7} records  {}", c.shard, c.records, c.digest);
        }
        if !self.complete {
            out.push_str("  coverage:\n");
        }
        for c in self.coverage.iter().filter(|c| !c.complete) {
            let _ = write!(out, "    shard {:>2}: {}/{} records", c.shard, c.records, c.planned);
            if c.quarantined {
                let _ = write!(out, "  QUARANTINED after {} attempts", c.attempts);
            }
            if let Some(e) = &c.last_error {
                let _ = write!(out, "  ({})", e.lines().next().unwrap_or_default());
            }
            out.push('\n');
        }
        out
    }
}

/// Streams the shard checkpoints in shard order through the digest and the
/// aggregators, verifies counts against the plan, and writes
/// `summary.json`. Every shard must be complete — this is the strict
/// merge the unsupervised executor uses.
///
/// # Errors
///
/// I/O failures, schema violations, or a shard whose record count does not
/// match its planned range (an incomplete campaign).
pub fn merge(
    scenario: &'static Scenario,
    scale_label: &str,
    master_seed: u64,
    dir: &Path,
    ranges: &[std::ops::Range<usize>],
) -> Result<Summary, CampaignError> {
    merge_with_quarantine(scenario, scale_label, master_seed, dir, ranges, &[])
}

/// The quarantine-aware merge the supervisor uses: shards whose
/// [`ShardReport`] says `quarantined` may fall short of their planned
/// range (their clean checkpoint prefix — possibly empty — still merges);
/// every other shard must be complete. The summary is marked partial iff
/// any shard fell short, and the coverage report carries each quarantined
/// shard's attempt count and final failure.
///
/// # Errors
///
/// I/O failures, schema violations, or a *non-quarantined* shard short of
/// its planned range.
pub fn merge_with_quarantine(
    scenario: &'static Scenario,
    scale_label: &str,
    master_seed: u64,
    dir: &Path,
    ranges: &[std::ops::Range<usize>],
    reports: &[ShardReport],
) -> Result<Summary, CampaignError> {
    let mut total_digest = Digest::new();
    let mut aggregate = Aggregate::new(scenario.schema);
    let mut coverage = Vec::with_capacity(ranges.len());
    for (k, range) in ranges.iter().enumerate() {
        let path = checkpoint::shard_path(dir, k);
        let planned = range.end - range.start;
        let quarantine = reports.iter().find(|r| r.shard == k && r.quarantined);
        let mut shard_digest = Digest::new();
        let mut count = 0usize;
        if planned > 0 && path.exists() {
            let file = File::open(&path)
                .map_err(|e| CampaignError::io(format!("open {}", path.display()), e))?;
            let mut reader = BufReader::new(file);
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader
                    .read_line(&mut line)
                    .map_err(|e| CampaignError::io(format!("read {}", path.display()), e))?;
                if n == 0 {
                    break;
                }
                let body = line.strip_suffix('\n').ok_or_else(|| CampaignError::Schema {
                    path: path.clone(),
                    record: count + 1,
                    detail: "torn final line (recover before merging)".into(),
                })?;
                let record = decode_line(scenario.schema, body).map_err(|e| {
                    CampaignError::Schema { path: path.clone(), record: count + 1, detail: e }
                })?;
                total_digest.update_line(body);
                shard_digest.update_line(body);
                aggregate.push(&record);
                count += 1;
            }
        }
        if count != planned && quarantine.is_none() {
            return Err(CampaignError::IncompleteShard { shard: k, have: count, planned });
        }
        coverage.push(ShardCoverage {
            shard: k,
            planned,
            records: count,
            digest: shard_digest.hex(),
            complete: count == planned,
            quarantined: quarantine.is_some(),
            attempts: quarantine.map_or(0, |r| r.attempts),
            last_error: quarantine.and_then(|r| r.failures.last().cloned()),
        });
    }
    let summary = Summary {
        scenario: scenario.name,
        scale_label: scale_label.to_owned(),
        master_seed,
        records: coverage.iter().map(|c| c.records).sum(),
        complete: coverage.iter().all(|c| c.complete),
        digest: total_digest.hex(),
        coverage,
        aggregate,
    };
    std::fs::write(checkpoint::summary_path(dir), summary.render_json())
        .map_err(|e| CampaignError::io("write summary.json", e))?;
    Ok(summary)
}
