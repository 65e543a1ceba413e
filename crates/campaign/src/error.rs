//! Typed campaign errors.
//!
//! Everything the orchestration layer can fail on is a [`CampaignError`]
//! variant, so the coordinator can *classify* a failure — is this a dead
//! worker the supervisor should re-lease, a corrupt checkpoint to
//! quarantine, or an operator mistake to report? — instead of matching on
//! message strings. A worker failure must never be able to crash the
//! coordinator: the supervision path carries no `unwrap`/`expect`/`panic!`
//! on data that crosses a process boundary (worker exit codes and
//! checkpoint bytes arrive here as typed variants).

use std::path::PathBuf;

/// Every failure the campaign layer reports.
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O operation failed (`context` names the path and operation).
    Io {
        /// What was being done to which path.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A record failed schema decoding during the merge pass.
    Schema {
        /// The checkpoint file being merged.
        path: PathBuf,
        /// 1-based record number within the file.
        record: usize,
        /// What the decoder rejected.
        detail: String,
    },
    /// The campaign directory's manifest names a different campaign.
    ManifestMismatch {
        /// The campaign directory.
        dir: PathBuf,
        /// Manifest found on disk.
        found: String,
        /// Manifest this run would write.
        expected: String,
    },
    /// The directory has shard checkpoints but no manifest.
    UnknownProvenance {
        /// The campaign directory.
        dir: PathBuf,
        /// The first stray checkpoint found.
        stray: PathBuf,
    },
    /// A checkpoint holds more records than its shard has planned trials.
    StaleCheckpoint {
        /// Shard index.
        shard: usize,
        /// Records found in the checkpoint.
        have: usize,
        /// Records the plan allows.
        planned: usize,
    },
    /// A shard's checkpoint is short of its planned range at merge time.
    IncompleteShard {
        /// Shard index.
        shard: usize,
        /// Records present.
        have: usize,
        /// Records planned.
        planned: usize,
    },
    /// A worker process could not be spawned.
    WorkerSpawn {
        /// Shard index.
        shard: usize,
        /// Spawn failure detail.
        detail: String,
    },
    /// A worker exited with a failure status.
    WorkerExit {
        /// Shard index.
        shard: usize,
        /// Rendered exit status (code or signal).
        status: String,
    },
    /// A worker's checkpoint tail held a corrupt record, or the worker
    /// exited cleanly short of its planned records.
    WorkerStream {
        /// Shard index.
        shard: usize,
        /// What went wrong with the checkpoint.
        detail: String,
    },
    /// A worker made no checkpoint progress within the stall timeout.
    WorkerStalled {
        /// Shard index.
        shard: usize,
        /// Supervision ticks the worker sat without progress.
        ticks: u64,
    },
    /// A shard exhausted its retry budget and was quarantined. Carried in
    /// the coverage report; `run_supervised` itself degrades to a partial
    /// summary rather than returning this.
    ShardQuarantined {
        /// Shard index.
        shard: usize,
        /// Worker spawns consumed (first lease + retries).
        attempts: usize,
        /// The final failure, rendered.
        last: String,
    },
    /// A malformed CLI value, scale spec, fault spec, or shard spec.
    BadSpec(String),
}

impl CampaignError {
    /// Wraps an I/O error with its path + operation context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CampaignError::Io { context: context.into(), source }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { context, source } => write!(f, "{context}: {source}"),
            CampaignError::Schema { path, record, detail } => {
                write!(f, "{} record {record}: {detail}", path.display())
            }
            CampaignError::ManifestMismatch { dir, found, expected } => write!(
                f,
                "{}: this directory belongs to a different campaign\n  found:    {found}  \
                 expected: {expected}rerun with --fresh or a new --out",
                dir.display()
            ),
            CampaignError::UnknownProvenance { dir, stray } => write!(
                f,
                "{}: found checkpoint {} but no manifest — not resuming a directory of \
                 unknown provenance; rerun with --fresh or a new --out",
                dir.display(),
                stray.display()
            ),
            CampaignError::StaleCheckpoint { shard, have, planned } => write!(
                f,
                "shard {shard}: checkpoint has {have} records but only {planned} are planned — \
                 stale campaign directory? rerun with --fresh or a new --out"
            ),
            CampaignError::IncompleteShard { shard, have, planned } => {
                write!(f, "shard {shard}: {have} records, planned {planned} — campaign incomplete")
            }
            CampaignError::WorkerSpawn { shard, detail } => {
                write!(f, "shard {shard}: spawn worker: {detail}")
            }
            CampaignError::WorkerExit { shard, status } => {
                write!(f, "shard {shard}: worker exited with {status}")
            }
            CampaignError::WorkerStream { shard, detail } => {
                write!(f, "shard {shard}: worker stream: {detail}")
            }
            CampaignError::WorkerStalled { shard, ticks } => {
                write!(f, "shard {shard}: worker stalled ({ticks} ticks without progress)")
            }
            CampaignError::ShardQuarantined { shard, attempts, last } => {
                write!(f, "shard {shard}: quarantined after {attempts} attempts (last: {last})")
            }
            CampaignError::BadSpec(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_classifying_detail() {
        let e = CampaignError::WorkerExit { shard: 3, status: "exit status: 101".into() };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("101"));
        let e = CampaignError::WorkerStalled { shard: 1, ticks: 400 };
        assert!(e.to_string().contains("stalled"));
        let e = CampaignError::ManifestMismatch {
            dir: PathBuf::from("d"),
            found: "a\n".into(),
            expected: "b\n".into(),
        };
        assert!(e.to_string().contains("different campaign"));
    }

    #[test]
    fn io_errors_chain_their_source() {
        use std::error::Error as _;
        let e =
            CampaignError::io("open x", std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("open x: "));
    }
}
