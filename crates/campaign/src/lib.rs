//! # campaign — sharded, streaming, resumable campaign orchestration
//!
//! The paper's results are Monte-Carlo campaigns; this crate is the layer
//! that runs them at scale, the way Internet-wide scan pipelines do: a
//! coordinator fans deterministic seed-range shards to workers, workers
//! append newline-delimited JSON records to per-shard checkpoints, and
//! the coordinator merges the checkpoints in shard order and aggregates
//! online.
//!
//! * [`registry`] — every reproducible artifact addressable by name
//!   (`table1`, `table2`, `fig5`, `table4_snoop` (Table IV and Figs. 6/7),
//!   `table5_adstudy`, `ratelimit`, `pmtud`, `shared`, `chronos_bound`),
//!   each a typed [`registry::Scan`] with a record [`record::Schema`];
//! * [`exec`] — the shard planner + executor: contiguous index-range
//!   shards ([`runner::shard_range`]) run on in-process threads, or as
//!   `campaign worker --shard k/K` child processes under the
//!   [`supervisor`] with no retries;
//! * [`checkpoint`] — per-shard append-only NDJSON checkpoints with
//!   torn-tail recovery: an interrupted campaign resumes at its first
//!   missing record; mid-file corruption quarantines the file and the
//!   shard restarts cleanly;
//! * [`supervisor`] + [`faults`] — self-healing supervision: dead, hung,
//!   or garbage-writing workers are re-leased from their last good
//!   checkpoint under deterministic backoff, shards that exhaust their
//!   retries are quarantined into a partial summary with a coverage
//!   report, and the deterministic fault injector proves the healed
//!   digest is bit-identical to a fault-free run;
//! * [`error`] — the typed [`error::CampaignError`] taxonomy the
//!   supervisor classifies failures with;
//! * [`metrics`] — the live `metrics.json` sidecar: per-shard progress,
//!   lease states, and incremental estimator snapshots rewritten
//!   atomically each supervision tick, plus the normalized (deterministic)
//!   final snapshot every run writes after its merge;
//! * [`summary`] — the deterministic merge + [`stats`] online aggregation
//!   (Welford moments, Wilson intervals, mergeable rank-sketch quantiles,
//!   and — for declared histogram fields — fixed-bin streaming
//!   histograms) in memory independent of the trial count;
//! * [`json`] — the one JSON writer the reports render through, and the
//!   dependency-free reader behind `campaign jsoncheck`;
//! * [`digest`] — the FNV-1a stream digest that pins it all down: equal
//!   for any shard count, worker schedule, in-process vs. subprocess
//!   execution, and interrupt + resume.
//!
//! ```
//! use campaign::prelude::*;
//! use timeshift::experiments::Scale;
//!
//! let scenario = campaign::registry::find("chronos_bound").expect("registered");
//! let dir = std::env::temp_dir().join(format!("campaign-doc-{}", std::process::id()));
//! let summary =
//!     run_campaign(&CampaignConfig::in_process(scenario, Scale::quick(), 3, dir.clone()))
//!         .expect("campaign runs");
//! assert_eq!(summary.records, 24);
//! std::fs::remove_dir_all(dir).ok();
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod digest;
pub mod error;
pub mod exec;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod record;
pub mod registry;
pub mod stats;
pub mod summary;
pub mod supervisor;

/// Commonly used types.
pub mod prelude {
    pub use crate::digest::Digest;
    pub use crate::error::CampaignError;
    pub use crate::exec::{run_campaign, CampaignConfig, ExecMode};
    pub use crate::faults::{FaultPlan, FaultSpec};
    pub use crate::metrics::{metrics_path, Estimator, Metrics, ShardMetric};
    pub use crate::record::{Field, FieldKind, HistSpec, Record, Schema, Value};
    pub use crate::registry::{self, Campaign, Scenario};
    pub use crate::stats::{wilson95, Aggregate, RankSketch, StreamHist, Welford};
    pub use crate::summary::Summary;
    pub use crate::supervisor::{run_supervised, SupervisedRun, SupervisorConfig};
}
