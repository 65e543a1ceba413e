//! The live campaign metrics sidecar: `metrics.json`.
//!
//! A supervised run rewrites this file **atomically** (write to a temp
//! file, rename over) once per supervision tick, so an operator — or a
//! dashboard polling the campaign directory — always reads one coherent
//! snapshot: per-shard records on disk, lease states, attempt counts, the
//! tick-based record rate, and incremental estimator snapshots folded
//! from the records as they land.
//!
//! Two snapshot flavours share the schema:
//!
//! * **Live** (`"final": false`): carries the supervision `tick` and the
//!   `records_per_tick` rate. Ticks are wall-paced, so live snapshots are
//!   *advisory* — their volatile fields differ between reruns.
//! * **Final** (`"final": true`): written after the merge by both the
//!   plain executor and the supervisor. It is normalized — no tick, no
//!   rate, no worker count — and built purely from the merged
//!   [`Summary`], so it is **bit-identical** for any worker count and for
//!   in-process vs. subprocess execution. The determinism suite pins
//!   this.

use std::path::{Path, PathBuf};

use crate::error::CampaignError;
use crate::record::JsonStr;
use crate::stats::{Aggregate, FieldAgg};
use crate::summary::Summary;

/// The sidecar's file name inside a campaign directory.
pub const METRICS_FILE: &str = "metrics.json";

/// The `metrics.json` path for a campaign directory.
pub fn metrics_path(dir: &Path) -> PathBuf {
    dir.join(METRICS_FILE)
}

/// One shard's slice of a metrics snapshot.
#[derive(Debug, Clone)]
pub struct ShardMetric {
    /// Shard index.
    pub shard: usize,
    /// Records the plan assigned to this shard.
    pub planned: usize,
    /// Records observed on disk (live) or merged (final).
    pub records: usize,
    /// Worker spawns consumed so far (0 for an unsupervised run).
    pub attempts: usize,
    /// Lease state: `pending`, `running`, `done`, or `quarantined`.
    pub state: &'static str,
}

/// One field's incremental estimator reading: the success rate of a
/// boolean field or the running mean of a numeric one, with the sample
/// count that backs it.
#[derive(Debug, Clone)]
pub struct Estimator {
    /// Schema field name.
    pub field: &'static str,
    /// Which statistic `value` is: `"rate"` or `"mean"`.
    pub stat: &'static str,
    /// The current estimate.
    pub value: f64,
    /// Samples folded in so far.
    pub count: u64,
}

/// Projects an [`Aggregate`] onto its compact estimator snapshot: one
/// `rate` per boolean field, one `mean` per numeric/histogram field
/// (string fields have no scalar estimator). Pure function of the
/// aggregate state, so the final snapshot inherits the merge's
/// determinism.
pub fn estimators_from(agg: &Aggregate) -> Vec<Estimator> {
    agg.schema
        .iter()
        .zip(&agg.fields)
        .filter_map(|(field, (fagg, _nulls))| match fagg {
            FieldAgg::Bool { trues, falses } => {
                let n = trues + falses;
                let rate = if n == 0 { 0.0 } else { *trues as f64 / n as f64 };
                Some(Estimator { field: field.name, stat: "rate", value: rate, count: n })
            }
            FieldAgg::Num(num) => Some(Estimator {
                field: field.name,
                stat: "mean",
                value: num.welford.mean(),
                count: num.welford.count(),
            }),
            FieldAgg::Hist(hist) => Some(Estimator {
                field: field.name,
                stat: "mean",
                value: hist.welford.mean(),
                count: hist.welford.count(),
            }),
            FieldAgg::Str { .. } => None,
        })
        .collect()
}

/// One coherent metrics snapshot — what `metrics.json` holds.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Scenario name.
    pub scenario: &'static str,
    /// Scale label ("quick" / "paper" / "custom").
    pub scale_label: String,
    /// Master seed.
    pub master_seed: u64,
    /// Supervision tick of this snapshot; `None` marks the normalized
    /// final snapshot (which also omits the rate and worker count).
    pub tick: Option<u64>,
    /// Max shards in flight; `None` in the final snapshot (the result
    /// must not depend on it).
    pub workers: Option<usize>,
    /// Whether every shard delivered its planned range (final) or has so
    /// far (live).
    pub complete: bool,
    /// Per-shard progress, in shard order.
    pub per_shard: Vec<ShardMetric>,
    /// Incremental estimator readings (empty until records land).
    pub estimators: Vec<Estimator>,
}

impl Metrics {
    /// The normalized final snapshot for a merged summary: per-shard
    /// records/attempts from the coverage report, no volatile fields.
    pub fn final_snapshot(summary: &Summary) -> Metrics {
        Metrics {
            scenario: summary.scenario,
            scale_label: summary.scale_label.clone(),
            master_seed: summary.master_seed,
            tick: None,
            workers: None,
            complete: summary.complete,
            per_shard: summary
                .coverage
                .iter()
                .map(|c| ShardMetric {
                    shard: c.shard,
                    planned: c.planned,
                    records: c.records,
                    attempts: c.attempts,
                    state: if c.quarantined { "quarantined" } else { "done" },
                })
                .collect(),
            estimators: estimators_from(&summary.aggregate),
        }
    }

    /// Total records across shards.
    pub fn records(&self) -> usize {
        self.per_shard.iter().map(|s| s.records).sum()
    }

    /// Total planned records across shards.
    pub fn planned(&self) -> usize {
        self.per_shard.iter().map(|s| s.planned).sum()
    }

    /// Total worker spawns across shards.
    pub fn attempts(&self) -> usize {
        self.per_shard.iter().map(|s| s.attempts).sum()
    }

    /// Quarantined shard count.
    pub fn quarantined(&self) -> usize {
        self.per_shard.iter().filter(|s| s.state == "quarantined").count()
    }

    /// Records per supervision tick — the live throughput signal. `None`
    /// for the final snapshot (ticks are pacing, never results).
    pub fn records_per_tick(&self) -> Option<f64> {
        self.tick.map(|t| self.records() as f64 / t.max(1) as f64)
    }

    /// Renders the snapshot as JSON (validated well-formed by the test
    /// suite and CI's `jsoncheck`).
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"campaign\": {},\n  \"scale\": {},\n  \"master_seed\": {},\n  \
             \"final\": {},\n  \"tick\": {},\n  \"workers\": {},\n  \"shards\": {},\n  \
             \"records\": {},\n  \"planned\": {},\n  \"attempts\": {},\n  \"quarantined\": {},\n  \
             \"complete\": {},\n  \"records_per_tick\": {},\n  \"per_shard\": [",
            JsonStr(self.scenario),
            JsonStr(&self.scale_label),
            self.master_seed,
            self.tick.is_none(),
            self.tick.map_or("null".into(), |t| t.to_string()),
            self.workers.map_or("null".into(), |w| w.to_string()),
            self.per_shard.len(),
            self.records(),
            self.planned(),
            self.attempts(),
            self.quarantined(),
            self.complete,
            self.records_per_tick().map_or("null".into(), |r| r.to_string()),
        );
        for (i, s) in self.per_shard.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{ \"shard\": {}, \"planned\": {}, \"records\": {}, \"attempts\": {}, \
                 \"state\": \"{}\" }}",
                if i > 0 { "," } else { "" },
                s.shard,
                s.planned,
                s.records,
                s.attempts,
                s.state
            );
        }
        out.push_str("\n  ],\n  \"estimators\": [");
        for (i, e) in self.estimators.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{ \"field\": \"{}\", \"stat\": \"{}\", \"value\": {}, \"count\": {} }}",
                if i > 0 { "," } else { "" },
                e.field,
                e.stat,
                e.value,
                e.count
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the snapshot atomically: the rendered JSON goes to a
    /// sibling temp file which is then renamed over `metrics.json`, so a
    /// concurrent reader sees either the previous snapshot or this one —
    /// never a torn write.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming inside `dir`.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, CampaignError> {
        let path = metrics_path(dir);
        let tmp = dir.join(".metrics.json.tmp");
        std::fs::write(&tmp, self.render_json())
            .map_err(|e| CampaignError::io(format!("write {}", tmp.display()), e))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            CampaignError::io(format!("rename {} over metrics.json", tmp.display()), e)
        })?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        Metrics {
            scenario: "chronos_bound",
            scale_label: "quick".into(),
            master_seed: 2020,
            tick: Some(7),
            workers: Some(3),
            complete: false,
            per_shard: vec![
                ShardMetric { shard: 0, planned: 8, records: 8, attempts: 1, state: "done" },
                ShardMetric { shard: 1, planned: 8, records: 3, attempts: 2, state: "running" },
            ],
            estimators: vec![Estimator { field: "success", stat: "rate", value: 0.5, count: 11 }],
        }
    }

    #[test]
    fn totals_and_rate_fold_over_shards() {
        let m = sample();
        assert_eq!(m.records(), 11);
        assert_eq!(m.planned(), 16);
        assert_eq!(m.attempts(), 3);
        assert_eq!(m.quarantined(), 0);
        assert_eq!(m.records_per_tick(), Some(11.0 / 7.0));
        let final_like = Metrics { tick: None, ..m };
        assert_eq!(final_like.records_per_tick(), None);
    }

    #[test]
    fn rendered_snapshot_is_well_formed_and_atomic() {
        let m = sample();
        let json = m.render_json();
        assert!(json.contains("\"final\": false"));
        assert!(json.contains("\"state\": \"running\""));
        assert!(json.contains("\"stat\": \"rate\""));
        let dir = std::env::temp_dir().join(format!("metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = m.write(&dir).expect("atomic write");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), json);
        assert!(!dir.join(".metrics.json.tmp").exists(), "temp file renamed away");
        std::fs::remove_dir_all(dir).ok();
    }
}
