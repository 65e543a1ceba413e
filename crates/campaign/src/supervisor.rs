//! Self-healing campaign supervision: the lease-based coordinator that
//! keeps a sharded run alive through worker failures.
//!
//! [`run_supervised`] owns a pool of `campaign worker` subprocesses. Each
//! pending shard is **leased** to a worker; the supervisor watches three
//! failure channels:
//!
//! * **exit** — the worker terminated with a nonzero status (crash,
//!   injected `exit=N`, kill signal);
//! * **stream** — the worker's NDJSON stdout carried a schema-invalid
//!   record, or ended with fewer records than the lease expected;
//! * **stall** — the worker's checkpoint file stopped growing for a full
//!   stall timeout (hung trial, deadlock, injected `stall-after=K`).
//!
//! A failed lease is **re-leased from its last good checkpoint**: the
//! checkpoint is recovered first ([`checkpoint::recover`] truncates a
//! torn tail; mid-file corruption quarantines the file and restarts the
//! shard at record 0), so the retried worker resumes at the first missing
//! record and the merged stream stays bit-identical to a fault-free run —
//! trials are pure functions of `(scenario, scale, master seed, global
//! index)`, so *who* computes a record never changes *what* it is.
//!
//! Retries are bounded (`max_retries`) and spaced by deterministic
//! exponential backoff with seeded jitter — see [`backoff_ticks`]. A
//! shard that exhausts its budget is **quarantined**: the run keeps going
//! and degrades into a *partial* summary whose coverage report names the
//! missing shards, their attempt counts, and their final failures
//! ([`summary::merge_with_quarantine`]).
//!
//! ## Observability
//!
//! Each supervised shard gets a fixed-capacity [`obs::FlightRecorder`]
//! ring of supervision events (lease granted, crash/stall/corrupt-stream
//! failures, quarantine, heal), dumped to
//! [`SupervisorConfig::trace_dir`]`/shard-K.trace` at the end of the run.
//! The loop also rewrites a `metrics.json` sidecar ([`crate::metrics`])
//! atomically every poll tick: per-shard records on disk, lease states,
//! attempt counts, the tick-based record rate, and incremental estimator
//! snapshots folded from the checkpoints' appended bytes.
//!
//! ## No wall clock
//!
//! The workspace bans `Instant::now`/`SystemTime::now` (simlint R3) —
//! timing reads are where nondeterminism leaks in.
//! The supervisor therefore measures time in **ticks**: one poll-loop
//! iteration (one `poll_interval_ms` sleep) is one tick, timeouts and
//! backoff are tick counts, and no code path ever reads a clock. Ticks
//! only pace the supervision loop; results never depend on them.

use std::path::Path;

use runner::mix64;

use crate::checkpoint;
use crate::error::CampaignError;
use crate::exec::{self, CampaignConfig};
use crate::faults::FaultPlan;
use crate::metrics::{self, Metrics, ShardMetric};
use crate::record::{decode_line, Schema};
use crate::stats::Aggregate;
use crate::summary::{self, QuarantinedShard, Summary};

/// Capacity of each shard's supervision flight-recorder ring. Supervision
/// stories are short (a handful of lease/failure events per shard), so a
/// small fixed ring retains every event in practice while bounding memory
/// for pathological retry storms.
const SUPERVISION_RING_CAPACITY: usize = 256;

/// Supervision policy: retry budget, stall timeout, backoff schedule,
/// and the (normally empty) fault-injection plan.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries allowed per shard *after* its first lease. A shard may
    /// consume `max_retries + 1` worker spawns before quarantine.
    pub max_retries: usize,
    /// Stall timeout in milliseconds: a lease whose checkpoint makes no
    /// progress for this long is killed and counted failed. Converted to
    /// ticks by rounding up to whole poll intervals.
    pub worker_timeout_ms: u64,
    /// Poll-loop tick length in milliseconds (the supervision clock's
    /// granularity).
    pub poll_interval_ms: u64,
    /// Backoff base, in ticks: retry `a` waits
    /// `min(base << (a-1), cap) + jitter` ticks.
    pub backoff_base_ticks: u64,
    /// Backoff cap, in ticks.
    pub backoff_cap_ticks: u64,
    /// Deterministic fault injections (chaos harness). Empty in
    /// production.
    pub faults: FaultPlan,
    /// Where to dump each shard's supervision flight-recorder ring
    /// (`shard-K.trace`, one per supervised shard) when the run ends —
    /// the post-mortem channel for quarantined shards. `None` disables
    /// dumping (the rings still record).
    pub trace_dir: Option<std::path::PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            worker_timeout_ms: 2000,
            poll_interval_ms: 20,
            backoff_base_ticks: 2,
            backoff_cap_ticks: 16,
            faults: FaultPlan::none(),
            trace_dir: None,
        }
    }
}

impl SupervisorConfig {
    /// The stall timeout in whole ticks (at least 1).
    fn timeout_ticks(&self) -> u64 {
        self.worker_timeout_ms.div_ceil(self.poll_interval_ms.max(1)).max(1)
    }
}

/// The deterministic backoff delay, in ticks, before retry `attempt`
/// (1-based) of `shard`: truncated exponential growth plus seeded jitter.
/// The jitter decorrelates shards that died together (so their retries
/// don't re-stampede a shared bottleneck) while staying a pure function
/// of `(master seed, shard, attempt)` — reruns back off identically.
pub fn backoff_ticks(cfg: &SupervisorConfig, master_seed: u64, shard: usize, attempt: u64) -> u64 {
    let base = cfg.backoff_base_ticks.max(1);
    let exp = base
        .checked_shl(attempt.saturating_sub(1).min(32) as u32)
        .unwrap_or(cfg.backoff_cap_ticks)
        .min(cfg.backoff_cap_ticks);
    let jitter = mix64(master_seed ^ ((shard as u64) << 32) ^ attempt) % (base + 1);
    exp + jitter
}

/// One supervised shard's story: spawns consumed, every failure observed
/// (in order, rendered), and whether it ended quarantined.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Worker spawns consumed (first lease + retries).
    pub attempts: usize,
    /// Each observed failure, oldest first.
    pub failures: Vec<String>,
    /// Whether the retry budget ran out.
    pub quarantined: bool,
}

/// What a supervised run returns: the (possibly partial) merged summary,
/// the per-shard supervision reports, and how many supervision ticks the
/// run took.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The merged summary; `summary.complete == false` iff any shard was
    /// quarantined.
    pub summary: Summary,
    /// One report per shard that needed supervision this run (shards
    /// already complete on disk don't appear).
    pub reports: Vec<ShardReport>,
    /// Supervision ticks elapsed (wall-clock pacing only — never part of
    /// any result).
    pub ticks: u64,
}

/// A live lease: the child, its stdout drain thread, and the progress
/// bookkeeping the stall detector reads.
struct Running {
    child: std::process::Child,
    drain: std::thread::JoinHandle<Result<usize, CampaignError>>,
    expected: usize,
    last_progress_tick: u64,
    last_len: u64,
}

enum Lease {
    /// Waiting to (re)spawn once `at_tick` arrives and a slot frees.
    Ready {
        at_tick: u64,
    },
    Running(Running),
    Done,
    Quarantined,
}

struct ShardState {
    shard: usize,
    range: std::ops::Range<usize>,
    lease: Lease,
    spawns: usize,
    failures: Vec<String>,
}

impl ShardState {
    fn lease_state(&self) -> &'static str {
        match self.lease {
            Lease::Ready { .. } => "pending",
            Lease::Running(_) => "running",
            Lease::Done => "done",
            Lease::Quarantined => "quarantined",
        }
    }
}

/// Maps a lease failure onto its supervision trace-event kind.
fn failure_kind(err: &CampaignError) -> u16 {
    match err {
        CampaignError::WorkerStalled { .. } => obs::kind::WORKER_STALL,
        CampaignError::WorkerStream { .. }
        | CampaignError::Schema { .. }
        | CampaignError::CorruptCheckpoint { .. } => obs::kind::STREAM_CORRUPT,
        _ => obs::kind::WORKER_CRASH,
    }
}

/// Per-shard incremental checkpoint tail reader: consumes only the bytes
/// appended since the last tick, folds every complete record line into
/// the shared live aggregate, and counts records exactly (one `\n` per
/// record). This is what turns the stall detector's byte watch into live
/// estimator snapshots without ever re-reading a checkpoint prefix.
struct TailReader {
    offset: u64,
    carry: Vec<u8>,
    records: usize,
}

impl TailReader {
    fn new() -> TailReader {
        TailReader { offset: 0, carry: Vec::new(), records: 0 }
    }

    /// Reads `path` from the consumed offset to its current end, folding
    /// complete lines into `agg`. Live-path tolerant: I/O failures and
    /// undecodable lines are skipped (recovery and the merge own
    /// correctness; this feed is advisory).
    fn scan(&mut self, path: &Path, schema: &'static Schema, agg: &mut Aggregate) {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let Ok(mut file) = std::fs::File::open(path) else { return };
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        if len < self.offset {
            // The checkpoint shrank under us (torn-tail truncation or a
            // corruption quarantine on re-lease). Already-folded samples
            // can't be rewound, so just resync — the final snapshot is
            // rebuilt from the ordered merge regardless.
            self.offset = len;
            self.carry.clear();
            return;
        }
        if len == self.offset || file.seek(SeekFrom::Start(self.offset)).is_err() {
            return;
        }
        let mut buf = Vec::new();
        if file.read_to_end(&mut buf).is_err() {
            return;
        }
        self.offset += buf.len() as u64;
        self.carry.extend_from_slice(&buf);
        while let Some(pos) = self.carry.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.carry.drain(..=pos).collect();
            self.records += 1;
            if let Ok(body) = std::str::from_utf8(&line[..line.len() - 1]) {
                if let Ok(record) = decode_line(schema, body) {
                    agg.push(&record);
                }
            }
        }
    }
}

/// Runs a campaign under supervision: spawns `campaign worker` children
/// for every unfinished shard, heals failures by re-leasing from the last
/// good checkpoint with bounded, deterministically-jittered backoff, and
/// quarantines shards that exhaust their retries instead of aborting the
/// run. Always subprocess-mode (an in-process thread can neither be
/// killed nor isolated from the coordinator).
///
/// # Errors
///
/// Setup failures (directory, manifest, stale checkpoints) and merge-time
/// I/O or schema failures. Worker failures do **not** surface here — they
/// are healed or quarantined, and quarantine shows up as
/// `summary.complete == false` plus the coverage report.
pub fn run_supervised(
    config: &CampaignConfig,
    exe: &Path,
    sup: &SupervisorConfig,
) -> Result<SupervisedRun, CampaignError> {
    let shards = config.shards.max(1);
    exec::prepare_dir(config, shards)?;
    let total = config.scenario.build(config.scale).trials();
    let (ranges, pending) = exec::plan_and_recover(config, shards, total)?;

    let workers = config.workers.max(1);
    let timeout_ticks = sup.timeout_ticks();
    let max_spawns = sup.max_retries + 1;
    let mut states: Vec<ShardState> = pending
        .into_iter()
        .map(|(k, range, _done)| ShardState {
            shard: k,
            range,
            lease: Lease::Ready { at_tick: 0 },
            spawns: 0,
            failures: Vec::new(),
        })
        .collect();
    // One supervision flight recorder and one checkpoint tail reader per
    // supervised shard, plus the shared live-estimator aggregate the tail
    // readers feed.
    let mut rings: Vec<obs::FlightRecorder> =
        states.iter().map(|_| obs::FlightRecorder::new(SUPERVISION_RING_CAPACITY)).collect();
    let mut tails: Vec<TailReader> = states.iter().map(|_| TailReader::new()).collect();
    let mut live_agg = Aggregate::new(config.scenario.schema);

    let mut now: u64 = 0;
    loop {
        // Lease phase: fill free slots with due shards.
        let mut running = states.iter().filter(|s| matches!(s.lease, Lease::Running(_))).count();
        for (st, ring) in states.iter_mut().zip(rings.iter_mut()) {
            if running >= workers {
                break;
            }
            if !matches!(st.lease, Lease::Ready { at_tick } if at_tick <= now) {
                continue;
            }
            match lease_shard(config, exe, shards, sup, st, now, ring) {
                Ok(true) => running += 1,
                Ok(false) => {} // shard turned out complete on disk
                Err(e) => fail_lease(sup, config.scale.seed, st, now, max_spawns, e, ring),
            }
        }

        // Reap phase: finished drains and stalled leases. Each running
        // lease is taken out of its slot, settled or re-shelved.
        for (st, ring) in states.iter_mut().zip(rings.iter_mut()) {
            match std::mem::replace(&mut st.lease, Lease::Done) {
                Lease::Running(mut r) => {
                    if r.drain.is_finished() {
                        match reap_lease(st.shard, r) {
                            Ok(()) => {
                                if !st.failures.is_empty() {
                                    ring.record(
                                        now,
                                        st.shard as u32,
                                        obs::kind::SHARD_HEALED,
                                        st.spawns as u64,
                                        0,
                                    );
                                }
                                if config.verbose {
                                    obs::console!("shard {}: lease complete", st.shard);
                                }
                            }
                            Err(e) => {
                                fail_lease(sup, config.scale.seed, st, now, max_spawns, e, ring);
                            }
                        }
                        continue;
                    }
                    // Stall watch: checkpoint growth is the progress signal
                    // (workers flush every record).
                    let len = std::fs::metadata(checkpoint::shard_path(&config.dir, st.shard))
                        .map(|m| m.len())
                        .unwrap_or(r.last_len);
                    if len > r.last_len {
                        r.last_len = len;
                        r.last_progress_tick = now;
                        st.lease = Lease::Running(r);
                    } else if now.saturating_sub(r.last_progress_tick) >= timeout_ticks {
                        let stalled_ticks = now.saturating_sub(r.last_progress_tick);
                        let _ = r.child.kill();
                        let _ = r.child.wait();
                        let _ = r.drain.join();
                        let e =
                            CampaignError::WorkerStalled { shard: st.shard, ticks: stalled_ticks };
                        fail_lease(sup, config.scale.seed, st, now, max_spawns, e, ring);
                    } else {
                        st.lease = Lease::Running(r);
                    }
                }
                other => st.lease = other,
            }
        }

        // Metrics phase: fold the checkpoints' appended bytes into the
        // live estimators, then atomically rewrite the metrics sidecar —
        // one coherent snapshot per supervision tick.
        for (st, tail) in states.iter().zip(tails.iter_mut()) {
            tail.scan(
                &checkpoint::shard_path(&config.dir, st.shard),
                config.scenario.schema,
                &mut live_agg,
            );
        }
        let per_shard: Vec<ShardMetric> = states
            .iter()
            .zip(&tails)
            .map(|(st, tail)| ShardMetric {
                shard: st.shard,
                planned: st.range.end - st.range.start,
                records: tail.records,
                attempts: st.spawns,
                state: st.lease_state(),
            })
            .collect();
        let complete = per_shard.iter().all(|s| s.records >= s.planned && s.state != "quarantined");
        Metrics {
            scenario: config.scenario.name,
            scale_label: config.scale_label.clone(),
            master_seed: config.scale.seed,
            tick: Some(now),
            workers: Some(workers),
            complete,
            per_shard,
            estimators: metrics::estimators_from(&live_agg),
        }
        .write(&config.dir)?;

        if states.iter().all(|s| matches!(s.lease, Lease::Done | Lease::Quarantined)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(sup.poll_interval_ms.max(1)));
        now += 1;
    }

    // Quarantined shards may have left a torn tail or corrupt file behind
    // their last failure; recover once more so the merge reads only a
    // clean prefix (or, for a quarantined file, nothing).
    let quarantined: Vec<QuarantinedShard> = states
        .iter()
        .filter(|s| matches!(s.lease, Lease::Quarantined))
        .map(|s| QuarantinedShard {
            shard: s.shard,
            attempts: s.spawns,
            last_error: s.failures.last().cloned().unwrap_or_else(|| "unknown".into()),
        })
        .collect();
    for q in &quarantined {
        checkpoint::recover(&checkpoint::shard_path(&config.dir, q.shard), config.scenario.schema)?;
    }

    // Post-mortem channel: dump every supervised shard's supervision ring
    // (lease grants, failures, quarantines) as `shard-K.trace`. Ticks are
    // wall-paced, so consumers compare the *payload* digest in the header,
    // which is tick-independent.
    if let Some(trace_dir) = &sup.trace_dir {
        std::fs::create_dir_all(trace_dir)
            .map_err(|e| CampaignError::io(format!("create {}", trace_dir.display()), e))?;
        for (st, ring) in states.iter().zip(&rings) {
            let path = trace_dir.join(format!("shard-{}.trace", st.shard));
            std::fs::write(&path, ring.render_text())
                .map_err(|e| CampaignError::io(format!("write {}", path.display()), e))?;
        }
    }

    let summary = summary::merge_with_quarantine(
        config.scenario,
        &config.scale_label,
        config.scale.seed,
        &config.dir,
        &ranges,
        &quarantined,
    )?;
    // Replace the last live snapshot with the normalized final one (pure
    // function of the merged summary — deterministic across reruns).
    Metrics::final_snapshot(&summary).write(&config.dir)?;
    let reports = states
        .iter()
        .map(|s| ShardReport {
            shard: s.shard,
            attempts: s.spawns,
            failures: s.failures.clone(),
            quarantined: matches!(s.lease, Lease::Quarantined),
        })
        .collect();
    Ok(SupervisedRun { summary, reports, ticks: now })
}

/// (Re)leases one shard: recovers its checkpoint (truncating torn tails,
/// quarantining corruption), then spawns a worker resuming at the first
/// missing record — with this attempt's injected fault, if the chaos plan
/// has one. Returns `Ok(false)` if recovery shows the shard already
/// complete (a worker died *after* its last record).
fn lease_shard(
    config: &CampaignConfig,
    exe: &Path,
    shards: usize,
    sup: &SupervisorConfig,
    st: &mut ShardState,
    now: u64,
    ring: &mut obs::FlightRecorder,
) -> Result<bool, CampaignError> {
    let planned = st.range.end - st.range.start;
    let path = checkpoint::shard_path(&config.dir, st.shard);
    let recovery = checkpoint::recover(&path, config.scenario.schema)?;
    let done = recovery.records();
    if done > planned {
        return Err(CampaignError::StaleCheckpoint { shard: st.shard, have: done, planned });
    }
    if done == planned {
        st.lease = Lease::Done;
        return Ok(false);
    }
    let attempt = st.spawns; // 0-based attempt index for the fault plan
    let fault = sup.faults.fault_for(st.shard, attempt);
    let mut child = exec::spawn_worker(config, exe, st.shard, shards, done, fault)?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(CampaignError::WorkerSpawn {
            shard: st.shard,
            detail: "no stdout pipe".into(),
        });
    };
    let expected = planned - done;
    let (k, verbose, schema) = (st.shard, config.verbose, config.scenario.schema);
    let drain =
        std::thread::spawn(move || exec::drain_stream(stdout, k, expected, verbose, Some(schema)));
    let last_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    st.spawns += 1;
    ring.record(now, st.shard as u32, obs::kind::LEASE_GRANTED, st.spawns as u64, done as u64);
    if verbose {
        obs::console!(
            "shard {}: leased (attempt {}, resuming at {done}/{planned}{})",
            st.shard,
            st.spawns,
            match fault {
                Some(f) => format!(", injecting {}", f.render()),
                None => String::new(),
            }
        );
    }
    st.lease =
        Lease::Running(Running { child, drain, expected, last_progress_tick: now, last_len });
    Ok(true)
}

/// Settles a lease whose drain thread ended: classifies the outcome as
/// success, a corrupt stream, a short stream, or a worker exit failure.
/// On a stream failure the child is killed first — a worker that keeps
/// appending to a checkpoint the retry will also write would interleave
/// two record streams.
fn reap_lease(shard: usize, r: Running) -> Result<(), CampaignError> {
    let Running { mut child, drain, expected, .. } = r;
    match drain.join() {
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(CampaignError::Internal(format!("shard {shard}: drain thread panicked")))
        }
        Ok(Err(stream_err)) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(stream_err)
        }
        Ok(Ok(streamed)) => {
            let status = child
                .wait()
                .map_err(|e| CampaignError::io(format!("wait for shard {shard} worker"), e))?;
            if !status.success() {
                Err(CampaignError::WorkerExit { shard, status: status.to_string() })
            } else if streamed != expected {
                Err(CampaignError::WorkerStream {
                    shard,
                    detail: format!("streamed {streamed} records, expected {expected}"),
                })
            } else {
                Ok(())
            }
        }
    }
}

/// Books a lease failure: records it, then either schedules the retry
/// (deterministic backoff from the master seed) or quarantines the shard
/// once its spawn budget (`max_retries + 1`) is spent.
fn fail_lease(
    sup: &SupervisorConfig,
    master_seed: u64,
    st: &mut ShardState,
    now: u64,
    max_spawns: usize,
    err: CampaignError,
    ring: &mut obs::FlightRecorder,
) {
    ring.record(now, st.shard as u32, failure_kind(&err), st.spawns as u64, 0);
    st.failures.push(err.to_string());
    if st.spawns >= max_spawns {
        ring.record(now, st.shard as u32, obs::kind::SHARD_QUARANTINED, st.spawns as u64, 0);
        st.lease = Lease::Quarantined;
    } else {
        let attempt = st.spawns.max(1) as u64; // 1-based retry number
        let delay = backoff_ticks(sup, master_seed, st.shard, attempt);
        st.lease = Lease::Ready { at_tick: now + delay };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let cfg = SupervisorConfig::default();
        // Strip jitter by comparing lower bounds: exp component doubles.
        let exp = |attempt: u64| {
            cfg.backoff_base_ticks
                .checked_shl(attempt.saturating_sub(1).min(32) as u32)
                .unwrap_or(cfg.backoff_cap_ticks)
                .min(cfg.backoff_cap_ticks)
        };
        assert_eq!(exp(1), 2);
        assert_eq!(exp(2), 4);
        assert_eq!(exp(3), 8);
        assert_eq!(exp(4), 16);
        assert_eq!(exp(5), 16, "capped");
        assert_eq!(exp(60), 16, "huge attempts stay capped, no shift overflow");
        for attempt in 1..6 {
            let t = backoff_ticks(&cfg, 2020, 3, attempt);
            assert!(t >= exp(attempt) && t <= exp(attempt) + cfg.backoff_base_ticks);
        }
    }

    #[test]
    fn backoff_is_deterministic_and_shard_decorrelated() {
        let cfg = SupervisorConfig::default();
        assert_eq!(backoff_ticks(&cfg, 2020, 1, 1), backoff_ticks(&cfg, 2020, 1, 1));
        // Jitter varies across shards/attempts for at least some inputs.
        let spread: std::collections::BTreeSet<u64> =
            (0..16).map(|shard| backoff_ticks(&cfg, 2020, shard, 1)).collect();
        assert!(spread.len() > 1, "jitter should separate shard retries");
    }

    #[test]
    fn timeout_rounds_up_to_whole_ticks() {
        let cfg = SupervisorConfig {
            worker_timeout_ms: 50,
            poll_interval_ms: 20,
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.timeout_ticks(), 3);
        let zero = SupervisorConfig {
            worker_timeout_ms: 0,
            poll_interval_ms: 20,
            ..SupervisorConfig::default()
        };
        assert_eq!(zero.timeout_ticks(), 1, "a zero timeout still waits one tick");
    }
}
