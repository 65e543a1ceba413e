//! Self-healing campaign supervision: the lease-based coordinator that
//! keeps a sharded run alive through worker failures.
//!
//! [`run_supervised`] owns a pool of `campaign worker` subprocesses on
//! this host. Each pending shard is **leased** to a worker. A worker's
//! only output is its shard checkpoint: every poll tick the supervisor
//! reads the exit status, then the bytes the worker appended since the
//! last tick, and watches three failure channels:
//!
//! * **exit** — the worker terminated with a nonzero status (crash,
//!   injected `exit=N`, kill signal);
//! * **stream** — the checkpoint tail held a schema-invalid record, or
//!   the worker exited cleanly with fewer records than the lease planned;
//! * **stall** — the checkpoint tail stopped growing for a full stall
//!   timeout (hung trial, deadlock, injected `stall-after=K`).
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
//! atomically every poll tick, best-effort: per-shard records on disk,
//! lease states, attempt counts, and incremental estimator snapshots
//! folded from the checkpoints' appended bytes.
//!
//! ## No wall clock
//!
//! The workspace bans `Instant::now`/`SystemTime::now` (clippy's
//! `disallowed-methods`) — timing reads are where nondeterminism leaks
//! in.
//! The supervisor therefore measures time in **ticks**: one poll-loop
//! iteration (one `poll_interval_ms` sleep) is one tick, timeouts and
//! backoff are tick counts, and no code path ever reads a clock. Ticks
//! only pace the supervision loop; results never depend on them.

use std::ops::Range;
use std::path::Path;
use std::process::{Command, Stdio};

use runner::mix64;

use crate::checkpoint;
use crate::error::CampaignError;
use crate::exec::{self, CampaignConfig};
use crate::faults::{FaultPlan, FaultSpec};
use crate::metrics::{self, Metrics, ShardMetric};
use crate::record::{decode_line, Schema};
use crate::stats::Aggregate;
use crate::summary::{self, Summary};

/// Capacity of each shard's supervision flight-recorder ring. Supervision
/// stories are short (a handful of lease/failure events per shard), so a
/// small fixed ring retains every event in practice while bounding memory
/// for pathological retry storms.
const SUPERVISION_RING_CAPACITY: usize = 256;

/// Retry `a` waits `min(BACKOFF_BASE_TICKS << (a-1), BACKOFF_CAP_TICKS)`
/// ticks plus a jitter of at most `BACKOFF_BASE_TICKS`.
const BACKOFF_BASE_TICKS: u64 = 2;
/// The cap on the exponential part of a retry's backoff, in ticks.
const BACKOFF_CAP_TICKS: u64 = 16;

/// Supervision policy: retry budget, stall timeout, poll tick, and the
/// (normally empty) fault-injection plan.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries allowed per shard *after* its first lease. A shard may
    /// fail `max_retries + 1` leases before quarantine.
    pub max_retries: usize,
    /// Stall timeout in milliseconds: a lease whose checkpoint makes no
    /// progress for this long is killed and counted failed. Converted to
    /// ticks by rounding up to whole poll intervals.
    pub worker_timeout_ms: u64,
    /// Poll-loop tick length in milliseconds (the supervision clock's
    /// granularity).
    pub poll_interval_ms: u64,
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
pub fn backoff_ticks(master_seed: u64, shard: usize, attempt: u64) -> u64 {
    let exp = BACKOFF_BASE_TICKS
        .checked_shl(attempt.saturating_sub(1).min(32) as u32)
        .unwrap_or(BACKOFF_CAP_TICKS)
        .min(BACKOFF_CAP_TICKS);
    let jitter = mix64(master_seed ^ ((shard as u64) << 32) ^ attempt) % (BACKOFF_BASE_TICKS + 1);
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

/// What a supervised run returns: the (possibly partial) merged summary
/// and the per-shard supervision reports.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The merged summary; `summary.complete == false` iff any shard was
    /// quarantined.
    pub summary: Summary,
    /// One report per shard that needed supervision this run (shards
    /// already complete on disk don't appear).
    pub reports: Vec<ShardReport>,
}

/// A live lease: the child and the tick its checkpoint tail last grew.
struct Running {
    child: std::process::Child,
    last_progress_tick: u64,
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
    range: Range<usize>,
    lease: Lease,
    spawns: usize,
    failures: Vec<String>,
    /// Supervision flight recorder: leases, failures, quarantine, heal.
    ring: obs::FlightRecorder,
    /// The shard's checkpoint tail, the supervisor's one view of its
    /// worker.
    tail: TailReader,
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

    /// One tick of a running lease. Returns `None` while it stays
    /// healthy, else its outcome with the worker killed and reaped — a
    /// worker that kept appending to a checkpoint the retry also writes
    /// would interleave two record streams. The exit status is read
    /// before the tail, so an exited worker's last records are in the
    /// scan that settles it; a corrupt record outranks the exit status.
    fn watch(
        &mut self,
        config: &CampaignConfig,
        now: u64,
        timeout_ticks: u64,
        agg: &mut Aggregate,
    ) -> Option<Result<(), CampaignError>> {
        let Lease::Running(r) = &mut self.lease else { return None };
        let shard = self.shard;
        let exited = r.child.try_wait();
        let offset = self.tail.offset;
        let path = checkpoint::shard_path(&config.dir, shard);
        let corrupt = self.tail.scan(&path, config.scenario.schema, agg);
        let (records, planned) = (self.tail.records, self.range.len());
        let stalled = now.saturating_sub(r.last_progress_tick);
        let outcome = match (corrupt, exited) {
            (Some(line), _) => Err(CampaignError::WorkerStream {
                shard,
                detail: format!("corrupt record at checkpoint line {line}"),
            }),
            (None, Err(e)) => Err(CampaignError::io(format!("wait for shard {shard} worker"), e)),
            (None, Ok(Some(status))) if !status.success() => {
                Err(CampaignError::WorkerExit { shard, status: status.to_string() })
            }
            (None, Ok(Some(_))) if records != planned => Err(CampaignError::WorkerStream {
                shard,
                detail: format!("short checkpoint: {records} records at exit, planned {planned}"),
            }),
            (None, Ok(Some(_))) => Ok(()),
            (None, Ok(None)) if self.tail.offset > offset => {
                r.last_progress_tick = now;
                return None;
            }
            (None, Ok(None)) if stalled < timeout_ticks => return None,
            (None, Ok(None)) => Err(CampaignError::WorkerStalled { shard, ticks: stalled }),
        };
        let _ = r.child.kill();
        let _ = r.child.wait();
        Some(outcome)
    }
}

/// Maps a lease failure onto its supervision trace-event kind.
fn failure_kind(err: &CampaignError) -> u16 {
    match err {
        CampaignError::WorkerStalled { .. } => obs::kind::WORKER_STALL,
        CampaignError::WorkerStream { .. } | CampaignError::Schema { .. } => {
            obs::kind::STREAM_CORRUPT
        }
        _ => obs::kind::WORKER_CRASH,
    }
}

/// Per-shard incremental checkpoint tail reader: consumes only the bytes
/// appended since the last tick, folds every complete record line into
/// the shared live aggregate, and counts the lines that decode — so a
/// garbage line never counts as a record. It gives the supervisor its
/// progress signal (the stall watch), the corrupt-record detector, the
/// record count a clean exit is checked against, and the live estimator
/// snapshots, without re-reading a checkpoint prefix on the success path.
#[derive(Default)]
struct TailReader {
    offset: u64,
    carry: Vec<u8>,
    records: usize,
}

impl TailReader {
    /// Restarts the reader at the end of a just-recovered checkpoint of
    /// `len` bytes holding `records` records. Samples already folded into
    /// the live aggregate stay folded — the live estimators are advisory,
    /// and the final snapshot is rebuilt from the ordered merge.
    fn rewind(&mut self, len: u64, records: usize) {
        *self = TailReader { offset: len, carry: Vec::new(), records };
    }

    /// Reads `path` from the consumed offset to its current end, folding
    /// complete record lines into `agg`, and returns the 1-based line
    /// number of the first complete line that does not decode. A file
    /// that cannot be read counts as no new bytes.
    fn scan(&mut self, path: &Path, schema: &'static Schema, agg: &mut Aggregate) -> Option<usize> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut buf = Vec::new();
        let read = std::fs::File::open(path).and_then(|mut file| {
            file.seek(SeekFrom::Start(self.offset))?;
            file.read_to_end(&mut buf)
        });
        if read.is_err() {
            return None;
        }
        self.offset += buf.len() as u64;
        self.carry.extend_from_slice(&buf);
        let (mut start, mut corrupt) = (0, None);
        while let Some(len) = self.carry[start..].iter().position(|&b| b == b'\n') {
            let body = &self.carry[start..start + len];
            start += len + 1;
            match std::str::from_utf8(body).ok().and_then(|body| decode_line(schema, body).ok()) {
                Some(record) => {
                    self.records += 1;
                    agg.push(&record);
                }
                None => {
                    corrupt.get_or_insert(self.records + 1);
                }
            }
        }
        self.carry.drain(..start);
        corrupt
    }
}

/// Runs a campaign under supervision: spawns `campaign worker` children
/// for every unfinished shard, heals failures by re-leasing from the last
/// good checkpoint with bounded, deterministically-jittered backoff, and
/// quarantines shards that exhaust their retries instead of aborting the
/// run. Always subprocess-mode (an in-process thread can neither be
/// killed nor isolated from the coordinator). This is also the engine of
/// [`exec::run_campaign`]'s subprocess mode, which runs it with
/// `max_retries: 0` and the stall watch off.
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
    let max_leases = sup.max_retries + 1;
    // The shared live-estimator aggregate the tail readers feed, seeded
    // with every recovered checkpoint prefix.
    let mut live_agg = Aggregate::new(config.scenario.schema);
    let mut states: Vec<ShardState> = pending
        .into_iter()
        .map(|(shard, range, _done)| {
            let mut tail = TailReader::default();
            let path = checkpoint::shard_path(&config.dir, shard);
            tail.scan(&path, config.scenario.schema, &mut live_agg);
            ShardState {
                shard,
                range,
                lease: Lease::Ready { at_tick: 0 },
                spawns: 0,
                failures: Vec::new(),
                ring: obs::FlightRecorder::new(SUPERVISION_RING_CAPACITY),
                tail,
            }
        })
        .collect();

    let mut now: u64 = 0;
    loop {
        // Lease phase: fill free slots with due shards.
        let mut running = states.iter().filter(|s| matches!(s.lease, Lease::Running(_))).count();
        for st in &mut states {
            if running >= workers {
                break;
            }
            if !matches!(st.lease, Lease::Ready { at_tick } if at_tick <= now) {
                continue;
            }
            match lease_shard(config, exe, shards, sup, st, now) {
                Ok(true) => running += 1,
                Ok(false) => {} // shard turned out complete on disk
                Err(e) => fail_lease(config.scale.seed, st, now, max_leases, e),
            }
        }

        // Watch phase: every running lease reads its checkpoint tail and
        // is settled, failed, or left running.
        for st in &mut states {
            match st.watch(config, now, timeout_ticks, &mut live_agg) {
                None => {}
                Some(Ok(())) => {
                    if !st.failures.is_empty() {
                        let spawns = st.spawns as u64;
                        st.ring.record(now, st.shard as u32, obs::kind::SHARD_HEALED, spawns, 0);
                    }
                    if config.verbose {
                        obs::console!("shard {}: lease complete", st.shard);
                    }
                    st.lease = Lease::Done;
                }
                Some(Err(e)) => fail_lease(config.scale.seed, st, now, max_leases, e),
            }
        }

        // Metrics phase: one coherent snapshot per supervision tick. The
        // live sidecar is advisory, so a failed write never stops
        // supervision (the final snapshot below is checked).
        let per_shard: Vec<ShardMetric> = states
            .iter()
            .map(|st| ShardMetric {
                shard: st.shard,
                planned: st.range.len(),
                records: st.tail.records,
                attempts: st.spawns,
                state: st.lease_state(),
            })
            .collect();
        let complete = per_shard.iter().all(|s| s.records >= s.planned && s.state != "quarantined");
        let _ = Metrics {
            scenario: config.scenario.name,
            scale_label: config.scale_label.clone(),
            master_seed: config.scale.seed,
            tick: Some(now),
            workers: Some(workers),
            complete,
            per_shard,
            estimators: metrics::estimators_from(&live_agg),
        }
        .write(&config.dir);

        if states.iter().all(|s| matches!(s.lease, Lease::Done | Lease::Quarantined)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(sup.poll_interval_ms.max(1)));
        now += 1;
    }

    let reports: Vec<ShardReport> = states
        .iter()
        .map(|s| ShardReport {
            shard: s.shard,
            attempts: s.spawns,
            failures: s.failures.clone(),
            quarantined: matches!(s.lease, Lease::Quarantined),
        })
        .collect();
    // Quarantined shards may have left a torn tail or corrupt file behind
    // their last failure; recover once more so the merge reads only a
    // clean prefix (or, for a quarantined file, nothing).
    for r in reports.iter().filter(|r| r.quarantined) {
        checkpoint::recover(&checkpoint::shard_path(&config.dir, r.shard), config.scenario.schema)?;
    }

    // Post-mortem channel: dump every supervised shard's supervision ring
    // (lease grants, failures, quarantines) as `shard-K.trace`. Ticks are
    // wall-paced, so consumers compare the *payload* digest in the header,
    // which is tick-independent.
    if let Some(trace_dir) = &sup.trace_dir {
        std::fs::create_dir_all(trace_dir)
            .map_err(|e| CampaignError::io(format!("create {}", trace_dir.display()), e))?;
        for st in &states {
            let path = trace_dir.join(format!("shard-{}.trace", st.shard));
            std::fs::write(&path, st.ring.render_text())
                .map_err(|e| CampaignError::io(format!("write {}", path.display()), e))?;
        }
    }

    let summary = summary::merge_with_quarantine(
        config.scenario,
        &config.scale_label,
        config.scale.seed,
        &config.dir,
        &ranges,
        &reports,
    )?;
    // Replace the last live snapshot with the normalized final one (pure
    // function of the merged summary — deterministic across reruns).
    Metrics::final_snapshot(&summary).write(&config.dir)?;
    Ok(SupervisedRun { summary, reports })
}

/// (Re)leases one shard: recovers its checkpoint (truncating torn tails,
/// quarantining corruption), restarts the tail reader at what is left,
/// then spawns a worker resuming at the first missing record — with this
/// attempt's injected fault, if the chaos plan has one. Returns
/// `Ok(false)` if recovery shows the shard already complete (a worker
/// died *after* its last record).
fn lease_shard(
    config: &CampaignConfig,
    exe: &Path,
    shards: usize,
    sup: &SupervisorConfig,
    st: &mut ShardState,
    now: u64,
) -> Result<bool, CampaignError> {
    let planned = st.range.len();
    let path = checkpoint::shard_path(&config.dir, st.shard);
    let done = checkpoint::recover(&path, config.scenario.schema)?.records();
    if done > planned {
        return Err(CampaignError::StaleCheckpoint { shard: st.shard, have: done, planned });
    }
    // Rewind before the worker starts: it may write past the old offset
    // within one tick, and the tail must not resume mid-line.
    st.tail.rewind(std::fs::metadata(&path).map_or(0, |m| m.len()), done);
    if done == planned {
        st.lease = Lease::Done;
        return Ok(false);
    }
    let attempt = st.spawns; // 0-based attempt index for the fault plan
    let fault = sup.faults.fault_for(st.shard, attempt);
    let child = spawn_worker(config, exe, st.shard, shards, done, fault)?;
    st.spawns += 1;
    st.ring.record(now, st.shard as u32, obs::kind::LEASE_GRANTED, st.spawns as u64, done as u64);
    if config.verbose {
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
    st.lease = Lease::Running(Running { child, last_progress_tick: now });
    Ok(true)
}

/// Spawns one `campaign worker` child for shard `k`, optionally carrying
/// a `--fault` injection flag (the supervisor's chaos harness).
fn spawn_worker(
    config: &CampaignConfig,
    exe: &Path,
    k: usize,
    shards: usize,
    skip: usize,
    fault: Option<FaultSpec>,
) -> Result<std::process::Child, CampaignError> {
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg("--scenario")
        .arg(config.scenario.name)
        .arg("--shard")
        .arg(format!("{k}/{shards}"))
        .arg("--skip")
        .arg(skip.to_string())
        .arg("--checkpoint")
        .arg(checkpoint::shard_path(&config.dir, k))
        .arg("--scale-spec")
        .arg(exec::scale_spec(&config.scale));
    if let Some(fault) = fault {
        cmd.arg("--fault").arg(fault.render());
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| CampaignError::WorkerSpawn { shard: k, detail: e.to_string() })
}

/// Books a lease failure: records it, then either schedules the retry
/// (deterministic backoff from the master seed) or quarantines the shard
/// once its lease budget (`max_retries + 1`) is spent. The budget counts
/// failed leases, not spawns: a lease that fails before its worker
/// starts (spawn error, checkpoint recovery error, stale checkpoint)
/// uses it up too, or an unspawnable shard would be retried forever.
fn fail_lease(
    master_seed: u64,
    st: &mut ShardState,
    now: u64,
    max_leases: usize,
    err: CampaignError,
) {
    st.ring.record(now, st.shard as u32, failure_kind(&err), st.spawns as u64, 0);
    st.failures.push(err.to_string());
    if st.failures.len() >= max_leases {
        st.ring.record(now, st.shard as u32, obs::kind::SHARD_QUARANTINED, st.spawns as u64, 0);
        st.lease = Lease::Quarantined;
    } else {
        let attempt = st.failures.len() as u64; // 1-based retry number
        let delay = backoff_ticks(master_seed, st.shard, attempt);
        st.lease = Lease::Ready { at_tick: now + delay };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        // Strip jitter by comparing lower bounds: exp component doubles.
        let exp = |attempt: u64| {
            BACKOFF_BASE_TICKS
                .checked_shl(attempt.saturating_sub(1).min(32) as u32)
                .unwrap_or(BACKOFF_CAP_TICKS)
                .min(BACKOFF_CAP_TICKS)
        };
        assert_eq!(exp(1), 2);
        assert_eq!(exp(2), 4);
        assert_eq!(exp(3), 8);
        assert_eq!(exp(4), 16);
        assert_eq!(exp(5), 16, "capped");
        assert_eq!(exp(60), 16, "huge attempts stay capped, no shift overflow");
        for attempt in 1..6 {
            let t = backoff_ticks(2020, 3, attempt);
            assert!(t >= exp(attempt) && t <= exp(attempt) + BACKOFF_BASE_TICKS);
        }
    }

    #[test]
    fn backoff_is_deterministic_and_shard_decorrelated() {
        assert_eq!(backoff_ticks(2020, 1, 1), backoff_ticks(2020, 1, 1));
        // Jitter varies across shards/attempts for at least some inputs.
        let spread: std::collections::BTreeSet<u64> =
            (0..16).map(|shard| backoff_ticks(2020, shard, 1)).collect();
        assert!(spread.len() > 1, "jitter should separate shard retries");
    }

    #[test]
    fn tail_reader_counts_only_decoded_lines_and_resumes_after_a_rewind() {
        use crate::record::{Field, FieldKind};
        const SCHEMA: &Schema = &[Field { name: "n", kind: FieldKind::U64 }];
        let dir = std::env::temp_dir().join(format!("tail-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shard-0.ndjson");
        let lines = |ns: std::ops::RangeInclusive<u64>| -> String {
            ns.map(|n| format!("{{\"n\":{n}}}\n")).collect()
        };
        let (mut tail, mut agg) = (TailReader::default(), Aggregate::new(SCHEMA));

        let garbage = crate::faults::GARBAGE_LINE;
        std::fs::write(&path, format!("{}{garbage}\n", lines(1..=3))).expect("write");
        assert_eq!(tail.scan(&path, SCHEMA, &mut agg), Some(4), "reports the garbage line");
        assert_eq!(tail.records, 3, "the garbage line is not a record");

        // What recovery leaves: the clean two-record prefix.
        std::fs::write(&path, lines(1..=2)).expect("truncate");
        tail.rewind(lines(1..=2).len() as u64, 2);

        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(lines(3..=3).as_bytes()).expect("append");
        assert_eq!(tail.scan(&path, SCHEMA, &mut agg), None);
        assert_eq!(tail.records, 3);
        assert_eq!(agg.records, 4, "the prefix is not folded twice");
        std::fs::remove_dir_all(dir).ok();
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
