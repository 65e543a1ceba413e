//! The `attack` workload and the phase replay behind the core, netsim,
//! dns and attack layer metrics.
//!
//! A pass is Table I's seven boot-time trials followed by Table II's four
//! run-time trials, called through the campaign registry exactly as
//! `campaign run table1|table2` calls them. Pass `p` uses master seed
//! `seed + p`. Every pass's trials sit in one `TrialRunner` queue, so the
//! two workers pull the next trial as soon as their last one finishes.
//! The queue interleaves passes in groups of one per worker — slot 0 of
//! both passes, then slot 1 of both, and so on — so the workers run the
//! same trial kind side by side and the trials that contend for the
//! shared caches are the same in every run. Groups are admitted whole
//! until the time budget is spent, which keeps the trial mix, and so the
//! latency percentiles, the same in every run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use campaign::digest::Digest;
use campaign::record::{decode_line, encode_line, Record, Value};
use campaign::registry::{self, Campaign};
use runner::TrialRunner;
use timeshift::experiments::{self, Scale};
use timeshift::prelude::*;

use crate::alloc;
use crate::trace::{self, Span, Tracer};

/// Trials per pass: Table I's clients, then Table II's cases.
pub const PASS: usize = 11;
/// Table I trials at the head of each pass.
pub const TABLE1_TRIALS: usize = 7;
/// Upper bound on passes queued (a pass is ≥ 0.1 s of CPU today).
const MAX_PASSES: usize = 2000;

/// One finished trial.
#[derive(Debug)]
pub struct TrialOut {
    /// Pass (offset from the run seed).
    pub pass: usize,
    /// Position within the pass (0..7 Table I, 7..11 Table II).
    pub slot: usize,
    /// Start of the trial, [`trace::now_ns`] clock.
    pub start: u64,
    /// End of the trial.
    pub end: u64,
    /// The record, or `None` if the trial panicked.
    pub record: Option<Record>,
}

/// What one timed run of the workload produced.
#[derive(Debug)]
pub struct Run {
    /// Trials in queue order.
    pub trials: Vec<TrialOut>,
    /// From the first trial's start to the last trial's end.
    pub wall_ns: u64,
    /// Set-up time of this run (registry build and worker spawn).
    pub setup_ns: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

fn scenarios() -> (&'static registry::Scenario, &'static registry::Scenario) {
    let find = |name| registry::find(name).expect("scenario is registered");
    (find("table1"), find("table2"))
}

/// The record schema for pass slot `slot`.
pub fn schema(slot: usize) -> &'static campaign::record::Schema {
    let (t1, t2) = scenarios();
    if slot < TABLE1_TRIALS {
        t1.schema
    } else {
        t2.schema
    }
}

type Built = (Box<dyn Campaign>, Box<dyn Campaign>);

fn build(seed: u64) -> Built {
    let (t1, t2) = scenarios();
    let scale = Scale { seed, workers: crate::WORKERS, ..Scale::quick() };
    (t1.build(scale), t2.build(scale))
}

fn trial(built: &Built, slot: usize) -> Record {
    if slot < TABLE1_TRIALS {
        built.0.run_trial(slot)
    } else {
        built.1.run_trial(slot - TABLE1_TRIALS)
    }
}

/// Admission of whole pass groups: a group runs iff its first dequeued
/// trial came before the deadline and every earlier group ran.
struct Gate {
    deadline: u64,
    state: Mutex<(usize, bool)>,
}

impl Gate {
    fn admit(&self, group: usize) -> bool {
        let mut s = self.state.lock().expect("gate lock is never poisoned");
        let (admitted, closed) = &mut *s;
        if group < *admitted {
            return true;
        }
        if *closed || trace::now_ns() >= self.deadline {
            *closed = true;
            return false;
        }
        *admitted = group + 1;
        true
    }
}

/// Runs the workload for about `seconds` (whole pass groups). With `trials`
/// false only the set-up runs: workers start and return at once, which is
/// how the extra set-up samples are taken.
pub fn run(seed: u64, seconds: f64, traced: bool, trials: bool) -> Run {
    // The benchmark's own bookkeeping is allocated before the clock
    // starts: set-up covers only the registry build and the worker spawn.
    let (passes, jobs) = if trials { (MAX_PASSES, MAX_PASSES * PASS) } else { (1, crate::WORKERS) };
    let passes: Vec<OnceLock<Built>> = (0..passes).map(|_| OnceLock::new()).collect();
    let jobs: Vec<usize> = (0..jobs).collect();
    let first_start = AtomicU64::new(u64::MAX);
    let gate = OnceLock::new();
    let spans = Mutex::new(Vec::new());
    let t0 = trace::now_ns();
    passes[0].get_or_init(|| build(seed));

    let results = TrialRunner::new(crate::WORKERS).run(&jobs, |_, &job| {
        let now = trace::now_ns();
        first_start.fetch_min(now, Ordering::Relaxed);
        if !trials {
            return None;
        }
        let gate = gate.get_or_init(|| Gate {
            deadline: now + (seconds * 1e9) as u64,
            state: Mutex::new((0, false)),
        });
        let group = job / (PASS * crate::WORKERS);
        let (slot, member) = (job % (PASS * crate::WORKERS) / crate::WORKERS, job % crate::WORKERS);
        if !gate.admit(group) {
            return None;
        }
        let pass = group * crate::WORKERS + member;
        let built = passes[pass].get_or_init(|| build(seed.wrapping_add(pass as u64)));
        let mut tracer = Tracer::new(traced);
        let envelope = tracer.open();
        let start = trace::now_ns();
        let record = catch_unwind(AssertUnwindSafe(|| trial(built, slot))).ok();
        let end = trace::now_ns();
        tracer.close(envelope, 0, trace::TRIAL, "run_trial");
        if traced {
            spans.lock().expect("never poisoned").extend(tracer.spans);
        }
        Some(TrialOut { pass, slot, start, end, record })
    });
    let first = first_start.into_inner();
    let trials: Vec<TrialOut> = results.into_iter().flatten().collect();
    let last_end = trials.iter().map(|t| t.end).max().unwrap_or(first);
    let mut tracer = Tracer::new(traced);
    tracer.spans = spans.into_inner().expect("never poisoned");
    tracer.record("campaign", "setup", t0, first);
    Run {
        trials,
        wall_ns: last_end.saturating_sub(first),
        setup_ns: first - t0,
        spans: tracer.spans,
    }
}

/// Digest of one pass's records, in slot order (pinned for the default
/// seed).
pub fn digest(records: &[Record]) -> String {
    let mut d = Digest::new();
    for (slot, r) in records.iter().enumerate() {
        d.update_line(&encode_line(schema(slot), r));
    }
    d.hex()
}

/// Trials that produced no valid record: panics and records that do not
/// round-trip through the record codec under their schema.
pub fn failures(trials: &[TrialOut]) -> usize {
    trials
        .iter()
        .filter(|t| match &t.record {
            None => true,
            Some(r) => {
                let schema = schema(t.slot);
                decode_line(schema, &encode_line(schema, r)).ok().as_ref() != Some(r)
            }
        })
        .count()
}

/// One attack trial replayed phase by phase through the public
/// `Scenario` API, with the counters each layer exposes.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Pass slot replayed.
    pub slot: usize,
    /// `Scenario::build` plus attacker/victim launch, ns.
    pub build_ns: f64,
    /// Boot-time: poisoning phase; run-time: convergence phase (ns).
    pub phase1_ns: f64,
    /// Boot-time: victim phase; run-time: attack phase (ns).
    pub phase2_ns: f64,
    /// Allocations over the whole replay.
    pub allocs: u64,
    /// Events dispatched.
    pub events: u64,
    /// Datagrams delivered.
    pub datagrams: u64,
    /// Drops of every reason.
    pub drops: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Event-queue high-water mark.
    pub peak_queue: u64,
    /// Queries the authoritative servers answered.
    pub auth_queries: u64,
    /// Resolver upstream queries.
    pub resolver_upstream: u64,
    /// Client queries the resolver received.
    pub resolver_client: u64,
    /// Resolver cache hits.
    pub resolver_hits: u64,
    /// Attacker probe queries.
    pub probes: u64,
    /// Spoofed fragments planted.
    pub planted: u64,
    /// NTP packets decoded by servers plus client polls.
    pub ntp_ops: u64,
    /// Outcome, for the guard against the registry record.
    pub success: bool,
    /// Final clock offset.
    pub shift: f64,
    /// Packets put on the wire.
    pub packets: u64,
}

impl Replay {
    /// Wall time of the replayed trial.
    pub fn wall_ns(&self) -> f64 {
        self.build_ns + self.phase1_ns + self.phase2_ns
    }

    /// Whether this replay tells the same story as `record`: success,
    /// observed shift and (Table II) packets sent.
    pub fn matches(&self, record: &Record) -> bool {
        let v = &record.0;
        if self.slot < TABLE1_TRIALS {
            v[2] == Value::Bool(self.success) && v[4] == Value::F64(self.shift)
        } else {
            v[3] == Value::Bool(self.success)
                && v[6] == Value::F64(self.shift)
                && v[7] == Value::U64(self.packets)
        }
    }
}

fn host_counters(s: &Scenario, r: &mut Replay) {
    let stats = s.sim.stats();
    r.events = stats.events_dispatched;
    r.datagrams = stats.datagrams_delivered;
    r.drops = stats.drops.total();
    r.pool_hits = stats.pool_hits;
    r.pool_misses = stats.pool_misses;
    r.peak_queue = stats.peak_queue_depth;
    r.packets = stats.packets_sent;
    let auth = |a| s.sim.host::<AuthServer>(a).map_or(0, |h| h.stats.queries);
    r.auth_queries =
        s.addrs.ns_list.iter().map(|&a| auth(a)).sum::<u64>() + auth(s.addrs.attacker_ns);
    if let Some(res) = s.sim.host::<Resolver>(s.addrs.resolver) {
        r.resolver_upstream = res.stats.upstream_queries;
        r.resolver_client = res.stats.client_queries;
        r.resolver_hits = res.stats.cache_hits;
    }
    let servers = s.addrs.pool_servers.iter().chain(&s.addrs.malicious_ntp);
    r.ntp_ops =
        servers.map(|&a| s.sim.host::<NtpServer>(a).map_or(0, |h| h.stats.queries)).sum::<u64>()
            + s.victim().map_or(0, |v| v.stats.polls_sent);
}

fn elapsed(t: &mut u64) -> f64 {
    let now = trace::now_ns();
    let d = now - *t;
    *t = now;
    d as f64
}

/// Replays pass slot `slot` at master seed `seed` (the same scenario
/// configuration `experiments::table1_row` / `table2_row` use).
pub fn replay(seed: u64, slot: usize) -> Replay {
    let mut r = Replay { slot, ..Replay::default() };
    let ((), allocs) = alloc::counted(|| {
        let mut t = trace::now_ns();
        if slot < TABLE1_TRIALS {
            let kind = ClientKind::all()[slot];
            let config = ScenarioConfig { seed: seed ^ kind as u64, ..ScenarioConfig::default() };
            let target = config.shift_secs;
            let mut s = Scenario::build(config);
            s.launch_poisoner();
            r.build_ns = elapsed(&mut t);
            let poisoned_at = s.run_until_condition(
                SimDuration::from_secs(30),
                SimDuration::from_mins(30),
                |s| s.poisoner().is_some_and(OffPathPoisoner::fully_poisoned),
            );
            r.phase1_ns = elapsed(&mut t);
            s.spawn_victim(kind);
            s.sim.run_for(SimDuration::from_mins(10));
            r.phase2_ns = elapsed(&mut t);
            r.shift = s.victim().expect("victim spawned").offset_secs(s.sim.now());
            r.success = poisoned_at.is_some() && (r.shift - target).abs() < 1.0;
            let p = s.poisoner().map(OffPathPoisoner::stats).unwrap_or_default();
            (r.probes, r.planted) = (p.probes_sent, p.fragments_planted);
            host_counters(&s, &mut r);
        } else {
            let case = &experiments::table2_cases()[slot - TABLE1_TRIALS];
            let config =
                ScenarioConfig { seed: seed ^ case.kind as u64, ..ScenarioConfig::default() };
            let target = config.shift_secs;
            let mut s = Scenario::build(config);
            let victim = s.spawn_victim(case.kind);
            r.build_ns = elapsed(&mut t);
            s.sim.run_for(SimDuration::from_mins(20));
            r.phase1_ns = elapsed(&mut t);
            let attack_start = s.sim.now();
            s.launch_runtime_attacker(victim, case.scenario.clone());
            let stepped_at =
                s.run_until_condition(SimDuration::from_mins(1), SimDuration::from_hours(3), |s| {
                    s.victim()
                        .and_then(NtpClient::first_large_step)
                        .is_some_and(|(at, _)| at > attack_start)
                });
            r.phase2_ns = elapsed(&mut t);
            r.shift = s.victim().expect("victim spawned").offset_secs(s.sim.now());
            r.success = stepped_at.is_some() && (r.shift - target).abs() < 1.0;
            let p = s.runtime_attacker().map(RuntimeAttacker::poison_stats).unwrap_or_default();
            (r.probes, r.planted) = (p.probes_sent, p.fragments_planted);
            host_counters(&s, &mut r);
        }
    });
    r.allocs = allocs;
    r
}

/// Registry records for every slot of pass 0 at `seed`, run on this
/// thread (the reference the replay guard compares against).
pub fn registry_records(seed: u64) -> Vec<Record> {
    let built = build(seed);
    (0..PASS).map(|slot| trial(&built, slot)).collect()
}

/// Trials run per pass slot.
pub fn slot_counts(trials: &[TrialOut]) -> Vec<usize> {
    let mut counts = vec![0; PASS];
    for t in trials {
        counts[t.slot] += 1;
    }
    counts
}

/// Per-layer op-count × ns/op estimates (ns) for `counts[slot]` trials of
/// each slot, from the slot's replay counters and the layer probes' unit
/// costs.
pub fn estimates(
    counts: &[usize],
    replays: &[Replay],
    unit: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let u = |k: &str| unit.get(k).copied().unwrap_or(0.0);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (r, &count) in replays.iter().zip(counts) {
        let n = count as f64;
        let mut add = |layer, ns: f64| *out.entry(layer).or_default() += n * ns;
        add("core", r.build_ns);
        add(
            "netsim",
            r.events as f64 * u("netsim.ring_ns_per_event")
                + r.planted as f64 * u("netsim.defrag_insert_ns"),
        );
        add(
            "dns",
            r.auth_queries as f64
                * (u("dns.query_decode_ns")
                    + u("dns.auth_answer_ns")
                    + u("dns.referral_encode_ns"))
                + r.resolver_upstream as f64 * u("dns.referral_decode_ns"),
        );
        add("attack", r.probes as f64 * (u("dns.referral_decode_ns") + u("attack.forge_tail_ns")));
        add("ntp", r.ntp_ops as f64 * (u("ntp.packet_encode_ns") + u("ntp.packet_decode_ns")));
    }
    out
}
