//! `perfbench` — the repository benchmark: paper trials run through the
//! same public entry points the campaigns use.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack|survey|survey_supervised --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it runs an untraced and a traced window and the layer
//! probes, and prints the per-layer metrics and the cost ledger. Either
//! way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Load is closed-loop with two workers. Scratch files live under
//! `.bench_work/` in the current directory.

mod alloc;
mod attack;
mod probes;
mod stats;
mod survey;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use campaign::record::{decode_line, encode_line};
use trace::Span;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Closed-loop workers, one per core of a two-core machine.
pub const WORKERS: usize = 2;
/// The seed whose first-pass/first-round digests are pinned below. Every
/// run, whatever its `--seed`, also runs that pass or round and compares.
const DEFAULT_SEED: u64 = 2020;
/// Digest of one `attack` pass (Table I then Table II records) at the
/// default seed.
const PINNED_ATTACK_DIGEST: &str = "06bdc4d9e9bbdf4f";
/// Digest of one `survey` or `survey_supervised` round (a
/// [`survey::ROUND_RESOLVERS`]-resolver `table4_snoop` campaign) at the
/// default seed.
const PINNED_SURVEY_DIGEST: &str = "4c14b5726a344542";
/// Extra set-up-only samples for `attack`, whose one queue gives a single
/// set-up per run.
const ATTACK_SETUP_SAMPLES: usize = 200;
/// Trace lines written per traced run.
const TRACE_LINES: usize = 20_000;
const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Attack,
    Survey,
    SurveySupervised,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "attack" => Some(Workload::Attack),
            "survey" => Some(Workload::Survey),
            "survey_supervised" => Some(Workload::SurveySupervised),
            _ => None,
        }
    }
    fn name(self) -> &'static str {
        match self {
            Workload::Attack => "attack",
            Workload::Survey => "survey",
            Workload::SurveySupervised => "survey_supervised",
        }
    }
}

/// One measured window of a workload.
#[derive(Debug, Default)]
struct Window {
    attempted: usize,
    failed: usize,
    /// Trials of the throughput window that gave a valid record.
    done: usize,
    /// Wall time of the throughput window.
    wall_ns: u64,
    latency_ns: Vec<f64>,
    setup_ns: Vec<f64>,
    /// Time the workers spent in trials and record writing, summed over
    /// workers (throughput window).
    busy_ns: f64,
    spans: Vec<Span>,
    /// Records the throughput window merged.
    records: usize,
    worker_rss_kb: u64,
    retries: usize,
    /// `attack`: trials run per pass slot, for the ledger's estimates.
    slot_counts: Vec<usize>,
    notes: Vec<String>,
    correct: bool,
}

impl Window {
    fn trials_per_s(&self) -> f64 {
        self.done as f64 / (self.wall_ns as f64 / 1e9)
    }
}

fn attack_window(seed: u64, seconds: f64, traced: bool) -> Window {
    let mut setup_ns: Vec<f64> = (0..ATTACK_SETUP_SAMPLES)
        .map(|_| attack::run(seed, 0.0, false, false).setup_ns as f64)
        .collect();
    let run = attack::run(seed, seconds, traced, true);
    setup_ns.push(run.setup_ns as f64);
    let failed = attack::failures(&run.trials);
    let passes = run.trials.iter().map(|t| t.pass).max().map_or(0, |p| p + 1);
    let latency_ns: Vec<f64> = run.trials.iter().map(|t| (t.end - t.start) as f64).collect();
    Window {
        attempted: run.trials.len(),
        failed,
        done: run.trials.len() - failed,
        wall_ns: run.wall_ns,
        busy_ns: latency_ns.iter().sum(),
        latency_ns,
        setup_ns,
        slot_counts: attack::slot_counts(&run.trials),
        spans: run.spans,
        notes: vec![format!("passes: {passes} ({} trials per pass)", attack::PASS)],
        correct: true,
        ..Window::default()
    }
}

/// Every checkpointed line must round-trip through the record codec:
/// `encode(decode(line)) == line` and `decode(encode(r)) == r`. Returns
/// the number of lines that do not.
fn round_trip_failures(dir: &Path) -> usize {
    let schema = campaign::registry::find("table4_snoop").expect("scenario is registered").schema;
    (0..survey::SHARDS)
        .map(|k| {
            let path = campaign::checkpoint::shard_path(dir, k);
            let text = std::fs::read_to_string(path).unwrap_or_default();
            text.lines()
                .filter(|line| match decode_line(schema, line) {
                    Ok(r) => {
                        let again = encode_line(schema, &r);
                        again != *line || decode_line(schema, &again).ok().as_ref() != Some(&r)
                    }
                    Err(_) => true,
                })
                .count()
        })
        .sum()
}

/// Trials of a finished round in `dir` that gave no valid record: all of
/// them if the round failed, else those missing from a complete summary
/// plus lines that fail the codec round trip.
fn round_failures(round: &survey::Round, dir: &Path, notes: &mut Vec<String>) -> usize {
    let lost = match &round.error {
        Some(e) => {
            notes.push(format!("round seed {}: {e}", round.seed));
            round.planned
        }
        None => round.planned.saturating_sub(if round.complete { round.records } else { 0 }),
    };
    lost + round_trip_failures(dir).min(round.planned - lost)
}

/// Samples kept for the survey latency percentiles (a uniform sample once
/// a run completes more trials than this).
const LATENCY_SAMPLES: usize = 1 << 16;

fn survey_window(
    seed: u64,
    seconds: f64,
    traced: bool,
    supervised: bool,
    work: &Path,
) -> Result<Window, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut w = Window { correct: true, ..Window::default() };
    let mut latency = stats::Reservoir::new(LATENCY_SAMPLES, seed);
    let budget = (seconds * 1e9) as u64;
    let mut spent = 0;
    // Digests of the in-process and the supervised rounds; round j of
    // either kind runs at seed + j.
    let mut digests: [Vec<String>; 2] = Default::default();
    // Rounds run back to back until their summed wall time reaches the
    // budget; each round is checked and deleted between rounds, outside
    // the timed part.
    for r in 0.. {
        if spent >= budget && latency.seen() > 0 {
            break;
        }
        // `survey_supervised` runs every third round in process: its
        // workers run `run_worker` whole, so only an in-process round
        // times single trials.
        let in_process = !supervised || r % 3 == 2;
        let kind = usize::from(!in_process);
        let round_seed = seed.wrapping_add(digests[kind].len() as u64);
        let dir = work.join(format!("round-{r}"));
        let mut round = if in_process {
            survey::in_process_round(
                &dir,
                survey::ROUND_RESOLVERS,
                round_seed,
                traced && !supervised,
            )
        } else {
            survey::supervised_round(&dir, survey::ROUND_RESOLVERS, round_seed, &exe)
        };
        let failed = round_failures(&round, &dir, &mut w.notes);
        let _ = std::fs::remove_dir_all(&dir);
        spent += round.wall_ns;
        w.attempted += round.planned;
        w.failed += failed;
        round.trial_ns.iter().for_each(|&n| latency.push(n as f64));
        digests[kind].push(std::mem::take(&mut round.digest));
        if in_process == supervised {
            // In-process rounds of `survey_supervised` give latencies only.
            continue;
        }
        w.done += round.planned - failed;
        w.wall_ns += round.wall_ns;
        w.records += round.records;
        w.setup_ns.push(round.setup_ns as f64);
        w.busy_ns += round.busy_ns as f64;
        w.worker_rss_kb = w.worker_rss_kb.max(round.worker_rss_kb);
        w.retries += round.retries;
        w.spans.append(&mut round.spans);
    }
    let [in_process, supervised_digests] = &digests;
    for (j, (a, b)) in in_process.iter().zip(supervised_digests).enumerate() {
        // The supervised stream must equal the in-process one, seed for seed.
        if a != b {
            w.notes.push(format!(
                "seed {}: supervised digest {b} != in-process digest {a}",
                seed.wrapping_add(j as u64)
            ));
            w.correct = false;
            w.failed = (w.failed + survey::ROUND_RESOLVERS).min(w.attempted);
        }
    }
    w.notes.push(format!(
        "{} trials timed in {} in-process rounds of {} resolvers; latency percentiles from a \
         uniform sample of {}",
        latency.seen(),
        in_process.len(),
        survey::ROUND_RESOLVERS,
        latency.samples().len()
    ));
    if supervised {
        w.notes.push(format!(
            "{} supervised rounds, {} lease retries",
            supervised_digests.len(),
            w.retries
        ));
    }
    w.latency_ns = latency.samples().to_vec();
    Ok(w)
}

fn window(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Window, String> {
    match workload {
        Workload::Attack => Ok(attack_window(seed, seconds, traced)),
        Workload::Survey => survey_window(seed, seconds, traced, false, work),
        Workload::SurveySupervised => survey_window(seed, seconds, traced, true, work),
    }
}

/// Runs the workload's first pass or round at [`DEFAULT_SEED`], outside
/// any timed window, and compares its digest with the pinned one.
/// Returns `(trials attempted, trials failed, note)`.
fn pinned_check(workload: Workload, work: &Path) -> Result<(usize, usize, String), String> {
    let dir = work.join("pinned");
    let (planned, mut failed, digest, pinned) = match workload {
        Workload::Attack => {
            let records = attack::registry_records(DEFAULT_SEED);
            (records.len(), 0, attack::digest(&records), PINNED_ATTACK_DIGEST)
        }
        Workload::Survey | Workload::SurveySupervised => {
            let round = if workload == Workload::Survey {
                survey::in_process_round(&dir, survey::ROUND_RESOLVERS, DEFAULT_SEED, false)
            } else {
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                survey::supervised_round(&dir, survey::ROUND_RESOLVERS, DEFAULT_SEED, &exe)
            };
            let mut notes = Vec::new();
            let failed = round_failures(&round, &dir, &mut notes);
            let _ = std::fs::remove_dir_all(&dir);
            (round.planned, failed, round.digest, PINNED_SURVEY_DIGEST)
        }
    };
    if digest != pinned {
        failed = planned;
    }
    Ok((planned, failed, format!("seed {DEFAULT_SEED} digest {digest} (pinned {pinned})")))
}

/// What the run prints: metrics in order, with units.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn end_to_end(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut w = window(workload, seed, seconds, false, work)?;
    let own_rss = survey::peak_rss_kb().unwrap_or(0);
    let ms = |ns: f64| ns / 1e6;
    let tail = stats::tail(&w.latency_ns, 10).ok_or("no trial completed")?;
    let mut notes = std::mem::take(&mut w.notes);
    notes.push(format!(
        "trial_tail_ms is p{} of {} trials ({} beyond it)",
        tail.percentile, tail.count, tail.beyond
    ));
    if let Some((q1, q3)) = stats::quartiles(&w.latency_ns) {
        notes.push(format!("trial latency quartiles: {} ms, {} ms", ms(q1), ms(q3)));
    }
    notes.push(format!(
        "failed_share = {} ({} of {} trials)",
        w.failed as f64 / w.attempted.max(1) as f64,
        w.failed,
        w.attempted
    ));
    if workload == Workload::SurveySupervised {
        notes.push(format!(
            "peak RSS: coordinator {} kB, largest worker {} kB",
            own_rss, w.worker_rss_kb
        ));
    }
    let metrics = vec![
        ("trials_per_s".into(), w.trials_per_s(), "1/s"),
        ("trial_p50_ms".into(), ms(stats::median(&w.latency_ns).ok_or("no trials")?), "ms"),
        ("trial_tail_ms".into(), ms(tail.value), "ms"),
        ("setup_s".into(), stats::median(&w.setup_ns).ok_or("no set-up")? / 1e9, "s"),
        ("peak_rss_mb".into(), own_rss.max(w.worker_rss_kb) as f64 / 1024.0, "MB"),
    ];
    Ok(Report { correct: w.correct, attempted: w.attempted, failed: w.failed, metrics, notes })
}

fn traced_run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    // Half the budget untraced, half traced: the two rates give the
    // tracing overhead.
    let plain = window(workload, seed, seconds / 2.0, false, work)?;
    let w = window(workload, seed, seconds / 2.0, true, work)?;

    let mut m = probes::Metrics::new();
    probes::codec(seed, &mut m);
    let scan = probes::measure(seed, &mut m);
    let merge_ns_per_record = probes::campaign(&work.join("campaign-probe"), seed, &mut m)?;
    let unit = m.clone();
    let (replays, replay_ok) = probes::replay(seed, &unit, &mut m);

    let capacity = WORKERS as f64 * w.wall_ns as f64;
    let u = |k: &str| unit[k].0;
    // Survey trials: the netsim and dns costs inside each scan are
    // estimated from op counts and moved out of `measure`.
    let n = w.records as f64;
    let (netsim, dns) = (n * scan.netsim_ns, n * scan.dns_ns);
    let below_measure =
        BTreeMap::from([("netsim", netsim), ("dns", dns), ("measure", -netsim - dns)]);
    let (estimates, busy) = match workload {
        Workload::Attack => {
            let unit_ns = unit.iter().map(|(k, (v, _))| (*k, *v)).collect();
            (attack::estimates(&w.slot_counts, &replays, &unit_ns), root_span_ns(&w.spans))
        }
        Workload::Survey => (below_measure, root_span_ns(&w.spans)),
        Workload::SurveySupervised => {
            // No spans cross the process boundary. The workers' trials
            // cost what the same window's in-process trials cost on
            // average; record writing is op count × ns/op, and the
            // coordinator adds set-up and merge.
            let setup: f64 = w.setup_ns.iter().sum();
            let merge = n * merge_ns_per_record;
            let trial_ns = w.latency_ns.iter().sum::<f64>() / w.latency_ns.len() as f64;
            let mut est = below_measure;
            *est.entry("measure").or_default() += n * trial_ns;
            est.insert(
                "campaign",
                n * (u("campaign.encode_line_ns") + 1e3 * u("campaign.append_line_us"))
                    + setup
                    + merge,
            );
            (est, w.busy_ns + setup + merge)
        }
    };
    let ledger = trace::ledger(capacity, &w.spans, &estimates, busy);
    for &(metric, share) in &ledger.shares {
        m.insert(metric, (share, "ratio"));
    }
    m.insert("ledger.unattributed_share", (ledger.unattributed, "ratio"));
    m.insert("runner.utilization", (w.busy_ns / capacity, "ratio"));
    m.insert("trace.overhead_ratio", (w.trials_per_s() / plain.trials_per_s(), "ratio"));

    let trace_path = Path::new(WORK_DIR).join(format!("trace-{}.tsv", workload.name()));
    std::fs::write(&trace_path, trace::render(&w.spans, TRACE_LINES))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let mut notes: Vec<String> = plain.notes.iter().map(|n| format!("untraced: {n}")).collect();
    notes.extend(w.notes.iter().map(|n| format!("traced: {n}")));
    if !replay_ok {
        notes.push("phase replay disagrees with the registry record".into());
    }
    notes.push(format!("trace written to {}", trace_path.display()));
    Ok(Report {
        correct: plain.correct && w.correct && replay_ok,
        attempted: plain.attempted + w.attempted,
        failed: plain.failed + w.failed,
        metrics: m.into_iter().map(|(k, (v, u))| (k.to_owned(), v, u)).collect(),
        notes,
    })
}

/// Total duration of root spans: trial envelopes plus serial campaign
/// work (set-up, merge) — the time the pool was not idle.
fn root_span_ns(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.parent == 0).map(|s| (s.end - s.start) as f64).sum()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return match survey::worker_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for (name, value, unit) in &report.metrics {
                assert!(stats::valid_name(name), "invalid metric name {name:?}");
                println!("{name} = {value} {unit}");
            }
            println!("{}", report.render_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<Report, String> {
    let get = |name: &str| {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .ok_or(format!("missing {name}"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let report = if traced {
        traced_run(workload, seed, seconds, &work)
    } else {
        end_to_end(workload, seed, seconds, &work)
    }
    .and_then(|mut report| {
        let (attempted, failed, note) = pinned_check(workload, &work)?;
        report.attempted += attempted;
        report.failed += failed;
        report.correct &= failed == 0;
        report.notes.push(note);
        Ok(report)
    });
    let _ = std::fs::remove_dir_all(&work);
    let mut report = report?;
    report.notes.insert(
        0,
        format!(
            "workload {} seed {seed} seconds {seconds} trace {}",
            workload.name(),
            u8::from(traced)
        ),
    );
    Ok(report)
}
