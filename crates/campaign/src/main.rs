//! The `campaign` CLI: named-scenario campaigns, sharded and resumable.
//!
//! ```sh
//! campaign list                          # registered scenarios
//! campaign run table2 --shards 4         # 4 in-process shard threads
//! campaign run fig6 --shards 4 --supervised --workers 2
//! campaign run fig5 --paper --master-seed 7 --out runs/fig5
//! campaign run table2 --supervised --max-retries 0   # fail on the first worker failure
//! campaign worker …                      # internal: spawned by --supervised
//! ```
//!
//! `run` resumes automatically: if the campaign directory already holds
//! shard checkpoints, only the missing records are computed, and the final
//! digest is bit-identical to an uninterrupted run. `--fresh` wipes the
//! directory's checkpoints first.
//!
//! `--supervised` runs the shards as `campaign worker` subprocesses under
//! the self-healing lease supervisor: dead, hung, or corrupt-stream
//! workers are re-leased from their last good checkpoint, and a shard
//! that exhausts `--max-retries` is quarantined into a partial summary
//! with a coverage report. `--fault <shard>:<spec>[:xN]` injects
//! deterministic failures for chaos testing (see `campaign::faults`).
//! Supervised runs rewrite a `metrics.json` sidecar in the campaign
//! directory every poll tick; `--trace-dir DIR` additionally dumps each
//! shard's supervision flight-recorder ring as `DIR/shard-K.trace` when
//! the run ends.

use std::path::PathBuf;
use std::process::ExitCode;

use campaign::exec::{self, CampaignConfig, ExecMode};
use campaign::faults::{FaultPlan, FaultSpec};
use campaign::supervisor::{self, SupervisorConfig};
use campaign::{checkpoint, registry};
use timeshift::experiments::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        _ => {
            eprintln!(
                "usage: campaign <list | run <scenario> [options] | worker …>\n\
                 run options: [--shards K] [--workers N] [--master-seed S]\n\
                 \x20            [--scale quick|paper] [--paper] [--resolvers N]\n\
                 \x20            [--out DIR] [--fresh] [--quiet]\n\
                 \x20            [--supervised] [--max-retries R] [--worker-timeout MS]\n\
                 \x20            [--poll-interval MS] [--fault shard:spec[:xN]]…\n\
                 \x20            [--trace-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> Result<(), String> {
    println!("registered scenarios:");
    for s in registry::all() {
        let quick = s.build(Scale::quick()).trials();
        println!("  {:<15} {:>6} quick trials  {}", s.name, quick, s.about);
    }
    Ok(())
}

struct Parsed {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Splits args into positionals and `--flag [value]` pairs. Value-taking
/// flags must be listed in `valued`, bare switches in `bare`; anything
/// else is an error — a misspelled flag must never fall through to a
/// silently-default campaign (the whole tool is about reproducible runs).
fn parse_args(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Parsed, String> {
    let mut parsed = Parsed { positional: Vec::new(), flags: Vec::new() };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if bare.contains(&name) {
                parsed.flags.push((name.to_owned(), None));
            } else if valued.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.flags.push((name.to_owned(), Some(value.clone())));
            } else {
                return Err(format!(
                    "unknown flag --{name} (valid: {})",
                    valued
                        .iter()
                        .chain(bare)
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        } else {
            parsed.positional.push(a.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let parsed = parse_args(
        args,
        &[
            "shards",
            "workers",
            "master-seed",
            "scale",
            "resolvers",
            "out",
            "max-retries",
            "worker-timeout",
            "poll-interval",
            "fault",
            "trace-dir",
        ],
        &["paper", "fresh", "quiet", "supervised"],
    )?;
    let [name] = parsed.positional.as_slice() else {
        return Err("run takes exactly one scenario name (see `campaign list`)".into());
    };
    let scenario = registry::find(name)
        .ok_or_else(|| format!("unknown scenario {name:?} (see `campaign list`)"))?;

    // `--scale paper` is the canonical spelling; `--paper` stays as the
    // historic alias. `--resolvers N` overrides just the survey population
    // (labelled "custom" so run directories never collide with the stock
    // scales).
    let paper = match parsed.flag("scale") {
        None => parsed.has("paper"),
        Some("quick") => false,
        Some("paper") => true,
        Some(other) => return Err(format!("--scale {other:?}: expected quick or paper")),
    };
    let mut scale = if paper { Scale::paper() } else { Scale::quick() };
    scale.seed = parsed.parse("master-seed", scale.seed)?;
    let mut scale_label = if paper { "paper" } else { "quick" };
    if let Some(n) = parsed.flag("resolvers") {
        scale.resolvers = n.parse().map_err(|e| format!("--resolvers {n:?}: {e}"))?;
        scale_label = "custom";
    }

    let shards: usize = parsed.parse("shards", 4)?;
    let shards = shards.max(1);
    let default_workers =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4);
    let workers: usize = parsed.parse("workers", shards.min(default_workers))?;

    let dir = match parsed.flag("out") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from(format!(
            "target/campaign/{name}-{scale_label}-seed{}-x{shards}",
            scale.seed
        )),
    };
    if parsed.has("fresh") {
        checkpoint::wipe(&dir).map_err(|e| e.to_string())?;
    }

    // `--supervised` is the one switch for subprocess workers: they are
    // spawned from this binary.
    let exe = if parsed.has("supervised") {
        Some(std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?)
    } else if parsed.has("trace-dir") {
        return Err("--trace-dir requires --supervised (rings record supervision events)".into());
    } else {
        None
    };
    let mode = match &exe {
        Some(exe) => ExecMode::Subprocess { exe: exe.clone() },
        None => ExecMode::InProcess,
    };

    let config = CampaignConfig {
        scenario,
        scale,
        scale_label: scale_label.into(),
        shards,
        workers,
        mode,
        dir: dir.clone(),
        verbose: !parsed.has("quiet"),
    };

    let summary = if let Some(exe) = &exe {
        let defaults = SupervisorConfig::default();
        let mut faults = FaultPlan::none();
        for (name, value) in &parsed.flags {
            if name == "fault" {
                let entry = value.as_deref().unwrap_or_default();
                faults.push_cli(entry).map_err(|e| e.to_string())?;
            }
        }
        let sup = SupervisorConfig {
            max_retries: parsed.parse("max-retries", defaults.max_retries)?,
            worker_timeout_ms: parsed.parse("worker-timeout", defaults.worker_timeout_ms)?,
            poll_interval_ms: parsed.parse("poll-interval", defaults.poll_interval_ms)?,
            faults,
            trace_dir: parsed.flag("trace-dir").map(PathBuf::from),
            ..defaults
        };
        let run = supervisor::run_supervised(&config, exe, &sup).map_err(|e| e.to_string())?;
        if config.verbose {
            for r in run.reports.iter().filter(|r| !r.failures.is_empty()) {
                eprintln!(
                    "shard {}: {} attempt(s){}",
                    r.shard,
                    r.attempts,
                    if r.quarantined { ", QUARANTINED" } else { ", healed" }
                );
                for f in &r.failures {
                    eprintln!("    failure: {}", f.lines().next().unwrap_or_default());
                }
            }
        }
        run.summary
    } else {
        exec::run_campaign(&config).map_err(|e| e.to_string())?
    };
    print!("{}", summary.render_text());
    println!("  summary: {}", checkpoint::summary_path(&dir).display());
    if !summary.complete {
        return Err("campaign completed PARTIALLY (quarantined shards; see coverage)".into());
    }
    Ok(())
}

fn cmd_worker(args: &[String]) -> Result<(), String> {
    let parsed =
        parse_args(args, &["scenario", "shard", "skip", "checkpoint", "scale-spec", "fault"], &[])?;
    let name = parsed.flag("scenario").ok_or("worker needs --scenario")?;
    let scenario = registry::find(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    let scale =
        exec::parse_scale_spec(parsed.flag("scale-spec").ok_or("worker needs --scale-spec")?)
            .map_err(|e| e.to_string())?;
    let shard_spec = parsed.flag("shard").ok_or("worker needs --shard k/K")?;
    let (k, shards) = shard_spec
        .split_once('/')
        .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
        .ok_or_else(|| format!("bad --shard {shard_spec:?} (expected k/K)"))?;
    let skip: usize = parsed.parse("skip", 0)?;
    let checkpoint_path =
        PathBuf::from(parsed.flag("checkpoint").ok_or("worker needs --checkpoint")?);
    let fault = match parsed.flag("fault") {
        Some(spec) => Some(FaultSpec::parse(spec).map_err(|e| e.to_string())?),
        None => None,
    };
    exec::run_worker(scenario, scale, k, shards, skip, &checkpoint_path, fault)
        .map_err(|e| e.to_string())
}
