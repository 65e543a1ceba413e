//! The named-scenario registry: every reproducible artifact of the paper
//! is addressable by name, with a typed record schema and a per-trial
//! entry point that is a pure function of `(Scale, master seed, index)`.
//!
//! A scenario's trials are the *per-item* units of its table or figure —
//! one client model for Table I, one attack case for Table II, one
//! nameserver / resolver / client / server probe for the measurement
//! scans, one `N` value for the Chronos bound — so a campaign can split
//! the index space into shards at any granularity without changing a
//! single record. Trial seeds are derived from the **global** index,
//! never from the shard, which is the whole determinism story.
//!
//! The measurement scans (Fig. 5, §VII-B, Table IV / Fig. 6 / Fig. 7,
//! Table V, §VII-A, §VIII-B3) are typed [`Scan`]s, and their public
//! constructors ([`fig5`], [`pmtud`], [`snoop`], [`table5`],
//! [`ratelimit`], [`shared`]) are the one definition of each scan's
//! population and seeds. A campaign streams a scan's records;
//! [`Scan::run`] returns its typed `(spec, verdict)` pairs in process,
//! which fold into the `measure` result types.

use measure::prelude::*;
use ntp::prelude::ClientKind;
use runner::{scan_seed, TrialRunner};
use timeshift::experiments::{self, figspec, salts, Scale, Table2Case};

use crate::record::{opt, Field, FieldKind, HistSpec, Record, Schema};

/// A built campaign: the scenario instantiated at a [`Scale`], holding its
/// generated population. Trials are independent and callable from any
/// thread; implementations must be pure functions of the build inputs and
/// the trial index.
pub trait Campaign: Send + Sync {
    /// Number of trials (records) at this scale.
    fn trials(&self) -> usize;

    /// Runs trial `idx` and returns its record (conforming to the
    /// scenario's schema).
    fn run_trial(&self, idx: usize) -> Record;
}

/// One registered scenario.
pub struct Scenario {
    /// Registry name (`campaign run <name>`).
    pub name: &'static str,
    /// What the scenario reproduces.
    pub about: &'static str,
    /// The typed per-trial record schema.
    pub schema: &'static Schema,
    build: fn(Scale) -> Box<dyn Campaign>,
}

impl Scenario {
    /// Instantiates the scenario at `scale` (generates its population).
    pub fn build(&self, scale: Scale) -> Box<dyn Campaign> {
        (self.build)(scale)
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario").field("name", &self.name).finish_non_exhaustive()
    }
}

/// All registered scenarios, in registry order.
pub fn all() -> &'static [Scenario] {
    &REGISTRY
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

static REGISTRY: [Scenario; 11] = [
    Scenario {
        name: "table1",
        about: "Table I: boot-time attack verified live against all seven NTP clients",
        schema: TABLE1_SCHEMA,
        build: |scale| Box::new(Table1Campaign { seed: scale.seed }),
    },
    Scenario {
        name: "table2",
        about: "Table II: end-to-end run-time attack durations (P1/P2)",
        schema: TABLE2_SCHEMA,
        build: |scale| {
            Box::new(Table2Campaign { seed: scale.seed, cases: experiments::table2_cases() })
        },
    },
    Scenario {
        name: "fig5",
        about: "Fig. 5: PMTUD fragmentation floors of domain nameservers",
        schema: PMTUD_SCHEMA,
        build: |scale| Box::new(fig5(scale)),
    },
    Scenario {
        name: "fig6",
        about: "Fig. 6: TTLs of cached pool records (open-resolver survey)",
        schema: SNOOP_SCHEMA,
        build: |scale| Box::new(snoop(scale)),
    },
    Scenario {
        name: "fig7",
        about: "Fig. 7: t_first - t_avg latency side channel (open-resolver survey)",
        schema: SNOOP_SCHEMA,
        build: |scale| Box::new(snoop(scale)),
    },
    Scenario {
        name: "table4_snoop",
        about: "Table IV: pool.ntp.org caching state via RD=0 snooping",
        schema: SNOOP_SCHEMA,
        build: |scale| Box::new(snoop(scale)),
    },
    Scenario {
        name: "table5_adstudy",
        about: "Table V: fragment acceptance / DNSSEC validation per ad client",
        schema: TABLE5_SCHEMA,
        build: |scale| Box::new(table5(scale)),
    },
    Scenario {
        name: "ratelimit",
        about: "SVII-A: rate limiting of pool.ntp.org servers (KoD / silent / config)",
        schema: RATELIMIT_SCHEMA,
        build: |scale| Box::new(ratelimit(scale)),
    },
    Scenario {
        name: "pmtud",
        about: "SVII-B: fragmentation floors of the 30 pool.ntp.org nameservers",
        schema: PMTUD_SCHEMA,
        build: |scale| Box::new(pmtud(scale)),
    },
    Scenario {
        name: "shared",
        about: "SVIII-B3: web-client resolvers an attacker can trigger (open or SMTP-shared)",
        schema: SHARED_SCHEMA,
        build: |scale| Box::new(shared(scale)),
    },
    Scenario {
        name: "chronos_bound",
        about: "SVI-C: attacker pool fraction vs honest lookups (2/3 bound)",
        schema: CHRONOS_SCHEMA,
        build: |_| Box::new(ChronosBoundCampaign),
    },
];

// ---------------------------------------------------------------- Table I

const TABLE1_SCHEMA: &Schema = &[
    Field { name: "client", kind: FieldKind::Str },
    Field { name: "pool_share", kind: FieldKind::F64 },
    Field { name: "boot_time", kind: FieldKind::Bool },
    Field { name: "run_time", kind: FieldKind::Bool },
    Field { name: "observed_boot_shift", kind: FieldKind::F64 },
];

struct Table1Campaign {
    seed: u64,
}

impl Campaign for Table1Campaign {
    fn trials(&self) -> usize {
        ClientKind::all().len()
    }
    fn run_trial(&self, idx: usize) -> Record {
        let row = experiments::table1_row(self.seed, ClientKind::all()[idx]);
        Record(vec![
            row.client.into(),
            opt(row.pool_share),
            row.boot_time.into(),
            opt(row.run_time),
            row.observed_boot_shift.into(),
        ])
    }
}

// --------------------------------------------------------------- Table II

const TABLE2_SCHEMA: &Schema = &[
    Field { name: "client", kind: FieldKind::Str },
    Field { name: "scenario", kind: FieldKind::Str },
    Field { name: "discovery", kind: FieldKind::Str },
    Field { name: "success", kind: FieldKind::Bool },
    Field { name: "duration_mins", kind: FieldKind::F64 },
    Field { name: "paper_mins", kind: FieldKind::F64 },
    Field { name: "observed_shift", kind: FieldKind::F64 },
    Field { name: "packets_sent", kind: FieldKind::U64 },
    // The `explain_` prefix routes these through the summary's "explain"
    // section: a per-trial account of *why* an attack failed (which drop
    // family dominated) built from the simulator's drop taxonomy.
    Field { name: "explain_fail_stage", kind: FieldKind::Str },
    Field { name: "explain_frag_drops", kind: FieldKind::U64 },
    Field { name: "explain_verify_drops", kind: FieldKind::U64 },
    Field { name: "explain_total_drops", kind: FieldKind::U64 },
];

struct Table2Campaign {
    seed: u64,
    cases: Vec<Table2Case>,
}

impl Campaign for Table2Campaign {
    fn trials(&self) -> usize {
        self.cases.len()
    }
    fn run_trial(&self, idx: usize) -> Record {
        let case = &self.cases[idx];
        let row = experiments::table2_row(self.seed, case);
        Record(vec![
            row.client.into(),
            row.scenario.into(),
            case.scenario.label().into(),
            row.outcome.success.into(),
            opt(row.duration_mins),
            row.paper_mins.into(),
            row.outcome.observed_shift.into(),
            row.outcome.packets_sent.into(),
            row.outcome.fail_stage().into(),
            row.outcome.frag_drops.into(),
            row.outcome.verify_drops.into(),
            row.outcome.total_drops.into(),
        ])
    }
}

// ------------------------------------------------------ measurement scans

/// A measurement scan: trial `idx` derives its spec from the population
/// handle `pop` (`spec_at`), probes it in an isolated mini-simulation
/// seeded by `scan_seed(base_seed, idx)`, and projects `(spec, verdict)`
/// to a flat record. The handle is a seed for the lazily-generated
/// populations (O(1) work per index, so a paper-scale campaign of 1.58 M
/// resolver trials holds **no** population `Vec`), `(seed, fraction)`
/// for Table V, or the list itself for the 30 shuffled pool nameservers.
pub struct Scan<P, S, V> {
    trials: usize,
    pop: P,
    spec_at: fn(&P, usize) -> S,
    base_seed: u64,
    probe: fn(&S, u64) -> V,
    record: fn(&S, &V) -> Record,
}

impl<P: Sync, S: Send, V: Send> Scan<P, S, V> {
    /// Runs trial `idx`: its spec and the probe's verdict.
    pub fn trial(&self, idx: usize) -> (S, V) {
        let spec = (self.spec_at)(&self.pop, idx);
        let verdict = (self.probe)(&spec, scan_seed(self.base_seed, idx));
        (spec, verdict)
    }

    /// Runs every trial across `workers` threads and returns the
    /// `(spec, verdict)` pairs in index order — identical for any worker
    /// count.
    pub fn run(&self, workers: usize) -> Vec<(S, V)> {
        TrialRunner::new(workers).run(&vec![(); self.trials], |idx, ()| self.trial(idx))
    }

    /// Runs every trial and folds the verdicts, in index order, into a
    /// typed result (`PmtudScanResult`, `SurveyResult`, ...).
    pub fn fold<R: FromIterator<V>>(&self, workers: usize) -> R {
        self.run(workers).into_iter().map(|(_, verdict)| verdict).collect()
    }
}

impl<P: Send + Sync, S: Send, V: Send> Campaign for Scan<P, S, V> {
    fn trials(&self) -> usize {
        self.trials
    }
    fn run_trial(&self, idx: usize) -> Record {
        let (spec, verdict) = self.trial(idx);
        (self.record)(&spec, &verdict)
    }
}

// ------------------------------------------------- Fig. 5 + SVII-B PMTUD

const PMTUD_SCHEMA: &Schema = &[
    Field { name: "answered", kind: FieldKind::Bool },
    Field { name: "signed", kind: FieldKind::Bool },
    Field { name: "vulnerable", kind: FieldKind::Bool },
    Field { name: "min_fragment_size", kind: FieldKind::U64 },
];

fn pmtud_record(_: &NameserverSpec, v: &PmtudVerdict) -> Record {
    Record(vec![
        v.answered.into(),
        v.signed.into(),
        v.vulnerable().into(),
        opt(v.min_fragment_size),
    ])
}

/// Fig. 5: the PMTUD scan of `scale.domains` domain nameservers.
pub fn fig5(scale: Scale) -> Scan<u64, NameserverSpec, PmtudVerdict> {
    Scan {
        trials: scale.domains,
        pop: scale.seed ^ salts::FIG5_POP,
        spec_at: |&seed, idx| domain_nameserver_at(seed, idx),
        base_seed: scale.seed ^ salts::FIG5_SCAN,
        probe: scan_nameserver,
        record: pmtud_record,
    }
}

/// §VII-B: the PMTUD scan of the 30 `pool.ntp.org` nameservers.
pub fn pmtud(scale: Scale) -> Scan<Vec<NameserverSpec>, NameserverSpec, PmtudVerdict> {
    let pop = pool_nameservers(scale.seed ^ salts::POOL_NS_POP);
    Scan {
        trials: pop.len(),
        pop,
        spec_at: |pop, idx| pop[idx],
        base_seed: scale.seed ^ salts::POOL_NS_SCAN,
        probe: scan_nameserver,
        record: pmtud_record,
    }
}

// --------------------------------- Table IV / Fig. 6 / Fig. 7 (snooping)

/// Fig. 6 bucketing: TTLs in `[0, FIG6_MAX)` at `FIG6_BUCKET`-second
/// granularity, derived from [`figspec`] so the campaign aggregate and
/// `SurveyResult::ttl_histogram` (what `format_fig6` prints) can never
/// drift apart.
const FIG6_TTL_HIST: HistSpec = HistSpec {
    lo: 0.0,
    width: figspec::FIG6_BUCKET as f64,
    bins: figspec::FIG6_MAX.div_ceil(figspec::FIG6_BUCKET) as usize,
};

/// Fig. 7 bucketing: timing differences clamped to `±FIG7_CLAMP_MS`,
/// `FIG7_BUCKET_MS`-wide bins, one extra bin so the positive clamp edge
/// lands in its own bucket — the exact rule of
/// `SurveyResult::timing_histogram`.
const FIG7_TIMING_HIST: HistSpec = HistSpec {
    lo: -figspec::FIG7_CLAMP_MS,
    width: figspec::FIG7_BUCKET_MS,
    bins: (2.0 * figspec::FIG7_CLAMP_MS / figspec::FIG7_BUCKET_MS) as usize + 1,
};

const SNOOP_SCHEMA: &Schema = &[
    Field { name: "verified", kind: FieldKind::Bool },
    Field { name: "cached_count", kind: FieldKind::U64 },
    Field { name: "apex_a_ttl", kind: FieldKind::HistU64(FIG6_TTL_HIST) },
    Field { name: "accepts_fragments", kind: FieldKind::Bool },
    Field { name: "timing_diff_ms", kind: FieldKind::HistF64(FIG7_TIMING_HIST) },
];

fn snoop_record(_: &OpenResolverSpec, o: &ResolverOutcome) -> Record {
    Record(vec![
        o.verified.into(),
        o.cached_total().into(),
        opt(o.apex_a_ttl()),
        o.accepts_fragments.into(),
        opt(o.timing_diff_ms),
    ])
}

/// Table IV / Fig. 6 / Fig. 7: the open-resolver survey of
/// `scale.resolvers` resolvers (the population uses the unsalted master
/// seed).
pub fn snoop(scale: Scale) -> Scan<u64, OpenResolverSpec, ResolverOutcome> {
    Scan {
        trials: scale.resolvers,
        pop: scale.seed,
        spec_at: |&seed, idx| open_resolver_at(seed, idx),
        base_seed: scale.seed ^ salts::SNOOP_SCAN,
        probe: scan_resolver,
        record: snoop_record,
    }
}

// ---------------------------------------------------------------- Table V

const TABLE5_SCHEMA: &Schema = &[
    Field { name: "region", kind: FieldKind::Str },
    Field { name: "mobile", kind: FieldKind::Bool },
    Field { name: "google_resolver", kind: FieldKind::Bool },
    Field { name: "valid", kind: FieldKind::Bool },
    Field { name: "accepts_tiny", kind: FieldKind::Bool },
    Field { name: "accepts_any", kind: FieldKind::Bool },
    Field { name: "validates", kind: FieldKind::Bool },
];

fn table5_record(spec: &AdClientSpec, r: &ClientResult) -> Record {
    Record(vec![
        spec.region.name().into(),
        spec.mobile.into(),
        spec.google_resolver.into(),
        r.valid().into(),
        r.accepts_tiny().into(),
        r.accepts_any().into(),
        r.validates().into(),
    ])
}

/// Table V: the ad study at `scale.ad_fraction` of the paper's
/// per-region client counts.
pub fn table5(scale: Scale) -> Scan<(u64, f64), AdClientSpec, ClientResult> {
    Scan {
        trials: ad_client_count(scale.ad_fraction),
        pop: (scale.seed ^ salts::TABLE5_POP, scale.ad_fraction),
        spec_at: |&(seed, fraction), idx| ad_client_at(seed, fraction, idx),
        base_seed: scale.seed ^ salts::TABLE5_SCAN,
        probe: run_client,
        record: table5_record,
    }
}

// ------------------------------------------------------------ SVII-A scan

const RATELIMIT_SCHEMA: &Schema = &[
    Field { name: "kod_seen", kind: FieldKind::Bool },
    Field { name: "rate_limiting", kind: FieldKind::Bool },
    Field { name: "config_open", kind: FieldKind::Bool },
    Field { name: "first_half", kind: FieldKind::U64 },
    Field { name: "second_half", kind: FieldKind::U64 },
];

fn ratelimit_record(_: &PoolServerSpec, v: &ServerVerdict) -> Record {
    Record(vec![
        v.kod_seen.into(),
        v.counted_as_rate_limiting().into(),
        v.config_open.into(),
        v.first_half.into(),
        v.second_half.into(),
    ])
}

/// §VII-A: the rate-limit scan of `scale.pool_servers` pool servers.
pub fn ratelimit(scale: Scale) -> Scan<u64, PoolServerSpec, ServerVerdict> {
    Scan {
        trials: scale.pool_servers,
        pop: scale.seed ^ salts::RATELIMIT_POP,
        spec_at: |&seed, idx| pool_server_at(seed, idx),
        base_seed: scale.seed ^ salts::RATELIMIT_SCAN,
        probe: scan_server,
        record: ratelimit_record,
    }
}

// -------------------------------------------- SVIII-B3 shared resolvers

const SHARED_SCHEMA: &Schema = &[
    Field { name: "open", kind: FieldKind::Bool },
    Field { name: "smtp_shared", kind: FieldKind::Bool },
    Field { name: "triggerable", kind: FieldKind::Bool },
];

fn shared_record(_: &SharedResolverSpec, v: &SharedVerdict) -> Record {
    Record(vec![v.open.into(), v.smtp_shared.into(), v.triggerable().into()])
}

/// §VIII-B3: the shared-resolver study of `scale.shared` web-client
/// resolvers, one /24 world per resolver.
pub fn shared(scale: Scale) -> Scan<u64, SharedResolverSpec, SharedVerdict> {
    Scan {
        trials: scale.shared,
        pop: scale.seed ^ salts::SHARED_POP,
        spec_at: |&seed, idx| shared_resolver_at(seed, idx),
        base_seed: scale.seed ^ salts::SHARED_SCAN,
        probe: measure::shared::scan_resolver,
        record: shared_record,
    }
}

// ----------------------------------------------------- Chronos 2/3 bound

const CHRONOS_SCHEMA: &Schema = &[
    Field { name: "n", kind: FieldKind::U64 },
    Field { name: "honest", kind: FieldKind::U64 },
    Field { name: "malicious", kind: FieldKind::U64 },
    Field { name: "attacker_fraction", kind: FieldKind::F64 },
    Field { name: "success", kind: FieldKind::Bool },
];

/// The SVI-C sweep: trial `idx` is `N = idx` honest lookups against the
/// paper's 89-address poisoned response.
struct ChronosBoundCampaign;

impl Campaign for ChronosBoundCampaign {
    fn trials(&self) -> usize {
        experiments::CHRONOS_LOOKUPS as usize
    }
    fn run_trial(&self, idx: usize) -> Record {
        let row = experiments::chronos_bound_row(idx as u32);
        Record(vec![
            row.n.into(),
            row.honest.into(),
            row.malicious.into(),
            row.fraction.into(),
            row.success.into(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_line, Value};

    #[test]
    fn registry_names_are_unique_and_findable() {
        for s in all() {
            assert!(std::ptr::eq(find(s.name).expect("findable"), s));
        }
        let mut names: Vec<_> = all().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len(), "duplicate scenario names");
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_scenario_produces_schema_conforming_records() {
        let scale = Scale {
            resolvers: 4,
            domains: 4,
            ad_fraction: 0.0001, // clamps to 30/region
            shared: 4,
            pool_servers: 4,
            workers: 1,
            seed: 2020,
        };
        for s in all() {
            // The heavyweight attacks are exercised by the dedicated
            // determinism tests; here just shape-check the cheap scans.
            if matches!(s.name, "table1" | "table2") {
                continue;
            }
            let c = s.build(scale);
            assert!(c.trials() > 0, "{}: no trials", s.name);
            let record = c.run_trial(0);
            // Encoding asserts arity; decoding asserts kinds.
            let line = encode_line(s.schema, &record);
            crate::record::decode_line(s.schema, &line)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn chronos_bound_records_cross_at_11() {
        let c = ChronosBoundCampaign;
        let success = |idx: usize| match c.run_trial(idx).0[4] {
            Value::Bool(b) => b,
            ref v => panic!("expected bool, got {v:?}"),
        };
        assert!(success(11));
        assert!(!success(12));
    }
}
