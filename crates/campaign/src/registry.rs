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
//! All 9 scenarios are typed [`Scan`]s, and their public constructors
//! ([`table1`], [`table2`], [`fig5`], [`pmtud`], [`snoop`], [`table5`],
//! [`ratelimit`], [`shared`], [`chronos_bound`]) are the one definition
//! of each artifact's trials and seeds (`table4_snoop` is the one
//! [`snoop`] survey behind Table IV and Figs. 6/7). A campaign streams a
//! scan's records; [`Scan::run`] returns its typed `(spec, verdict)` pairs
//! in process, which the `experiments::format_*` printers render or which
//! fold into the `measure` result types.

use measure::prelude::*;
use ntp::prelude::ClientKind;
use runner::{scan_seed, TrialRunner};
use timeshift::experiments::{self, figspec, salts, Scale, Table2Case};
use timeshift::scenario::MALICIOUS_COUNT;
use timeshift::scenario::{
    run_boot_time_attack, run_runtime_attack, AttackOutcome, ScenarioConfig,
};

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

static REGISTRY: [Scenario; 9] = [
    Scenario {
        name: "table1",
        about: "Table I: boot-time attack verified live against all seven NTP clients",
        schema: TABLE1_SCHEMA,
        build: |scale| Box::new(table1(scale)),
    },
    Scenario {
        name: "table2",
        about: "Table II: end-to-end run-time attack durations (P1/P2)",
        schema: TABLE2_SCHEMA,
        build: |scale| Box::new(table2(scale)),
    },
    Scenario {
        name: "fig5",
        about: "Fig. 5: PMTUD fragmentation floors of domain nameservers",
        schema: PMTUD_SCHEMA,
        build: |scale| Box::new(fig5(scale)),
    },
    Scenario {
        name: "table4_snoop",
        about: "Table IV + Figs. 6/7: open-resolver survey of pool.ntp.org caching (RD=0)",
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
        build: |scale| Box::new(chronos_bound(scale)),
    },
];

// ------------------------------------------------------------------ scans

/// A typed scan: trial `idx` derives its spec from the population handle
/// `pop` (`spec_at`), probes it in an isolated simulation seeded by
/// `scan_seed(base_seed, idx)`, and projects `(spec, verdict)` to a flat
/// record. The handle is a seed for the lazily-generated populations
/// (O(1) work per index, so a paper-scale campaign of 1.58 M resolver
/// trials holds **no** population `Vec`), `(seed, fraction)` for Table V,
/// the list itself for the 30 shuffled pool nameservers and the Table II
/// cases, or nothing for the closed-form Chronos bound.
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

// ------------------------------------------------------- Table I + II

// The attack trials predate `scan_seed`: each seeds its simulation with
// `scale.seed ^ kind`, the seed the `table1`/`table2` golden digests and
// the benchmark's pinned attack digest are keyed to. So the seed travels
// in the spec and the probes ignore the scan seed.

const TABLE1_SCHEMA: &Schema = &[
    Field { name: "client", kind: FieldKind::Str },
    Field { name: "pool_share", kind: FieldKind::F64 },
    Field { name: "boot_time", kind: FieldKind::Bool },
    Field { name: "run_time", kind: FieldKind::Bool },
    Field { name: "observed_boot_shift", kind: FieldKind::F64 },
];

fn table1_record(&(kind, _): &(ClientKind, u64), o: &AttackOutcome) -> Record {
    Record(vec![
        kind.name().into(),
        opt(kind.pool_share()),
        o.success.into(),
        opt(kind.vulnerable_run_time()),
        o.observed_shift.into(),
    ])
}

/// Table I: the boot-time attack against each of the seven client
/// models, in Table I order; the spec is `(kind, trial seed)`.
pub fn table1(scale: Scale) -> Scan<u64, (ClientKind, u64), AttackOutcome> {
    Scan {
        trials: ClientKind::all().len(),
        pop: scale.seed,
        spec_at: |&seed, idx| {
            let kind = ClientKind::all()[idx];
            (kind, seed ^ kind as u64)
        },
        base_seed: scale.seed,
        probe: |&(kind, seed), _| {
            run_boot_time_attack(ScenarioConfig { seed, ..ScenarioConfig::default() }, kind)
        },
        record: table1_record,
    }
}

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

fn table2_record((case, _): &(Table2Case, u64), o: &AttackOutcome) -> Record {
    Record(vec![
        case.client.into(),
        case.label.into(),
        case.scenario.label().into(),
        o.success.into(),
        opt(o.duration_secs.map(|s| s / 60.0)),
        case.paper_mins.into(),
        o.observed_shift.into(),
        o.packets_sent.into(),
        o.fail_stage().into(),
        o.frag_drops.into(),
        o.verify_drops.into(),
        o.total_drops.into(),
    ])
}

/// Table II: the run-time attack for each of the four
/// [`experiments::table2_cases`], in the paper's row order; the spec is
/// `(case, trial seed)`.
pub fn table2(scale: Scale) -> Scan<(u64, Vec<Table2Case>), (Table2Case, u64), AttackOutcome> {
    let cases = experiments::table2_cases();
    Scan {
        trials: cases.len(),
        pop: (scale.seed, cases),
        spec_at: |(seed, cases), idx| (cases[idx].clone(), seed ^ cases[idx].kind as u64),
        base_seed: scale.seed,
        probe: |(case, seed), _| {
            let config = ScenarioConfig { seed: *seed, ..ScenarioConfig::default() };
            run_runtime_attack(config, case.kind, case.scenario.clone())
        },
        record: table2_record,
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

fn chronos_record(&n: &u32, &success: &bool) -> Record {
    Record(vec![
        n.into(),
        (4 * n).into(),
        MALICIOUS_COUNT.into(),
        chronos::bound::attacker_fraction(n, MALICIOUS_COUNT).into(),
        success.into(),
    ])
}

/// SVI-C: trial `idx` is `N = idx` honest lookups (4 addresses each)
/// against the paper's 89-address poisoned response; the verdict is
/// whether the attacker's pool share reaches the 2/3 bound. Closed form,
/// so the probe ignores its seed.
pub fn chronos_bound(scale: Scale) -> Scan<(), u32, bool> {
    Scan {
        trials: chronos::LOOKUPS as usize,
        pop: (),
        spec_at: |(), idx| idx as u32,
        base_seed: scale.seed,
        probe: |&n, _| chronos::bound::attack_succeeds(n, MALICIOUS_COUNT),
        record: chronos_record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_line, encode_line, Value};

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

    /// Synthetic attack verdicts: one that landed and one that failed
    /// with no duration.
    fn synthetic_outcomes() -> [AttackOutcome; 2] {
        let landed = AttackOutcome {
            success: true,
            observed_shift: -500.0,
            duration_secs: Some(600.0),
            packets_sent: 10,
            frag_drops: 2,
            verify_drops: 1,
            total_drops: 3,
        };
        [landed.clone(), AttackOutcome { success: false, duration_secs: None, ..landed }]
    }

    /// Every spec of an attack scan projected with each synthetic verdict:
    /// the record shape without running a simulation.
    fn synthetic_records<P: Sync, S: Send>(scan: &Scan<P, S, AttackOutcome>) -> Vec<Record> {
        (0..scan.trials)
            .flat_map(|idx| {
                let spec = (scan.spec_at)(&scan.pop, idx);
                synthetic_outcomes().map(|o| (scan.record)(&spec, &o))
            })
            .collect()
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
            // The attack tables take minutes of simulation per trial (the
            // determinism and golden-digest tests run them); their record
            // projections are checked on synthetic verdicts.
            let records = match s.name {
                "table1" => synthetic_records(&table1(scale)),
                "table2" => synthetic_records(&table2(scale)),
                _ => vec![s.build(scale).run_trial(0)],
            };
            assert!(!records.is_empty(), "{}: no trials", s.name);
            for record in records {
                // Encoding asserts arity; decoding asserts kinds.
                let line = encode_line(s.schema, &record);
                let decoded =
                    decode_line(s.schema, &line).unwrap_or_else(|e| panic!("{}: {e}", s.name));
                assert_eq!(decoded, record, "{}: {line}", s.name);
            }
        }
    }

    #[test]
    fn a_failed_attack_encodes_its_duration_as_null() {
        let scan = table2(Scale::quick());
        let lines: Vec<_> =
            synthetic_records(&scan).iter().map(|r| encode_line(TABLE2_SCHEMA, r)).collect();
        assert_eq!(lines.len(), 2 * 4);
        assert!(lines[0].contains("\"duration_mins\":10,"), "{}", lines[0]);
        assert!(lines[1].contains("\"duration_mins\":null,"), "{}", lines[1]);
        assert!(lines[1].contains("\"success\":false,"), "{}", lines[1]);
    }

    #[test]
    fn chronos_bound_records_cross_at_11() {
        let c = chronos_bound(Scale::quick());
        assert_eq!(c.trials(), 24);
        let success = |idx: usize| match c.run_trial(idx).0[4] {
            Value::Bool(b) => b,
            ref v => panic!("expected bool, got {v:?}"),
        };
        assert!(success(11));
        assert!(!success(12));
        assert_eq!(c.trial(11), (11, true));
    }
}
