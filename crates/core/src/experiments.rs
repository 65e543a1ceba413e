//! One function per table and figure of the paper's evaluation. Each
//! returns a typed report whose `Display` prints rows in the paper's
//! layout; the examples call these.

use core::fmt;

use attack::prelude::RuntimeScenario;
use measure::prelude::*;
use netsim::time::SimDuration;
use ntp::prelude::{ClientKind, ClientProfile};
use serde::Serialize;

use crate::analysis::{self, Table3Row, P_RATE};
use crate::runner::TrialRunner;
use crate::scenario::{run_boot_time_attack, run_runtime_attack, AttackOutcome, ScenarioConfig};

/// Sizing knobs for the measurement experiments: `quick` for tests and CI,
/// `paper` for full-scale regeneration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Scale {
    /// Open resolvers surveyed (paper: 1 583 045 probed / 646 212 verified).
    pub resolvers: usize,
    /// Domains scanned for Fig. 5 (paper: 877 071 nameservers).
    pub domains: usize,
    /// Fraction of the paper's ad-study client counts.
    pub ad_fraction: f64,
    /// Web-client resolvers for §VIII-B3 (paper: 18 668).
    pub shared: usize,
    /// Pool servers for §VII-A (paper: 2 432).
    pub pool_servers: usize,
    /// Worker threads for the parallel trial runner and the scans.
    pub workers: usize,
    /// Master seed.
    pub seed: u64,
}

/// Seed salts: each scan derives its population seed and its per-item
/// scan-seed base by XOR-ing one of these into the master seed, so the
/// streams are distinct but reproducible. The campaign scenario registry
/// (`crates/campaign`) must derive the **same** trials as the drivers in
/// this module, so both read these constants — never retype the numbers.
pub mod salts {
    /// Fig. 5 domain-nameserver population.
    pub const FIG5_POP: u64 = 0xF5;
    /// Fig. 5 per-nameserver scan seeds.
    pub const FIG5_SCAN: u64 = 0xF55;
    /// §VII-B pool-nameserver population.
    pub const POOL_NS_POP: u64 = 0xB;
    /// §VII-B per-nameserver scan seeds.
    pub const POOL_NS_SCAN: u64 = 0xBB;
    /// Table IV / Fig. 6 / Fig. 7 per-resolver scan seeds (the resolver
    /// population uses the unsalted master seed).
    pub const SNOOP_SCAN: u64 = 0xA;
    /// Table V ad-client population.
    pub const TABLE5_POP: u64 = 0x5;
    /// Table V per-client scan seeds.
    pub const TABLE5_SCAN: u64 = 0x55;
    /// §VII-A pool-server population.
    pub const RATELIMIT_POP: u64 = 0x7A;
    /// §VII-A per-server scan seeds.
    pub const RATELIMIT_SCAN: u64 = 0x7AA;
    /// §VIII-B3 shared-resolver population.
    pub const SHARED_POP: u64 = 0x8B;
    /// §VIII-B3 scan seed.
    pub const SHARED_SCAN: u64 = 0x8BB;
}

/// The figure histogram shapes, shared between the in-process formatters
/// below and the campaign registry's `HistU64`/`HistF64` schema
/// declarations (`crates/campaign`) — both must bucket identically, so
/// both read these constants, never retyped numbers.
pub mod figspec {
    /// Fig. 6 TTL bucket width (seconds).
    pub const FIG6_BUCKET: u32 = 10;
    /// Fig. 6 TTL range top (the A-record TTL, 150 s).
    pub const FIG6_MAX: u32 = 150;
    /// Fig. 7 timing bucket width (ms).
    pub const FIG7_BUCKET_MS: f64 = 25.0;
    /// Fig. 7 clamp (± ms): samples outside clamp into the edge buckets.
    pub const FIG7_CLAMP_MS: f64 = 200.0;
}

impl Scale {
    /// Small sizes for fast runs (seconds) — what CI and the test suite
    /// use everywhere. Populations are generated lazily per index, but at
    /// this scale materializing them is also fine.
    pub fn quick() -> Self {
        Scale {
            resolvers: 300,
            domains: 800,
            ad_fraction: 0.03,
            shared: 500,
            pool_servers: 400,
            workers: 8,
            seed: 2020,
        }
    }

    /// The paper's true population sizes — including the full 1 583 045
    /// open resolvers of the Table IV / Fig. 6 / Fig. 7 survey. Runs at
    /// this scale go through the campaign layer (`campaign run
    /// table4_snoop --scale paper`), which generates each resolver spec
    /// lazily from its trial index and aggregates online, so memory stays
    /// bounded; wall-clock is CPU-bound (hours on one box, shardable).
    /// The in-process `resolver_survey` driver materializes its
    /// population and is only meant for [`Scale::quick`]-sized runs.
    pub fn paper() -> Self {
        Scale {
            resolvers: 1_583_045,
            domains: 50_000,
            ad_fraction: 1.0,
            shared: SHARED_STUDY_SIZE,
            pool_servers: POOL_SCAN_SIZE,
            workers: 8,
            seed: 2020,
        }
    }
}

// ---------------------------------------------------------------- Table I

/// One Table I row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Client name.
    pub client: &'static str,
    /// Pool usage share (None = "not listed").
    pub pool_share: Option<f64>,
    /// Boot-time attack applies (verified live in-simulator).
    pub boot_time: bool,
    /// Run-time attack applies (None = "n/a").
    pub run_time: Option<bool>,
    /// Observed boot-time shift from the live verification.
    pub observed_boot_shift: f64,
}

/// One Table I row: the full boot-time attack against one client kind, in
/// its own seeded simulation. A pure function of `(seed, kind)` — the
/// campaign registry and the sweep below both call this.
pub fn table1_row(seed: u64, kind: ClientKind) -> Table1Row {
    let profile = ClientProfile::for_kind(kind);
    let outcome = run_boot_time_attack(
        ScenarioConfig { seed: seed ^ kind as u64, ..ScenarioConfig::default() },
        kind,
    );
    Table1Row {
        client: kind.name(),
        pool_share: kind.pool_share(),
        boot_time: outcome.success,
        run_time: profile.vulnerable_run_time(),
        observed_boot_shift: outcome.observed_shift,
    }
}

/// Table I: attack scenarios for popular NTP clients. Boot-time entries are
/// verified by running the full attack in-simulator per client; the trials
/// are independent, so they fan across `workers` threads and merge in
/// client order — results are bit-identical for any worker count.
pub fn table1(seed: u64, workers: usize) -> Vec<Table1Row> {
    let kinds = ClientKind::all();
    TrialRunner::new(workers).run(&kinds, |_, &kind| table1_row(seed, kind))
}

/// Formats Table I.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "TABLE I — ATTACK SCENARIOS FOR POPULAR NTP CLIENTS\n\
         client      pool-share  boot-time  run-time  (observed boot shift)\n",
    );
    for r in rows {
        let share =
            r.pool_share.map(|s| format!("{:5.1}%", s * 100.0)).unwrap_or_else(|| "  n/l ".into());
        let run = match r.run_time {
            Some(true) => "yes",
            Some(false) => "no ",
            None => "n/a",
        };
        out.push_str(&format!(
            "{:<11} {share}      {:<9} {run}       {:+.1}s\n",
            r.client,
            if r.boot_time { "yes" } else { "NO!" },
            r.observed_boot_shift
        ));
    }
    out
}

// --------------------------------------------------------------- Table II

/// One Table II row.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Client under attack.
    pub client: &'static str,
    /// Scenario label (P1/P2).
    pub scenario: &'static str,
    /// Attack duration in minutes (None: did not land within the budget).
    pub duration_mins: Option<f64>,
    /// The paper's measured duration, for comparison.
    pub paper_mins: f64,
    /// Full outcome.
    pub outcome: AttackOutcome,
}

/// One Table II case: which client is attacked, how the attacker learns
/// its upstreams, and the paper's measured duration for comparison.
#[derive(Debug, Clone)]
pub struct Table2Case {
    /// Client display name.
    pub client: &'static str,
    /// Client model under attack.
    pub kind: ClientKind,
    /// Upstream-discovery scenario (P1 known set / P2 refid probing).
    pub scenario: RuntimeScenario,
    /// Scenario label as printed in the table.
    pub label: &'static str,
    /// The paper's measured duration in minutes.
    pub paper_mins: f64,
}

/// The four Table II cases, in the paper's row order.
pub fn table2_cases() -> Vec<Table2Case> {
    vec![
        Table2Case {
            client: "NTPd",
            kind: ClientKind::Ntpd,
            scenario: RuntimeScenario::RefidDiscovery {
                probe_interval: SimDuration::from_secs(60),
            },
            label: "P2",
            paper_mins: 47.0,
        },
        Table2Case {
            client: "NTPd",
            kind: ClientKind::Ntpd,
            scenario: p1_scenario(),
            label: "P1",
            paper_mins: 17.0,
        },
        Table2Case {
            client: "openntpd",
            kind: ClientKind::OpenNtpd,
            scenario: p1_scenario(),
            label: "P1",
            paper_mins: 84.0,
        },
        Table2Case {
            client: "chrony",
            kind: ClientKind::Chrony,
            scenario: p1_scenario(),
            label: "P1",
            paper_mins: 57.0,
        },
    ]
}

/// One Table II row: the full end-to-end run-time attack for one case. A
/// pure function of `(seed, case)` — the campaign registry and the sweep
/// below both call this.
pub fn table2_row(seed: u64, case: &Table2Case) -> Table2Row {
    let outcome = run_runtime_attack(
        ScenarioConfig { seed: seed ^ case.kind as u64, ..ScenarioConfig::default() },
        case.kind,
        case.scenario.clone(),
    );
    Table2Row {
        client: case.client,
        scenario: case.label,
        duration_mins: outcome.duration_secs.map(|s| s / 60.0),
        paper_mins: case.paper_mins,
        outcome,
    }
}

/// Table II: run-time attack durations. Each row is a full end-to-end
/// simulation: convergence, rate-limit abuse, DNS poisoning, redirection,
/// clock step. Rows are independent trials fanned across `workers` threads
/// and merged in case order (bit-identical for any worker count).
pub fn table2(seed: u64, workers: usize) -> Vec<Table2Row> {
    let cases = table2_cases();
    TrialRunner::new(workers).run(&cases, |_, case| table2_row(seed, case))
}

fn p1_scenario() -> RuntimeScenario {
    let servers = (1..=8u32).map(|i| std::net::Ipv4Addr::from(0xC000_0200 + i)).collect();
    RuntimeScenario::KnownUpstreams { servers }
}

/// Formats Table II.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "TABLE II — RUN-TIME ATTACK DURATION AGAINST DIFFERENT CLIENTS\n\
         client      scenario  measured   paper   shift\n",
    );
    for r in rows {
        let measured =
            r.duration_mins.map(|m| format!("{m:5.1} min")).unwrap_or_else(|| "  failed ".into());
        out.push_str(&format!(
            "{:<11} {:<9} {measured}  {:>3.0} min  {:+.1}s\n",
            r.client, r.scenario, r.paper_mins, r.outcome.observed_shift
        ));
    }
    out
}

// -------------------------------------------------------------- Table III

/// Table III: vulnerable-state probabilities (closed form at p = 38 %).
pub fn table3() -> Vec<Table3Row> {
    analysis::table3(P_RATE)
}

/// Formats Table III.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "TABLE III — PROBABILITY OF A VULNERABLE STATE (p_rate = 38%)\n\
         m   n=max(ceil(m/2),m-2)   P1(n)    P2(m,n)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<3} {:<21} {:5.1}%   {:5.1}%\n",
            r.m,
            r.n,
            r.p1 * 100.0,
            r.p2 * 100.0
        ));
    }
    out
}

// --------------------------------------------- Table IV + Fig. 6 + Fig. 7

/// Runs the open-resolver survey once; Table IV, Fig. 6 and Fig. 7 all
/// read from it. Each resolver is probed in its own mini-simulation with a
/// seed derived from its population index, fanned across the trial runner
/// inside [`measure::snoop::run_survey`]: the sweep is bit-identical for
/// any worker count.
pub fn resolver_survey(scale: Scale) -> SurveyResult {
    let population = open_resolvers(scale.resolvers, scale.seed);
    measure::snoop::run_survey(&population, scale.seed ^ salts::SNOOP_SCAN, scale.workers)
}

/// Formats Table IV from a survey.
pub fn format_table4(survey: &SurveyResult) -> String {
    let labels = [
        "pool.ntp.org IN NS",
        "pool.ntp.org IN A",
        "0.pool.ntp.org IN A",
        "1.pool.ntp.org IN A",
        "2.pool.ntp.org IN A",
        "3.pool.ntp.org IN A",
    ];
    let mut out = format!(
        "TABLE IV — pool.ntp.org CACHING STATE IN TESTED OPEN RESOLVERS\n\
         (probed {}, verified {})\n\
         query                    cached     absolute\n",
        survey.probed, survey.verified
    );
    for (idx, label) in labels.iter().enumerate() {
        out.push_str(&format!(
            "{label:<24} {:5.2}%    {}\n",
            survey.cached_fraction(idx) * 100.0,
            survey.cached_counts[idx]
        ));
    }
    out.push_str(&format!(
        "fragmented-response acceptance: {:.1}%\n",
        survey.fragment_fraction() * 100.0
    ));
    out
}

/// Formats Fig. 6 (TTL histogram of cached pool A records).
pub fn format_fig6(survey: &SurveyResult) -> String {
    let mut out =
        String::from("FIG. 6 — TTL VALUES OF CACHED NTP POOL RECORDS\nttl-bucket  count\n");
    for (bucket, count) in survey.ttl_histogram(figspec::FIG6_BUCKET, figspec::FIG6_MAX) {
        out.push_str(&format!(
            "{bucket:>3}-{:>3}s    {count}\n",
            bucket + figspec::FIG6_BUCKET - 1
        ));
    }
    out
}

/// Formats Fig. 7 (t_first − t_avg histogram).
pub fn format_fig7(survey: &SurveyResult) -> String {
    let mut out = String::from(
        "FIG. 7 — LATENCY DIFFERENCE t_first - t_avg (pool.ntp.org IN NS)\nbucket(ms)  count\n",
    );
    for (lo, count) in survey.timing_histogram(figspec::FIG7_BUCKET_MS, figspec::FIG7_CLAMP_MS) {
        out.push_str(&format!("{lo:>6.0}      {count}\n"));
    }
    out
}

// ---------------------------------------------------------------- Table V

/// Runs the ad study.
pub fn table5(scale: Scale) -> AdStudyResult {
    let population = ad_clients_scaled(scale.seed ^ salts::TABLE5_POP, scale.ad_fraction);
    measure::adstudy::run_study(&population, scale.seed ^ salts::TABLE5_SCAN, scale.workers)
}

/// Formats Table V.
pub fn format_table5(result: &AdStudyResult) -> String {
    let mut out = String::from(
        "TABLE V — RESULTS OF CLIENT RESOLVER STUDY USING ADS\n\
         group              tiny(68B)        any-size        total\n",
    );
    for row in &result.rows {
        out.push_str(&format!(
            "{:<18} {:>5} {:5.2}%    {:>5} {:5.2}%   {:>5}\n",
            row.label,
            row.tiny,
            Table5Row::pct(row.tiny, row.total),
            row.any,
            Table5Row::pct(row.any, row.total),
            row.total
        ));
    }
    let (lo, hi) = result.validation_range();
    out.push_str(&format!("DNSSEC validation ranges between {lo:.2}% and {hi:.2}%\n"));
    out
}

// ----------------------------------------------------------------- Fig. 5

/// Runs the 1M-domain PMTUD scan (scaled).
pub fn fig5(scale: Scale) -> PmtudScanResult {
    let population = domain_nameservers(scale.domains, scale.seed ^ salts::FIG5_POP);
    measure::pmtud::run_scan(&population, scale.seed ^ salts::FIG5_SCAN, scale.workers)
}

/// Runs the §VII-B pool-nameserver scan (30 NS).
pub fn pool_ns_scan(scale: Scale) -> PmtudScanResult {
    let population = pool_nameservers(scale.seed ^ salts::POOL_NS_POP);
    measure::pmtud::run_scan(&population, scale.seed ^ salts::POOL_NS_SCAN, scale.workers)
}

/// Formats Fig. 5.
pub fn format_fig5(result: &PmtudScanResult) -> String {
    let mut out = format!(
        "FIG. 5 — CDF OF MINIMUM FRAGMENT SIZES (fragmenting unsigned domains)\n\
         scanned {} domains; fragment-vulnerable {} ({:.2}%)\n\
         min-fragment-size   CDF\n",
        result.scanned,
        result.vulnerable,
        result.vulnerable_fraction() * 100.0
    );
    for &(threshold, _) in &result.cdf {
        out.push_str(&format!(
            "{threshold:>6} B            {:5.1}%\n",
            result.cdf_at(threshold) * 100.0
        ));
    }
    out
}

// ------------------------------------------------------- Chronos (§VI-C)

/// One row of the Chronos bound sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ChronosBoundRow {
    /// Honest lookups completed before poisoning.
    pub n: u32,
    /// Honest servers in the pool (4N).
    pub honest: u32,
    /// Attacker addresses injected.
    pub malicious: u32,
    /// Attacker pool fraction.
    pub fraction: f64,
    /// Whether the attack succeeds (2/3 bound).
    pub success: bool,
}

/// The §VI-C sweep: N = 0..=23 honest lookups before the poisoning lands.
pub fn chronos_bound() -> Vec<ChronosBoundRow> {
    (0..24)
        .map(|n| ChronosBoundRow {
            n,
            honest: 4 * n,
            malicious: 89,
            fraction: analysis::chronos_attacker_fraction(n, 89),
            success: analysis::chronos_attack_succeeds(n, 89),
        })
        .collect()
}

/// Formats the Chronos bound sweep.
pub fn format_chronos_bound(rows: &[ChronosBoundRow]) -> String {
    let mut out = String::from(
        "CHRONOS POOL POISONING (§VI-C): 89 malicious addresses vs 4N honest\n\
         N    honest  malicious  attacker-fraction  attack-succeeds\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:<7} {:<10} {:5.1}%             {}\n",
            r.n,
            r.honest,
            r.malicious,
            r.fraction * 100.0,
            if r.success { "YES" } else { "no" }
        ));
    }
    let max_n = analysis::chronos_max_n(89);
    out.push_str(&format!("=> attack succeeds iff poisoned by lookup N <= {max_n} (paper: 11)\n"));
    out
}

// ----------------------------------------------------------- §VII-A scan

/// Runs the rate-limiting scan.
pub fn ratelimit_scan(scale: Scale) -> RateLimitScanResult {
    let population = pool_servers(scale.pool_servers, scale.seed ^ salts::RATELIMIT_POP);
    measure::ratelimit::run_scan(&population, scale.seed ^ salts::RATELIMIT_SCAN, scale.workers)
}

/// Formats the §VII-A scan.
pub fn format_ratelimit(result: &RateLimitScanResult) -> String {
    format!(
        "§VII-A — RATE LIMITING OF pool.ntp.org SERVERS\n\
         scanned: {}\n\
         KoD senders:        {} ({:.0}%)   [paper: 780 (33%)]\n\
         stopped responding: {} ({:.0}%)   [paper: 904 (38%)]\n\
         open config iface:  {} ({:.1}%)  [paper: 5.3%]\n",
        result.scanned,
        result.kod_senders,
        result.kod_fraction() * 100.0,
        result.rate_limiting,
        result.rate_limit_fraction() * 100.0,
        result.config_open,
        result.config_fraction() * 100.0
    )
}

// --------------------------------------------------------- §VIII-B3 scan

/// Runs the shared-resolver discovery study.
pub fn shared_scan(scale: Scale) -> SharedScanResult {
    let population = shared_resolvers(scale.shared, scale.seed ^ salts::SHARED_POP);
    measure::shared::run_scan(&population, scale.seed ^ salts::SHARED_SCAN)
}

/// Formats the §VIII-B3 result.
pub fn format_shared(result: &SharedScanResult) -> String {
    let pct = |n: usize| n as f64 * 100.0 / result.total.max(1) as f64;
    format!(
        "§VIII-B3 — SHARED DNS RESOLVERS (of {} web-client resolvers)\n\
         web clients only:        {} ({:.1}%)  [paper: 86.2%]\n\
         web + SMTP:              {} ({:.1}%)  [paper: 11.3%]\n\
         open resolvers:          {} ({:.1}%)  [paper: 2.3%]\n\
         open + SMTP:             {} ({:.1}%)  [paper: 0.2%]\n\
         => attacker-triggerable: {} ({:.1}%)  [paper: >= 13.8%]\n",
        result.total,
        result.web_only,
        pct(result.web_only),
        result.web_and_smtp,
        pct(result.web_and_smtp),
        result.open,
        pct(result.open),
        result.open_and_smtp,
        pct(result.open_and_smtp),
        result.triggerable(),
        result.triggerable_fraction() * 100.0
    )
}

// -------------------------------------------------------- §IV-A analysis

/// The boot-time fragment budget report.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BootBudget {
    /// Fragments per attack window on Linux (30 s timeout).
    pub linux: u32,
    /// On Windows (60 s timeout).
    pub windows: u32,
}

/// §IV-A: spoofed fragments needed to cover one 150 s TTL window.
pub fn boot_budget() -> BootBudget {
    BootBudget {
        linux: analysis::boot_fragment_budget(150, 30),
        windows: analysis::boot_fragment_budget(150, 60),
    }
}

impl fmt::Display for BootBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "§IV-A — boot-time planting budget per 150s TTL window: \
             {} fragments (Linux, 30s timeout; paper: 5), {} (Windows, 60s)",
            self.linux, self.windows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_formats_every_row() {
        let text = format_table3(&table3());
        assert!(text.contains("38.0%"));
        assert_eq!(text.lines().count(), 2 + 9);
    }

    #[test]
    fn chronos_bound_crosses_at_11() {
        let rows = chronos_bound();
        assert!(rows[11].success);
        assert!(!rows[12].success);
        let text = format_chronos_bound(&rows);
        assert!(text.contains("N <= 11"));
    }

    #[test]
    fn boot_budget_is_5_linux() {
        let b = boot_budget();
        assert_eq!(b.linux, 5);
        assert_eq!(b.windows, 3);
        assert!(b.to_string().contains("5 fragments"));
    }

    #[test]
    fn quick_scale_survey_has_sane_table4() {
        let survey = resolver_survey(Scale { resolvers: 60, ..Scale::quick() });
        let text = format_table4(&survey);
        assert!(text.contains("pool.ntp.org IN A"));
        assert!(survey.verified > 0);
    }
}
