//! The paper's tables and figures in paper layout: the Table II cases,
//! the closed-form reports (Table III, the §IV-A budget), and one
//! `format_*` per artifact. Every trial-based artifact (Table I, Table II,
//! the §VI-C Chronos bound and the measurement scans: Fig. 5, §VII-B,
//! Table IV / Fig. 6 / Fig. 7, Table V, §VII-A, §VIII-B3) is defined once,
//! as a typed scan in the campaign scenario registry
//! (`campaign::registry`); the formatters here render the `(spec,
//! verdict)` pairs those scans return or the typed results they fold to.

use core::fmt;

use attack::prelude::RuntimeScenario;
use measure::prelude::*;
use netsim::time::SimDuration;
use ntp::prelude::ClientKind;

use crate::analysis::{self, Table3Row, P_RATE};
use crate::scenario::{AttackOutcome, MALICIOUS_COUNT};

/// Sizing knobs for the measurement experiments: `quick` for tests and CI,
/// `paper` for full-scale regeneration.
#[derive(Debug, Clone, Copy)]
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
/// streams are distinct but reproducible. The scan constructors of the
/// campaign scenario registry (`crates/campaign`) read these; tools that
/// re-derive a scan's seeds (the population pins, the benchmark probes)
/// read them too — never retype the numbers.
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
    /// §VIII-B3 per-resolver scan seeds.
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
    /// open resolvers of the Table IV / Fig. 6 / Fig. 7 survey. Every
    /// registry scan generates each spec lazily from its trial index, so
    /// the population is never materialized. A sharded campaign (`campaign
    /// run table4_snoop --scale paper`) also aggregates online, so memory
    /// stays bounded; wall-clock is CPU-bound and shards across workers
    /// (`table4_snoop --scale paper --shards 2 --workers 2` measured
    /// 31–40 s on 2 vCPUs). An in-process `Scan::run` keeps every
    /// `(spec, verdict)` pair, so it suits [`Scale::quick`]-sized runs.
    pub fn paper() -> Self {
        Scale {
            resolvers: 1_583_045,
            domains: 877_071,
            ad_fraction: 1.0,
            shared: SHARED_STUDY_SIZE,
            pool_servers: POOL_SCAN_SIZE,
            workers: 8,
            seed: 2020,
        }
    }
}

// ---------------------------------------------------------------- Table I

/// Formats Table I from the `table1` scan's `((kind, seed), outcome)`
/// pairs: the pool share and the run-time column come from the client
/// model, the boot-time column from the live attack.
pub fn format_table1(rows: &[((ClientKind, u64), AttackOutcome)]) -> String {
    let mut out = String::from(
        "TABLE I — ATTACK SCENARIOS FOR POPULAR NTP CLIENTS\n\
         client      pool-share  boot-time  run-time  (observed boot shift)\n",
    );
    for ((kind, _), outcome) in rows {
        let share = kind
            .pool_share()
            .map(|s| format!("{:5.1}%", s * 100.0))
            .unwrap_or_else(|| "  n/l ".into());
        let run = match kind.vulnerable_run_time() {
            Some(true) => "yes",
            Some(false) => "no ",
            None => "n/a",
        };
        out.push_str(&format!(
            "{:<11} {share}      {:<9} {run}       {:+.1}s\n",
            kind.name(),
            if outcome.success { "yes" } else { "NO!" },
            outcome.observed_shift
        ));
    }
    out
}

// --------------------------------------------------------------- Table II

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

fn p1_scenario() -> RuntimeScenario {
    RuntimeScenario::KnownUpstreams { servers: crate::scenario::pool_servers() }
}

/// Formats Table II from the `table2` scan's `((case, seed), outcome)`
/// pairs.
pub fn format_table2(rows: &[((Table2Case, u64), AttackOutcome)]) -> String {
    let mut out = String::from(
        "TABLE II — RUN-TIME ATTACK DURATION AGAINST DIFFERENT CLIENTS\n\
         client      scenario  measured   paper   shift\n",
    );
    for ((case, _), outcome) in rows {
        let measured = outcome
            .duration_secs
            .map(|s| format!("{:5.1} min", s / 60.0))
            .unwrap_or_else(|| "  failed ".into());
        out.push_str(&format!(
            "{:<11} {:<9} {measured}  {:>3.0} min  {:+.1}s\n",
            case.client, case.label, case.paper_mins, outcome.observed_shift
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

/// Formats the Chronos bound sweep from the `chronos_bound` scan's
/// `(n, attack succeeds)` pairs: `n` honest lookups of 4 addresses each
/// against the [`MALICIOUS_COUNT`] addresses of the poisoned response.
pub fn format_chronos_bound(rows: &[(u32, bool)]) -> String {
    let mut out = String::from(
        "CHRONOS POOL POISONING (§VI-C): 89 malicious addresses vs 4N honest\n\
         N    honest  malicious  attacker-fraction  attack-succeeds\n",
    );
    for &(n, success) in rows {
        out.push_str(&format!(
            "{:<4} {:<7} {:<10} {:5.1}%             {}\n",
            n,
            4 * n,
            MALICIOUS_COUNT,
            chronos::bound::attacker_fraction(n, MALICIOUS_COUNT) * 100.0,
            if success { "YES" } else { "no" }
        ));
    }
    let max_n = chronos::bound::max_n(MALICIOUS_COUNT);
    out.push_str(&format!("=> attack succeeds iff poisoned by lookup N <= {max_n} (paper: 11)\n"));
    out
}

// ----------------------------------------------------------- §VII-A scan

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
#[derive(Debug, Clone, Copy)]
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
        let rows: Vec<_> = (0..chronos::LOOKUPS)
            .map(|n| (n, chronos::bound::attack_succeeds(n, MALICIOUS_COUNT)))
            .collect();
        assert!(rows[11].1);
        assert!(!rows[12].1);
        let text = format_chronos_bound(&rows);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 24 + 1);
        assert!(lines[2 + 11].ends_with("YES") && lines[2 + 12].ends_with("no"));
        assert!(text.contains("N <= 11"));
    }

    /// A synthetic attack verdict: landed after `duration_secs` with the
    /// paper's -500 s shift, or failed with no shift.
    fn outcome(duration_secs: Option<f64>) -> AttackOutcome {
        AttackOutcome {
            success: duration_secs.is_some(),
            observed_shift: if duration_secs.is_some() { -500.0 } else { 0.0 },
            duration_secs,
            packets_sent: 1,
            frag_drops: 0,
            verify_drops: 0,
            total_drops: 0,
        }
    }

    #[test]
    fn table1_prints_every_client_and_marks_failures() {
        let rows = ClientKind::all()
            .map(|kind| ((kind, 0), outcome((kind != ClientKind::Chrony).then_some(60.0))));
        let text = format_table1(&rows);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 7, "{text}");
        let row = |name: &str| *lines.iter().find(|l| l.starts_with(name)).expect(name);
        assert!(row("chrony ").contains("NO!"), "{text}");
        assert!(row("ntpdate ").contains("yes"), "{text}");
        assert_eq!(text.matches("NO!").count(), 1, "{text}");
        assert!(row("systemd ").contains("n/l"), "{text}");
        assert_eq!(text.matches("n/l").count(), 1, "{text}");
        assert!(row("NTPd ").contains("26.4%"), "{text}");
    }

    #[test]
    fn table2_prints_failed_for_a_trial_without_duration() {
        let rows: Vec<_> = table2_cases()
            .into_iter()
            .enumerate()
            .map(|(i, case)| ((case, 0), outcome((i != 2).then_some(600.0))))
            .collect();
        let text = format_table2(&rows);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 4, "{text}");
        assert!(lines[2 + 2].starts_with("openntpd") && lines[2 + 2].contains("failed"), "{text}");
        assert_eq!(text.matches("failed").count(), 1, "{text}");
        assert!(lines[2].contains(" 10.0 min") && lines[2].contains("47 min"), "{text}");
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
        let scale = Scale { resolvers: 60, ..Scale::quick() };
        let base = scale.seed ^ salts::SNOOP_SCAN;
        let survey: SurveyResult = (0..scale.resolvers)
            .map(|idx| scan_resolver(&open_resolver_at(scale.seed, idx), scan_seed(base, idx)))
            .collect();
        let text = format_table4(&survey);
        assert!(text.contains("pool.ntp.org IN A"));
        assert!(survey.verified > 0);
    }
}
