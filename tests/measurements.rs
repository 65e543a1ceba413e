//! The measurement pipeline at quick scale: every table and figure
//! generator must produce paper-shaped output.

use campaign::registry;
use timeshift::prelude::*;

fn quick() -> Scale {
    Scale::quick()
}

#[test]
fn table3_is_exact() {
    let rows = experiments::table3();
    assert_eq!(rows.len(), 9);
    // Spot-check the paper's corner values.
    assert!((rows[0].p1 - 0.38).abs() < 1e-9);
    assert!((rows[5].p2 * 100.0 - 15.3).abs() < 0.1, "P2(6,4) = {}", rows[5].p2 * 100.0);
}

#[test]
fn table4_survey_shape() {
    let scale = Scale { resolvers: 250, ..quick() };
    let survey: SurveyResult = registry::snoop(scale).fold(scale.workers);
    assert!(survey.verified >= 50, "verified {}", survey.verified);
    // The apex A row (~69 %) must exceed the NS row (~58 %).
    assert!(
        survey.cached_fraction(1) > survey.cached_fraction(0),
        "A {} vs NS {}",
        survey.cached_fraction(1),
        survey.cached_fraction(0)
    );
    // Fig. 6: snooped TTLs are spread across [0, 150], not clustered.
    let hist = survey.ttl_histogram(30, 150);
    let nonzero = hist.iter().filter(|(_, c)| *c > 0).count();
    assert!(nonzero >= 4, "TTL histogram must cover the range: {hist:?}");
    // Fig. 7: the timing differences straddle zero and large values — no
    // clean separator (the paper's negative result).
    let diffs = &survey.timing_diffs_ms;
    assert!(!diffs.is_empty());
    let spread = diffs.iter().cloned().fold(f64::MIN, f64::max)
        - diffs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread > 50.0, "timing spread {spread} ms");
}

#[test]
fn fig5_cdf_steps_at_548() {
    let scale = Scale { domains: 700, ..quick() };
    let result: PmtudScanResult = registry::fig5(scale).fold(scale.workers);
    let at_292 = result.cdf_at(292);
    let at_548 = result.cdf_at(548);
    assert!(at_548 > 0.7, "CDF(548) = {at_548} (paper: 83.2 %)");
    assert!(at_292 < 0.2, "CDF(292) = {at_292} (paper: 7.05 %)");
    assert!((result.vulnerable_fraction() - 0.0766).abs() < 0.03);
}

#[test]
fn pool_ns_scan_is_16_of_30_and_unsigned() {
    let result: PmtudScanResult = registry::pmtud(quick()).fold(quick().workers);
    assert_eq!(result.scanned, 30);
    let below = result.cdf.iter().find(|(t, _)| *t == 548).map(|(_, c)| *c).unwrap_or(0);
    assert_eq!(below, 16, "§VII-B: 16 of 30 fragment ≤ 548 B");
    assert_eq!(result.signed, 0, "§VII-B: none support DNSSEC");
}

#[test]
fn ratelimit_scan_recovers_38_33() {
    let scale = Scale { pool_servers: 350, ..quick() };
    let result: RateLimitScanResult = registry::ratelimit(scale).fold(scale.workers);
    assert!(
        (result.rate_limit_fraction() - 0.38).abs() < 0.07,
        "rate limiting {} (paper 38%)",
        result.rate_limit_fraction()
    );
    assert!(
        (result.kod_fraction() - 0.33).abs() < 0.07,
        "KoD {} (paper 33%)",
        result.kod_fraction()
    );
    assert!(result.kod_senders <= result.rate_limiting);
}

#[test]
fn table5_shape_and_validation_range() {
    let scale = Scale { ad_fraction: 0.025, ..quick() };
    let result: AdStudyResult = registry::table5(scale).run(scale.workers).into_iter().collect();
    let all = result.rows.iter().find(|r| r.label == "ALL").expect("ALL row");
    let tiny = measure::adstudy::Table5Row::pct(all.tiny, all.total);
    let any = measure::adstudy::Table5Row::pct(all.any, all.total);
    assert!((52.0..78.0).contains(&tiny), "tiny acceptance {tiny}% (paper 64%)");
    assert!((75.0..99.0).contains(&any), "any acceptance {any}% (paper 91%)");
    assert!(any > tiny, "acceptance grows with fragment size");
    let (lo, hi) = result.validation_range();
    assert!(lo < hi && lo > 5.0 && hi < 45.0, "validation {lo}..{hi} (paper 19.14–28.94)");
}

#[test]
fn shared_scan_triggerable_fraction() {
    let scale = Scale { shared: 600, ..quick() };
    let result: SharedScanResult = registry::shared(scale).fold(scale.workers);
    assert!(
        (result.triggerable_fraction() - 0.138).abs() < 0.04,
        "triggerable {} (paper ≥13.8%)",
        result.triggerable_fraction()
    );
    assert!(result.web_only > result.triggerable());
}

#[test]
fn all_formatters_produce_output() {
    let scale = Scale {
        resolvers: 60,
        domains: 120,
        ad_fraction: 0.01,
        shared: 80,
        pool_servers: 60,
        ..quick()
    };
    let survey: SurveyResult = registry::snoop(scale).fold(scale.workers);
    assert!(experiments::format_table4(&survey).contains("TABLE IV"));
    assert!(experiments::format_fig6(&survey).contains("FIG. 6"));
    assert!(experiments::format_fig7(&survey).contains("FIG. 7"));
    assert!(experiments::format_table3(&experiments::table3()).contains("TABLE III"));
    let fig5: PmtudScanResult = registry::fig5(scale).fold(scale.workers);
    assert!(experiments::format_fig5(&fig5).contains("FIG. 5"));
    let ratelimit: RateLimitScanResult = registry::ratelimit(scale).fold(scale.workers);
    assert!(experiments::format_ratelimit(&ratelimit).contains("§VII-A"));
    let shared: SharedScanResult = registry::shared(scale).fold(scale.workers);
    assert!(experiments::format_shared(&shared).contains("§VIII-B3"));
    let bound = registry::chronos_bound(scale).run(scale.workers);
    assert!(experiments::format_chronos_bound(&bound).contains("N <= 11"));
    assert!(experiments::boot_budget().to_string().contains("5 fragments"));
}
