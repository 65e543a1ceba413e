//! Differential test: the campaign's streaming histogram aggregation vs.
//! the typed survey result's bucketing.
//!
//! Figs. 6/7 come out two ways — a `table4_snoop` campaign streams the
//! snoop scan's records through [`campaign::stats::Aggregate`], and the
//! in-process `format_fig6`/`format_fig7` bucket the samples of the
//! `SurveyResult` the same scan folds to. Both funnel into
//! `runner::StreamHist` reading the same
//! [`timeshift::experiments::figspec`] constants; this test pins them
//! bucket-for-bucket so a change to either can never silently diverge the
//! paper artifacts.

use campaign::registry;
use campaign::stats::{Aggregate, FieldAgg};
use timeshift::experiments::{figspec, Scale};

/// Streams every `table4_snoop` campaign record through the aggregate and
/// returns it alongside the survey folded from the same scan at the same
/// scale.
fn run_both(scale: Scale) -> (Aggregate, measure::prelude::SurveyResult) {
    let survey = registry::snoop(scale).fold(scale.workers);
    let scenario = registry::find("table4_snoop").expect("table4_snoop registered");
    let campaign = scenario.build(scale);
    let mut agg = Aggregate::new(scenario.schema);
    for idx in 0..campaign.trials() {
        agg.push(&campaign.run_trial(idx));
    }
    (agg, survey)
}

fn hist_field(agg: &Aggregate, field: usize) -> &runner::StreamHist {
    match &agg.fields[field].0 {
        FieldAgg::Num(num) => num
            .hist
            .as_ref()
            .unwrap_or_else(|| panic!("field {field} is not a histogram aggregate: {num:?}")),
        other => panic!("field {field} is not a histogram aggregate: {other:?}"),
    }
}

#[test]
fn fig6_ttl_buckets_match_legacy_survey() {
    let scale = Scale::quick();
    let (agg, survey) = run_both(scale);
    let legacy = survey.ttl_histogram(figspec::FIG6_BUCKET, figspec::FIG6_MAX);

    let ttl = hist_field(&agg, 2); // apex_a_ttl
    assert!(ttl.count() > 0, "quick scale must cache at least one apex record");
    assert_eq!(ttl.counts().len(), legacy.len(), "bucket count");
    for ((lo, n), &(legacy_lo, legacy_n)) in ttl.bins().zip(&legacy) {
        assert_eq!(lo as u32, legacy_lo, "bucket origin");
        assert_eq!(n, legacy_n as u64, "TTL bucket at {lo}");
    }
}

#[test]
fn fig7_timing_buckets_match_legacy_survey() {
    let scale = Scale::quick();
    let (agg, survey) = run_both(scale);
    let legacy = survey.timing_histogram(figspec::FIG7_BUCKET_MS, figspec::FIG7_CLAMP_MS);

    let timing = hist_field(&agg, 4); // timing_diff_ms
    assert!(timing.count() > 0, "quick scale must measure at least one timing diff");
    assert_eq!(timing.counts().len(), legacy.len(), "bucket count");
    for ((lo, n), &(legacy_lo, legacy_n)) in timing.bins().zip(&legacy) {
        assert_eq!(lo.to_bits(), legacy_lo.to_bits(), "bucket origin");
        assert_eq!(n, legacy_n as u64, "timing bucket at {lo}");
    }
}
