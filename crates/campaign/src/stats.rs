//! Online aggregation: every statistic the campaign coordinator reports is
//! computed in one pass over the merged record stream with memory
//! independent of the trial count — Welford mean/variance, Wilson score
//! intervals for success rates, a mergeable [`RankSketch`] for the
//! quantiles of every numeric field, and (for fields declared
//! `HistU64`/`HistF64`) a fixed-bin [`StreamHist`].
//!
//! Welford is a sequential fold: bit-identical results need the merged
//! `(shard, index)`-ordered stream, which the coordinator always feeds it.
//! The sketch and the histogram are pure multiset functions of the
//! samples: `merge(a, b) == merge(b, a)` exactly, and a sharded merge
//! equals the single-stream fold bit-for-bit — the property that makes
//! shard placement free at paper scale (1.58 M records). Every quantile
//! in `summary.json` is within the sketch's 1 % relative error of the
//! exact nearest-rank quantile. The property tests in
//! `tests/stats_props.rs` pin both against exact batch oracles.

pub use runner::StreamHist;

use crate::record::{Field, FieldKind, HistSpec, JsonStr, Record, Schema, Value};

// ------------------------------------------------------------- Welford

/// Welford's online mean/variance, plus exact min/max.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            (self.min, self.max) = (x, x);
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance `m2 / n` (0 below two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 with none).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 with none).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

// ------------------------------------------------------- Rank sketch

/// Exact nearest-rank quantile of a **sorted** slice (the reference the
/// property tests compare [`RankSketch`] against).
pub fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty slice");
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Magnitudes below this collapse into the sketch's zero bucket.
const SKETCH_MIN_MAG: f64 = 1e-9;

/// A mergeable quantile sketch with a relative-error guarantee
/// (DDSketch-style log-width buckets, Masson et al. 2019).
///
/// Samples map to integer keys `⌈ln|x| / ln γ⌉` with `γ = (1+α)/(1−α)`,
/// kept as sorted `(key, count)` buckets per sign plus a zero bucket, so a
/// quantile estimate is within relative error `α` of the exact
/// nearest-rank batch quantile: bucket counts are exact, and the
/// representative value `2γᵏ/(γ+1)` is within `α` of every sample in
/// bucket `k`.
///
/// The state is a pure multiset function of the samples: [`RankSketch::merge`] is bucket-wise counter addition, hence
/// exactly commutative, associative, and order-insensitive — merging
/// per-shard sketches equals the single-stream fold bit-for-bit.
///
/// Memory is `O(log(max/min) / α)` buckets: ~1 k for this workspace's
/// value ranges at the default `α = 1 %`, ≤ ~72 k for the full finite
/// `f64` range — bounded regardless of stream length.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSketch {
    alpha: f64,
    ln_gamma: f64,
    /// Sorted `(key, count)` buckets for negative samples (key of `|x|`).
    neg: Vec<(i32, u64)>,
    /// Count of samples with `|x| <` [`SKETCH_MIN_MAG`].
    zero: u64,
    /// Sorted `(key, count)` buckets for positive samples.
    pos: Vec<(i32, u64)>,
    count: u64,
    min: f64,
    max: f64,
}

impl RankSketch {
    /// A sketch guaranteeing relative error `alpha`, `0 < alpha < 1`.
    pub fn new(alpha: f64) -> RankSketch {
        assert!(alpha > 0.0 && alpha < 1.0, "relative error must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        RankSketch {
            alpha,
            ln_gamma: gamma.ln(),
            neg: Vec::new(),
            zero: 0,
            pos: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default campaign sketch: 1 % relative error.
    pub fn default_error() -> RankSketch {
        RankSketch::new(0.01)
    }

    fn key(&self, magnitude: f64) -> i32 {
        (magnitude.ln() / self.ln_gamma).ceil() as i32
    }

    fn bucket_value(&self, key: i32) -> f64 {
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * gamma.powi(key) / (gamma + 1.0)
    }

    /// Folds one sample in; non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x.abs() < SKETCH_MIN_MAG {
            self.zero += 1;
            return;
        }
        let key = self.key(x.abs());
        let buckets = if x > 0.0 { &mut self.pos } else { &mut self.neg };
        match buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => buckets[i].1 += 1,
            Err(i) => buckets.insert(i, (key, 1)),
        }
    }

    /// Finite samples folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The estimated `p`-quantile (`0 ≤ p ≤ 1`), within relative error
    /// `alpha` of the exact nearest-rank batch quantile; `None` with no
    /// samples. Estimates are clamped into the observed `[min, max]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // Nearest-rank target matching `exact_quantile` (0-based).
        let target = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut acc = 0u64;
        // Ascending sample order: most-negative first — that is the
        // negative buckets by *descending* key (larger key = larger
        // magnitude = smaller value), then zero, then positives ascending.
        for &(key, c) in self.neg.iter().rev() {
            acc += c;
            if acc > target {
                return Some((-self.bucket_value(key)).clamp(self.min, self.max));
            }
        }
        acc += self.zero;
        if acc > target {
            return Some(0.0f64.clamp(self.min, self.max));
        }
        for &(key, c) in &self.pos {
            acc += c;
            if acc > target {
                return Some(self.bucket_value(key).clamp(self.min, self.max));
            }
        }
        // Unreachable for consistent state; fall back to the maximum.
        Some(self.max)
    }

    /// Adds `other`'s buckets into `self` — exactly equivalent to having
    /// pushed both streams into one sketch, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `alpha` — their
    /// key spaces are incompatible, a declaration bug.
    pub fn merge(&mut self, other: &RankSketch) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits(),
            "merging sketches of different relative error"
        );
        for &(key, c) in &other.pos {
            match self.pos.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.pos[i].1 += c,
                Err(i) => self.pos.insert(i, (key, c)),
            }
        }
        for &(key, c) in &other.neg {
            match self.neg.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.neg[i].1 += c,
                Err(i) => self.neg.insert(i, (key, c)),
            }
        }
        self.zero += other.zero;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// --------------------------------------------------- Wilson intervals

/// The 95% Wilson score interval for a binomial proportion — the
/// success-rate confidence interval reported for every boolean field.
/// Returns `(low, high)`; `(0, 1)` with no samples.
pub fn wilson95(successes: u64, n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_984_540_054_f64; // Φ⁻¹(0.975)
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let margin = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    (((centre - margin) / denom).max(0.0), ((centre + margin) / denom).min(1.0))
}

// ----------------------------------------------------- Field aggregates

/// Per-field online aggregate, shaped by the field's declared kind.
#[derive(Debug, Clone)]
pub enum FieldAgg {
    /// Boolean: success counts + Wilson interval at render time.
    Bool {
        /// `true` observations.
        trues: u64,
        /// `false` observations.
        falses: u64,
    },
    /// Numeric (`U64`/`F64`): moments, extremes and a rank sketch
    /// (boxed: the sketch state dwarfs the other variants).
    Num(Box<NumAgg>),
    /// Declared histogram (`HistU64`/`HistF64`): moments plus the
    /// schema-declared fixed-bin histogram and a mergeable rank sketch.
    Hist(Box<HistAgg>),
    /// String: distinct-value counts in first-seen order, capped.
    Str {
        /// `(value, occurrences)`, at most [`STR_DISTINCT_CAP`] entries.
        counts: Vec<(String, u64)>,
        /// Observations dropped after the cap was hit.
        overflow: u64,
    },
}

/// The numeric per-field aggregate state.
#[derive(Debug, Clone)]
pub struct NumAgg {
    /// Mean/variance/min/max.
    pub welford: Welford,
    /// Mergeable rank sketch (1 % relative error) for p50/p90/p99.
    pub sketch: RankSketch,
}

impl NumAgg {
    fn new() -> Box<NumAgg> {
        Box::new(NumAgg { welford: Welford::default(), sketch: RankSketch::default_error() })
    }

    fn push(&mut self, x: f64) {
        self.welford.push(x);
        self.sketch.push(x);
    }
}

/// The per-field aggregate state for a declared histogram field: a
/// numeric field's moments and sketch plus the figure-ready buckets.
/// Everything in here is a pure multiset function of the samples, so the
/// rendered section is identical for any shard split of the stream.
#[derive(Debug, Clone)]
pub struct HistAgg {
    /// Mean/variance/min/max.
    pub welford: Welford,
    /// The schema-declared fixed-bin histogram.
    pub hist: StreamHist,
    /// Mergeable rank sketch (1 % relative error) for p50/p90/p99.
    pub sketch: RankSketch,
}

impl HistAgg {
    fn new(spec: HistSpec) -> Box<HistAgg> {
        Box::new(HistAgg {
            welford: Welford::default(),
            hist: StreamHist::new(spec.lo, spec.width, spec.bins),
            sketch: RankSketch::default_error(),
        })
    }

    fn push(&mut self, x: f64) {
        self.welford.push(x);
        self.hist.push(x);
        self.sketch.push(x);
    }
}

/// Distinct string values tracked per field before overflow counting.
pub const STR_DISTINCT_CAP: usize = 16;

/// The full online aggregate over one campaign's record stream.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Schema the records conform to.
    pub schema: &'static Schema,
    /// Records folded so far.
    pub records: u64,
    /// Per-field aggregates, parallel to the schema.
    pub fields: Vec<(FieldAgg, u64)>, // (aggregate, null count)
}

impl Aggregate {
    /// An empty aggregate for a schema.
    pub fn new(schema: &'static Schema) -> Self {
        let fields = schema
            .iter()
            .map(|f| {
                let agg = match f.kind {
                    FieldKind::Bool => FieldAgg::Bool { trues: 0, falses: 0 },
                    FieldKind::U64 | FieldKind::F64 => FieldAgg::Num(NumAgg::new()),
                    FieldKind::HistU64(spec) | FieldKind::HistF64(spec) => {
                        FieldAgg::Hist(HistAgg::new(spec))
                    }
                    FieldKind::Str => FieldAgg::Str { counts: Vec::new(), overflow: 0 },
                };
                (agg, 0)
            })
            .collect();
        Aggregate { schema, records: 0, fields }
    }

    /// Folds one record in (values parallel to the schema).
    pub fn push(&mut self, record: &Record) {
        self.records += 1;
        for ((agg, nulls), value) in self.fields.iter_mut().zip(&record.0) {
            match (agg, value) {
                (_, Value::Null) => *nulls += 1,
                (FieldAgg::Bool { trues, .. }, Value::Bool(true)) => *trues += 1,
                (FieldAgg::Bool { falses, .. }, Value::Bool(false)) => *falses += 1,
                (FieldAgg::Num(num), v) => match v.as_sample() {
                    Some(sample) => num.push(sample),
                    // A non-numeric value under a numeric field can only
                    // reach here through a schema/value mismatch; count it
                    // as a null rather than crash the coordinator mid-merge.
                    None => *nulls += 1,
                },
                (FieldAgg::Hist(hist), v) => match v.as_sample() {
                    Some(sample) => hist.push(sample),
                    None => *nulls += 1,
                },
                (FieldAgg::Str { counts, overflow }, Value::Str(s)) => {
                    if let Some(entry) = counts.iter_mut().find(|(v, _)| v == s) {
                        entry.1 += 1;
                    } else if counts.len() < STR_DISTINCT_CAP {
                        counts.push((s.clone(), 1));
                    } else {
                        *overflow += 1;
                    }
                }
                // Any other schema/value mismatch: tolerated as a null so
                // `push` is total — the strict decode upstream already
                // rejects malformed records, and an aggregator must never
                // be the thing that kills a supervised merge.
                (_, _) => *nulls += 1,
            }
        }
    }

    /// Renders only the `explain_*`-prefixed fields — the compact
    /// per-campaign failure-explanation aggregate that becomes the
    /// `"explain"` section of `summary.json`. Schemas without explain
    /// fields render an empty array, so the section is always present and
    /// machine-checkable.
    pub fn render_explain_json(&self, indent: &str) -> String {
        let explain: Vec<_> = self
            .schema
            .iter()
            .zip(&self.fields)
            .filter(|(f, _)| f.name.starts_with("explain_"))
            .collect();
        if explain.is_empty() {
            return "[]".into();
        }
        let mut out = String::from("[");
        for (i, (field, (agg, nulls))) in explain.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(indent);
            render_field_json(&mut out, field, agg, *nulls);
        }
        out.push('\n');
        out.push_str(&indent[..indent.len().saturating_sub(2)]);
        out.push(']');
        out
    }

    /// Renders the per-field aggregates as a JSON array (one object per
    /// field, schema order) — the `"fields"` section of `summary.json`.
    pub fn render_json(&self, indent: &str) -> String {
        let mut out = String::from("[");
        for (i, (field, (agg, nulls))) in self.schema.iter().zip(&self.fields).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(indent);
            render_field_json(&mut out, field, agg, *nulls);
        }
        out.push('\n');
        out.push_str(&indent[..indent.len().saturating_sub(2)]);
        out.push(']');
        out
    }
}

fn render_field_json(out: &mut String, field: &Field, agg: &FieldAgg, nulls: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{ \"field\": \"{}\", \"nulls\": {nulls}", field.name);
    match agg {
        FieldAgg::Bool { trues, falses } => {
            let n = trues + falses;
            let rate = if n == 0 { 0.0 } else { *trues as f64 / n as f64 };
            let (lo, hi) = wilson95(*trues, n);
            let _ = write!(
                out,
                ", \"kind\": \"bool\", \"true\": {trues}, \"false\": {falses}, \
                 \"rate\": {rate}, \"wilson95_low\": {lo}, \"wilson95_high\": {hi}"
            );
        }
        FieldAgg::Num(num) => render_moments(out, "num", &num.welford, &num.sketch),
        FieldAgg::Hist(hist) => {
            render_moments(out, "hist", &hist.welford, &hist.sketch);
            let _ = write!(
                out,
                ", \"hist\": {{ \"lo\": {}, \"width\": {}, \"counts\": [",
                hist.hist.lo(),
                hist.hist.width()
            );
            for (i, c) in hist.hist.counts().iter().enumerate() {
                let _ = write!(out, "{}{c}", if i > 0 { ", " } else { "" });
            }
            out.push_str("] }");
        }
        FieldAgg::Str { counts, overflow } => {
            let _ = write!(out, ", \"kind\": \"str\", \"values\": {{");
            for (i, (v, c)) in counts.iter().enumerate() {
                let _ = write!(out, "{}{}: {c}", if i > 0 { ", " } else { " " }, JsonStr(v));
            }
            let _ = write!(out, " }}, \"overflow\": {overflow}");
        }
    }
    out.push_str(" }");
}

/// Renders the moments and sketch quantiles numeric and histogram fields
/// share.
fn render_moments(out: &mut String, kind: &str, welford: &Welford, sketch: &RankSketch) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ", \"kind\": \"{kind}\", \"count\": {}, \"mean\": {}, \"stddev\": {}, \"min\": {}, \
         \"max\": {}",
        welford.count(),
        welford.mean(),
        welford.stddev(),
        welford.min(),
        welford.max()
    );
    for (label, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        match sketch.quantile(p) {
            Some(v) => {
                let _ = write!(out, ", \"{label}\": {v}");
            }
            None => {
                let _ = write!(out, ", \"{label}\": null");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_textbook_values() {
        let mut w = Welford::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn wilson_interval_brackets_the_rate() {
        let (lo, hi) = wilson95(38, 100);
        assert!(lo < 0.38 && 0.38 < hi);
        assert!(lo > 0.28 && hi < 0.49, "({lo}, {hi})");
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson95(5, 5);
        assert!(lo > 0.4 && hi == 1.0, "({lo}, {hi})");
    }

    #[test]
    fn rank_sketch_tracks_exact_quantiles_within_alpha() {
        let ramp: Vec<f64> = (0..2000).map(|i| f64::from(i) - 500.0).collect();
        // What numeric fields such as `observed_shift` produce: mostly
        // zeros, with negative fractional shifts in the lower tail.
        let shifts: Vec<f64> =
            (0..400).map(|i| if i % 4 == 0 { -500.0 + f64::from(i) * 0.37 } else { 0.0 }).collect();
        for samples in [ramp, shifts] {
            let mut s = RankSketch::default_error();
            for &x in &samples {
                s.push(x);
            }
            assert_eq!(s.count(), samples.len() as u64);
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.01, 0.1, 0.5, 0.9, 0.99] {
                let est = s.quantile(p).expect("samples seen");
                let exact = exact_quantile(&sorted, p);
                assert!(
                    (est - exact).abs() <= 0.01 * exact.abs() + 1e-9,
                    "p{p}: estimate {est} vs exact {exact}"
                );
            }
        }
        assert_eq!(RankSketch::default_error().quantile(0.5), None);
    }

    #[test]
    fn rank_sketch_merge_is_order_insensitive() {
        let samples: Vec<f64> = (0..500).map(|i| (f64::from(i) * 0.7).sin() * 250.0).collect();
        let mut whole = RankSketch::default_error();
        for &x in &samples {
            whole.push(x);
        }
        let (mut a, mut b) = (RankSketch::default_error(), RankSketch::default_error());
        for &x in &samples[..123] {
            a.push(x);
        }
        for &x in &samples[123..] {
            b.push(x);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole, "sharded merge must equal the single stream");
        assert_eq!(ba, whole, "merge must commute");
    }

    #[test]
    fn hist_field_aggregates_and_renders_buckets() {
        const SCHEMA: &Schema = &[Field {
            name: "ttl",
            kind: FieldKind::HistU64(HistSpec { lo: 0.0, width: 10.0, bins: 3 }),
        }];
        let mut agg = Aggregate::new(SCHEMA);
        for v in [Value::U64(5), Value::U64(15), Value::U64(999), Value::Null] {
            agg.push(&Record(vec![v]));
        }
        match &agg.fields[0] {
            (FieldAgg::Hist(h), 1) => {
                assert_eq!(h.hist.counts(), &[1, 1, 1]);
                assert_eq!(h.welford.count(), 3);
                assert_eq!(h.sketch.count(), 3);
            }
            other => panic!("unexpected hist aggregate: {other:?}"),
        }
        let json = agg.render_json("    ");
        assert!(
            json.contains("\"hist\": { \"lo\": 0, \"width\": 10, \"counts\": [1, 1, 1] }"),
            "{json}"
        );
    }

    #[test]
    fn aggregate_counts_nulls_and_strings() {
        const SCHEMA: &Schema = &[
            Field { name: "ok", kind: FieldKind::Bool },
            Field { name: "label", kind: FieldKind::Str },
            Field { name: "ms", kind: FieldKind::F64 },
        ];
        let mut agg = Aggregate::new(SCHEMA);
        agg.push(&Record(vec![Value::Bool(true), Value::Str("a".into()), Value::F64(1.0)]));
        agg.push(&Record(vec![Value::Bool(false), Value::Str("a".into()), Value::Null]));
        agg.push(&Record(vec![Value::Null, Value::Str("b".into()), Value::F64(3.0)]));
        assert_eq!(agg.records, 3);
        match &agg.fields[0] {
            (FieldAgg::Bool { trues: 1, falses: 1 }, 1) => {}
            other => panic!("unexpected bool aggregate: {other:?}"),
        }
        match &agg.fields[1].0 {
            FieldAgg::Str { counts, overflow: 0 } => {
                assert_eq!(counts, &[("a".to_string(), 2), ("b".to_string(), 1)]);
            }
            other => panic!("unexpected str aggregate: {other:?}"),
        }
        let json = agg.render_json("    ");
        assert!(json.contains("\"rate\": 0.5"), "{json}");
    }
}
