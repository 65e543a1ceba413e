//! Property tests for the streaming aggregator: the online estimators
//! must track exact batch computation — exactly for count/mean/extremes,
//! within the rank sketch's relative error for quantiles — and the record
//! codec must round-trip arbitrary values.

use campaign::prelude::*;
use campaign::record::{decode_line, encode_line, opt};
use campaign::stats::exact_quantile;
use proptest::prelude::*;

proptest! {
    /// Welford vs. exact batch: count and extremes exact, mean to within
    /// float-fold tolerance, variance close.
    #[test]
    fn welford_matches_batch_computation(
        samples in proptest::collection::vec(-1.0e6f64..1.0e6, 1..400),
    ) {
        let mut w = Welford::default();
        for &x in &samples {
            w.push(x);
        }
        prop_assert_eq!(w.count(), samples.len() as u64);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
        prop_assert!((w.mean() - mean).abs() <= 1e-9 * (1.0 + mean.abs()),
            "welford mean {} vs batch {}", w.mean(), mean);
        prop_assert!((w.variance() - var).abs() <= 1e-6 * (1.0 + var.abs()),
            "welford var {} vs batch {}", w.variance(), var);
    }

    /// Wilson 95% intervals bracket the empirical rate and stay in [0,1].
    #[test]
    fn wilson_brackets_the_rate(successes in 0u64..500, extra in 0u64..500) {
        let n = successes + extra;
        let (lo, hi) = wilson95(successes, n);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        prop_assert!(lo <= hi);
        if n > 0 {
            let rate = successes as f64 / n as f64;
            prop_assert!(lo <= rate && rate <= hi, "({lo}, {hi}) excludes {rate}");
        }
    }

    /// StreamHist vs. an independent linear-scan bucket oracle. Samples,
    /// origin and width are integer-valued so the float arithmetic is
    /// exact and bucket edges are unambiguous (fractional edges are
    /// covered by the unit tests in `runner::hist`).
    #[test]
    fn stream_hist_matches_linear_scan_oracle(
        lo in -100i32..100,
        width in 1u32..10,
        bins in 1usize..40,
        samples in proptest::collection::vec(-500i32..500, 0..300),
    ) {
        let lo = f64::from(lo);
        let width = f64::from(width);
        let mut h = StreamHist::new(lo, width, bins);
        for &s in &samples {
            h.push(f64::from(s));
        }
        let mut expect = vec![0u64; bins];
        for &s in &samples {
            let x = f64::from(s);
            let mut idx = bins - 1; // above the top edge clamps high
            if x <= lo {
                idx = 0;
            } else {
                for i in 0..bins {
                    if x < lo + (i + 1) as f64 * width {
                        idx = i;
                        break;
                    }
                }
            }
            expect[idx] += 1;
        }
        prop_assert_eq!(h.counts(), expect.as_slice());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Sharded StreamHist merge == single stream, with the shard merge
    /// applied in reverse order (merge is commutative + associative, so
    /// shard placement must never matter).
    #[test]
    fn stream_hist_sharded_merge_matches_single_stream(
        samples in proptest::collection::vec(-200i32..200, 0..300),
        chunk in 1usize..50,
    ) {
        let mut whole = StreamHist::new(-64.0, 8.0, 16);
        for &s in &samples {
            whole.push(f64::from(s));
        }
        let mut merged = StreamHist::new(-64.0, 8.0, 16);
        for part in samples.chunks(chunk).rev() {
            let mut shard = StreamHist::new(-64.0, 8.0, 16);
            for &s in part {
                shard.push(f64::from(s));
            }
            merged.merge(&shard);
        }
        prop_assert_eq!(&merged, &whole);
    }

    /// RankSketch vs. exact nearest-rank quantiles: the log-bucket keys
    /// are exact counters, so the estimate is within the configured
    /// relative error of the exact batch quantile — for every stream.
    #[test]
    fn rank_sketch_tracks_exact_quantiles(
        samples in proptest::collection::vec(-1.0e4f64..1.0e4, 1..400),
        p_sel in 0usize..4,
    ) {
        let p = [0.1, 0.5, 0.9, 0.99][p_sel];
        let mut sk = RankSketch::default_error();
        for &x in &samples {
            sk.push(x);
        }
        let est = sk.quantile(p).expect("samples seen");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = exact_quantile(&sorted, p);
        prop_assert!((est - exact).abs() <= 0.01 * exact.abs() + 1e-9,
            "p{}: estimate {est} vs exact {exact} (n={})",
            (p * 100.0) as u32, samples.len());
    }

    /// Sharded RankSketch merge is *bit-identical* to the single-stream
    /// sketch (bucket counters add exactly), independent of shard order.
    #[test]
    fn rank_sketch_sharded_merge_matches_single_stream(
        samples in proptest::collection::vec(-1.0e3f64..1.0e3, 0..300),
        chunk in 1usize..50,
    ) {
        let mut whole = RankSketch::default_error();
        for &x in &samples {
            whole.push(x);
        }
        let mut merged = RankSketch::default_error();
        for part in samples.chunks(chunk).rev() {
            let mut shard = RankSketch::default_error();
            for &x in part {
                shard.push(x);
            }
            merged.merge(&shard);
        }
        prop_assert_eq!(&merged, &whole);
    }

    /// Record lines round-trip arbitrary values bit-exactly.
    #[test]
    fn record_lines_round_trip(
        flag in any::<bool>(),
        count in any::<u64>(),
        bits in any::<u64>(),
        label in "[a-z\"\\\\ ]{0,12}",
        null_mask in 0u8..16,
    ) {
        const SCHEMA: &Schema = &[
            Field { name: "flag", kind: FieldKind::Bool },
            Field { name: "count", kind: FieldKind::U64 },
            Field { name: "x", kind: FieldKind::F64 },
            Field { name: "label", kind: FieldKind::Str },
        ];
        // Arbitrary bit patterns can be NaN/inf (which encode as null by
        // design); keep the float finite so equality is well-defined.
        let x = f64::from_bits(bits);
        let x = if x.is_finite() { x } else { 0.25 };
        let pick = |i: u8, v: Value| if null_mask & (1 << i) != 0 { Value::Null } else { v };
        let record = Record(vec![
            pick(0, flag.into()),
            pick(1, count.into()),
            pick(2, x.into()),
            pick(3, label.clone().into()),
        ]);
        let line = encode_line(SCHEMA, &record);
        let back = decode_line(SCHEMA, &line)
            .map_err(|e| TestCaseError(format!("{e} in {line}")))?;
        prop_assert_eq!(back, record);
        // And nullability helpers agree with the mask.
        prop_assert_eq!(opt(None::<u64>), Value::Null);
    }
}
