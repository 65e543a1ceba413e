//! `StreamHist` — a fixed-bin, clamped, mergeable streaming histogram.
//!
//! This is the workspace's one bucketing rule for the paper's figure
//! histograms (Fig. 6 TTL buckets, Fig. 7 clamped timing buckets): the
//! `measure::snoop` survey and the campaign aggregator both delegate
//! here, so a figure rendered from an in-process scan and one rendered
//! from a merged campaign stream bucket identically by construction.
//!
//! Semantics: bin `i` covers `[lo + i·width, lo + (i+1)·width)`, samples
//! below `lo` clamp into bin 0 and samples at or above the top edge clamp
//! into the last bin — the histogram never drops a finite sample, which is
//! what makes `merge` exactly equivalent to concatenating the streams.
//! Non-finite samples are ignored (the campaign wire format encodes them
//! as `null` upstream anyway).
//!
//! Memory is `O(bins)` and independent of the stream length; merging is
//! element-wise counter addition, so it is commutative, associative, and
//! order-insensitive — shard placement is free.

/// A fixed-bin streaming histogram with clamped extremes.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHist {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    total: u64,
}

impl StreamHist {
    /// A histogram of `bins` bins of `width` starting at `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a positive finite number or `bins` is 0 —
    /// histogram shapes are static declarations, not runtime data.
    pub fn new(lo: f64, width: f64, bins: usize) -> StreamHist {
        assert!(width.is_finite() && width > 0.0, "bin width must be positive");
        assert!(lo.is_finite(), "histogram origin must be finite");
        assert!(bins > 0, "histogram needs at least one bin");
        StreamHist { lo, width, counts: vec![0; bins], total: 0 }
    }

    /// Folds one sample in; non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = if x <= self.lo {
            0
        } else {
            (((x - self.lo) / self.width) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Finite samples folded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The histogram origin (low edge of bin 0).
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The bin width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Per-bin counts, in bin order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(low edge, count)` per bin, in bin order.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| (self.lo + i as f64 * self.width, c))
    }

    /// Adds `other`'s counts into `self` — exactly equivalent to having
    /// pushed both streams into one histogram, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different shapes (`lo`, `width`,
    /// bin count): merging incompatible declarations is a programming
    /// error, like a record/schema arity mismatch.
    pub fn merge(&mut self, other: &StreamHist) {
        assert!(
            self.lo.to_bits() == other.lo.to_bits()
                && self.width.to_bits() == other.width.to_bits()
                && self.counts.len() == other.counts.len(),
            "merging histograms of different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_extremes_into_edge_bins() {
        let mut h = StreamHist::new(0.0, 10.0, 3);
        for x in [-5.0, 0.0, 9.9, 10.0, 29.9, 30.0, 1e9] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[3, 1, 3]);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn ignores_non_finite_samples() {
        let mut h = StreamHist::new(0.0, 1.0, 2);
        h.push(f64::NAN);
        h.push(f64::INFINITY);
        h.push(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn negative_origin_buckets_like_the_fig7_rule() {
        // Fig. 7 shape: ±200 ms clamped, 25 ms buckets, 17 bins.
        let mut h = StreamHist::new(-200.0, 25.0, 17);
        h.push(-250.0); // clamps low
        h.push(-200.0);
        h.push(-187.5);
        h.push(0.0);
        h.push(199.9);
        h.push(200.0); // top edge: last bin
        h.push(250.0); // clamps high
        assert_eq!(h.counts()[0], 3);
        assert_eq!(h.counts()[8], 1);
        assert_eq!(h.counts()[15], 1);
        assert_eq!(h.counts()[16], 2);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let samples: Vec<f64> = (0..100).map(|i| (i * 7 % 45) as f64 - 10.0).collect();
        let mut whole = StreamHist::new(-10.0, 5.0, 9);
        for &x in &samples {
            whole.push(x);
        }
        let (mut a, mut b) = (StreamHist::new(-10.0, 5.0, 9), StreamHist::new(-10.0, 5.0, 9));
        for &x in &samples[..33] {
            a.push(x);
        }
        for &x in &samples[33..] {
            b.push(x);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_rejects_shape_mismatch() {
        let mut a = StreamHist::new(0.0, 1.0, 4);
        a.merge(&StreamHist::new(0.0, 1.0, 5));
    }
}
