//! Order statistics, metric-name rules and span self-time: the small
//! helpers every number the benchmark prints goes through.

/// Median of `values` (mean of the middle pair for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the spreads this crate reports match the ones a reader
/// recomputes from the printed values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The percentile ladder the tail metric climbs. It stops at p99: on a
/// shared two-core box the p99.9 of sub-millisecond survey trials is set
/// by host preemption, not by the program, and varies by a factor of
/// several between identical runs.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// A tail latency: the percentile chosen, its value, and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest ladder percentile with at least `min_beyond` samples
/// beyond its nearest rank; the median when even that has fewer. `None`
/// for no samples.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let at = |p: f64| {
        // Nearest rank: the smallest rank r with r >= p/100 * n (1-based).
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let rank = rank.min(n);
        Tail { percentile: p, value: v[rank - 1], beyond: n - rank, count: n }
    };
    let best = TAIL_LADDER.iter().rev().map(|&p| at(p)).find(|t| t.beyond >= min_beyond);
    Some(best.unwrap_or_else(|| at(TAIL_LADDER[0])))
}

/// A uniform sample of at most `cap` values from a stream (Algorithm R),
/// driven by a seeded splitmix stream. Its memory stays the same however
/// many trials a run completes, so the benchmark's own bookkeeping does
/// not grow the peak RSS it reports when the program gets faster.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    seed: u64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` values.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir { cap, seen: 0, seed, samples: Vec::with_capacity(cap) }
    }

    /// Offers one value.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let j = runner::mix64(self.seed ^ self.seen) % self.seen;
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    /// The values kept.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Self time of a span covering `[start, end)`: its duration minus the
/// part of it that the union of its children's intervals covers. Children
/// may overlap each other (they can run on different threads) and may
/// stick out of the parent; only the covered part inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_climbs_to_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10).expect("samples");
        // p99 leaves exactly 10 beyond.
        assert_eq!((t.percentile, t.value, t.beyond, t.count), (99.0, 990.0, 10, 1000));

        let v: Vec<f64> = (1..=143).map(f64::from).collect();
        let t = tail(&v, 10).expect("samples");
        assert_eq!((t.percentile, t.beyond), (90.0, 14));
        assert_eq!(t.value, 129.0);

        // 396 samples: p95 leaves 19 beyond, p99 only 3.
        let v: Vec<f64> = (1..=396).map(f64::from).collect();
        let t = tail(&v, 10).expect("samples");
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 377.0, 19));

        // Too few samples for any ladder step: fall back to the median.
        let t = tail(&[1.0, 2.0, 3.0], 10).expect("samples");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 2.0, 1));
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn tail_never_exceeds_the_ladder_top() {
        let v: Vec<f64> = (1..=1_000_000).map(f64::from).collect();
        let t = tail(&v, 10).expect("samples");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10_000);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_uniform_sample() {
        let mut r = Reservoir::new(100, 7);
        (0..50).for_each(|i| r.push(f64::from(i)));
        assert_eq!(r.samples().len(), 50);
        assert_eq!(median(r.samples()), Some(24.5));
        (50..100_000).for_each(|i| r.push(f64::from(i)));
        assert_eq!((r.samples().len(), r.seen()), (100, 100_000));
        // A uniform sample of 0..100 000 has its median near 50 000.
        let m = median(r.samples()).expect("samples");
        assert!((35_000.0..65_000.0).contains(&m), "median {m}");
        // Deterministic for a seed.
        let mut again = Reservoir::new(100, 7);
        (0..100_000).for_each(|i| again.push(f64::from(i)));
        assert_eq!(again.samples(), r.samples());
    }

    #[test]
    fn metric_names_follow_the_character_rules() {
        for ok in ["trials_per_s", "dns.referral_decode_ns", "p-50", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".x", "has space", "slash/x", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two threads) count their union once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        // Nested or fully covering children.
        assert_eq!(self_time(0, 100, &[(0, 100), (10, 20)]), 0);
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
    }
}
