//! Closed-form analyses from the paper: the run-time attack probabilities
//! of §V-B (Table III) and the boot-time fragment budget of §IV-A — each
//! with Monte-Carlo cross-checks used by the property tests. The Chronos
//! pool bound of §VI-C lives in [`chronos::bound`], next to the client it
//! bounds.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// Fraction of `pool.ntp.org` servers that rate limit, as measured in
/// §VII-A (38 %).
pub const P_RATE: f64 = 0.38;

/// Fraction of pool servers that answer rate limiting with a KoD (33 %).
pub const P_KOD: f64 = 0.33;

/// §V-B1, Scenario 1: the attacker discovers upstreams one by one and must
/// remove `n` of them, each rate limiting independently with probability
/// `p`: `P1(n) = p^n`.
pub fn p1(n: u32, p: f64) -> f64 {
    p.powi(n as i32)
}

/// §V-B2, Scenario 2: the attacker knows all `m` upstreams and needs any
/// `n` of them to rate limit: the binomial tail
/// `P2(m,n) = Σ_{i=n..m} C(m,i) p^i (1−p)^{m−i}`.
pub fn p2(m: u32, n: u32, p: f64) -> f64 {
    (n..=m).map(|i| binomial(m, i) * p.powi(i as i32) * (1.0 - p).powi((m - i) as i32)).sum()
}

/// Binomial coefficient as f64.
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut out = 1.0;
    for i in 0..k {
        out *= f64::from(n - i) / f64::from(i + 1);
    }
    out
}

/// The `n` column of Table III: the number of servers that must be removed
/// for a client with `m` associations — the paper writes `max(⌈m/2⌉, m−2)`
/// where `⌈m/2⌉` denotes a *strict majority* (`⌊m/2⌋+1`, as the table's
/// values for m = 2 and m = 4 show).
///
/// (Majority replacement needs more than half; ntpd-style clients only
/// re-query DNS once fewer than MINCLOCK = m−2 associations survive.)
pub fn table3_n(m: u32) -> u32 {
    (m / 2 + 1).max(m.saturating_sub(2))
}

/// A row of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table3Row {
    /// Number of associations.
    pub m: u32,
    /// Servers to remove.
    pub n: u32,
    /// P1(n).
    pub p1: f64,
    /// P2(m, n).
    pub p2: f64,
}

/// Generates Table III for `m = 1..=9` at rate-limit probability `p`.
pub fn table3(p: f64) -> Vec<Table3Row> {
    (1..=9)
        .map(|m| {
            let n = table3_n(m);
            Table3Row { m, n, p1: p1(n, p), p2: p2(m, n, p) }
        })
        .collect()
}

/// Monte-Carlo estimate of P2 (cross-check for the closed form).
pub fn p2_monte_carlo(m: u32, n: u32, p: f64, trials: u32, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hits = 0u32;
    for _ in 0..trials {
        let limiting = (0..m).filter(|_| rng.random_bool(p)).count() as u32;
        if limiting >= n {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(trials)
}

/// §IV-A: the number of spoofed fragments needed to keep one planted for a
/// whole A-record TTL window: `⌈ttl / defrag_timeout⌉` (150 s / 30 s = 5).
pub fn boot_fragment_budget(record_ttl_secs: u32, defrag_timeout_secs: u32) -> u32 {
    record_ttl_secs.div_ceil(defrag_timeout_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn table3_matches_paper_values() {
        // Table III of the paper at p_rate = 0.38 (values in %).
        let expect: [(u32, u32, f64, f64); 9] = [
            (1, 1, 38.0, 38.0),
            (2, 2, 14.4, 14.4),
            (3, 2, 14.4, 32.4),
            (4, 3, 5.5, 15.7),
            (5, 3, 5.5, 28.4),
            (6, 4, 2.1, 15.3),
            (7, 5, 0.8, 7.8),
            (8, 6, 0.3, 3.9),
            (9, 7, 0.1, 1.8),
        ];
        for (row, (m, n, p1_pct, p2_pct)) in table3(P_RATE).iter().zip(expect) {
            assert_eq!(row.m, m);
            assert_eq!(row.n, n, "n for m={m}");
            assert!(
                close(row.p1 * 100.0, p1_pct, 0.06),
                "P1({n}) = {:.2}% want {p1_pct}%",
                row.p1 * 100.0
            );
            assert!(
                close(row.p2 * 100.0, p2_pct, 0.06),
                "P2({m},{n}) = {:.2}% want {p2_pct}%",
                row.p2 * 100.0
            );
        }
    }

    #[test]
    fn p2_equals_p1_when_n_equals_m() {
        for m in 1..=9 {
            assert!(close(p2(m, m, P_RATE), p1(m, P_RATE), 1e-12));
        }
    }

    #[test]
    fn p2_monte_carlo_agrees() {
        for (m, n) in [(4u32, 3u32), (6, 4), (9, 7)] {
            let exact = p2(m, n, P_RATE);
            let mc = p2_monte_carlo(m, n, P_RATE, 200_000, 42);
            assert!(close(exact, mc, 0.005), "m={m} n={n}: exact {exact} mc {mc}");
        }
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(3, 7), 0.0);
    }

    #[test]
    fn boot_budget_matches_paper() {
        // TTL 150 s, Linux defrag timeout 30 s → 5 fragments (§IV-A).
        assert_eq!(boot_fragment_budget(150, 30), 5);
        // Windows: 60 s timeout → 3 fragments.
        assert_eq!(boot_fragment_budget(150, 60), 3);
    }
}
