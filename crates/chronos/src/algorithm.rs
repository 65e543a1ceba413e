//! The Chronos time-sampling algorithm (NDSS'18 / draft-schiff-ntp-chronos).
//!
//! Each round samples `m` servers from the pool, discards the `⌈m/3⌉`
//! lowest and highest offsets, and accepts the survivors' average only if
//! (1) they lie within `ω` of each other and (2) the average is within a
//! drift bound of the local clock. After `K` failed rounds the client
//! enters *panic mode*: it queries the whole pool and applies the trimmed
//! mean of the middle third.
//!
//! Panic mode here also enforces the `ω` agreement check among survivors,
//! so a full time-shift requires the attacker to control ≥ 2/3 of the
//! pool — the bound the DSN'20 paper's §VI analysis uses (poisoning by the
//! 12th DNS lookup, `N ≤ 11`).

use ntp::timestamp::NtpDuration;

/// Servers sampled per round (`m`).
pub const SAMPLE_SIZE: usize = 15;
/// Maximum spread among survivors (`ω`): 100 ms.
pub const OMEGA: NtpDuration = NtpDuration::from_nanos(100_000_000);
/// Maximum acceptable distance between the survivors' average and the
/// local clock in a *normal* round (drift bound): 200 ms.
pub const ERR_DRIFT: NtpDuration = NtpDuration::from_nanos(200_000_000);
/// Failed rounds before panic mode (`K`).
pub const MAX_RETRIES: u32 = 3;

/// Outcome of evaluating a round's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundDecision {
    /// Accept: apply this offset.
    Accept(NtpDuration),
    /// Reject: re-sample (or escalate to panic).
    Reject(RejectReason),
}

/// Why a round was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Not enough responses survived trimming.
    TooFewSamples,
    /// Survivors disagreed by more than `ω`.
    SpreadTooWide,
    /// Survivors agreed on a value too far from the local clock.
    DriftExceeded,
}

/// Sorts and trims the top and bottom thirds, returning the survivors.
pub fn trim_thirds(offsets: &[NtpDuration]) -> Vec<NtpDuration> {
    let mut sorted = offsets.to_vec();
    sorted.sort();
    let d = sorted.len().div_ceil(3);
    if sorted.len() <= 2 * d {
        return Vec::new();
    }
    sorted[d..sorted.len() - d].to_vec()
}

fn mean(values: &[NtpDuration]) -> NtpDuration {
    let sum: i128 = values.iter().map(|v| i128::from(v.as_nanos())).sum();
    NtpDuration::from_nanos((sum / values.len() as i128) as i64)
}

/// Evaluates a normal sampling round: trim, agreement check, drift check.
pub fn evaluate_sample(offsets: &[NtpDuration]) -> RoundDecision {
    let survivors = trim_thirds(offsets);
    if survivors.is_empty() {
        return RoundDecision::Reject(RejectReason::TooFewSamples);
    }
    let spread = *survivors.last().expect("nonempty") - survivors[0];
    if spread > OMEGA {
        return RoundDecision::Reject(RejectReason::SpreadTooWide);
    }
    let avg = mean(&survivors);
    if avg.abs() > ERR_DRIFT {
        return RoundDecision::Reject(RejectReason::DriftExceeded);
    }
    RoundDecision::Accept(avg)
}

/// Evaluates a panic round over the whole pool: trim the outer thirds and
/// apply the middle's mean. The drift bound is *not* enforced (panic mode
/// exists to recover from arbitrarily wrong clocks); the `ω` agreement
/// check is.
pub fn evaluate_panic(offsets: &[NtpDuration]) -> RoundDecision {
    let survivors = trim_thirds(offsets);
    if survivors.is_empty() {
        return RoundDecision::Reject(RejectReason::TooFewSamples);
    }
    let spread = *survivors.last().expect("nonempty") - survivors[0];
    if spread > OMEGA {
        return RoundDecision::Reject(RejectReason::SpreadTooWide);
    }
    RoundDecision::Accept(mean(&survivors))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(values: &[f64]) -> Vec<NtpDuration> {
        values.iter().map(|&v| NtpDuration::from_secs_f64(v)).collect()
    }

    #[test]
    fn trim_removes_outer_thirds() {
        let out = trim_thirds(&secs(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]));
        assert_eq!(out, secs(&[4.0, 5.0, 6.0]));
    }

    #[test]
    fn trim_of_tiny_sets_is_empty() {
        assert!(trim_thirds(&secs(&[1.0])).is_empty());
        assert!(trim_thirds(&secs(&[1.0, 2.0])).is_empty());
    }

    #[test]
    fn honest_round_accepts() {
        let offsets = secs(&[0.001, -0.002, 0.0, 0.003, -0.001, 0.002, 0.0, 0.001, -0.003]);
        match evaluate_sample(&offsets) {
            RoundDecision::Accept(avg) => assert!(avg.as_secs_f64().abs() < 0.01),
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn minority_attacker_is_trimmed_away() {
        // 3 of 9 (1/3) at −500 s: all trimmed; survivors honest.
        let mut offsets = secs(&[0.0, 0.001, -0.001, 0.002, -0.002, 0.0]);
        offsets.extend(secs(&[-500.0, -500.0, -500.0]));
        match evaluate_sample(&offsets) {
            RoundDecision::Accept(avg) => assert!(avg.as_secs_f64().abs() < 0.01),
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn mixed_majority_fails_spread_check() {
        // Half attacker: survivors span both camps → reject.
        let offsets = secs(&[0.0, 0.0, 0.0, -500.0, -500.0, -500.0, 0.0, -500.0, -500.0]);
        assert_eq!(evaluate_sample(&offsets), RoundDecision::Reject(RejectReason::SpreadTooWide));
    }

    #[test]
    fn consistent_large_shift_fails_drift_check_in_normal_round() {
        // Even a fully agreeing set cannot move the clock 500 s in a normal
        // round — only panic mode can.
        let offsets = secs(&[-500.0; 9]);
        assert_eq!(evaluate_sample(&offsets), RoundDecision::Reject(RejectReason::DriftExceeded));
    }

    #[test]
    fn panic_applies_large_shift_when_supermajority_agrees() {
        // 2/3+ attacker: middle third is all attacker.
        let mut offsets = vec![NtpDuration::from_secs_f64(0.0); 4];
        offsets.extend(secs(&[-500.0; 9]));
        match evaluate_panic(&offsets) {
            RoundDecision::Accept(avg) => {
                assert!((avg.as_secs_f64() + 500.0).abs() < 0.01, "avg {avg}")
            }
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn panic_with_omega_check_rejects_sub_supermajority() {
        // Below 2/3 attacker: an honest sample survives trimming, spread
        // blows ω, panic refuses — the clock stays safe.
        let mut offsets = vec![NtpDuration::from_secs_f64(0.0); 6];
        offsets.extend(secs(&[-500.0; 9])); // 9/15 = 60% < 2/3
        assert_eq!(evaluate_panic(&offsets), RoundDecision::Reject(RejectReason::SpreadTooWide));
    }

    #[test]
    fn exact_two_thirds_boundary() {
        // 89 malicious vs 4N honest with N = 11 → 89/133 = 66.9% ≥ 2/3:
        // middle third all malicious.
        let mut offsets = vec![NtpDuration::from_secs_f64(0.0); 44];
        offsets.extend(vec![NtpDuration::from_secs_f64(-500.0); 89]);
        match evaluate_panic(&offsets) {
            RoundDecision::Accept(avg) => assert!((avg.as_secs_f64() + 500.0).abs() < 0.01),
            other => panic!("N=11 must fall: {other:?}"),
        }
        // N = 12 → 89/137 = 64.9% < 2/3: an honest sample survives.
        let mut offsets = vec![NtpDuration::from_secs_f64(0.0); 48];
        offsets.extend(vec![NtpDuration::from_secs_f64(-500.0); 89]);
        assert_eq!(evaluate_panic(&offsets), RoundDecision::Reject(RejectReason::SpreadTooWide));
    }
}
