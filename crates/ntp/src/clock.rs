//! The system-clock model disciplined by NTP clients.
//!
//! A clock is an offset against the simulation's true time. The attack's
//! observable — "did the victim's clock shift by −500 s?" — is read
//! straight off [`SystemClock::offset_from_true`].

use netsim::time::SimTime;

use crate::timestamp::{NtpDuration, NtpTimestamp};

/// How a clock correction was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockAdjustment {
    /// Instantaneous step (offset exceeded the step threshold).
    Stepped,
    /// Gradual slew (modelled as an immediate small correction).
    Slewed,
    /// Rejected: offset exceeded the panic threshold at run time.
    PanicRejected,
}

/// Offsets beyond this are stepped, smaller ones slewed (ntpd: 128 ms).
const STEP_THRESHOLD: NtpDuration = NtpDuration::from_nanos(128_000_000);

/// A simulated system clock.
#[derive(Debug, Clone)]
pub struct SystemClock {
    /// Current offset from true time (clock − true), nanoseconds.
    offset_ns: i64,
    /// Panic threshold: run-time corrections beyond this are refused
    /// (ntpd: 1000 s). `None` disables the check (boot with `-g`).
    pub panic_threshold: Option<NtpDuration>,
    /// History of applied adjustments: (when, new offset seconds).
    pub adjustments: Vec<(SimTime, f64)>,
}

impl SystemClock {
    /// A clock starting in sync with true time.
    pub fn new() -> Self {
        SystemClock {
            offset_ns: 0,
            panic_threshold: Some(NtpDuration::from_secs(1000)),
            adjustments: Vec::new(),
        }
    }

    /// The clock's reading at simulated instant `now`.
    pub fn now(&self, now: SimTime) -> NtpTimestamp {
        NtpTimestamp::at_sim_time(now) + NtpDuration::from_nanos(self.offset_ns)
    }

    /// Offset from true time at `now`; a modelled clock does not drift,
    /// so it changes only through [`SystemClock::apply_offset`].
    pub fn offset_from_true(&self, _now: SimTime) -> NtpDuration {
        NtpDuration::from_nanos(self.offset_ns)
    }

    /// Applies a measured offset (server − client): step if beyond the step
    /// threshold, slew otherwise, refuse if beyond the panic threshold and
    /// `at_boot` is false.
    pub fn apply_offset(
        &mut self,
        now: SimTime,
        offset: NtpDuration,
        at_boot: bool,
    ) -> ClockAdjustment {
        if !at_boot {
            if let Some(panic) = self.panic_threshold {
                if offset.abs() > panic {
                    return ClockAdjustment::PanicRejected;
                }
            }
        }
        self.offset_ns = self.offset_ns.saturating_add(offset.as_nanos());
        self.adjustments.push((now, self.offset_from_true(now).as_secs_f64()));
        if offset.abs() > STEP_THRESHOLD {
            ClockAdjustment::Stepped
        } else {
            ClockAdjustment::Slewed
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_clock_reads_true_time() {
        let clock = SystemClock::new();
        let t = SimTime::from_secs(100);
        assert_eq!(clock.now(t), NtpTimestamp::at_sim_time(t));
        assert_eq!(clock.offset_from_true(t), NtpDuration::ZERO);
    }

    #[test]
    fn step_applies_and_records() {
        let mut clock = SystemClock::new();
        let t = SimTime::from_secs(10);
        let adj = clock.apply_offset(t, NtpDuration::from_secs(-500), true);
        assert_eq!(adj, ClockAdjustment::Stepped);
        assert_eq!(clock.offset_from_true(t).as_secs_f64(), -500.0);
        assert_eq!(clock.adjustments.len(), 1);
    }

    #[test]
    fn small_offset_slews() {
        let mut clock = SystemClock::new();
        let adj = clock.apply_offset(SimTime::ZERO, NtpDuration::from_nanos(50_000_000), false);
        assert_eq!(adj, ClockAdjustment::Slewed);
    }

    #[test]
    fn panic_threshold_blocks_runtime_megashift() {
        let mut clock = SystemClock::new();
        let adj = clock.apply_offset(SimTime::ZERO, NtpDuration::from_secs(5000), false);
        assert_eq!(adj, ClockAdjustment::PanicRejected);
        assert_eq!(clock.offset_from_true(SimTime::ZERO), NtpDuration::ZERO);
        // The same shift at boot is accepted (ntpd -g semantics).
        let adj = clock.apply_offset(SimTime::ZERO, NtpDuration::from_secs(5000), true);
        assert_eq!(adj, ClockAdjustment::Stepped);
    }

    #[test]
    fn paper_shift_passes_panic_threshold_at_runtime() {
        // The paper shifts by -500 s, below ntpd's 1000 s panic threshold —
        // the reason the attack works at run time.
        let mut clock = SystemClock::new();
        let adj = clock.apply_offset(SimTime::ZERO, NtpDuration::from_secs(-500), false);
        assert_eq!(adj, ClockAdjustment::Stepped);
    }
}
