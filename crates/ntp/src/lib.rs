//! # ntp — NTP/SNTP protocol, servers and behavioural client models
//!
//! The NTP substrate of the `timeshift` reproduction of *"The Impact of DNS
//! Insecurity on Time"* (DSN 2020):
//!
//! * [`timestamp`] — 64-bit NTP timestamps and the RFC 5905 offset/delay
//!   formula;
//! * [`packet`] — the 48-byte mode-3/4 wire format, Kiss-o'-Death, the
//!   refid upstream leak and the mode-6 config interface;
//! * [`clock`] — the disciplined system clock (step/slew/panic semantics);
//! * [`server`] — honest and attacker-controlled servers with the ntpd-style
//!   rate limiter the run-time attack abuses;
//! * [`select`] — majority-cluster clock selection;
//! * [`client`] — the seven client implementations of the paper's Table I.
//!
//! ```
//! use ntp::prelude::*;
//!
//! // Every Table I client model comes from its kind; its DNS policy alone
//! // decides the run-time column:
//! assert_eq!(ClientKind::Ntpd.dns_policy(), DnsPolicy::Refill);
//! assert_eq!(ClientKind::Ntpd.vulnerable_run_time(), Some(true));
//! assert_eq!(ClientKind::Ntpdate.vulnerable_run_time(), None);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod packet;
pub mod select;
pub mod server;
pub mod timestamp;

/// Commonly used types.
pub mod prelude {
    pub use crate::client::{Association, ClientKind, ClientStats, DnsPolicy, NtpClient};
    pub use crate::clock::{ClockAdjustment, SystemClock};
    pub use crate::packet::{peek_mode, ControlMessage, NtpMode, NtpPacket, KOD_RATE, NTP_PORT};
    pub use crate::select::{default_window, select, OffsetSample, Selection};
    pub use crate::server::{NtpServer, RateLimitConfig, ServerStats};
    pub use crate::timestamp::{offset_and_delay, NtpDuration, NtpTimestamp, SIM_NTP_EPOCH};
}
