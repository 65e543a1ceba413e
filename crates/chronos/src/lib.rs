//! # chronos — the Chronos-enhanced NTP client
//!
//! A reproduction of the Chronos proposal (NDSS'18, draft-schiff-ntp-
//! chronos) as analysed and attacked by *"The Impact of DNS Insecurity on
//! Time"* (DSN 2020, §VI):
//!
//! * [`pool`] — server-pool generation via 24 hourly DNS lookups, with the
//!   two weaknesses the paper identifies (no TTL check, no per-response
//!   record cap) modelled faithfully and toggleable;
//! * [`algorithm`] — the sample/trim/agree algorithm and panic mode;
//! * [`client`] — the full client host gluing both onto the simulated
//!   network;
//! * [`bound`] — the §VI-C closed forms: attacker pool fraction after one
//!   poisoned response and the 2/3 threshold (N ≤ 11), shared by the
//!   `timeshift` analysis layer and the `campaign` scenario registry.
//!
//! ```
//! use chronos::prelude::*;
//! use ntp::timestamp::NtpDuration;
//!
//! // 1/3 of samples lying by -500 s are trimmed away:
//! let mut offsets = vec![NtpDuration::from_secs_f64(0.0); 6];
//! offsets.extend(vec![NtpDuration::from_secs_f64(-500.0); 3]);
//! match evaluate_sample(&offsets) {
//!     RoundDecision::Accept(avg) => assert!(avg.as_secs_f64().abs() < 0.1),
//!     other => panic!("honest majority must win: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod bound;
pub mod client;
pub mod pool;

/// Pool-generation DNS lookups: one an hour for a day in the proposal
/// (the §VI-C sweep's `N` runs over them).
pub const LOOKUPS: u32 = 24;

/// Commonly used types.
pub mod prelude {
    pub use crate::algorithm::{
        evaluate_panic, evaluate_sample, trim_thirds, RejectReason, RoundDecision,
    };
    pub use crate::client::{ChronosClient, ChronosStats};
    pub use crate::pool::{PoolGenerator, PoolSanity};
}
