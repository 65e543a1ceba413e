//! # timeshift — DNS-insecurity time-shifting attacks on NTP and Chronos
//!
//! The top-level crate of the reproduction of *"The Impact of DNS
//! Insecurity on Time"* (Jeitner, Shulman, Waidner — DSN 2020). It glues
//! the substrates together and exposes the paper's evaluation as callable
//! experiments:
//!
//! * [`scenario`] — one-call construction of the victim network and
//!   runners for the boot-time (§IV-A), run-time (§IV-B) and Chronos (§VI)
//!   attacks;
//! * [`analysis`] — the closed-form models: Table III probabilities and
//!   the 5-fragment boot budget (the Chronos 2/3 pool bound, N ≤ 11, is
//!   [`chronos::bound`]);
//! * [`experiments`] — the per-trial rows of the attack tables, the
//!   closed-form reports, and the paper-style formatters the examples
//!   print. The measurement scans themselves are defined once, as typed
//!   scans in the campaign scenario registry (`campaign::registry`).
//!
//! The parallel Monte-Carlo trial runner, [`TrialRunner`](prelude::TrialRunner),
//! lives in the `runner` crate and is re-exported in the [`prelude`].
//!
//! ## Quickstart
//!
//! ```
//! use timeshift::prelude::*;
//!
//! // Full boot-time attack against an ntpd-like client:
//! let outcome = run_boot_time_attack(ScenarioConfig::default(), ClientKind::Ntpd);
//! assert!(outcome.success);
//! assert!((outcome.observed_shift + 500.0).abs() < 1.0);
//! ```
//!
//! Re-exports: the substrate crates are available as [`netsim`], [`dns`],
//! [`ntp`], [`chronos`], [`attack`] and [`measure`].

#![warn(missing_docs)]

pub mod analysis;
pub mod experiments;
pub mod scenario;

pub use attack;
pub use chronos;
pub use dns;
pub use measure;
pub use netsim;
pub use ntp;

/// Commonly used types across the workspace.
pub mod prelude {
    pub use crate::analysis::{boot_fragment_budget, p1, p2, table3, Table3Row, P_KOD, P_RATE};
    pub use crate::experiments::{self, Scale};
    pub use crate::scenario::{
        run_boot_time_attack, run_chronos_attack, run_runtime_attack, Addrs, AttackOutcome,
        ChronosOutcome, Scenario, ScenarioConfig,
    };
    pub use attack::prelude::*;
    pub use chronos::prelude::*;
    pub use dns::prelude::*;
    pub use measure::prelude::*;
    pub use netsim::prelude::*;
    pub use ntp::prelude::*;
    pub use runner::{trial_seed, TrialRunner};
}
