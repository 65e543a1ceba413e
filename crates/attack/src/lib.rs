//! # attack — the off-path attacker toolkit
//!
//! Implements the attack chain of *"The Impact of DNS Insecurity on Time"*
//! (DSN 2020) against the simulated DNS/NTP substrate:
//!
//! * [`icmp_force`] — forged ICMP frag-needed to make nameservers fragment
//!   their responses (§III-1);
//! * [`ipid`] — IPID counter sampling and extrapolation (§III-2);
//! * [`wire_walk`] / [`forge`] — crafting the spoofed second fragment that
//!   rewrites the glue records to the attacker's nameserver (§III-2), from
//!   the record layout the DNS decoder's checked walk reports;
//! * [`checksum_fix`] — the ones'-complement fix-up keeping the UDP
//!   checksum valid (§III-3, `f2' = f2* − (sum1(f2*) − sum1(f2))`);
//! * [`pipeline`] — the recurring force/probe/plant/trigger/check loop
//!   (§IV-A's "plant every 30 s until the query happens");
//! * [`poisoner`] — the boot-time / Chronos attacker host;
//! * [`runtime`] — the run-time attacker host adding NTP rate-limit abuse
//!   (§IV-B) in scenarios P1 (known upstreams) and P2 (refid discovery).
//!
//! The end-to-end poisoning path is exercised in
//! [`poisoner`]'s tests and the repository's integration tests.

#![warn(missing_docs)]

pub mod checksum_fix;
pub mod forge;
pub mod icmp_force;
pub mod ipid;
pub mod pipeline;
pub mod poisoner;
pub mod runtime;
pub mod wire_walk;

/// Commonly used types.
pub mod prelude {
    pub use crate::checksum_fix::{fix_fragment_sum, sums_match, FixError};
    pub use crate::forge::{first_fragment_payload, forge_tail, ForgeError, ForgedTail};
    pub use crate::icmp_force::{forge_frag_needed, FORCED_MTU};
    pub use crate::ipid::IpidPredictor;
    pub use crate::pipeline::{PoisonConfig, PoisonPipeline, PoisonStats};
    pub use crate::poisoner::OffPathPoisoner;
    pub use crate::runtime::{RuntimeAttacker, RuntimeScenario, RuntimeStats};
    pub use crate::wire_walk::{walk_records, RecordSpan, Section};
}
