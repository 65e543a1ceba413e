//! # measure — synthetic populations and measurement scanners
//!
//! Reproduces the attack-surface studies of *"The Impact of DNS Insecurity
//! on Time"* (DSN 2020) against seeded synthetic populations:
//!
//! * [`population`] — population models calibrated to the paper's
//!   published aggregates (their parameters), probed by the scanners
//!   below (which re-derive the aggregates through the actual protocol
//!   exchanges — validating the methodology, not echoing inputs);
//! * [`ratelimit`] — §VII-A: 64-queries-at-1 Hz scan with the
//!   first-half/second-half detection heuristic (38 % rate limit, 33 %
//!   KoD) and the mode-6 config-interface probe (5.3 %);
//! * [`pmtud`] — Fig. 5 / §VII-B: forced-fragmentation floors and DNSSEC
//!   presence of domain nameservers (83.2 % ≤ 548 B; 16/30 pool NS);
//! * [`snoop`] — Table IV / Fig. 6 / Fig. 7: RD=0 cache snooping with the
//!   verification protocol, TTL distribution of cached pool records, and
//!   the (unusable) latency side channel;
//! * [`adstudy`] — Table V: the seven-image test page measuring fragment
//!   acceptance and DNSSEC validation per region and device class;
//! * [`shared`] — §VIII-B3: open/SMTP-shared resolver discovery via a
//!   direct query, an SMTP probe and a bounce-triggered lookup per
//!   resolver;
//! * [`fragns`] — the study's always-fragmenting test nameserver.

#![warn(missing_docs)]

// The per-index seed scheme lives in the `runner` crate (below both this
// crate and `timeshift`) so every sweep in the workspace shares it; the
// historic `measure::scan_seed` path keeps working.
pub use runner::scan_seed;

pub mod adstudy;
pub mod fragns;
pub mod pmtud;
pub mod population;
pub mod ratelimit;
pub mod shared;
pub mod snoop;

/// Commonly used types.
pub mod prelude {
    pub use crate::adstudy::{run_client, AdStudyResult, ClientResult, Table5Row};
    pub use crate::fragns::FragmentingNs;
    pub use crate::pmtud::{scan_nameserver, PmtudScanResult, PmtudVerdict, CDF_THRESHOLDS};
    pub use crate::population::{
        ad_client_at, ad_client_count, ad_clients_scaled, domain_nameserver_at, domain_nameservers,
        open_resolver_at, open_resolvers, pool_nameservers, pool_server_at, pool_servers,
        shared_resolver_at, shared_resolvers, AdClientSpec, NameserverSpec, OpenResolverSpec,
        PoolServerSpec, Region, SharedResolverSpec, POOL_SCAN_SIZE, SHARED_STUDY_SIZE,
    };
    pub use crate::ratelimit::{scan_server, RateLimitScanResult, ServerVerdict};
    pub use crate::scan_seed;
    pub use crate::shared::{SharedScanResult, SharedVerdict};
    pub use crate::snoop::{probed_records, scan_resolver, ResolverOutcome, SurveyResult};
}
