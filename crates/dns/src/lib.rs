//! # dns — the DNS substrate of the `timeshift` reproduction
//!
//! A from-scratch DNS implementation on top of [`netsim`], covering exactly
//! what *"The Impact of DNS Insecurity on Time"* (DSN 2020) exercises:
//!
//! * [`name`] / [`record`] / [`message`] — RFC 1035 wire format with
//!   compression pointers (byte layout matters: the attack splices response
//!   tails at fragment boundaries);
//! * [`cache`] — the TTL-bounded cache that gets poisoned and snooped;
//! * [`zone`] / [`auth`] — authoritative serving, including the
//!   `pool.ntp.org` zone (4 rotating A records, TTL 150 s, NS + glue) and
//!   the attacker's 89-address wildcard zone;
//! * [`resolver`] — a caching recursive resolver with port/TXID
//!   randomisation, bailiwick checks, delegation following, RD=0
//!   cache-only answers and optional DNSSEC-lite validation;
//! * [`dnssec`] — the structurally faithful DNSSEC-lite scheme;
//! * [`stub`] — client-side lookup helpers embedded by NTP clients.
//!
//! ```
//! use dns::prelude::*;
//! use netsim::prelude::*;
//!
//! let mut sim = Simulator::new(1);
//! let ns: std::net::Ipv4Addr = "198.51.100.1".parse()?;
//! let resolver_addr: std::net::Ipv4Addr = "10.0.0.53".parse()?;
//! let pool: Name = "pool.ntp.org".parse()?;
//!
//! let servers = (1..=8).map(|i| std::net::Ipv4Addr::new(192, 0, 2, i)).collect();
//! sim.add_host(ns, OsProfile::nameserver(548),
//!     Box::new(AuthServer::new(vec![pool_zone(servers, 4, ns)])))?;
//! sim.add_host(resolver_addr, OsProfile::linux(),
//!     Box::new(Resolver::new(ResolverConfig::default(), vec![(pool.clone(), vec![ns])])))?;
//!
//! let addrs = lookup_once(&mut sim, "10.0.0.100".parse()?, resolver_addr, &pool);
//! assert_eq!(addrs.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod dnssec;
pub mod error;
pub mod message;
pub mod name;
pub mod record;
pub mod resolver;
pub mod stub;
pub mod zone;

/// Commonly used types.
pub mod prelude {
    pub use crate::auth::{ns_addrs, spawn_zone_nameservers, AuthServer, AuthStats, DNS_PORT};
    pub use crate::cache::{CacheHit, DnsCache};
    pub use crate::dnssec::{make_rrsig, sign_rrset, TrustAnchors, ZoneKey};
    pub use crate::error::DnsError;
    pub use crate::message::{Header, Message, MessageView, Question, Rcode};
    pub use crate::name::Name;
    pub use crate::record::{RData, Record, RecordType};
    pub use crate::resolver::{Resolver, ResolverConfig, ResolverStats};
    pub use crate::stub::{lookup_once, DnsReply, OneShot, StubResolver};
    pub use crate::zone::{
        malicious_pool_zone, pool_domain, pool_zone, AnswerPolicy, Zone, POOL_ADDRS_PER_RESPONSE,
        POOL_A_TTL, POOL_DOMAIN,
    };
}
