//! Operating-system network-stack profiles.
//!
//! The paper's attack surface depends on concrete OS behaviours: how IPIDs
//! are assigned (predictability), how long defragmentation caches hold
//! spoofed fragments, whether ICMP fragmentation-needed messages are
//! honoured and down to what MTU, and whether fragmented datagrams are
//! accepted at all (some resolvers/middleboxes drop them).

use crate::frag::{DefragConfig, DuplicatePolicy};
use crate::time::SimDuration;

/// How a host assigns the IPv4 identification field on sent packets.
///
/// Predictable IPIDs are a prerequisite of the fragment-replacement attack
/// (§III-2); the attacker extrapolates the counter from probe responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpidMode {
    /// A single global counter incremented per packet (classic behaviour,
    /// trivially predictable).
    GlobalSequential {
        /// Initial counter value.
        start: u16,
    },
    /// A per-destination counter (predictable only via the destination the
    /// attacker controls plus extrapolation of the increment rate).
    PerDestination {
        /// Initial counter value for every destination.
        start: u16,
    },
    /// Uniformly random per packet (unpredictable; defeats the attack).
    Random,
}

impl Default for IpidMode {
    fn default() -> Self {
        IpidMode::GlobalSequential { start: 1 }
    }
}

/// Whether and how a host reacts to ICMP fragmentation-needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmtudPolicy {
    /// Honour ICMP frag-needed at all. Hosts that ignore it never fragment
    /// (the "no PMTUD" population of Fig. 5).
    pub honour_icmp: bool,
    /// The smallest MTU the host will accept from an ICMP message. Claims
    /// below this are clamped (Linux `min_pmtu`, default 552) or ignored.
    /// This produces the "minimum fragment size" distribution of Fig. 5.
    pub min_accepted_mtu: u16,
    /// How long a learned path MTU is cached before expiring back to the
    /// interface MTU (Linux default: 10 minutes).
    pub cache_lifetime: SimDuration,
}

impl Default for PmtudPolicy {
    fn default() -> Self {
        PmtudPolicy {
            honour_icmp: true,
            min_accepted_mtu: 548,
            cache_lifetime: SimDuration::from_secs(600),
        }
    }
}

impl PmtudPolicy {
    /// A policy that ignores ICMP frag-needed entirely.
    pub fn ignore() -> Self {
        PmtudPolicy { honour_icmp: false, ..PmtudPolicy::default() }
    }

    /// A policy honouring claims down to `min` bytes.
    pub fn honour_down_to(min: u16) -> Self {
        PmtudPolicy { honour_icmp: true, min_accepted_mtu: min, ..PmtudPolicy::default() }
    }
}

/// A complete OS network-stack profile.
#[derive(Debug, Clone, PartialEq)]
pub struct OsProfile {
    /// Human-readable name ("linux", "windows", ...).
    pub name: String,
    /// Interface MTU (1500 for Ethernet).
    pub interface_mtu: u16,
    /// Defragmentation-cache behaviour.
    pub defrag: DefragConfig,
    /// Whether incoming fragments are processed at all. Middleboxes and
    /// some resolvers (e.g. Google's public DNS for small fragments) drop
    /// them, defeating the attack.
    pub accept_fragments: bool,
    /// Smallest incoming fragment size (on-wire bytes) that is accepted;
    /// fragments below are dropped. Models resolvers that filter "tiny"
    /// fragments (Table V columns).
    pub min_fragment_size: u16,
    /// Reaction to ICMP fragmentation-needed.
    pub pmtud: PmtudPolicy,
    /// IPID assignment strategy.
    pub ipid: IpidMode,
    /// Cap on the per-destination IPID counter table
    /// ([`IpidMode::PerDestination`]): least-recently-used counters are
    /// evicted past this, bounding memory under spoofed-source sprays.
    pub ipid_cache_cap: usize,
}

/// Default [`OsProfile::ipid_cache_cap`]: enough for every paper scenario
/// while keeping a sprayed stack's footprint bounded.
pub const DEFAULT_IPID_CACHE_CAP: usize = 4096;

impl OsProfile {
    /// Patched Linux: 30 s reassembly timeout, 64-fragment cap, sequential
    /// per-destination IPIDs, honours PMTUD down to 552 bytes.
    pub fn linux() -> Self {
        OsProfile {
            name: "linux".to_owned(),
            interface_mtu: 1500,
            defrag: DefragConfig {
                timeout: SimDuration::from_secs(30),
                max_pending_per_pair: 64,
                duplicate_policy: DuplicatePolicy::FirstWins,
            },
            accept_fragments: true,
            min_fragment_size: 0,
            pmtud: PmtudPolicy::honour_down_to(552),
            ipid: IpidMode::PerDestination { start: 1 },
            ipid_cache_cap: DEFAULT_IPID_CACHE_CAP,
        }
    }

    /// Windows: 60 s reassembly timeout, 100-fragment cap, global
    /// sequential IPIDs.
    pub fn windows() -> Self {
        OsProfile {
            name: "windows".to_owned(),
            interface_mtu: 1500,
            defrag: DefragConfig {
                timeout: SimDuration::from_secs(60),
                max_pending_per_pair: 100,
                duplicate_policy: DuplicatePolicy::FirstWins,
            },
            accept_fragments: true,
            min_fragment_size: 0,
            pmtud: PmtudPolicy::honour_down_to(576),
            ipid: IpidMode::GlobalSequential { start: 1 },
            ipid_cache_cap: DEFAULT_IPID_CACHE_CAP,
        }
    }

    /// A nameserver host that honours ICMP frag-needed down to `min_mtu`
    /// bytes — the measured property of Fig. 5 — with otherwise Linux-like
    /// behaviour, and classic global sequential IPIDs (the vulnerable
    /// configuration the paper exploits).
    pub fn nameserver(min_mtu: u16) -> Self {
        OsProfile {
            name: format!("nameserver-minmtu-{min_mtu}"),
            pmtud: PmtudPolicy::honour_down_to(min_mtu),
            ipid: IpidMode::GlobalSequential { start: 0x0100 },
            ..OsProfile::linux()
        }
    }

    /// A nameserver that ignores PMTUD and never fragments.
    pub fn nameserver_no_pmtud() -> Self {
        OsProfile {
            name: "nameserver-no-pmtud".to_owned(),
            pmtud: PmtudPolicy::ignore(),
            ipid: IpidMode::Random,
            ..OsProfile::linux()
        }
    }

    /// A resolver host that drops all incoming fragments (Google-style
    /// filtering of everything below `min_size` on-wire bytes; pass 0 to
    /// accept everything).
    pub fn resolver_filtering(min_size: u16) -> Self {
        OsProfile {
            name: format!("resolver-filter-{min_size}"),
            min_fragment_size: min_size,
            ..OsProfile::linux()
        }
    }
}

impl Default for OsProfile {
    fn default() -> Self {
        OsProfile::linux()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_constants() {
        let linux = OsProfile::linux();
        assert_eq!(linux.defrag.timeout, SimDuration::from_secs(30));
        assert_eq!(linux.defrag.max_pending_per_pair, 64);
        let win = OsProfile::windows();
        assert_eq!(win.defrag.timeout, SimDuration::from_secs(60));
        assert_eq!(win.defrag.max_pending_per_pair, 100);
    }

    #[test]
    fn nameserver_profile_honours_requested_min_mtu() {
        let ns = OsProfile::nameserver(292);
        assert!(ns.pmtud.honour_icmp);
        assert_eq!(ns.pmtud.min_accepted_mtu, 292);
        assert!(matches!(ns.ipid, IpidMode::GlobalSequential { .. }));
    }

    #[test]
    fn no_pmtud_profile_ignores_icmp() {
        assert!(!OsProfile::nameserver_no_pmtud().pmtud.honour_icmp);
    }
}
