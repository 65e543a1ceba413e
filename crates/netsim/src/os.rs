//! Operating-system network-stack profiles.
//!
//! The paper's attack surface depends on concrete OS behaviours: how IPIDs
//! are assigned (predictability), how long defragmentation caches hold
//! spoofed fragments, whether ICMP fragmentation-needed messages are
//! honoured and down to what MTU, and whether fragmented datagrams are
//! accepted at all (some resolvers/middleboxes drop them).
//!
//! Only the behaviours that differ between the modelled hosts are profile
//! fields. What every host shares is a constant next to its reader: the
//! 1500-byte interface MTU and the 10-minute PMTU lifetime
//! ([`crate::pmtu`]); the defragmentation cache's 30 s timeout, 64-fragment
//! cap and first-wins duplicate handling ([`crate::frag`]); and one IPID
//! counter per destination for as long as the stack lives
//! ([`IpidMode::PerDestination`]).

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

/// A complete OS network-stack profile.
#[derive(Debug, Clone, PartialEq)]
pub struct OsProfile {
    /// Which incoming fragments are processed. `None` refuses every
    /// fragment (middleboxes and resolvers that drop them, defeating the
    /// attack). `Some(n)` drops non-final fragments under `n` on-wire
    /// bytes, modelling resolvers that filter "tiny" fragments (Table V
    /// columns); `Some(0)` accepts all fragments.
    pub fragments: Option<u16>,
    /// The smallest MTU accepted from an ICMP fragmentation-needed message;
    /// claims below it are clamped up to it (Linux `min_pmtu`). This
    /// produces the "minimum fragment size" distribution of Fig. 5. `None`
    /// ignores frag-needed entirely: the host never fragments (the "no
    /// PMTUD" population of Fig. 5).
    pub pmtu_floor: Option<u16>,
    /// IPID assignment strategy.
    pub ipid: IpidMode,
}

impl OsProfile {
    /// Patched Linux: 30 s reassembly timeout, 64-fragment cap, sequential
    /// per-destination IPIDs, honours PMTUD down to 552 bytes.
    pub fn linux() -> Self {
        OsProfile {
            fragments: Some(0),
            pmtu_floor: Some(552),
            ipid: IpidMode::PerDestination { start: 1 },
        }
    }

    /// A nameserver host that honours ICMP frag-needed down to `min_mtu`
    /// bytes — the measured property of Fig. 5 — with otherwise Linux-like
    /// behaviour, and classic global sequential IPIDs (the vulnerable
    /// configuration the paper exploits).
    pub fn nameserver(min_mtu: u16) -> Self {
        OsProfile {
            pmtu_floor: Some(min_mtu),
            ipid: IpidMode::GlobalSequential { start: 0x0100 },
            ..OsProfile::linux()
        }
    }

    /// A nameserver that ignores PMTUD and never fragments.
    pub fn nameserver_no_pmtud() -> Self {
        OsProfile { pmtu_floor: None, ipid: IpidMode::Random, ..OsProfile::linux() }
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
        assert_eq!(crate::frag::DefragConfig::default().max_pending_per_pair, 64);
        assert_eq!(linux.fragments, Some(0));
        assert_eq!(linux.pmtu_floor, Some(552));
    }

    #[test]
    fn nameserver_profile_honours_requested_min_mtu() {
        let ns = OsProfile::nameserver(292);
        assert_eq!(ns.pmtu_floor, Some(292));
        assert!(matches!(ns.ipid, IpidMode::GlobalSequential { .. }));
    }

    #[test]
    fn no_pmtud_profile_ignores_icmp() {
        assert_eq!(OsProfile::nameserver_no_pmtud().pmtu_floor, None);
    }
}
