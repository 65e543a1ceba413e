//! The drop/outcome taxonomy of the receive path.
//!
//! Every branch of [`NetStack::receive`](crate::sim::NetStack) that
//! discards a packet names exactly one [`DropReason`]; the counts are kept
//! per host ([`NetStack::drop_counts`](crate::sim::NetStack::drop_counts))
//! and aggregated incrementally into
//! [`SimStats::drops`](crate::sim::SimStats) — no silent drops. The paper's
//! attack chain is diagnosed from these: a failed poisoning trial explains
//! itself as "defrag cap full" vs "checksum caught the forgery" vs "the
//! planted fragment expired" without re-running under a debugger.

/// Why the receive path discarded a packet.
///
/// The numeric code (`as u16`) rides trace events as the
/// [`obs::kind::DROP`] operand, so a dumped flight-recorder ring names the
/// same taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum DropReason {
    /// The host's OS profile does not accept fragments at all.
    NoFragSupport = 1,
    /// A non-final fragment below the profile's minimum size (the
    /// tiny-fragment filtering of Table V resolvers).
    TinyFragment = 2,
    /// The per-(src, dst) defrag cache cap was reached (64 on Linux / 100
    /// on Windows, paper §III-2).
    DefragCapFull = 3,
    /// A fragment for an already-covered byte range under `FirstWins`.
    DuplicateFragment = 4,
    /// A pending reassembly hit its timeout; its stored fragments were
    /// discarded (counted once per expired reassembly entry).
    DefragExpired = 5,
    /// UDP payload shorter than the UDP header.
    UdpTruncated = 6,
    /// UDP declared length disagreed with the buffer.
    UdpLengthMismatch = 7,
    /// The UDP pseudo-header checksum failed — the verification that a
    /// spoofed-fragment forgery without a checksum fix-up dies on.
    UdpBadChecksum = 8,
    /// An ICMP payload that did not decode.
    IcmpMalformed = 9,
    /// An IPv4 protocol number this stack does not model.
    UnknownProtocol = 10,
}

impl DropReason {
    /// Stable code for trace events and dumps.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Whether this reason is a UDP verification failure (the
    /// checksum/length defence, not a fragment-cache outcome).
    pub fn is_verify(self) -> bool {
        matches!(
            self,
            DropReason::UdpTruncated | DropReason::UdpLengthMismatch | DropReason::UdpBadChecksum
        )
    }

    /// Human-readable label (docs table, ring dumps).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::NoFragSupport => "no-frag-support",
            DropReason::TinyFragment => "tiny-fragment",
            DropReason::DefragCapFull => "defrag-cap-full",
            DropReason::DuplicateFragment => "duplicate-fragment",
            DropReason::DefragExpired => "defrag-expired",
            DropReason::UdpTruncated => "udp-truncated",
            DropReason::UdpLengthMismatch => "udp-length-mismatch",
            DropReason::UdpBadChecksum => "udp-bad-checksum",
            DropReason::IcmpMalformed => "icmp-malformed",
            DropReason::UnknownProtocol => "unknown-protocol",
        }
    }
}

/// Exhaustive per-reason drop counters.
///
/// Plain named `u64` fields (not a map): bumping one is a single add on the
/// hot path, the struct is `Copy` for O(1) stats snapshots, and
/// serialization names every reason even when zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// [`DropReason::NoFragSupport`] drops.
    pub no_frag_support: u64,
    /// [`DropReason::TinyFragment`] drops.
    pub tiny_fragment: u64,
    /// [`DropReason::DefragCapFull`] drops.
    pub defrag_cap_full: u64,
    /// [`DropReason::DuplicateFragment`] drops.
    pub duplicate_fragment: u64,
    /// [`DropReason::DefragExpired`] reassembly entries.
    pub defrag_expired: u64,
    /// [`DropReason::UdpTruncated`] drops.
    pub udp_truncated: u64,
    /// [`DropReason::UdpLengthMismatch`] drops.
    pub udp_length_mismatch: u64,
    /// [`DropReason::UdpBadChecksum`] drops.
    pub udp_bad_checksum: u64,
    /// [`DropReason::IcmpMalformed`] drops.
    pub icmp_malformed: u64,
    /// [`DropReason::UnknownProtocol`] drops.
    pub unknown_protocol: u64,
}

impl DropCounts {
    /// Increments the counter for `reason`.
    #[inline]
    pub fn bump(&mut self, reason: DropReason) {
        *self.slot(reason) += 1;
    }

    /// Adds `n` to the counter for `reason`.
    #[inline]
    pub fn add(&mut self, reason: DropReason, n: u64) {
        *self.slot(reason) += n;
    }

    fn slot(&mut self, reason: DropReason) -> &mut u64 {
        match reason {
            DropReason::NoFragSupport => &mut self.no_frag_support,
            DropReason::TinyFragment => &mut self.tiny_fragment,
            DropReason::DefragCapFull => &mut self.defrag_cap_full,
            DropReason::DuplicateFragment => &mut self.duplicate_fragment,
            DropReason::DefragExpired => &mut self.defrag_expired,
            DropReason::UdpTruncated => &mut self.udp_truncated,
            DropReason::UdpLengthMismatch => &mut self.udp_length_mismatch,
            DropReason::UdpBadChecksum => &mut self.udp_bad_checksum,
            DropReason::IcmpMalformed => &mut self.icmp_malformed,
            DropReason::UnknownProtocol => &mut self.unknown_protocol,
        }
    }

    /// The count for one reason.
    pub fn get(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::NoFragSupport => self.no_frag_support,
            DropReason::TinyFragment => self.tiny_fragment,
            DropReason::DefragCapFull => self.defrag_cap_full,
            DropReason::DuplicateFragment => self.duplicate_fragment,
            DropReason::DefragExpired => self.defrag_expired,
            DropReason::UdpTruncated => self.udp_truncated,
            DropReason::UdpLengthMismatch => self.udp_length_mismatch,
            DropReason::UdpBadChecksum => self.udp_bad_checksum,
            DropReason::IcmpMalformed => self.icmp_malformed,
            DropReason::UnknownProtocol => self.unknown_protocol,
        }
    }

    /// Drops attributable to the fragment/reassembly machinery.
    pub fn frag_drops(&self) -> u64 {
        self.no_frag_support
            + self.tiny_fragment
            + self.defrag_cap_full
            + self.duplicate_fragment
            + self.defrag_expired
    }

    /// Drops attributable to UDP verification (checksum/length defence).
    pub fn verify_drops(&self) -> u64 {
        self.udp_truncated + self.udp_length_mismatch + self.udp_bad_checksum
    }

    /// All counted drops.
    pub fn total(&self) -> u64 {
        self.frag_drops() + self.verify_drops() + self.icmp_malformed + self.unknown_protocol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [DropReason; 10] = [
        DropReason::NoFragSupport,
        DropReason::TinyFragment,
        DropReason::DefragCapFull,
        DropReason::DuplicateFragment,
        DropReason::DefragExpired,
        DropReason::UdpTruncated,
        DropReason::UdpLengthMismatch,
        DropReason::UdpBadChecksum,
        DropReason::IcmpMalformed,
        DropReason::UnknownProtocol,
    ];

    #[test]
    fn every_reason_has_a_distinct_code_and_slot() {
        let mut counts = DropCounts::default();
        let mut codes = Vec::new();
        for (i, r) in ALL.iter().enumerate() {
            counts.add(*r, i as u64 + 1);
            codes.push(r.code());
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ALL.len(), "codes must be unique");
        for (i, r) in ALL.iter().enumerate() {
            assert_eq!(counts.get(*r), i as u64 + 1, "slot for {:?}", r);
        }
        assert_eq!(counts.total(), (1..=ALL.len() as u64).sum::<u64>());
    }

    #[test]
    fn category_sums_partition_the_total() {
        let mut counts = DropCounts::default();
        for r in ALL {
            counts.bump(r);
        }
        assert_eq!(counts.frag_drops(), 5);
        assert_eq!(counts.verify_drops(), 3);
        assert_eq!(counts.total(), 10);
        assert!(DropReason::UdpBadChecksum.is_verify());
        assert!(!DropReason::DefragCapFull.is_verify());
    }
}
