//! A fast, non-cryptographic hasher for the simulator's small fixed-size
//! keys (`Ipv4Addr`, address pairs, [`FragKey`](crate::frag::FragKey)).
//!
//! The event loop performs a handful of map operations per packet — IPID
//! counter lookup on send, address→`HostId` resolution at transmit, defrag
//! keying on fragment receipt. SipHash's per-call setup dominates for
//! 4–16-byte keys, so these tables use an FNV-1a-style mixer with a
//! splitmix64 finalizer instead. Keys are attacker-influenced only through
//! simulated addresses inside a single-process simulation, so HashDoS
//! resistance buys nothing here.

#[allow(
    clippy::disallowed_types,
    reason = "this module is the sanctioned wrapper: FastMap and FastSet re-key std's tables \
              with a fixed-state hasher, removing the hazard"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a byte mixer with a splitmix64 finalizer (good bucket dispersion
/// even for sequential IPv4 keys).
#[derive(Debug, Default, Clone)]
pub struct FastHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche over the folded state.
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn write_u8(&mut self, n: u8) {
        self.write(&[n]);
    }

    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write(&n.to_le_bytes());
    }
}

/// A `HashMap` keyed through [`FastHasher`]. Unlike the std default, its
/// hasher has no random state: iteration order is a pure function of the
/// inserted keys, so map-order effects can never leak nondeterminism into
/// trial results.
#[allow(clippy::disallowed_types, reason = "the definition of FastMap itself")]
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`] (see [`FastMap`]).
#[allow(clippy::disallowed_types, reason = "the definition of FastSet itself")]
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// A [`FastMap`] pre-sized for `capacity` entries. `FastMap::default()`
/// starts empty and rehashes as it grows; builders that know their size
/// (host populations, per-host caches) should reserve up front so setup
/// never rehashes mid-registration.
pub fn map_with_capacity<K, V>(capacity: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn map_round_trips_ipv4_keys() {
        let mut map: FastMap<Ipv4Addr, u32> = FastMap::default();
        for i in 0..10_000u32 {
            map.insert(Ipv4Addr::from(0x0A00_0000 + i), i);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(map.get(&Ipv4Addr::from(0x0A00_0000 + i)), Some(&i));
        }
    }

    #[test]
    fn sequential_keys_disperse() {
        // Sequential IPs (the common population layout) must not collapse
        // onto a few buckets: check the finalized hashes' low byte spread.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build: BuildHasherDefault<FastHasher> = BuildHasherDefault::default();
        let mut seen = [false; 256];
        for i in 0..256u32 {
            let h = build.hash_one(Ipv4Addr::from(0x0A00_0000 + i));
            seen[(h & 0xFF) as usize] = true;
        }
        let distinct = seen.iter().filter(|&&s| s).count();
        assert!(distinct > 140, "only {distinct} distinct low bytes over 256 sequential IPs");
    }
}
