//! RFC 1071 ones'-complement checksum arithmetic.
//!
//! The Internet checksum is central to the fragmentation attack of the
//! paper (§III-3): an off-path attacker who replaces the second fragment of
//! a UDP datagram must keep the ones'-complement sum of the replaced bytes
//! identical, because the UDP checksum field itself travels in the *first*
//! fragment which the attacker cannot touch. This module provides the sum,
//! the checksum, and the ones'-complement add/sub helpers used by the
//! fix-up ([`attack`-crate `ChecksumFixer`](https://example.org)).
// simlint: hot-path — every UDP encode and verify, and every IPv4 and
// ICMP header, sums its bytes here.

/// Computes the ones'-complement sum (without final inversion) of `data`,
/// treating it as a sequence of big-endian 16-bit words. Odd trailing bytes
/// are padded with a zero byte, per RFC 1071.
///
/// ```
/// use netsim::checksum::ones_complement_sum;
///
/// // 0x0102 + 0x0304 = 0x0406
/// assert_eq!(ones_complement_sum(&[1, 2, 3, 4]), 0x0406);
/// ```
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    // RFC 1071 §2(B): the sum is byte-order independent, so add
    // native-endian 32-bit lanes — one load and one add per four bytes,
    // which the compiler vectorises — and swap the folded sum to network
    // order once at the end. Each lane adds < 2^32, so the u64
    // accumulator cannot overflow below 2^32 lanes (16 GiB).
    let mut sum: u64 = 0;
    let mut lanes = data.chunks_exact(4);
    for lane in &mut lanes {
        sum += u64::from(u32::from_ne_bytes([lane[0], lane[1], lane[2], lane[3]]));
    }
    // The last 0–3 bytes, zero-padded: an odd final byte is the high
    // half of its big-endian word, as RFC 1071 pads it.
    let mut last = [0u8; 4];
    last[..lanes.remainder().len()].copy_from_slice(lanes.remainder());
    sum += u64::from(u32::from_ne_bytes(last));
    u16::from_be(fold_sum(sum))
}

/// Computes the Internet checksum of `data`: the bitwise complement of the
/// ones'-complement sum.
///
/// ```
/// use netsim::checksum::{checksum, verify};
///
/// let data = [0x45, 0x00, 0x00, 0x1c];
/// let ck = checksum(&data);
/// let mut with_ck = data.to_vec();
/// with_ck.extend_from_slice(&ck.to_be_bytes());
/// assert!(verify(&with_ck));
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Verifies data whose checksum field is embedded in it: valid iff the
/// ones'-complement sum over everything (including the checksum) is `0xFFFF`.
pub fn verify(data: &[u8]) -> bool {
    ones_complement_sum(data) == 0xFFFF
}

/// Adds two values in ones'-complement arithmetic (end-around carry).
pub fn oc_add(a: u16, b: u16) -> u16 {
    fold(u32::from(a) + u32::from(b))
}

/// Subtracts `b` from `a` in ones'-complement arithmetic.
///
/// `oc_add(oc_sub(a, b), b) == a` holds for all `a`, `b` up to the usual
/// ones'-complement ambiguity between `0x0000` and `0xFFFF` (both represent
/// zero); this module canonicalises sums so the identity holds exactly for
/// the values produced by [`ones_complement_sum`].
pub fn oc_sub(a: u16, b: u16) -> u16 {
    oc_add(a, !b)
}

fn fold(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// End-around-carry fold of a raw u64 accumulator of 16-bit word sums down
/// to a canonical 16-bit ones'-complement sum. Public so callers summing
/// fixed-shape words directly from registers (the UDP pseudo-header) can
/// skip staging them through a byte buffer.
#[inline]
pub fn fold_sum(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3.
        let words: [u8; 8] = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&words), 0xddf2);
        assert_eq!(checksum(&words), !0xddf2);
    }

    /// RFC 1071 word by word: big-endian 16-bit words, an odd final byte
    /// padded with zero, end-around carry after every add.
    fn reference_sum(data: &[u8]) -> u16 {
        data.chunks(2).fold(0u16, |sum, word| {
            oc_add(sum, u16::from_be_bytes([word[0], word.get(1).copied().unwrap_or(0)]))
        })
    }

    proptest! {
        #[test]
        fn wide_sum_matches_the_word_by_word_reference(
            data in proptest::collection::vec(any::<u8>(), 0..2001),
        ) {
            prop_assert_eq!(ones_complement_sum(&data), reference_sum(&data));
        }
    }

    /// The lengths around every lane boundary, and the buffers whose sums
    /// sit at the two ones'-complement zeros: all-0x00 sums to 0x0000,
    /// all-0xFF to 0xFFFF, at every length.
    #[test]
    fn wide_sum_matches_the_reference_at_the_edges() {
        for len in 0..=2000 {
            let ramp: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            assert_eq!(ones_complement_sum(&ramp), reference_sum(&ramp), "ramp of {len}");
            let zeros = vec![0u8; len];
            assert_eq!(ones_complement_sum(&zeros), 0, "{len} zero bytes");
            assert_eq!(reference_sum(&zeros), 0, "{len} zero bytes");
            let ones = vec![0xFFu8; len];
            assert_eq!(ones_complement_sum(&ones), reference_sum(&ones), "{len} 0xFF bytes");
        }
        assert_eq!(ones_complement_sum(&[0xFF; 2]), 0xFFFF);
        assert_eq!(ones_complement_sum(&[0xFF; 1]), 0xFF00);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(ones_complement_sum(&[0xAB]), ones_complement_sum(&[0xAB, 0x00]));
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let mut data = vec![0x12, 0x34, 0x56, 0x78, 0x00, 0x00];
        let ck = checksum(&data);
        data[4..6].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn oc_add_end_around_carry() {
        assert_eq!(oc_add(0xFFFF, 0x0001), 0x0001);
        assert_eq!(oc_add(0x8000, 0x8000), 0x0001);
    }

    #[test]
    fn oc_sub_inverts_oc_add() {
        for &(a, b) in
            &[(0x1234u16, 0x0FFFu16), (0xFFFE, 0x0001), (0x0001, 0xFFFE), (0xABCD, 0xABCD)]
        {
            let diff = oc_sub(a, b);
            let back = oc_add(diff, b);
            // In ones'-complement 0x0000 and 0xFFFF are both zero.
            let eq =
                back == a || (back == 0xFFFF && a == 0x0000) || (back == 0x0000 && a == 0xFFFF);
            assert!(eq, "a={a:#06x} b={b:#06x} diff={diff:#06x} back={back:#06x}");
        }
    }
}
