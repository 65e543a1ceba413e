//! DNS domain names in wire form (RFC 1035 §3.1), and the
//! compression-aware reader (§4.1.4) that the message codec and the
//! attack's wire walker share.
//!
//! A [`Name`] holds its lower-cased, length-prefixed label sequence (the
//! root byte left off) in one 30-byte inline buffer, spilling to a shared
//! heap slice only for longer names. Decoding, comparing, hashing and
//! cloning a name on the probe path therefore touch no allocator.
// simlint: hot-path — names are decoded, compared, hashed and cloned per
// probe; only names over 30 label bytes and non-UTF-8 labels allocate.

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use crate::error::DnsError;

/// Maximum total wire length of a name.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;

/// Label bytes (length prefixes included) stored inline; `pool.ntp.org`
/// needs 13 and `ns23.pool.ntp.org` 18.
const INLINE_CAP: usize = 30;
/// Label bytes of the longest legal name: everything but the root byte.
const MAX_WIRE: usize = MAX_NAME_LEN - 1;

#[derive(Clone)]
enum Storage {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Spilled(Arc<[u8]>),
}

/// A fully-qualified DNS name. Labels are stored lower-cased (DNS name
/// comparison is case-insensitive) without the trailing root dot.
///
/// The stored bytes are the wire form: each label is a length byte
/// (1–63) followed by its bytes, and every label is valid UTF-8 (labels
/// that were not are stored as their lossy conversion). Equality is byte
/// equality of that form; ordering and hashing are label-wise and match a
/// `Vec<String>` of the labels exactly.
///
/// ```
/// use dns::name::Name;
///
/// let name: Name = "POOL.NTP.ORG".parse().unwrap();
/// assert_eq!(name.to_string(), "pool.ntp.org");
/// assert!(name.is_subdomain_of(&"ntp.org".parse().unwrap()));
/// ```
#[derive(Clone)]
pub struct Name {
    storage: Storage,
}

const _: () = assert!(std::mem::size_of::<Name>() <= 32);

impl Name {
    /// The DNS root (empty) name.
    pub fn root() -> Self {
        Name { storage: Storage::Inline { len: 0, buf: [0; INLINE_CAP] } }
    }

    /// Wraps label bytes that are already in canonical form.
    fn from_wire(wire: &[u8]) -> Name {
        if wire.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..wire.len()].copy_from_slice(wire);
            Name { storage: Storage::Inline { len: wire.len() as u8, buf } }
        } else {
            Name { storage: Storage::Spilled(Arc::from(wire)) }
        }
    }

    /// Builds a name from labels, validating lengths.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::BadName`] on empty/oversized labels or names.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, DnsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut buf = [0u8; MAX_WIRE];
        let mut len = 0;
        for label in labels {
            let label = label.as_ref().as_bytes();
            if label.is_empty() || label.len() > MAX_LABEL_LEN {
                return Err(DnsError::BadName { reason: "label length out of range" });
            }
            // Root byte + the labels so far + this one.
            if 1 + len + 1 + label.len() > MAX_NAME_LEN {
                return Err(DnsError::BadName { reason: "name exceeds 255 bytes" });
            }
            buf[len] = label.len() as u8;
            for (dst, src) in buf[len + 1..].iter_mut().zip(label) {
                *dst = src.to_ascii_lowercase();
            }
            len += 1 + label.len();
        }
        Ok(Name::from_wire(&buf[..len]))
    }

    /// The length-prefixed label bytes, lower-cased, without the root byte
    /// (`b"\x04pool\x03ntp\x03org"`).
    pub(crate) fn as_wire(&self) -> &[u8] {
        match &self.storage {
            Storage::Inline { len, buf } => &buf[..usize::from(*len)],
            Storage::Spilled(wire) => wire,
        }
    }

    /// The labels, most-significant last (`pool`, `ntp`, `org`).
    pub fn labels(&self) -> Labels<'_> {
        Labels(LabelBytes(self.as_wire()))
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        LabelBytes(self.as_wire()).count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.as_wire().is_empty()
    }

    /// True if `self` is `other` or lies underneath it
    /// (`a.pool.ntp.org ⊑ ntp.org`). Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let (mine, theirs) = (self.as_wire(), other.as_wire());
        // Step over whole labels until the rest is no longer than `other`:
        // a byte suffix that starts mid-label is not a subdomain.
        let mut at = 0;
        while mine.len().saturating_sub(at) > theirs.len() {
            at += 1 + usize::from(mine[at]);
        }
        mine.get(at..) == Some(theirs)
    }

    /// The parent name (one label stripped); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        let wire = self.as_wire();
        let first = *wire.first()?;
        Some(Name::from_wire(wire.get(1 + usize::from(first)..).unwrap_or_default()))
    }

    /// Returns a child of this name: `label` prepended.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::BadName`] if the label is invalid.
    pub fn child(&self, label: &str) -> Result<Name, DnsError> {
        Name::from_labels(std::iter::once(label).chain(self.labels()))
    }

    /// Wire length when encoded without compression.
    pub fn wire_len(&self) -> usize {
        1 + self.as_wire().len()
    }

    /// Iterates over the name and all its ancestors up to the root:
    /// `pool.ntp.org`, `ntp.org`, `org`, `.`.
    pub fn self_and_ancestors(&self) -> impl Iterator<Item = Name> + '_ {
        let wire = self.as_wire();
        let mut next = Some(0);
        std::iter::from_fn(move || {
            let at = next?;
            let suffix = wire.get(at..).unwrap_or_default();
            next = suffix.first().map(|&len| at + 1 + usize::from(len));
            Some(Name::from_wire(suffix))
        })
    }
}

/// The label byte slices of a wire-form name, in order.
#[derive(Clone)]
struct LabelBytes<'a>(&'a [u8]);

impl<'a> Iterator for LabelBytes<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at_checked(usize::from(len))?;
        self.0 = rest;
        Some(label)
    }
}

/// Iterator over a name's labels, from [`Name::labels`].
#[derive(Clone)]
pub struct Labels<'a>(LabelBytes<'a>);

impl<'a> Iterator for Labels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        // Every stored label is valid UTF-8 (see `Name`), so this never
        // falls back to the empty string.
        self.0.next().map(|label| std::str::from_utf8(label).unwrap_or_default())
    }
}

impl fmt::Debug for Labels<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(Labels(LabelBytes(self.0 .0))).finish()
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_wire() == other.as_wire()
    }
}

impl Eq for Name {}

impl Hash for Name {
    /// Writes exactly the stream a derived `Hash` over `Vec<String>` labels
    /// does — the count, then each label's bytes and a `0xff` terminator —
    /// so hash-keyed map iteration orders do not depend on the layout.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.label_count());
        for label in LabelBytes(self.as_wire()) {
            state.write(label);
            state.write_u8(0xff);
        }
    }
}

impl Ord for Name {
    /// Label-wise, most-specific label first (as a `Vec<String>` orders).
    fn cmp(&self, other: &Name) -> Ordering {
        LabelBytes(self.as_wire()).cmp(LabelBytes(other.as_wire()))
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Name").field("labels", &self.labels()).finish()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.'))
    }
}

/// What one pass over an encoded name found.
struct Walked {
    /// Label bytes of the whole name (length bytes included).
    len: usize,
    /// Position just after the name in the un-followed stream.
    next: usize,
}

/// Follows the name at `pos`, copying its lower-cased labels into `out`
/// while they fit (the rest is only measured). Structural faults end the
/// walk at once; an over-long label or name is reported only once the
/// walk completes, so which error wins does not depend on where the
/// faults sit.
fn walk_name(data: &[u8], mut pos: usize, out: &mut [u8]) -> Result<Walked, DnsError> {
    let mut len = 0;
    let mut next = None;
    let mut hops = 0;
    let mut oversize = None;
    loop {
        let byte = *data.get(pos).ok_or(DnsError::Truncated { context: "name" })?;
        if byte & 0xC0 == 0xC0 {
            let lo = *data.get(pos + 1).ok_or(DnsError::Truncated { context: "pointer" })?;
            let target = usize::from(u16::from_be_bytes([byte & 0x3F, lo]));
            if next.is_none() {
                next = Some(pos + 2);
            }
            if target >= pos && hops == 0 {
                return Err(DnsError::BadPointer); // forward pointer
            }
            hops += 1;
            if hops > 32 {
                return Err(DnsError::BadPointer);
            }
            pos = target;
        } else if byte == 0 {
            pos += 1;
            break;
        } else {
            let n = usize::from(byte);
            if n > MAX_LABEL_LEN {
                return Err(DnsError::BadName { reason: "label length > 63" });
            }
            let raw =
                data.get(pos + 1..pos + 1 + n).ok_or(DnsError::Truncated { context: "label" })?;
            // A label that is not UTF-8 is kept as its lossy conversion,
            // which can lengthen it; only such labels allocate.
            let lossy;
            let label = if raw.is_ascii() {
                raw
            } else {
                lossy = String::from_utf8_lossy(raw);
                lossy.as_bytes()
            };
            if oversize.is_none() {
                if label.len() > MAX_LABEL_LEN {
                    oversize = Some("label length out of range");
                } else if len + 1 + label.len() > MAX_WIRE {
                    oversize = Some("name exceeds 255 bytes");
                } else {
                    if let Some((len_byte, dst)) =
                        out.get_mut(len..len + 1 + label.len()).and_then(<[u8]>::split_first_mut)
                    {
                        *len_byte = label.len() as u8;
                        for (d, s) in dst.iter_mut().zip(label) {
                            *d = s.to_ascii_lowercase();
                        }
                    }
                    len += 1 + label.len();
                }
            }
            pos += 1 + n;
        }
    }
    match oversize {
        Some(reason) => Err(DnsError::BadName { reason }),
        None => Ok(Walked { len, next: next.unwrap_or(pos) }),
    }
}

/// Reads a possibly-compressed name starting at `pos` of the message
/// `data`; returns the name and the position just after it (in the
/// un-followed stream).
///
/// The first pointer must point backwards, chains end after 32 hops, and
/// labels longer than 63 bytes are rejected. Labels that are not valid
/// UTF-8 are kept as their lossy conversion.
///
/// # Errors
///
/// Returns [`DnsError`] on truncation, bad pointers, or an oversized
/// label or name.
pub fn read_name_at(data: &[u8], pos: usize) -> Result<(Name, usize), DnsError> {
    let mut buf = [0u8; INLINE_CAP];
    let walked = walk_name(data, pos, &mut buf)?;
    let name = if walked.len <= INLINE_CAP {
        Name { storage: Storage::Inline { len: walked.len as u8, buf } }
    } else {
        read_long_name(data, pos)?
    };
    Ok((name, walked.next))
}

/// Checks the name at `pos` as [`read_name_at`] does — the same walk,
/// the same errors — without building it; returns the position after it.
///
/// # Errors
///
/// Returns the [`DnsError`] that [`read_name_at`] would.
pub fn skip_name_at(data: &[u8], pos: usize) -> Result<usize, DnsError> {
    walk_name(data, pos, &mut []).map(|walked| walked.next)
}

/// Second pass for a name too long to keep inline.
#[cold]
fn read_long_name(data: &[u8], pos: usize) -> Result<Name, DnsError> {
    let mut buf = [0u8; MAX_WIRE];
    let walked = walk_name(data, pos, &mut buf)?;
    Ok(Name::from_wire(buf.get(..walked.len).unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Name = "Pool.NTP.org.".parse().unwrap();
        assert_eq!(n.to_string(), "pool.ntp.org");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn root_parses_from_dot_and_empty() {
        assert!(Name::from_str(".").unwrap().is_root());
        assert!(Name::from_str("").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn subdomain_relation() {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        let org: Name = "org".parse().unwrap();
        let child: Name = "0.pool.ntp.org".parse().unwrap();
        assert!(pool.is_subdomain_of(&pool));
        assert!(pool.is_subdomain_of(&org));
        assert!(child.is_subdomain_of(&pool));
        assert!(!org.is_subdomain_of(&pool));
        assert!(pool.is_subdomain_of(&Name::root()));
        // Same-length different name is not a subdomain.
        let other: Name = "pool.ntp.net".parse().unwrap();
        assert!(!other.is_subdomain_of(&pool));
    }

    #[test]
    fn parent_and_child() {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        assert_eq!(pool.parent().unwrap().to_string(), "ntp.org");
        assert_eq!(pool.child("0").unwrap().to_string(), "0.pool.ntp.org");
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn oversize_label_rejected() {
        let long = "x".repeat(64);
        assert!(Name::from_labels([long.as_str()]).is_err());
        assert!(Name::from_labels(["ok", ""]).is_err());
    }

    #[test]
    fn oversize_name_rejected() {
        let label = "a".repeat(63);
        let labels = vec![label; 5]; // 5 * 64 + 1 > 255
        assert!(Name::from_labels(labels).is_err());
    }

    #[test]
    fn case_insensitive_equality_via_lowercasing() {
        let a: Name = "NS1.Pool.Ntp.Org".parse().unwrap();
        let b: Name = "ns1.pool.ntp.org".parse().unwrap();
        assert_eq!(a, b);
        #[allow(
            clippy::disallowed_types,
            reason = "checks `Name`'s `Hash` against std's SipHash set; iteration order is never read"
        )]
        let set: std::collections::HashSet<Name> = [a].into_iter().collect();
        assert!(set.contains(&b));
    }

    #[test]
    fn ancestors_walk() {
        let n: Name = "a.b.c".parse().unwrap();
        let walk: Vec<String> = n.self_and_ancestors().map(|x| x.to_string()).collect();
        assert_eq!(walk, vec!["a.b.c", "b.c", "c", "."]);
    }

    #[test]
    fn wire_len_counts_length_bytes_and_root() {
        let n: Name = "pool.ntp.org".parse().unwrap();
        // 1+4 + 1+3 + 1+3 + 1 = 14
        assert_eq!(n.wire_len(), 14);
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn long_names_spill_and_behave_like_short_ones() {
        let long: Name = "a-rather-long-label.another-long-label.example".parse().unwrap();
        assert!(long.as_wire().len() > INLINE_CAP);
        assert_eq!(long.to_string(), "a-rather-long-label.another-long-label.example");
        assert_eq!(long.label_count(), 3);
        assert!(long.is_subdomain_of(&"example".parse().unwrap()));
        assert_eq!(long.parent().unwrap().to_string(), "another-long-label.example");
        let mut wire = long.as_wire().to_vec();
        wire.push(0);
        assert_eq!(read_name_at(&wire, 0).unwrap(), (long, wire.len()));
    }

    #[test]
    fn subdomain_respects_label_boundaries() {
        // The byte string "\x03org" is a suffix of "\x05x\x03org"'s wire
        // form, but it starts inside the single label "x\x03org".
        let odd = Name::from_labels(["x\u{3}org"]).unwrap();
        assert!(!odd.is_subdomain_of(&"org".parse().unwrap()));
    }

    #[test]
    fn debug_lists_the_labels() {
        let n: Name = "pool.ntp.org".parse().unwrap();
        assert_eq!(format!("{n:?}"), r#"Name { labels: ["pool", "ntp", "org"] }"#);
    }

    #[test]
    fn non_utf8_labels_decode_lossily() {
        let wire = [2, 0xFF, b'A', 0];
        let (name, next) = read_name_at(&wire, 0).unwrap();
        assert_eq!(next, 4);
        assert_eq!(name.labels().collect::<Vec<_>>(), ["\u{FFFD}a"]);
    }
}
