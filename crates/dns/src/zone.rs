//! Authoritative zone data and answer policies.
//!
//! The central zone in the reproduction is `pool.ntp.org`: it answers A
//! queries with 4 addresses drawn round-robin from the pool (TTL 150 s, as
//! the paper measured) and lists its nameservers with glue. The attacker's
//! nameserver is a zone with a [`AnswerPolicy::Wildcard`] handing out up to
//! 89 attacker addresses per response (§VI).

use netsim::fasthash::FastMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

use crate::dnssec::ZoneKey;
use crate::name::Name;
use crate::record::{Record, RecordType};

/// The domain under attack: every NTP client, Chronos client and attacker
/// in the model resolves this name.
pub const POOL_DOMAIN: &str = "pool.ntp.org";

/// [`POOL_DOMAIN`] as a [`Name`].
pub fn pool_domain() -> Name {
    POOL_DOMAIN.parse().expect("static name")
}

/// The TTL of `pool.ntp.org` A records observed by the paper (§IV-A).
pub const POOL_A_TTL: u32 = 150;
/// Addresses returned per pool query.
pub const POOL_ADDRS_PER_RESPONSE: usize = 4;

/// How a zone answers A queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerPolicy {
    /// Answer from the static record store only.
    Static,
    /// `pool.ntp.org`-style rotation: any A query for one of `names` is
    /// answered with `per_response` addresses drawn uniformly at random
    /// without replacement from `addrs` — the observable behaviour of the
    /// real pool's GeoDNS, and the reason Chronos spreads its lookups to
    /// accumulate distinct servers.
    Rotate {
        /// Names that rotate (the origin and `0..3.` children, typically).
        names: Vec<Name>,
        /// The full pool of addresses.
        addrs: Vec<Ipv4Addr>,
        /// Addresses per response.
        per_response: usize,
        /// TTL on the rotated answers.
        ttl: u32,
    },
    /// Malicious-nameserver mode: answer **any** A query under the origin
    /// with (up to) `per_response` of `addrs` — the attacker feeding 89
    /// addresses into Chronos' pool.
    Wildcard {
        /// Attacker-controlled addresses.
        addrs: Vec<Ipv4Addr>,
        /// Addresses per response.
        per_response: usize,
        /// TTL — the Chronos attack sets this above 24 h.
        ttl: u32,
    },
}

/// An authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    /// The zone apex.
    pub origin: Name,
    /// DNSSEC-lite signing key; `None` for the (typical) unsigned zone.
    pub key: Option<ZoneKey>,
    /// Answer policy for A queries.
    pub policy: AnswerPolicy,
    records: FastMap<(Name, RecordType), Vec<Record>>,
    /// Glue A records for the apex NS targets, derived on the first
    /// [`Zone::glue_records`] after the last [`Zone::add`] (which empties
    /// the cell), so an answer copies them instead of looking each target
    /// up, and building a zone derives them once, not once per record.
    glue: OnceLock<Vec<Record>>,
}

impl Zone {
    /// Creates an empty, unsigned, static zone.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            key: None,
            policy: AnswerPolicy::Static,
            records: FastMap::default(),
            glue: OnceLock::new(),
        }
    }

    /// Adds a record to the store.
    ///
    /// # Panics
    ///
    /// Panics if the record's owner is outside the zone.
    pub fn add(&mut self, record: Record) -> &mut Self {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        self.records.entry((record.name.clone(), record.rtype())).or_default().push(record);
        self.glue.take();
        self
    }

    /// Signs the zone with `key` (DNSSEC-lite).
    pub fn with_key(mut self, key: ZoneKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Sets the answer policy.
    pub fn with_policy(mut self, policy: AnswerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Static records for `(name, rtype)`.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> &[Record] {
        self.records.get(&(name.clone(), rtype)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if any record exists at `name`.
    pub fn name_exists(&self, name: &Name) -> bool {
        self.records.keys().any(|(n, _)| n == name)
            || match &self.policy {
                AnswerPolicy::Rotate { names, .. } => names.contains(name),
                AnswerPolicy::Wildcard { .. } => name.is_subdomain_of(&self.origin),
                AnswerPolicy::Static => false,
            }
    }

    /// The zone's NS records at the apex.
    pub fn ns_records(&self) -> &[Record] {
        self.lookup(&self.origin, RecordType::Ns)
    }

    /// Glue A records for every apex NS target, in NS order.
    pub fn glue_records(&self) -> &[Record] {
        self.glue.get_or_init(|| {
            self.ns_records()
                .iter()
                .filter_map(Record::as_ns)
                .flat_map(|target| self.lookup(target, RecordType::A))
                .cloned()
                .collect()
        })
    }
}

/// Builds the `pool.ntp.org` zone: a rotating A answer over `pool_addrs`
/// plus `ns_count` nameservers (`ns1..nsN.pool.ntp.org`) with glue starting
/// at `ns_glue_base` (the NS hosts get consecutive addresses).
///
/// With the default 23 nameservers the authoritative response to an A query
/// is ≈900 bytes: fragmenting at MTU 548 puts **all glue records into the
/// second fragment** — the layout the fragment-replacement attack needs.
pub fn pool_zone(pool_addrs: Vec<Ipv4Addr>, ns_count: usize, ns_glue_base: Ipv4Addr) -> Zone {
    let origin = pool_domain();
    let mut zone = Zone::new(origin.clone());
    let base = u32::from(ns_glue_base);
    for i in 0..ns_count {
        let ns_name = origin.child(&format!("ns{}", i + 1)).expect("valid label");
        zone.add(Record::ns(origin.clone(), 3600, ns_name.clone()));
        zone.add(Record::a(ns_name, 3600, Ipv4Addr::from(base + i as u32)));
    }
    let mut rotate_names = vec![origin.clone()];
    for i in 0..4 {
        rotate_names.push(origin.child(&i.to_string()).expect("valid label"));
    }
    zone.with_policy(AnswerPolicy::Rotate {
        names: rotate_names,
        addrs: pool_addrs,
        per_response: POOL_ADDRS_PER_RESPONSE,
        ttl: POOL_A_TTL,
    })
}

/// Builds the attacker's malicious `pool.ntp.org` zone serving
/// `per_response` of `addrs` with a high TTL for any name in the zone.
pub fn malicious_pool_zone(addrs: Vec<Ipv4Addr>, per_response: usize, ttl: u32) -> Zone {
    Zone::new(pool_domain()).with_policy(AnswerPolicy::Wildcard { addrs, per_response, ttl })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RData;
    use proptest::prelude::*;

    #[test]
    fn pool_zone_has_ns_and_glue() {
        let servers: Vec<Ipv4Addr> = (0..8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 23, Ipv4Addr::new(198, 51, 100, 1));
        assert_eq!(zone.ns_records().len(), 23);
        assert_eq!(zone.glue_records().len(), 23);
        assert_eq!(zone.glue_records()[0].as_a(), Some(Ipv4Addr::new(198, 51, 100, 1)));
        assert!(zone.name_exists(&"pool.ntp.org".parse().unwrap()));
        assert!(zone.name_exists(&"2.pool.ntp.org".parse().unwrap()));
    }

    #[test]
    fn glue_follows_ns_order_whatever_the_insertion_order() {
        let origin: Name = "example.org".parse().unwrap();
        let (ns1, ns2): (Name, Name) =
            ("ns1.example.org".parse().unwrap(), "ns2.example.org".parse().unwrap());
        let mut zone = Zone::new(origin.clone());
        zone.add(Record::a(ns2.clone(), 60, Ipv4Addr::new(192, 0, 2, 2)));
        zone.add(Record::ns(origin.clone(), 60, ns1.clone()));
        zone.add(Record::ns(origin, 60, ns2));
        zone.add(Record::a(ns1, 60, Ipv4Addr::new(192, 0, 2, 1)));
        let glue: Vec<_> = zone.glue_records().iter().filter_map(Record::as_a).collect();
        assert_eq!(glue, [Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)]);
        assert_eq!(zone.ns_records().len(), 2);
    }

    #[test]
    fn wildcard_zone_matches_everything_under_origin() {
        let zone = malicious_pool_zone(vec![Ipv4Addr::new(6, 6, 6, 6)], 89, 86_400 * 2);
        assert!(zone.name_exists(&"pool.ntp.org".parse().unwrap()));
        assert!(zone.name_exists(&"3.pool.ntp.org".parse().unwrap()));
        assert!(!zone.name_exists(&"example.com".parse().unwrap()));
    }

    /// The glue rule the lazy cell replaced: after every apex NS insert
    /// and every A insert, re-derive the whole glue list.
    struct EagerGlue {
        zone: Zone,
        glue: Vec<Record>,
    }

    impl EagerGlue {
        fn add(&mut self, record: Record) {
            let refresh_glue = match record.rtype() {
                RecordType::Ns => record.name == self.zone.origin,
                RecordType::A => true,
                _ => false,
            };
            self.zone.add(record);
            if refresh_glue {
                self.glue = self
                    .zone
                    .ns_records()
                    .iter()
                    .filter_map(Record::as_ns)
                    .flat_map(|target| self.zone.lookup(target, RecordType::A))
                    .cloned()
                    .collect();
            }
        }
    }

    /// One insert of the differential below: `(kind, target, address,
    /// check)` with `kind` selecting an apex NS (whose target may never
    /// get an A), a glue A, a non-glue A, a TXT, a delegation NS below
    /// the apex, or an apex NS to an out-of-zone target.
    fn insert(origin: &Name, (kind, target, addr, _): (u8, u8, u8, u8)) -> Record {
        let at = |label: String| origin.child(&label).unwrap();
        let ns = at(format!("ns{target}"));
        let v4 = Ipv4Addr::new(192, 0, 2, addr);
        match kind {
            0 => Record::ns(origin.clone(), 60, ns),
            1 => Record::a(ns, 60, v4),
            2 => Record::a(at(format!("host{target}")), 60, v4),
            3 => Record::new(origin.clone(), 60, RData::Txt(format!("t{addr}"))),
            4 => Record::ns(at("sub".into()), 60, ns),
            _ => Record::ns(origin.clone(), 60, format!("ns{target}.example.net").parse().unwrap()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The glue derived on demand equals, record for record and in
        /// order, the glue the eager rule keeps — read after random
        /// prefixes of random insert sequences, duplicates included.
        #[test]
        fn lazy_glue_equals_the_eager_recompute(
            inserts in proptest::collection::vec((0..6u8, 0..5u8, 0..3u8, 0..3u8), 0..40),
        ) {
            let origin: Name = "example.org".parse().unwrap();
            let mut lazy = Zone::new(origin.clone());
            let mut eager = EagerGlue { zone: Zone::new(origin.clone()), glue: Vec::new() };
            for (step, &op) in inserts.iter().enumerate() {
                lazy.add(insert(&origin, op));
                eager.add(insert(&origin, op));
                if op.3 == 0 {
                    prop_assert_eq!(lazy.glue_records(), &eager.glue[..], "after insert {}", step);
                }
            }
            prop_assert_eq!(lazy.glue_records(), &eager.glue[..], "{:?}", inserts);
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn out_of_zone_record_panics() {
        let mut zone = Zone::new("pool.ntp.org".parse().unwrap());
        zone.add(Record::a("evil.example".parse().unwrap(), 60, Ipv4Addr::new(1, 1, 1, 1)));
    }
}
