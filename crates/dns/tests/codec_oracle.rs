//! Differential tests: the wire-form `Name`, its reader and the
//! trie-compressing encoder against the `Vec<String>` reference in
//! `oracle/`. Over random names (mixed case, non-UTF-8 bytes, 63-byte
//! labels, 255-byte names, pointers) and random messages, both sides must
//! agree on `Ok`/`Err`, decoded names (`Display` and labels), encoded
//! bytes, `FastMap` hashes and ordering. The real `pool.ntp.org` referral
//! is also truncated at every offset and garbled at every byte: decoding
//! never panics and matches the reference wherever either accepts.
//! Wherever `Message::decode` runs, `MessageView::new` runs too and must
//! agree with it on `Ok`/`Err`, the error and the header; on an accepted
//! message, the questions read in place and the record spans' TTLs and A
//! addresses must equal the decoded ones.
//!
//! The one intended difference — the reference encoder confusing a label
//! containing `.` with a label boundary — is covered by a regression test
//! in `dns::message`; generated labels for encoder comparisons contain no
//! dots.

mod oracle;

use std::hash::{BuildHasher, BuildHasherDefault};
use std::net::Ipv4Addr;

use bytes::Bytes;
use dns::prelude::*;
use netsim::fasthash::FastHasher;
use oracle::OracleName;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    BuildHasherDefault::<FastHasher>::default().hash_one(value)
}

/// One label: mostly short, sometimes exactly 63 bytes, rarely empty or
/// 64 bytes (invalid). Mixed case, digits, multi-byte UTF-8, and `.` when
/// `dotted`.
fn gen_label(rng: &mut SmallRng, dotted: bool) -> String {
    let target = match rng.random_range(0..100u32) {
        0 => 0,
        1 => 64,
        2..=16 => 63,
        17..=30 => rng.random_range(11..63usize),
        _ => rng.random_range(1..11usize),
    };
    let alphabet: &[char] = if dotted {
        &['a', 'Z', 'q', 'M', '0', '9', '-', '_', 'é', '€', '\u{FFFD}', '.']
    } else {
        &['a', 'Z', 'q', 'M', '0', '9', '-', '_', 'é', '€', '\u{FFFD}']
    };
    let mut label = String::new();
    while label.len() < target {
        let c = alphabet[rng.random_range(0..alphabet.len())];
        if label.len() + c.len_utf8() <= target {
            label.push(c);
        } else {
            label.push('x');
        }
    }
    label
}

/// A label list: usually 0–4 labels, sometimes long ones that approach or
/// pass the 255-byte limit, sometimes many one-byte labels.
fn gen_labels(rng: &mut SmallRng, dotted: bool) -> Vec<String> {
    match rng.random_range(0..10u32) {
        0 => (0..rng.random_range(3..6)).map(|_| "Q".repeat(63)).collect(),
        1 => (0..rng.random_range(100..140)).map(|_| gen_label_short(rng)).collect(),
        _ => (0..rng.random_range(0..5)).map(|_| gen_label(rng, dotted)).collect(),
    }
}

fn gen_label_short(rng: &mut SmallRng) -> String {
    ["a", "B", "c"][rng.random_range(0..3usize)].to_owned()
}

/// Labels from a tiny alphabet, so orderings often compare equal prefixes.
fn gen_close_labels(rng: &mut SmallRng) -> Vec<String> {
    (0..rng.random_range(0..4))
        .map(|_| (0..rng.random_range(1..3)).map(|_| gen_label_short(rng)).collect())
        .collect()
}

fn check_name(name: &Name, reference: &OracleName) -> Result<(), TestCaseError> {
    prop_assert_eq!(name.to_string(), reference.to_string());
    prop_assert_eq!(&OracleName::of(name), reference);
    prop_assert_eq!(name.label_count(), reference.labels.len());
    prop_assert_eq!(
        name.wire_len(),
        1 + reference.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    );
    prop_assert_eq!(hash_of(name), hash_of(reference));
    Ok(())
}

fn check_read(
    new: Result<(Name, usize), DnsError>,
    old: Result<(OracleName, usize), DnsError>,
) -> Result<(), TestCaseError> {
    match (new, old) {
        (Ok((name, next)), Ok((reference, old_next))) => {
            prop_assert_eq!(next, old_next);
            check_name(&name, &reference)
        }
        (Err(e), Err(old_e)) => {
            prop_assert_eq!(e, old_e);
            Ok(())
        }
        (new, old) => {
            prop_assert!(false, "reader disagrees: new {new:?}, reference {old:?}");
            Ok(())
        }
    }
}

fn wire_of(labels: &[String]) -> Vec<u8> {
    let mut wire = Vec::new();
    for label in labels {
        wire.push(label.len() as u8);
        wire.extend_from_slice(label.as_bytes());
    }
    wire.push(0);
    wire
}

/// Random bytes shaped like names: label runs (raw bytes, including
/// non-UTF-8 and upper case), terminators, pointers anywhere (backward,
/// forward, into themselves) and invalid length bytes.
fn gen_name_soup(rng: &mut SmallRng) -> Vec<u8> {
    let mut buf = Vec::new();
    for _ in 0..rng.random_range(1..24) {
        match rng.random_range(0..10u32) {
            0..=4 => {
                let len = if rng.random_bool(0.1) { 63 } else { rng.random_range(1..8) };
                buf.push(len as u8);
                for _ in 0..len {
                    buf.push(match rng.random_range(0..6u32) {
                        0 => rng.random_range(0x80..=0xFFu8),
                        1 => rng.random_range(b'A'..=b'Z'),
                        2 => b'.',
                        _ => rng.random_range(b'a'..=b'z'),
                    });
                }
            }
            5..=6 => buf.push(0),
            7..=8 => {
                let target = rng.random_range(0..buf.len() + 8) as u16;
                buf.extend_from_slice(&(0xC000 | target).to_be_bytes());
            }
            _ => buf.push(rng.random_range(0x40..0xC0u8)),
        }
    }
    buf
}

fn reference_parse(s: &str) -> Result<OracleName, DnsError> {
    let s = s.strip_suffix('.').unwrap_or(s);
    if s.is_empty() {
        return Ok(OracleName::default());
    }
    OracleName::from_labels(s.split('.'))
}

fn reference_is_subdomain(a: &OracleName, b: &OracleName) -> bool {
    b.labels.len() <= a.labels.len()
        && a.labels.iter().rev().zip(b.labels.iter().rev()).all(|(x, y)| x == y)
}

/// A pool of names sharing suffixes, for compression to find.
fn gen_name_pool(rng: &mut SmallRng) -> Vec<Name> {
    let mut pool = vec![Name::root()];
    while pool.len() < 8 {
        let labels: Vec<String> =
            (0..rng.random_range(1..4)).map(|_| gen_label(rng, false)).collect();
        let base = pool[rng.random_range(0..pool.len())].clone();
        let all = labels.iter().map(String::as_str).chain(base.labels());
        if let Ok(name) = Name::from_labels(all) {
            pool.push(name);
        }
    }
    pool
}

fn gen_record(rng: &mut SmallRng, pool: &[Name]) -> Record {
    let name = |rng: &mut SmallRng| pool[rng.random_range(0..pool.len())].clone();
    let owner = name(rng);
    let ttl = rng.random();
    let data = match rng.random_range(0..10u32) {
        0 | 1 => RData::A(Ipv4Addr::from(rng.random::<u32>())),
        2 => RData::Ns(name(rng)),
        3 => RData::Cname(name(rng)),
        4 => RData::Soa { mname: name(rng), serial: rng.random(), minimum: rng.random() },
        5 => RData::Txt((0..rng.random_range(0..300)).map(|_| 'x').collect()),
        6 => RData::Opt { udp_payload_size: rng.random() },
        7 => {
            RData::Rrsig { type_covered: RecordType::A, signer: name(rng), signature: rng.random() }
        }
        8 => RData::Dnskey { key_tag: rng.random() },
        _ => RData::Unknown { rtype: 250, data: Bytes::from(vec![7u8; rng.random_range(0..9)]) },
    };
    Record::new(owner, ttl, data)
}

fn gen_message(rng: &mut SmallRng) -> Message {
    let pool = gen_name_pool(rng);
    let mut msg = Message::default();
    msg.header.id = rng.random();
    msg.header.qr = rng.random_bool(0.5);
    msg.header.aa = rng.random_bool(0.5);
    msg.header.rcode = Rcode::from_code(rng.random_range(0..16u8));
    for _ in 0..rng.random_range(0..3) {
        let name = pool[rng.random_range(0..pool.len())].clone();
        msg.questions.push(Question { name, qtype: RecordType::A });
    }
    let mut sections = [Vec::new(), Vec::new(), Vec::new()];
    for section in &mut sections {
        for _ in 0..rng.random_range(0..8) {
            section.push(gen_record(rng, &pool));
        }
    }
    // Sometimes push later names past the 14-bit pointer range, so the
    // encoders must agree on which suffixes stop being pointer targets
    // (including names that straddle the limit).
    if rng.random_bool(0.2) {
        let filler = vec![0u8; rng.random_range(16_250..16_400)];
        sections[0].insert(
            0,
            Record::new(Name::root(), 0, RData::Unknown { rtype: 99, data: filler.into() }),
        );
    }
    let [answers, authorities, additionals] = sections;
    msg.answers = answers;
    msg.authorities = authorities;
    msg.additionals = additionals;
    msg
}

/// What the model reads in place from an accepted message equals what
/// `Message::decode` builds, which `check_decode` holds to the reference
/// decoder: the questions (and the response skeleton echoing them), and
/// each record's TTL and A address, in wire order.
fn check_in_place_reads(view: MessageView<'_>, msg: &Message) -> Result<(), TestCaseError> {
    let questions = view.questions();
    prop_assert_eq!(questions.len(), msg.questions.len());
    prop_assert_eq!(questions.collect::<Vec<_>>(), msg.questions.clone());
    prop_assert_eq!(view.response(), Message::response_to(msg));
    let data = view.bytes();
    let mut spans = Vec::new();
    prop_assert!(MessageView::with_spans(data, &mut spans).is_ok());
    let records: Vec<&Record> =
        msg.answers.iter().chain(&msg.authorities).chain(&msg.additionals).collect();
    prop_assert_eq!(spans.len(), records.len());
    for (span, record) in spans.iter().zip(records) {
        prop_assert_eq!(span.ttl(data), Some(record.ttl));
        prop_assert_eq!(span.a_addr(data), record.as_a());
    }
    Ok(())
}

fn check_decode(data: &[u8]) -> Result<(), TestCaseError> {
    let decoded = Message::decode(data);
    match (MessageView::new(data), &decoded) {
        (Ok(view), Ok(msg)) => {
            prop_assert_eq!(view.header(), &msg.header);
            prop_assert_eq!(view.bytes(), data);
            check_in_place_reads(view, msg)?;
        }
        (Err(e), Err(decode_e)) => prop_assert_eq!(&e, decode_e),
        (view, decoded) => {
            prop_assert!(false, "view disagrees: view {view:?}, decode {decoded:?}");
        }
    }
    match (decoded, oracle::decode(data)) {
        (Ok(new), Ok(old)) => prop_assert_eq!(new, old),
        (Err(e), Err(old_e)) => prop_assert_eq!(e, old_e),
        (new, old) => prop_assert!(false, "decode disagrees: new {new:?}, reference {old:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Names built from labels (or parsed from text) match the reference
    /// in validity, labels, display, hash, order and name algebra.
    #[test]
    fn names_match_reference(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let labels = gen_labels(rng, true);
        let new = Name::from_labels(&labels);
        let old = OracleName::from_labels(&labels);
        match (&new, &old) {
            (Ok(name), Ok(reference)) => {
                check_name(name, reference)?;
                let text = name.to_string();
                let reparsed = text.parse::<Name>().map(|n| OracleName::of(&n));
                prop_assert_eq!(reparsed, reference_parse(&text));
                let ancestors: Vec<String> =
                    name.self_and_ancestors().map(|n| n.to_string()).collect();
                let expected: Vec<String> = (0..=reference.labels.len())
                    .map(|i| OracleName { labels: reference.labels[i..].to_vec() }.to_string())
                    .collect();
                prop_assert_eq!(ancestors, expected);
                prop_assert_eq!(
                    name.parent().map(|p| OracleName::of(&p)),
                    (!reference.labels.is_empty())
                        .then(|| OracleName { labels: reference.labels[1..].to_vec() })
                );
                let wire = wire_of(&reference.labels);
                check_read(dns::name::read_name_at(&wire, 0), oracle::read_name_at(&wire, 0))?;
            }
            (Err(e), Err(old_e)) => prop_assert_eq!(e, old_e),
            _ => prop_assert!(false, "from_labels disagrees: {new:?} vs {old:?}"),
        }
        let text: String = labels.join(".");
        prop_assert_eq!(
            text.parse::<Name>().map(|n| OracleName::of(&n)),
            reference_parse(&text)
        );
    }

    /// Ordering and the subdomain relation match the reference on pairs
    /// of names that often share labels.
    #[test]
    fn order_and_subdomain_match_reference(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (a, b) = (gen_close_labels(rng), gen_close_labels(rng));
        let (na, nb) = (Name::from_labels(&a).unwrap(), Name::from_labels(&b).unwrap());
        let (oa, ob) = (OracleName::from_labels(&a).unwrap(), OracleName::from_labels(&b).unwrap());
        prop_assert_eq!(na.cmp(&nb), oa.cmp(&ob));
        prop_assert_eq!(na == nb, oa == ob);
        prop_assert_eq!(na.is_subdomain_of(&nb), reference_is_subdomain(&oa, &ob));
        prop_assert_eq!(nb.is_subdomain_of(&na), reference_is_subdomain(&ob, &oa));
    }

    /// The reader matches the reference at every offset of name-shaped
    /// garbage: errors, names, end positions and hashes.
    #[test]
    fn reader_matches_reference_on_name_soup(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let soup = gen_name_soup(rng);
        for pos in 0..=soup.len() {
            check_read(dns::name::read_name_at(&soup, pos), oracle::read_name_at(&soup, pos))?;
        }
    }

    /// Random headers over name-shaped bytes: the view and the decoder
    /// agree (and match the reference) whatever the counts claim.
    #[test]
    fn random_headers_match_reference(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            let mut data: Vec<u8> = (0..12).map(|_| rng.random()).collect();
            for count in data[4..12].chunks_mut(2) {
                if rng.random_bool(0.8) {
                    count.copy_from_slice(&rng.random_range(0..4u16).to_be_bytes());
                }
            }
            data.extend(gen_name_soup(rng));
            data.extend((0..rng.random_range(0..32)).map(|_| rng.random::<u8>() % 8));
            check_decode(&data)?;
        }
    }

    /// Random messages encode to the reference's bytes and decode (intact,
    /// truncated or garbled) to the reference's messages.
    #[test]
    fn messages_match_reference(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let msg = gen_message(rng);
        let (new, old) = (msg.encode(), oracle::encode(&msg));
        prop_assert_eq!(&new, &old);
        let Ok(wire) = new else { return Ok(()) };
        check_decode(&wire)?;
        for _ in 0..16 {
            let cut = rng.random_range(0..=wire.len());
            check_decode(&wire[..cut])?;
            let mut garbled = wire.to_vec();
            let at = rng.random_range(0..garbled.len());
            garbled[at] = rng.random();
            check_decode(&garbled)?;
        }
    }
}

/// The paper's ≈890-byte `pool.ntp.org` referral (8 pool servers, 23
/// nameservers with glue).
fn referral() -> Bytes {
    let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    let zone = pool_zone(servers, 23, Ipv4Addr::new(198, 51, 100, 1));
    let mut server = AuthServer::new(vec![zone]);
    let query = Message::query(0x4242, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
    let response = server.answer(&query, &mut SmallRng::seed_from_u64(2020));
    let wire = response.encode().unwrap();
    assert_eq!(wire, oracle::encode(&response).unwrap(), "referral bytes changed");
    assert!(wire.len() > 850, "referral is {} bytes", wire.len());
    wire
}

#[test]
fn referral_truncated_at_every_offset_matches_reference() {
    let wire = referral();
    for cut in 0..=wire.len() {
        if let Err(e) = check_decode(&wire[..cut]) {
            panic!("cut at {cut}: {}", e.0);
        }
    }
}

#[test]
fn referral_garbled_at_every_byte_matches_reference() {
    let wire = referral();
    for at in 0..wire.len() {
        let original = wire[at];
        for value in [0x00, 0xFF, 0xC0, 0x3F, 0x40, original ^ 0x20, original.wrapping_add(1)] {
            let mut garbled = wire.to_vec();
            garbled[at] = value;
            if let Err(e) = check_decode(&garbled) {
                panic!("byte {at} set to {value:#04x}: {}", e.0);
            }
        }
    }
}

/// Names written at, just before and across the last offset a pointer
/// may target: both encoders must agree on which suffixes stay reusable.
#[test]
fn pointer_range_edge_matches_reference() {
    let name = |s: &str| s.parse::<Name>().unwrap();
    let addr = Ipv4Addr::new(192, 0, 2, 1);
    // Header 12 + root owner 1 + fixed fields 10: the filler's RDATA
    // starts at 23, so its length sets where the next owner lands.
    for filler in 0x3FFF - 23 - 12..=0x3FFF - 23 + 4 {
        let mut msg = Message::default();
        let data = Bytes::from(vec![0u8; filler]);
        msg.answers.push(Record::new(Name::root(), 0, RData::Unknown { rtype: 99, data }));
        for owner in ["a.example", "a.example", "b.example", "example", "c.a.example"] {
            msg.answers.push(Record::a(name(owner), 60, addr));
        }
        let wire = msg.encode().unwrap();
        assert_eq!(wire, oracle::encode(&msg).unwrap(), "filler {filler}");
        assert_eq!(Message::decode(&wire).unwrap(), msg);
    }
}

/// Sibling labels that agree on their first bytes (the compression trie
/// screens on an eight-byte prefix) must not be confused.
#[test]
fn labels_sharing_a_long_prefix_stay_distinct() {
    let mut msg = Message::default();
    for owner in
        ["abcdefg.x", "abcdefgh.x", "abcdefgi.x", "abcdefghij.x", "abcdefghik.x", "abcdefgh.x"]
    {
        msg.answers.push(Record::a(owner.parse().unwrap(), 60, Ipv4Addr::new(192, 0, 2, 1)));
    }
    let wire = msg.encode().unwrap();
    assert_eq!(wire, oracle::encode(&msg).unwrap());
    assert_eq!(Message::decode(&wire).unwrap(), msg);
}
