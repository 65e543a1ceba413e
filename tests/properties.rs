//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the wire codecs, the fragmentation/forging pipeline and
//! the probability models.

use bytes::Bytes;
use proptest::prelude::*;
use timeshift::prelude::*;

proptest! {
    /// Fragment → reassemble is the identity for any payload and MTU.
    #[test]
    fn fragmentation_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 1..6000),
        mtu in 68u16..1500,
    ) {
        let src: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "10.0.0.2".parse().unwrap();
        let pkt = Ipv4Packet::udp(src, dst, 7, Bytes::from(payload.clone()));
        let frags = netsim::frag::fragment(pkt, mtu).unwrap();
        // Small MTUs can exceed the OS cap of 64 pending fragments per
        // pair (that cap is itself tested in netsim); lift it here to test
        // the reassembly algebra alone.
        let mut cache = DefragCache::new(DefragConfig { max_pending_per_pair: 4096 });
        let mut out = None;
        for f in frags {
            prop_assert!(f.wire_len() <= usize::from(mtu));
            out = cache.insert(SimTime::ZERO, f);
        }
        let out = out.expect("reassembly completes");
        prop_assert_eq!(out.payload, Bytes::from(payload));
    }

    /// DNS messages round-trip through the wire format with arbitrary
    /// record mixtures.
    #[test]
    fn dns_codec_round_trips(
        txid in any::<u16>(),
        ttl in 0u32..1_000_000,
        addrs in proptest::collection::vec(any::<u32>(), 0..30),
        labels in proptest::collection::vec("[a-z]{1,12}", 1..4),
    ) {
        let name = Name::from_labels(labels.iter().map(String::as_str)).unwrap();
        let mut msg = Message::query(txid, name.clone(), RecordType::A, true);
        msg.header.qr = true;
        for a in &addrs {
            msg.answers.push(Record::a(name.clone(), ttl, std::net::Ipv4Addr::from(*a)));
        }
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// NTP packets round-trip.
    #[test]
    fn ntp_codec_round_trips(bits in any::<u64>(), stratum in 0u8..16) {
        let ts = NtpTimestamp::from_bits(bits);
        let req = NtpPacket::client_request(ts);
        let resp = NtpPacket::server_response(&req, stratum, [1, 2, 3, 4], ts, ts);
        prop_assert_eq!(NtpPacket::decode(&resp.encode()).unwrap(), resp);
    }

    /// The checksum fix-up always equalises fragment sums, for any edits.
    #[test]
    fn checksum_fixup_invariant(
        original in proptest::collection::vec(any::<u8>(), 16..512),
        replacement in any::<u32>(),
        edit_at in any::<usize>(),
        slack_at in any::<usize>(),
    ) {
        let mut modified = original.clone();
        let edit = edit_at % (modified.len() - 4);
        modified[edit..edit + 4].copy_from_slice(&replacement.to_be_bytes());
        let slack = (slack_at % (modified.len() / 2)) * 2;
        fix_fragment_sum(&original, &mut modified, slack).unwrap();
        prop_assert!(sums_match(&original, &modified));
    }

    /// §III-3 end to end: the fix-up `f2' = f2* − (sum1(f2*) − sum1(f2))`
    /// always yields a forged second fragment that, reassembled with the
    /// attacker-untouchable first fragment, forms a datagram whose UDP
    /// checksum still verifies against the checksum field riding in
    /// fragment 1.
    #[test]
    fn forged_fragment_reassembles_with_valid_udp_checksum(
        payload in proptest::collection::vec(any::<u8>(), 1200..4000),
        mtu in 68u16..600,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..16),
        slack_at in any::<usize>(),
    ) {
        let src: std::net::Ipv4Addr = "198.51.100.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "10.0.0.53".parse().unwrap();
        // A real UDP datagram with its checksum computed over the
        // pseudo-header, as the nameserver would emit it.
        let segment = UdpDatagram::new(53, 53, Bytes::from(payload)).encode(src, dst).unwrap();
        let pkt = Ipv4Packet::udp(src, dst, 0x4242, segment);
        let frags = netsim::frag::fragment(pkt, mtu).unwrap();
        prop_assert!(frags.len() >= 2, "must actually fragment at mtu {}", mtu);

        // The attacker edits the second fragment and repairs its sum via a
        // sacrificial aligned slack word.
        let original_tail = frags[1].payload.to_vec();
        let mut forged_tail = original_tail.clone();
        let tail_len = forged_tail.len();
        for &(pos, val) in &edits {
            forged_tail[pos % tail_len] = val;
        }
        let slack = (slack_at % (forged_tail.len() / 2)) * 2;
        fix_fragment_sum(&original_tail, &mut forged_tail, slack).unwrap();
        let mut spoofed = frags[1].clone();
        spoofed.payload = Bytes::from(forged_tail);

        // Reassemble first fragment + forged tail (+ any further original
        // fragments) exactly as the victim's defrag cache would.
        let mut cache = DefragCache::new(DefragConfig { max_pending_per_pair: 4096 });
        let mut out = None;
        for f in std::iter::once(frags[0].clone())
            .chain(std::iter::once(spoofed))
            .chain(frags.iter().skip(2).cloned())
        {
            out = cache.insert(SimTime::ZERO, f);
        }
        let out = out.expect("reassembly completes");
        // The poisoned datagram passes the victim's checksum verification.
        let decoded = UdpDatagram::decode(&out.payload, src, dst);
        prop_assert!(decoded.is_ok(), "forged datagram must verify: {:?}", decoded.err());
    }

    /// The analytic P2 matches Monte Carlo within statistical tolerance.
    #[test]
    fn p2_analytic_equals_monte_carlo(m in 1u32..10, seed in any::<u64>()) {
        let n = timeshift::analysis::table3_n(m);
        let exact = p2(m, n, P_RATE);
        let mc = timeshift::analysis::p2_monte_carlo(m, n, P_RATE, 60_000, seed);
        prop_assert!((exact - mc).abs() < 0.012, "m={} exact={} mc={}", m, exact, mc);
    }

    /// P1 and P2 are monotone in the obvious directions.
    #[test]
    fn probability_monotonicity(m in 2u32..10, p in 0.01f64..0.99) {
        let n = timeshift::analysis::table3_n(m);
        // More servers to remove: harder.
        prop_assert!(p1(n + 1, p) <= p1(n, p));
        // Choosing among m is never harder than hitting n specific ones.
        prop_assert!(p2(m, n, p) + 1e-12 >= p1(n, p));
    }

    /// Chronos trimming never lets a sub-1/3 attacker move the average by
    /// more than the honest spread.
    #[test]
    fn chronos_trim_bounds_minority_influence(
        honest_n in 7usize..30,
        attacker_shift in -1000.0f64..1000.0,
    ) {
        let attacker_n = honest_n / 3; // strictly below ceil(n/3) survivor math
        let mut offsets: Vec<NtpDuration> = (0..honest_n)
            .map(|i| NtpDuration::from_nanos((i as i64 % 7) * 1_000_000))
            .collect();
        offsets.extend((0..attacker_n).map(|_| NtpDuration::from_secs_f64(attacker_shift)));
        let survivors = trim_thirds(&offsets);
        prop_assert!(!survivors.is_empty());
        for s in &survivors {
            // Survivors stay within the honest range whenever the attacker
            // is a strict minority of a third.
            prop_assert!(
                s.as_secs_f64().abs() <= 0.01 || (s.as_secs_f64() - attacker_shift).abs() > 1.0,
                "attacker value survived trimming: {}", s.as_secs_f64()
            );
        }
    }

    /// The ones'-complement sum is invariant under 16-bit word permutation
    /// — the algebra the fragment attack exploits.
    #[test]
    fn checksum_word_permutation_invariant(words in proptest::collection::vec(any::<u16>(), 1..64)) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let mut shuffled = words.clone();
        shuffled.reverse();
        let shuffled_bytes: Vec<u8> = shuffled.iter().flat_map(|w| w.to_be_bytes()).collect();
        prop_assert_eq!(
            netsim::checksum::ones_complement_sum(&bytes),
            netsim::checksum::ones_complement_sum(&shuffled_bytes)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: for any seed, the boot-time attack against ntpd lands
    /// with the full −500 s shift — the simulator has no lucky seeds.
    #[test]
    fn boot_time_attack_is_seed_robust(seed in 0u64..2000) {
        let outcome = run_boot_time_attack(
            ScenarioConfig { seed, ..ScenarioConfig::default() },
            ClientKind::Ntpd,
        );
        prop_assert!(outcome.success, "seed {}: {:?}", seed, outcome);
    }
}
