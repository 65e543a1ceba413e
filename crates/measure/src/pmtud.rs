//! The PMTUD / fragment-size scan behind Fig. 5 and §VII-B.
//!
//! For each nameserver: send an ICMP frag-needed claiming a tiny MTU, then
//! query a large record and observe (via a raw tap) the size of the
//! fragments the server actually emits — its PMTU floor. The response also
//! reveals whether the zone is DNSSEC-signed (RRSIG present).

use std::net::Ipv4Addr;
use std::sync::{Arc, LazyLock};

use bytes::Bytes;
use dns::auth::{AuthServer, DNS_PORT};
use dns::dnssec::ZoneKey;
use dns::message::{Message, MessageView, Section};
use dns::name::Name;
use dns::record::{RData, Record, RecordType};
use dns::zone::Zone;
use netsim::icmp::IcmpMessage;
use netsim::ipv4::Ipv4Packet;
use netsim::prelude::*;
use netsim::udp::UdpDatagram;
use rand::RngExt;

use crate::population::NameserverSpec;

/// Per-nameserver scan outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmtudVerdict {
    /// Largest fragment size observed (None: response arrived whole).
    pub min_fragment_size: Option<u16>,
    /// The zone carries RRSIGs.
    pub signed: bool,
    /// A response arrived at all.
    pub answered: bool,
}

impl PmtudVerdict {
    /// "Supports fragmentation below `threshold`" — the Fig. 5 CDF measure.
    pub fn fragments_below(&self, threshold: u16) -> bool {
        self.min_fragment_size.map(|s| s <= threshold).unwrap_or(false)
    }

    /// Vulnerable per §VII-B: fragments and unsigned.
    pub fn vulnerable(&self) -> bool {
        self.min_fragment_size.is_some() && !self.signed
    }
}

/// Aggregate Fig. 5 / §VII-B result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PmtudScanResult {
    /// Nameservers scanned.
    pub scanned: usize,
    /// Per-threshold cumulative counts: `(threshold, count ≤ threshold)`.
    pub cdf: Vec<(u16, usize)>,
    /// Fragmenting and unsigned (vulnerable) count.
    pub vulnerable: usize,
    /// Signed count.
    pub signed: usize,
    /// Fragmenting count (any size).
    pub fragmenting: usize,
}

impl PmtudScanResult {
    /// CDF value at a threshold, over *fragmenting unsigned* nameservers
    /// (Fig. 5's population).
    pub fn cdf_at(&self, threshold: u16) -> f64 {
        let count =
            self.cdf.iter().filter(|(t, _)| *t <= threshold).map(|(_, c)| *c).max().unwrap_or(0);
        count as f64 / self.vulnerable.max(1) as f64
    }

    /// Fraction of all scanned domains that are fragment-vulnerable
    /// (paper: 7.66 %).
    pub fn vulnerable_fraction(&self) -> f64 {
        self.vulnerable as f64 / self.scanned.max(1) as f64
    }
}

/// The probing host: ICMP + query, recording raw fragment sizes.
#[derive(Debug)]
struct Probe {
    target: Ipv4Addr,
    qname: Name,
    fragment_sizes: Vec<u16>,
    signed: bool,
    answered: bool,
}

impl Host for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Claim a 68-byte path so the NS clamps to its configured floor.
        let stub = UdpDatagram::new(DNS_PORT, 4000, Bytes::new())
            .encode(self.target, ctx.addr())
            .expect("stub encodes");
        let embedded =
            Ipv4Packet::udp(self.target, ctx.addr(), 0, stub).encode().expect("stub packet");
        ctx.send_icmp(
            self.target,
            IcmpMessage::FragmentationNeeded { mtu: 68, original: embedded },
        );
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        let txid: u16 = ctx.rng().random();
        let q = Message::query(txid, self.qname.clone(), RecordType::Txt, false);
        ctx.send_udp(self.target, 4000, DNS_PORT, q.encode().expect("query encodes"));
    }

    fn on_raw_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: &Ipv4Packet) -> bool {
        if pkt.src == self.target && pkt.is_fragment() && pkt.more_fragments {
            self.fragment_sizes.push(pkt.wire_len() as u16);
        }
        false
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        let mut spans = Vec::new();
        if MessageView::with_spans(&d.payload, &mut spans).is_ok() {
            self.answered = true;
            self.signed = spans
                .iter()
                .any(|span| span.rtype == RecordType::Rrsig && span.section != Section::Authority);
        }
    }
}

/// The scanned domain's apex.
static ORIGIN: LazyLock<Name> = LazyLock::new(|| "bigdomain.example".parse().expect("static"));

/// The scanned domain's zone, unsigned and signed, built once per process
/// and shared by every scan world.
static SCAN_ZONES: LazyLock<[Arc<[Zone]>; 2]> = LazyLock::new(|| {
    [false, true].map(|signed| -> Arc<[Zone]> { Arc::new([scan_zone(&ORIGIN, signed, 1700)]) })
});

/// Builds the scanned domain's zone: a TXT record padded to `payload` bytes
/// so the response always exceeds any candidate MTU.
fn scan_zone(origin: &Name, signed: bool, payload: usize) -> Zone {
    let mut zone = Zone::new(origin.clone());
    zone.add(Record::new(origin.clone(), 300, RData::Txt("x".repeat(payload))));
    if signed {
        zone.with_key(ZoneKey(0xF00D))
    } else {
        zone
    }
}

/// Probes one nameserver in an isolated mini-simulation.
pub fn scan_nameserver(spec: &NameserverSpec, seed: u64) -> PmtudVerdict {
    let ns_addr: Ipv4Addr = "192.0.2.10".parse().expect("static");
    let mut sim = Simulator::with_topology(
        seed,
        Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10))),
    );
    let profile = if spec.honours_pmtud {
        OsProfile::nameserver(spec.min_fragment_mtu)
    } else {
        OsProfile::nameserver_no_pmtud()
    };
    let zones = Arc::clone(&SCAN_ZONES[usize::from(spec.signed)]);
    sim.add_host(ns_addr, profile, Box::new(AuthServer::new(zones).without_authority_sections()))
        .expect("ns addr");
    probe(sim, ns_addr)
}

/// Adds the probing host to a world holding the scanned nameserver at
/// `ns_addr` and runs the scan against it.
fn probe(mut sim: Simulator, ns_addr: Ipv4Addr) -> PmtudVerdict {
    let probe_addr: Ipv4Addr = "203.0.113.7".parse().expect("static");
    sim.add_host(
        probe_addr,
        OsProfile::linux(),
        Box::new(Probe {
            target: ns_addr,
            qname: ORIGIN.clone(),
            fragment_sizes: Vec::new(),
            signed: false,
            answered: false,
        }),
    )
    .expect("probe addr");
    sim.run_for(SimDuration::from_secs(5));
    let probe = sim.host::<Probe>(probe_addr).expect("probe exists");
    PmtudVerdict {
        // The NS's floor shows as the size of its non-final fragments; a
        // floor at the interface MTU (no PMTUD honoured) is "no support".
        min_fragment_size: probe.fragment_sizes.iter().copied().max().filter(|&s| s < 1500),
        signed: probe.signed,
        answered: probe.answered,
    }
}

/// Thresholds reported in Fig. 5.
pub const CDF_THRESHOLDS: [u16; 5] = [68, 292, 548, 1276, 1492];

/// Folds per-nameserver verdicts, in population order, into the Fig. 5 /
/// §VII-B aggregate.
impl FromIterator<PmtudVerdict> for PmtudScanResult {
    fn from_iter<T: IntoIterator<Item = PmtudVerdict>>(verdicts: T) -> Self {
        let mut result =
            PmtudScanResult { cdf: CDF_THRESHOLDS.map(|t| (t, 0)).to_vec(), ..Default::default() };
        for v in verdicts {
            result.scanned += 1;
            if v.signed {
                result.signed += 1;
            }
            if v.min_fragment_size.is_some() {
                result.fragmenting += 1;
            }
            if v.vulnerable() {
                result.vulnerable += 1;
                for (t, count) in &mut result.cdf {
                    if v.fragments_below(*t) {
                        *count += 1;
                    }
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{domain_nameserver_at, domain_nameservers, pool_nameservers};

    fn scan_all(population: &[NameserverSpec], seed: u64, workers: usize) -> PmtudScanResult {
        runner::TrialRunner::new(workers)
            .run(population, |idx, spec| scan_nameserver(spec, crate::scan_seed(seed, idx)))
            .into_iter()
            .collect()
    }

    #[test]
    fn fragmenting_ns_floor_observed() {
        let spec = NameserverSpec { honours_pmtud: true, min_fragment_mtu: 548, signed: false };
        let verdict = scan_nameserver(&spec, 1);
        assert!(verdict.answered);
        assert_eq!(verdict.min_fragment_size, Some(548), "{verdict:?}");
        assert!(verdict.vulnerable());
    }

    #[test]
    fn non_pmtud_ns_not_flagged() {
        let spec = NameserverSpec { honours_pmtud: false, min_fragment_mtu: 1500, signed: false };
        let verdict = scan_nameserver(&spec, 2);
        assert!(verdict.answered);
        // The 1700-byte response still fragments at the interface MTU, but
        // that is not PMTUD support.
        assert_eq!(verdict.min_fragment_size, None, "{verdict:?}");
        assert!(!verdict.vulnerable());
    }

    #[test]
    fn signed_zone_detected() {
        let spec = NameserverSpec { honours_pmtud: true, min_fragment_mtu: 548, signed: true };
        let verdict = scan_nameserver(&spec, 3);
        assert!(verdict.signed);
        assert!(!verdict.vulnerable());
    }

    #[test]
    fn pool_ns_scan_recovers_16_of_30() {
        let result = scan_all(&pool_nameservers(7), 8, 4);
        assert_eq!(result.scanned, 30);
        let below_548 = result.cdf.iter().find(|(t, _)| *t == 548).map(|(_, c)| *c).unwrap_or(0);
        assert_eq!(below_548, 16, "16 of 30 fragment ≤ 548 B: {result:?}");
        assert_eq!(result.signed, 0, "none of the pool NS support DNSSEC");
    }

    #[test]
    fn domain_scan_cdf_shape() {
        let population = domain_nameservers(600, 9);
        let result = scan_all(&population, 10, 4);
        assert!(
            (result.vulnerable_fraction() - 0.0766).abs() < 0.03,
            "vulnerable {}",
            result.vulnerable_fraction()
        );
        let cdf_548 = result.cdf_at(548);
        assert!((cdf_548 - 0.832).abs() < 0.08, "CDF(548) {cdf_548}");
        assert!(result.cdf_at(292) < cdf_548);
        assert!((result.cdf_at(1492) - 1.0).abs() < 1e-9);
    }

    /// The scanned nameserver [`scan_nameserver`] built before its zones
    /// were built once per process: the zone and its name built per trial.
    fn per_trial_world(spec: &NameserverSpec, seed: u64) -> (Simulator, Ipv4Addr) {
        let ns_addr: Ipv4Addr = "192.0.2.10".parse().unwrap();
        let origin: Name = "bigdomain.example".parse().unwrap();
        let topology = Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10)));
        let mut sim = Simulator::with_topology(seed, topology);
        let profile = if spec.honours_pmtud {
            OsProfile::nameserver(spec.min_fragment_mtu)
        } else {
            OsProfile::nameserver_no_pmtud()
        };
        let zone = scan_zone(&origin, spec.signed, 1700);
        let server = AuthServer::new(vec![zone]).without_authority_sections();
        sim.add_host(ns_addr, profile, Box::new(server)).unwrap();
        (sim, ns_addr)
    }

    /// The worlds sharing the process-wide zones scan every nameserver
    /// exactly as the per-trial build did, over 500 indices of the Fig. 5
    /// domain population.
    #[test]
    fn shared_zone_worlds_match_the_per_trial_build() {
        for idx in 0..500 {
            let (spec, seed) = (domain_nameserver_at(2020, idx), crate::scan_seed(2020, idx));
            let (sim, ns_addr) = per_trial_world(&spec, seed);
            let per_trial = probe(sim, ns_addr);
            assert_eq!(scan_nameserver(&spec, seed), per_trial, "nameserver {idx}: {spec:?}");
        }
    }
}
