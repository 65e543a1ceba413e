//! Layer probes for the traced run: the unit cost (ns/op, allocations/op)
//! of each layer's real operation on real inputs, and the phase replay of
//! one attack pass. Every traced run takes the same probes, so a layer's
//! numbers compare across workloads; the workload-specific ones (runner
//! utilization, the ledger, tracing overhead) come from its own window.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;

use campaign::checkpoint::{self, Appender};
use campaign::digest::Digest;
use campaign::record::{decode_line, encode_line};
use campaign::stats::Aggregate;
use campaign::summary;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use runner::shard_range;
use timeshift::experiments::salts;
use timeshift::prelude::*;

use crate::{alloc, attack, survey, trace};

/// Records in the campaign probe's snoop slice.
const PROBE_RESOLVERS: usize = 4000;
/// Resolver specs scanned by the `scan_resolver` probe.
const SCAN_PROBES: usize = 400;

/// Per-layer metrics: name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Ns per call of `f`: the fastest of seven batches, each at least ~2 ms
/// long. The fastest batch is the operation's own cost, free of the host
/// interference that slows whole seconds of a run; the ledger's op-count
/// × ns/op estimates are therefore lower bounds, and contention shows as
/// unattributed time.
fn ns_per_op<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = trace::now_ns();
        for _ in 0..batch {
            black_box(f());
        }
        if trace::now_ns() - t >= 2_000_000 || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = trace::now_ns();
            for _ in 0..batch {
                black_box(f());
            }
            (trace::now_ns() - t) as f64 / batch as f64
        })
        .collect();
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Ns per item of `f` run over a whole input set: the fastest of five
/// reps, as for [`ns_per_op`].
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = trace::now_ns();
            f();
            (trace::now_ns() - t) as f64 / items as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn pool_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0xC000_0200 + i)
}

/// The codec probes (dns, attack, ntp, netsim micro-ops) on the paper's
/// `pool.ntp.org` referral: 8 pool servers, 23 nameservers, ≈ 890 bytes,
/// fragmented at the forced 548-byte MTU.
pub fn codec(seed: u64, m: &mut Metrics) {
    let pool: Vec<Ipv4Addr> = (1..=8u32).map(pool_addr).collect();
    let zone = pool_zone(pool, 23, Ipv4Addr::new(198, 51, 100, 1));
    let mut server = AuthServer::new(vec![zone]);
    let name: Name = "pool.ntp.org".parse().expect("static name");
    let query = Message::query(0x4242, name, RecordType::A, false);
    let query_wire = query.encode().expect("query encodes");
    let mut rng = SmallRng::seed_from_u64(seed);
    let referral = server.answer(&query, &mut rng);
    let wire = referral.encode().expect("referral encodes");
    let attacker_ns = Ipv4Addr::new(66, 66, 0, 1);
    assert!(forge_tail(&wire, FORCED_MTU, attacker_ns).is_ok(), "the referral must be forgeable");

    m.insert("dns.referral_encode_ns", (ns_per_op(|| black_box(&referral).encode()), "ns"));
    m.insert(
        "dns.referral_encode_allocs",
        (alloc::counted(|| referral.encode()).1 as f64, "count"),
    );
    m.insert("dns.referral_decode_ns", (ns_per_op(|| Message::decode(black_box(&wire))), "ns"));
    m.insert(
        "dns.referral_decode_allocs",
        (alloc::counted(|| Message::decode(&wire)).1 as f64, "count"),
    );
    m.insert("dns.query_decode_ns", (ns_per_op(|| Message::decode(black_box(&query_wire))), "ns"));
    m.insert(
        "dns.auth_answer_ns",
        (ns_per_op(|| server.answer(black_box(&query), &mut rng)), "ns"),
    );
    // A survey exchange: an RD=0 query and a cached one-record answer,
    // each encoded by its sender and decoded by its receiver.
    let small =
        Message::query(0x4243, "pool.ntp.org".parse().expect("static name"), RecordType::A, false);
    let mut cached = Message::response_to(&small);
    cached.answers.push(Record::a(small.questions[0].name.clone(), 150, pool_addr(1)));
    m.insert(
        "dns.exchange_codec_ns",
        (
            ns_per_op(|| {
                let q = black_box(&small).encode().expect("query encodes");
                let a = black_box(&cached).encode().expect("answer encodes");
                (Message::decode(&q), Message::decode(&a))
            }),
            "ns",
        ),
    );

    m.insert(
        "attack.forge_tail_ns",
        (ns_per_op(|| forge_tail(black_box(&wire), FORCED_MTU, attacker_ns)), "ns"),
    );
    m.insert(
        "attack.forge_tail_allocs",
        (alloc::counted(|| forge_tail(&wire, FORCED_MTU, attacker_ns)).1 as f64, "count"),
    );
    m.insert("attack.walk_records_ns", (ns_per_op(|| walk_records(black_box(&wire))), "ns"));

    let t = NtpTimestamp::from_secs_nanos(SIM_NTP_EPOCH, 0);
    let response = NtpPacket::server_response(&NtpPacket::client_request(t), 2, *b"GPS\0", t, t);
    let ntp_wire = response.encode();
    m.insert("ntp.packet_encode_ns", (ns_per_op(|| black_box(&response).encode()), "ns"));
    m.insert("ntp.packet_decode_ns", (ns_per_op(|| NtpPacket::decode(black_box(&ntp_wire))), "ns"));

    let (src, dst) = (Ipv4Addr::new(198, 51, 100, 1), Ipv4Addr::new(10, 0, 0, 53));
    let mut udp = vec![0u8; UDP_HEADER_LEN];
    udp.extend_from_slice(&wire);
    let packet = Ipv4Packet::udp(src, dst, 1, bytes::Bytes::from(udp));
    m.insert(
        "netsim.fragment_ns",
        (ns_per_op(|| fragment(black_box(&packet).clone(), FORCED_MTU)), "ns"),
    );
    let frags = fragment(packet, FORCED_MTU).expect("fragments");
    let mut cache = DefragCache::new(DefragConfig::default());
    let mut id = 0u16;
    let pair_ns = ns_per_op(|| {
        id = id.wrapping_add(1);
        let mut out = None;
        for f in &frags {
            let mut f = f.clone();
            f.id = id;
            out = cache.insert(SimTime::ZERO, f);
        }
        out.expect("two fragments reassemble")
    });
    m.insert("netsim.defrag_insert_ns", (pair_ns / frags.len() as f64, "ns"));

    let ring: Vec<f64> = (0..3)
        .map(|i| {
            let t = trace::now_ns();
            let s = bench::engine_driver::drive(seed.wrapping_add(i));
            (trace::now_ns() - t) as f64 / s.events_dispatched as f64
        })
        .collect();
    m.insert("netsim.ring_ns_per_event", (ring.into_iter().fold(f64::INFINITY, f64::min), "ns"));
}

/// Hosts of a `scan_resolver` mini-simulation: four pool nameservers,
/// the canary and fragmenting nameservers, the resolver and the scanner.
const SCAN_HOSTS: f64 = 8.0;
/// Events per DNS exchange: the query and the reply datagram, and the
/// sender's timeout timer.
const EVENTS_PER_EXCHANGE: f64 = 3.0;

/// DNS exchanges one `scan_resolver` call makes, scanner↔resolver and
/// resolver↔nameserver, following the scan protocol of `measure::snoop`.
/// A resolver that recurses on RD=0 stops after its first query (one
/// upstream lookup); one that fails verification after three (verify,
/// prime, verify-cached; the prime goes upstream). A verified one also
/// snoops six records and sends the fragment probe and four timing
/// queries; the fragment probe always goes upstream, the pool NS lookup
/// when it is not cached.
fn scan_exchanges(spec: &OpenResolverSpec, out: &ResolverOutcome) -> f64 {
    if !spec.respects_rd {
        2.0
    } else if !out.verified {
        4.0
    } else {
        16.0 + f64::from(u8::from(spec.cached[0].is_none()))
    }
}

/// The per-scan cost (ns) the survey ledger takes out of `measure` for
/// the layers below it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanCosts {
    /// Events dispatched × ring ns/event.
    pub netsim_ns: f64,
    /// Exchanges × the survey exchange's codec cost.
    pub dns_ns: f64,
}

/// The measure probes: lazy spec generation and one resolver scan, and
/// the netsim and dns costs inside a scan (needs [`codec`]'s metrics).
pub fn measure(seed: u64, m: &mut Metrics) -> ScanCosts {
    let n = 20_000;
    m.insert(
        "measure.spec_at_ns",
        (
            ns_per_item(n, || {
                (0..n).for_each(|i| {
                    black_box(open_resolver_at(seed, i));
                })
            }),
            "ns",
        ),
    );
    let specs: Vec<_> = (0..SCAN_PROBES).map(|i| open_resolver_at(seed, i)).collect();
    let base = seed ^ salts::SNOOP_SCAN;
    let us = ns_per_item(SCAN_PROBES, || {
        for (i, spec) in specs.iter().enumerate() {
            black_box(scan_resolver(spec, scan_seed(base, i)));
        }
    }) / 1e3;
    m.insert("measure.scan_resolver_us", (us, "us"));
    let exchanges = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| scan_exchanges(spec, &scan_resolver(spec, scan_seed(base, i))))
        .sum::<f64>()
        / specs.len() as f64;
    ScanCosts {
        netsim_ns: (SCAN_HOSTS + EVENTS_PER_EXCHANGE * exchanges) * m["netsim.ring_ns_per_event"].0,
        dns_ns: exchanges * m["dns.exchange_codec_ns"].0,
    }
}

/// The campaign probes, on the survey's own output: an in-process snoop
/// round of [`PROBE_RESOLVERS`] at `seed` written to `dir`. Returns the
/// merge cost per record (ns), which the supervised ledger uses.
pub fn campaign(dir: &Path, seed: u64, m: &mut Metrics) -> Result<f64, String> {
    let round = survey::in_process_round(dir, PROBE_RESOLVERS, seed, false);
    if let Some(e) = round.error {
        return Err(e);
    }
    let scenario = campaign::registry::find("table4_snoop").expect("scenario is registered");
    let schema = scenario.schema;
    let paths: Vec<_> = (0..survey::SHARDS).map(|k| checkpoint::shard_path(dir, k)).collect();
    let mut lines = Vec::new();
    for p in &paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        lines.extend(text.lines().map(str::to_owned));
    }
    let n = lines.len();
    let records: Vec<_> = lines
        .iter()
        .map(|l| decode_line(schema, l))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe record: {e}"))?;

    m.insert(
        "campaign.decode_line_ns",
        (
            ns_per_item(n, || lines.iter().for_each(|l| drop(black_box(decode_line(schema, l))))),
            "ns",
        ),
    );
    m.insert(
        "campaign.encode_line_ns",
        (
            ns_per_item(n, || records.iter().for_each(|r| drop(black_box(encode_line(schema, r))))),
            "ns",
        ),
    );
    m.insert(
        "campaign.digest_ns_per_record",
        (
            ns_per_item(n, || {
                let mut d = Digest::new();
                lines.iter().for_each(|l| d.update_line(l));
                black_box(d);
            }),
            "ns",
        ),
    );
    m.insert(
        "campaign.aggregate_push_ns",
        (
            ns_per_item(n, || {
                let mut agg = Aggregate::new(schema);
                records.iter().for_each(|r| agg.push(r));
                black_box(agg);
            }),
            "ns",
        ),
    );
    let scratch = dir.join("append-probe.ndjson");
    let append_ns = ns_per_item(n, || {
        let _ = std::fs::remove_file(&scratch);
        let mut a = Appender::open(&scratch).expect("scratch checkpoint opens");
        lines.iter().for_each(|l| a.append_line(l).expect("append"));
    });
    let _ = std::fs::remove_file(&scratch);
    m.insert("campaign.append_line_us", (append_ns / 1e3, "us"));
    m.insert(
        "campaign.recover_ns_per_record",
        (
            ns_per_item(n, || {
                for p in &paths {
                    black_box(checkpoint::recover(p, schema).expect("probe checkpoint recovers"));
                }
            }),
            "ns",
        ),
    );
    let ranges: Vec<_> =
        (0..survey::SHARDS).map(|k| shard_range(PROBE_RESOLVERS, k, survey::SHARDS)).collect();
    let merge_ns = ns_per_item(1, || {
        black_box(summary::merge(scenario, "custom", seed, dir, &ranges).expect("probe merges"));
    });
    m.insert("campaign.merge_ms", (merge_ns / 1e6, "ms"));
    Ok(merge_ns / n as f64)
}

/// Replays pass 0 of the attack workload at `seed`, checks each replay
/// against the registry record, and fills the replay-based metrics.
/// Returns the replays (for the attack ledger) and whether all matched.
pub fn replay(seed: u64, unit: &Metrics, m: &mut Metrics) -> (Vec<attack::Replay>, bool) {
    let records = attack::registry_records(seed);
    let replays: Vec<attack::Replay> =
        (0..attack::PASS).map(|slot| attack::replay(seed, slot)).collect();
    let matched = replays.iter().zip(&records).all(|(r, rec)| r.matches(rec));
    let n = replays.len() as f64;
    let (boot, runtime) = replays.split_at(attack::TABLE1_TRIALS);
    let mean = |rs: &[attack::Replay], f: &dyn Fn(&attack::Replay) -> f64| {
        rs.iter().map(f).sum::<f64>() / rs.len() as f64
    };
    let sum = |f: &dyn Fn(&attack::Replay) -> f64| replays.iter().map(f).sum::<f64>();
    m.insert("core.build_ms", (mean(&replays, &|r| r.build_ns) / 1e6, "ms"));
    m.insert("core.poison_phase_ms", (mean(boot, &|r| r.phase1_ns) / 1e6, "ms"));
    m.insert("core.victim_phase_ms", (mean(boot, &|r| r.phase2_ns) / 1e6, "ms"));
    m.insert("core.converge_phase_ms", (mean(runtime, &|r| r.phase1_ns) / 1e6, "ms"));
    m.insert("core.attack_phase_ms", (mean(runtime, &|r| r.phase2_ns) / 1e6, "ms"));
    m.insert("core.allocs_per_trial", (sum(&|r| r.allocs as f64) / n, "count"));
    m.insert("netsim.events_per_trial", (sum(&|r| r.events as f64) / n, "count"));
    m.insert("netsim.datagrams_per_trial", (sum(&|r| r.datagrams as f64) / n, "count"));
    m.insert("netsim.drops_per_trial", (sum(&|r| r.drops as f64) / n, "count"));
    m.insert(
        "netsim.ns_per_event",
        (sum(&|r| r.phase1_ns + r.phase2_ns) / sum(&|r| r.events as f64), "ns"),
    );
    m.insert(
        "netsim.pool_hit_ratio",
        (sum(&|r| r.pool_hits as f64) / sum(&|r| (r.pool_hits + r.pool_misses) as f64), "ratio"),
    );
    m.insert(
        "netsim.peak_queue_depth",
        (replays.iter().map(|r| r.peak_queue).max().unwrap_or(0) as f64, "count"),
    );
    m.insert("dns.auth_queries_per_trial", (sum(&|r| r.auth_queries as f64) / n, "count"));
    m.insert(
        "dns.resolver_upstream_per_trial",
        (sum(&|r| r.resolver_upstream as f64) / n, "count"),
    );
    m.insert(
        "dns.resolver_cache_hit_ratio",
        (sum(&|r| r.resolver_hits as f64) / sum(&|r| r.resolver_client as f64), "ratio"),
    );
    m.insert("attack.probes_per_trial", (sum(&|r| r.probes as f64) / n, "count"));
    m.insert("attack.fragments_planted_per_trial", (sum(&|r| r.planted as f64) / n, "count"));
    let per_probe = unit["dns.referral_decode_ns"].0 + unit["attack.forge_tail_ns"].0;
    m.insert(
        "attack.probe_path_share",
        (sum(&|r| r.probes as f64) * per_probe / sum(&attack::Replay::wall_ns), "ratio"),
    );
    (replays, matched)
}
