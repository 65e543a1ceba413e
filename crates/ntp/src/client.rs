//! Behavioural models of the NTP clients evaluated in Table I of the paper:
//! ntpd, chrony, openntpd (NTP) and ntpdate, Android SNTP, ntpclient,
//! systemd-timesyncd (SNTP).
//!
//! One engine ([`NtpClient`]) implements the shared machinery — DNS lookups
//! through a resolver, associations with reachability registers, polling,
//! offset computation, majority selection, clock stepping — and a
//! [`ClientKind`] fixes each implementation's documented differences:
//! how often it polls, how many associations are kept, how quickly
//! unreachable servers are abandoned, whether the client also acts as a
//! server (leaking its upstream in the refid, the P2 discovery channel),
//! and above all when DNS is queried. That is one [`DnsPolicy`] of six:
//! refill lost associations (ntpd, chrony), after a 60-minute total outage
//! (OpenNTPD), once (ntpclient), once and exit after the first sync
//! (ntpdate), from a cached address list (systemd-timesyncd), or before
//! every sync (Android).

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use dns::stub::StubResolver;
use dns::zone::pool_domain;
use netsim::prelude::*;

use crate::clock::{ClockAdjustment, SystemClock};
use crate::packet::{peek_mode, NtpMode, NtpPacket, NTP_PORT};
use crate::select::{default_window, select, OffsetSample};
use crate::timestamp::{offset_and_delay, NtpTimestamp};

/// The client implementations of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// Reference ntpd with pool associations.
    Ntpd,
    /// chrony.
    Chrony,
    /// OpenNTPD.
    OpenNtpd,
    /// ntpdate (one-shot, typically from cron).
    Ntpdate,
    /// systemd-timesyncd (SNTP with a cached fallback list).
    SystemdTimesyncd,
    /// Android's built-in SNTP client (DNS lookup per sync).
    AndroidSntp,
    /// ntpclient (SNTP, resolves once, never again).
    NtpClientTiny,
}

impl ClientKind {
    /// All seven kinds, in Table I order.
    pub fn all() -> [ClientKind; 7] {
        [
            ClientKind::Ntpd,
            ClientKind::OpenNtpd,
            ClientKind::Chrony,
            ClientKind::Ntpdate,
            ClientKind::AndroidSntp,
            ClientKind::NtpClientTiny,
            ClientKind::SystemdTimesyncd,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClientKind::Ntpd => "NTPd",
            ClientKind::Chrony => "chrony",
            ClientKind::OpenNtpd => "openntpd",
            ClientKind::Ntpdate => "ntpdate",
            ClientKind::SystemdTimesyncd => "systemd",
            ClientKind::AndroidSntp => "Android",
            ClientKind::NtpClientTiny => "ntpclient",
        }
    }

    /// Share of `pool.ntp.org` clients per Rytilahti et al. (paper Table I).
    pub fn pool_share(self) -> Option<f64> {
        match self {
            ClientKind::Ntpd => Some(0.264),
            ClientKind::OpenNtpd => Some(0.044),
            ClientKind::Chrony => Some(0.048),
            ClientKind::Ntpdate => Some(0.200),
            ClientKind::AndroidSntp => Some(0.140),
            ClientKind::NtpClientTiny => Some(0.012),
            ClientKind::SystemdTimesyncd => None, // "not listed"
        }
    }
}

/// When a client asks DNS for servers: the question Table I sorts the
/// clients by, and the one that decides whether the run-time attack works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsPolicy {
    /// ntpd, chrony: re-query while fewer than `max_associations` are
    /// live, so an association the attacker breaks is replaced by a lookup.
    Refill,
    /// OpenNTPD: re-query only after a total outage of [`OUTAGE_REQUERY`].
    AfterOutage,
    /// ntpclient: resolve once at start, never again.
    Once,
    /// ntpdate: resolve, take the first 4 addresses, stop after the first
    /// sync.
    OneShot,
    /// systemd-timesyncd: walk the address list cached from the last reply
    /// one dead server at a time; re-query when the list is empty.
    CachedList,
    /// Android: a fresh lookup before every sync, one sync per
    /// `poll_interval`.
    PerSync,
}

/// How long a [`DnsPolicy::AfterOutage`] client waits with no live
/// association before it resolves again.
pub const OUTAGE_REQUERY: SimDuration = SimDuration::from_mins(60);

/// Behaviour parameters of one client implementation: a function of its
/// [`ClientKind`] ([`ClientKind::profile`]), not a setting.
#[derive(Debug, Clone, Copy)]
struct Profile {
    /// Poll interval per association (for [`DnsPolicy::PerSync`], the
    /// interval between syncs).
    poll_interval: SimDuration,
    /// Consecutive unanswered polls before an association is abandoned.
    unreach_polls: u32,
    /// Maximum simultaneous associations.
    max_associations: usize,
    /// When DNS is queried: one of the six policies of Table I.
    dns: DnsPolicy,
    /// Whether the client answers mode-3 queries (ntpd default), leaking
    /// its system peer in the refid — attack scenario P2's channel.
    acts_as_server: bool,
}

impl ClientKind {
    /// The behaviour of each implementation:
    ///
    /// * ntpd: 6 associations (4 pool + margin up to MAXCLOCK), 8-bit
    ///   reach register at 64 s polls, acts as a server by default;
    /// * chrony: 4 sources, replaced via DNS when offline; its converged
    ///   poll interval is longer (256 s), making run-time attacks slower
    ///   (Table II);
    /// * OpenNTPD: no run-time DNS on association loss, but re-resolves
    ///   after a prolonged total outage;
    /// * ntpdate: one shot — resolve, sync, exit;
    /// * systemd-timesyncd: SNTP, single association, walks the 4-address
    ///   cached list before re-querying DNS;
    /// * Android SNTP: a fresh DNS lookup for every sync;
    /// * ntpclient: SNTP, resolves once at start, never re-resolves.
    fn profile(self) -> Profile {
        use DnsPolicy::*;
        // (poll interval s, unreachable after, max associations, DNS policy)
        let (poll_secs, unreach_polls, max_associations, dns) = match self {
            ClientKind::Ntpd => (64, 8, 6, Refill),
            ClientKind::Chrony => (256, 10, 4, Refill),
            ClientKind::OpenNtpd => (90, 8, 4, AfterOutage),
            ClientKind::Ntpdate => (64, 8, 4, OneShot),
            ClientKind::SystemdTimesyncd => (32, 3, 1, CachedList),
            ClientKind::AndroidSntp => (64, 8, 1, PerSync),
            ClientKind::NtpClientTiny => (64, 8, 1, Once),
        };
        Profile {
            poll_interval: SimDuration::from_secs(poll_secs),
            unreach_polls,
            max_associations,
            dns,
            acts_as_server: self == ClientKind::Ntpd,
        }
    }

    /// When this client asks DNS for servers.
    pub fn dns_policy(self) -> DnsPolicy {
        self.profile().dns
    }

    /// Table I column: vulnerable to the run-time attack — the client can
    /// be driven to a *prompt* DNS re-query by breaking associations.
    /// OpenNTPD's slow outage re-resolution and ntpdate's one-shot nature
    /// don't count (matching the paper's classification).
    pub fn vulnerable_run_time(self) -> Option<bool> {
        match self.dns_policy() {
            DnsPolicy::OneShot => None, // "n/a" in the paper's table
            DnsPolicy::Refill | DnsPolicy::CachedList | DnsPolicy::PerSync => Some(true),
            DnsPolicy::Once | DnsPolicy::AfterOutage => Some(false),
        }
    }
}

/// One server association.
#[derive(Debug, Clone)]
pub struct Association {
    /// Server address.
    pub addr: Ipv4Addr,
    /// 8-bit reachability shift register (bit set per answered poll).
    pub reach: u8,
    /// Consecutive unanswered polls.
    pub misses: u32,
    /// Next scheduled poll.
    pub next_poll: SimTime,
    /// Outstanding request's transmit timestamp (origin check).
    pub pending_t1: Option<NtpTimestamp>,
    /// Most recent offset sample.
    pub sample: Option<OffsetSample>,
    /// Time of the most recent sample.
    pub sample_at: Option<SimTime>,
    /// A KoD was received from this server.
    pub kod: bool,
    /// Declared unreachable and demobilised.
    pub dead: bool,
}

impl Association {
    fn new(addr: Ipv4Addr, first_poll: SimTime) -> Self {
        Association {
            addr,
            reach: 0,
            misses: 0,
            next_poll: first_poll,
            pending_t1: None,
            sample: None,
            sample_at: None,
            kod: false,
            dead: false,
        }
    }
}

/// Counters exposed by an [`NtpClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// DNS lookups issued.
    pub dns_lookups: u64,
    /// NTP polls sent.
    pub polls_sent: u64,
    /// Valid responses received.
    pub responses: u64,
    /// KoD packets received.
    pub kods_received: u64,
    /// Clock steps applied.
    pub steps: u64,
    /// Associations demobilised as unreachable.
    pub assocs_lost: u64,
    /// Responses discarded by the origin-timestamp check.
    pub origin_check_failures: u64,
}

const TICK: TimerToken = 1;
const TICK_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// The NTP client host: one engine, seven behaviour profiles.
#[derive(Debug)]
pub struct NtpClient {
    profile: Profile,
    /// The disciplined clock (public: experiments read the offset).
    pub clock: SystemClock,
    stub: StubResolver,
    assocs: Vec<Association>,
    cached_addrs: VecDeque<Ipv4Addr>,
    synced_once: bool,
    done: bool,
    last_dns: Option<SimTime>,
    outage_since: Option<SimTime>,
    next_sync: SimTime,
    system_peer: Option<Ipv4Addr>,
    /// Counters.
    pub stats: ClientStats,
}

impl NtpClient {
    /// Creates a client of `kind` using `resolver` for DNS.
    pub fn new(kind: ClientKind, resolver: Ipv4Addr) -> Self {
        NtpClient {
            clock: SystemClock::new(),
            stub: StubResolver::new(resolver, 5353),
            assocs: Vec::new(),
            cached_addrs: VecDeque::new(),
            synced_once: false,
            done: false,
            last_dns: None,
            outage_since: None,
            next_sync: SimTime::ZERO,
            system_peer: None,
            profile: kind.profile(),
            stats: ClientStats::default(),
        }
    }

    /// Current clock offset from true time, in seconds.
    pub fn offset_secs(&self, now: SimTime) -> f64 {
        self.clock.offset_from_true(now).as_secs_f64()
    }

    /// Live (mobilised, reachable-or-probing) associations.
    pub fn live_servers(&self) -> Vec<Ipv4Addr> {
        self.assocs.iter().filter(|a| !a.dead).map(|a| a.addr).collect()
    }

    /// The currently selected upstream, if any.
    pub fn system_peer(&self) -> Option<Ipv4Addr> {
        self.system_peer
    }

    /// True once the one-shot client has finished.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Time of the first clock step beyond 1 s, if any — the experiments'
    /// "attack landed" marker.
    pub fn first_large_step(&self) -> Option<(SimTime, f64)> {
        self.clock.adjustments.iter().find(|(_, off)| off.abs() > 1.0).copied()
    }

    fn issue_dns(&mut self, ctx: &mut Ctx<'_>) {
        // At most one DNS query per 10 s, mirroring resolver-side caching
        // of the client libraries.
        if let Some(last) = self.last_dns {
            if ctx.now().saturating_since(last) < SimDuration::from_secs(10) {
                return;
            }
        }
        self.last_dns = Some(ctx.now());
        self.stats.dns_lookups += 1;
        self.stub.query_a(ctx, &pool_domain());
    }

    fn mobilize(&mut self, ctx: &mut Ctx<'_>, addrs: &[Ipv4Addr]) {
        let now = ctx.now();
        for &addr in addrs {
            let live = self.assocs.iter().filter(|a| !a.dead).count();
            if live >= self.profile.max_associations {
                break;
            }
            if self.assocs.iter().any(|a| !a.dead && a.addr == addr) {
                continue;
            }
            self.assocs.push(Association::new(addr, now));
        }
        self.assocs.retain(|a| !a.dead);
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let t1 = self.clock.now(now);
        let assoc = &mut self.assocs[idx];
        assoc.reach <<= 1;
        if assoc.pending_t1.take().is_some() {
            assoc.misses += 1;
        }
        assoc.pending_t1 = Some(t1);
        assoc.next_poll = now + self.profile.poll_interval;
        let addr = assoc.addr;
        self.stats.polls_sent += 1;
        let req = NtpPacket::client_request(t1);
        ctx.send_udp(addr, NTP_PORT, NTP_PORT, req.encode());
    }

    fn check_unreachable(&mut self) {
        let limit = self.profile.unreach_polls;
        let mut lost = 0;
        for assoc in &mut self.assocs {
            if !assoc.dead && (assoc.misses >= limit || assoc.kod) {
                assoc.dead = true;
                lost += 1;
            }
        }
        self.stats.assocs_lost += lost;
        if self.system_peer.is_some()
            && !self.assocs.iter().any(|a| !a.dead && Some(a.addr) == self.system_peer)
        {
            self.system_peer = None;
        }
    }

    fn replenish(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let live = self.assocs.iter().filter(|a| !a.dead).count();
        match self.profile.dns {
            // ntpd-style pool behaviour: keep mobilising until
            // `max_associations` are live (each pool lookup yields 4
            // addresses; rotation surfaces fresh ones after the TTL). An
            // association the attacker breaks takes the same path — the
            // run-time attack's trigger.
            DnsPolicy::Refill => {
                if live < self.profile.max_associations {
                    self.issue_dns(ctx);
                }
            }
            DnsPolicy::AfterOutage => {
                if live == 0 {
                    let since = *self.outage_since.get_or_insert(now);
                    if now.saturating_since(since) >= OUTAGE_REQUERY {
                        self.outage_since = Some(now); // restart the timer
                        self.issue_dns(ctx);
                    }
                } else {
                    self.outage_since = None;
                }
            }
            // systemd-timesyncd: walk the cached list first.
            DnsPolicy::CachedList => {
                if live == 0 {
                    if let Some(next) = self.cached_addrs.pop_front() {
                        self.assocs.retain(|a| !a.dead);
                        self.assocs.push(Association::new(next, now));
                    } else {
                        self.issue_dns(ctx);
                    }
                }
            }
            DnsPolicy::Once | DnsPolicy::OneShot | DnsPolicy::PerSync => {}
        }
    }

    fn try_discipline(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let fresh_window = self.profile.poll_interval.saturating_mul(3);
        let samples: Vec<OffsetSample> = self
            .assocs
            .iter()
            .filter(|a| !a.dead)
            .filter_map(|a| {
                let at = a.sample_at?;
                if now.saturating_since(at) <= fresh_window {
                    a.sample
                } else {
                    None
                }
            })
            .collect();
        // Quorum: wait for fresh samples from a majority of the live
        // associations before deciding — a lone early responder must not
        // steer the clock while the rest are still in flight (the
        // behaviour of ntpd's reach/fit gating).
        let live = self.assocs.iter().filter(|a| !a.dead).count();
        if samples.len() < (live / 2 + 1).max(1) {
            return;
        }
        let Some(selection) = select(&samples, default_window()) else {
            return;
        };
        // The system peer is sticky: ntpd keeps it while it remains a
        // survivor, so an attacker probing the refid (scenario P2) learns
        // upstreams one at a time, only after killing the current one.
        match self.system_peer {
            Some(peer) if selection.survivors.contains(&peer) => {}
            _ => self.system_peer = selection.survivors.first().copied(),
        }
        let at_boot = !self.synced_once;
        // Only act on meaningful corrections; sub-millisecond noise is the
        // steady state.
        if selection.offset.abs().as_nanos() < 1_000_000 && self.synced_once {
            return;
        }
        match self.clock.apply_offset(now, selection.offset, at_boot) {
            ClockAdjustment::Stepped => {
                self.stats.steps += 1;
                self.synced_once = true;
                // A step invalidates samples measured against the pre-step
                // clock, including requests still in flight.
                for a in &mut self.assocs {
                    a.sample = None;
                    a.sample_at = None;
                    a.pending_t1 = None;
                }
            }
            ClockAdjustment::Slewed => {
                self.synced_once = true;
            }
            ClockAdjustment::PanicRejected => {}
        }
        if self.profile.dns == DnsPolicy::OneShot && self.synced_once {
            self.done = true;
        }
    }

    fn handle_ntp_response(&mut self, ctx: &mut Ctx<'_>, d: &Datagram, resp: NtpPacket) {
        let now = ctx.now();
        let t4 = self.clock.now(now);
        let Some(assoc) = self.assocs.iter_mut().find(|a| a.addr == d.src && !a.dead) else {
            return;
        };
        // ntpd's origin check ("bogus" test): a mode-4 packet whose origin
        // timestamp does not echo an outstanding request is rejected —
        // unsolicited packets included, which is how blind spoofs without
        // an in-flight query are caught.
        let t1 = match assoc.pending_t1 {
            Some(t1) if resp.origin_ts == t1 => t1,
            _ => {
                self.stats.origin_check_failures += 1;
                return; // blind spoof attempt or stale duplicate
            }
        };
        assoc.pending_t1 = None;
        if resp.is_kod() {
            self.stats.kods_received += 1;
            assoc.kod = true;
            return;
        }
        let (offset, delay) = offset_and_delay(t1, resp.recv_ts, resp.xmit_ts, t4);
        assoc.reach |= 1;
        assoc.misses = 0;
        assoc.sample = Some(OffsetSample { server: d.src, offset, delay });
        assoc.sample_at = Some(now);
        self.stats.responses += 1;
        self.try_discipline(ctx);
    }

    fn handle_dns_reply(&mut self, ctx: &mut Ctx<'_>, addrs: &[Ipv4Addr]) {
        if addrs.is_empty() {
            return;
        }
        match self.profile.dns {
            DnsPolicy::CachedList => {
                let first = addrs[0];
                self.cached_addrs = addrs[1..].iter().copied().collect();
                self.assocs.retain(|a| !a.dead);
                if self.assocs.iter().all(|a| a.addr != first) {
                    self.assocs.clear();
                    self.assocs.push(Association::new(first, ctx.now()));
                }
            }
            DnsPolicy::PerSync => {
                // Android: one SNTP exchange against the first address.
                self.assocs.clear();
                self.assocs.push(Association::new(addrs[0], ctx.now()));
                self.poll(ctx, 0);
            }
            DnsPolicy::OneShot => self.mobilize(ctx, &addrs[..addrs.len().min(4)]),
            DnsPolicy::Refill | DnsPolicy::AfterOutage | DnsPolicy::Once => {
                self.mobilize(ctx, addrs)
            }
        }
    }

    fn serve_query(&mut self, ctx: &mut Ctx<'_>, d: &Datagram, req: NtpPacket) {
        // ntpd's default server role: respond with our clock; the refid
        // leaks our current system peer — scenario P2 reads it.
        let now = self.clock.now(ctx.now());
        let ref_id = self.system_peer.map(|p| p.octets()).unwrap_or([0, 0, 0, 0]);
        let resp = NtpPacket::server_response(&req, 3, ref_id, now, now);
        ctx.send_udp(d.src, NTP_PORT, d.src_port, resp.encode());
    }
}

impl Host for NtpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.profile.dns {
            DnsPolicy::PerSync => self.next_sync = ctx.now(),
            _ => self.issue_dns(ctx),
        }
        ctx.set_timer(TICK_INTERVAL, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token != TICK || self.done {
            return;
        }
        let now = ctx.now();
        match self.profile.dns {
            // Android polls from `handle_dns_reply`, one exchange per lookup.
            DnsPolicy::PerSync => {
                if now >= self.next_sync {
                    self.next_sync = now + self.profile.poll_interval;
                    self.last_dns = None; // Android always re-queries
                    self.issue_dns(ctx);
                }
            }
            _ => {
                for idx in 0..self.assocs.len() {
                    if !self.assocs[idx].dead && self.assocs[idx].next_poll <= now {
                        self.poll(ctx, idx);
                    }
                }
                self.check_unreachable();
                self.replenish(ctx);
            }
        }
        ctx.set_timer(TICK_INTERVAL, TICK);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if self.done {
            return;
        }
        if let Some(reply) = self.stub.handle(d) {
            self.handle_dns_reply(ctx, &reply.addrs);
            return;
        }
        if d.dst_port == NTP_PORT {
            match peek_mode(&d.payload) {
                Some(NtpMode::Server) => {
                    if let Ok(resp) = NtpPacket::decode(&d.payload) {
                        self.handle_ntp_response(ctx, d, resp);
                    }
                }
                Some(NtpMode::Client) if self.profile.acts_as_server => {
                    if let Ok(req) = NtpPacket::decode(&d.payload) {
                        self.serve_query(ctx, d, req);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::NtpServer;
    use crate::timestamp::NtpDuration;
    use dns::prelude::*;

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const NS: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    fn pool_servers(n: u8) -> Vec<Ipv4Addr> {
        (1..=n).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect()
    }

    /// Victim network: resolver + pool NS + honest (or shifted) servers.
    fn build(seed: u64, shift: f64, kind: ClientKind) -> Simulator {
        let mut sim = Simulator::with_topology(
            seed,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(15))),
        );
        for s in pool_servers(8) {
            let host = if shift == 0.0 {
                NtpServer::honest()
            } else {
                NtpServer::shifted(NtpDuration::from_secs_f64(shift))
            };
            sim.add_host(s, OsProfile::linux(), Box::new(host)).unwrap();
        }
        add_dns_and_client(&mut sim, kind);
        sim
    }

    /// The same network with no host behind any pool address: every
    /// association dies after `unreach_polls` unanswered polls.
    fn build_dead_pool(seed: u64, kind: ClientKind) -> Simulator {
        let mut sim = Simulator::with_topology(
            seed,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(15))),
        );
        add_dns_and_client(&mut sim, kind);
        sim
    }

    fn add_dns_and_client(sim: &mut Simulator, kind: ClientKind) {
        let zone = pool_zone(pool_servers(8), 4, NS);
        let ns_list = spawn_zone_nameservers(sim, [zone], OsProfile::nameserver(548));
        sim.add_host(
            RESOLVER,
            OsProfile::linux(),
            Box::new(Resolver::new(
                ResolverConfig::default(),
                vec![("pool.ntp.org".parse().unwrap(), ns_list)],
            )),
        )
        .unwrap();
        sim.add_host(CLIENT, OsProfile::linux(), Box::new(NtpClient::new(kind, RESOLVER))).unwrap();
    }

    #[test]
    fn ntpd_boots_and_stays_in_sync_with_honest_pool() {
        let mut sim = build(1, 0.0, ClientKind::Ntpd);
        sim.run_for(SimDuration::from_mins(10));
        let lookups_after_fill = {
            let c: &NtpClient = sim.host(CLIENT).unwrap();
            assert!(c.offset_secs(sim.now()).abs() < 0.5, "offset {}", c.offset_secs(sim.now()));
            assert_eq!(c.live_servers().len(), 6, "pool fills to MAXCLOCK margin");
            assert!(c.system_peer().is_some());
            c.stats.dns_lookups
        };
        // Once full, a healthy ntpd issues no further lookups.
        sim.run_for(SimDuration::from_mins(20));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert_eq!(c.stats.dns_lookups, lookups_after_fill, "no re-query while healthy");
    }

    #[test]
    fn boot_against_malicious_pool_shifts_clock() {
        // Boot-time attack endgame: the resolver hands out attacker servers;
        // every client kind takes the shifted time at boot.
        for kind in ClientKind::all() {
            let mut sim = build(2, -500.0, kind);
            sim.run_for(SimDuration::from_mins(10));
            let c: &NtpClient = sim.host(CLIENT).unwrap();
            let off = c.offset_secs(sim.now());
            assert!((off + 500.0).abs() < 1.0, "{}: expected -500 s shift, got {off}", kind.name());
        }
    }

    #[test]
    fn one_shot_ntpdate_finishes() {
        let mut sim = build(3, 0.0, ClientKind::Ntpdate);
        sim.run_for(SimDuration::from_mins(5));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert!(c.finished());
        assert_eq!(c.stats.dns_lookups, 1);
    }

    #[test]
    fn android_queries_dns_every_sync() {
        let mut sim = build(4, 0.0, ClientKind::AndroidSntp);
        sim.run_for(SimDuration::from_mins(10));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert!(
            c.stats.dns_lookups >= 8,
            "Android must look up DNS per sync, got {}",
            c.stats.dns_lookups
        );
        assert!(c.offset_secs(sim.now()).abs() < 0.5);
    }

    #[test]
    fn ntpclient_never_requeries() {
        let mut sim = build(5, 0.0, ClientKind::NtpClientTiny);
        sim.run_for(SimDuration::from_mins(30));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert_eq!(c.stats.dns_lookups, 1);
    }

    #[test]
    fn systemd_walks_cached_list_before_requerying() {
        // 32 s polls, 3 misses: each dead address lasts ~96 s. The boot
        // lookup yields 4 addresses: one mobilised, three cached.
        let mut sim = build_dead_pool(8, ClientKind::SystemdTimesyncd);
        sim.run_for(SimDuration::from_secs(60));
        let first = {
            let c: &NtpClient = sim.host(CLIENT).unwrap();
            assert_eq!(c.stats.dns_lookups, 1);
            assert_eq!(c.live_servers().len(), 1);
            c.live_servers()[0]
        };
        sim.run_for(SimDuration::from_secs(90));
        {
            let c: &NtpClient = sim.host(CLIENT).unwrap();
            assert_eq!(c.stats.assocs_lost, 1);
            assert_eq!(c.live_servers().len(), 1);
            assert_ne!(c.live_servers()[0], first, "moved to the next cached address");
            assert_eq!(c.stats.dns_lookups, 1, "a cached address needs no lookup");
        }
        // Three cached addresses walked (~388 s): still no lookup.
        sim.run_for(SimDuration::from_secs(210));
        {
            let c: &NtpClient = sim.host(CLIENT).unwrap();
            assert_eq!(c.stats.assocs_lost, 3);
            assert_eq!(c.stats.dns_lookups, 1);
        }
        // The fourth address dies with the cache empty: one new lookup.
        sim.run_for(SimDuration::from_secs(60));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert_eq!(c.stats.assocs_lost, 4);
        assert_eq!(c.stats.dns_lookups, 2, "an empty cache forces a lookup");
        assert_eq!(c.live_servers().len(), 1);
    }

    #[test]
    fn openntpd_requeries_only_after_an_hour_of_outage() {
        // 90 s polls, 8 misses: all 4 associations die at ~721 s, which
        // starts the outage clock.
        let mut sim = build_dead_pool(9, ClientKind::OpenNtpd);
        sim.run_for(SimDuration::from_mins(13));
        {
            let c: &NtpClient = sim.host(CLIENT).unwrap();
            assert_eq!(c.stats.assocs_lost, 4);
            assert!(c.live_servers().is_empty());
            assert_eq!(c.stats.dns_lookups, 1);
        }
        // 59 min into the outage: still no lookup.
        sim.run_for(SimDuration::from_mins(58));
        assert_eq!(sim.host::<NtpClient>(CLIENT).unwrap().stats.dns_lookups, 1);
        // Past 60 min: exactly one more, which mobilises 4 fresh
        // associations (they die again only at ~84 min).
        sim.run_for(SimDuration::from_mins(9));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert_eq!(c.stats.dns_lookups, 2);
        assert_eq!(c.live_servers().len(), 4);
    }

    #[test]
    fn origin_check_rejects_blind_spoof() {
        struct Spoofer {
            victim: Ipv4Addr,
            honest_pool: Vec<Ipv4Addr>,
        }
        impl Host for Spoofer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(70), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                // Blind mode-4 spoofs claiming to be each pool server (the
                // attacker cannot know which 4-of-8 rotation the victim
                // associated with, so it sprays them all) with a huge
                // offset; the origin timestamp is a guess and fails.
                let bogus = NtpPacket::server_response(
                    &NtpPacket::client_request(NtpTimestamp::from_secs_nanos(1, 0)),
                    2,
                    [1, 2, 3, 4],
                    NtpTimestamp::from_secs_nanos(999, 0),
                    NtpTimestamp::from_secs_nanos(999, 0),
                );
                for &honest in &self.honest_pool {
                    ctx.send_udp_spoofed(honest, self.victim, NTP_PORT, NTP_PORT, bogus.encode());
                }
                ctx.set_timer(SimDuration::from_secs(5), 0);
            }
        }
        let mut sim = build(6, 0.0, ClientKind::Ntpd);
        sim.add_host(
            "203.0.113.66".parse().unwrap(),
            OsProfile::linux(),
            Box::new(Spoofer { victim: CLIENT, honest_pool: pool_servers(8) }),
        )
        .unwrap();
        sim.run_for(SimDuration::from_mins(10));
        let c: &NtpClient = sim.host(CLIENT).unwrap();
        assert!(c.stats.origin_check_failures > 0);
        assert!(c.offset_secs(sim.now()).abs() < 0.5, "spoof must not shift clock");
    }

    #[test]
    fn table1_vulnerability_matrix() {
        // Matches the paper's Table I run-time column (the boot-time
        // column comes from the live attack).
        let expect: [(ClientKind, Option<bool>); 7] = [
            (ClientKind::Ntpd, Some(true)),
            (ClientKind::OpenNtpd, Some(false)),
            (ClientKind::Chrony, Some(true)),
            (ClientKind::Ntpdate, None),
            (ClientKind::AndroidSntp, Some(true)),
            (ClientKind::NtpClientTiny, Some(false)),
            (ClientKind::SystemdTimesyncd, Some(true)),
        ];
        for (kind, run) in expect {
            assert_eq!(kind.vulnerable_run_time(), run, "{}", kind.name());
        }
    }

    #[test]
    fn ntpd_acts_as_server_and_leaks_system_peer() {
        struct Prober {
            victim: Ipv4Addr,
            pub leaked: Option<Ipv4Addr>,
        }
        impl Host for Prober {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_mins(3), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                let t = NtpTimestamp::at_sim_time(ctx.now());
                ctx.send_udp(
                    self.victim,
                    NTP_PORT,
                    NTP_PORT,
                    NtpPacket::client_request(t).encode(),
                );
            }
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
                if let Ok(resp) = NtpPacket::decode(&d.payload) {
                    self.leaked = resp.upstream_addr();
                }
            }
        }
        let prober_addr: Ipv4Addr = "203.0.113.99".parse().unwrap();
        let mut sim = build(7, 0.0, ClientKind::Ntpd);
        sim.add_host(
            prober_addr,
            OsProfile::linux(),
            Box::new(Prober { victim: CLIENT, leaked: None }),
        )
        .unwrap();
        sim.run_for(SimDuration::from_mins(5));
        let p: &Prober = sim.host(prober_addr).unwrap();
        let leaked = p.leaked.expect("refid leak must answer");
        assert!(
            pool_servers(8).contains(&leaked),
            "leaked refid {leaked} must be one of the upstreams"
        );
    }
}
