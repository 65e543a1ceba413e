//! The discrete-event simulator: hosts, network stacks, and the event loop.
//!
//! Every host owns a [`NetStack`] (defragmentation cache, path-MTU cache,
//! IPID counters per its [`OsProfile`]) and implements [`Host`]. Packets are
//! real encoded IPv4 bytes-on-structs; delivery times come from the
//! [`Topology`]'s link specs; everything is driven by a deterministic,
//! seeded event heap.
//!
//! ## Engine layout
//!
//! Hosts live in a dense slab: [`Simulator::add_host`] interns the address
//! into a [`HostId`] once, and the event loop addresses hosts and stacks by
//! slab index — the hot dispatch path performs no hash lookups. Packets
//! resolve their destination `HostId` when they are put on the wire; a
//! packet addressed to a host registered only *after* transmission falls
//! back to one interner lookup at delivery time. Host callbacks write their
//! deferred effects into a scratch buffer owned by the simulator, so steady
//! state dispatch allocates nothing.
//!
//! Events are queued in a hierarchical [timing wheel](crate::wheel) — O(1)
//! schedule/pop in the same `(time, sequence)` total order a binary heap
//! would give — and packets are **move-delivered**: the simulator transfers
//! ownership of each [`Ipv4Packet`] from the wire through the stack
//! (reassembly, checksum verification) to the host callback without a
//! single packet clone.
//!
//! ## Allocation discipline
//!
//! The dispatch enums are kept at most 32 bytes (enforced by static
//! asserts below): the payload-bearing variants of `Action` and
//! `EventKind` box their contents, and the boxes are recycled through a
//! simulator-owned freelist (`BoxPool`) — an in-flight packet reuses the
//! box of a previously delivered one. Wire bytes
//! themselves come from the vendored `bytes` buffer pool (a 24-B handle:
//! inline storage for ≤ 22 B, a thread-local `Arc<Vec<u8>>` freelist above
//! that), so the steady-state encode → transmit → deliver path performs
//! **zero heap allocations**. [`Simulator::new`] resets that pool, making
//! the [`SimStats::pool_hits`]/[`SimStats::pool_misses`] counters a pure
//! function of the simulation (determinism contract: identical for any
//! worker count or thread reuse).
//!
//! ## Cache shape
//!
//! Beyond allocation, the loop is laid out for cache residency (see
//! `docs/ARCHITECTURE.md` § "Hot-path data layout"): the host slab keeps
//! each slot to 48 B by splitting every stack into an inline hot half and
//! a boxed cold half ([`NetStack`]), and dispatch is **batched** — each
//! same-instant wheel run is drained into a scratch ring in one motion and
//! dispatched front to back, preserving the exact `(at, seq)` order (the
//! one-event reference loop remains available via
//! [`Simulator::set_batched_dispatch`] and the differential tests hold the
//! two modes bit-identical).
// simlint: hot-path — the dispatch loop, the SoA host slab and the send/
// receive paths below run once per simulated event; the steady state is
// allocation-free (pooled boxes, reused scratch buffers, inline `Bytes`),
// and the allows mark the cold constructors and pool-miss refill paths.

use std::any::Any;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::drop::{DropCounts, DropReason};
use crate::error::{SimError, WireError};
use crate::fasthash::FastMap;
use crate::frag::{fragment_into, DefragCache, FragInsert};
use crate::icmp::IcmpMessage;
use crate::ipv4::{Ipv4Packet, IPV4_HEADER_LEN, PROTO_ICMP, PROTO_UDP};
use crate::link::Topology;
use crate::os::{IpidMode, OsProfile};
use crate::pmtu::PmtuCache;
use crate::time::{SimDuration, SimTime};
use crate::udp::UdpDatagram;
use crate::wheel::TimingWheel;

/// Token identifying a timer set by a host; the host chooses the value and
/// receives it back in [`Host::on_timer`].
pub type TimerToken = u64;

/// Dense index of a registered host: the slab slot assigned by
/// [`Simulator::add_host`]. Event dispatch addresses hosts by this index
/// instead of hashing their [`Ipv4Addr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(u32);

impl HostId {
    /// The slab index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reassembled, checksum-verified UDP datagram as delivered to a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Claimed source address (spoofable!).
    pub src: Ipv4Addr,
    /// Destination address (this host).
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

/// Behaviour of a simulated host. All callbacks receive a [`Ctx`] through
/// which the host sends packets and sets timers.
///
/// Implementors must be `'static` (hosts are stored as trait objects and can
/// be inspected after a run via [`Simulator::host`]).
pub trait Host: Any {
    /// Called once when the simulation first runs.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Raw-socket tap: sees every IPv4 packet addressed to this host
    /// *before* the stack (reassembly, checksum checks) touches it. Return
    /// `true` to consume the packet (bypass the stack). Off-path attackers
    /// use this to read IPID counters off probe responses.
    fn on_raw_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: &Ipv4Packet) -> bool {
        false
    }
    /// A UDP datagram arrived (already reassembled and checksum-verified).
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: &Datagram) {}
    /// An ICMP message arrived. Path-MTU bookkeeping has already been done
    /// by the stack; this is for observability and custom reactions.
    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4Addr, _msg: &IcmpMessage) {}
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
}

/// Per-destination IPID counter plus its last-use tick (for LRU eviction).
#[derive(Debug, Clone, Copy)]
struct IpidSlot {
    counter: u16,
    tick: u64,
}

/// Per-host network stack: fragmentation on send, reassembly and
/// verification on receive, PMTUD bookkeeping, IPID assignment.
///
/// Laid out structure-of-arrays style across the host slab: the scalar
/// state the event loop touches per packet (`StackHot`) sits inline in
/// the slot, while the caches and config a packet only needs in the
/// uncommon cases (fragments pending, PMTU learned, per-destination IPID)
/// live behind one pointer in `StackCold`. A host slab entry is 48 B —
/// 21 hosts per 1 KiB of cache — instead of the several hundred bytes the
/// inline caches used to cost.
#[derive(Debug)]
pub struct NetStack {
    hot: StackHot,
    cold: Box<StackCold>,
}

/// The per-packet scalar state of a stack, kept inline in the host slab.
///
/// The mirrored flags exist so the common case — no fragments pending, no
/// path MTU learned — never dereferences `StackCold`: they are updated
/// whenever the cold state they summarise changes, and a conservatively
/// stale `true` only costs the dereference (never correctness).
#[derive(Debug)]
struct StackHot {
    /// Compact [`OsProfile::ipid`] discriminant (`IPID_*` below). The
    /// per-destination modes carry a fourth state: "the counter for the
    /// single tracked destination is cached inline" — the common
    /// one-peer-conversation case assigns IPIDs without touching the cold
    /// map at all.
    ipid_mode: u8,
    /// The inline IPID counter: the global-sequential counter, or (in
    /// [`IPID_PER_DST_CACHED`] mode) the cached per-destination counter.
    ipid_counter: u16,
    /// Destination the cached per-destination counter belongs to.
    ipid_cached_dst: u32,
    /// Copy of [`OsProfile::interface_mtu`].
    interface_mtu: u16,
    /// Copy of [`OsProfile::min_fragment_size`].
    min_fragment_size: u16,
    /// Copy of [`OsProfile::accept_fragments`].
    accept_fragments: bool,
    /// True once the PMTU cache may hold entries (set by frag-needed).
    pmtu_used: bool,
    /// True while the defrag cache may hold pending reassemblies.
    frag_pending: bool,
}

/// [`StackHot::ipid_mode`]: one global sequential counter.
const IPID_GLOBAL: u8 = 0;
/// [`StackHot::ipid_mode`]: uniformly random IPIDs.
const IPID_RANDOM: u8 = 1;
/// [`StackHot::ipid_mode`]: per-destination counters, all in the cold map.
const IPID_PER_DST: u8 = 2;
/// [`StackHot::ipid_mode`]: per-destination counters, and the map's single
/// entry is cached in [`StackHot::ipid_counter`]/[`StackHot::ipid_cached_dst`]
/// (the map entry's counter is stale until the cache is flushed back).
const IPID_PER_DST_CACHED: u8 = 3;

/// The cold half of a [`NetStack`]: per-host config and the caches only
/// touched when their hot-side summary flag says so.
#[derive(Debug)]
struct StackCold {
    profile: OsProfile,
    defrag: DefragCache,
    pmtu: PmtuCache,
    ipid_per_dst: FastMap<Ipv4Addr, IpidSlot>,
    /// LRU order of `ipid_per_dst` accesses, lazily cleaned: entries whose
    /// tick no longer matches the map are stale and skipped on eviction.
    ipid_lru: VecDeque<(u64, Ipv4Addr)>,
    ipid_tick: u64,
    ipid_evictions: u64,
    /// Per-host drop taxonomy: every discarded packet names its reason.
    drops: DropCounts,
}

// The slab is the SoA hot lane: a slot must stay within one cache-line
// pair. 48 = 4 (addr) + 16 (host vtable fat pointer) + 16 (StackHot,
// padded) + 8 (cold pointer) + padding.
const _: () = assert!(std::mem::size_of::<StackHot>() <= 16, "StackHot grew past 16 bytes");
const _: () = assert!(std::mem::size_of::<NetStack>() <= 24, "NetStack grew past 24 bytes");
const _: () = assert!(std::mem::size_of::<HostSlot>() <= 48, "HostSlot grew past 48 bytes");

/// What a stack hands up after processing an arriving packet.
#[derive(Debug)]
pub enum StackOutput {
    /// A complete UDP datagram.
    Udp(Datagram),
    /// An ICMP message (PMTU bookkeeping already applied).
    Icmp {
        /// Claimed sender of the ICMP message.
        from: Ipv4Addr,
        /// The decoded message.
        msg: IcmpMessage,
    },
}

/// Explained outcome of [`NetStack::receive_counted`]: what became of an
/// arriving packet, with every discard naming its [`DropReason`].
#[derive(Debug)]
pub enum ReceiveOutcome {
    /// The packet produced something for the host.
    Delivered {
        /// What to hand up.
        output: StackOutput,
        /// Whether delivery completed a reassembly (vs an unfragmented
        /// passthrough) — the [`obs::kind::FRAG_REASSEMBLED`] trace signal.
        reassembled: bool,
    },
    /// A fragment was stored; its datagram is still incomplete.
    Pending,
    /// The packet was discarded; the reason was counted per host and in
    /// the caller-supplied global [`DropCounts`].
    Dropped(DropReason),
}

/// Maps a UDP decode failure onto the verification slice of the taxonomy.
fn verify_drop_reason(err: &WireError) -> DropReason {
    match err {
        WireError::Truncated { .. } => DropReason::UdpTruncated,
        WireError::LengthMismatch { .. } => DropReason::UdpLengthMismatch,
        WireError::BadChecksum { .. } => DropReason::UdpBadChecksum,
        _ => DropReason::UdpTruncated,
    }
}

impl NetStack {
    /// Creates a stack for the given OS profile.
    pub fn new(profile: OsProfile) -> Self {
        let ipid_start = match profile.ipid {
            IpidMode::GlobalSequential { start } | IpidMode::PerDestination { start } => start,
            IpidMode::Random => 0,
        };
        // Pre-size the per-destination IPID table to its first plateau so
        // steady traffic towards a handful of peers never rehashes.
        let ipid_cap = match profile.ipid {
            IpidMode::PerDestination { .. } => profile.ipid_cache_cap.min(16),
            _ => 0,
        };
        NetStack {
            hot: StackHot {
                ipid_mode: match profile.ipid {
                    IpidMode::GlobalSequential { .. } => IPID_GLOBAL,
                    IpidMode::Random => IPID_RANDOM,
                    IpidMode::PerDestination { .. } => IPID_PER_DST,
                },
                ipid_counter: ipid_start,
                ipid_cached_dst: 0,
                interface_mtu: profile.interface_mtu,
                min_fragment_size: profile.min_fragment_size,
                accept_fragments: profile.accept_fragments,
                pmtu_used: false,
                frag_pending: false,
            },
            // simlint: allow(hot-alloc) — cold constructor: one boxed
            // cold half per host, at registration time.
            cold: Box::new(StackCold {
                defrag: DefragCache::new(profile.defrag),
                pmtu: PmtuCache::new(),
                ipid_per_dst: crate::fasthash::map_with_capacity(ipid_cap),
                ipid_lru: VecDeque::new(),
                ipid_tick: 0,
                ipid_evictions: 0,
                drops: DropCounts::default(),
                profile,
            }),
        }
    }

    /// The profile this stack models.
    pub fn profile(&self) -> &OsProfile {
        &self.cold.profile
    }

    /// Assigns the IPID for the next packet towards `dst`.
    #[inline]
    pub fn next_ipid<R: Rng + ?Sized>(&mut self, dst: Ipv4Addr, rng: &mut R) -> u16 {
        match self.hot.ipid_mode {
            IPID_PER_DST_CACHED if self.hot.ipid_cached_dst == u32::from(dst) => {
                // The single tracked destination again: counter lives
                // inline, no cold-map traffic at all.
                let id = self.hot.ipid_counter;
                self.hot.ipid_counter = id.wrapping_add(1);
                id
            }
            IPID_GLOBAL => {
                let id = self.hot.ipid_counter;
                self.hot.ipid_counter = id.wrapping_add(1);
                id
            }
            IPID_RANDOM => rng.random(),
            _ => self.next_ipid_per_dst_slow(dst),
        }
    }

    /// The per-destination miss path: flushes the inline cache back into
    /// the map, runs the exact LRU-bounded algorithm, and re-caches the
    /// counter inline whenever the map is back down to a single tracked
    /// destination. Eviction requires `len > cap >= 1`, i.e. at least two
    /// tracked destinations, so a cached (single-entry) stack can never
    /// owe an eviction — deferring its map/LRU bookkeeping to the next
    /// miss changes no observable ID, victim, or eviction count.
    fn next_ipid_per_dst_slow(&mut self, dst: Ipv4Addr) -> u16 {
        if self.hot.ipid_mode == IPID_PER_DST_CACHED {
            let cached_dst = Ipv4Addr::from(self.hot.ipid_cached_dst);
            let counter = self.hot.ipid_counter;
            let cold = &mut *self.cold;
            cold.ipid_tick += 1;
            let tick = cold.ipid_tick;
            let slot = cold.ipid_per_dst.get_mut(&cached_dst).expect("cached dst is tracked");
            // One flush summarises the whole cached streak: the counter
            // catches up and the destination keeps its most-recently-used
            // rank (it *was* the last one touched before this miss).
            slot.counter = counter;
            slot.tick = tick;
            cold.ipid_lru.push_back((tick, cached_dst));
            self.hot.ipid_mode = IPID_PER_DST;
        }
        let IpidMode::PerDestination { start } = self.cold.profile.ipid else {
            unreachable!("slow path only runs in per-destination mode")
        };
        let id = self.next_ipid_per_dst(dst, start);
        if self.cold.ipid_per_dst.len() == 1 {
            // Sole tracked destination (necessarily `dst`): move its
            // counter inline until a different destination shows up.
            self.hot.ipid_mode = IPID_PER_DST_CACHED;
            self.hot.ipid_cached_dst = u32::from(dst);
            self.hot.ipid_counter = id.wrapping_add(1);
        }
        id
    }

    /// Per-destination counter with an LRU-bounded table: spoofed-source
    /// sprays touch unbounded destination sets, so the map is capped at
    /// [`OsProfile::ipid_cache_cap`] and the least-recently-used counter is
    /// evicted (and counted) past the cap.
    fn next_ipid_per_dst(&mut self, dst: Ipv4Addr, start: u16) -> u16 {
        let cold = &mut *self.cold;
        cold.ipid_tick += 1;
        let tick = cold.ipid_tick;
        let slot = cold.ipid_per_dst.entry(dst).or_insert(IpidSlot { counter: start, tick });
        let id = slot.counter;
        slot.counter = slot.counter.wrapping_add(1);
        slot.tick = tick;
        cold.ipid_lru.push_back((tick, dst));
        let cap = cold.profile.ipid_cache_cap.max(1);
        if cold.ipid_per_dst.len() > cap {
            while let Some((t, addr)) = cold.ipid_lru.pop_front() {
                if cold.ipid_per_dst.get(&addr).is_some_and(|s| s.tick == t) {
                    cold.ipid_per_dst.remove(&addr);
                    cold.ipid_evictions += 1;
                    break;
                }
            }
        }
        // Compact the lazily-cleaned queue before stale entries dominate.
        if cold.ipid_lru.len() > 2 * cap + 64 {
            let map = &cold.ipid_per_dst;
            cold.ipid_lru.retain(|(t, addr)| map.get(addr).is_some_and(|s| s.tick == *t));
        }
        id
    }

    /// Destinations currently tracked by the per-destination IPID table.
    pub fn ipid_tracked_destinations(&self) -> usize {
        self.cold.ipid_per_dst.len()
    }

    /// IPID counters evicted past [`OsProfile::ipid_cache_cap`].
    pub fn ipid_evictions(&self) -> u64 {
        self.cold.ipid_evictions
    }

    /// Encodes and (if needed) fragments a UDP datagram for the wire,
    /// honouring the cached path MTU towards `dst`.
    pub fn send_udp<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        dgram: &UdpDatagram,
        rng: &mut R,
    ) -> Vec<Ipv4Packet> {
        // simlint: allow(hot-alloc) — convenience wrapper for tests and
        // examples; the dispatch loop uses `send_udp_into` with scratch.
        let mut out = Vec::new();
        self.send_udp_into(now, src, dst, dgram, rng, &mut out);
        out
    }

    /// [`NetStack::send_udp`] into a caller-supplied buffer (appended):
    /// the simulator reuses one buffer across sends, so the steady-state
    /// send path allocates only the wire bytes themselves.
    pub fn send_udp_into<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        dgram: &UdpDatagram,
        rng: &mut R,
        out: &mut Vec<Ipv4Packet>,
    ) {
        let Ok(udp_bytes) = dgram.encode(src, dst) else {
            return;
        };
        let id = self.next_ipid(dst, rng);
        let pkt = Ipv4Packet::udp(src, dst, id, udp_bytes);
        // `pmtu_used` is monotonic: until the first frag-needed arrives the
        // PMTU cache is empty and the interface MTU applies, without
        // touching the cold half at all.
        let mtu = if self.hot.pmtu_used {
            self.cold.pmtu.mtu_towards(now, dst, self.hot.interface_mtu)
        } else {
            self.hot.interface_mtu
        };
        let _ = fragment_into(pkt, mtu, out);
    }

    /// Processes an arriving packet: filters fragments per policy,
    /// reassembles, verifies UDP checksums, applies PMTUD updates.
    /// Returns what should be handed to the host, if anything.
    ///
    /// Takes the packet by value: the stack owns it from here (the
    /// zero-clone delivery path), storing fragments and slicing payloads
    /// out of the packet's shared buffer instead of copying.
    pub fn receive(&mut self, now: SimTime, pkt: Ipv4Packet) -> Option<StackOutput> {
        let mut scratch = DropCounts::default();
        match self.receive_counted(now, pkt, &mut scratch) {
            ReceiveOutcome::Delivered { output, .. } => Some(output),
            ReceiveOutcome::Pending | ReceiveOutcome::Dropped(_) => None,
        }
    }

    /// [`NetStack::receive`] with the explained outcome: every discarded
    /// packet names a [`DropReason`], counted both in this host's
    /// [`NetStack::drop_counts`] and in the caller's `global` aggregate
    /// (the simulator passes [`SimStats::drops`], keeping the aggregate
    /// incremental — no per-snapshot re-summing).
    pub fn receive_counted(
        &mut self,
        now: SimTime,
        pkt: Ipv4Packet,
        global: &mut DropCounts,
    ) -> ReceiveOutcome {
        let mut reassembled = false;
        let complete = if pkt.is_fragment() {
            if !self.hot.accept_fragments {
                return self.count_drop(global, DropReason::NoFragSupport);
            }
            // Size filtering applies to non-final fragments: a datagram's
            // last fragment is legitimately small, but a small *leading*
            // fragment is the signature of the tiny-fragment attacks that
            // filtering resolvers (Table V) drop.
            if pkt.more_fragments && pkt.wire_len() < usize::from(self.hot.min_fragment_size) {
                return self.count_drop(global, DropReason::TinyFragment);
            }
            match self.defrag_insert(now, pkt, global) {
                FragInsert::Passthrough(p) => p,
                FragInsert::Reassembled(p) => {
                    reassembled = true;
                    p
                }
                FragInsert::Stored => return ReceiveOutcome::Pending,
                FragInsert::CapFull => return self.count_drop(global, DropReason::DefragCapFull),
                FragInsert::Duplicate => {
                    return self.count_drop(global, DropReason::DuplicateFragment)
                }
            }
        } else if self.hot.frag_pending {
            // Pending reassemblies: route through the cache so expiry runs
            // and the flag refreshes. Non-fragments always pass through.
            match self.defrag_insert(now, pkt, global) {
                FragInsert::Passthrough(p) => p,
                _ => unreachable!("non-fragments pass through the defrag cache"),
            }
        } else {
            // Fast path for the common case: an unfragmented packet with an
            // idle defrag cache passes straight through. Nothing can be
            // pending (the flag is refreshed on every cache touch) and an
            // empty cache has nothing to expire, so skipping it is
            // behaviourally identical — and skips the cold half entirely.
            pkt
        };
        match complete.protocol {
            PROTO_UDP => {
                match UdpDatagram::decode_bytes(&complete.payload, complete.src, complete.dst) {
                    Ok(dgram) => ReceiveOutcome::Delivered {
                        output: StackOutput::Udp(Datagram {
                            src: complete.src,
                            dst: complete.dst,
                            src_port: dgram.src_port,
                            dst_port: dgram.dst_port,
                            payload: dgram.payload,
                        }),
                        reassembled,
                    },
                    Err(err) => self.count_drop(global, verify_drop_reason(&err)),
                }
            }
            PROTO_ICMP => match IcmpMessage::decode(&complete.payload) {
                Ok(msg) => {
                    if let IcmpMessage::FragmentationNeeded { mtu, original } = &msg {
                        self.apply_frag_needed(now, complete.dst, *mtu, original);
                    }
                    ReceiveOutcome::Delivered {
                        output: StackOutput::Icmp { from: complete.src, msg },
                        reassembled,
                    }
                }
                Err(_) => self.count_drop(global, DropReason::IcmpMalformed),
            },
            _ => self.count_drop(global, DropReason::UnknownProtocol),
        }
    }

    /// This host's drop taxonomy so far.
    pub fn drop_counts(&self) -> &DropCounts {
        &self.cold.drops
    }

    /// Counts a drop per host and in the caller's aggregate.
    #[inline]
    fn count_drop(&mut self, global: &mut DropCounts, reason: DropReason) -> ReceiveOutcome {
        self.cold.drops.bump(reason);
        global.bump(reason);
        ReceiveOutcome::Dropped(reason)
    }

    /// Routes a packet through the defrag cache and refreshes the hot-side
    /// pending flag from the cache's state afterwards. Reassembly entries
    /// expired by the cache's lazy garbage collection are counted as
    /// [`DropReason::DefragExpired`] here — the one drop that happens
    /// without an arriving packet of its own.
    fn defrag_insert(
        &mut self,
        now: SimTime,
        pkt: Ipv4Packet,
        global: &mut DropCounts,
    ) -> FragInsert {
        let (out, expired) = self.cold.defrag.insert_explained(now, pkt);
        self.hot.frag_pending = self.cold.defrag.pending_reassemblies() > 0;
        if expired > 0 {
            self.cold.drops.add(DropReason::DefragExpired, expired as u64);
            global.add(DropReason::DefragExpired, expired as u64);
        }
        out
    }

    /// Updates the path-MTU cache from an ICMP frag-needed whose embedded
    /// original header claims this host (`self_addr`) sent a packet that did
    /// not fit. Plausibility check: embedded src must equal this host.
    fn apply_frag_needed(&mut self, now: SimTime, self_addr: Ipv4Addr, mtu: u16, original: &Bytes) {
        if original.len() < IPV4_HEADER_LEN {
            return;
        }
        let Ok(embedded) = Ipv4Packet::decode(original) else {
            // Embedded header may be a bare 20-byte header without payload;
            // Ipv4Packet::decode requires total_len <= buffer, so craft a
            // lenient parse of just src/dst.
            let src = Ipv4Addr::new(original[12], original[13], original[14], original[15]);
            let dst = Ipv4Addr::new(original[16], original[17], original[18], original[19]);
            if src == self_addr {
                self.hot.pmtu_used = true;
                let cold = &mut *self.cold;
                cold.pmtu.on_frag_needed(now, dst, mtu, &cold.profile.pmtud);
            }
            return;
        };
        if embedded.src == self_addr {
            self.hot.pmtu_used = true;
            let cold = &mut *self.cold;
            cold.pmtu.on_frag_needed(now, embedded.dst, mtu, &cold.profile.pmtud);
        }
    }

    /// Current effective MTU towards `dst` (testing / introspection).
    pub fn mtu_towards(&mut self, now: SimTime, dst: Ipv4Addr) -> u16 {
        self.cold.pmtu.mtu_towards(now, dst, self.hot.interface_mtu)
    }

    /// Access the defragmentation cache (testing / introspection).
    pub fn defrag(&self) -> &DefragCache {
        &self.cold.defrag
    }
}

/// Deferred effects a host requests during a callback.
///
/// The payload-bearing variants are boxed so the enum stays hot-path
/// small (≤ 32 B asserted below): `apply_actions` drains a `Vec<Action>`
/// per event, and small variants keep that traffic in a couple of cache
/// lines. The boxes for the common sends are recycled via [`BoxPool`].
#[derive(Debug)]
enum Action {
    SendUdp { dst: Ipv4Addr, dgram: Box<UdpDatagram> },
    SendIcmp { dst: Ipv4Addr, msg: Box<IcmpMessage> },
    SendRaw(Box<Ipv4Packet>),
    SetTimer { at: SimTime, token: TimerToken },
}

// The dispatch enums ride the hottest loops in the workspace; keep them
// small enough that moving one is a couple of register pairs.
const _: () = assert!(std::mem::size_of::<Action>() <= 32, "Action grew past 32 bytes");
const _: () = assert!(std::mem::size_of::<EventKind>() <= 32, "EventKind grew past 32 bytes");

/// Recycled `Box` allocations for the boxed hot-enum variants: a delivered
/// packet's box is reused for the next transmitted one, so boxing the
/// variants costs no steady-state allocation.
#[derive(Debug, Default)]
// The boxes ARE the resource being pooled: each retained `Box` is a live
// allocation waiting to carry the next event, so `Vec<Box<_>>` is exactly
// right here despite the usual lint.
#[allow(clippy::vec_box)]
struct BoxPool {
    pkts: Vec<Box<Ipv4Packet>>,
    dgrams: Vec<Box<UdpDatagram>>,
}

/// Upper bound on retained boxes per kind; anything beyond the high-water
/// mark of in-flight events is just memory.
const BOX_POOL_CAP: usize = 4096;

fn blank_pkt() -> Ipv4Packet {
    Ipv4Packet::udp(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 0, Bytes::new())
}

fn blank_dgram() -> UdpDatagram {
    UdpDatagram::new(0, 0, Bytes::new())
}

impl BoxPool {
    /// Boxes `pkt`, reusing a recycled box when one is available.
    #[inline]
    fn pkt(&mut self, pkt: Ipv4Packet) -> Box<Ipv4Packet> {
        match self.pkts.pop() {
            Some(mut b) => {
                *b = pkt;
                b
            }
            // simlint: allow(hot-alloc) — pool miss: first few sends only,
            // then every box recirculates.
            None => Box::new(pkt),
        }
    }

    /// Boxes `dgram`, reusing a recycled box when one is available.
    #[inline]
    fn dgram(&mut self, dgram: UdpDatagram) -> Box<UdpDatagram> {
        match self.dgrams.pop() {
            Some(mut b) => {
                *b = dgram;
                b
            }
            // simlint: allow(hot-alloc) — pool miss: first few sends only,
            // then every box recirculates.
            None => Box::new(dgram),
        }
    }

    /// Takes the packet out of its box and parks the box for reuse.
    #[inline]
    fn unbox_pkt(&mut self, mut b: Box<Ipv4Packet>) -> Ipv4Packet {
        let pkt = std::mem::replace(&mut *b, blank_pkt());
        if self.pkts.len() < BOX_POOL_CAP {
            self.pkts.push(b);
        }
        pkt
    }

    /// Takes the datagram out of its box and parks the box for reuse.
    #[inline]
    fn unbox_dgram(&mut self, mut b: Box<UdpDatagram>) -> UdpDatagram {
        let dgram = std::mem::replace(&mut *b, blank_dgram());
        if self.dgrams.len() < BOX_POOL_CAP {
            self.dgrams.push(b);
        }
        dgram
    }
}

/// The capability handle hosts use inside callbacks.
pub struct Ctx<'a> {
    now: SimTime,
    addr: Ipv4Addr,
    rng: &'a mut SmallRng,
    actions: &'a mut Vec<Action>,
    boxes: &'a mut BoxPool,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends a UDP datagram from this host (fragmented per the stack's path
    /// MTU towards `dst`).
    pub fn send_udp(&mut self, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: Bytes) {
        let dgram = self.boxes.dgram(UdpDatagram::new(src_port, dst_port, payload));
        self.actions.push(Action::SendUdp { dst, dgram });
    }

    /// Sends an ICMP message from this host.
    pub fn send_icmp(&mut self, dst: Ipv4Addr, msg: IcmpMessage) {
        // simlint: allow(hot-alloc) — ICMP is the rare error path (frag
        // needed, port unreachable), not the per-event datagram path.
        self.actions.push(Action::SendIcmp { dst, msg: Box::new(msg) });
    }

    /// Injects a raw, fully-formed IPv4 packet (or fragment). The packet's
    /// `src` field may be spoofed; physical transit still originates at this
    /// host, so link latency/loss are those of this host's path to
    /// `pkt.dst`.
    pub fn send_raw(&mut self, pkt: Ipv4Packet) {
        let pkt = self.boxes.pkt(pkt);
        self.actions.push(Action::SendRaw(pkt));
    }

    /// Sends a UDP datagram with a **spoofed source address**: the UDP
    /// checksum is computed over the spoofed pseudo-header so the victim's
    /// stack accepts it. Used for the rate-limit abuse of §IV-B2.
    pub fn send_udp_spoofed(
        &mut self,
        spoofed_src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) {
        let dgram = UdpDatagram::new(src_port, dst_port, payload);
        if let Ok(bytes) = dgram.encode(spoofed_src, dst) {
            let id = self.rng.random();
            let pkt = self.boxes.pkt(Ipv4Packet::udp(spoofed_src, dst, id, bytes));
            self.actions.push(Action::SendRaw(pkt));
        }
    }

    /// Arms a one-shot timer `delay` from now; `token` is returned in
    /// [`Host::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer { at: self.now + delay, token });
    }
}

/// Aggregate counters, useful for assertions in tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// IPv4 packets (incl. fragments) put on the wire.
    pub packets_sent: u64,
    /// Packets dropped by link loss.
    pub packets_lost: u64,
    /// Packets that arrived at a registered host.
    pub packets_delivered: u64,
    /// Packets addressed to nobody.
    pub packets_unrouted: u64,
    /// Complete UDP datagrams handed to hosts.
    pub datagrams_delivered: u64,
    /// Datagrams dropped for failing the UDP checksum or filters.
    pub datagrams_dropped: u64,
    /// Exhaustive per-reason drop taxonomy, aggregated incrementally over
    /// all host stacks (each host also keeps its own copy, see
    /// [`NetStack::drop_counts`]). No receive-path branch discards a packet
    /// without naming a reason here.
    pub drops: DropCounts,
    /// Timer firings.
    pub timers_fired: u64,
    /// Events dispatched by the loop (arrivals + timers + starts).
    pub events_dispatched: u64,
    /// Per-destination IPID counters evicted past the cache cap, summed
    /// over all host stacks.
    pub ipid_evictions: u64,
    /// High-water mark of the event queue (scheduled, not yet dispatched).
    pub peak_queue_depth: u64,
    /// Buffer-pool serves that avoided a heap allocation (inline storage
    /// or a recycled backing store), read from the thread-local `bytes`
    /// pool. [`Simulator::new`] resets the pool, so this is a pure
    /// function of the simulation (same for any worker count).
    pub pool_hits: u64,
    /// Buffer-pool serves that had to allocate a fresh backing store.
    pub pool_misses: u64,
}

/// The payload-bearing `Arrival` variant boxes its packet (recycled via
/// [`BoxPool`]) so the enum stays within 32 bytes — events are memcpy'd
/// through the timing wheel's cascade, and small events keep that cheap.
#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    Start {
        host: HostId,
    },
    Arrival {
        /// Destination resolved at transmit time; `None` when the address
        /// had no registered host yet (re-resolved once at delivery).
        dst: Option<HostId>,
        pkt: Box<Ipv4Packet>,
    },
    Timer {
        host: HostId,
        token: TimerToken,
    },
}

/// One slab slot: a host, its stack, and the address they answer to.
/// Slots pack the per-event scalar state contiguously (see [`NetStack`]);
/// the 48-B budget is asserted next to `StackHot`.
struct HostSlot {
    addr: Ipv4Addr,
    host: Box<dyn Host>,
    stack: NetStack,
}

// Ripple asserts down the move path: a `Datagram` is cloned into host
// callbacks and the packet/datagram structs move wire → stack → host, so
// the `Bytes` diet (72 → 24 B) must show up here too or it bought nothing.
const _: () = assert!(std::mem::size_of::<Datagram>() <= 40, "Datagram grew past 40 bytes");

/// The deterministic discrete-event simulator.
///
/// ```
/// use netsim::prelude::*;
///
/// struct Echo;
/// impl Host for Echo {
///     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
///         ctx.send_udp(d.src, d.dst_port, d.src_port, d.payload.clone());
///     }
/// }
///
/// let mut sim = Simulator::new(7);
/// sim.add_host("10.0.0.1".parse().unwrap(), OsProfile::linux(), Box::new(Echo)).unwrap();
/// sim.run_for(SimDuration::from_secs(1));
/// ```
pub struct Simulator {
    now: SimTime,
    queue: TimingWheel<EventKind>,
    slots: Vec<HostSlot>,
    addr_to_id: FastMap<Ipv4Addr, HostId>,
    topology: Topology,
    rng: SmallRng,
    stats: SimStats,
    /// Reusable action buffer handed to host callbacks (no per-event
    /// allocation on the dispatch path).
    scratch: Vec<Action>,
    /// Reusable fragment buffer for the send path (no per-send allocation).
    pkt_scratch: Vec<Ipv4Packet>,
    /// Scratch ring for batched dispatch: a whole same-instant wheel run is
    /// drained here, then dispatched front to back.
    batch: Vec<EventKind>,
    /// Events drained into `batch` but not yet dispatched; they still count
    /// as "scheduled, not dispatched" for [`SimStats::peak_queue_depth`].
    batch_pending: u64,
    /// Batched slot-drain dispatch on (default) or the one-event-at-a-time
    /// reference loop (kept for the differential test suite).
    batched: bool,
    /// Recycled boxes for the boxed `Action`/`EventKind` variants.
    boxes: BoxPool,
    /// Per-origin last-destination cache, indexed by sender [`HostId`]:
    /// the address the host last sent to and the id it resolved to. Hosts
    /// overwhelmingly re-send to one peer (a forwarder's next hop, a
    /// stub's resolver, the resolver's nameserver), so this turns the
    /// per-send address lookup into an indexed compare. Safe because the
    /// address table is insert-only — a resolved id never goes stale.
    route_cache: Vec<(Ipv4Addr, HostId)>,
    max_events: u64,
    /// The flight recorder, compiled in only under the `trace` feature:
    /// the default build carries no ring and no stores.
    #[cfg(feature = "trace")]
    recorder: obs::FlightRecorder,
}

impl Simulator {
    /// Creates a simulator with a deterministic RNG seed and a uniform WAN
    /// topology.
    ///
    /// Resets the thread-local `bytes` buffer pool: allocation behaviour —
    /// and the [`SimStats::pool_hits`]/[`SimStats::pool_misses`] counters —
    /// then depend only on this simulation, never on what ran earlier on
    /// the thread (the determinism contract for worker-count-independent
    /// sweeps).
    pub fn new(seed: u64) -> Self {
        bytes::pool::reset();
        Simulator {
            now: SimTime::ZERO,
            queue: TimingWheel::new(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            slots: Vec::new(),
            addr_to_id: FastMap::default(),
            topology: Topology::default(),
            rng: SmallRng::seed_from_u64(seed),
            stats: SimStats::default(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            scratch: Vec::new(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            pkt_scratch: Vec::new(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            batch: Vec::new(),
            batch_pending: 0,
            batched: true,
            boxes: BoxPool::default(),
            // simlint: allow(hot-alloc) — cold constructor: empty.
            route_cache: Vec::new(),
            max_events: u64::MAX,
            // simlint: allow(hot-alloc) — cold constructor: the ring is
            // allocated once here so recording never allocates.
            #[cfg(feature = "trace")]
            recorder: obs::FlightRecorder::new(obs::DEFAULT_CAPACITY),
        }
    }

    /// Creates a simulator with an explicit topology.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        Simulator { topology, ..Simulator::new(seed) }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate counters. IPID evictions and the drop taxonomy are
    /// aggregated incrementally at their source sites, so a snapshot is
    /// O(1) in the host count; the buffer-pool counters are read from the
    /// thread-local `bytes` pool, which [`Simulator::new`] reset — they
    /// cover allocations made on this thread since this simulator was
    /// built (valid for the most recently constructed simulator on the
    /// thread, i.e. every sweep and test in this workspace).
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        let pool = bytes::pool::stats();
        stats.pool_hits = pool.freelist_hits + pool.inline_hits;
        stats.pool_misses = pool.misses;
        stats
    }

    /// Records a trace event stamped with the current simulated time.
    /// Compiles to nothing without the `trace` feature.
    #[cfg(feature = "trace")]
    #[inline]
    fn trace(&mut self, host: u32, kind: u16, a: u64, b: u64) {
        self.recorder.record(self.now.as_nanos(), host, kind, a, b);
    }

    /// Application-layer trace note (e.g. [`obs::kind::CACHE_POISONED`],
    /// [`obs::kind::NTP_SHIFTED`] from the scenario layer): always
    /// callable, recorded only when the `trace` feature is compiled in.
    /// Stamped with the current simulated time and no host context.
    pub fn note_trace(&mut self, kind: u16, a: u64, b: u64) {
        #[cfg(feature = "trace")]
        self.trace(obs::TraceEvent::NO_HOST, kind, a, b);
        #[cfg(not(feature = "trace"))]
        let _ = (kind, a, b);
    }

    /// The flight recorder (`trace` builds only).
    #[cfg(feature = "trace")]
    pub fn recorder(&self) -> &obs::FlightRecorder {
        &self.recorder
    }

    /// FNV digest of the recorded trace stream (`trace` builds only):
    /// deterministic simulations pin this bit for bit.
    #[cfg(feature = "trace")]
    pub fn trace_digest(&self) -> u64 {
        self.recorder.digest()
    }

    /// Caps how many events any run method may dispatch over the whole
    /// simulation. [`Simulator::run_to_completion`] errors on overrun;
    /// [`Simulator::run_until`] / [`Simulator::run_for`] stop dispatching
    /// (check [`Simulator::event_budget_exhausted`]). Guards against hosts
    /// with self-rearming timers hanging the process. Default: unlimited.
    pub fn set_event_budget(&mut self, max_events: u64) {
        self.max_events = max_events;
    }

    /// Whether the event budget has been used up.
    pub fn event_budget_exhausted(&self) -> bool {
        self.stats.events_dispatched >= self.max_events
    }

    /// Mutable access to the topology (links can change mid-simulation).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Pre-sizes the host slab and address interner for `additional` more
    /// hosts, so bulk registration (population builders, benches) never
    /// rehashes or regrows mid-setup.
    pub fn reserve_hosts(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.addr_to_id.reserve(additional);
        self.route_cache.reserve(additional);
    }

    /// Registers a host at `addr` with the given OS profile and returns its
    /// dense [`HostId`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateAddress`] if the address is taken.
    pub fn add_host(
        &mut self,
        addr: Ipv4Addr,
        profile: OsProfile,
        host: Box<dyn Host>,
    ) -> Result<HostId, SimError> {
        if self.addr_to_id.contains_key(&addr) {
            return Err(SimError::DuplicateAddress { addr });
        }
        let id = HostId(u32::try_from(self.slots.len()).expect("fewer than 2^32 hosts"));
        self.addr_to_id.insert(addr, id);
        self.slots.push(HostSlot { addr, host, stack: NetStack::new(profile) });
        // Seed the route cache with a self-entry: valid (the address is
        // registered) and overwritten by the first real send.
        self.route_cache.push((addr, id));
        let at = self.now;
        self.push_event(at, EventKind::Start { host: id });
        Ok(id)
    }

    /// The dense id assigned to `addr`, if a host is registered there.
    pub fn host_id(&self, addr: Ipv4Addr) -> Option<HostId> {
        self.addr_to_id.get(&addr).copied()
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.slots.len()
    }

    /// Immutable, downcast access to a host (after or during a run).
    pub fn host<T: Host>(&self, addr: Ipv4Addr) -> Option<&T> {
        let id = self.host_id(addr)?;
        (self.slots[id.index()].host.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable, downcast access to a host.
    pub fn host_mut<T: Host>(&mut self, addr: Ipv4Addr) -> Option<&mut T> {
        let id = self.host_id(addr)?;
        (self.slots[id.index()].host.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Access a host's network stack (introspection in tests).
    pub fn stack(&self, addr: Ipv4Addr) -> Option<&NetStack> {
        let id = self.host_id(addr)?;
        Some(&self.slots[id.index()].stack)
    }

    /// Runs until the event queue is exhausted, `deadline` is reached, or
    /// the event budget runs out; `now` afterwards equals `deadline` even
    /// in the budget-exhausted case, so time-polling loops (step to
    /// `deadline`, check a predicate, repeat) still terminate. Events left
    /// queued by an exhausted budget dispatch on a later run (after
    /// raising the budget) without moving time backwards.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.drain_until(deadline);
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Dispatches queued events up to `deadline` within the event budget,
    /// leaving `now` at the last dispatched event.
    ///
    /// Batched mode drains each same-instant wheel run into a scratch ring
    /// in one motion and dispatches it front to back, so the loop crosses
    /// the wheel once per *instant* instead of once per event and
    /// consecutive events for the same host hit a slab slot that is still
    /// cache-resident. The dispatch order is identical to the reference
    /// loop below: a run is complete when drained (every queued event at
    /// that instant is in the wheel's ready run — see
    /// [`TimingWheel::pop_run_into`]), and anything a handler schedules
    /// carries a later `(at, seq)` key, so it lands after the run.
    fn drain_until(&mut self, deadline: SimTime) {
        if !self.batched {
            // Reference loop: one wheel pop per event. The differential
            // suite pins batched dispatch to this order bit for bit.
            while let Some(at) = self.queue.peek() {
                if at > deadline || self.stats.events_dispatched >= self.max_events {
                    break;
                }
                let (at, kind) = self.queue.pop().expect("peeked event exists");
                self.now = self.now.max(at);
                self.dispatch(kind);
            }
            return;
        }
        loop {
            let remaining = self.max_events.saturating_sub(self.stats.events_dispatched);
            if remaining == 0 {
                break;
            }
            let limit = usize::try_from(remaining).unwrap_or(usize::MAX);
            let mut batch = std::mem::take(&mut self.batch);
            debug_assert!(batch.is_empty());
            let run_at = self.queue.pop_run_into(deadline, limit, &mut batch);
            let Some(at) = run_at else {
                self.batch = batch;
                break;
            };
            self.now = self.now.max(at);
            self.batch_pending = batch.len() as u64;
            for kind in batch.drain(..) {
                self.batch_pending -= 1;
                self.dispatch(kind);
            }
            self.batch = batch;
        }
    }

    /// Selects batched (default) or one-event-at-a-time dispatch. Both
    /// produce bit-identical event order, stats, and RNG consumption; the
    /// reference loop exists so tests can prove exactly that.
    pub fn set_batched_dispatch(&mut self, batched: bool) {
        self.batched = batched;
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Processes every queued event regardless of time. `now` rests at the
    /// last dispatched event (it does not jump to [`SimTime::MAX`]), so a
    /// budget-exhausted simulation can be resumed with a raised budget and
    /// an intact clock.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExceeded`] if a budget set via
    /// [`Simulator::set_event_budget`] runs out with events still queued —
    /// the guard that keeps a host with a self-rearming timer from hanging
    /// the process. Without a budget the queue must be finite.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        self.drain_until(SimTime::MAX);
        if !self.queue.is_empty() && self.event_budget_exhausted() {
            return Err(SimError::EventBudgetExceeded { max_events: self.max_events });
        }
        Ok(())
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.queue.schedule(at, kind);
        // Count events drained into the batch ring but not yet dispatched,
        // so the high-water mark is identical in both dispatch modes.
        let depth = self.queue.len() as u64 + self.batch_pending;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(depth);
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.stats.events_dispatched += 1;
        match kind {
            EventKind::Start { host } => self.call_host(host, HostInput::Start),
            EventKind::Timer { host, token } => {
                self.stats.timers_fired += 1;
                self.call_host(host, HostInput::Timer(token));
            }
            EventKind::Arrival { dst, pkt } => {
                // Reclaim the event's box first: the packet rides on as a
                // plain value (move-delivery), the box serves the next send.
                let pkt = self.boxes.unbox_pkt(pkt);
                // Transmit-time resolution covers the common case; a packet
                // in flight towards a host registered after transmission
                // resolves here instead.
                let Some(id) = dst.or_else(|| self.host_id(pkt.dst)) else {
                    self.stats.packets_unrouted += 1;
                    return;
                };
                self.stats.packets_delivered += 1;
                // Raw tap first: attacker-style hosts observe headers.
                // `Ctx` split-borrows the scratch buffers in place; only
                // the action vec (three words) moves out for the apply
                // step, which needs `&mut self` again.
                let consumed = {
                    let slot = &mut self.slots[id.index()];
                    let mut ctx = Ctx {
                        now: self.now,
                        addr: slot.addr,
                        rng: &mut self.rng,
                        actions: &mut self.scratch,
                        boxes: &mut self.boxes,
                    };
                    slot.host.on_raw_packet(&mut ctx, &pkt)
                };
                if !self.scratch.is_empty() {
                    let mut actions = std::mem::take(&mut self.scratch);
                    self.apply_actions(id, &mut actions);
                    self.scratch = actions;
                }
                if consumed {
                    return;
                }
                // The stack takes ownership of the packet from here
                // (move-delivery: no clone between wire and host).
                let non_final = pkt.is_fragment() && pkt.more_fragments;
                #[cfg(feature = "trace")]
                let frag_info =
                    pkt.is_fragment().then(|| (u64::from(pkt.id), u64::from(pkt.frag_offset)));
                #[cfg(feature = "trace")]
                let expired_before = self.stats.drops.defrag_expired;
                let outcome = {
                    let slot = &mut self.slots[id.index()];
                    slot.stack.receive_counted(self.now, pkt, &mut self.stats.drops)
                };
                #[cfg(feature = "trace")]
                {
                    if let Some((ipid, offset)) = frag_info {
                        self.trace(id.0, obs::kind::FRAG_RX, ipid, offset);
                    }
                    let expired = self.stats.drops.defrag_expired - expired_before;
                    if expired > 0 {
                        self.trace(id.0, obs::kind::FRAG_EXPIRED, expired, 0);
                    }
                    match &outcome {
                        ReceiveOutcome::Delivered { output, reassembled } => {
                            if *reassembled {
                                let len = match output {
                                    StackOutput::Udp(d) => d.payload.len() as u64,
                                    StackOutput::Icmp { .. } => 0,
                                };
                                let ipid = frag_info.map_or(0, |(ipid, _)| ipid);
                                self.trace(id.0, obs::kind::FRAG_REASSEMBLED, ipid, len);
                            }
                            if let StackOutput::Udp(d) = output {
                                let port = u64::from(d.dst_port);
                                self.trace(id.0, obs::kind::UDP_VERIFY_OK, port, 0);
                            }
                        }
                        ReceiveOutcome::Dropped(reason) => {
                            let kind = if reason.is_verify() {
                                obs::kind::UDP_VERIFY_FAIL
                            } else {
                                obs::kind::DROP
                            };
                            self.trace(id.0, kind, u64::from(reason.code()), 0);
                        }
                        ReceiveOutcome::Pending => {}
                    }
                }
                match outcome {
                    ReceiveOutcome::Delivered { output: StackOutput::Udp(dgram), .. } => {
                        self.stats.datagrams_delivered += 1;
                        self.call_host(id, HostInput::Datagram(dgram));
                    }
                    ReceiveOutcome::Delivered {
                        output: StackOutput::Icmp { from, msg }, ..
                    } => {
                        self.call_host(id, HostInput::Icmp(from, msg));
                    }
                    ReceiveOutcome::Pending | ReceiveOutcome::Dropped(_) => {
                        // A fragment that parked in the cache awaiting its
                        // siblings is not a lost datagram; anything else
                        // that produced no output is.
                        if !non_final {
                            self.stats.datagrams_dropped += 1;
                        }
                    }
                }
            }
        }
    }

    fn call_host(&mut self, id: HostId, input: HostInput) {
        // Split-borrow, not `mem::take`: the host callback runs against
        // the scratch buffers in place, and only the action vec (three
        // words) is moved out for the apply step afterwards.
        {
            let slot = &mut self.slots[id.index()];
            let mut ctx = Ctx {
                now: self.now,
                addr: slot.addr,
                rng: &mut self.rng,
                actions: &mut self.scratch,
                boxes: &mut self.boxes,
            };
            match input {
                HostInput::Start => slot.host.on_start(&mut ctx),
                HostInput::Datagram(d) => slot.host.on_datagram(&mut ctx, &d),
                HostInput::Icmp(from, msg) => slot.host.on_icmp(&mut ctx, from, &msg),
                HostInput::Timer(token) => slot.host.on_timer(&mut ctx, token),
            }
        }
        if !self.scratch.is_empty() {
            let mut actions = std::mem::take(&mut self.scratch);
            self.apply_actions(id, &mut actions);
            self.scratch = actions;
        }
    }

    /// Drains `actions`, leaving the buffer empty (ready for reuse).
    fn apply_actions(&mut self, origin: HostId, actions: &mut Vec<Action>) {
        let origin_addr = self.slots[origin.index()].addr;
        for action in actions.drain(..) {
            match action {
                Action::SendUdp { dst, dgram } => {
                    let mut pkts = std::mem::take(&mut self.pkt_scratch);
                    {
                        // IPID assignment (inside `send_udp_into`) may evict
                        // a per-destination counter; fold the delta into the
                        // aggregate here so stats snapshots never re-sum the
                        // slab (O(1) in the host count).
                        let slot = &mut self.slots[origin.index()];
                        let evictions_before = slot.stack.ipid_evictions();
                        slot.stack.send_udp_into(
                            self.now,
                            origin_addr,
                            dst,
                            &dgram,
                            &mut self.rng,
                            &mut pkts,
                        );
                        self.stats.ipid_evictions += slot.stack.ipid_evictions() - evictions_before;
                    }
                    // The datagram (and its payload reference) drops here;
                    // the box goes back to the pool for the next send.
                    drop(self.boxes.unbox_dgram(dgram));
                    for pkt in pkts.drain(..) {
                        self.transmit(origin, origin_addr, pkt);
                    }
                    self.pkt_scratch = pkts;
                }
                Action::SendIcmp { dst, msg } => {
                    let id = {
                        let slot = &mut self.slots[origin.index()];
                        let evictions_before = slot.stack.ipid_evictions();
                        let id = slot.stack.next_ipid(dst, &mut self.rng);
                        self.stats.ipid_evictions += slot.stack.ipid_evictions() - evictions_before;
                        id
                    };
                    let pkt = Ipv4Packet::icmp(origin_addr, dst, id, msg.encode());
                    self.transmit(origin, origin_addr, pkt);
                }
                Action::SendRaw(pkt) => {
                    let pkt = self.boxes.unbox_pkt(pkt);
                    self.transmit(origin, origin_addr, pkt);
                }
                Action::SetTimer { at, token } => {
                    self.push_event(at, EventKind::Timer { host: origin, token });
                }
            }
        }
    }

    /// Puts a packet on the wire from the physical location `origin_addr`
    /// (the host `origin`'s interface).
    fn transmit(&mut self, origin: HostId, origin_addr: Ipv4Addr, pkt: Ipv4Packet) {
        self.stats.packets_sent += 1;
        let link = self.topology.link(origin_addr, pkt.dst);
        match link.sample(&mut self.rng) {
            Some(delay) => {
                let at = self.now + delay;
                // Destination resolution goes through the sender's
                // last-destination cache; on a miss the full lookup runs
                // and (if it resolves) refills the entry. An unregistered
                // destination is never cached — it may be registered while
                // the packet is in flight, and arrival re-resolves `None`.
                let cached = &mut self.route_cache[origin.index()];
                let dst = if cached.0 == pkt.dst {
                    Some(cached.1)
                } else {
                    let resolved = self.addr_to_id.get(&pkt.dst).copied();
                    if let Some(id) = resolved {
                        *cached = (pkt.dst, id);
                    }
                    resolved
                };
                let pkt = self.boxes.pkt(pkt);
                self.push_event(at, EventKind::Arrival { dst, pkt });
            }
            None => self.stats.packets_lost += 1,
        }
    }
}

enum HostInput {
    Start,
    Datagram(Datagram),
    Icmp(Ipv4Addr, IcmpMessage),
    Timer(TimerToken),
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("hosts", &self.slots.len())
            .field("queued_events", &self.queue.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Sends one datagram to a peer on start; records what it receives.
    struct Pinger {
        peer: Ipv4Addr,
        received: Vec<Datagram>,
    }

    impl Host for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_udp(self.peer, 1000, 2000, Bytes::from_static(b"ping"));
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
            self.received.push(d.clone());
        }
    }

    struct Echo {
        received: usize,
    }

    impl Host for Echo {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
            self.received += 1;
            ctx.send_udp(d.src, d.dst_port, d.src_port, d.payload.clone());
        }
    }

    fn two_host_sim() -> Simulator {
        let mut sim = Simulator::with_topology(
            1,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(10))),
        );
        sim.add_host(A, OsProfile::linux(), Box::new(Pinger { peer: B, received: vec![] }))
            .unwrap();
        sim.add_host(B, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = two_host_sim();
        sim.run_for(SimDuration::from_secs(1));
        let pinger: &Pinger = sim.host(A).unwrap();
        assert_eq!(pinger.received.len(), 1);
        assert_eq!(pinger.received[0].payload, Bytes::from_static(b"ping"));
        assert_eq!(pinger.received[0].src, B);
        let echo: &Echo = sim.host(B).unwrap();
        assert_eq!(echo.received, 1);
        assert_eq!(sim.stats().datagrams_delivered, 2);
    }

    #[test]
    fn latency_is_respected() {
        let mut sim = two_host_sim();
        sim.run_for(SimDuration::from_millis(9));
        let echo: &Echo = sim.host(B).unwrap();
        assert_eq!(echo.received, 0, "packet needs 10ms to arrive");
        sim.run_for(SimDuration::from_millis(2));
        let echo: &Echo = sim.host(B).unwrap();
        assert_eq!(echo.received, 1);
    }

    #[test]
    fn duplicate_address_rejected() {
        let mut sim = Simulator::new(1);
        sim.add_host(A, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
        let err = sim.add_host(A, OsProfile::linux(), Box::new(Echo { received: 0 }));
        assert!(matches!(err, Err(SimError::DuplicateAddress { .. })));
    }

    #[test]
    fn host_ids_are_dense_and_stable() {
        let mut sim = Simulator::new(1);
        let a = sim.add_host(A, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
        let b = sim.add_host(B, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(sim.host_id(A), Some(a));
        assert_eq!(sim.host_id(B), Some(b));
        assert_eq!(sim.host_id("192.0.2.1".parse().unwrap()), None);
        assert_eq!(sim.host_count(), 2);
    }

    #[test]
    fn unrouted_packets_are_counted() {
        struct Blaster;
        impl Host for Blaster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_udp("203.0.113.99".parse().unwrap(), 1, 2, Bytes::from_static(b"x"));
            }
        }
        let mut sim = Simulator::new(3);
        sim.add_host(A, OsProfile::linux(), Box::new(Blaster)).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats().packets_unrouted, 1);
    }

    #[test]
    fn packet_in_flight_reaches_late_registered_host() {
        // A packet transmitted before its destination exists resolves at
        // delivery time (transmit-time HostId resolution must not drop it).
        struct Blaster {
            peer: Ipv4Addr,
        }
        impl Host for Blaster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_udp(self.peer, 1, 2, Bytes::from_static(b"early"));
            }
        }
        let mut sim = Simulator::with_topology(
            9,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(50))),
        );
        sim.add_host(A, OsProfile::linux(), Box::new(Blaster { peer: B })).unwrap();
        // Launch the packet, then register B while it is still in flight.
        sim.run_for(SimDuration::from_millis(10));
        sim.add_host(B, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        let echo: &Echo = sim.host(B).unwrap();
        assert_eq!(echo.received, 1, "late host must still receive the packet");
        assert_eq!(sim.stats().packets_unrouted, 0);
    }

    #[test]
    fn large_datagram_fragments_and_reassembles_through_sim() {
        struct BigSender {
            peer: Ipv4Addr,
        }
        impl Host for BigSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_udp(self.peer, 1, 2, Bytes::from(vec![0x5A; 4000]));
            }
        }
        struct Sink {
            got: Option<usize>,
        }
        impl Host for Sink {
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
                self.got = Some(d.payload.len());
            }
        }
        let mut sim = Simulator::new(4);
        sim.add_host(A, OsProfile::linux(), Box::new(BigSender { peer: B })).unwrap();
        sim.add_host(B, OsProfile::linux(), Box::new(Sink { got: None })).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        // 4000 bytes over a 1500 MTU: 3 fragments on the wire.
        assert!(sim.stats().packets_sent >= 3);
        let sink: &Sink = sim.host(B).unwrap();
        assert_eq!(sink.got, Some(4000));
    }

    #[test]
    fn icmp_frag_needed_shrinks_subsequent_sends() {
        // B forges nothing here; this tests the legitimate PMTUD path:
        // A sends a big datagram, we inject frag-needed, A re-sends smaller.
        struct Repeater {
            peer: Ipv4Addr,
        }
        impl Host for Repeater {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
                ctx.send_udp(self.peer, 1, 2, Bytes::from(vec![1; 1400]));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                ctx.send_udp(self.peer, 1, 2, Bytes::from(vec![2; 1400]));
            }
        }
        struct IcmpSource {
            victim: Ipv4Addr,
            peer_of_victim: Ipv4Addr,
        }
        impl Host for IcmpSource {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Embedded original: victim -> peer.
                let original = Ipv4Packet::udp(
                    self.victim,
                    self.peer_of_victim,
                    0,
                    Bytes::from_static(&[0u8; 8]),
                )
                .encode()
                .unwrap();
                ctx.send_icmp(self.victim, IcmpMessage::FragmentationNeeded { mtu: 576, original });
            }
        }
        struct Sink {
            datagrams: usize,
        }
        impl Host for Sink {
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _d: &Datagram) {
                self.datagrams += 1;
            }
        }
        let c: Ipv4Addr = "10.0.0.3".parse().unwrap();
        let mut sim = Simulator::with_topology(
            5,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(1))),
        );
        sim.add_host(A, OsProfile::linux(), Box::new(Repeater { peer: B })).unwrap();
        sim.add_host(B, OsProfile::linux(), Box::new(Sink { datagrams: 0 })).unwrap();
        sim.add_host(c, OsProfile::linux(), Box::new(IcmpSource { victim: A, peer_of_victim: B }))
            .unwrap();
        sim.run_for(SimDuration::from_secs(3));
        let sink: &Sink = sim.host(B).unwrap();
        assert_eq!(sink.datagrams, 2, "both datagrams must arrive");
        // First send: 1 packet; second send (post-ICMP, MTU 576): 3 fragments.
        // Plus 1 ICMP packet = at least 5 on the wire.
        assert!(sim.stats().packets_sent >= 5, "stats: {:?}", sim.stats());
    }

    #[test]
    fn spoofed_udp_carries_valid_checksum_for_spoofed_src() {
        struct Spoofer {
            victim_src: Ipv4Addr,
            dst: Ipv4Addr,
        }
        impl Host for Spoofer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_udp_spoofed(
                    self.victim_src,
                    self.dst,
                    123,
                    123,
                    Bytes::from_static(b"spoof"),
                );
            }
        }
        struct Sink {
            from: Option<Ipv4Addr>,
        }
        impl Host for Sink {
            fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
                self.from = Some(d.src);
            }
        }
        let attacker: Ipv4Addr = "203.0.113.66".parse().unwrap();
        let mut sim = Simulator::new(6);
        sim.add_host(attacker, OsProfile::linux(), Box::new(Spoofer { victim_src: A, dst: B }))
            .unwrap();
        sim.add_host(B, OsProfile::linux(), Box::new(Sink { from: None })).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        let sink: &Sink = sim.host(B).unwrap();
        assert_eq!(sink.from, Some(A), "sink must see the spoofed source");
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            sim.topology_mut().set_link_bidir(A, B, LinkSpec::wan().with_loss(0.2));
            sim.add_host(A, OsProfile::linux(), Box::new(Pinger { peer: B, received: vec![] }))
                .unwrap();
            sim.add_host(B, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
            sim.run_for(SimDuration::from_secs(5));
            sim.stats()
        };
        assert_eq!(run(99), run(99));
    }

    /// Re-arms a timer on every firing: an infinite event source.
    struct Metronome;
    impl Host for Metronome {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn event_budget_stops_self_rearming_timer() {
        let mut sim = Simulator::new(8);
        sim.add_host(A, OsProfile::linux(), Box::new(Metronome)).unwrap();
        sim.set_event_budget(1000);
        let err = sim.run_to_completion();
        assert!(matches!(err, Err(SimError::EventBudgetExceeded { max_events: 1000 })), "{err:?}");
        assert!(sim.event_budget_exhausted());
        assert_eq!(sim.stats().events_dispatched, 1000);
        // The clock rests at the last dispatched event (999 timer laps of
        // 1 ms after the start event), not at SimTime::MAX, so raising the
        // budget resumes with an intact clock.
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(999));
        sim.set_event_budget(1500);
        let err = sim.run_to_completion();
        assert!(matches!(err, Err(SimError::EventBudgetExceeded { max_events: 1500 })));
        assert_eq!(sim.stats().events_dispatched, 1500);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(1499));
    }

    #[test]
    fn event_budget_allows_finite_queues() {
        let mut sim = two_host_sim();
        sim.set_event_budget(1_000_000);
        sim.run_to_completion().expect("finite queue drains under budget");
        let echo: &Echo = sim.host(B).unwrap();
        assert_eq!(echo.received, 1);
    }

    #[test]
    fn run_for_stops_at_exhausted_budget_without_error() {
        let mut sim = Simulator::new(8);
        sim.add_host(A, OsProfile::linux(), Box::new(Metronome)).unwrap();
        sim.set_event_budget(10);
        sim.run_for(SimDuration::from_secs(3600));
        assert_eq!(sim.stats().events_dispatched, 10);
        assert!(sim.event_budget_exhausted());
        // Time still advances to the deadline, so callers that poll a
        // predicate while stepping `now` towards their own deadline
        // (Scenario::run_until_condition) terminate rather than spin.
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3600));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3601));
    }

    #[test]
    fn ipid_per_dst_cache_is_bounded_with_lru_eviction() {
        let mut profile = OsProfile::linux();
        assert!(matches!(profile.ipid, IpidMode::PerDestination { .. }));
        profile.ipid_cache_cap = 8;
        let mut stack = NetStack::new(profile);
        let mut rng = SmallRng::seed_from_u64(1);
        // Spray 100 distinct destinations: the table must stay at the cap.
        for i in 0..100u32 {
            let dst = Ipv4Addr::from(0x0A00_0000 + i);
            stack.next_ipid(dst, &mut rng);
            assert!(stack.ipid_tracked_destinations() <= 8);
        }
        assert_eq!(stack.ipid_tracked_destinations(), 8);
        assert_eq!(stack.ipid_evictions(), 92);
        // LRU, not FIFO: keep destination 0 warm while spraying, and its
        // counter must survive (still incrementing from where it left off).
        let mut profile = OsProfile::linux();
        profile.ipid_cache_cap = 4;
        let mut stack = NetStack::new(profile);
        let warm = Ipv4Addr::from(0x0A00_0000u32);
        let first = stack.next_ipid(warm, &mut rng);
        for i in 1..50u32 {
            stack.next_ipid(Ipv4Addr::from(0x0A00_0000 + i), &mut rng);
            let again = stack.next_ipid(warm, &mut rng);
            assert_eq!(
                again,
                first.wrapping_add(i as u16),
                "warm destination must never be evicted"
            );
        }
    }

    #[test]
    fn hot_enums_stay_within_32_bytes() {
        // Also enforced at compile time by the static asserts next to the
        // enum definitions; this test reports the actual numbers.
        let action = std::mem::size_of::<Action>();
        let event = std::mem::size_of::<EventKind>();
        assert!(action <= 32, "Action is {action} bytes");
        assert!(event <= 32, "EventKind is {event} bytes");
    }

    /// Steady-state traffic must be served by the buffer pool: after the
    /// warmup sends, (nearly) every backing-store acquisition is an inline
    /// or freelist hit.
    #[test]
    fn steady_state_sends_hit_the_buffer_pool() {
        struct Ticker {
            peer: Ipv4Addr,
        }
        impl Host for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                // A small payload (inline) and a large one (freelist).
                ctx.send_udp(self.peer, 1, 2, Bytes::from_static(b"tick"));
                let mut big = bytes::BytesMut::with_capacity(900);
                big.resize(900, 0x5A);
                ctx.send_udp(self.peer, 3, 4, big.freeze());
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let mut sim = Simulator::with_topology(
            21,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(1))),
        );
        sim.add_host(A, OsProfile::linux(), Box::new(Ticker { peer: B })).unwrap();
        sim.add_host(B, OsProfile::linux(), Box::new(Echo { received: 0 })).unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let stats = sim.stats();
        assert!(stats.datagrams_delivered > 1000, "traffic flowed: {stats:?}");
        let served = stats.pool_hits + stats.pool_misses;
        let hit_rate = stats.pool_hits as f64 / served as f64;
        assert!(
            hit_rate >= 0.99,
            "steady state must be allocation-free: {} hits / {} misses",
            stats.pool_hits,
            stats.pool_misses
        );
    }

    #[test]
    fn ipid_evictions_surface_in_sim_stats() {
        struct Sprayer;
        impl Host for Sprayer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..20u32 {
                    ctx.send_udp(Ipv4Addr::from(0xC633_6400 + i), 1, 2, Bytes::from_static(b"x"));
                }
            }
        }
        let mut profile = OsProfile::linux();
        profile.ipid_cache_cap = 4;
        let mut sim = Simulator::new(11);
        sim.add_host(A, profile, Box::new(Sprayer)).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats().ipid_evictions, 16, "20 destinations past a cap of 4");
    }
}
