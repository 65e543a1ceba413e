//! A resolver answers from its cache without touching the allocator: a
//! client asks it for a cached `pool.ntp.org` A RRset every 100 ms and
//! checks each reply with the record-span walk into a reused buffer.
//! After a warm-up, a counting global allocator counts the allocations
//! of 1,000 RD=0 (cache-only) answers, then of 1,000 RD=1 cache hits —
//! query copy, send, delivery, the resolver's in-place read and cache
//! answer, and the client's walk. A third phase asks the same RD=1
//! question through a `StubResolver`, as every NTP and Chronos client
//! does, and counts 1,000 lookups end to end. Each allocates twice, for
//! the two `Vec`s of the `DnsReply` it returns, of addresses and of TTLs:
//! the stub writes its queries through one reused `Encoder` and walks
//! each reply into one reused span buffer.
//!
//! This binary holds one test, so no other test thread allocates while
//! it counts.
//!
//! Debug builds allocate in places release builds do not, so the counts
//! are taken in release builds only (`cargo test -p dns --release`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use bytes::{Bytes, BytesMut};
use dns::message::RecordSpan;
use dns::prelude::*;
use netsim::prelude::*;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, plus a count of the allocations made while
/// [`COUNTING`] is set.
struct Counting;

impl Counting {
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` was allocated by `System` through this wrapper with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CLIENT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);
const STUB_CLIENT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 8);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
const CLIENT_PORT: u16 = 5300;
const ASK_EVERY: SimDuration = SimDuration::from_millis(100);

/// Allocations of 1,000 RD=0 cache-only answers (measured).
const RD0_ANSWERS: usize = 0;
/// Allocations of 1,000 RD=1 cache hits (measured).
const RD1_HITS: usize = 0;
/// Allocations of 1,000 RD=1 lookups through a `StubResolver` (measured).
const STUB_LOOKUPS: usize = 2_000;

/// Sends a copy of one encoded query, TXID patched in, every
/// [`ASK_EVERY`], and walks each reply into a reused span buffer.
struct Client {
    query: Bytes,
    txid: u16,
    spans: Vec<RecordSpan>,
    replies: usize,
    /// False once the stub phase takes over.
    asking: bool,
}

impl Host for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(ASK_EVERY, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if !self.asking {
            return;
        }
        self.txid = self.txid.wrapping_add(1);
        let mut wire = BytesMut::with_capacity(self.query.len());
        wire.extend_from_slice(&self.query);
        wire[..2].copy_from_slice(&self.txid.to_be_bytes());
        ctx.send_udp(RESOLVER, CLIENT_PORT, DNS_PORT, wire.freeze());
        ctx.set_timer(ASK_EVERY, 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        let view = MessageView::with_spans(&d.payload, &mut self.spans).expect("a valid reply");
        assert_eq!(view.header().id, self.txid);
        assert_eq!(self.spans.len(), 4, "the cached RRset");
        self.replies += 1;
    }
}

/// Looks `pool.ntp.org` up through a [`StubResolver`] every
/// [`ASK_EVERY`], as an NTP client does.
struct StubClient {
    stub: StubResolver,
    replies: usize,
}

impl Host for StubClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(ASK_EVERY, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.stub.query_a(ctx, &pool());
        ctx.set_timer(ASK_EVERY, 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        let reply = self.stub.handle(d).expect("a reply to a pending lookup");
        assert_eq!(reply.addrs.len(), 4, "the cached RRset");
        self.replies += 1;
    }
}

fn pool() -> Name {
    "pool.ntp.org".parse().unwrap()
}

fn query(rd: bool) -> Bytes {
    Message::query(0, pool(), RecordType::A, rd).encode().unwrap()
}

/// Runs 1,000 more exchanges, each ending in a reply that `replies`
/// counts, and returns their allocations.
fn count_thousand(sim: &mut Simulator, replies: impl Fn(&Simulator) -> usize) -> usize {
    let before = replies(sim);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_for(SimDuration::from_secs(100));
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(replies(sim) - before, 1000);
    allocations
}

#[test]
#[cfg_attr(debug_assertions, ignore = "counted in release builds only")]
fn cache_answers_do_not_allocate() {
    // Hints point nowhere: every answer must come from the cache.
    let mut resolver = Resolver::new(ResolverConfig::default(), Vec::new());
    let records = (1..=4).map(|i| Record::a(pool(), 86_400, Ipv4Addr::new(192, 0, 2, i))).collect();
    resolver.cache_mut().insert(SimTime::ZERO, pool(), RecordType::A, records);
    let client =
        Client { query: query(false), txid: 0, spans: Vec::new(), replies: 0, asking: true };
    let mut sim = Simulator::new(2020);
    sim.add_host(RESOLVER, OsProfile::linux(), Box::new(resolver)).unwrap();
    sim.add_host(CLIENT, OsProfile::linux(), Box::new(client)).unwrap();
    sim.run_for(SimDuration::from_secs(10));
    let client_replies = |sim: &Simulator| sim.host::<Client>(CLIENT).unwrap().replies;
    let rd0 = count_thousand(&mut sim, client_replies);

    sim.host_mut::<Client>(CLIENT).unwrap().query = query(true);
    sim.run_for(SimDuration::from_secs(10));
    let rd1 = count_thousand(&mut sim, client_replies);

    sim.host_mut::<Client>(CLIENT).unwrap().asking = false;
    let stub = StubClient { stub: StubResolver::new(RESOLVER, CLIENT_PORT), replies: 0 };
    sim.add_host(STUB_CLIENT, OsProfile::linux(), Box::new(stub)).unwrap();
    sim.run_for(SimDuration::from_secs(10));
    let stub_replies = |sim: &Simulator| sim.host::<StubClient>(STUB_CLIENT).unwrap().replies;
    let lookups = count_thousand(&mut sim, stub_replies);

    let stats = sim.host::<Resolver>(RESOLVER).unwrap().stats;
    assert_eq!((stats.upstream_queries, stats.servfails), (0, 0), "{stats:?}");
    eprintln!(
        "{rd0} allocations in 1,000 RD=0 answers, {rd1} in 1,000 RD=1 cache hits, \
         {lookups} in 1,000 stub lookups"
    );
    assert_eq!(
        (rd0, rd1, lookups),
        (RD0_ANSWERS, RD1_HITS, STUB_LOOKUPS),
        "allocations of (RD=0 answers, RD=1 hits, stub lookups)"
    );
}
