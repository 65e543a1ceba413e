//! A steady-state probe exchange touches no allocator: a prober asks a
//! pool nameserver for `pool.ntp.org` every 100 ms, as the attacker's
//! pipeline does, and checks each reply with the record-span walk into a
//! reused buffer. After a warm-up, a counting global allocator counts the
//! allocations of 1,000 exchanges — query copy, send, delivery, the
//! server's patched reply and the prober's walk. This binary holds one
//! test, so no other test thread allocates while it counts.
//!
//! Debug builds compare every patched reply against a full encode, which
//! allocates, so the count is taken in release builds only
//! (`cargo test -p dns --release`).

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

const PROBER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);
const NAMESERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const PROBE_PORT: u16 = 5399;
const PROBE_EVERY: SimDuration = SimDuration::from_millis(100);

/// Sends a copy of one encoded query, TXID patched in, every
/// [`PROBE_EVERY`], and walks each reply into a reused span buffer.
struct Prober {
    query: Bytes,
    txid: u16,
    spans: Vec<RecordSpan>,
    replies: usize,
}

impl Host for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(PROBE_EVERY, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.txid = self.txid.wrapping_add(1);
        let mut wire = BytesMut::with_capacity(self.query.len());
        wire.extend_from_slice(&self.query);
        wire[..2].copy_from_slice(&self.txid.to_be_bytes());
        ctx.send_udp(NAMESERVER, PROBE_PORT, DNS_PORT, wire.freeze());
        ctx.set_timer(PROBE_EVERY, 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: &Datagram) {
        let view = MessageView::with_spans(&d.payload, &mut self.spans).expect("a valid reply");
        assert_eq!(view.header().id, self.txid);
        assert_eq!(self.spans.len(), 4 + 23 + 23);
        self.replies += 1;
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds check each patch against a full encode")]
fn steady_state_probe_exchanges_do_not_allocate() {
    let pool: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    let server = AuthServer::new(vec![pool_zone(pool, 23, NAMESERVER)]);
    let query = Message::query(0, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
    let prober = Prober { query: query.encode().unwrap(), txid: 0, spans: Vec::new(), replies: 0 };
    let mut sim = Simulator::new(2020);
    sim.add_host(NAMESERVER, OsProfile::nameserver(548), Box::new(server)).unwrap();
    sim.add_host(PROBER, OsProfile::linux(), Box::new(prober)).unwrap();
    sim.run_for(SimDuration::from_secs(100));
    let warm = sim.host::<Prober>(PROBER).unwrap().replies;
    assert!(warm >= 990, "{warm} replies during the warm-up");

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_for(SimDuration::from_secs(100));
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    let exchanges = sim.host::<Prober>(PROBER).unwrap().replies - warm;
    assert_eq!(exchanges, 1000);
    assert!(allocations < 100, "{allocations} allocations in {exchanges} probe exchanges");
}
