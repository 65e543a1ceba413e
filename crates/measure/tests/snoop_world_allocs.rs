//! A survey trial's world stays cheap to build: its constant zones and
//! names are built once per process, and building a zone derives its glue
//! once. After one warm-up trial, a counting global allocator counts the
//! allocations of 100 `scan_resolver` trials over the open-resolver
//! population at seed 2020 — world build, scan and teardown — and of one
//! 23-nameserver `pool_zone` build with its glue. This binary holds one
//! test, so no other test thread allocates while it counts.
//!
//! Debug builds check every patched nameserver reply against a full
//! encode, which allocates, so the counts are taken in release builds
//! only (`cargo test -p measure --release --test snoop_world_allocs --
//! --nocapture` prints them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dns::zone::pool_zone;
use measure::population::open_resolver_at;
use measure::prelude::*;

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

/// The allocations `f` makes.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst))
}

const TRIALS: usize = 100;
/// Allocations per survey trial, with the world's constant zones and
/// names already built (78.39 measured at seed 2020).
const PER_TRIAL_BUDGET: usize = 79;
/// Allocations of `pool_zone(8, 23)` and its glue, derived once.
const POOL_ZONE_BUDGET: usize = 70;

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds check each patch against a full encode")]
fn survey_worlds_and_pool_zones_stay_within_allocation_budgets() {
    let trial = |idx| scan_resolver(&open_resolver_at(2020, idx), scan_seed(2020, idx));
    trial(0);
    let (mut verified, mut allocations) = (0, 0);
    for idx in 1..=TRIALS {
        let (outcome, count) = allocations_of(|| trial(idx));
        verified += usize::from(outcome.verified);
        allocations += count;
    }
    assert!(verified > 0, "no resolver verified");
    let per_trial = allocations as f64 / TRIALS as f64;
    eprintln!("{per_trial:.2} allocations per survey trial");
    assert!(
        per_trial <= PER_TRIAL_BUDGET as f64,
        "{per_trial:.2} allocations per survey trial (budget {PER_TRIAL_BUDGET})"
    );

    let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    let base = Ipv4Addr::new(198, 51, 100, 1);
    let (glue, allocations) = allocations_of(|| pool_zone(servers, 23, base).glue_records().len());
    eprintln!("{allocations} allocations for pool_zone(8, 23) and its glue");
    assert_eq!(glue, 23);
    assert!(
        allocations <= POOL_ZONE_BUDGET,
        "{allocations} allocations for pool_zone(8, 23) (budget {POOL_ZONE_BUDGET})"
    );
}
