//! The section counts in a DNS header are the sender's: decoding must not
//! reserve memory for entries the rest of the message cannot hold. A
//! counting global allocator measures the bytes requested while a hostile
//! message decodes. This binary holds one test, so no other test thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dns::prelude::*;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, plus a count of the bytes asked for while
/// [`requested_by`] runs.
struct Counting;

impl Counting {
    fn note(&self, bytes: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            REQUESTED.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
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

/// Bytes requested from the allocator while `f` runs.
fn requested_by<T>(f: impl FnOnce() -> T) -> usize {
    REQUESTED.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    drop(out);
    REQUESTED.load(Ordering::SeqCst)
}

#[test]
fn hostile_section_counts_reserve_almost_nothing() {
    // A bare header claiming 65 535 questions.
    let mut bare = vec![0u8; 12];
    bare[4..6].copy_from_slice(&u16::MAX.to_be_bytes());
    // A valid one-question query claiming 65 535 answers.
    let query = Message::query(7, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
    let mut answers = query.encode().unwrap().to_vec();
    answers[6..8].copy_from_slice(&u16::MAX.to_be_bytes());

    for (what, data) in [("QDCOUNT", &bare), ("ANCOUNT", &answers)] {
        let bytes = requested_by(|| Message::decode(data));
        assert!(bytes < 4096, "{what} = 65535 made decode request {bytes} bytes");
        assert!(Message::decode(data).is_err());
        let bytes = requested_by(|| MessageView::new(data));
        assert!(bytes < 4096, "{what} = 65535 made the view request {bytes} bytes");
    }
}
