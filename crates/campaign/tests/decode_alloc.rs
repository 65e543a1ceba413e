//! Decoding a record line allocates exactly one `Vec` for the values and
//! one `String` per non-empty string value: keys are matched in place and
//! each string is copied once, into storage sized up front. A counting
//! global allocator counts the allocation calls while each real
//! quick-scale line decodes. This binary holds one test, so no other test
//! thread allocates while it counts.

mod quick_lines;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use campaign::record::{decode_line, encode_line, Record, Value};
use campaign::registry;
use quick_lines::QUICK_LINES;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, plus a count of the allocation calls (fresh or
/// resized) made while [`allocations_of`] runs.
struct Counting;

impl Counting {
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Allocation calls made while `f` runs, and its result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (CALLS.load(Ordering::SeqCst), out)
}

/// One for the values `Vec`, one per string value that holds text.
fn expected_allocations(record: &Record) -> usize {
    1 + record.0.iter().filter(|v| matches!(v, Value::Str(s) if !s.is_empty())).count()
}

#[test]
fn decode_allocates_the_values_and_each_string_once() {
    let mut pinned = Vec::new();
    for (name, line) in QUICK_LINES {
        let schema = registry::find(name).expect("registered").schema;
        let (calls, record) = allocations_of(|| decode_line(schema, line));
        let record = record.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(calls, expected_allocations(&record), "{name}: {line}");
        pinned.push((name, calls));
    }
    // The survey record holds no string; the Table II record holds four.
    assert!(pinned.contains(&("table4_snoop", 1)), "{pinned:?}");
    assert!(pinned.contains(&("table2", 5)), "{pinned:?}");

    // Null, empty and escaped strings: a null or empty one costs nothing,
    // an escaped one is still a single allocation.
    let schema = registry::find("table2").expect("registered").schema;
    let mut record = decode_line(schema, QUICK_LINES[1].1).expect("decodes");
    record.0[0] = Value::Null;
    record.0[1] = Value::Str(String::new());
    record.0[2] = Value::Str("known \"upstreams\"\n\u{1}é".into());
    let line = encode_line(schema, &record);
    assert!(line.contains(r#"\"upstreams\"\n\u0001é"#), "{line}");
    let (calls, back) = allocations_of(|| decode_line(schema, &line));
    assert_eq!(back.as_ref(), Ok(&record));
    assert_eq!(calls, 3, "{line}");
}
