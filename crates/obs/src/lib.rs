//! # obs — deterministic telemetry primitives
//!
//! The observability layer of the workspace: a fixed-capacity, pre-allocated
//! **flight recorder** of structured trace events, the shared **trace-event
//! taxonomy** ([`kind`]), and the [`console!`] funnel through which library
//! crates emit human-facing diagnostics (clippy's `print_stdout` /
//! `print_stderr` lints ban raw `println!` / `eprintln!` in library code).
//!
//! ## Determinism contract
//!
//! Events are stamped with **simulated time** (or a caller-supplied logical
//! tick) — never wall-clock. A trace stream produced inside the simulator is
//! therefore a pure function of `(scale, seed, index)`: bit-identical at any
//! worker count, shard count, or dispatch mode. [`FlightRecorder::digest`]
//! folds the stream into one FNV-1a word so tests can pin exactly that.
//!
//! ## Cost model
//!
//! The ring is allocated once at construction and recording is a bounds
//! check plus a 32-byte store — no allocation, no branching sink lookup.
//! Consumers that want tracing compiled *out* gate the recorder behind a
//! cargo feature (see `netsim`'s `trace` feature): the disabled build
//! carries no ring and no stores at all.

#![warn(missing_docs)]

/// Default ring capacity: enough to hold the causal chain of any single
/// trial with headroom, small enough that a ring is cheap to dump per shard.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One structured trace event.
///
/// `tick` is simulated nanoseconds (engine events) or a logical poll tick
/// (supervision events) — never wall-clock. `host` identifies the emitting
/// host slab slot, or [`TraceEvent::NO_HOST`] for events with no host
/// context (application-layer notes, supervision events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated-time stamp (nanoseconds) or logical tick.
    pub tick: u64,
    /// Emitting host's slab index, or [`TraceEvent::NO_HOST`].
    pub host: u32,
    /// Event kind, one of the [`kind`] constants.
    pub kind: u16,
    /// First kind-specific operand (e.g. an IPID or a drop-reason code).
    pub a: u64,
    /// Second kind-specific operand (e.g. a fragment offset or a count).
    pub b: u64,
}

impl TraceEvent {
    /// `host` value for events emitted outside any host context.
    pub const NO_HOST: u32 = u32::MAX;
}

/// The shared trace-event taxonomy.
///
/// Engine events (`FRAG_*`, `UDP_*`, `DROP`) are emitted by `netsim`'s
/// dispatch loop under its `trace` feature; the attack-chain events
/// (`CACHE_POISONED`, `NTP_SHIFTED`) are reserved for the scenario layer,
/// which emits none yet; supervision events (`LEASE_*`, `WORKER_*`,
/// `SHARD_*`) come from the campaign supervisor.
pub mod kind {
    /// A fragment arrived at a host (`a` = IPID, `b` = fragment offset).
    pub const FRAG_RX: u16 = 1;
    /// A reassembly completed (`a` = IPID, `b` = reassembled length).
    pub const FRAG_REASSEMBLED: u16 = 2;
    /// Pending reassemblies timed out (`a` = entries expired).
    pub const FRAG_EXPIRED: u16 = 3;
    /// A UDP datagram passed checksum verification (`a` = dst port).
    pub const UDP_VERIFY_OK: u16 = 4;
    /// A UDP datagram failed verification (`a` = drop-reason code).
    pub const UDP_VERIFY_FAIL: u16 = 5;
    /// A packet was dropped by the receive path (`a` = drop-reason code).
    pub const DROP: u16 = 6;
    /// The scenario layer observed a poisoned cache entry.
    pub const CACHE_POISONED: u16 = 7;
    /// The scenario layer observed a successful time shift (`a` = shifted
    /// seconds, rounded; `b` = 1 for boot-time, 0 for runtime attacks).
    pub const NTP_SHIFTED: u16 = 8;
    // Supervision events carry the shard index in the event's `host`
    // field (shards are the supervisor's "hosts") and the attempt number
    // in `a`.

    /// Supervisor leased a shard to a worker (`a` = attempt, `b` = record
    /// the worker resumes at).
    pub const LEASE_GRANTED: u16 = 32;
    /// A worker exited abnormally (`a` = attempt).
    pub const WORKER_CRASH: u16 = 33;
    /// A worker made no checkpoint progress within the timeout
    /// (`a` = attempt).
    pub const WORKER_STALL: u16 = 34;
    /// A worker's record stream failed validation (`a` = attempt).
    pub const STREAM_CORRUPT: u16 = 35;
    /// A shard exhausted its retries and was quarantined (`a` = attempts
    /// consumed).
    pub const SHARD_QUARANTINED: u16 = 36;
    /// A previously failed shard completed after a re-lease (`a` =
    /// attempts consumed).
    pub const SHARD_HEALED: u16 = 37;

    /// Human-readable name of a kind code (for ring dumps).
    pub fn name(kind: u16) -> &'static str {
        match kind {
            FRAG_RX => "frag-rx",
            FRAG_REASSEMBLED => "frag-reassembled",
            FRAG_EXPIRED => "frag-expired",
            UDP_VERIFY_OK => "udp-verify-ok",
            UDP_VERIFY_FAIL => "udp-verify-fail",
            DROP => "drop",
            CACHE_POISONED => "cache-poisoned",
            NTP_SHIFTED => "ntp-shifted",
            LEASE_GRANTED => "lease-granted",
            WORKER_CRASH => "worker-crash",
            WORKER_STALL => "worker-stall",
            STREAM_CORRUPT => "stream-corrupt",
            SHARD_QUARANTINED => "shard-quarantined",
            SHARD_HEALED => "shard-healed",
            _ => "unknown",
        }
    }
}

/// A fixed-capacity, pre-allocated ring of [`TraceEvent`]s.
///
/// The ring keeps the most recent `capacity` events; older events are
/// overwritten (and counted via [`FlightRecorder::dropped`]). Recording is
/// allocation-free after construction.
///
/// ```
/// use obs::{kind, FlightRecorder};
///
/// let mut rec = FlightRecorder::new(8);
/// rec.record(10, 0, kind::FRAG_RX, 7, 0);
/// rec.record(20, 0, kind::FRAG_REASSEMBLED, 7, 2000);
/// assert_eq!(rec.len(), 2);
/// let kinds: Vec<u16> = rec.iter().map(|e| e.kind).collect();
/// assert_eq!(kinds, [kind::FRAG_RX, kind::FRAG_REASSEMBLED]);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Total events ever recorded; `recorded % capacity` is the write head
    /// once the ring is full.
    recorded: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events, with the ring
    /// storage allocated up front (recording never allocates).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs a non-zero capacity");
        FlightRecorder { buf: Vec::with_capacity(capacity), capacity, recorded: 0 }
    }

    /// Records one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, tick: u64, host: u32, kind: u16, a: u64, b: u64) {
        let event = TraceEvent { tick, host, kind, a, b };
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            let at = (self.recorded % self.capacity as u64) as usize;
            self.buf[at] = event;
        }
        self.recorded += 1;
    }

    /// Empties the ring and resets the recorded count, keeping the
    /// allocated storage (so a cleared recorder still never allocates).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.recorded = 0;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrites.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Iterates the retained events in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let head = if self.buf.len() < self.capacity {
            0
        } else {
            (self.recorded % self.capacity as u64) as usize
        };
        self.buf[head..].iter().chain(self.buf[..head].iter())
    }

    /// FNV-1a digest over every retained event (all five fields, in
    /// chronological order) plus the total-recorded count. Deterministic
    /// streams make this bit-identical across runs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.update(self.recorded);
        for e in self.iter() {
            h.update(e.tick);
            h.update(u64::from(e.host));
            h.update(u64::from(e.kind));
            h.update(e.a);
            h.update(e.b);
        }
        h.finish()
    }

    /// FNV-1a digest over the retained events *excluding tick stamps*:
    /// the shape of the causal chain without its timing. Supervision rings
    /// are stamped with wall-dependent poll ticks, so their dumps pin this
    /// digest rather than [`FlightRecorder::digest`].
    pub fn digest_payload(&self) -> u64 {
        let mut h = Fnv::new();
        for e in self.iter() {
            h.update(u64::from(e.host));
            h.update(u64::from(e.kind));
            h.update(e.a);
            h.update(e.b);
        }
        h.finish()
    }

    /// Renders the ring as one line per event (for `--trace-dir` dumps),
    /// headed by the payload digest and drop count.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "# flight recorder: {} event(s) retained, {} overwritten, payload digest {:016x}\n",
            self.len(),
            self.dropped(),
            self.digest_payload()
        );
        for e in self.iter() {
            out.push_str(&format!(
                "tick={} host={} kind={} a={} b={}\n",
                e.tick,
                e.host,
                kind::name(e.kind),
                e.a,
                e.b
            ));
        }
        out
    }
}

/// Minimal FNV-1a over `u64` words (matching the campaign digest family:
/// fixed constants, no per-process state, bit-stable everywhere).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The sanctioned console funnel for library crates: exactly `eprintln!`,
/// but greppable. Clippy's `print_stdout`/`print_stderr` lints ban raw
/// `println!`/`eprintln!` in library code so every human-facing diagnostic
/// goes through here (or a binary's own `main.rs`), keeping record streams
/// and JSON artifacts clean of stray prints.
#[macro_export]
macro_rules! console {
    ($($arg:tt)*) => {
        eprintln!($($arg)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i, 0, kind::DROP, i, 0);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let ticks: Vec<u64> = rec.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [6, 7, 8, 9], "chronological, most recent retained");
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        a.record(1, 0, kind::FRAG_RX, 7, 0);
        a.record(2, 0, kind::FRAG_REASSEMBLED, 7, 0);
        b.record(2, 0, kind::FRAG_REASSEMBLED, 7, 0);
        b.record(1, 0, kind::FRAG_RX, 7, 0);
        assert_ne!(a.digest(), b.digest());
        let mut c = FlightRecorder::new(8);
        c.record(1, 0, kind::FRAG_RX, 7, 0);
        c.record(2, 0, kind::FRAG_REASSEMBLED, 7, 0);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn payload_digest_ignores_ticks() {
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        a.record(100, 1, kind::WORKER_CRASH, 2, 0);
        b.record(999, 1, kind::WORKER_CRASH, 2, 0);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest_payload(), b.digest_payload());
    }

    #[test]
    fn render_text_names_kinds() {
        let mut rec = FlightRecorder::new(8);
        rec.record(5, 3, kind::SHARD_QUARANTINED, 1, 0);
        let text = rec.render_text();
        assert!(text.contains("kind=shard-quarantined"), "{text}");
        assert!(text.contains("payload digest"), "{text}");
    }

    #[test]
    fn empty_ring_digests_are_stable() {
        let rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        assert_eq!(rec.digest(), FlightRecorder::new(4).digest());
        assert_eq!(rec.dropped(), 0);
    }
}
