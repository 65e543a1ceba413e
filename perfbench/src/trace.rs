//! In-memory spans around the benchmark's calls into each layer, and the
//! per-layer cost ledger built from them.
//!
//! Spans are recorded only in the traced run, from this crate's own files:
//! the program under test carries no span code. Each span names its layer,
//! the call it wraps, and the span that caused it; the trace is written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats;

/// Nanoseconds since the first call in this process (a monotonic clock).
// Timing the host is this crate's job; the workspace lint that bans
// wall-clock reads guards simulated time in the library crates.
#[allow(clippy::disallowed_methods)]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The pseudo-layer of a trial's envelope span: time inside a trial that
/// no layer span or estimate claims is unattributed.
pub const TRIAL: &str = "trial";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Layer the wrapped call belongs to (or [`TRIAL`]).
    pub layer: &'static str,
    /// The call wrapped.
    pub name: &'static str,
    /// Start, [`now_ns`] clock.
    pub start: u64,
    /// End, [`now_ns`] clock.
    pub end: u64,
}

/// A per-thread span buffer; a disabled tracer records nothing and reads
/// no clock.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Spans recorded so far, in completion order.
    pub spans: Vec<Span>,
}

/// An open span: its id and start time.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    start: u64,
}

impl Open {
    /// The span's id, for use as a child's parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, spans: Vec::new() }
    }

    /// Opens a span (reads the clock only when tracing).
    pub fn open(&self) -> Open {
        if self.on {
            Open { id: next_id(), start: now_ns() }
        } else {
            Open { id: 0, start: 0 }
        }
    }

    /// Records a root span over an interval timed elsewhere.
    pub fn record(&mut self, layer: &'static str, name: &'static str, start: u64, end: u64) {
        if self.on {
            self.spans.push(Span { id: next_id(), parent: 0, layer, name, start, end });
        }
    }

    /// Closes `open` as a span of `layer`/`name` under `parent`.
    pub fn close(&mut self, open: Open, parent: u64, layer: &'static str, name: &'static str) {
        if self.on {
            let end = now_ns();
            self.spans.push(Span { id: open.id, parent, layer, name, start: open.start, end });
        }
    }
}

/// Sum of self time (ns) per layer: each span's duration minus the part
/// its children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        *out.entry(s.layer).or_default() += stats::self_time(s.start, s.end, kids) as f64;
    }
    out
}

/// The layers every ledger reports, with the metric each share goes to.
pub const LAYERS: [(&str, &str); 8] = [
    ("core", "ledger.core_share"),
    ("netsim", "ledger.netsim_share"),
    ("dns", "ledger.dns_share"),
    ("attack", "ledger.attack_share"),
    ("ntp", "ledger.ntp_share"),
    ("measure", "ledger.measure_share"),
    ("campaign", "ledger.campaign_share"),
    ("runner", "ledger.runner_share"),
];

/// A closed book: each layer's share of the traced capacity (workers ×
/// wall) and the share nothing covers.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// `(metric name, share)` for every entry of [`LAYERS`].
    pub shares: Vec<(&'static str, f64)>,
    /// 1 − Σ shares.
    pub unattributed: f64,
}

/// Builds the ledger for a traced window of `capacity_ns` (workers ×
/// wall). `spans` carry measured layer time (self time; [`TRIAL`]
/// envelopes contribute nothing of their own), `estimates_ns` add op-count
/// × ns/op figures per layer (a negative one moves time a span measured
/// to the layers below it), and `busy_ns` is the time workers spent in
/// trials or serial campaign work: the rest of the capacity is the
/// runner's idle share.
pub fn ledger(
    capacity_ns: f64,
    spans: &[Span],
    estimates_ns: &BTreeMap<&'static str, f64>,
    busy_ns: f64,
) -> Ledger {
    let measured = self_time_by_layer(spans);
    let shares: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&(layer, metric)| {
            let ns = if layer == "runner" {
                (capacity_ns - busy_ns).max(0.0)
            } else {
                measured.get(layer).copied().unwrap_or(0.0)
                    + estimates_ns.get(layer).copied().unwrap_or(0.0)
            };
            (metric, ns / capacity_ns)
        })
        .collect();
    let unattributed = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    Ledger { shares, unattributed }
}

/// Renders spans as tab-separated lines (`id parent layer name start_ns
/// end_ns`), at most `limit` of them, after a header that gives the total.
pub fn render(spans: &[Span], limit: usize) -> String {
    let mut out = format!("# spans: {} (first {} listed)\n", spans.len(), limit.min(spans.len()));
    out.push_str("id\tparent\tlayer\tname\tstart_ns\tend_ns\n");
    for s in spans.iter().take(limit) {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, s.parent, s.layer, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, layer, name: layer, start, end }
    }

    #[test]
    fn ledger_closes_the_books() {
        // One worker, 100 ns window: a trial envelope [0, 80) with a
        // measure child [0, 50) and a campaign child [50, 60); an estimate
        // of 10 ns for netsim, and 5 ns moved from measure to dns. 20 ns
        // of the trial stay unexplained minus the netsim estimate = 10 ns
        // unattributed; 20 ns idle go to the runner.
        let spans = [
            span(1, 0, TRIAL, 0, 80),
            span(2, 1, "measure", 0, 50),
            span(3, 1, "campaign", 50, 60),
        ];
        let est = BTreeMap::from([("netsim", 10.0), ("dns", 5.0), ("measure", -5.0)]);
        let l = ledger(100.0, &spans, &est, 80.0);
        let share = |name| l.shares.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);
        assert_eq!(share("ledger.measure_share"), Some(0.45));
        assert_eq!(share("ledger.dns_share"), Some(0.05));
        assert_eq!(share("ledger.campaign_share"), Some(0.1));
        assert_eq!(share("ledger.netsim_share"), Some(0.1));
        assert_eq!(share("ledger.runner_share"), Some(0.2));
        assert!((l.unattributed - 0.1).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.open();
        t.close(open, 0, "dns", "x");
        assert!(t.spans.is_empty());
        assert_eq!(open.id(), 0);
    }
}
