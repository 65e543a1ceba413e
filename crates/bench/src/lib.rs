//! # bench — the engine ring driver and the JSON validator
//!
//! What the repository benchmark (`perfbench/`) and CI still call:
//!
//! * [`engine_driver`] — the budget-bounded forwarding-ring simulation
//!   behind `perfbench`'s `netsim.ring_ns_per_event` probe (raw
//!   event-loop cost with no scenario logic on top);
//! * [`json`] — a tiny dependency-free JSON validator, used by the
//!   `jsoncheck` binary and the campaign tests to fail on malformed
//!   `metrics.json`/`summary.json` without shelling out to `jq`.

#![warn(missing_docs)]

pub mod engine_driver {
    //! The engine microbenchmark: a ring of hosts forwarding one datagram
    //! forever, terminated by the simulator's event budget. Measures raw
    //! event-loop throughput (slab dispatch, timing wheel, pooled
    //! buffers) with no scenario logic on top.

    use std::net::Ipv4Addr;

    use timeshift::prelude::*;

    /// Events dispatched per drive (the event budget).
    pub const EVENTS_PER_ITER: u64 = 100_000;
    /// Hosts in the forwarding ring.
    pub const RING_HOSTS: u32 = 64;

    /// Forwards every datagram to the next host in the ring, forever. The
    /// event budget is what terminates the run.
    pub struct RingForwarder {
        /// Next hop in the ring.
        pub next: Ipv4Addr,
    }

    impl Host for RingForwarder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_udp(self.next, 4000, 4000, bytes::Bytes::from_static(b"lap"));
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
            ctx.send_udp(self.next, d.dst_port, d.src_port, d.payload.clone());
        }
    }

    /// Builds the budget-bounded ring simulation.
    pub fn ring_sim(seed: u64) -> Simulator {
        let mut sim = Simulator::with_topology(
            seed,
            Topology::uniform(LinkSpec::fixed(SimDuration::from_millis(5))),
        );
        sim.reserve_hosts(RING_HOSTS as usize);
        let addr = |i: u32| Ipv4Addr::from(0x0A00_0000 + 1 + i);
        for i in 0..RING_HOSTS {
            let next = addr((i + 1) % RING_HOSTS);
            sim.add_host(addr(i), OsProfile::linux(), Box::new(RingForwarder { next }))
                .expect("ring address free");
        }
        sim.set_event_budget(EVENTS_PER_ITER);
        sim
    }

    /// One full iteration: dispatch exactly [`EVENTS_PER_ITER`] events.
    pub fn drive(seed: u64) -> SimStats {
        let mut sim = ring_sim(seed);
        // The budget (not the deadline) terminates the run.
        sim.run_for(SimDuration::from_secs(86_400));
        sim.stats()
    }

    #[cfg(test)]
    mod tests {
        use super::{drive, EVENTS_PER_ITER};

        /// Per-event probes divide by [`EVENTS_PER_ITER`], so the budget
        /// must be what ends a drive; and the steady-state forward path
        /// must be served from the buffer pool.
        #[test]
        fn drive_dispatches_the_budget_from_the_pool() {
            let stats = drive(1);
            assert_eq!(stats.events_dispatched, EVENTS_PER_ITER);
            let served = stats.pool_hits + stats.pool_misses;
            let hit_rate = stats.pool_hits as f64 / served.max(1) as f64;
            assert!(
                hit_rate >= 0.99,
                "pool hit rate {hit_rate:.4} ({} hits / {} misses)",
                stats.pool_hits,
                stats.pool_misses
            );
        }
    }
}

pub mod json {
    //! A tiny JSON validator (no parsing into values, no dependencies):
    //! just enough to check that a campaign's `metrics.json` or
    //! `summary.json` is well-formed.

    /// Validates that `input` is one well-formed JSON value (objects,
    /// arrays, strings with escapes, numbers, booleans, null) with
    /// nothing but whitespace after it.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// with its byte offset.
    pub fn validate(input: &str) -> Result<(), String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, "true"),
            Some(b'f') => literal(b, pos, "false"),
            Some(b'n') => literal(b, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            _ => Err(format!("expected a JSON value at byte {pos}")),
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'{')?;
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'[')?;
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'"')?;
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            *pos += 1;
                            for _ in 0..4 {
                                if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(format!("bad \\u escape at byte {pos}"));
                                }
                                *pos += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                }
                0x00..=0x1F => return Err(format!("control character in string at byte {pos}")),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        fn digits(b: &[u8], pos: &mut usize) -> bool {
            let from = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos > from
        }
        let int_start = *pos;
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
        // RFC 8259 §6: the integer part is `0` or starts with 1-9.
        if b[int_start] == b'0' && *pos - int_start > 1 {
            return Err(format!("leading zero in number at byte {start}"));
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits(b, pos) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits(b, pos) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        Ok(())
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::validate;

        #[test]
        fn accepts_well_formed_documents() {
            for ok in [
                "{}",
                "[]",
                "null",
                "-12.5e+3",
                r#""escaped \" and snowman""#,
                r#"{ "a": [1, 2.0, -3e9], "b": { "nested": true }, "c": "x" }"#,
                "  {\n  \"k\": \"v\"\n}\n",
            ] {
                assert!(validate(ok).is_ok(), "should accept: {ok}");
            }
        }

        #[test]
        fn rejects_malformed_documents() {
            for bad in [
                "",
                "{",
                "{\"a\": }",
                "{\"a\": 1,}",
                "[1, 2",
                "{\"a\" 1}",
                "{\"a\": 1} extra",
                "\"unterminated",
                "nul",
                "{\"a\": 1e}",
                "{1: 2}",
                "01",
                "[-00.5]",
            ] {
                assert!(validate(bad).is_err(), "should reject: {bad}");
            }
        }
    }
}
