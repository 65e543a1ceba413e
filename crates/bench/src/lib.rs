//! # bench — the engine ring driver
//!
//! [`engine_driver`] is the budget-bounded forwarding-ring simulation
//! behind the repository benchmark's (`perfbench/`) `netsim.ring_ns_per_event`
//! probe: raw event-loop cost with no scenario logic on top. It is the
//! crate's only content; the benchmark is its only caller.

#![warn(missing_docs)]

pub mod engine_driver {
    //! The engine microbenchmark: a ring of hosts forwarding one datagram
    //! forever, terminated by the simulator's event budget. Measures raw
    //! event-loop throughput (slab dispatch, event queue, pooled
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
