//! # netsim — byte-accurate IPv4 network simulation
//!
//! A deterministic discrete-event simulator carrying **real encoded
//! IPv4/UDP/ICMP bytes**, built as the substrate for reproducing
//! *"The Impact of DNS Insecurity on Time"* (DSN 2020). The attack studied
//! there lives below DNS: IPv4 fragmentation, defragmentation-cache
//! poisoning, path-MTU discovery abuse and ones'-complement checksum
//! fix-ups. Those mechanics only reproduce faithfully at wire level, so this
//! crate models them at wire level:
//!
//! * [`ipv4`] / [`udp`] / [`icmp`] — wire codecs with real checksums;
//! * [`frag`] — RFC 791 fragmentation and a receiver-side reassembly cache
//!   with the reassembly timeout and per-OS caps ([`frag::DefragCache`]);
//! * [`pmtu`] — per-destination path-MTU caches fed by ICMP frag-needed;
//! * [`os`] — OS stack profiles (Linux, Windows, filtering resolvers…);
//! * [`link`] — latency/jitter/loss link models;
//! * [`sim`] — the event loop, [`sim::Host`] trait and per-host
//!   [`sim::NetStack`];
//! * [`queue`] — the event loop's binary-heap event queue, popped in
//!   `(time, sequence)` order.
//!
//! ## Quickstart
//!
//! ```
//! use bytes::Bytes;
//! use netsim::prelude::*;
//!
//! struct Hello { peer: std::net::Ipv4Addr }
//! impl Host for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send_udp(self.peer, 4000, 4000, Bytes::from_static(b"hi"));
//!     }
//! }
//! struct Counter { n: usize }
//! impl Host for Counter {
//!     fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _d: &Datagram) { self.n += 1; }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = "10.0.0.1".parse()?;
//! let b = "10.0.0.2".parse()?;
//! sim.add_host(a, OsProfile::linux(), Box::new(Hello { peer: b }))?;
//! sim.add_host(b, OsProfile::linux(), Box::new(Counter { n: 0 }))?;
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.host::<Counter>(b).unwrap().n, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod checksum;
pub mod drop;
pub mod error;
pub mod fasthash;
pub mod frag;
pub mod icmp;
pub mod ipv4;
pub mod link;
pub mod os;
pub mod pmtu;
pub mod queue;
pub mod sim;
pub mod time;
pub mod udp;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::drop::{DropCounts, DropReason};
    pub use crate::error::{FragmentError, SimError, WireError};
    pub use crate::frag::{fragment, DefragCache, DefragConfig, FragInsert, FragKey};
    pub use crate::icmp::IcmpMessage;
    pub use crate::ipv4::{Ipv4Packet, IPV4_HEADER_LEN, MIN_IPV4_MTU, PROTO_ICMP, PROTO_UDP};
    pub use crate::link::{LinkSpec, Topology};
    pub use crate::os::{IpidMode, OsProfile};
    pub use crate::sim::{
        Ctx, Datagram, Host, HostId, NetStack, ReceiveOutcome, SimStats, Simulator, StackOutput,
        TimerToken,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::udp::{UdpDatagram, UDP_HEADER_LEN};
}
