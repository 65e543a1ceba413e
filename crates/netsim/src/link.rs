//! Link models: latency, jitter and loss between simulated hosts.

use std::net::Ipv4Addr;

use rand::{Rng, RngExt};

use crate::fasthash::FastMap;
use crate::time::SimDuration;

/// Properties of the path between two hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Uniform jitter added on top of `latency` (0..=jitter).
    pub jitter: SimDuration,
    /// Probability in [0, 1] that a packet is silently dropped.
    pub loss: f64,
}

impl LinkSpec {
    /// A WAN-like link: 20 ms latency, 5 ms jitter, lossless.
    pub fn wan() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(5),
            loss: 0.0,
        }
    }

    /// A fixed-latency, lossless, jitterless link (deterministic tests).
    pub fn fixed(latency: SimDuration) -> Self {
        LinkSpec { latency, jitter: SimDuration::ZERO, loss: 0.0 }
    }

    /// Returns a copy with the given loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Samples a delivery delay (or `None` for a lost packet).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SimDuration> {
        if self.loss > 0.0 && rng.random_bool(self.loss) {
            return None;
        }
        let jitter = if self.jitter == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.random_range(0..=self.jitter.as_nanos()))
        };
        Some(self.latency + jitter)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::wan()
    }
}

/// The set of links between hosts. Paths not explicitly configured use the
/// default spec; overrides are directional.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    default: LinkSpec,
    overrides: FastMap<(Ipv4Addr, Ipv4Addr), LinkSpec>,
}

impl Topology {
    /// A topology where every path uses `default`.
    pub fn uniform(default: LinkSpec) -> Self {
        Topology { default, overrides: FastMap::default() }
    }

    /// Sets the directional link from `src` to `dst`.
    pub fn set_link(&mut self, src: Ipv4Addr, dst: Ipv4Addr, spec: LinkSpec) -> &mut Self {
        self.overrides.insert((src, dst), spec);
        self
    }

    /// Sets the link in both directions.
    pub fn set_link_bidir(&mut self, a: Ipv4Addr, b: Ipv4Addr, spec: LinkSpec) -> &mut Self {
        self.set_link(a, b, spec);
        self.set_link(b, a, spec);
        self
    }

    /// The spec governing delivery from `src` to `dst`.
    pub fn link(&self, src: Ipv4Addr, dst: Ipv4Addr) -> &LinkSpec {
        // Uniform topologies (the common Monte-Carlo case) skip the hash.
        if self.overrides.is_empty() {
            return &self.default;
        }
        self.overrides.get(&(src, dst)).unwrap_or(&self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_link_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = LinkSpec::fixed(SimDuration::from_millis(10));
        for _ in 0..100 {
            assert_eq!(spec.sample(&mut rng), Some(SimDuration::from_millis(10)));
        }
    }

    #[test]
    fn lossy_link_drops_roughly_expected_fraction() {
        let mut rng = SmallRng::seed_from_u64(42);
        let spec = LinkSpec::fixed(SimDuration::from_millis(1)).with_loss(0.3);
        let lost = (0..10_000).filter(|_| spec.sample(&mut rng).is_none()).count();
        assert!((2_500..3_500).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let spec = LinkSpec::wan();
        for _ in 0..1000 {
            let d = spec.sample(&mut rng).unwrap();
            assert!(d >= spec.latency);
            assert!(d <= spec.latency + spec.jitter);
        }
    }

    #[test]
    fn topology_overrides_are_directional() {
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let b: Ipv4Addr = "10.0.0.2".parse().unwrap();
        let mut topo = Topology::uniform(LinkSpec::wan());
        let near = LinkSpec::fixed(SimDuration::from_micros(500));
        topo.set_link(a, b, near);
        assert_eq!(topo.link(a, b), &near);
        assert_eq!(topo.link(b, a), &LinkSpec::wan());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_panics() {
        let _ = LinkSpec::fixed(SimDuration::from_millis(1)).with_loss(1.5);
    }
}
