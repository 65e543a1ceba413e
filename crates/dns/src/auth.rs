//! The authoritative nameserver host.
//!
//! Serves one or more [`Zone`]s over UDP port 53 through the simulated
//! network. Combined with an [`netsim::os::OsProfile`] that honours ICMP
//! fragmentation-needed and uses sequential IPIDs, this is the paper's
//! "vulnerable nameserver": its large responses fragment on demand and the
//! IPIDs of the fragments are predictable.

use std::net::Ipv4Addr;

use netsim::prelude::*;
use rand::seq::index::sample;
use rand::Rng;

use crate::dnssec::make_rrsig;
use crate::message::{Message, Rcode};
use crate::record::{Record, RecordType};
use crate::zone::{AnswerPolicy, Zone};

/// The well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// Counters exposed by an [`AuthServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Queries received.
    pub queries: u64,
    /// Responses sent.
    pub responses: u64,
    /// Queries refused (no matching zone).
    pub refused: u64,
}

/// An authoritative nameserver serving a set of zones.
#[derive(Debug)]
pub struct AuthServer {
    zones: Vec<Zone>,
    include_authority: bool,
    /// Counters.
    pub stats: AuthStats,
}

impl AuthServer {
    /// Creates a server for `zones`. Responses to A queries include the
    /// zone's NS records and glue in the authority/additional sections.
    pub fn new(zones: Vec<Zone>) -> Self {
        AuthServer { zones, include_authority: true, stats: AuthStats::default() }
    }

    /// Disables the authority/additional sections (small responses that
    /// never fragment — a hardened configuration for the ablation study).
    pub fn without_authority_sections(mut self) -> Self {
        self.include_authority = false;
        self
    }

    /// Builds the response for a query, drawing random pool subsets where
    /// the zone's policy asks for it.
    pub fn answer<R: Rng + ?Sized>(&mut self, query: &Message, rng: &mut R) -> Message {
        self.stats.queries += 1;
        let mut resp = Message::response_to(query);
        resp.header.ra = false;
        let Some(q) = query.question().cloned() else {
            resp.header.rcode = Rcode::FormErr;
            return resp;
        };
        let Some(zone_idx) = self
            .zones
            .iter()
            .enumerate()
            .filter(|(_, z)| q.name.is_subdomain_of(&z.origin))
            .max_by_key(|(_, z)| z.origin.label_count())
            .map(|(i, _)| i)
        else {
            self.stats.refused += 1;
            resp.header.rcode = Rcode::Refused;
            return resp;
        };
        resp.header.aa = true;
        // Synthesise rotated/wildcard A answers, or fall back to statics.
        let answers = {
            let zone = &self.zones[zone_idx];
            match (&zone.policy, q.qtype) {
                (AnswerPolicy::Rotate { names, addrs, per_response, ttl }, RecordType::A)
                    if names.contains(&q.name) && !addrs.is_empty() =>
                {
                    let n = (*per_response).min(addrs.len());
                    sample(rng, addrs.len(), n)
                        .into_iter()
                        .map(|i| Record::a(q.name.clone(), *ttl, addrs[i]))
                        .collect::<Vec<_>>()
                }
                (AnswerPolicy::Wildcard { addrs, per_response, ttl }, RecordType::A)
                    if !addrs.is_empty() =>
                {
                    let n = (*per_response).min(addrs.len());
                    addrs[..n].iter().map(|&addr| Record::a(q.name.clone(), *ttl, addr)).collect()
                }
                _ => zone.lookup(&q.name, q.qtype).to_vec(),
            }
        };
        let zone = &self.zones[zone_idx];
        if answers.is_empty() && !zone.name_exists(&q.name) {
            resp.header.rcode = Rcode::NxDomain;
            return resp;
        }
        resp.answers = answers;
        if let Some(key) = zone.key {
            if !resp.answers.is_empty() {
                let sig = make_rrsig(
                    key,
                    &zone.origin,
                    &q.name,
                    q.qtype,
                    resp.answers[0].ttl,
                    &resp.answers,
                );
                resp.answers.push(sig);
            }
        }
        if self.include_authority && q.qtype != RecordType::Ns {
            resp.authorities = zone.ns_records().to_vec();
            resp.additionals = zone.glue_records().to_vec();
        }
        resp
    }
}

impl Host for AuthServer {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: &Datagram) {
        if d.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = Message::decode(&d.payload) else { return };
        if query.header.qr {
            return; // not a query
        }
        let resp = self.answer(&query, ctx.rng());
        if let Ok(wire) = resp.encode() {
            self.stats.responses += 1;
            ctx.send_udp(d.src, DNS_PORT, d.src_port, wire);
        }
    }
}

/// Convenience: the default vulnerable pool nameserver OS profile (honours
/// PMTUD down to 548 bytes, global sequential IPID).
pub fn vulnerable_ns_profile() -> OsProfile {
    OsProfile::nameserver(548)
}

/// Returns the addresses of the nameservers for a zone laid out by
/// [`crate::zone::pool_zone`].
pub fn ns_addrs(zone: &Zone) -> Vec<Ipv4Addr> {
    zone.glue_records().iter().filter_map(Record::as_a).collect()
}

/// Registers one [`AuthServer`] host per glue address of `zone` in `sim`
/// (each nameserver rotates independently, like the real pool NS fleet).
/// Returns the nameserver addresses for use as resolver hints.
///
/// # Panics
///
/// Panics if any glue address is already occupied.
pub fn spawn_zone_nameservers(
    sim: &mut netsim::sim::Simulator,
    zone: &Zone,
    profile: OsProfile,
) -> Vec<Ipv4Addr> {
    let addrs = ns_addrs(zone);
    for &addr in &addrs {
        sim.add_host(addr, profile.clone(), Box::new(AuthServer::new(vec![zone.clone()])))
            .expect("glue address free");
    }
    addrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{malicious_pool_zone, pool_zone, POOL_A_TTL};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn servers(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect()
    }

    fn query(name: &str) -> Message {
        Message::query(0x42, name.parse().unwrap(), RecordType::A, false)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    #[test]
    fn pool_answers_rotate_across_queries() {
        let zone = pool_zone(servers(32), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let mut rng = rng();
        let r1 = srv.answer(&query("pool.ntp.org"), &mut rng);
        #[allow(clippy::disallowed_types)] // test code (simlint R2 exempts tests)
        let mut seen: std::collections::HashSet<Ipv4Addr> = r1.answer_addrs().into_iter().collect();
        assert_eq!(seen.len(), 4);
        for _ in 0..10 {
            seen.extend(srv.answer(&query("pool.ntp.org"), &mut rng).answer_addrs());
        }
        assert!(seen.len() > 16, "random selection must surface new servers: {}", seen.len());
        assert!(r1.answers.iter().all(|r| r.ttl == POOL_A_TTL));
    }

    #[test]
    fn country_zone_names_also_rotate() {
        let zone = pool_zone(servers(8), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("0.pool.ntp.org"), &mut rng());
        assert_eq!(r.answer_addrs().len(), 4);
        assert_eq!(r.header.rcode, Rcode::NoError);
    }

    #[test]
    fn authority_and_glue_attached() {
        let zone = pool_zone(servers(8), 23, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("pool.ntp.org"), &mut rng());
        assert_eq!(r.authorities.len(), 23);
        assert_eq!(r.additionals.len(), 23);
        // The wire size must exceed the 548-byte forced MTU so that the
        // response fragments — the attack's precondition.
        assert!(r.encode().unwrap().len() > 548, "len = {}", r.encode().unwrap().len());
    }

    #[test]
    fn wildcard_zone_answers_any_name_with_many_addrs() {
        let addrs: Vec<Ipv4Addr> =
            (0..89).map(|i| Ipv4Addr::new(6, 6, (i / 250) as u8, (i % 250) as u8)).collect();
        let mut srv = AuthServer::new(vec![malicious_pool_zone(addrs, 89, 86_400 * 2)]);
        let r = srv.answer(&query("pool.ntp.org"), &mut rng());
        assert_eq!(r.answer_addrs().len(), 89);
        assert!(r.answers.iter().all(|rec| rec.ttl == 86_400 * 2));
        // Must fit a single unfragmented 1500-byte response (paper §VI-C).
        assert!(r.encode().unwrap().len() + 28 <= 1500, "len = {}", r.encode().unwrap().len());
    }

    #[test]
    fn unknown_zone_refused() {
        let zone = pool_zone(servers(4), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("example.com"), &mut rng());
        assert_eq!(r.header.rcode, Rcode::Refused);
        assert_eq!(srv.stats.refused, 1);
    }

    #[test]
    fn nxdomain_for_missing_name_in_zone() {
        let zone = pool_zone(servers(4), 4, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("nonexistent.pool.ntp.org"), &mut rng());
        assert_eq!(r.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn signed_zone_includes_rrsig() {
        use crate::dnssec::ZoneKey;
        let zone = pool_zone(servers(4), 4, Ipv4Addr::new(198, 51, 100, 1)).with_key(ZoneKey(7));
        let mut srv = AuthServer::new(vec![zone]);
        let r = srv.answer(&query("pool.ntp.org"), &mut rng());
        assert!(r.answers.iter().any(|rec| rec.rtype() == RecordType::Rrsig));
    }
}
