//! Server-infrastructure discovery — the §4.1 methodology itself.
//!
//! The paper does not start from a known server list; it *discovers* the
//! fleets: "we set up clients in eight different locations across the
//! Western (two), Middle (three), and Eastern (three) US. For each
//! experiment, these clients randomly join a VCA in different orders",
//! then geolocates every server address seen in the captures.
//!
//! This experiment reproduces that procedure against the simulated
//! providers: many sessions with random initiators and rosters, peer
//! discovery from each AP capture, geolocation through the simulated
//! MaxMind, fleet reconstruction — and only then checks the §4.1 counts
//! (FaceTime 4, Zoom 2, Webex 3, Teams 1) and the assignment rule.

use crate::report::render_table;
use std::collections::{BTreeMap, BTreeSet};
use visionsim_capture::analysis::CaptureAnalysis;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::rng::SimRng;
use visionsim_core::time::SimDuration;
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::regions::Region;
use visionsim_geo::sites::Provider;
use visionsim_vca::session::{ParticipantSpec, SessionConfig, SessionRunner};

/// What discovery found for one provider.
#[derive(Debug)]
pub struct DiscoveredFleet {
    /// Provider.
    pub provider: Provider,
    /// Distinct server *locations* seen (grouped by geolocated city, as
    /// the MaxMind-based methodology does — addresses within a site vary),
    /// with their regions.
    pub servers: BTreeMap<String, Region>,
    /// Sessions that went P2P (no server seen at all).
    pub p2p_sessions: usize,
    /// Sessions relayed through a server.
    pub sfu_sessions: usize,
    /// For every SFU session: did the server's region match the
    /// initiator's region (when the provider has a site there)?
    pub initiator_matches: usize,
    /// SFU sessions where a regional match was possible.
    pub initiator_checkable: usize,
}

/// The full discovery campaign.
#[derive(Debug)]
pub struct Discovery {
    /// Per-provider findings.
    pub fleets: Vec<DiscoveredFleet>,
}

/// Run `sessions_per_provider` randomized sessions per provider, each
/// `secs` seconds.
pub fn run(sessions_per_provider: usize, secs: u64, seed: u64) -> Discovery {
    let vantages = cities::us_vantages();
    // Every (provider, session) pair is an independent cell: roster
    // sampling and the session itself draw from a per-cell derived stream
    // (previously one shared RNG made every session depend on all prior
    // ones). The order-sensitive fleet accounting happens afterwards, in
    // submission order, so results are identical at any thread count.
    let cells: Vec<(Provider, usize)> = Provider::ALL
        .into_iter()
        .flat_map(|p| (0..sessions_per_provider).map(move |s| (p, s)))
        .collect();
    let sessions = par_map(cells, |(provider, s)| {
        let mut rng = SimRng::seed_from_u64(derive_seed(
            seed,
            &format!("discovery/{provider}"),
            s as u64,
        ));
        // Random roster: 2-4 participants at random vantages, random
        // device mix (at least one Vision Pro), random initiator =
        // participant 0.
        let size = 2 + rng.index(3);
        let mut order: Vec<usize> = (0..vantages.len()).collect();
        rng.shuffle(&mut order);
        let participants: Vec<ParticipantSpec> = order[..size]
            .iter()
            .enumerate()
            .map(|(i, &v)| ParticipantSpec {
                name: format!("U{}", i + 1),
                device: if i == 0 || rng.chance(0.5) {
                    DeviceKind::VisionPro
                } else {
                    DeviceKind::MacBook
                },
                city: vantages[v],
            })
            .collect();
        let initiator_region = participants[0].city.region();
        let mut cfg = SessionConfig::two_party(
            provider,
            (participants[0].device, participants[0].city),
            (participants[1].device, participants[1].city),
            rng.next_u64(),
        );
        cfg.participants = participants;
        cfg.duration = SimDuration::from_secs(secs);
        let out = SessionRunner::new(cfg).run();

        // Discover from U1's AP capture, as the paper does.
        let analysis = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let provider_name = format!("{provider}");
        let seen: Vec<(String, Region)> = analysis
            .peers(&out.geodb)
            .into_iter()
            .filter(|peer| peer.org.as_deref() == Some(provider_name.as_str()))
            .filter_map(|peer| {
                // A peer matching the provider org should always carry a
                // registered city/region, but discovery reads whatever the
                // geo registry holds — an unregistered entry is skipped,
                // not a panic in the middle of the sweep.
                Some((peer.city.clone()?, peer.region?))
            })
            .collect();
        (provider, initiator_region, seen)
    });

    let fleets = Provider::ALL
        .into_iter()
        .map(|provider| {
            let mut servers: BTreeMap<String, Region> = BTreeMap::new();
            let mut p2p_sessions = 0usize;
            let mut sfu_sessions = 0usize;
            let mut initiator_matches = 0usize;
            let mut initiator_checkable = 0usize;
            // Regions where this provider demonstrably has a site, learned
            // *during* discovery (used for the assignment-rule check).
            let mut known_regions: BTreeSet<Region> = BTreeSet::new();
            for (_, initiator_region, seen) in sessions.iter().filter(|(p, _, _)| *p == provider) {
                for (city, region) in seen {
                    servers.insert(city.clone(), *region);
                    known_regions.insert(*region);
                    if region == initiator_region {
                        initiator_matches += 1;
                    }
                    if known_regions.contains(initiator_region) {
                        initiator_checkable += 1;
                    }
                }
                if seen.is_empty() {
                    p2p_sessions += 1;
                } else {
                    sfu_sessions += 1;
                }
            }
            DiscoveredFleet {
                provider,
                servers,
                p2p_sessions,
                sfu_sessions,
                initiator_matches,
                initiator_checkable,
            }
        })
        .collect();
    Discovery { fleets }
}

impl Discovery {
    /// The fleet for a provider.
    pub fn fleet(&self, provider: Provider) -> &DiscoveredFleet {
        self.fleets
            .iter()
            .find(|f| f.provider == provider)
            .expect("all providers surveyed")
    }
}

impl std::fmt::Display for Discovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "provider".to_string(),
            "servers found".to_string(),
            "regions".to_string(),
            "P2P / SFU sessions".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .fleets
            .iter()
            .map(|fl| {
                let mut regions: Vec<&str> = fl.servers.values().map(|r| r.abbrev()).collect();
                regions.sort_unstable();
                vec![
                    format!("{}", fl.provider),
                    fl.servers.len().to_string(),
                    regions.join(","),
                    format!("{} / {}", fl.p2p_sessions, fl.sfu_sessions),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Server discovery from randomized sessions (§4.1 methodology)",
                &header,
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_reconstructs_the_section41_fleet_counts() {
        let d = run(24, 4, 301);
        assert_eq!(d.fleet(Provider::FaceTime).servers.len(), 4, "FaceTime");
        assert_eq!(d.fleet(Provider::Zoom).servers.len(), 2, "Zoom");
        assert_eq!(d.fleet(Provider::Webex).servers.len(), 3, "Webex");
        assert_eq!(d.fleet(Provider::Teams).servers.len(), 1, "Teams");
    }

    #[test]
    fn discovered_regions_match_the_paper() {
        let d = run(24, 4, 302);
        let regions =
            |p: Provider| -> Vec<Region> { d.fleet(p).servers.values().copied().collect() };
        // FaceTime: W, M, M, E.
        let ft = regions(Provider::FaceTime);
        assert_eq!(ft.iter().filter(|r| **r == Region::UsMiddle).count(), 2);
        assert!(ft.contains(&Region::UsWest) && ft.contains(&Region::UsEast));
        // Teams: single Western site.
        assert_eq!(regions(Provider::Teams), vec![Region::UsWest]);
    }

    #[test]
    fn p2p_happens_only_for_two_party_non_spatial() {
        let d = run(24, 4, 303);
        // Webex/Teams never P2P.
        assert_eq!(d.fleet(Provider::Webex).p2p_sessions, 0);
        assert_eq!(d.fleet(Provider::Teams).p2p_sessions, 0);
        // Zoom has some P2P (two-party rosters occur with prob ~1/3).
        assert!(d.fleet(Provider::Zoom).p2p_sessions > 0);
    }

    #[test]
    fn assignment_follows_the_initiator_where_checkable() {
        let d = run(24, 4, 304);
        for p in [Provider::FaceTime, Provider::Webex] {
            let fl = d.fleet(p);
            assert!(fl.initiator_checkable > 0, "{p}: no checkable sessions");
            assert_eq!(
                fl.initiator_matches, fl.initiator_checkable,
                "{p}: server did not follow the initiator"
            );
        }
    }
}
