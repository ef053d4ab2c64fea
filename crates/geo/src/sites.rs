//! Provider server-site inventory.
//!
//! §4.1: "FaceTime, Zoom, Webex, and Teams operate four, two, three, and one
//! server(s) in the US, respectively." The registry reproduces those fleets
//! at plausible datacenter locations, labelled the way Table 1 labels them
//! (W / M1 / M2 / E). It also offers a geo-distributed fleet implementing
//! the paper's proposed fix (each client connects to a nearby server, with
//! inter-server links on a private backbone).

use crate::cities::City;
use crate::coords::GeoPoint;
use crate::regions::Region;
use std::fmt;

/// A videoconferencing provider under study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provider {
    /// Apple FaceTime.
    FaceTime,
    /// Zoom Meetings.
    Zoom,
    /// Cisco Webex.
    Webex,
    /// Microsoft Teams.
    Teams,
}

impl Provider {
    /// All four providers, in the paper's column order.
    pub const ALL: [Provider; 4] = [
        Provider::FaceTime,
        Provider::Zoom,
        Provider::Webex,
        Provider::Teams,
    ];

    /// Fixed per-provider server processing overhead added to every RTT
    /// sample, in milliseconds. Calibrated so that same-region RTTs land in
    /// the bands of Table 1 (Teams' noticeably higher same-region RTT is
    /// modelled as edge-distant placement plus heavier frontend processing).
    pub fn server_overhead_ms(&self) -> f64 {
        match self {
            Provider::FaceTime => 2.0,
            Provider::Zoom => 3.5,
            Provider::Webex => 2.5,
            Provider::Teams => 6.0,
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Provider::FaceTime => "FaceTime",
            Provider::Zoom => "Zoom",
            Provider::Webex => "Webex",
            Provider::Teams => "Teams",
        };
        write!(f, "{name}")
    }
}

/// One provider server site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerSite {
    /// Owning provider.
    pub provider: Provider,
    /// Table 1 column label ("W", "M1", "M2", "E", "M").
    pub label: &'static str,
    /// Datacenter city.
    pub city: City,
}

impl ServerSite {
    /// The region the site sits in.
    pub fn region(&self) -> Region {
        self.city.region()
    }

    /// Site location.
    pub fn location(&self) -> GeoPoint {
        self.city.location
    }
}

/// Capacity envelope of one SFU site. The paper's Table 1 treats every
/// site as an infinite sink; production SFUs gate admission on capacity
/// (ITEM, Nguyen et al.), so the resilience layer gives each site a
/// finite envelope and an admission policy over it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteCapacity {
    /// Maximum concurrently hosted sessions (conference groups).
    pub max_sessions: u32,
    /// Maximum concurrently attached participants across all sessions.
    pub max_participants: u32,
    /// While a site is observed *Degraded*, admission closes early: new
    /// joins are refused once utilization reaches this fraction of
    /// `max_participants` (headroom kept for the sessions already there).
    pub degraded_admit_frac: f64,
}

impl SiteCapacity {
    /// A mid-size regional SFU point of presence.
    pub fn regional() -> Self {
        SiteCapacity {
            max_sessions: 64,
            max_participants: 256,
            degraded_admit_frac: 0.7,
        }
    }

    /// A hyperscale point of presence for fleet-scale runs: what one
    /// site of a planet-wide SFU deployment is provisioned for. Sized so
    /// a 16-site fleet carries ≥ 100k concurrent sessions with the hot
    /// sites running into the envelope (rejections are part of the
    /// workload, not a failure mode).
    pub fn hyperscale() -> Self {
        SiteCapacity {
            max_sessions: 9_000,
            max_participants: 50_000,
            degraded_admit_frac: 0.85,
        }
    }

    /// Utilization of the participant envelope for `attached` users.
    pub fn utilization(&self, attached: u32) -> f64 {
        if self.max_participants == 0 {
            return 1.0;
        }
        attached as f64 / self.max_participants as f64
    }

    /// Participant headroom left while healthy.
    pub fn headroom(&self, attached: u32) -> u32 {
        self.max_participants.saturating_sub(attached)
    }
}

impl Default for SiteCapacity {
    fn default() -> Self {
        Self::regional()
    }
}

const fn site(
    provider: Provider,
    label: &'static str,
    name: &'static str,
    lat: f64,
    lon: f64,
) -> ServerSite {
    ServerSite {
        provider,
        label,
        city: City {
            name,
            location: GeoPoint {
                lat_deg: lat,
                lon_deg: lon,
            },
        },
    }
}

/// The per-provider US fleets observed by the paper.
#[derive(Clone, Debug)]
pub struct SiteRegistry {
    sites: Vec<ServerSite>,
}

impl Default for SiteRegistry {
    fn default() -> Self {
        Self::us_fleet()
    }
}

impl SiteRegistry {
    /// The US server fleets as counted in §4.1: FaceTime 4, Zoom 2,
    /// Webex 3, Teams 1.
    pub fn us_fleet() -> Self {
        let sites = vec![
            site(Provider::FaceTime, "W", "San Jose, CA", 37.3382, -121.8863),
            site(
                Provider::FaceTime,
                "M1",
                "Elk Grove Village, IL",
                42.0040,
                -87.9703,
            ),
            site(Provider::FaceTime, "M2", "Columbus, OH", 39.9612, -82.9988),
            site(Provider::FaceTime, "E", "Ashburn, VA", 39.0438, -77.4874),
            site(Provider::Zoom, "W", "San Jose, CA", 37.3382, -121.8863),
            site(Provider::Zoom, "E", "Ashburn, VA", 39.0438, -77.4874),
            site(Provider::Webex, "W", "Santa Clara, CA", 37.3541, -121.9552),
            site(Provider::Webex, "M", "Chicago, IL", 41.8500, -87.6500),
            site(Provider::Webex, "E", "Richmond, VA", 37.5407, -77.4360),
            site(Provider::Teams, "W", "Quincy, WA", 47.2343, -119.8526),
        ];
        SiteRegistry { sites }
    }

    /// A hypothetical geo-distributed fleet (the §4.1 proposed fix): one
    /// site per region for a single provider, used by the placement
    /// ablation.
    pub fn geo_distributed(provider: Provider) -> Self {
        let sites = vec![
            site(provider, "W", "San Jose, CA", 37.3382, -121.8863),
            site(provider, "M", "Dallas, TX", 32.7767, -96.7970),
            site(provider, "E", "Ashburn, VA", 39.0438, -77.4874),
            site(provider, "EU", "Frankfurt, DE", 50.1109, 8.6821),
            site(provider, "AS", "Tokyo, JP", 35.6762, 139.6503),
        ];
        SiteRegistry { sites }
    }

    /// A planet-wide 16-site fleet for the 100k-session sharded runs:
    /// the Table 1 US map extended to every inhabited continent. Every
    /// pair of sites is ≥ ~900 km apart, so the minimum backbone one-way
    /// latency — the conservative-PDES lookahead — stays in the
    /// milliseconds, keeping barrier rounds coarse enough to parallelize.
    pub fn global_fleet() -> Self {
        let sites = vec![
            site(
                Provider::FaceTime,
                "US-W",
                "San Jose, CA",
                37.3382,
                -121.8863,
            ),
            site(
                Provider::FaceTime,
                "US-NW",
                "Seattle, WA",
                47.6062,
                -122.3321,
            ),
            site(Provider::FaceTime, "US-S", "Dallas, TX", 32.7767, -96.7970),
            site(Provider::FaceTime, "US-M", "Chicago, IL", 41.8500, -87.6500),
            site(Provider::FaceTime, "US-E", "Ashburn, VA", 39.0438, -77.4874),
            site(Provider::FaceTime, "US-SE", "Miami, FL", 25.7617, -80.1918),
            site(
                Provider::FaceTime,
                "MX",
                "Mexico City, MX",
                19.4326,
                -99.1332,
            ),
            site(
                Provider::FaceTime,
                "SA",
                "Sao Paulo, BR",
                -23.5505,
                -46.6333,
            ),
            site(Provider::FaceTime, "EU-W", "London, UK", 51.5074, -0.1278),
            site(Provider::FaceTime, "EU-S", "Madrid, ES", 40.4168, -3.7038),
            site(
                Provider::FaceTime,
                "EU-N",
                "Stockholm, SE",
                59.3293,
                18.0686,
            ),
            site(
                Provider::FaceTime,
                "AF",
                "Johannesburg, ZA",
                -26.2041,
                28.0473,
            ),
            site(Provider::FaceTime, "AS-S", "Mumbai, IN", 19.0760, 72.8777),
            site(
                Provider::FaceTime,
                "AS-SE",
                "Singapore, SG",
                1.3521,
                103.8198,
            ),
            site(Provider::FaceTime, "AS-E", "Tokyo, JP", 35.6762, 139.6503),
            site(Provider::FaceTime, "OC", "Sydney, AU", -33.8688, 151.2093),
        ];
        SiteRegistry { sites }
    }

    /// All sites.
    pub fn sites(&self) -> &[ServerSite] {
        &self.sites
    }

    /// Sites owned by `provider`, in registry order (Table 1 column order).
    pub fn for_provider(&self, provider: Provider) -> Vec<ServerSite> {
        self.sites
            .iter()
            .filter(|s| s.provider == provider)
            .copied()
            .collect()
    }

    /// The site of `provider` geographically closest to `point`. This is
    /// the assignment the paper observed: "all platforms consistently assign
    /// a server that is closest to the initiating user."
    pub fn nearest(&self, provider: Provider, point: &GeoPoint) -> Option<ServerSite> {
        self.for_provider(provider).into_iter().min_by(|a, b| {
            let da = a.location().distance_km(point);
            let db = b.location().distance_km(point);
            da.partial_cmp(&db).expect("finite distances")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities;

    #[test]
    fn fleet_counts_match_section_4_1() {
        let reg = SiteRegistry::us_fleet();
        assert_eq!(reg.for_provider(Provider::FaceTime).len(), 4);
        assert_eq!(reg.for_provider(Provider::Zoom).len(), 2);
        assert_eq!(reg.for_provider(Provider::Webex).len(), 3);
        assert_eq!(reg.for_provider(Provider::Teams).len(), 1);
    }

    #[test]
    fn facetime_labels_match_table1_columns() {
        let labels: Vec<_> = SiteRegistry::us_fleet()
            .for_provider(Provider::FaceTime)
            .iter()
            .map(|s| s.label)
            .collect();
        assert_eq!(labels, vec!["W", "M1", "M2", "E"]);
    }

    #[test]
    fn nearest_site_for_west_initiator_is_west() {
        let reg = SiteRegistry::us_fleet();
        let sf = cities::by_name("San Francisco, CA").unwrap();
        for p in Provider::ALL {
            let s = reg.nearest(p, &sf.location).unwrap();
            assert_eq!(s.region(), Region::UsWest, "{p}");
        }
    }

    #[test]
    fn nearest_site_for_east_initiator_prefers_east_when_available() {
        let reg = SiteRegistry::us_fleet();
        let nyc = cities::by_name("New York, NY").unwrap();
        for p in [Provider::FaceTime, Provider::Zoom, Provider::Webex] {
            let s = reg.nearest(p, &nyc.location).unwrap();
            assert_eq!(s.region(), Region::UsEast, "{p}");
        }
        // Teams only has one (Western) US site, so even an Eastern
        // initiator lands on it.
        let t = reg.nearest(Provider::Teams, &nyc.location).unwrap();
        assert_eq!(t.region(), Region::UsWest);
    }

    #[test]
    fn geo_distributed_covers_regions() {
        let reg = SiteRegistry::geo_distributed(Provider::FaceTime);
        let regions: Vec<Region> = reg.sites().iter().map(|s| s.region()).collect();
        assert!(regions.contains(&Region::UsWest));
        assert!(regions.contains(&Region::UsMiddle));
        assert!(regions.contains(&Region::UsEast));
        assert!(regions.contains(&Region::Europe));
        assert!(regions.contains(&Region::AsiaEast));
    }

    #[test]
    fn global_fleet_spans_continents_with_milliseconds_of_lookahead() {
        let reg = SiteRegistry::global_fleet();
        let sites = reg.sites();
        assert_eq!(sites.len(), 16);
        // Distinct labels, so fleet reports are unambiguous.
        let mut labels: Vec<_> = sites.iter().map(|s| s.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 16);
        // Every pair far enough apart that backbone one-way latency (the
        // PDES lookahead) is in the milliseconds.
        let model = crate::propagation::LatencyModel::default();
        let mut min_km = f64::MAX;
        let mut min_one_way_ns = u64::MAX;
        for (i, a) in sites.iter().enumerate() {
            for b in sites.iter().skip(i + 1) {
                let d = a.location().distance_km(&b.location());
                min_km = min_km.min(d);
                let ow = model.one_way(&a.location(), &b.location());
                min_one_way_ns = min_one_way_ns.min(ow.as_nanos());
            }
        }
        assert!(min_km > 900.0, "closest pair only {min_km:.0} km apart");
        assert!(
            min_one_way_ns > 4_000_000,
            "min one-way {min_one_way_ns} ns leaves no usable lookahead"
        );
    }

    #[test]
    fn hyperscale_envelope_covers_the_fleet_target() {
        let cap = SiteCapacity::hyperscale();
        // 16 sites x the envelope must clear the 100k-session /
        // 500k-participant fleet target with rejection headroom.
        assert!(cap.max_sessions as u64 * 16 > 100_000);
        assert!(cap.max_participants as u64 * 16 > 500_000);
        assert!(cap.degraded_admit_frac > 0.0 && cap.degraded_admit_frac <= 1.0);
    }

    #[test]
    fn capacity_utilization_and_headroom_are_consistent() {
        let cap = SiteCapacity {
            max_sessions: 4,
            max_participants: 10,
            degraded_admit_frac: 0.5,
        };
        assert_eq!(cap.utilization(0), 0.0);
        assert_eq!(cap.utilization(5), 0.5);
        assert_eq!(cap.utilization(10), 1.0);
        assert_eq!(cap.headroom(3), 7);
        assert_eq!(cap.headroom(12), 0);
        // A zero-size site is always saturated, never dividing by zero.
        let empty = SiteCapacity {
            max_sessions: 0,
            max_participants: 0,
            degraded_admit_frac: 0.5,
        };
        assert_eq!(empty.utilization(0), 1.0);
    }

    #[test]
    fn provider_overheads_are_positive_and_teams_is_highest() {
        let mut worst = (Provider::FaceTime, 0.0f64);
        for p in Provider::ALL {
            let o = p.server_overhead_ms();
            assert!(o > 0.0);
            if o > worst.1 {
                worst = (p, o);
            }
        }
        assert_eq!(worst.0, Provider::Teams);
    }
}
