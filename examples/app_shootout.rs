//! The Figure 4 scenario as an application: compare all four VCAs (plus
//! FaceTime's two persona modes) on the same two-party call and print the
//! paper's throughput comparison.
//!
//! ```sh
//! cargo run --release --example app_shootout
//! ```

use visionsim::capture::analysis::CaptureAnalysis;
use visionsim::core::time::SimDuration;
use visionsim::device::device::DeviceKind;
use visionsim::geo::{cities, sites::Provider};
use visionsim::transport::classify::WireProtocol;
use visionsim::vca::session::{SessionConfig, SessionRunner};

fn main() {
    let sf = cities::by_name("San Francisco, CA").expect("registry city");
    let nyc = cities::by_name("New York, NY").expect("registry city");

    println!("Two-party telepresence, U1 (Vision Pro, SF) ↔ U2 (NYC), 20 s each:\n");
    println!(
        "{:<38} {:>10} {:>10} {:>12} {:>8}",
        "configuration", "uplink", "downlink", "protocol", "topology"
    );

    let configs: [(&str, Provider, DeviceKind); 5] = [
        (
            "FaceTime spatial (U2: Vision Pro)",
            Provider::FaceTime,
            DeviceKind::VisionPro,
        ),
        (
            "FaceTime 2D (U2: MacBook)",
            Provider::FaceTime,
            DeviceKind::MacBook,
        ),
        ("Zoom (U2: MacBook)", Provider::Zoom, DeviceKind::MacBook),
        ("Webex (U2: MacBook)", Provider::Webex, DeviceKind::MacBook),
        ("Teams (U2: MacBook)", Provider::Teams, DeviceKind::MacBook),
    ];

    for (label, provider, peer) in configs {
        let mut cfg =
            SessionConfig::two_party(provider, (DeviceKind::VisionPro, sf), (peer, nyc), 7);
        cfg.duration = SimDuration::from_secs(20);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let proto = match a.dominant_protocol() {
            WireProtocol::Quic => "QUIC".to_string(),
            WireProtocol::Rtp(pt) => format!("RTP pt={}", pt.code()),
            WireProtocol::Rtcp => "RTCP".to_string(),
            WireProtocol::Unknown => "?".to_string(),
        };
        println!(
            "{:<38} {:>10} {:>10} {:>12} {:>8?}",
            label,
            format!("{}", a.uplink_rate()),
            format!("{}", a.downlink_rate()),
            proto,
            out.topology,
        );
    }

    println!(
        "\nThe counter-intuitive headline of the paper: the 3D spatial persona\n\
         needs *less* bandwidth than every 2D persona, because FaceTime ships\n\
         74 tracked keypoints (semantic communication) instead of video."
    );
}
