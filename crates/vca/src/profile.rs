//! Per-application behaviour profiles.
//!
//! Everything the paper attributes to a specific app, in one place:
//!
//! | app | persona | transport | 2D resolution | 2-user topology |
//! |---|---|---|---|---|
//! | FaceTime (all AVP) | spatial | QUIC-like | — | via server |
//! | FaceTime (mixed) | 2D | RTP (PT as in 2D calls) | 1280×720 | P2P |
//! | Zoom | 2D | RTP | 640×360 | P2P |
//! | Webex | 2D | RTP | 1920×1080 | SFU |
//! | Teams | 2D | RTP | 1280×720 | SFU |
//!
//! Bits-per-pixel factors are calibrated so two-party throughput lands on
//! Figure 4's bands (Webex >4 Mbps, FaceTime-2D ≈2, Zoom ≈1.5).

use visionsim_device::device::{all_vision_pro, Device};
use visionsim_geo::sites::Provider;
use visionsim_transport::rtp::PayloadType;

/// What kind of persona a session delivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersonaType {
    /// Spatial persona (3D, semantic delivery).
    Spatial,
    /// 2D persona (virtual-camera video).
    TwoD,
}

/// Session topology for media.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Direct peer-to-peer.
    P2P,
    /// Through a forwarding server.
    Sfu,
}

/// One application's behaviour profile.
#[derive(Clone, Copy, Debug)]
pub struct AppProfile {
    /// Which provider this is.
    pub provider: Provider,
    /// 2D persona rendering resolution (width, height).
    pub resolution_2d: (u32, u32),
    /// 2D persona frame rate.
    pub fps_2d: f64,
    /// Encoder efficiency: bits per pixel at the default quality.
    pub bits_per_pixel: f64,
    /// RTP payload type for the video stream.
    pub video_pt: PayloadType,
    /// Whether two-party calls go P2P.
    pub p2p_for_two: bool,
    /// Whether the 2D stream rate-adapts to available bandwidth.
    pub rate_adaptive: bool,
}

impl AppProfile {
    /// The profile for `provider`.
    pub fn of(provider: Provider) -> AppProfile {
        match provider {
            Provider::FaceTime => AppProfile {
                provider,
                resolution_2d: (1_280, 720),
                fps_2d: 30.0,
                bits_per_pixel: 0.072,
                video_pt: PayloadType::H264Video,
                p2p_for_two: true,
                rate_adaptive: true,
            },
            Provider::Zoom => AppProfile {
                provider,
                resolution_2d: (640, 360),
                fps_2d: 30.0,
                bits_per_pixel: 0.215,
                video_pt: PayloadType::H264Video,
                p2p_for_two: true,
                rate_adaptive: true,
            },
            Provider::Webex => AppProfile {
                provider,
                resolution_2d: (1_920, 1_080),
                fps_2d: 30.0,
                bits_per_pixel: 0.068,
                video_pt: PayloadType::H264Video,
                p2p_for_two: false,
                rate_adaptive: true,
            },
            Provider::Teams => AppProfile {
                provider,
                resolution_2d: (1_280, 720),
                fps_2d: 30.0,
                bits_per_pixel: 0.090,
                video_pt: PayloadType::H264Video,
                p2p_for_two: false,
                rate_adaptive: true,
            },
        }
    }

    /// The persona type a session with these devices gets: spatial only on
    /// FaceTime with every participant on Vision Pro (§4.1).
    pub fn persona_type(&self, devices: &[Device]) -> PersonaType {
        if self.provider == Provider::FaceTime && all_vision_pro(devices) {
            PersonaType::Spatial
        } else {
            PersonaType::TwoD
        }
    }

    /// Media topology for a session (§4.1): FaceTime and Zoom go P2P for
    /// two users, *except* FaceTime with both users on Vision Pro (spatial
    /// personas always transit the server). Three or more users always use
    /// a server.
    pub fn topology(&self, devices: &[Device]) -> Topology {
        if devices.len() == 2
            && self.p2p_for_two
            && self.persona_type(devices) != PersonaType::Spatial
        {
            Topology::P2P
        } else {
            Topology::Sfu
        }
    }

    /// Default 2D target bitrate, bits/s (resolution × fps × bpp).
    pub fn default_bitrate_2d(&self) -> f64 {
        let (w, h) = self.resolution_2d;
        w as f64 * h as f64 * self.fps_2d * self.bits_per_pixel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_device::device::DeviceKind;

    fn devices(kinds: &[DeviceKind]) -> Vec<Device> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| Device::new(k, &format!("U{}", i + 1)))
            .collect()
    }

    #[test]
    fn default_bitrates_match_figure4_bands() {
        // Webex > 4 Mbps; FaceTime-2D ≈ 2; Zoom ≈ 1.5; Teams between.
        let webex = AppProfile::of(Provider::Webex).default_bitrate_2d() / 1e6;
        let zoom = AppProfile::of(Provider::Zoom).default_bitrate_2d() / 1e6;
        let ft = AppProfile::of(Provider::FaceTime).default_bitrate_2d() / 1e6;
        let teams = AppProfile::of(Provider::Teams).default_bitrate_2d() / 1e6;
        assert!(webex > 4.0, "webex {webex}");
        assert!((1.2..1.8).contains(&zoom), "zoom {zoom}");
        assert!((1.7..2.3).contains(&ft), "facetime {ft}");
        assert!(teams > zoom && teams < webex, "teams {teams}");
    }

    #[test]
    fn spatial_persona_needs_facetime_and_all_avp() {
        let both_avp = devices(&[DeviceKind::VisionPro, DeviceKind::VisionPro]);
        let mixed = devices(&[DeviceKind::VisionPro, DeviceKind::MacBook]);
        assert_eq!(
            AppProfile::of(Provider::FaceTime).persona_type(&both_avp),
            PersonaType::Spatial
        );
        assert_eq!(
            AppProfile::of(Provider::FaceTime).persona_type(&mixed),
            PersonaType::TwoD
        );
        // Other apps never get spatial personas, even all-AVP.
        for p in [Provider::Zoom, Provider::Webex, Provider::Teams] {
            assert_eq!(AppProfile::of(p).persona_type(&both_avp), PersonaType::TwoD);
        }
    }

    #[test]
    fn two_user_topology_matches_section_4_1() {
        let both_avp = devices(&[DeviceKind::VisionPro, DeviceKind::VisionPro]);
        let mixed = devices(&[DeviceKind::VisionPro, DeviceKind::MacBook]);
        // FaceTime mixed and Zoom go P2P at two users.
        assert_eq!(
            AppProfile::of(Provider::FaceTime).topology(&mixed),
            Topology::P2P
        );
        assert_eq!(
            AppProfile::of(Provider::Zoom).topology(&mixed),
            Topology::P2P
        );
        // FaceTime both-AVP does NOT (spatial personas transit the server).
        assert_eq!(
            AppProfile::of(Provider::FaceTime).topology(&both_avp),
            Topology::Sfu
        );
        // Webex and Teams always SFU.
        assert_eq!(
            AppProfile::of(Provider::Webex).topology(&mixed),
            Topology::Sfu
        );
        assert_eq!(
            AppProfile::of(Provider::Teams).topology(&mixed),
            Topology::Sfu
        );
    }

    #[test]
    fn three_users_always_use_a_server() {
        let three = devices(&[
            DeviceKind::VisionPro,
            DeviceKind::MacBook,
            DeviceKind::IPhone,
        ]);
        for p in Provider::ALL {
            assert_eq!(AppProfile::of(p).topology(&three), Topology::Sfu, "{p}");
        }
    }

    #[test]
    fn facetime_pt_is_the_traditional_2d_pt() {
        // §4.1: the PT field "remains consistent with that in traditional
        // 2D video calls on FaceTime".
        assert_eq!(
            AppProfile::of(Provider::FaceTime).video_pt,
            PayloadType::H264Video
        );
    }
}
