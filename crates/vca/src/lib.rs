//! # visionsim-vca
//!
//! Models of the four videoconferencing applications the paper measures —
//! Apple FaceTime, Zoom, Cisco Webex, Microsoft Teams — and the session
//! engine that runs a full telepresence call over the simulated network.
//!
//! * [`profile`] — per-application behaviour: persona type, transport
//!   (RTP vs QUIC-like), 2D rendering resolution, P2P-vs-SFU topology
//!   policy, rate adaptation capability.
//! * [`encoder`] — the 2D-persona video encoder rate model (resolution ×
//!   frame rate × per-app bits-per-pixel, I/P frame structure, motion
//!   jitter) with a quality ladder for adaptation.
//! * [`adaptation`] — receiver-feedback-driven rate control for 2D video,
//!   and the persona availability state machine that produces the §4.3
//!   "poor connection" cliff for the non-adaptable semantic stream.
//! * [`server`] — SFU forwarding servers and the server-assignment
//!   policies (§4.1: nearest-to-initiator; plus the paper's proposed
//!   geo-distributed alternative as an ablation).
//! * [`scene`] — where participants sit and where they look: seating
//!   layouts and gaze dynamics driving the Figure 6 rendering load.
//! * [`session`] — the session runner: capture → encode → packetize →
//!   transport framing → network → SFU forward → reassemble → decode →
//!   render, with AP taps recording everything for `visionsim-capture`.

pub mod adaptation;
pub mod encoder;
pub mod fleet;
pub mod profile;
pub mod scene;
pub mod server;
pub mod session;

pub use adaptation::{PersonaAvailability, RateController};
pub use encoder::{VideoEncoder, VideoEncoderConfig};
pub use fleet::{FleetConfig, FleetOutcome, SiteReport};
pub use profile::{AppProfile, PersonaType};
pub use scene::{GazeDynamics, SeatingLayout};
pub use server::{AssignmentPolicy, ServerAssignment};
pub use session::{SessionConfig, SessionOutcome, SessionRunner};
