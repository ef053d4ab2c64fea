//! # visionsim-net
//!
//! A deterministic discrete-event packet network. This is the substrate the
//! telepresence sessions run over and the vantage point the measurement
//! tooling observes from, replacing the paper's physical testbed (two WiFi
//! APs with Wireshark, Linux `tc` for impairment injection, TCP pings to
//! provider servers).
//!
//! Design notes (following the event-driven, sans-IO style of embedded
//! network stacks):
//!
//! * No sockets, no threads, no wall clock — a [`Network`] owns an event
//!   queue over virtual time and is advanced explicitly with
//!   [`Network::run_until`].
//! * Links are simplex, with serialization at a configurable rate, FIFO
//!   drop-tail queues, propagation delay, and `tc netem`-style impairments
//!   (extra delay, jitter, random and Gilbert–Elliott burst loss, link
//!   down, token-bucket shaping).
//! * Packets are source-routed along the lowest-latency path (Dijkstra) at
//!   send time; topology changes invalidate the route cache.
//! * Any node can host a *tap* — the AP-side Wireshark analogue — which
//!   records every packet transiting the node for later flow analysis.

pub mod fault;
pub mod link;
pub mod netem;
pub mod network;
pub mod packet;
pub mod probe;
pub mod shaper;
pub mod tap;
pub mod xshard;

pub use fault::{apply_to_netem, FaultEvent, FaultKind, FaultPlan, GeConfig, GilbertElliott};
pub use link::{LinkConfig, LinkId};
pub use netem::{Netem, TokenBucket};
pub use network::{Delivered, Network, NodeId};
pub use packet::{Packet, PortPair, IP_UDP_OVERHEAD_BYTES};
pub use probe::{AnycastProbe, RttProber};
pub use shaper::{LinkShaper, QueueLimit, ShaperConfig, ShaperVerdict};
pub use tap::{TapId, TapRecord};
pub use xshard::{LinkMatrix, SiteEgress};
