//! # visionsim-experiments
//!
//! One runner per table/figure of the paper, plus the §4.3 inline
//! experiments and the ablations DESIGN.md calls out. Every runner
//! produces a structured result implementing `Display` (printing rows in
//! the paper's presentation) and is exercised by a smoke test asserting
//! the paper's qualitative shape.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — server RTT matrix |
//! | [`figure4`] | Figure 4 — two-party throughput per app |
//! | [`figure5`] | Figure 5 — visibility-aware optimizations |
//! | [`figure6`] | Figure 6 — scalability, 2–5 users |
//! | [`mesh_streaming`] | §4.3 direct-3D-streaming bandwidth floor |
//! | [`display_latency`] | §4.3 display-latency vs injected delay |
//! | [`keypoint_rate`] | §4.3 keypoint-stream bandwidth |
//! | [`rate_adaptation`] | §4.3 the 700 kbps availability cliff |
//! | [`protocols`] | §4.1 protocol findings + anycast check |
//! | [`ablations`] | design-choice ablations (coder, delta mode, placement, semantic culling) |
//! | [`extensions`] | beyond the measured system: FEC for the semantic stream, >5-user scaling |
//! | [`motion_to_photon`] | end-to-end latency vs placement against the 100 ms QoE threshold |
//! | [`discovery`] | the §4.1 methodology itself: fleet discovery from randomized sessions |
//! | [`resilience`] | chaos drill: mid-session faults × severity × app, recovery metrics |
//! | [`congestion`] | closed-loop congestion: fairness, cross-traffic, contention, handover |
//! | [`storms`] | failover storms: admission control, breakers, reconnect convergence |
//! | [`fleet`] | 100k-session global fleet on the sharded conservative-PDES engine |

pub mod ablations;
pub mod congestion;
pub mod discovery;
pub mod display_latency;
pub mod extensions;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod fleet;
pub mod harness;
pub mod keypoint_rate;
pub mod mesh_streaming;
pub mod motion_to_photon;
pub mod protocols;
pub mod rate_adaptation;
pub mod report;
pub mod resilience;
pub mod storms;
pub mod table1;
