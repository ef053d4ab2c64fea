//! The §4.3 detective story as an application: which of the three 3D
//! delivery strategies does the spatial persona use? Reproduce all three
//! pieces of evidence —
//!
//! 1. direct mesh streaming would need ~two orders of magnitude more
//!    bandwidth than observed;
//! 2. display latency is independent of network delay, ruling out
//!    sender-side pre-rendered video;
//! 3. a compressed 74-keypoint stream matches the observed rate almost
//!    exactly — semantic communication.
//!
//! ```sh
//! cargo run --release --example dissect_delivery
//! ```

use visionsim::experiments::{display_latency, keypoint_rate, mesh_streaming};

fn main() {
    println!("What is being delivered for the spatial persona? (observed: ~0.67 Mbps)\n");

    println!("Hypothesis 1 — direct 3D mesh streaming:");
    let mesh = mesh_streaming::run(6, 2024);
    print!("{mesh}");
    println!(
        "  ⇒ rejected: the observed stream is ~{:.0}x too small.\n",
        mesh.gap_factor()
    );

    println!("Hypothesis 2 — sender-side pre-rendered 2D video:");
    let latency = display_latency::run(200, 2024);
    println!("{latency}");
    println!(
        "  ⇒ rejected: the measured difference stays <16 ms (worst {:.1} ms)\n\
         \x20   at every injected delay; remote rendering would track the RTT.\n",
        latency.worst_local_ms()
    );

    println!("Hypothesis 3 — semantic communication (keypoints):");
    let kp = keypoint_rate::run(2_000, 2024);
    print!("{kp}");
    println!(
        "  ⇒ supported: the keypoint stream reproduces the observed rate.\n\
         \x20   The persona mesh is exchanged once at setup and deformed\n\
         \x20   locally from 74 tracked keypoints per frame."
    );
}
