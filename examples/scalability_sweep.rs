//! The Figure 6 scalability sweep as an application: grow a FaceTime
//! spatial session from 2 to 5 Vision Pro users and watch rendering load
//! approach the 11.1 ms / 90 FPS deadline while downlink bandwidth climbs
//! linearly — the paper's explanation for the five-persona cap.
//!
//! ```sh
//! cargo run --release --example scalability_sweep
//! ```

use visionsim::experiments::figure6;
use visionsim::render::counters::FRAME_DEADLINE;

fn main() {
    println!("FaceTime spatial sessions, 2 → 5 Vision Pro users (20 s each)...\n");
    let fig = figure6::run(20, 2024);
    println!("{fig}");

    println!(
        "\nHeadroom against the {:.1} ms frame deadline:",
        FRAME_DEADLINE.as_millis_f64()
    );
    for row in &fig.rows {
        let headroom = FRAME_DEADLINE.as_millis_f64() - row.gpu_ms.p95;
        let bar_len = (row.gpu_ms.p95 / FRAME_DEADLINE.as_millis_f64() * 40.0) as usize;
        println!(
            "  {} users: GPU p95 {:>5.2} ms  [{}{}] {:.1} ms left",
            row.users,
            row.gpu_ms.p95,
            "#".repeat(bar_len.min(40)),
            " ".repeat(40usize.saturating_sub(bar_len)),
            headroom
        );
    }
    println!(
        "\nAt five users the 95th-percentile GPU time is within ~2 ms of the\n\
         deadline — the likely reason FaceTime caps spatial personas at five\n\
         (§4.5). Downlink grows linearly because the SFU only forwards."
    );
}
