//! Extensions beyond the measured system — the paper's implied future
//! work, quantified:
//!
//! * [`fec_under_loss`] — what one XOR parity shard per semantic frame
//!   buys under random loss (the §4.3 brittleness fix), and what it costs.
//! * [`beyond_five_users`] — why five spatial personas is the cap: extend
//!   the Figure 6 sweep to 6–8 users and watch the 90 FPS deadline-miss
//!   rate take off.

use crate::report::render_table;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::rng::SimRng;
use visionsim_core::time::SimDuration;
use visionsim_geo::cities;
use visionsim_semantic::fec::{FecAssembler, FecEncoder};
use visionsim_semantic::packetize::{FrameAssembler, Packetizer};
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// One loss-rate point of the FEC experiment.
#[derive(Debug)]
pub struct FecPoint {
    /// Packet loss probability.
    pub loss: f64,
    /// Frame delivery rate without FEC.
    pub plain_delivery: f64,
    /// Frame delivery rate with one parity shard per frame.
    pub fec_delivery: f64,
    /// FEC bandwidth overhead (bytes sent with FEC / without).
    pub overhead: f64,
}

/// Stream `frames` synthetic semantic frames of `payload_len` bytes
/// through an i.i.d.-loss channel, with and without FEC.
pub fn fec_under_loss(frames: usize, payload_len: usize, seed: u64) -> Vec<FecPoint> {
    const MTU: usize = 600; // forces multi-shard frames for realistic k
                            // Each loss point is an independent cell with its own derived stream.
    let losses: Vec<(usize, f64)> = [0.0f64, 0.01, 0.03, 0.05, 0.10, 0.20]
        .into_iter()
        .enumerate()
        .collect();
    par_map(losses, |(li, loss)| {
        {
            let mut rng = SimRng::seed_from_u64(derive_seed(seed, "fec_under_loss", li as u64));
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31) as u8).collect();

            // Plain path.
            let mut packetizer = Packetizer::new();
            let mut plain_asm = FrameAssembler::new();
            let mut plain_bytes = 0usize;
            let mut plain_ok = 0usize;
            for _ in 0..frames {
                for frag in packetizer.split(&payload) {
                    plain_bytes += frag.to_bytes().len();
                    if !rng.chance(loss) && plain_asm.push(frag).is_some() {
                        plain_ok += 1;
                    }
                }
            }

            // FEC path.
            let mut fec_enc = FecEncoder::new();
            let mut fec_asm = FecAssembler::new();
            let mut fec_bytes = 0usize;
            let mut fec_ok = 0usize;
            for _ in 0..frames {
                for shard in fec_enc.protect(&payload, MTU) {
                    fec_bytes += shard.to_bytes().len();
                    if !rng.chance(loss) && fec_asm.push(shard).is_some() {
                        fec_ok += 1;
                    }
                }
            }

            FecPoint {
                loss,
                plain_delivery: plain_ok as f64 / frames as f64,
                fec_delivery: fec_ok as f64 / frames as f64,
                overhead: fec_bytes as f64 / plain_bytes as f64,
            }
        }
    })
}

/// Render the FEC sweep.
pub fn format_fec(points: &[FecPoint]) -> String {
    let header = vec![
        "loss".to_string(),
        "frames ok (plain)".to_string(),
        "frames ok (FEC)".to_string(),
        "FEC overhead".to_string(),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.loss * 100.0),
                format!("{:.1}%", p.plain_delivery * 100.0),
                format!("{:.1}%", p.fec_delivery * 100.0),
                format!("{:.2}x", p.overhead),
            ]
        })
        .collect();
    render_table(
        "Extension: XOR-parity FEC for the semantic stream under random loss",
        &header,
        &rows,
    )
}

/// One row of the beyond-five sweep.
#[derive(Clone, Debug)]
pub struct BeyondFiveRow {
    /// Users in the session.
    pub users: usize,
    /// Mean GPU ms/frame across participants.
    pub gpu_mean_ms: f64,
    /// 95th-percentile GPU ms/frame.
    pub gpu_p95_ms: f64,
    /// Fraction of frames missing the 90 FPS deadline.
    pub miss_rate: f64,
    /// Effective FPS after misses.
    pub effective_fps: f64,
}

/// Memo for the per-roster session kernels: a row is a pure function of
/// `(users, secs, derived seed)`, and the full-session runs behind it are
/// the most expensive kernels in the suite (the 8-user roster alone is
/// seconds of simulated rendering). The cache is process-global and
/// thread-count-safe precisely *because* the rows are pure: whichever
/// cell computes a key first stores the same bytes any other would.
/// Deliberately scoped to this sweep — memoizing kernels exercised by the
/// determinism suite (e.g. `fec_under_loss`) would make its
/// thread-count comparisons vacuous.
type BeyondFiveCache = Mutex<HashMap<(usize, u64, u64), BeyondFiveRow>>;

fn beyond_five_cache() -> &'static BeyondFiveCache {
    static CACHE: OnceLock<BeyondFiveCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Extend the Figure 6 sweep past FaceTime's five-persona cap.
pub fn beyond_five_users(secs: u64, seed: u64) -> Vec<BeyondFiveRow> {
    let cities = cities::us_vantages();
    // One independent session cell per roster size.
    par_map((2..=8usize).collect(), |users| {
        {
            let cell_seed = derive_seed(seed, "beyond_five_users", users as u64);
            let key = (users, secs, cell_seed);
            if let Some(row) = beyond_five_cache().lock().expect("unpoisoned").get(&key) {
                return row.clone();
            }
            let mut cfg = SessionConfig::facetime_avp(users, &cities, cell_seed);
            cfg.duration = SimDuration::from_secs(secs);
            let out = SessionRunner::new(cfg).run();
            // Pool counters across participants.
            let mut gpu = visionsim_core::stats::Percentiles::new();
            let mut missed = 0usize;
            let mut total = 0usize;
            let mut fps_acc = 0.0;
            for c in &out.counters {
                for f in c.frames() {
                    gpu.push(f.gpu_ms);
                    missed += f.missed as usize;
                    total += 1;
                }
                fps_acc += c.effective_fps();
            }
            let row = BeyondFiveRow {
                users,
                gpu_mean_ms: gpu.mean(),
                gpu_p95_ms: gpu.percentile(95.0),
                miss_rate: missed as f64 / total.max(1) as f64,
                effective_fps: fps_acc / out.counters.len() as f64,
            };
            beyond_five_cache()
                .lock()
                .expect("unpoisoned")
                .insert(key, row.clone());
            row
        }
    })
}

/// Render the beyond-five sweep.
pub fn format_beyond_five(rows: &[BeyondFiveRow]) -> String {
    let header = vec![
        "users".to_string(),
        "GPU mean".to_string(),
        "GPU p95".to_string(),
        "deadline misses".to_string(),
        "effective FPS".to_string(),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.users.to_string(),
                format!("{:.2} ms", r.gpu_mean_ms),
                format!("{:.2} ms", r.gpu_p95_ms),
                format!("{:.1}%", r.miss_rate * 100.0),
                format!("{:.0}", r.effective_fps),
            ]
        })
        .collect();
    render_table(
        "Extension: spatial sessions beyond the five-persona cap (11.1 ms deadline)",
        &header,
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_rescues_frames_at_moderate_loss() {
        let points = fec_under_loss(400, 2_000, 91);
        let at5 = points
            .iter()
            .find(|p| (p.loss - 0.05).abs() < 1e-9)
            .unwrap();
        // Plain 2-fragment frames at 5% i.i.d. loss: (0.95)^2 ≈ 0.90.
        assert!(at5.plain_delivery < 0.93, "plain {}", at5.plain_delivery);
        // FEC (k=4 shards of 600 B + parity) recovers single losses:
        // analytically ≈ 0.977.
        assert!(
            at5.fec_delivery > at5.plain_delivery + 0.04,
            "FEC {} vs plain {}",
            at5.fec_delivery,
            at5.plain_delivery
        );
        // At zero loss both are perfect and FEC costs its parity.
        let at0 = &points[0];
        assert_eq!(at0.plain_delivery, 1.0);
        assert_eq!(at0.fec_delivery, 1.0);
        assert!(at0.overhead > 1.1 && at0.overhead < 1.6, "{}", at0.overhead);
    }

    #[test]
    fn fec_cannot_save_heavy_loss() {
        let points = fec_under_loss(300, 2_000, 92);
        let at20 = points.last().unwrap();
        assert!(at20.fec_delivery < 0.9, "20% loss should still hurt");
    }

    #[test]
    fn deadline_misses_take_off_beyond_five() {
        let rows = beyond_five_users(6, 93);
        let at5 = rows.iter().find(|r| r.users == 5).unwrap();
        let at8 = rows.iter().find(|r| r.users == 8).unwrap();
        // Five users: close to the deadline but mostly holding 90 FPS.
        assert!(at5.miss_rate < 0.2, "5u miss {}", at5.miss_rate);
        // Eight users: substantially degraded.
        assert!(
            at8.miss_rate > at5.miss_rate + 0.1,
            "8u {} vs 5u {}",
            at8.miss_rate,
            at5.miss_rate
        );
        assert!(at8.effective_fps < 85.0, "8u fps {}", at8.effective_fps);
        // GPU load grows monotonically-ish.
        assert!(at8.gpu_mean_ms > at5.gpu_mean_ms);
    }

    #[test]
    fn formatting_contains_all_rows() {
        let points = fec_under_loss(50, 1_500, 94);
        assert!(format_fec(&points).lines().count() >= points.len() + 3);
        // Same (secs, seed) as `deadline_misses_take_off_beyond_five`, so
        // whichever test runs second gets the memoized rows for free.
        let rows = beyond_five_users(6, 93);
        assert!(format_beyond_five(&rows).contains("8"));
    }
}
