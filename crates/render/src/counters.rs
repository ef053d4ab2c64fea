//! Per-frame counters — the RealityKit performance-tool analogue.
//!
//! The paper reads rendered-triangle counts and CPU/GPU frame times from
//! Apple's RealityKit tooling over a paired Xcode session. The simulator
//! exposes the same counters, accumulated per session so the experiment
//! runners can pull Figure 5/6-style distributions.

use crate::cost::FrameCost;
use visionsim_core::stats::{BoxplotSummary, Percentiles};
use visionsim_core::time::{SimDuration, SimTime};

/// The 90 FPS frame deadline (~11.1 ms).
pub const FRAME_DEADLINE: SimDuration = SimDuration::FRAME_90FPS;

/// Counters for one frame.
#[derive(Clone, Copy, Debug)]
pub struct FrameCounters {
    /// Frame timestamp.
    pub at: SimTime,
    /// Triangles rendered.
    pub triangles: usize,
    /// GPU time, ms.
    pub gpu_ms: f64,
    /// CPU time, ms.
    pub cpu_ms: f64,
    /// Deadline missed?
    pub missed: bool,
}

/// Session-long accumulation.
#[derive(Clone, Debug, Default)]
pub struct SessionCounters {
    frames: Vec<FrameCounters>,
}

impl SessionCounters {
    /// An empty accumulator.
    pub fn new() -> Self {
        SessionCounters::default()
    }

    /// Record one frame.
    pub fn record(&mut self, at: SimTime, cost: &FrameCost) {
        self.frames.push(FrameCounters {
            at,
            triangles: cost.triangles,
            gpu_ms: cost.gpu_ms,
            cpu_ms: cost.cpu_ms,
            missed: cost.missed_deadline,
        });
    }

    /// Number of frames recorded.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// All frames.
    pub fn frames(&self) -> &[FrameCounters] {
        &self.frames
    }

    /// Fraction of frames that missed the deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().filter(|f| f.missed).count() as f64 / self.frames.len() as f64
    }

    /// Effective FPS given the deadline misses (a missed frame displays at
    /// the next vsync, halving its rate contribution).
    pub fn effective_fps(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let target = 1.0 / FRAME_DEADLINE.as_secs_f64();
        let penalty: f64 = self
            .frames
            .iter()
            .map(|f| if f.missed { 0.5 } else { 1.0 })
            .sum::<f64>()
            / self.frames.len() as f64;
        target * penalty
    }

    /// Boxplot of rendered triangles (Figure 6a's unit).
    pub fn triangles_boxplot(&self) -> BoxplotSummary {
        let mut p =
            Percentiles::from_samples(self.frames.iter().map(|f| f.triangles as f64).collect());
        p.boxplot()
    }

    /// Boxplot of GPU ms (Figures 5b / 6b).
    pub fn gpu_boxplot(&self) -> BoxplotSummary {
        let mut p = Percentiles::from_samples(self.frames.iter().map(|f| f.gpu_ms).collect());
        p.boxplot()
    }

    /// Boxplot of CPU ms (Figure 6b).
    pub fn cpu_boxplot(&self) -> BoxplotSummary {
        let mut p = Percentiles::from_samples(self.frames.iter().map(|f| f.cpu_ms).collect());
        p.boxplot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(gpu: f64, cpu: f64, tris: usize) -> FrameCost {
        FrameCost {
            gpu_ms: gpu,
            cpu_ms: cpu,
            triangles: tris,
            missed_deadline: gpu.max(cpu) > FRAME_DEADLINE.as_millis_f64(),
        }
    }

    #[test]
    fn deadline_is_11_1_ms() {
        assert!((FRAME_DEADLINE.as_millis_f64() - 11.111).abs() < 0.001);
    }

    #[test]
    fn records_and_counts() {
        let mut s = SessionCounters::new();
        for i in 0..10 {
            s.record(SimTime::from_millis(i * 11), &cost(6.0, 5.0, 78_030));
        }
        assert_eq!(s.frame_count(), 10);
        assert_eq!(s.miss_rate(), 0.0);
        assert!((s.effective_fps() - 90.0).abs() < 0.1);
    }

    #[test]
    fn misses_reduce_effective_fps() {
        let mut s = SessionCounters::new();
        for i in 0..10 {
            let gpu = if i % 2 == 0 { 12.0 } else { 6.0 };
            s.record(SimTime::from_millis(i * 11), &cost(gpu, 5.0, 50_000));
        }
        assert_eq!(s.miss_rate(), 0.5);
        assert!(s.effective_fps() < 70.0);
    }

    #[test]
    fn boxplots_summarize_distributions() {
        let mut s = SessionCounters::new();
        for i in 0..100 {
            s.record(
                SimTime::from_millis(i * 11),
                &cost(5.0 + (i % 10) as f64 * 0.2, 5.0, 40_000 + i as usize * 100),
            );
        }
        let g = s.gpu_boxplot();
        assert!(g.p5 <= g.median && g.median <= g.p95);
        let t = s.triangles_boxplot();
        assert!(t.mean > 40_000.0);
    }

    #[test]
    fn empty_session_is_safe() {
        let s = SessionCounters::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.effective_fps(), 0.0);
    }
}
