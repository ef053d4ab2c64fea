//! Spatial arrangement and gaze dynamics.
//!
//! Where the personas sit in each viewer's space and where the viewer
//! looks determine the visibility pipeline's per-frame decisions — the
//! mechanism behind Figure 6(a)'s distribution shapes (the 5th percentile
//! flattening comes from moments when most personas sit in the gaze
//! periphery).
//!
//! FaceTime arranges spatial personas around a shared virtual table; the
//! viewer's gaze saccades between participants (attention follows the
//! speaker) with idle wander in between.

use visionsim_core::rng::SimRng;
use visionsim_mesh::geometry::Vec3;
use visionsim_render::camera::Viewer;

/// Seating layouts for the remote personas in one viewer's space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeatingLayout {
    /// An arc in front of the viewer at the given radius — FaceTime's
    /// default shared-table arrangement. Personas sit at conversational
    /// spacing (~25 degrees apart), clamped to a comfortable total spread.
    Arc,
    /// A straight line receding from the viewer (the §4.4 occlusion
    /// experiment's arrangement).
    Line,
}

impl SeatingLayout {
    /// Positions for `n` personas, for a viewer at the origin looking
    /// down −Z. `distance_m` is the arc radius or line start.
    pub fn positions(&self, n: usize, distance_m: f32) -> Vec<Vec3> {
        match self {
            SeatingLayout::Arc => {
                // Conversational spacing: ~25° between neighbours, capped
                // at ±50° so the group fits one social circle.
                let half = (12.5 * (n as f32 - 1.0)).min(50.0);
                (0..n)
                    .map(|i| {
                        let frac = if n == 1 {
                            0.5
                        } else {
                            i as f32 / (n - 1) as f32
                        };
                        let angle = (-half + 2.0 * half * frac).to_radians();
                        Vec3::new(distance_m * angle.sin(), 0.0, -distance_m * angle.cos())
                    })
                    .collect()
            }
            SeatingLayout::Line => (0..n)
                .map(|i| Vec3::new(0.0, 0.0, -(distance_m + i as f32)))
                .collect(),
        }
    }
}

/// How long an attention shift takes: the gaze sweeps continuously to the
/// new target rather than teleporting, so personas along the way pass
/// through the fovea — the transient multi-persona-foveal moments that
/// populate Figure 6(b)'s upper percentiles.
const SWEEP_S: f64 = 0.3;

/// Gaze behaviour over a session.
#[derive(Clone, Debug)]
pub struct GazeDynamics {
    /// Personas to look between.
    targets: Vec<Vec3>,
    /// Current target index.
    current: usize,
    /// Seconds until the next attention shift.
    until_shift_s: f64,
    /// Remaining sweep time after a shift (0 = settled).
    sweep_left_s: f64,
    /// Gaze direction the current sweep started from.
    sweep_from: Vec3,
    /// Small wander offset.
    wander: Vec3,
    /// Last returned gaze direction.
    last_gaze: Vec3,
    /// Mean dwell on one target, seconds.
    pub mean_dwell_s: f64,
    /// Optional ambient target (shared-content window) and the
    /// probability an attention shift lands on it.
    ambient: Option<(Vec3, f64)>,
}

impl GazeDynamics {
    /// Dynamics over the given targets (at least one).
    pub fn new(targets: Vec<Vec3>) -> Self {
        assert!(!targets.is_empty(), "gaze needs at least one target");
        let first = targets[0].normalized();
        GazeDynamics {
            targets,
            current: 0,
            until_shift_s: 0.0,
            sweep_left_s: 0.0,
            sweep_from: first,
            wander: Vec3::ZERO,
            last_gaze: first,
            mean_dwell_s: 2.0,
            ambient: None,
        }
    }

    /// Add an ambient shared-content target attended with probability
    /// `prob` per attention shift.
    pub fn with_ambient(mut self, ambient: Vec3, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.ambient = Some((ambient, prob));
        self
    }

    /// Advance one frame (`dt` seconds) and return the viewer for this
    /// frame: head tracks the current target loosely, gaze sweeps toward
    /// it with wander.
    pub fn step(&mut self, dt: f64, rng: &mut SimRng) -> Viewer {
        self.until_shift_s -= dt;
        if self.until_shift_s <= 0.0 {
            // Attention shift: usually to a participant, sometimes to the
            // shared-content window.
            let ambient_hit = match self.ambient {
                Some((_, prob)) => rng.chance(prob),
                None => false,
            };
            let next = if ambient_hit {
                usize::MAX // sentinel: ambient
            } else {
                rng.index(self.targets.len())
            };
            if next != self.current {
                self.sweep_from = self.last_gaze;
                self.sweep_left_s = SWEEP_S;
            }
            self.current = next;
            self.until_shift_s = rng.exponential(self.mean_dwell_s).max(0.2);
        }
        // Ornstein–Uhlenbeck-ish wander around the target direction.
        let pull = 4.0 * dt as f32;
        self.wander = Vec3::new(
            self.wander.x * (1.0 - pull) + rng.normal(0.0, 0.03) as f32 * (dt as f32).sqrt(),
            self.wander.y * (1.0 - pull) + rng.normal(0.0, 0.02) as f32 * (dt as f32).sqrt(),
            0.0,
        );
        let target = if self.current == usize::MAX {
            self.ambient.expect("sentinel implies ambient").0
        } else {
            self.targets[self.current]
        };
        let settled = (target + self.wander - Vec3::ZERO).normalized();
        // (head computed below follows the gaze closely: people turn
        // toward whom they look at, keeping the rest of the group inside
        // the headset's ~100° FOV most of the time.)
        let gaze_dir = if self.sweep_left_s > 0.0 {
            self.sweep_left_s -= dt;
            let progress = (1.0 - self.sweep_left_s / SWEEP_S).clamp(0.0, 1.0) as f32;
            (self.sweep_from * (1.0 - progress) + settled * progress).normalized()
        } else {
            settled
        };
        self.last_gaze = gaze_dir;
        // Head follows gaze with a slight lag (85% blend): the attended
        // persona centres in view while the rest land in the periphery.
        let head_dir = Vec3::new(gaze_dir.x * 0.85, gaze_dir.y * 0.85, gaze_dir.z).normalized();
        Viewer::looking(Vec3::ZERO, head_dir).with_gaze(gaze_dir)
    }

    /// Index of the currently attended target (`usize::MAX` while looking
    /// at the ambient shared-content window).
    pub fn current_target(&self) -> usize {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_positions_are_in_front_at_the_radius() {
        let pts = SeatingLayout::Arc.positions(4, 1.4);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.z < 0.0, "persona behind the viewer: {p:?}");
            assert!((p.length() - 1.4).abs() < 1e-4);
        }
        // Spread left to right.
        assert!(pts[0].x < pts[3].x);
    }

    #[test]
    fn single_persona_sits_center() {
        let pts = SeatingLayout::Arc.positions(1, 1.0);
        assert!(pts[0].x.abs() < 1e-4);
        assert!((pts[0].z + 1.0).abs() < 1e-4);
    }

    #[test]
    fn line_layout_recedes() {
        let pts = SeatingLayout::Line.positions(4, 1.0);
        for w in pts.windows(2) {
            assert!(w[1].z < w[0].z);
            assert_eq!(w[0].x, 0.0);
        }
    }

    #[test]
    fn gaze_shifts_between_targets() {
        let targets = SeatingLayout::Arc.positions(4, 1.4);
        let mut g = GazeDynamics::new(targets);
        let mut rng = SimRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..(90 * 60) {
            g.step(1.0 / 90.0, &mut rng);
            seen.insert(g.current_target());
        }
        assert!(seen.len() >= 3, "gaze never moved: {seen:?}");
    }

    #[test]
    fn viewer_gaze_points_near_the_attended_persona() {
        let targets = SeatingLayout::Arc.positions(3, 1.4);
        let mut g = GazeDynamics::new(targets.clone());
        let mut rng = SimRng::seed_from_u64(2);
        let mut close = 0usize;
        let n = 900;
        for _ in 0..n {
            let v = g.step(1.0 / 90.0, &mut rng);
            let ecc = v.eccentricity_deg(&targets[g.current_target()]);
            if ecc < 10.0 {
                close += 1;
            }
        }
        assert!(close * 2 > n, "gaze mostly off-target: {close}/{n}");
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn rejects_empty_targets() {
        GazeDynamics::new(vec![]);
    }
}
