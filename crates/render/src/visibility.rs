//! The visibility-aware optimization pipeline (§4.4).
//!
//! For each remote persona the pipeline picks a quality class:
//!
//! | class | trigger | Figure 5 anchor |
//! |---|---|---|
//! | `Full` | in viewport, foveal, near | 78,030 triangles |
//! | `Distance` | viewing distance > 3 m | 45,036 (−42%) |
//! | `Peripheral` | eccentricity > fovea | 21,036 (−73%) |
//! | `Proxy` | outside the viewport | 36 (−59% GPU time) |
//!
//! When several triggers apply, the coarsest class wins. Occlusion culling
//! exists as a flag because the paper *tests for it and finds it absent* —
//! the default configuration mirrors the measured system (off), and the
//! ablation benches turn it on to quantify what Apple left on the table.

use crate::camera::{Viewer, FOVEA_DEG};
use visionsim_mesh::geometry::Vec3;
use visionsim_mesh::lod::LodChain;

/// Distance beyond which the distance-aware LOD engages (§4.4: "beyond
/// three meters, a lower quality spatial persona is displayed").
pub const DISTANCE_LOD_M: f32 = 3.0;

/// Which optimizations are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VisibilityFlags {
    /// Viewport adaptation (cull to a 36-triangle proxy off-screen).
    pub viewport: bool,
    /// Foveated rendering (peripheral LOD).
    pub foveated: bool,
    /// Distance-aware LOD.
    pub distance: bool,
    /// Occlusion culling (NOT adopted by the measured system).
    pub occlusion: bool,
}

impl VisibilityFlags {
    /// What the paper measured on Vision Pro: viewport + foveation +
    /// distance on, occlusion off.
    pub fn vision_pro() -> Self {
        VisibilityFlags {
            viewport: true,
            foveated: true,
            distance: true,
            occlusion: false,
        }
    }

    /// Everything off (the Figure 5 baseline behaviourally — a close,
    /// centred, foveal persona renders Full either way).
    pub fn none() -> Self {
        VisibilityFlags {
            viewport: false,
            foveated: false,
            distance: false,
            occlusion: false,
        }
    }
}

/// Quality class selected for one persona in one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LodClass {
    /// Full detail.
    Full,
    /// Distance-reduced.
    Distance,
    /// Peripheral (foveated).
    Peripheral,
    /// Out-of-viewport proxy.
    Proxy,
}

impl LodClass {
    /// Index into a 4-level LOD chain (full, distance, peripheral, proxy).
    pub fn chain_level(&self) -> usize {
        match self {
            LodClass::Full => 0,
            LodClass::Distance => 1,
            LodClass::Peripheral => 2,
            LodClass::Proxy => 3,
        }
    }
}

/// A remote persona placed in the viewer's space.
#[derive(Clone, Debug)]
pub struct PersonaInstance {
    /// Persona (head) center position.
    pub position: Vec3,
    /// Bounding radius, metres.
    pub radius: f32,
    /// Triangle counts per quality class: [full, distance, peripheral,
    /// proxy].
    pub lod_triangles: [usize; 4],
}

impl PersonaInstance {
    /// The paper's persona LOD ladder (78,030 / 45,036 / 21,036 / 36).
    pub fn paper_ladder(position: Vec3) -> Self {
        PersonaInstance {
            position,
            radius: 0.15,
            lod_triangles: [78_030, 45_036, 21_036, 36],
        }
    }

    /// Build from a real [`LodChain`] (expects ≥ 4 levels; missing levels
    /// clamp to the coarsest).
    pub fn from_chain(position: Vec3, radius: f32, chain: &LodChain) -> Self {
        let counts = chain.triangle_counts();
        let level = |i: usize| *counts.get(i).unwrap_or(counts.last().expect("non-empty"));
        PersonaInstance {
            position,
            radius,
            lod_triangles: [level(0), level(1), level(2), level(3)],
        }
    }

    /// Triangles rendered at a given class.
    pub fn triangles_at(&self, class: LodClass) -> usize {
        self.lod_triangles[class.chain_level()]
    }
}

/// Per-persona pipeline decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PersonaRender {
    /// Chosen class.
    pub class: LodClass,
    /// Triangles rendered.
    pub triangles: usize,
    /// Viewing distance, metres.
    pub distance_m: f32,
    /// Gaze eccentricity, degrees.
    pub eccentricity_deg: f32,
    /// Screen-coverage factor relative to a persona at 1 m (inverse-square
    /// falloff, clamped) — the fragment-load input to the cost model.
    pub coverage: f32,
    /// Whether the persona was skipped entirely by occlusion culling.
    pub occluded: bool,
}

/// The visibility pipeline.
#[derive(Clone, Copy, Debug)]
pub struct VisibilityPipeline {
    /// Active optimizations.
    pub flags: VisibilityFlags,
    /// Foveal half-angle, degrees.
    pub fovea_deg: f32,
    /// Distance threshold, metres.
    pub distance_m: f32,
}

impl VisibilityPipeline {
    /// A pipeline with the given flags and the paper's thresholds.
    pub fn new(flags: VisibilityFlags) -> Self {
        VisibilityPipeline {
            flags,
            fovea_deg: FOVEA_DEG,
            distance_m: DISTANCE_LOD_M,
        }
    }

    /// Does the segment viewer→target pass within any *other* persona's
    /// bounding sphere? (Cheap sphere-ray occlusion.)
    fn is_occluded(viewer: &Viewer, target: &PersonaInstance, others: &[PersonaInstance]) -> bool {
        let to_target = target.position - viewer.position;
        let dist = to_target.length();
        if dist <= f32::EPSILON {
            return false;
        }
        let dir = to_target * (1.0 / dist);
        for o in others {
            if std::ptr::eq(o, target) {
                continue;
            }
            let to_o = o.position - viewer.position;
            let t = to_o.dot(&dir);
            // Occluder must lie strictly between viewer and target.
            if t <= 0.0 || t >= dist - target.radius {
                continue;
            }
            let closest = viewer.position + dir * t;
            if closest.distance(&o.position) < o.radius {
                return true;
            }
        }
        false
    }

    /// Evaluate the pipeline for every persona in the scene.
    pub fn evaluate(&self, viewer: &Viewer, personas: &[PersonaInstance]) -> Vec<PersonaRender> {
        personas
            .iter()
            .map(|p| {
                let distance_m = viewer.distance_to(&p.position);
                let eccentricity_deg = viewer.eccentricity_deg(&p.position);
                let visible = viewer.sees(&p.position, p.radius);
                let occluded = self.flags.occlusion && Self::is_occluded(viewer, p, personas);

                let mut class = LodClass::Full;
                if self.flags.distance && distance_m > self.distance_m {
                    class = class.max(LodClass::Distance);
                }
                if self.flags.foveated && eccentricity_deg > self.fovea_deg {
                    class = class.max(LodClass::Peripheral);
                }
                if (self.flags.viewport && !visible) || occluded {
                    class = class.max(LodClass::Proxy);
                }
                let coverage = if class == LodClass::Proxy {
                    0.0
                } else {
                    (1.0 / distance_m.max(0.3).powi(2)).min(4.0)
                };
                PersonaRender {
                    class,
                    triangles: p.triangles_at(class),
                    distance_m,
                    eccentricity_deg,
                    coverage,
                    occluded,
                }
            })
            .collect()
    }

    /// Total triangles across a scene evaluation.
    pub fn total_triangles(renders: &[PersonaRender]) -> usize {
        renders.iter().map(|r| r.triangles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viewer() -> Viewer {
        Viewer::looking(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0))
    }

    fn persona_at(x: f32, z: f32) -> PersonaInstance {
        PersonaInstance::paper_ladder(Vec3::new(x, 0.0, z))
    }

    #[test]
    fn baseline_close_centred_is_full_detail() {
        // Figure 5 BL: staring from one metre.
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let r = pipe.evaluate(&viewer(), &[persona_at(0.0, -1.0)]);
        assert_eq!(r[0].class, LodClass::Full);
        assert_eq!(r[0].triangles, 78_030);
    }

    #[test]
    fn viewport_adaptation_drops_to_proxy() {
        // Figure 5 V: head turned away → 36 triangles.
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let r = pipe.evaluate(&viewer(), &[persona_at(0.0, 2.0)]); // behind
        assert_eq!(r[0].class, LodClass::Proxy);
        assert_eq!(r[0].triangles, 36);
        assert_eq!(r[0].coverage, 0.0);
    }

    #[test]
    fn foveation_reduces_peripheral_personas() {
        // Figure 5 F: persona at the viewport corner while gazing away.
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let v = viewer().with_gaze(Vec3::new(0.7, 0.0, -1.0)); // gaze right
        let r = pipe.evaluate(&v, &[persona_at(-0.8, -1.0)]); // persona left
        assert_eq!(r[0].class, LodClass::Peripheral);
        assert_eq!(r[0].triangles, 21_036);
    }

    #[test]
    fn distance_lod_engages_beyond_three_metres() {
        // Figure 5 D.
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let near = pipe.evaluate(&viewer(), &[persona_at(0.0, -2.9)]);
        let far = pipe.evaluate(&viewer(), &[persona_at(0.0, -3.2)]);
        assert_eq!(near[0].class, LodClass::Full);
        assert_eq!(far[0].class, LodClass::Distance);
        assert_eq!(far[0].triangles, 45_036);
    }

    #[test]
    fn coarsest_applicable_class_wins() {
        // Far AND peripheral → peripheral (coarser than distance).
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let v = viewer().with_gaze(Vec3::new(0.9, 0.0, -0.4));
        let r = pipe.evaluate(&v, &[persona_at(-2.0, -4.0)]);
        assert_eq!(r[0].class, LodClass::Peripheral);
    }

    #[test]
    fn disabled_flags_do_nothing() {
        let pipe = VisibilityPipeline::new(VisibilityFlags::none());
        let v = viewer().with_gaze(Vec3::new(0.9, 0.0, -0.4));
        // Far, peripheral, even behind: still Full with everything off.
        for p in [
            persona_at(0.0, -8.0),
            persona_at(-3.0, -1.0),
            persona_at(0.0, 3.0),
        ] {
            let r = pipe.evaluate(&v, &[p]);
            assert_eq!(r[0].class, LodClass::Full);
        }
    }

    #[test]
    fn occlusion_is_off_in_the_measured_configuration() {
        // §4.4: U2..U5 in a line; U1 in front. Without occlusion culling
        // the hidden personas still render at full class.
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let line: Vec<PersonaInstance> = (1..=4).map(|i| persona_at(0.0, -(i as f32))).collect();
        let r = pipe.evaluate(&viewer(), &line);
        let total = VisibilityPipeline::total_triangles(&r);
        // All four render (U2 near-full; the rest behind it still counted).
        assert!(total > 3 * 21_036, "hidden personas were culled: {total}");
        assert!(r.iter().all(|x| !x.occluded));
    }

    #[test]
    fn occlusion_flag_culls_hidden_personas() {
        let mut flags = VisibilityFlags::vision_pro();
        flags.occlusion = true;
        let pipe = VisibilityPipeline::new(flags);
        let line: Vec<PersonaInstance> = (1..=4).map(|i| persona_at(0.0, -(i as f32))).collect();
        let r = pipe.evaluate(&viewer(), &line);
        // The nearest persona renders; the ones behind it collapse to proxy.
        assert_eq!(r[0].class, LodClass::Full);
        assert!(r[1..]
            .iter()
            .all(|x| x.occluded && x.class == LodClass::Proxy));
    }

    #[test]
    fn coverage_falls_with_distance_squared() {
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let near = pipe.evaluate(&viewer(), &[persona_at(0.0, -1.0)])[0].coverage;
        let far = pipe.evaluate(&viewer(), &[persona_at(0.0, -2.0)])[0].coverage;
        assert!((near / far - 4.0).abs() < 0.01, "{near} vs {far}");
    }

    #[test]
    fn from_chain_uses_real_counts() {
        use visionsim_mesh::generate::head_mesh;
        let mesh = head_mesh(10_000, 1);
        let chain = LodChain::build(&mesh, &[5_000, 2_000, 36]);
        let p = PersonaInstance::from_chain(Vec3::new(0.0, 0.0, -1.0), 0.15, &chain);
        assert_eq!(p.lod_triangles[0], 10_000);
        assert!(p.lod_triangles[1] > p.lod_triangles[2]);
    }
}
