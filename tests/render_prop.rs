//! Randomized property tests for the visibility pipeline and cost model,
//! driven by deterministic SimRng cases.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::mesh::geometry::Vec3;
use visionsim::render::camera::Viewer;
use visionsim::render::cost::CostModel;
use visionsim::render::visibility::{
    LodClass, PersonaInstance, VisibilityFlags, VisibilityPipeline,
};

const CASES: u64 = 256;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x004E_4DE4, label, i))
}

fn arb_dir(rng: &mut SimRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.uniform_range(-1.0, 1.0) as f32,
            rng.uniform_range(-1.0, 1.0) as f32,
            rng.uniform_range(-1.0, 1.0) as f32,
        );
        if v.length() > 0.1 {
            return v.normalized();
        }
    }
}

fn arb_pos(rng: &mut SimRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.uniform_range(-8.0, 8.0) as f32,
            rng.uniform_range(-2.0, 2.0) as f32,
            rng.uniform_range(-8.0, 8.0) as f32,
        );
        if v.length() > 0.4 {
            return v;
        }
    }
}

/// More optimizations never render more triangles than fewer.
#[test]
fn flags_are_monotone() {
    for i in 0..CASES {
        let mut rng = case_rng("flags_monotone", i);
        let forward = arb_dir(&mut rng);
        let gaze = arb_dir(&mut rng);
        let pos = arb_pos(&mut rng);
        let viewer = Viewer::looking(Vec3::ZERO, forward).with_gaze(gaze);
        let persona = [PersonaInstance::paper_ladder(pos)];
        let none = VisibilityPipeline::new(VisibilityFlags::none()).evaluate(&viewer, &persona);
        let all =
            VisibilityPipeline::new(VisibilityFlags::vision_pro()).evaluate(&viewer, &persona);
        assert!(all[0].triangles <= none[0].triangles);
        assert_eq!(none[0].class, LodClass::Full);
    }
}

/// The chosen class is consistent with the geometric predicates.
#[test]
fn class_matches_geometry() {
    for i in 0..CASES {
        let mut rng = case_rng("class_geometry", i);
        let forward = arb_dir(&mut rng);
        let gaze = arb_dir(&mut rng);
        let pos = arb_pos(&mut rng);
        let viewer = Viewer::looking(Vec3::ZERO, forward).with_gaze(gaze);
        let persona = PersonaInstance::paper_ladder(pos);
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let r = &pipe.evaluate(&viewer, std::slice::from_ref(&persona))[0];
        let visible = viewer.sees(&persona.position, persona.radius);
        if !visible {
            assert_eq!(r.class, LodClass::Proxy);
        } else if r.class == LodClass::Full {
            assert!(r.distance_m <= pipe.distance_m + 1e-4);
            assert!(r.eccentricity_deg <= pipe.fovea_deg + 1e-3);
        }
        // Coverage is zero exactly for proxies.
        assert_eq!(r.coverage == 0.0, r.class == LodClass::Proxy);
    }
}

/// GPU cost is monotone in the render set: adding a persona never
/// reduces frame cost.
#[test]
fn cost_is_monotone_in_personas() {
    for i in 0..CASES {
        let mut rng = case_rng("cost_monotone", i);
        let n = rng.uniform_u64(1, 5) as usize;
        let positions: Vec<Vec3> = (0..n).map(|_| arb_pos(&mut rng)).collect();
        let viewer = Viewer::looking(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0));
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let model = CostModel::default();
        let mut last = 0.0;
        for k in 1..=positions.len() {
            let personas: Vec<PersonaInstance> = positions[..k]
                .iter()
                .map(|&p| PersonaInstance::paper_ladder(p))
                .collect();
            let renders = pipe.evaluate(&viewer, &personas);
            let gpu = model.gpu_ms_exact(&renders);
            assert!(gpu >= last - 1e-9, "cost decreased: {gpu} < {last}");
            last = gpu;
        }
    }
}

/// Frame costs are always positive and noise stays multiplicative.
#[test]
fn frame_costs_positive() {
    for i in 0..CASES {
        let mut rng = case_rng("frame_costs", i);
        let pos = arb_pos(&mut rng);
        let rx = rng.uniform_u64(0, 99_999) as usize;
        let seed = rng.next_u64();
        let viewer = Viewer::looking(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0));
        let pipe = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        let model = CostModel::default();
        let renders = pipe.evaluate(&viewer, &[PersonaInstance::paper_ladder(pos)]);
        let mut noise_rng = SimRng::seed_from_u64(seed);
        let cost = model.frame(&renders, rx, &mut noise_rng);
        assert!(cost.gpu_ms > 0.0);
        assert!(cost.cpu_ms > 0.0);
        let exact = model.gpu_ms_exact(&renders);
        assert!((cost.gpu_ms - exact).abs() < exact * 0.2 + 0.1);
    }
}

/// Eccentricity never exceeds the view angle + gaze-head divergence
/// (rough bound) and both are within [0, 180].
#[test]
fn angles_are_bounded() {
    for i in 0..CASES {
        let mut rng = case_rng("angles", i);
        let forward = arb_dir(&mut rng);
        let gaze = arb_dir(&mut rng);
        let pos = arb_pos(&mut rng);
        let viewer = Viewer::looking(Vec3::ZERO, forward).with_gaze(gaze);
        let va = viewer.view_angle_deg(&pos);
        let ec = viewer.eccentricity_deg(&pos);
        assert!((0.0..=180.0 + 1e-3).contains(&va));
        assert!((0.0..=180.0 + 1e-3).contains(&ec));
    }
}
