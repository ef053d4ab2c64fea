//! Figure 5 — rendered triangles and GPU time under the visibility
//! optimizations.
//!
//! Four scenarios, exactly as §4.4 stages them:
//!
//! * **BL** — staring at the persona from one metre.
//! * **V** — head turned so the persona leaves the viewport.
//! * **F** — persona at the viewport corner while gazing at the opposite
//!   corner (peripheral vision).
//! * **D** — persona beyond the three-metre distance threshold.
//!
//! Plus the occlusion line-up (§4.4's negative result), reported
//! separately.

use crate::report::{pm, render_table};
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::rng::SimRng;
use visionsim_core::stats::StreamingStats;
use visionsim_mesh::geometry::Vec3;
use visionsim_render::camera::Viewer;
use visionsim_render::cost::CostModel;
use visionsim_render::visibility::{PersonaInstance, VisibilityFlags, VisibilityPipeline};

/// One Figure 5 condition.
#[derive(Debug)]
pub struct Figure5Row {
    /// Condition label (BL / V / F / D).
    pub label: &'static str,
    /// Rendered triangles (constant per condition).
    pub triangles: usize,
    /// GPU ms/frame statistics.
    pub gpu_ms: StreamingStats,
}

/// The figure, plus the occlusion check.
#[derive(Debug)]
pub struct Figure5 {
    /// BL / V / F / D rows.
    pub rows: Vec<Figure5Row>,
    /// Total triangles with four personas in a line, occlusion culling
    /// *off* (the measured system).
    pub lineup_triangles_no_occlusion: usize,
    /// The same with occlusion culling *on* (the paper's suggested
    /// optimization).
    pub lineup_triangles_with_occlusion: usize,
}

fn scenario(label: &'static str) -> (Viewer, PersonaInstance) {
    let center = Viewer::looking(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0));
    match label {
        "BL" => (
            center,
            PersonaInstance::paper_ladder(Vec3::new(0.0, 0.0, -1.0)),
        ),
        "V" => (
            center,
            PersonaInstance::paper_ladder(Vec3::new(0.0, 0.0, 2.0)),
        ),
        "F" => (
            center.with_gaze(Vec3::new(0.7, 0.0, -1.0)),
            PersonaInstance::paper_ladder(Vec3::new(-0.8, 0.0, -1.0)),
        ),
        "D" => (
            center,
            PersonaInstance::paper_ladder(Vec3::new(0.0, 0.0, -4.0)),
        ),
        _ => unreachable!("unknown scenario"),
    }
}

/// Run the Figure 5 measurement over `frames` frames per condition.
pub fn run(frames: usize, seed: u64) -> Figure5 {
    let pipeline = VisibilityPipeline::new(VisibilityFlags::vision_pro());
    let model = CostModel::default();
    // Each condition is an independent cell with its own derived noise
    // stream (previously all four shared one sequential RNG).
    let rows = par_map(vec!["BL", "V", "F", "D"], |label| {
        let (viewer, persona) = scenario(label);
        let renders = pipeline.evaluate(&viewer, std::slice::from_ref(&persona));
        let triangles = renders[0].triangles;
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, label, 0));
        let mut gpu_ms = StreamingStats::new();
        for _ in 0..frames {
            gpu_ms.push(model.frame(&renders, 930, &mut rng).gpu_ms);
        }
        Figure5Row {
            label,
            triangles,
            gpu_ms,
        }
    });

    // Occlusion line-up: viewer in front, four personas straight behind
    // one another.
    let viewer = Viewer::looking(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0));
    let line: Vec<PersonaInstance> = (1..=4)
        .map(|i| PersonaInstance::paper_ladder(Vec3::new(0.0, 0.0, -(i as f32))))
        .collect();
    let measure = |occlusion: bool| {
        let mut flags = VisibilityFlags::vision_pro();
        flags.occlusion = occlusion;
        let renders = VisibilityPipeline::new(flags).evaluate(&viewer, &line);
        VisibilityPipeline::total_triangles(&renders)
    };
    Figure5 {
        rows,
        lineup_triangles_no_occlusion: measure(false),
        lineup_triangles_with_occlusion: measure(true),
    }
}

impl Figure5 {
    /// The row for a condition.
    pub fn row(&self, label: &str) -> &Figure5Row {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .expect("known condition")
    }
}

impl std::fmt::Display for Figure5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "cond".to_string(),
            "triangles".to_string(),
            "GPU ms/frame".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    r.triangles.to_string(),
                    pm(r.gpu_ms.mean(), r.gpu_ms.std_dev()),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                "Figure 5: visibility-aware optimizations (BL=baseline, V=viewport, F=foveated, D=distance)",
                &header,
                &rows
            )
        )?;
        writeln!(
            f,
            "Occlusion line-up: {} triangles without culling (measured behaviour), {} with culling (unadopted optimization)",
            self.lineup_triangles_no_occlusion, self.lineup_triangles_with_occlusion
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_counts_match_paper() {
        let fig = run(50, 5);
        assert_eq!(fig.row("BL").triangles, 78_030);
        assert_eq!(fig.row("V").triangles, 36);
        assert_eq!(fig.row("F").triangles, 21_036);
        assert_eq!(fig.row("D").triangles, 45_036);
    }

    #[test]
    fn gpu_times_match_paper_anchors() {
        let fig = run(200, 6);
        let near = |label: &str, target: f64, tol: f64| {
            let got = fig.row(label).gpu_ms.mean();
            assert!((got - target).abs() < tol, "{label}: {got} vs {target}");
        };
        near("BL", 6.55, 0.3);
        near("V", 2.68, 0.2);
        near("F", 3.97, 0.4);
        near("D", 3.91, 0.4);
    }

    #[test]
    fn viewport_reduction_is_about_59_percent() {
        let fig = run(200, 7);
        let bl = fig.row("BL").gpu_ms.mean();
        let v = fig.row("V").gpu_ms.mean();
        let reduction = (bl - v) / bl * 100.0;
        assert!((reduction - 59.0).abs() < 5.0, "{reduction}%");
    }

    #[test]
    fn occlusion_unadopted_but_would_help() {
        let fig = run(10, 8);
        // Measured behaviour: everything renders.
        assert!(fig.lineup_triangles_no_occlusion > 150_000);
        // The unadopted optimization would cut most of it.
        assert!(
            fig.lineup_triangles_with_occlusion * 2 < fig.lineup_triangles_no_occlusion,
            "{} vs {}",
            fig.lineup_triangles_with_occlusion,
            fig.lineup_triangles_no_occlusion
        );
    }

    #[test]
    fn display_includes_all_conditions() {
        let text = format!("{}", run(10, 9));
        for label in ["BL", "V", "F", "D", "Occlusion"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
