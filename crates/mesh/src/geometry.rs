//! Core mesh geometry: vectors, triangle meshes, bounds.

use std::ops::{Add, Mul, Sub};

/// A 3-vector (metres, in the headset's world frame).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec3 {
    /// X (right).
    pub x: f32,
    /// Y (up).
    pub y: f32,
    /// Z (toward the viewer; the scene looks down −Z).
    pub z: f32,
}

impl Vec3 {
    /// Origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Construct from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(&self, o: &Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub fn cross(&self, o: &Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean norm.
    pub fn length(&self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Distance to another point.
    pub fn distance(&self, o: &Vec3) -> f32 {
        (*self - *o).length()
    }

    /// Unit vector (zero vector normalizes to zero).
    pub fn normalized(&self) -> Vec3 {
        let l = self.length();
        if l <= f32::EPSILON {
            Vec3::ZERO
        } else {
            *self * (1.0 / l)
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f32) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Bounding box of a point set; `None` when empty.
    pub fn of_points(points: &[Vec3]) -> Option<Aabb> {
        let first = *points.first()?;
        let mut bb = Aabb {
            min: first,
            max: first,
        };
        for p in &points[1..] {
            bb.min.x = bb.min.x.min(p.x);
            bb.min.y = bb.min.y.min(p.y);
            bb.min.z = bb.min.z.min(p.z);
            bb.max.x = bb.max.x.max(p.x);
            bb.max.y = bb.max.y.max(p.y);
            bb.max.z = bb.max.z.max(p.z);
        }
        Some(bb)
    }

    /// Center point.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extent.
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// The longest axis extent.
    pub fn max_extent(&self) -> f32 {
        let e = self.extent();
        e.x.max(e.y).max(e.z)
    }
}

/// An indexed triangle mesh.
#[derive(Clone, Debug, PartialEq)]
pub struct TriangleMesh {
    /// Vertex positions.
    pub positions: Vec<Vec3>,
    /// Triangles as vertex-index triples.
    pub triangles: Vec<[u32; 3]>,
}

impl TriangleMesh {
    /// An empty mesh.
    pub fn empty() -> Self {
        TriangleMesh {
            positions: Vec::new(),
            triangles: Vec::new(),
        }
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Validate index bounds and non-degenerate structure. Returns the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.positions.len() as u32;
        for (i, t) in self.triangles.iter().enumerate() {
            for &v in t {
                if v >= n {
                    return Err(format!("triangle {i} references vertex {v} >= {n}"));
                }
            }
            if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
                return Err(format!("triangle {i} is degenerate: {t:?}"));
            }
        }
        Ok(())
    }

    /// Bounding box; `None` for an empty mesh.
    pub fn bounds(&self) -> Option<Aabb> {
        Aabb::of_points(&self.positions)
    }

    /// Total surface area.
    pub fn surface_area(&self) -> f32 {
        self.triangles
            .iter()
            .map(|t| {
                let a = self.positions[t[0] as usize];
                let b = self.positions[t[1] as usize];
                let c = self.positions[t[2] as usize];
                (b - a).cross(&(c - a)).length() * 0.5
            })
            .sum()
    }

    /// Centroid of all vertices (zero for an empty mesh).
    pub fn centroid(&self) -> Vec3 {
        if self.positions.is_empty() {
            return Vec3::ZERO;
        }
        let sum = self.positions.iter().fold(Vec3::ZERO, |acc, &p| acc + p);
        sum * (1.0 / self.positions.len() as f32)
    }

    /// Translate every vertex by `delta`.
    pub fn translate(&mut self, delta: Vec3) {
        for p in &mut self.positions {
            *p = *p + delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tetra() -> TriangleMesh {
        TriangleMesh {
            positions: vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ],
            triangles: vec![[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        }
    }

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.cross(&b), Vec3::new(-3.0, 6.0, -3.0));
        assert!((Vec3::new(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let n = Vec3::new(0.0, 0.0, 9.0).normalized();
        assert!((n.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn aabb_covers_points() {
        let pts = vec![
            Vec3::new(-1.0, 0.0, 2.0),
            Vec3::new(3.0, -5.0, 1.0),
            Vec3::new(0.0, 0.0, 0.0),
        ];
        let bb = Aabb::of_points(&pts).unwrap();
        assert_eq!(bb.min, Vec3::new(-1.0, -5.0, 0.0));
        assert_eq!(bb.max, Vec3::new(3.0, 0.0, 2.0));
        assert_eq!(bb.max_extent(), 5.0);
        assert!(Aabb::of_points(&[]).is_none());
    }

    #[test]
    fn mesh_counts_and_validation() {
        let m = unit_tetra();
        assert_eq!(m.triangle_count(), 4);
        assert_eq!(m.vertex_count(), 4);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validation_catches_out_of_range() {
        let mut m = unit_tetra();
        m.triangles.push([0, 1, 9]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_catches_degenerate() {
        let mut m = unit_tetra();
        m.triangles.push([2, 2, 3]);
        assert!(m.validate().unwrap_err().contains("degenerate"));
    }

    #[test]
    fn surface_area_of_unit_right_triangle() {
        let m = TriangleMesh {
            positions: vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
            triangles: vec![[0, 1, 2]],
        };
        assert!((m.surface_area() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn translate_moves_centroid() {
        let mut m = unit_tetra();
        let before = m.centroid();
        m.translate(Vec3::new(0.0, 0.0, -2.0));
        let after = m.centroid();
        assert!((after.z - (before.z - 2.0)).abs() < 1e-6);
    }
}
