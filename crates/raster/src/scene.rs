//! A procedurally animated scene with time-varying complexity.

use crate::{
    framebuffer::Framebuffer,
    math::{Mat4, Vec3},
    mesh::Mesh,
    raster::Rasterizer,
};

/// A spinning-objects scene whose *object count oscillates over time*, so
/// frame cost varies the way a real game's does (the cause of the paper's
/// Figure 4 processing-time variation).
///
/// The scene is a pure function of `(config, time, camera_yaw)` — no hidden
/// state — so any two renders of the same instant are pixel-identical.
#[derive(Clone, Debug)]
pub struct Scene {
    ground: Mesh,
    cube: Mesh,
    sphere: Mesh,
    /// Baseline number of objects.
    pub base_objects: u32,
    /// Peak-to-peak swing of the object count.
    pub object_swing: u32,
    /// Complexity oscillation period in seconds.
    pub swing_period_s: f32,
    /// Camera yaw in radians; user input steers this.
    pub camera_yaw: f32,
}

impl Scene {
    /// Creates a scene with the given baseline complexity.
    #[must_use]
    pub fn new(base_objects: u32, object_swing: u32) -> Self {
        Scene {
            ground: Mesh::plane(9.0, [0.18, 0.22, 0.18]),
            cube: Mesh::cube([0.85, 0.3, 0.2]),
            sphere: Mesh::sphere(10, 14, [0.2, 0.45, 0.9]),
            base_objects,
            object_swing,
            swing_period_s: 7.0,
            camera_yaw: 0.0,
        }
    }

    /// Applies one user input (steer the camera).
    pub fn apply_input(&mut self, yaw_delta: f32) {
        self.camera_yaw += yaw_delta;
    }

    /// Number of objects visible at time `t` (the complexity driver).
    #[must_use]
    pub fn objects_at(&self, t_secs: f32) -> u32 {
        let phase = core::f32::consts::TAU * t_secs / self.swing_period_s;
        let swing = (phase.sin() * 0.5 + 0.5) * self.object_swing as f32;
        self.base_objects + swing as u32
    }

    /// Renders the scene at time `t` into `fb`; returns the number of
    /// triangles submitted (the frame's complexity).
    pub fn render(&self, raster: &mut Rasterizer, fb: &mut Framebuffer, t_secs: f32) -> u64 {
        fb.clear([0.05, 0.06, 0.1]);
        let aspect = fb.width() as f32 / fb.height() as f32;
        let eye = Vec3::new(
            7.0 * self.camera_yaw.cos(),
            3.5,
            7.0 * self.camera_yaw.sin(),
        );
        let view = Mat4::look_at(eye, Vec3::new(0.0, 0.8, 0.0), Vec3::new(0.0, 1.0, 0.0));
        let proj = Mat4::perspective(1.1, aspect, 0.1, 100.0);
        let vp = proj * view;

        let mut submitted = 0u64;
        let ground_model = Mat4::identity();
        raster.draw(fb, &self.ground, &ground_model, &vp);
        submitted += self.ground.triangle_count() as u64;

        let count = self.objects_at(t_secs);
        for i in 0..count {
            // Deterministic placement on a spiral; alternate cube/sphere.
            let angle = i as f32 * 2.399_963; // golden angle
            let radius = 0.8 + 0.35 * i as f32;
            let spin = t_secs * (0.6 + 0.07 * i as f32);
            let pos = Vec3::new(
                radius.min(12.0) * angle.cos(),
                0.6 + 0.5 * ((t_secs * 1.3 + i as f32).sin() * 0.5 + 0.5),
                radius.min(12.0) * angle.sin(),
            );
            let model = Mat4::translation(pos) * Mat4::rotation_y(spin) * Mat4::scale(0.9);
            let mesh = if i % 2 == 0 { &self.cube } else { &self.sphere };
            raster.draw(fb, mesh, &model, &(vp * model));
            submitted += mesh.triangle_count() as u64;
        }
        submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_oscillates() {
        let s = Scene::new(10, 20);
        let counts: Vec<u32> = (0..70).map(|i| s.objects_at(i as f32 / 10.0)).collect();
        let min = *counts.iter().min().expect("non-empty");
        let max = *counts.iter().max().expect("non-empty");
        assert!(min >= 10);
        assert!(max >= 25, "swing too small: {max}");
    }

    #[test]
    fn render_is_deterministic() {
        let s = Scene::new(6, 4);
        let mut sums = Vec::new();
        for _ in 0..2 {
            let mut fb = Framebuffer::new(96, 54);
            let mut r = Rasterizer::new();
            s.render(&mut r, &mut fb, 2.5);
            sums.push(fb.checksum());
        }
        assert_eq!(sums[0], sums[1]);
    }

    #[test]
    fn frames_change_over_time() {
        let s = Scene::new(6, 4);
        let mut fb = Framebuffer::new(96, 54);
        let mut r = Rasterizer::new();
        s.render(&mut r, &mut fb, 1.0);
        let a = fb.checksum();
        s.render(&mut r, &mut fb, 1.1);
        assert_ne!(a, fb.checksum());
    }

    #[test]
    fn input_changes_the_view() {
        let mut s = Scene::new(6, 4);
        let mut fb = Framebuffer::new(96, 54);
        let mut r = Rasterizer::new();
        s.render(&mut r, &mut fb, 1.0);
        let before = fb.checksum();
        s.apply_input(0.3);
        s.render(&mut r, &mut fb, 1.0);
        assert_ne!(before, fb.checksum());
    }

    #[test]
    fn more_objects_submit_more_triangles() {
        let small = Scene::new(2, 0);
        let large = Scene::new(20, 0);
        let mut fb = Framebuffer::new(96, 54);
        let mut r = Rasterizer::new();
        let a = small.render(&mut r, &mut fb, 0.0);
        let b = large.render(&mut r, &mut fb, 0.0);
        assert!(b > a * 3);
    }

    /// `(width, height, camera yaw, time, checksum, pixels filled)` of
    /// the serving default scene, `Scene::new(12, 14)`, as rendered by
    /// the bounding-box fill that walked every pixel of each triangle's
    /// box. The span/lane fill must reproduce them bit for bit.
    const GOLDENS: [(u32, u32, f32, f32, u64, u64); 12] = [
        (160, 96, 0.0, 0.0, 0xcd20_a1a2_02e6_603a, 8_661),
        (160, 96, 0.0, 1.75, 0x4052_f478_9252_1d1f, 8_760),
        (160, 96, 0.0, 3.5, 0x6a2c_fa45_fff7_6852, 8_502),
        (160, 96, 0.0, 5.25, 0xac63_c47e_1966_445e, 8_254),
        (160, 96, 1.3, 0.0, 0x8690_b83d_26af_13e7, 8_108),
        (160, 96, 1.3, 1.75, 0x5cd4_d557_892e_92a9, 8_445),
        (160, 96, 1.3, 3.5, 0x9de3_bfec_28d9_83df, 8_175),
        (160, 96, 1.3, 5.25, 0x5689_1aae_75a5_5976, 7_584),
        (1280, 720, 0.0, 0.0, 0x3310_4c19_e1e1_b93c, 491_813),
        (1280, 720, 0.0, 1.75, 0xfe0d_707d_b54f_5a74, 498_770),
        (1280, 720, 1.3, 3.5, 0x9b0d_1f82_8b87_9af5, 468_838),
        (1280, 720, 1.3, 5.25, 0x1082_5c36_70d4_000d, 427_731),
    ];

    #[test]
    fn serve_scene_matches_bounding_box_goldens() {
        for (width, height, yaw, t, checksum, filled) in GOLDENS {
            let mut scene = Scene::new(12, 14);
            scene.camera_yaw = yaw;
            let mut fb = Framebuffer::new(width, height);
            let mut r = Rasterizer::new();
            scene.render(&mut r, &mut fb, t);
            let at = format!("{width}x{height} yaw={yaw} t={t}");
            assert_eq!(fb.checksum(), checksum, "framebuffer at {at}");
            assert_eq!(r.pixels_filled(), filled, "pixels filled at {at}");
        }
    }

    #[test]
    fn scene_draws_something() {
        let s = Scene::new(8, 0);
        let mut fb = Framebuffer::new(128, 72);
        let mut r = Rasterizer::new();
        s.render(&mut r, &mut fb, 0.5);
        assert!(
            fb.coverage([0.05, 0.06, 0.1]) > 0.2,
            "coverage {}",
            fb.coverage([0.05, 0.06, 0.1])
        );
    }
}
