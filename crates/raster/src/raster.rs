//! Triangle rasterisation with z-buffering and directional lighting.

use crate::{
    framebuffer::{to8, Framebuffer},
    math::{Mat4, Vec3},
    mesh::Mesh,
};

/// A transformed, lit, screen-space vertex ready for the fill loop.
#[derive(Clone, Copy, Debug)]
struct ScreenVertex {
    x: f32,
    y: f32,
    /// Normalised device depth in `[-1, 1]`.
    z: f32,
    rgb: [f32; 3],
}

/// The rasteriser: owns light configuration and draw statistics.
///
/// # Examples
///
/// ```
/// use odr_raster::{Framebuffer, Mat4, Mesh, Rasterizer, Vec3};
///
/// let mut fb = Framebuffer::new(64, 64);
/// let mut raster = Rasterizer::new();
/// let mvp = Mat4::perspective(1.0, 1.0, 0.1, 10.0)
///     * Mat4::look_at(Vec3::new(0.0, 0.0, 2.0), Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
/// raster.draw(&mut fb, &Mesh::cube([1.0, 0.2, 0.2]), &Mat4::identity(), &mvp);
/// assert!(fb.coverage([0.0, 0.0, 0.0]) > 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct Rasterizer {
    /// Direction *towards* the light (unit length).
    pub light_dir: Vec3,
    /// Ambient lighting floor in `[0, 1]`.
    pub ambient: f32,
    triangles_drawn: u64,
    triangles_culled: u64,
    pixels_filled: u64,
}

impl Default for Rasterizer {
    fn default() -> Self {
        Rasterizer::new()
    }
}

impl Rasterizer {
    /// Creates a rasteriser with a default key light.
    #[must_use]
    pub fn new() -> Self {
        Rasterizer {
            light_dir: Vec3::new(0.4, 0.8, 0.45).normalized(),
            ambient: 0.25,
            triangles_drawn: 0,
            triangles_culled: 0,
            pixels_filled: 0,
        }
    }

    /// Triangles actually filled so far.
    #[must_use]
    pub fn triangles_drawn(&self) -> u64 {
        self.triangles_drawn
    }

    /// Triangles rejected by back-face or near-plane culling so far.
    #[must_use]
    pub fn triangles_culled(&self) -> u64 {
        self.triangles_culled
    }

    /// Depth-tested pixels written so far.
    #[must_use]
    pub fn pixels_filled(&self) -> u64 {
        self.pixels_filled
    }

    /// Draws `mesh` with the given model matrix and combined
    /// model-view-projection matrix.
    pub fn draw(&mut self, fb: &mut Framebuffer, mesh: &Mesh, model: &Mat4, mvp: &Mat4) {
        let (w, h) = (fb.width() as f32, fb.height() as f32);
        for tri in mesh.indices.chunks_exact(3) {
            let verts = [
                mesh.vertices[tri[0] as usize],
                mesh.vertices[tri[1] as usize],
                mesh.vertices[tri[2] as usize],
            ];

            let mut screen = [ScreenVertex {
                x: 0.0,
                y: 0.0,
                z: 0.0,
                rgb: [0.0; 3],
            }; 3];
            let mut clipped = false;
            for (dst, v) in screen.iter_mut().zip(verts.iter()) {
                let clip = mvp.transform_point(v.position);
                if clip.w <= 1e-6 {
                    // Behind the near plane; drop the whole triangle (the
                    // scenes keep geometry inside the frustum, so proper
                    // near-plane clipping is unnecessary).
                    clipped = true;
                    break;
                }
                let inv_w = 1.0 / clip.w;
                dst.x = (clip.x * inv_w + 1.0) * 0.5 * w;
                dst.y = (1.0 - clip.y * inv_w) * 0.5 * h;
                dst.z = clip.z * inv_w;
            }
            if clipped {
                self.triangles_culled += 1;
                continue;
            }

            // Back-face culling (counter-clockwise is front-facing in
            // screen space, where y grows downward).
            let area = edge(&screen[0], &screen[1], &screen[2]);
            if area >= -1e-6 {
                self.triangles_culled += 1;
                continue;
            }
            // Gouraud shading with the world-space normal, only for the
            // triangles that survive the cull.
            for (dst, v) in screen.iter_mut().zip(verts.iter()) {
                let n = model.transform_dir(v.normal).normalized();
                let diffuse = n.dot(self.light_dir).max(0.0);
                let shade = self.ambient + (1.0 - self.ambient) * diffuse;
                dst.rgb = [v.color[0] * shade, v.color[1] * shade, v.color[2] * shade];
            }
            self.fill(fb, &screen, area);
            self.triangles_drawn += 1;
        }
    }

    /// Fills one clockwise (`area < 0`) screen-space triangle.
    ///
    /// Each row is cut to a conservative span (see [`row_span`]) and the
    /// span runs in groups of [`LANES`] pixels: weights, inside mask and
    /// depth for the whole group, then the masked depth test, then
    /// colour for groups where some pixel passed it. Every pixel
    /// evaluates the same f32 operations in the same order as a
    /// per-pixel walk of the bounding box, so the output is
    /// bit-identical to one.
    fn fill(&mut self, fb: &mut Framebuffer, v: &[ScreenVertex; 3], area: f32) {
        let width = fb.width() as usize;
        let min_x = v
            .iter()
            .map(|p| p.x)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as i32;
        let max_x = v
            .iter()
            .map(|p| p.x)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(fb.width() as f32 - 1.0) as i32;
        let min_y = v
            .iter()
            .map(|p| p.y)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as i32;
        let max_y = v
            .iter()
            .map(|p| p.y)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(fb.height() as f32 - 1.0) as i32;

        let inv_area = 1.0 / area;
        // Barycentric edge functions (signs flipped for clockwise
        // screen-space winding): w0 is opposite v0, and so on.
        let edges = [
            EdgeFn::new(&v[1], &v[2]),
            EdgeFn::new(&v[2], &v[0]),
            EdgeFn::new(&v[0], &v[1]),
        ];
        let spans = max_x - min_x + 1 >= LANES as i32 && span_safe(v);
        let (color, depth) = fb.planes_mut();
        let mut filled = 0u64;
        for y in min_y..=max_y {
            let py = y as f32 + 0.5;
            let row_terms = edges.map(|e| e.row_term(py));
            let (lo, hi) = if spans {
                row_span(&edges, &row_terms, min_x, max_x, width)
            } else {
                (min_x, max_x)
            };
            let row = y as usize * width;
            for x0 in (lo..=hi).step_by(LANES) {
                let lanes = ((hi - x0 + 1) as usize).min(LANES);
                let mut px = [0.0f32; LANES];
                for (i, p) in px.iter_mut().enumerate() {
                    *p = (x0 + i as i32) as f32 + 0.5;
                }
                let mut weights = [[0.0f32; LANES]; 3];
                for ((lane_w, e), row_term) in weights.iter_mut().zip(&edges).zip(row_terms) {
                    for (wi, &p) in lane_w.iter_mut().zip(&px) {
                        *wi = e.at(row_term, p) * inv_area;
                    }
                }
                let [w0, w1, w2] = weights;
                let mut inside = [false; LANES];
                let mut z = [0.0f32; LANES];
                for i in 0..LANES {
                    // Not `||`: the eager form vectorises. A NaN weight
                    // counts as inside, as it always has.
                    inside[i] = !((w0[i] < 0.0) | (w1[i] < 0.0) | (w2[i] < 0.0));
                    z[i] = w0[i] * v[0].z + w1[i] * v[1].z + w2[i] * v[2].z;
                }

                let start = row + x0 as usize;
                let depth_run = &mut depth[start..start + lanes];
                let mut visible = [false; LANES];
                for ((vis, &ins), (&zi, &d)) in visible
                    .iter_mut()
                    .zip(&inside)
                    .zip(z.iter().zip(depth_run.iter()))
                {
                    filled += u64::from(ins);
                    *vis = ins && zi < d;
                }
                if !visible.contains(&true) {
                    continue;
                }
                let mut packed = [0xff00_0000u32; LANES];
                for (ch, shift) in [(0, 0), (1, 8), (2, 16)] {
                    let rgb = [v[0].rgb[ch], v[1].rgb[ch], v[2].rgb[ch]];
                    for (i, c) in packed.iter_mut().enumerate() {
                        *c |= to8(w0[i] * rgb[0] + w1[i] * rgb[1] + w2[i] * rgb[2]) << shift;
                    }
                }
                let color_run = &mut color[start..start + lanes];
                for (i, (d, c)) in depth_run.iter_mut().zip(color_run).enumerate() {
                    if visible[i] {
                        *d = z[i];
                        *c = packed[i];
                    }
                }
            }
        }
        self.pixels_filled += filled;
    }
}

/// Pixels evaluated together by the fill loop: one `[f32; LANES]` per
/// quantity, a shape the compiler maps onto SIMD registers.
const LANES: usize = 8;

/// Vertices beyond this screen-space magnitude (or non-finite) skip the
/// span set-up: its error bound assumes every product stays far from
/// f32 overflow. Such triangles fill their whole bounding box rows,
/// which is still exact, merely slower.
const SPAN_COORD_LIMIT: f32 = (1u64 << 40) as f32;

/// Edges that rise less than this bound neither span end: the root of
/// a nearly horizontal edge lies far outside the bounding box anyway,
/// and skipping it keeps underflow out of the error bound.
const SPAN_MIN_RISE: f32 = 1.0 / 1024.0;

/// Relative float-error margin of a span end, 64 f32 ulps (2^-18):
/// each pixel's edge value takes three roundings (`px - x0`, the
/// product, the difference), worth at most about 2 ulps of its
/// operands, so the margin is a wide over-estimate yet far below one
/// pixel.
const SPAN_SLACK: f64 = 1.0 / 262_144.0;

/// One edge function `e(p) = dx * (p.y - y0) - dy * (p.x - x0)` of the
/// edge `(x0, y0) → (x0 + dx, y0 + dy)`, split so the fill can hoist the
/// row term out of the pixel loop without changing a rounding.
#[derive(Clone, Copy, Debug)]
struct EdgeFn {
    x0: f32,
    y0: f32,
    dx: f32,
    dy: f32,
}

impl EdgeFn {
    fn new(a: &ScreenVertex, b: &ScreenVertex) -> Self {
        EdgeFn {
            x0: a.x,
            y0: a.y,
            dx: b.x - a.x,
            dy: b.y - a.y,
        }
    }

    /// The row's `dx * (py - y0)` term.
    fn row_term(self, py: f32) -> f32 {
        self.dx * (py - self.y0)
    }

    /// The edge value at pixel centre `px` of the row with `row_term`.
    fn at(self, row_term: f32, px: f32) -> f32 {
        row_term - self.dy * (px - self.x0)
    }
}

/// Whether [`row_span`]'s error bound holds for this triangle.
fn span_safe(v: &[ScreenVertex; 3]) -> bool {
    v.iter()
        .all(|p| p.x.abs() <= SPAN_COORD_LIMIT && p.y.abs() <= SPAN_COORD_LIMIT)
}

/// The pixel columns `lo..=hi` of one row that can be inside all three
/// edges, clamped to `min_x..=max_x` (empty when `lo > hi`).
///
/// A pixel is inside edge `e` when `e(p) * inv_area` is not negative,
/// and `inv_area < 0`, so when `e(p) <= 0` (or the product underflows).
/// Along a row `e` falls linearly in `px` with slope `-dy`: a rising
/// edge (`dy > 0`) bounds the span from the left, a falling one from
/// the right, at the real root `x0 + row_term / dy`. The computed value
/// can take the inside sign on the wrong side of that root only within
/// about two ulps of `|x0| + width`, so each end widens by
/// `SPAN_SLACK * (|root| + |x0| + width + 1)`: conservative, yet a small
/// fraction of a pixel for every on-screen triangle.
fn row_span(
    edges: &[EdgeFn; 3],
    row_terms: &[f32; 3],
    min_x: i32,
    max_x: i32,
    width: usize,
) -> (i32, i32) {
    let (mut lo, mut hi) = (f64::from(min_x), f64::from(max_x));
    for (e, &row_term) in edges.iter().zip(row_terms) {
        if e.dy.abs() < SPAN_MIN_RISE {
            continue;
        }
        let root = f64::from(e.x0) + f64::from(row_term) / f64::from(e.dy);
        let margin = SPAN_SLACK * (root.abs() + f64::from(e.x0).abs() + width as f64 + 1.0);
        // Pixel x has its centre at x + 0.5.
        if e.dy > 0.0 {
            lo = lo.max((root - margin - 0.5).ceil());
        } else {
            hi = hi.min((root + margin - 0.5).floor());
        }
    }
    (lo as i32, hi as i32)
}

/// Signed double area of triangle (a, b, c) in screen space.
fn edge(a: &ScreenVertex, b: &ScreenVertex, c: &ScreenVertex) -> f32 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;

    /// The bounding-box fill the span/lane fill replaced, kept verbatim
    /// as the differential reference: every pixel of the box, three edge
    /// functions each, written through `Framebuffer::put`. Returns the
    /// pixels it counted as filled.
    fn reference_fill(fb: &mut Framebuffer, v: &[ScreenVertex; 3], area: f32) -> u64 {
        let min_x = v
            .iter()
            .map(|p| p.x)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as i32;
        let max_x = v
            .iter()
            .map(|p| p.x)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(fb.width() as f32 - 1.0) as i32;
        let min_y = v
            .iter()
            .map(|p| p.y)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as i32;
        let max_y = v
            .iter()
            .map(|p| p.y)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(fb.height() as f32 - 1.0) as i32;

        let mut filled = 0;
        let inv_area = 1.0 / area;
        for y in min_y..=max_y {
            for x in min_x..=max_x {
                let p = ScreenVertex {
                    x: x as f32 + 0.5,
                    y: y as f32 + 0.5,
                    z: 0.0,
                    rgb: [0.0; 3],
                };
                let w0 = edge(&v[1], &v[2], &p) * inv_area;
                let w1 = edge(&v[2], &v[0], &p) * inv_area;
                let w2 = edge(&v[0], &v[1], &p) * inv_area;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let z = w0 * v[0].z + w1 * v[1].z + w2 * v[2].z;
                let rgb = [
                    w0 * v[0].rgb[0] + w1 * v[1].rgb[0] + w2 * v[2].rgb[0],
                    w0 * v[0].rgb[1] + w1 * v[1].rgb[1] + w2 * v[2].rgb[1],
                    w0 * v[0].rgb[2] + w1 * v[1].rgb[2] + w2 * v[2].rgb[2],
                ];
                fb.put(x, y, z, rgb);
                filled += 1;
            }
        }
        filled
    }

    /// xorshift64*: a seeded, dependency-free source of test triangles.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            let unit = (self.next() >> 40) as f32 / (1u64 << 24) as f32;
            lo + (hi - lo) * unit
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn vertex(x: f32, y: f32, rng: &mut Rng) -> ScreenVertex {
        ScreenVertex {
            x,
            y,
            z: rng.range(-1.0, 1.0),
            // Slightly out of [0, 1] so the clamp in `pack` is exercised.
            rgb: [
                rng.range(-0.2, 1.2),
                rng.range(-0.2, 1.2),
                rng.range(-0.2, 1.2),
            ],
        }
    }

    /// One hostile triangle for a `w`×`h` target, by `kind`.
    fn hostile_triangle(rng: &mut Rng, kind: u64, w: f32, h: f32) -> [ScreenVertex; 3] {
        let point = |rng: &mut Rng, margin: f32| {
            (
                rng.range(-margin * w, (1.0 + margin) * w),
                rng.range(-margin * h, (1.0 + margin) * h),
            )
        };
        let ((x0, y0), (x1, y1), (x2, y2)) = match kind {
            // Ordinary, mostly on screen.
            0 => (point(rng, 0.25), point(rng, 0.25), point(rng, 0.25)),
            // Sliver: the third vertex a hair off the long edge.
            1 => {
                let (a, b) = (point(rng, 0.1), point(rng, 0.1));
                let t = rng.range(0.0, 1.0);
                let off = rng.range(-0.05, 0.05);
                (
                    a,
                    b,
                    (a.0 + t * (b.0 - a.0) + off, a.1 + t * (b.1 - a.1) - off),
                )
            }
            // Near-horizontal edge.
            2 => {
                let (a, c) = (point(rng, 0.1), point(rng, 0.1));
                let b = (rng.range(-0.1 * w, 1.1 * w), a.1 + rng.range(-1e-3, 1e-3));
                (a, b, c)
            }
            // Near-vertical edge.
            3 => {
                let (a, c) = (point(rng, 0.1), point(rng, 0.1));
                let b = (a.0 + rng.range(-1e-3, 1e-3), rng.range(-0.1 * h, 1.1 * h));
                (a, b, c)
            }
            // Mostly off screen.
            4 => (point(rng, 3.0), point(rng, 3.0), point(rng, 3.0)),
            // Sub-pixel.
            5 => {
                let (cx, cy) = point(rng, 0.0);
                let near = |rng: &mut Rng| (cx + rng.range(-0.6, 0.6), cy + rng.range(-0.6, 0.6));
                (near(rng), near(rng), near(rng))
            }
            // Huge screen coordinates around an on-screen vertex, both
            // inside and beyond the span set-up's magnitude limit.
            6 => {
                let scale = [1e4, 1e7, 1e11, 1e13, 1e20, 1e30][rng.below(6) as usize];
                let far = |rng: &mut Rng| (rng.range(-scale, scale), rng.range(-scale, scale));
                (point(rng, 0.0), far(rng), far(rng))
            }
            // Vertices on the half-pixel grid: edges through pixel
            // centres, where an edge value is exactly zero.
            _ => {
                let grid = |rng: &mut Rng| {
                    let (x, y) = point(rng, 0.2);
                    ((x * 2.0).round() / 2.0, (y * 2.0).round() / 2.0)
                };
                (grid(rng), grid(rng), grid(rng))
            }
        };
        [
            vertex(x0, y0, rng),
            vertex(x1, y1, rng),
            vertex(x2, y2, rng),
        ]
    }

    #[test]
    fn span_fill_matches_bounding_box_fill_on_hostile_triangles() {
        for (seed, (width, height)) in [
            (0x0d12u64, (61u32, 37u32)),
            (0x5eed, (64, 16)),
            (0xbad, (7, 9)),
        ] {
            let mut rng = Rng(seed);
            let mut expected = Framebuffer::new(width, height);
            let mut actual = Framebuffer::new(width, height);
            let mut r = Rasterizer::new();
            let mut expected_filled = 0;
            for n in 0..400 {
                let kind = rng.below(8);
                let mut tri = hostile_triangle(&mut rng, kind, width as f32, height as f32);
                if edge(&tri[0], &tri[1], &tri[2]) > 0.0 {
                    tri.swap(1, 2);
                }
                let area = edge(&tri[0], &tri[1], &tri[2]);
                // The same gate as `draw`: NaN areas reach the fill.
                if area >= -1e-6 {
                    continue;
                }
                expected_filled += reference_fill(&mut expected, &tri, area);
                r.fill(&mut actual, &tri, area);
                let at = format!("seed {seed:#x}, triangle {n} (kind {kind}): {tri:?}");
                assert_eq!(r.pixels_filled(), expected_filled, "pixels filled, {at}");
                assert_eq!(actual.pixels(), expected.pixels(), "colour, {at}");
                let depth_bits = |fb: &mut Framebuffer| -> Vec<u32> {
                    fb.planes_mut().1.iter().map(|d| d.to_bits()).collect()
                };
                assert_eq!(
                    depth_bits(&mut actual),
                    depth_bits(&mut expected),
                    "depth, {at}"
                );
            }
        }
    }

    fn front_view() -> Mat4 {
        Mat4::perspective(1.0, 1.0, 0.1, 10.0)
            * Mat4::look_at(
                Vec3::new(0.0, 0.0, 2.5),
                Vec3::ZERO,
                Vec3::new(0.0, 1.0, 0.0),
            )
    }

    #[test]
    fn cube_covers_center_of_screen() {
        let mut fb = Framebuffer::new(64, 64);
        let mut r = Rasterizer::new();
        r.draw(
            &mut fb,
            &Mesh::cube([1.0, 0.0, 0.0]),
            &Mat4::identity(),
            &front_view(),
        );
        // The centre pixel must be covered and reddish.
        let px = fb.pixel(32, 32);
        assert_ne!(px, 0xff00_0000, "centre uncovered");
        assert!(px & 0xff > (px >> 8) & 0xff, "not red-dominant: {px:08x}");
        assert!(r.triangles_drawn() > 0);
        assert!(r.triangles_culled() > 0, "back faces must be culled");
    }

    #[test]
    fn culling_halves_cube_triangles() {
        let mut fb = Framebuffer::new(32, 32);
        let mut r = Rasterizer::new();
        r.draw(
            &mut fb,
            &Mesh::cube([1.0; 3]),
            &Mat4::identity(),
            &front_view(),
        );
        // A cube seen head-on shows at most 3 faces = 6 triangles.
        assert!(r.triangles_drawn() <= 6);
        assert_eq!(r.triangles_drawn() + r.triangles_culled(), 12);
    }

    #[test]
    fn nearer_object_occludes_farther() {
        let mut fb = Framebuffer::new(64, 64);
        let mut r = Rasterizer::new();
        let view = front_view();
        // Red cube behind, green cube in front.
        let back = Mat4::translation(Vec3::new(0.0, 0.0, -1.0));
        r.draw(&mut fb, &Mesh::cube([1.0, 0.0, 0.0]), &back, &(view * back));
        let front = Mat4::translation(Vec3::new(0.0, 0.0, 0.5));
        r.draw(
            &mut fb,
            &Mesh::cube([0.0, 1.0, 0.0]),
            &front,
            &(view * front),
        );
        let px = fb.pixel(32, 32);
        let (red, green) = (px & 0xff, (px >> 8) & 0xff);
        assert!(green > red, "front cube must win: {px:08x}");
    }

    #[test]
    fn draw_order_does_not_matter_for_depth() {
        let view = front_view();
        let back = Mat4::translation(Vec3::new(0.0, 0.0, -1.0));
        let front = Mat4::translation(Vec3::new(0.0, 0.0, 0.5));
        let red = Mesh::cube([1.0, 0.0, 0.0]);
        let green = Mesh::cube([0.0, 1.0, 0.0]);

        let mut fb1 = Framebuffer::new(48, 48);
        let mut r1 = Rasterizer::new();
        r1.draw(&mut fb1, &red, &back, &(view * back));
        r1.draw(&mut fb1, &green, &front, &(view * front));

        let mut fb2 = Framebuffer::new(48, 48);
        let mut r2 = Rasterizer::new();
        r2.draw(&mut fb2, &green, &front, &(view * front));
        r2.draw(&mut fb2, &red, &back, &(view * back));

        assert_eq!(fb1.checksum(), fb2.checksum());
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut checksums = Vec::new();
        for _ in 0..2 {
            let mut fb = Framebuffer::new(64, 64);
            let mut r = Rasterizer::new();
            let view = front_view();
            r.draw(
                &mut fb,
                &Mesh::sphere(12, 16, [0.2, 0.4, 1.0]),
                &Mat4::identity(),
                &view,
            );
            checksums.push(fb.checksum());
        }
        assert_eq!(checksums[0], checksums[1]);
    }

    #[test]
    fn behind_camera_geometry_is_dropped() {
        let mut fb = Framebuffer::new(32, 32);
        let mut r = Rasterizer::new();
        let view = front_view();
        let model = Mat4::translation(Vec3::new(0.0, 0.0, 10.0)); // behind the eye
        r.draw(&mut fb, &Mesh::cube([1.0; 3]), &model, &(view * model));
        assert_eq!(r.triangles_drawn(), 0);
        assert_eq!(fb.coverage([0.0; 3]), 0.0);
    }

    #[test]
    fn lighting_darkens_unlit_faces() {
        let mut fb = Framebuffer::new(64, 64);
        let mut r = Rasterizer::new();
        r.ambient = 0.1;
        r.light_dir = Vec3::new(1.0, 0.0, 0.0); // light from +X only
        let view = front_view();
        r.draw(
            &mut fb,
            &Mesh::cube([1.0, 1.0, 1.0]),
            &Mat4::identity(),
            &view,
        );
        // The front face (+Z normal) receives no diffuse light: near
        // ambient only.
        let px = fb.pixel(32, 32) & 0xff;
        assert!(px < 60, "front face too bright: {px}");
    }
}
