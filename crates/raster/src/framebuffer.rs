//! Color + depth render targets.

/// An RGBA8 color buffer with a paired f32 depth buffer.
#[derive(Clone, Debug)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    /// Row-major RGBA pixels, packed `0xAABBGGRR` (little-endian byte order
    /// R, G, B, A).
    color: Vec<u32>,
    depth: Vec<f32>,
}

impl Framebuffer {
    /// Creates a buffer cleared to opaque black and maximum depth.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "empty framebuffer");
        let n = (width as usize) * (height as usize);
        Framebuffer {
            width,
            height,
            color: vec![0xff00_0000; n],
            depth: vec![f32::INFINITY; n],
        }
    }

    /// Buffer width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Clears color (to `rgb`) and depth.
    pub fn clear(&mut self, rgb: [f32; 3]) {
        let packed = pack(rgb);
        self.color.fill(packed);
        self.depth.fill(f32::INFINITY);
    }

    /// Depth-tested write of one pixel. Coordinates outside the buffer are
    /// ignored.
    pub fn put(&mut self, x: i32, y: i32, z: f32, rgb: [f32; 3]) {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            return;
        }
        let idx = y as usize * self.width as usize + x as usize;
        if z < self.depth[idx] {
            self.depth[idx] = z;
            self.color[idx] = pack(rgb);
        }
    }

    /// The packed RGBA pixels, row-major.
    #[must_use]
    pub fn pixels(&self) -> &[u32] {
        &self.color
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn pixel(&self, x: u32, y: u32) -> u32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.color[y as usize * self.width as usize + x as usize]
    }

    /// The color and depth planes, row-major, for the rasterizer's
    /// direct-indexed fill.
    pub(crate) fn planes_mut(&mut self) -> (&mut [u32], &mut [f32]) {
        (&mut self.color, &mut self.depth)
    }

    /// Raw bytes of the color buffer (RGBA interleaved) — what the server
    /// proxy "copies" and the codec consumes. Allocates; a per-frame
    /// loop should reuse a buffer through [`Framebuffer::write_rgba`].
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = vec![0; self.color.len() * 4];
        self.write_rgba(&mut out);
        out
    }

    /// Writes the color buffer as interleaved RGBA bytes into `out`,
    /// replacing its contents. A buffer already `width × height × 4`
    /// bytes long is overwritten in place, so recycling one buffer
    /// across frames costs no allocation.
    pub fn write_rgba(&self, out: &mut Vec<u8>) {
        let len = self.color.len() * 4;
        if out.len() != len {
            resize_zeroed(out, len);
        }
        for (dst, px) in out.chunks_exact_mut(4).zip(&self.color) {
            dst.copy_from_slice(&px.to_le_bytes());
        }
    }

    /// FNV-1a checksum of the color buffer; used by determinism tests.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for px in &self.color {
            for b in px.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Fraction of pixels that differ from the clear color `rgb` —
    /// a cheap coverage measure for tests.
    #[must_use]
    pub fn coverage(&self, clear_rgb: [f32; 3]) -> f64 {
        let clear = pack(clear_rgb);
        let covered = self.color.iter().filter(|&&p| p != clear).count();
        covered as f64 / self.color.len() as f64
    }
}

/// Sizes `out` to `len` bytes: the growth path of
/// [`Framebuffer::write_rgba`], taken only when a buffer is first used
/// or changes resolution.
#[cold]
fn resize_zeroed(out: &mut Vec<u8>, len: usize) {
    *out = vec![0; len];
}

/// Packs linear RGB (clamped) into `0xAABBGGRR`.
fn pack(rgb: [f32; 3]) -> u32 {
    0xff00_0000 | (to8(rgb[2]) << 16) | (to8(rgb[1]) << 8) | to8(rgb[0])
}

/// One linear channel, clamped to `[0, 1]`, as an 8-bit value: the
/// truncation of `clamp(v) * 255 + 0.5`.
///
/// Written so that a lane loop vectorises: the saturating `as` casts
/// compile to scalar code, so the integer comes from the float's bits
/// instead. `y + 2^23` rounds `y` (in `[0.5, 255.5]`) to the nearest
/// integer and leaves it in the low mantissa bits; one compare turns
/// that into truncation. `max`/`min` send NaN to 0 where `clamp` keeps
/// it, and both forms then give byte 0. The result equals
/// `(v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32` for every `f32` bit
/// pattern (checked exhaustively; the tests sample it).
#[allow(clippy::manual_clamp)] // `clamp` keeps NaN, which must map to 0
pub(crate) fn to8(v: f32) -> u32 {
    const TWO_23: f32 = 8_388_608.0;
    let y = v.max(0.0).min(1.0) * 255.0 + 0.5;
    let shifted = y + TWO_23;
    let nearest = shifted.to_bits() - TWO_23.to_bits();
    nearest - u32::from(shifted - TWO_23 > y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_sets_every_pixel() {
        let mut fb = Framebuffer::new(4, 4);
        fb.clear([1.0, 0.0, 0.0]);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(fb.pixel(x, y) & 0x00ff_ffff, 0x0000_00ff);
            }
        }
        assert_eq!(fb.coverage([1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn depth_test_keeps_nearer_pixel() {
        let mut fb = Framebuffer::new(2, 2);
        fb.put(0, 0, 0.5, [0.0, 1.0, 0.0]);
        fb.put(0, 0, 0.9, [1.0, 0.0, 0.0]); // behind: rejected
        assert_eq!(fb.pixel(0, 0) & 0x00ff_ffff, 0x0000_ff00);
        fb.put(0, 0, 0.1, [0.0, 0.0, 1.0]); // in front: accepted
        assert_eq!(fb.pixel(0, 0) & 0x00ff_ffff, 0x00ff_0000);
    }

    #[test]
    fn out_of_bounds_put_is_ignored() {
        let mut fb = Framebuffer::new(2, 2);
        fb.put(-1, 0, 0.0, [1.0; 3]);
        fb.put(0, 5, 0.0, [1.0; 3]);
        assert_eq!(fb.coverage([0.0; 3]), 0.0);
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut a = Framebuffer::new(8, 8);
        let b = Framebuffer::new(8, 8);
        assert_eq!(a.checksum(), b.checksum());
        a.put(3, 3, 0.1, [1.0, 1.0, 0.0]);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn bytes_length_matches() {
        let fb = Framebuffer::new(3, 5);
        assert_eq!(fb.bytes().len(), 3 * 5 * 4);
    }

    #[test]
    fn write_rgba_is_little_endian_and_reuses_the_buffer() {
        let mut fb = Framebuffer::new(3, 2);
        fb.put(1, 0, 0.5, [1.0, 0.5, 0.0]);
        let expected: Vec<u8> = fb.pixels().iter().flat_map(|p| p.to_le_bytes()).collect();
        assert_eq!(fb.bytes(), expected);

        // A stale buffer of the wrong size is resized, one of the right
        // size is overwritten where it lies.
        let mut out = vec![7u8; 5];
        fb.write_rgba(&mut out);
        assert_eq!(out, expected);
        let ptr = out.as_ptr();
        fb.clear([0.0, 0.0, 1.0]);
        fb.write_rgba(&mut out);
        assert_eq!(out.as_ptr(), ptr, "right-sized buffer must not move");
        assert_eq!(&out[..4], &[0, 0, 255, 255]);
    }

    #[test]
    fn to8_matches_the_clamp_and_cast_form() {
        let reference = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32;
        let mut probes = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        // Every channel value whose scaled form sits on or next to a
        // rounding boundary, where truncation and rounding could part
        // ways, and a strided sweep over all bit patterns.
        for k in 0..=255u32 {
            let boundary = (k as f32 + 0.5) / 255.0;
            let bits = boundary.to_bits();
            probes.extend((bits - 64..=bits + 64).map(f32::from_bits));
        }
        probes.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        for v in probes {
            assert_eq!(
                to8(v),
                reference(v),
                "channel {v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty framebuffer")]
    fn zero_size_panics() {
        let _ = Framebuffer::new(0, 4);
    }
}
